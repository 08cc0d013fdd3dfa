//! The compiled-plan cache: one [`FlightCache`] that many sessions — the
//! connections of a `kleislid` server — can share, so a query compiled by
//! any session is a compile skipped by every other. A session constructed
//! with [`Session::new`](crate::Session::new) gets a private one of the
//! same default capacity.
//!
//! Leading, waiting, second-ask admission, LRU eviction, source tags,
//! generations, detach and release are the shared cache's
//! ([`kleisli_core::flight`], "The shared cache"). What is the plan
//! cache's own:
//!
//! * **The key and the cost.** A plan is keyed by its source text and
//!   [`OptConfig`]; the table of recent misses remembers the two hashed
//!   together. A plan costs one unit, so the capacity is the budget. A
//!   plan's sources ([`Compiled::deps`]) are not known until it is
//!   compiled, so every flush detaches a compile in flight: a plan
//!   compiled across an invalidation is handed to its caller and the
//!   waiters already parked on it, not retained, and the next lookup
//!   compiles against the refreshed source.
//! * **The source catalog lives here.** The table statistics the
//!   optimizer consults while compiling ([`PlanCache::table_stats`]) are
//!   a snapshot with the plans' lifetime: fetched from the source at most
//!   once per (source, table), shared by every session sharing the
//!   cache, and dropped by exactly what drops the plans derived from it
//!   — [`PlanCache::clear`] and [`PlanCache::flush_source`] — so a plan
//!   and the statistics it was compiled against go stale together or
//!   not at all. The paper notes that remote statistics "are hard to
//!   get on the fly"; a mediator registers them, it does not
//!   interrogate its sources per query.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex as StdMutex};

use kleisli_core::testutil::Quiescent;
use kleisli_core::{FlightCache, KResult, Lookup, TableStats};
use kleisli_opt::OptConfig;

use crate::session::Compiled;

/// Observability counters for a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache — including lookups that waited out
    /// another session's in-flight compile of the same key.
    pub hits: u64,
    /// Lookups that found nothing and compiled (`misses` == compiles).
    pub misses: u64,
    /// Plans evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans handed to their callers but not retained, because their key
    /// was not asked for before their compile.
    pub declined: u64,
    /// Plans dropped by [`PlanCache::flush_source`] (invalidation, not
    /// capacity pressure — counted separately from `evictions`).
    pub flushes: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum plans kept (`0` disables retention).
    pub capacity: usize,
}

/// A plan's key: its source text and optimizer configuration.
type Key = (String, OptConfig);

/// The compiled-plan cache; see the module docs. Construct with
/// [`PlanCache::new`] and share across sessions via
/// [`Session::share_plan_cache`](crate::Session::share_plan_cache).
pub struct PlanCache {
    plans: Arc<FlightCache<Key, Compiled>>,
    /// The source-catalog snapshot, by source. A lock of its own, held
    /// across the fetch: that is what makes "at most once" true under
    /// concurrent compiles, and plan lookups never wait behind it.
    catalog: StdMutex<HashMap<String, SourceTables>>,
}

/// What one source said about its tables, by table — `None` (it keeps
/// no statistics for that one) included.
type SourceTables = HashMap<String, Option<Arc<TableStats>>>;

impl PlanCache {
    /// A cache keeping at most `capacity` compiled plans (`0` disables
    /// retention but keeps single-flight deduplication of concurrent
    /// compiles).
    pub fn new(capacity: usize) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            plans: FlightCache::new(capacity as u64, asked_key),
            catalog: StdMutex::new(HashMap::new()),
        })
    }

    /// Fetch the plan for `(src, config)`, or compile it via `compile`
    /// and cache it if the key was asked for before. Concurrent calls for
    /// the same key wait for the first compile, then share its plan — and
    /// each such wait is an ask. The compile closure runs **without** the
    /// cache lock held, so slow compiles of one query never stall lookups
    /// of others.
    pub fn get_or_compile(
        &self,
        src: &str,
        config: &OptConfig,
        compile: impl FnOnce() -> KResult<Arc<Compiled>>,
    ) -> KResult<Arc<Compiled>> {
        match self.plans.join(key(src, config), None, None, None) {
            Ok(Lookup::Hit(plan)) => Ok(plan),
            Ok(Lookup::Miss(ticket)) => {
                // An `Err` or an unwind drops the ticket: a waiter compiles.
                let plan = compile()?;
                ticket.commit(Arc::clone(&plan), 1, &plan.deps);
                Ok(plan)
            }
            // A compile that asks for its own key compiles it; a wait
            // with no budget never gives up.
            Ok(Lookup::Reentrant) | Err(_) => compile(),
        }
    }

    /// Non-blocking, counter-neutral probe: the cached plan if one is
    /// committed, `None` otherwise — even when a compile of this key is
    /// in flight elsewhere. The server's warm fast path uses this to find
    /// out whether it can serve at all without paying the single-flight
    /// machinery; it then either serves and says so
    /// ([`PlanCache::record_hit`]) or falls through to
    /// [`PlanCache::get_or_compile`], which counts — one hit per query
    /// served, either way.
    pub fn peek(&self, src: &str, config: &OptConfig) -> Option<Arc<Compiled>> {
        self.plans.peek(&key(src, config))
    }

    /// A query was served from the plan [`PlanCache::peek`] found: count
    /// the hit and refresh the plan's LRU position.
    pub fn record_hit(&self, src: &str, config: &OptConfig) {
        self.plans.hit(&key(src, config));
    }

    /// The statistics of `table` at `source` as of the source's current
    /// invalidation generation: answered from the snapshot, which
    /// `fetch` fills on the first question (a source with nothing to
    /// say is remembered too). See the module docs for what drops it.
    pub fn table_stats(
        &self,
        source: &str,
        table: &str,
        fetch: impl FnOnce() -> Option<TableStats>,
    ) -> Option<Arc<TableStats>> {
        let mut catalog = self.catalog.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(known) = catalog.get(source).and_then(|tables| tables.get(table)) {
            return known.clone();
        }
        let fetched = fetch().map(Arc::new);
        catalog
            .entry(source.to_string())
            .or_default()
            .insert(table.to_string(), fetched.clone());
        fetched
    }

    /// Hit/miss/eviction/decline counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let s = self.plans.stats();
        PlanCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            declined: s.declined,
            flushes: s.flushes,
            entries: s.entries,
            capacity: self.capacity(),
        }
    }

    /// Drop every cached plan whose [`Compiled::deps`] mention `source`
    /// and the statistics snapshot of its tables, detach the compiles in
    /// flight, and bump that source's invalidation generation. Returns
    /// how many plans were dropped.
    pub fn flush_source(&self, source: &str) -> usize {
        // Statistics first: a compile starting after this line asks the
        // refreshed source, whatever happens to the plans below.
        self.catalog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(source);
        self.plans.flush_source(source).len()
    }

    /// The invalidation generation of `source`: 0 until the first
    /// [`PlanCache::flush_source`], then +1 per flush.
    pub fn generation(&self, source: &str) -> u64 {
        self.plans.generation(source)
    }

    /// The current capacity bound.
    pub fn capacity(&self) -> usize {
        self.plans.budget() as usize
    }

    /// Drop every cached plan and the whole statistics snapshot, and
    /// detach the compiles in flight. Deliberate clears are invalidation,
    /// not capacity pressure, so they count as nothing.
    pub fn clear(&self) {
        self.catalog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.plans.clear();
    }
}

/// The cache: no compile in flight, and none left behind by one that
/// failed.
impl Quiescent for PlanCache {
    fn held(&self) -> Option<String> {
        self.plans.held().map(|held| format!("plan cache: {held}"))
    }
}

fn key(src: &str, config: &OptConfig) -> Key {
    (src.to_string(), config.clone())
}

/// What the table of recent misses remembers a plan by: its source text
/// and optimizer configuration, hashed.
fn asked_key(key: &Key) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Type;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::{Duration, Instant};

    fn plan() -> Arc<Compiled> {
        let e = nrc::Expr::int(1);
        Arc::new(Compiled {
            raw: e.clone(),
            optimized: e,
            trace: Vec::new(),
            ty: Type::Int,
            deps: Vec::new(),
            _shapes: Vec::new(),
        })
    }

    fn plan_on(sources: &[&str]) -> Arc<Compiled> {
        let e = nrc::Expr::int(1);
        Arc::new(Compiled {
            raw: e.clone(),
            optimized: e,
            trace: Vec::new(),
            ty: Type::Int,
            deps: sources.iter().map(|s| Arc::from(*s)).collect(),
            _shapes: Vec::new(),
        })
    }

    /// The first ask of `src`: compiled and handed back, not retained —
    /// what makes the next compile of `src` stay.
    fn ask_once(cache: &PlanCache, src: &str, compiled: Arc<Compiled>) {
        let declined = cache.stats().declined;
        cache
            .get_or_compile(src, &OptConfig::default(), || Ok(compiled))
            .unwrap();
        assert_eq!(
            cache.stats().declined,
            declined + 1,
            "a first ask is declined"
        );
        assert!(cache.peek(src, &OptConfig::default()).is_none());
    }

    #[test]
    fn capacity_eviction_is_counted() {
        let cache = PlanCache::new(2);
        let cfg = OptConfig::default();
        for src in ["a", "b", "c"] {
            ask_once(&cache, src, plan());
            cache.get_or_compile(src, &cfg, || Ok(plan())).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 6);
        // "a" was the LRU victim; "b" and "c" still hit.
        cache.get_or_compile("b", &cfg, || Ok(plan())).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_same_key_compiles_once() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let compiles = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache
                        .get_or_compile("q", &cfg, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            thread::sleep(Duration::from_millis(10));
                            Ok(plan())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "single-flight");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn failed_compile_is_not_cached_and_releases_the_flight() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let err = cache.get_or_compile("bad", &cfg, || {
            Err(kleisli_core::KError::eval("boom"))
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The key is compilable again — no wedged in-flight marker.
        cache.get_or_compile("bad", &cfg, || Ok(plan())).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn an_abandoned_compile_leaves_no_entry() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        for i in 0..1000 {
            let failed = cache.get_or_compile(&format!("bad {i}"), &cfg, || {
                Err(kleisli_core::KError::eval("boom"))
            });
            assert!(failed.is_err());
        }
        let s = cache.plans.stats();
        assert_eq!((s.entries, s.flying), (0, 0), "{s:?}");
        assert_eq!(cache.held(), None);
    }

    #[test]
    fn panicking_compile_releases_the_flight() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compile("q", &cfg, || panic!("compile blew up"))
        }));
        assert!(unwound.is_err());
        // A later lookup of the same key compiles afresh instead of
        // waiting forever on the dead compiler's marker.
        let (tx, rx) = std::sync::mpsc::channel();
        let lookup = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let got = cache.get_or_compile("q", &OptConfig::default(), || Ok(plan()));
                let _ = tx.send(got.is_ok());
            })
        };
        let compiled = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(compiled, Ok(true), "lookup after a panicked compile hung");
        lookup.join().unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn flush_source_drops_exactly_dependent_plans() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        for (src, sources) in [("qa", &["A"][..]), ("qab", &["A", "B"]), ("qb", &["B"])] {
            ask_once(&cache, src, plan_on(sources));
            cache
                .get_or_compile(src, &cfg, || Ok(plan_on(sources)))
                .unwrap();
        }
        assert_eq!(cache.generation("A"), 0);

        let dropped = cache.flush_source("A");
        assert_eq!(dropped, 2, "both plans reading A are flushed");
        assert_eq!(cache.generation("A"), 1);
        assert_eq!(cache.generation("B"), 0);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "the B-only plan survives");
        assert_eq!(s.flushes, 2);
        assert_eq!(s.evictions, 0, "flushes are not evictions");
        assert!(cache.peek("qb", &cfg).is_some());
        assert!(cache.peek("qa", &cfg).is_none());
    }

    #[test]
    fn a_plan_compiled_across_a_flush_is_served_but_not_retained() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let (planning, flushed) = (Barrier::new(2), Barrier::new(2));
        thread::scope(|s| {
            let compile = s.spawn(|| {
                cache.get_or_compile("qa", &cfg, || {
                    // The compile has read the statistics it plans with
                    // and is still in flight when the source is refreshed.
                    cache.table_stats("A", "t", || None);
                    planning.wait();
                    flushed.wait();
                    Ok(plan_on(&["A"]))
                })
            });
            planning.wait();
            assert_eq!(cache.flush_source("A"), 0, "nothing resident to drop");
            flushed.wait();
            assert!(compile.join().unwrap().is_ok(), "the caller gets its plan");
        });
        assert!(cache.peek("qa", &cfg).is_none(), "planned against stale statistics");
        assert_eq!(cache.stats().entries, 0);
        cache
            .get_or_compile("qa", &cfg, || Ok(plan_on(&["A"])))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 1), "the next lookup compiles: {s:?}");
    }

    #[test]
    fn a_first_ask_is_compiled_and_a_second_is_retained() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        // First ask: compiled and handed back, nothing resident, no eviction.
        cache.get_or_compile("q", &cfg, || Ok(plan())).unwrap();
        let s = cache.stats();
        assert_eq!(
            (s.entries, s.declined, s.evictions, s.misses),
            (0, 1, 0, 1),
            "{s:?}"
        );
        // Another configuration is another key, with a first ask of its own.
        cache
            .get_or_compile("q", &OptConfig::none(), || Ok(plan()))
            .unwrap();
        assert_eq!(cache.stats().declined, 2);
        // Second ask: compiled again, and retained...
        cache.get_or_compile("q", &cfg, || Ok(plan())).unwrap();
        assert!(cache.peek("q", &cfg).is_some());
        // ...so the third is a hit.
        cache
            .get_or_compile("q", &cfg, || unreachable!("a hit compiles nothing"))
            .unwrap();
        let s = cache.stats();
        assert_eq!(
            (s.entries, s.declined, s.misses, s.hits),
            (1, 2, 3, 1),
            "{s:?}"
        );
    }

    #[test]
    fn a_coalesced_ask_admits_the_compile_it_waits_on() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let compiling = Barrier::new(2);
        thread::scope(|s| {
            let lead = s.spawn(|| {
                cache.get_or_compile("q", &cfg, || {
                    compiling.wait();
                    // The waiter asks (under the state lock) before it parks.
                    let asked = || cache.plans.asked(&key("q", &cfg));
                    let patience = Instant::now() + Duration::from_secs(2);
                    while !asked() && Instant::now() < patience {
                        thread::yield_now();
                    }
                    Ok(plan())
                })
            });
            compiling.wait();
            cache
                .get_or_compile("q", &cfg, || unreachable!("a waiter compiles nothing"))
                .unwrap();
            lead.join().unwrap().unwrap();
        });
        assert!(
            cache.peek("q", &cfg).is_some(),
            "the compile was asked for twice"
        );
        let s = cache.stats();
        assert_eq!(
            (s.misses, s.hits, s.declined, s.entries),
            (1, 1, 0, 1),
            "{s:?}"
        );
    }

    #[test]
    fn the_table_of_misses_survives_a_flush_and_a_clear() {
        let cache = PlanCache::new(8);
        let cfg = OptConfig::default();
        let compile = || {
            cache
                .get_or_compile("qa", &cfg, || Ok(plan_on(&["A"])))
                .unwrap();
            cache.peek("qa", &cfg).is_some()
        };
        // Asked once, then the source is refreshed: the second ask still
        // counts the first.
        ask_once(&cache, "qa", plan_on(&["A"]));
        cache.flush_source("A");
        assert!(compile(), "retained on its second ask");
        // Resident, then flushed: retained again on its first recompile.
        assert_eq!(cache.flush_source("A"), 1);
        assert!(compile(), "retained on its first recompile");
        // So is it after a whole clear.
        cache.clear();
        assert!(compile(), "retained on its first recompile");
        assert_eq!(cache.stats().declined, 1);
    }
}
