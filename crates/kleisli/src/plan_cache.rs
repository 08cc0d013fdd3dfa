//! The compiled-plan cache, as a standalone `Arc`-shareable type.
//!
//! Until the server PR this LRU lived as a private struct inside
//! [`Session`](crate::Session); it is now a first-class [`PlanCache`] so
//! that many sessions — the connections of a `kleislid` server — can
//! share **one** cache: a query compiled by any session is a compile
//! skipped by every other. Solo semantics are unchanged: a session
//! constructed with [`Session::new`](crate::Session::new) still gets a
//! private cache of the same default capacity, keyed the same way
//! (source text + [`OptConfig`]), with the same LRU behavior.
//!
//! Two things are new relative to the private struct:
//!
//! * **Single-flight compilation.** A key whose compile is *in flight*
//!   has a [`SingleFlight`] of its own for as long as some caller is
//!   inside [`PlanCache::get_or_compile`] for it: concurrent lookups of
//!   the same key wait for the first compiler's plan and nobody else's,
//!   so N sessions racing the same cold query cost **one** compile, not
//!   N. (A failed compile is not cached; the error propagates to the
//!   compiling caller and one waiting caller compiles in its turn. The
//!   same holds if the compile panics — [`kleisli_core::flight`].)
//! * **Eviction accounting.** [`PlanCacheStats`] now counts `evictions`
//!   (plans dropped for capacity), alongside the existing hit/miss
//!   counters. `misses` equals the number of compiles started.
//! * **Source-scoped invalidation.** [`PlanCache::flush_source`] drops
//!   exactly the plans whose [`Compiled::deps`] mention a refreshed
//!   driver and bumps that source's generation counter
//!   ([`PlanCache::generation`]), so a stale plan can never be served
//!   after the flush returns. It also *detaches* every compile in
//!   flight, as [`PlanCache::clear`] does: a plan's sources are unknown
//!   until it exists, so a compile that overlapped an invalidation is
//!   handed to its caller and the waiters already parked on it, and is
//!   not retained — the next lookup compiles against the refreshed
//!   source. This is the compile-side half of the wire-level FLUSH verb.
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

use std::collections::HashMap;
use std::sync::{Arc, Mutex as StdMutex, Weak};

use kleisli_core::{Join, KResult, SingleFlight, TableStats};
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
    /// Plans dropped by [`PlanCache::flush_source`] (invalidation, not
    /// capacity pressure — counted separately from `evictions`).
    pub flushes: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum plans kept (`0` disables retention).
    pub capacity: usize,
}

struct State {
    /// `(source, config, plan)`, most recently used last. Linear-scan
    /// over a Vec: capacities are tens of entries, and a scan over that
    /// is noise next to even a cache-hit `Arc` bump.
    entries: Vec<(String, OptConfig, Arc<Compiled>)>,
    /// Keys whose compile is in flight, each held weakly: a mark is live
    /// exactly while some caller is inside `get_or_compile` with its
    /// flight in hand, an unwinding one included.
    in_flight: Vec<(String, OptConfig, Weak<Flight>)>,
    /// Per-source invalidation generations: bumped by `flush_source`,
    /// never reset. Sources never flushed are implicitly at generation 0.
    generations: HashMap<Arc<str>, u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    flushes: u64,
}

/// The compiled-plan cache; see the module docs. Construct with
/// [`PlanCache::new`] and share across sessions via
/// [`Session::share_plan_cache`](crate::Session::share_plan_cache).
pub struct PlanCache {
    state: StdMutex<State>,
    /// The source-catalog snapshot, by source. A lock of its own, held
    /// across the fetch: that is what makes "at most once" true under
    /// concurrent compiles, and plan lookups never wait behind it.
    catalog: StdMutex<HashMap<String, SourceTables>>,
}

/// What one source said about its tables, by table — `None` (it keeps
/// no statistics for that one) included.
type SourceTables = HashMap<String, Option<Arc<TableStats>>>;

/// One key's compile in flight.
type Flight = SingleFlight<Arc<Compiled>>;

impl PlanCache {
    /// A cache keeping at most `capacity` compiled plans (`0` disables
    /// retention but keeps single-flight deduplication of concurrent
    /// compiles).
    pub fn new(capacity: usize) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            state: StdMutex::new(State {
                entries: Vec::new(),
                in_flight: Vec::new(),
                generations: HashMap::new(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
                flushes: 0,
            }),
            catalog: StdMutex::new(HashMap::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetch the plan for `(src, config)`, or compile it via `compile`
    /// and cache the result. Concurrent calls for the same key from
    /// other threads wait for the first compile, then share its plan
    /// (single-flight; see the module docs). The compile closure runs
    /// **without** the cache lock held, so slow compiles of one query
    /// never stall lookups of others.
    pub fn get_or_compile(
        &self,
        src: &str,
        config: &OptConfig,
        compile: impl FnOnce() -> KResult<Arc<Compiled>>,
    ) -> KResult<Arc<Compiled>> {
        let flight = {
            let mut st = self.lock();
            if let Some(plan) = st.hit(src, config) {
                return Ok(plan);
            }
            st.flight(src, config)
        };
        match flight.join(None, None) {
            // Waited out another session's compile of this very key.
            Ok(Join::Hit(plan)) => {
                self.lock().hits += 1;
                Ok(plan)
            }
            Ok(Join::Lead(lead)) => {
                self.lock().misses += 1;
                // An `Err` or an unwind drops the lead: a waiter compiles.
                let plan = compile()?;
                self.lock().retire(lead.flight(), &plan);
                lead.commit(Arc::clone(&plan));
                Ok(plan)
            }
            // A compile that asks for its own key compiles it; a wait
            // with no budget never gives up.
            Ok(Join::Reentrant) | Err(_) => compile(),
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
        let st = self.lock();
        let (_, _, plan) = st.entries.iter().find(|(s, c, _)| s == src && c == config)?;
        Some(Arc::clone(plan))
    }

    /// A query was served from the plan [`PlanCache::peek`] found: count
    /// the hit and refresh the plan's LRU position.
    pub fn record_hit(&self, src: &str, config: &OptConfig) {
        self.lock().hit(src, config);
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

    /// Hit/miss/eviction counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let st = self.lock();
        PlanCacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            flushes: st.flushes,
            entries: st.entries.len(),
            capacity: st.capacity,
        }
    }

    /// Drop every cached plan whose [`Compiled::deps`] mention `source`
    /// and the statistics snapshot of its tables, and bump that source's
    /// invalidation generation. Returns how many plans were dropped.
    /// Plans not reading `source` are untouched; compiles in flight are
    /// detached (module docs).
    pub fn flush_source(&self, source: &str) -> usize {
        // Statistics first: a compile starting after this line asks the
        // refreshed source, whatever happens to the plans below.
        self.catalog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(source);
        let mut st = self.lock();
        st.in_flight.clear();
        let before = st.entries.len();
        st.entries
            .retain(|(_, _, plan)| !plan.deps.iter().any(|d| &**d == source));
        let dropped = before - st.entries.len();
        st.flushes += dropped as u64;
        *st.generations.entry(Arc::from(source)).or_insert(0) += 1;
        dropped
    }

    /// The invalidation generation of `source`: 0 until the first
    /// [`PlanCache::flush_source`], then +1 per flush. Lets tests and
    /// callers observe that a refresh actually invalidated.
    pub fn generation(&self, source: &str) -> u64 {
        self.lock()
            .generations
            .get(source)
            .copied()
            .unwrap_or(0)
    }

    /// The current capacity bound.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Resize the cache; `0` disables retention. Entries beyond the new
    /// capacity are evicted oldest-first (counted in the stats).
    pub fn set_capacity(&self, capacity: usize) {
        let mut st = self.lock();
        st.capacity = capacity;
        while st.entries.len() > capacity {
            st.entries.remove(0);
            st.evictions += 1;
        }
    }

    /// Drop every cached plan and the whole statistics snapshot, and
    /// detach the compiles in flight (counters are kept; deliberate
    /// clears are invalidation, not capacity pressure, so they do not
    /// count as evictions).
    pub fn clear(&self) {
        self.catalog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let mut st = self.lock();
        st.in_flight.clear();
        st.entries.clear();
    }
}

impl State {
    /// The committed plan for the key, counted as a hit and moved to the
    /// MRU position.
    fn hit(&mut self, src: &str, config: &OptConfig) -> Option<Arc<Compiled>> {
        let i = self
            .entries
            .iter()
            .position(|(s, c, _)| s == src && c == config)?;
        let entry = self.entries.remove(i);
        let plan = Arc::clone(&entry.2);
        self.entries.push(entry);
        self.hits += 1;
        Some(plan)
    }

    /// The flight of the key's compile: the live one, or a fresh one.
    fn flight(&mut self, src: &str, config: &OptConfig) -> Arc<Flight> {
        self.in_flight.retain(|(.., f)| f.strong_count() > 0);
        let live = self.in_flight.iter().find(|(s, c, _)| s == src && c == config);
        live.and_then(|(.., f)| f.upgrade()).unwrap_or_else(|| {
            let flight = Arc::default();
            self.in_flight.push((src.to_string(), config.clone(), Arc::downgrade(&flight)));
            flight
        })
    }

    /// A compile has produced `plan`: take its mark down and cache the
    /// plan under the mark's key — unless an invalidation detached the
    /// flight in the meantime, which took the mark with it.
    fn retire(&mut self, flight: &Arc<Flight>, plan: &Arc<Compiled>) {
        let mine = Arc::downgrade(flight);
        if let Some(i) = self.in_flight.iter().position(|(.., f)| f.ptr_eq(&mine)) {
            let (src, config, _) = self.in_flight.swap_remove(i);
            self.insert(src, config, Arc::clone(plan));
        }
    }

    fn insert(&mut self, src: String, config: OptConfig, plan: Arc<Compiled>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0); // evict LRU
            self.evictions += 1;
        }
        self.entries.push((src, config, plan));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Type;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    fn plan() -> Arc<Compiled> {
        let e = nrc::Expr::int(1);
        Arc::new(Compiled {
            raw: e.clone(),
            optimized: e,
            trace: Vec::new(),
            ty: Type::Int,
            deps: Vec::new(),
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
        })
    }

    #[test]
    fn capacity_eviction_is_counted() {
        let cache = PlanCache::new(2);
        let cfg = OptConfig::default();
        for src in ["a", "b", "c"] {
            cache.get_or_compile(src, &cfg, || Ok(plan())).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 3);
        // "a" was the LRU victim; "b" and "c" still hit.
        cache.get_or_compile("b", &cfg, || Ok(plan())).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let cache = PlanCache::new(4);
        let cfg = OptConfig::default();
        for src in ["a", "b", "c", "d"] {
            cache.get_or_compile(src, &cfg, || Ok(plan())).unwrap();
        }
        cache.set_capacity(1);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 3);
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
        cache
            .get_or_compile("qa", &cfg, || Ok(plan_on(&["A"])))
            .unwrap();
        cache
            .get_or_compile("qab", &cfg, || Ok(plan_on(&["A", "B"])))
            .unwrap();
        cache
            .get_or_compile("qb", &cfg, || Ok(plan_on(&["B"])))
            .unwrap();
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
}
