//! The process-wide result cache: one [`FlightCache`] from 64-bit keys —
//! in practice `nrc::hash::plan_hash` digests of optimized plans — to
//! computed [`Value`]s. It is the cross-*session* counterpart of the
//! per-query subquery slots in [`crate::context::Context`]: many sessions
//! (the connections of a `kleislid` server) share one
//! `Arc<ResultCache>`, so a thousand clients issuing the same GenBank
//! query evaluate it **once** and everyone else is served from memory.
//!
//! Leading, waiting, second-ask admission, LRU eviction under the budget,
//! source tags, generations, detach and release are the shared cache's
//! ([`kleisli_core::flight`], "The shared cache"). What is the result
//! cache's own:
//!
//! * **The key and the cost.** A key is the table of recent misses' key
//!   as it is, and it means the same plan across sessions and recompiles
//!   (`plan_hash` hashes fresh binder names by rank), without which a plan
//!   recompiled after a plan-cache eviction would be a stranger every
//!   time. A result costs its [`Value::approx_bytes`], and the budget is
//!   in bytes ([`DEFAULT_RESULT_CACHE_BUDGET`] by default). An entry is
//!   tagged with its plan's sources when it is first asked for
//!   ([`ResultCache::join`]), so a flush drops exactly the results of the
//!   refreshed source, in flight or not.
//! * **The exchange text.** The serialized copy a server ships on a warm
//!   hit ([`ResultCache::exchange_text`]) is kept beside the value,
//!   written by the first reader of a commit and charged to the entry
//!   then: value and text are one entry and leave together, so a
//!   re-commit is always serialized afresh.
//!
//! The server's STATS frame reports [`ResultCache::stats`], kbench reads
//! its `peak_bytes` as `exec.result_cache_peak_mb`, and the server suite's
//! `result_cache_budget_is_enforced_over_the_wire` asserts
//! `peak_bytes <= budget` from it.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kleisli_core::testutil::Quiescent;
use kleisli_core::{write_exchange, CancelToken, FlightCache, Lookup, Ticket, Value, WaitFor};

/// Default byte budget for a [`ResultCache`]: 64 MiB.
pub const DEFAULT_RESULT_CACHE_BUDGET: u64 = 64 * 1024 * 1024;

/// Observability counters for a [`ResultCache`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// Lookups served from a committed entry (including lookups that
    /// waited out another session's in-flight population).
    pub hits: u64,
    /// Lookups that found no committed entry and became the populator.
    pub misses: u64,
    /// Committed entries dropped to fit the byte budget.
    pub evictions: u64,
    /// Commits served but not retained because their key was not asked
    /// for before their flight.
    pub declined: u64,
    /// Entries dropped by [`ResultCache::flush_source`] (deliberate
    /// invalidation — counted separately from `evictions`).
    pub flushes: u64,
    /// Committed entries currently resident (in-flight populations are
    /// not counted — an abandoned flight leaves nothing behind).
    pub entries: usize,
    /// Bytes currently charged by committed entries.
    pub bytes: u64,
    /// High-water mark of `bytes` over the cache's lifetime. The budget
    /// is enforced at commit time, so this never exceeds `budget` (the
    /// bench asserts it).
    pub peak_bytes: u64,
    /// The configured byte budget.
    pub budget: u64,
}

/// A committed result, and its exchange text once a reader asked for it.
struct Resident {
    value: Value,
    text: OnceLock<Arc<String>>,
}

/// The shared cache; see the module docs. Construct with
/// [`ResultCache::new`] and share via `Arc`.
pub struct ResultCache {
    results: Arc<FlightCache<u64, Resident>>,
}

/// Outcome of [`ResultCache::join`].
pub enum ResultLookup {
    /// A committed value (possibly after waiting out another populator).
    Hit(Value),
    /// The caller is the populator: compute the value and
    /// [`ResultTicket::commit`] it (dropping the ticket without
    /// committing aborts, waking waiters to retry).
    Miss(ResultTicket),
    /// The calling thread is already populating this key further up its
    /// own stack (see [`kleisli_core::Join::Reentrant`]); compute without
    /// touching the cache.
    Reentrant,
}

/// Exclusive permission to populate one [`ResultCache`] entry. Commit
/// publishes the value to every waiter *and* charges it against the
/// cache's byte budget; dropping without commit releases the claim.
pub struct ResultTicket(Ticket<u64, Resident>);

impl ResultCache {
    /// A cache enforcing the given byte budget (`0` disables retention:
    /// every commit is immediately evicted, so the cache degenerates to
    /// pure single-flight deduplication of concurrent identical work).
    pub fn new(budget: u64) -> Arc<ResultCache> {
        Arc::new(ResultCache {
            results: FlightCache::new(budget, |key| *key),
        })
    }

    /// A cache with the [`DEFAULT_RESULT_CACHE_BUDGET`].
    pub fn with_default_budget() -> Arc<ResultCache> {
        ResultCache::new(DEFAULT_RESULT_CACHE_BUDGET)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.results.budget()
    }

    /// Read the committed value for `key`, or acquire the right to
    /// compute it. Blocks while another session's population of the same
    /// key is in flight (single-flight: the work runs once process-wide).
    pub fn lookup_or_begin(&self, key: u64) -> ResultLookup {
        self.lookup_or_begin_tagged(key, &[])
    }

    /// [`ResultCache::lookup_or_begin`] with source tags; a
    /// [`ResultCache::join`] with no budget to run out of.
    pub fn lookup_or_begin_tagged(&self, key: u64, deps: &[Arc<str>]) -> ResultLookup {
        self.join(key, deps, None, None)
            .expect("a wait with no deadline and no token never gives up")
    }

    /// Read the committed value for `key`, acquire the right to compute
    /// it, or wait for the session computing it — at most until
    /// `deadline` passes or `cancel` fires, which end this caller's wait
    /// (`Err`, counting neither a hit nor a miss) and nothing else.
    /// `deps` names the drivers the plan behind `key` reads from, so a
    /// later [`ResultCache::flush_source`] of any of them invalidates
    /// this entry. Tags are recorded when the entry is created; identical
    /// keys are identical plans, so re-lookups carry the same tags.
    pub fn join(
        &self,
        key: u64,
        deps: &[Arc<str>],
        deadline: Option<Instant>,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ResultLookup, WaitFor> {
        Ok(match self.results.join(key, Some(deps), deadline, cancel)? {
            Lookup::Hit(resident) => ResultLookup::Hit(resident.value.clone()),
            Lookup::Miss(ticket) => ResultLookup::Miss(ResultTicket(ticket)),
            Lookup::Reentrant => ResultLookup::Reentrant,
        })
    }

    /// The committed value of `key` in exchange format, for a reader that
    /// ships it as is (the server's warm fast path): a counted hit with
    /// an LRU refresh that neither clones the value out nor — after the
    /// first reader of a commit — serializes it. `None`, counting
    /// nothing, while absent or in flight.
    pub fn exchange_text(&self, key: u64) -> Option<Arc<String>> {
        let resident = self.results.hit(&key)?;
        let mut written = false;
        let text = resident.text.get_or_init(|| {
            written = true;
            Arc::new(write_exchange(&resident.value))
        });
        if written {
            self.results.charge(&key, &resident, text.len() as u64);
        }
        Some(Arc::clone(text))
    }

    /// The committed value for `key`, if any, without claiming
    /// population (non-blocking; testing/inspection — no counters or
    /// LRU refresh).
    pub fn peek(&self, key: u64) -> Option<Value> {
        self.results.peek(&key).map(|resident| resident.value.clone())
    }

    /// Point-in-time counters; see [`ResultCacheStats`].
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.results.stats();
        ResultCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            declined: s.declined,
            flushes: s.flushes,
            entries: s.entries,
            bytes: s.cost,
            peak_bytes: s.peak_cost,
            budget: self.budget(),
        }
    }

    /// Drop every entry (counters and the table of recent misses are
    /// kept), detaching the populations in flight.
    pub fn clear(&self) {
        self.results.clear();
    }

    /// Drop every entry tagged with `source`, in flight or not, and bump
    /// that source's invalidation generation. Returns the keys of the
    /// dropped entries.
    pub fn flush_source(&self, source: &str) -> Vec<u64> {
        self.results.flush_source(source)
    }

    /// The invalidation generation of `source`: 0 until the first
    /// [`ResultCache::flush_source`], then +1 per flush.
    pub fn generation(&self, source: &str) -> u64 {
        self.results.generation(source)
    }
}

impl ResultTicket {
    /// Publish `v` to every waiter and charge it against the budget.
    pub fn commit(self, v: Value) {
        let bytes = v.approx_bytes();
        let resident = Resident {
            value: v,
            text: OnceLock::new(),
        };
        self.0.commit(Arc::new(resident), bytes, &[]);
    }
}

/// The cache: no entry without a committed value — no flight running,
/// and none left behind by one abandoned.
impl Quiescent for ResultCache {
    fn held(&self) -> Option<String> {
        self.results.held().map(|held| format!("result cache: {held}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::thread;
    use std::time::Duration;

    fn vint(i: i64) -> Value {
        Value::Int(i)
    }

    fn miss_and_commit(cache: &Arc<ResultCache>, key: u64, deps: &[Arc<str>]) {
        match cache.lookup_or_begin_tagged(key, deps) {
            ResultLookup::Miss(t) => t.commit(vint(key as i64)),
            _ => panic!("miss expected"),
        }
    }

    /// The first ask of `key`: computed and served, not retained — what
    /// makes the next commit of `key` stay.
    fn ask_once(cache: &Arc<ResultCache>, key: u64, deps: &[Arc<str>]) {
        let declined = cache.stats().declined;
        miss_and_commit(cache, key, deps);
        assert_eq!(
            cache.stats().declined,
            declined + 1,
            "a first ask is declined"
        );
        assert_eq!(cache.peek(key), None);
    }

    #[test]
    fn hit_after_commit() {
        let cache = ResultCache::new(1 << 20);
        ask_once(&cache, 1, &[]);
        match cache.lookup_or_begin(1) {
            ResultLookup::Miss(t) => t.commit(vint(42)),
            _ => panic!("fresh key must miss"),
        }
        match cache.lookup_or_begin(1) {
            ResultLookup::Hit(v) => assert_eq!(v, vint(42)),
            _ => panic!("committed key must hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!(s.bytes > 0 && s.bytes <= s.budget);
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let cache = ResultCache::new(1 << 20);
        let populators = std::sync::atomic::AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| match cache.lookup_or_begin(7) {
                    ResultLookup::Miss(t) => {
                        populators.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(10));
                        t.commit(vint(7));
                    }
                    ResultLookup::Hit(v) => assert_eq!(v, vint(7)),
                    ResultLookup::Reentrant => panic!("distinct threads"),
                });
            }
        });
        assert_eq!(populators.load(Ordering::SeqCst), 1, "exactly one flight");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn abandoned_flight_does_not_poison() {
        let cache = ResultCache::new(1 << 20);
        match cache.lookup_or_begin(3) {
            ResultLookup::Miss(t) => drop(t), // populator gives up
            _ => panic!("fresh key must miss"),
        }
        // The next looker-up becomes the populator and can commit.
        match cache.lookup_or_begin(3) {
            ResultLookup::Miss(t) => t.commit(vint(3)),
            _ => panic!("abandoned key must miss again, not hang or hit"),
        }
        assert_eq!(cache.peek(3), Some(vint(3)));
    }

    #[test]
    fn an_abandoned_flight_leaves_no_entry() {
        let cache = ResultCache::new(1 << 20);
        for key in 0..1000 {
            match cache.lookup_or_begin(key) {
                ResultLookup::Miss(t) => drop(t), // the evaluation failed
                _ => panic!("fresh key must miss"),
            }
        }
        let s = cache.results.stats();
        let entries = s.entries + s.flying;
        assert_eq!(entries, 0, "every abandoned flight left its entry");
        // The misses are remembered: the next ask of a key is retained.
        miss_and_commit(&cache, 7, &[]);
        assert_eq!(cache.peek(7), Some(vint(7)));
    }

    #[test]
    fn the_last_caller_to_let_go_of_an_abandoned_flight_removes_its_entry() {
        let cache = ResultCache::new(1 << 20);
        let ResultLookup::Miss(lead) = cache.lookup_or_begin(2) else {
            panic!("a first ask misses")
        };
        let held = || {
            let s = cache.results.stats();
            s.entries + s.flying
        };
        thread::scope(|s| {
            // A waiter's hold on the cell, still held when the leader
            // gives up: it inherits the lead and keeps its ticket.
            let waiter = s.spawn(|| cache.lookup_or_begin(2));
            // The waiter asks (under the map lock) before it parks.
            while !cache.results.asked(&2) {
                thread::yield_now();
            }
            drop(lead);
            assert_eq!(held(), 1, "the waiter may lead in turn");
            // The waiter gives up too: the last one out removes the entry.
            drop(waiter.join().unwrap());
            assert_eq!(held(), 0);
        });
    }

    #[test]
    fn budget_evicts_lru_and_caps_resident_bytes() {
        let one_entry = vint(0).approx_bytes();
        // Room for exactly two committed scalars.
        let cache = ResultCache::new(one_entry * 2);
        for key in 0..5u64 {
            ask_once(&cache, key, &[]);
            match cache.lookup_or_begin(key) {
                ResultLookup::Miss(t) => t.commit(vint(key as i64)),
                _ => panic!("fresh keys must miss"),
            }
            let s = cache.stats();
            assert!(
                s.bytes <= s.budget,
                "resident bytes {} exceed budget {}",
                s.bytes,
                s.budget
            );
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 3, "three LRU victims");
        assert!(s.peak_bytes <= s.budget);
        // The most recent entries survive; the oldest are gone.
        assert_eq!(cache.peek(4), Some(vint(4)));
        assert_eq!(cache.peek(0), None);
    }

    #[test]
    fn oversize_value_is_served_but_not_retained() {
        let cache = ResultCache::new(8); // smaller than any Value node
        ask_once(&cache, 9, &[]);
        match cache.lookup_or_begin(9) {
            ResultLookup::Miss(t) => t.commit(vint(9)),
            _ => panic!("fresh key must miss"),
        }
        assert_eq!(cache.peek(9), None, "oversize entry not retained");
        let s = cache.stats();
        assert_eq!(s.bytes, 0);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn lru_is_refreshed_by_hits() {
        let one_entry = vint(0).approx_bytes();
        let cache = ResultCache::new(one_entry * 2);
        for key in [1u64, 2] {
            ask_once(&cache, key, &[]);
            match cache.lookup_or_begin(key) {
                ResultLookup::Miss(t) => t.commit(vint(key as i64)),
                _ => panic!("miss expected"),
            }
        }
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(matches!(cache.lookup_or_begin(1), ResultLookup::Hit(_)));
        ask_once(&cache, 3, &[]);
        match cache.lookup_or_begin(3) {
            ResultLookup::Miss(t) => t.commit(vint(3)),
            _ => panic!("miss expected"),
        }
        assert_eq!(cache.peek(1), Some(vint(1)), "recently used survives");
        assert_eq!(cache.peek(2), None, "LRU evicted");
    }

    fn tag(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn flush_source_drops_exactly_tagged_entries() {
        let cache = ResultCache::new(1 << 20);
        for (key, deps) in [(1u64, vec![tag("A")]), (2, vec![tag("A"), tag("B")]), (3, vec![tag("B")])] {
            ask_once(&cache, key, &deps);
            match cache.lookup_or_begin_tagged(key, &deps) {
                ResultLookup::Miss(t) => t.commit(vint(key as i64)),
                _ => panic!("fresh keys must miss"),
            }
        }
        let before = cache.stats().bytes;
        assert_eq!(cache.generation("A"), 0);

        let mut flushed = cache.flush_source("A");
        flushed.sort_unstable();
        assert_eq!(flushed, vec![1, 2], "exactly the A-tagged keys");
        assert_eq!(cache.generation("A"), 1);
        assert_eq!(cache.generation("B"), 0);
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.peek(2), None);
        assert_eq!(cache.peek(3), Some(vint(3)), "B-only entry survives");
        let s = cache.stats();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.evictions, 0, "flushes are not evictions");
        assert!(s.bytes < before, "flushed bytes released");
    }

    #[test]
    fn inflight_flush_detaches_without_poisoning_or_double_charging() {
        let cache = ResultCache::new(1 << 20);
        let deps = [tag("A")];
        let stale = match cache.lookup_or_begin_tagged(4, &deps) {
            ResultLookup::Miss(t) => t,
            _ => panic!("fresh key must miss"),
        };
        cache.flush_source("A");
        // A post-flush lookup starts a fresh flight against the
        // refreshed source...
        let fresh = match cache.lookup_or_begin_tagged(4, &deps) {
            ResultLookup::Miss(t) => t,
            _ => panic!("flushed key must miss again"),
        };
        // ...and the stale populator's late commit lands in the
        // detached cell: it must not charge bytes against (or publish
        // into) the fresh entry.
        stale.commit(vint(-1));
        assert_eq!(cache.peek(4), None, "stale value not reachable");
        assert_eq!(cache.stats().bytes, 0, "stale commit not charged");
        fresh.commit(vint(44));
        assert_eq!(cache.peek(4), Some(vint(44)));
    }

    #[test]
    fn exchange_text_lives_and_dies_with_its_entry() {
        let node = vint(0).approx_bytes();
        // Room for two scalars and a short text, not for three scalars.
        let cache = ResultCache::new(node * 2 + 8);
        let commit = |key: u64, v: i64| match cache.lookup_or_begin(key) {
            ResultLookup::Miss(t) => t.commit(vint(v)),
            _ => panic!("miss expected"),
        };
        ask_once(&cache, 1, &[]);
        commit(1, 10);
        let text = cache.exchange_text(1).expect("committed");
        assert_eq!(*text, write_exchange(&vint(10)));
        let charged = cache.stats().bytes;
        assert_eq!(charged, node + text.len() as u64, "value and text, one charge");
        let again = cache.exchange_text(1).expect("still committed");
        assert!(Arc::ptr_eq(&text, &again), "serialized once per commit");
        assert_eq!(cache.stats().bytes, charged);
        assert_eq!(cache.stats().hits, 2, "each reader is a counted hit");

        // Absent and in-flight keys have no text and count nothing.
        assert!(cache.exchange_text(2).is_none());
        ask_once(&cache, 2, &[]);
        let ResultLookup::Miss(flying) = cache.lookup_or_begin(2) else {
            panic!("miss expected")
        };
        assert!(cache.exchange_text(2).is_none());
        assert_eq!(cache.stats().hits, 2);
        flying.commit(vint(20));

        // Budget pressure evicts key 1, value and text together...
        ask_once(&cache, 3, &[]);
        commit(3, 30);
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.stats().bytes, node * 2);
        // ...so a re-commit is serialized afresh, never served the old text.
        commit(1, 11);
        assert_eq!(*cache.exchange_text(1).unwrap(), write_exchange(&vint(11)));
        let s = cache.stats();
        assert!(s.bytes <= s.budget && s.peak_bytes <= s.budget, "{s:?}");
    }

    #[test]
    fn zero_budget_still_deduplicates_in_flight() {
        let cache = ResultCache::new(0);
        match cache.lookup_or_begin(5) {
            ResultLookup::Miss(t) => t.commit(vint(5)),
            _ => panic!("miss expected"),
        }
        // Nothing retained, so the next lookup misses again.
        assert!(matches!(cache.lookup_or_begin(5), ResultLookup::Miss(_)));
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn a_first_ask_is_served_and_a_second_is_retained() {
        let cache = ResultCache::new(1 << 20);
        // First ask: computed and served, nothing resident, no eviction.
        miss_and_commit(&cache, 5, &[]);
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.peak_bytes), (0, 0, 0), "{s:?}");
        assert_eq!((s.declined, s.evictions, s.misses), (1, 0, 1), "{s:?}");
        // Second ask: computed again, and retained...
        miss_and_commit(&cache, 5, &[]);
        assert_eq!(cache.peek(5), Some(vint(5)));
        // ...so the third is a hit.
        assert!(matches!(cache.lookup_or_begin(5), ResultLookup::Hit(_)));
        let s = cache.stats();
        assert_eq!(
            (s.entries, s.declined, s.misses, s.hits),
            (1, 1, 2, 1),
            "{s:?}"
        );
        assert!(s.bytes > 0 && s.peak_bytes <= s.budget, "{s:?}");
    }

    #[test]
    fn a_coalesced_ask_admits_the_flight_it_waits_on() {
        let cache = ResultCache::new(1 << 20);
        let ResultLookup::Miss(lead) = cache.lookup_or_begin(6) else {
            panic!("a first ask misses")
        };
        thread::scope(|s| {
            let waiter = s.spawn(|| match cache.lookup_or_begin(6) {
                ResultLookup::Hit(v) => v,
                _ => panic!("a waiter is served the flight's value"),
            });
            // The waiter asks (under the map lock) before it parks.
            let asked = Instant::now() + Duration::from_secs(2);
            while !cache.results.asked(&6) && Instant::now() < asked {
                thread::yield_now();
            }
            lead.commit(vint(6));
            assert_eq!(waiter.join().unwrap(), vint(6));
        });
        assert_eq!(
            cache.peek(6),
            Some(vint(6)),
            "the flight was asked for twice"
        );
        let s = cache.stats();
        assert_eq!(
            (s.misses, s.hits, s.declined, s.entries),
            (1, 1, 0, 1),
            "{s:?}"
        );
    }

    #[test]
    fn the_table_of_misses_survives_a_flush() {
        let cache = ResultCache::new(1 << 20);
        let deps = [tag("A")];
        // Asked once, then the source is refreshed: the second ask still
        // counts the first.
        ask_once(&cache, 7, &deps);
        cache.flush_source("A");
        miss_and_commit(&cache, 7, &deps);
        assert_eq!(cache.peek(7), Some(vint(7)));
        // Resident, then flushed: retained again on its first recompute.
        assert_eq!(cache.flush_source("A"), vec![7]);
        miss_and_commit(&cache, 7, &deps);
        assert_eq!(cache.peek(7), Some(vint(7)));
        // So does a whole clear.
        cache.clear();
        miss_and_commit(&cache, 7, &deps);
        assert_eq!(cache.peek(7), Some(vint(7)));
        assert_eq!(cache.stats().declined, 1);
    }

    #[test]
    fn an_asked_oversize_value_is_evicted_not_declined() {
        let cache = ResultCache::new(8); // smaller than any Value node
        ask_once(&cache, 8, &[]);
        miss_and_commit(&cache, 8, &[]);
        assert_eq!(cache.peek(8), None, "oversize entry not retained");
        let s = cache.stats();
        assert_eq!(
            (s.bytes, s.peak_bytes, s.evictions, s.declined),
            (0, 0, 1, 1),
            "{s:?}"
        );
    }

    #[test]
    fn resident_bytes_and_their_peak_stay_within_the_budget() {
        let one_entry = vint(0).approx_bytes();
        let cache = ResultCache::new(one_entry * 3);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = rng % 16;
            if let ResultLookup::Miss(t) = cache.lookup_or_begin(key) {
                t.commit(vint(key as i64));
            }
            let s = cache.stats();
            let resident: u64 = (0..16).filter_map(|k| cache.peek(k)).map(|v| v.approx_bytes()).sum();
            assert_eq!(s.bytes, resident, "{s:?}");
            assert!(s.bytes <= s.budget && s.peak_bytes <= s.budget, "{s:?}");
        }
        let s = cache.stats();
        assert!(s.declined >= 16 && s.evictions > 0 && s.hits > 0, "{s:?}");
    }
}
