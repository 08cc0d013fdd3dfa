//! A process-wide, memory-accounted, single-flight result cache.
//!
//! [`ResultCache`] maps 64-bit keys — in practice `nrc::hash::plan_hash`
//! digests of optimized plans or subplans — to computed [`Value`]s. It is
//! the cross-*session* counterpart of the per-query subquery slots in
//! [`crate::context::Context`]: many sessions (for example, the
//! connections of a `kleislid` server) share one `Arc<ResultCache>`, so a
//! thousand clients issuing the same GenBank query evaluate it **once**
//! and everyone else is served from memory.
//!
//! Three properties, each load-bearing for the server deployment:
//!
//! * **Single-flight population.** Each entry is a
//!   [`kleisli_core::SingleFlight`], and everything about leading,
//!   waiting, giving up and handing the lead over is stated there
//!   ([`kleisli_core::flight`]): the first looker-up receives a
//!   [`ResultTicket`], concurrent lookers-up of the same key wait — each
//!   under its own deadline and cancellation token — for its commit, and
//!   a ticket dropped uncommitted passes the lead to one of them.
//! * **Memory accounting.** Committed values are sized with
//!   [`Value::approx_bytes`] and charged against a configurable byte
//!   budget, and so is the serialized copy a server keeps beside one
//!   ([`ResultCache::exchange_text`]): value and text are one entry, one
//!   charge, and leave together. A charge that pushes the total over
//!   budget evicts least-recently-used *committed* entries until the
//!   total fits again (in-flight entries are never evicted — their size
//!   is unknown and evicting them would duplicate the very work the cache
//!   exists to share). A single entry larger than the whole budget is
//!   served to its waiters but not retained.
//! * **Observability.** [`ResultCache::stats`] exposes hits, misses,
//!   evictions, entry count, resident bytes, and the high-water mark
//!   (`peak_bytes`) — the server's STATS frame reports it, kbench reads
//!   it as `exec.result_cache_peak_mb`, and the server suite's
//!   `result_cache_budget_is_enforced_over_the_wire` asserts
//!   `peak_bytes <= budget` from it.
//!
//! Entries may additionally be **tagged with source names**
//! ([`ResultCache::lookup_or_begin_tagged`]): the drivers the cached
//! plan read from. [`ResultCache::flush_source`] then drops exactly the
//! entries derived from a refreshed source and bumps that source's
//! invalidation generation ([`ResultCache::generation`]) — the
//! result-side half of the wire-level FLUSH verb. An in-flight
//! population of a flushed key is *detached* rather than aborted: its
//! late commit reaches the waiters already parked on it and nobody else,
//! and is charged to nothing, while post-flush lookups of the same key
//! start a fresh flight against the refreshed source.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

use kleisli_core::{write_exchange, CancelToken, Join, Lead, SingleFlight, Value, WaitFor};

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

/// One cache slot plus its accounting metadata.
struct Entry {
    cell: Arc<SingleFlight<Value>>,
    /// The committed value's exchange text, once a reader has asked for
    /// it ([`ResultCache::exchange_text`]).
    text: Option<Arc<String>>,
    /// Bytes charged for the committed value and its text; `None` while
    /// in flight.
    bytes: Option<u64>,
    /// Source names the cached plan reads from (empty for untagged
    /// entries); what [`ResultCache::flush_source`] matches against.
    deps: Vec<Arc<str>>,
    /// Monotone use tick for LRU eviction.
    last_used: u64,
}

struct CacheMap {
    entries: HashMap<u64, Entry>,
    /// Total bytes of committed entries.
    bytes: u64,
    /// Monotone lookup counter feeding `Entry::last_used`.
    tick: u64,
    /// Per-source invalidation generations: bumped by `flush_source`,
    /// never reset. Sources never flushed are implicitly at generation 0.
    generations: HashMap<Arc<str>, u64>,
}

/// The shared cache; see the module docs. Construct with
/// [`ResultCache::new`] and share via `Arc`.
pub struct ResultCache {
    map: StdMutex<CacheMap>,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    flushes: AtomicU64,
    peak_bytes: AtomicU64,
}

/// Outcome of [`ResultCache::lookup_or_begin`].
pub enum ResultLookup {
    /// A committed value (possibly after waiting out another populator).
    Hit(Value),
    /// The caller is the populator: compute the value and
    /// [`ResultTicket::commit`] it (dropping the ticket without
    /// committing aborts, waking waiters to retry).
    Miss(ResultTicket),
    /// The calling thread is already populating this key further up its
    /// own stack (see [`Join::Reentrant`]); compute without touching the
    /// cache.
    Reentrant,
}

/// Exclusive permission to populate one [`ResultCache`] entry. Commit
/// publishes the value to every waiter *and* charges it against the
/// cache's byte budget; dropping without commit releases the claim.
pub struct ResultTicket {
    cache: Arc<ResultCache>,
    key: u64,
    lead: Lead<Value>,
}

impl ResultCache {
    /// A cache enforcing the given byte budget (`0` disables retention:
    /// every commit is immediately evicted, so the cache degenerates to
    /// pure single-flight deduplication of concurrent identical work).
    pub fn new(budget: u64) -> Arc<ResultCache> {
        Arc::new(ResultCache {
            map: StdMutex::new(CacheMap {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
                generations: HashMap::new(),
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        })
    }

    /// A cache with the [`DEFAULT_RESULT_CACHE_BUDGET`].
    pub fn with_default_budget() -> Arc<ResultCache> {
        ResultCache::new(DEFAULT_RESULT_CACHE_BUDGET)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Read the committed value for `key`, or acquire the right to
    /// compute it. Blocks while another session's population of the same
    /// key is in flight (single-flight: the work runs once process-wide).
    pub fn lookup_or_begin(self: &Arc<Self>, key: u64) -> ResultLookup {
        self.lookup_or_begin_tagged(key, &[])
    }

    /// [`ResultCache::lookup_or_begin`] with source tags; a
    /// [`ResultCache::join`] with no budget to run out of.
    pub fn lookup_or_begin_tagged(self: &Arc<Self>, key: u64, deps: &[Arc<str>]) -> ResultLookup {
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
        self: &Arc<Self>,
        key: u64,
        deps: &[Arc<str>],
        deadline: Option<Instant>,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ResultLookup, WaitFor> {
        let cell = {
            let mut map = self.lock_map();
            map.tick += 1;
            let tick = map.tick;
            let entry = map.entries.entry(key).or_insert_with(|| Entry {
                cell: Arc::default(),
                text: None,
                bytes: None,
                deps: deps.to_vec(),
                last_used: 0,
            });
            entry.last_used = tick;
            Arc::clone(&entry.cell)
        };
        // The map lock is released before the (potentially blocking)
        // join: a waiter parked on one key must not hold up lookups of
        // every other key.
        Ok(match cell.join(deadline, cancel)? {
            Join::Hit(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ResultLookup::Hit(v)
            }
            Join::Lead(lead) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ResultLookup::Miss(ResultTicket {
                    cache: Arc::clone(self),
                    key,
                    lead,
                })
            }
            Join::Reentrant => ResultLookup::Reentrant,
        })
    }

    /// The committed value of `key` in exchange format, for a reader that
    /// ships it as is (the server's warm fast path): a counted hit with
    /// an LRU refresh that neither clones the value out nor — after the
    /// first reader of a commit — serializes it. `None`, counting
    /// nothing, while absent or in flight. The text is charged to the
    /// entry like the value and dropped with it by eviction, flush and
    /// clear, so a re-commit is always serialized afresh.
    pub fn exchange_text(&self, key: u64) -> Option<Arc<String>> {
        let (cell, value) = {
            let mut map = self.lock_map();
            map.tick += 1;
            let tick = map.tick;
            let entry = map.entries.get_mut(&key)?;
            let value = entry.cell.peek()?;
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(text) = &entry.text {
                return Some(Arc::clone(text));
            }
            (Arc::clone(&entry.cell), value)
        };
        // Serialized outside the lock; of two first readers racing here
        // one copy is kept and charged.
        let text = Arc::new(write_exchange(&value));
        self.charge(key, &cell, text.len() as u64, Some(&text));
        Some(text)
    }

    /// The committed value for `key`, if any, without claiming
    /// population (non-blocking; testing/inspection — no counters or
    /// LRU refresh).
    pub fn peek(&self, key: u64) -> Option<Value> {
        let cell = {
            let map = self.lock_map();
            map.entries.get(&key).map(|e| Arc::clone(&e.cell))?
        };
        cell.peek()
    }

    /// Point-in-time counters; see [`ResultCacheStats`].
    pub fn stats(&self) -> ResultCacheStats {
        let map = self.lock_map();
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            entries: map.entries.values().filter(|e| e.bytes.is_some()).count(),
            bytes: map.bytes,
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            budget: self.budget,
        }
    }

    /// Drop every entry (counters are kept), detaching the populations
    /// in flight (module docs).
    pub fn clear(&self) {
        let mut map = self.lock_map();
        map.entries.clear();
        map.bytes = 0;
    }

    /// Drop every entry tagged with `source` and bump that source's
    /// invalidation generation. Returns the keys of the dropped entries.
    /// Committed entries release their bytes and count toward the
    /// `flushes` stat; in-flight entries are detached like
    /// [`ResultCache::clear`] does.
    pub fn flush_source(&self, source: &str) -> Vec<u64> {
        let mut map = self.lock_map();
        let keys: Vec<u64> = map
            .entries
            .iter()
            .filter(|(_, e)| e.deps.iter().any(|d| &**d == source))
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            if let Some(e) = map.entries.remove(k) {
                map.bytes -= e.bytes.unwrap_or(0);
            }
        }
        self.flushes.fetch_add(keys.len() as u64, Ordering::Relaxed);
        *map.generations.entry(Arc::from(source)).or_insert(0) += 1;
        keys
    }

    /// The invalidation generation of `source`: 0 until the first
    /// [`ResultCache::flush_source`], then +1 per flush.
    pub fn generation(&self, source: &str) -> u64 {
        self.lock_map()
            .generations
            .get(source)
            .copied()
            .unwrap_or(0)
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Charge `bytes` more to the entry of `key` — a freshly committed
    /// value, or the `text` a reader just serialized from one — and evict
    /// LRU committed entries until the budget holds again. Called *after*
    /// the value is published to the cell, so waiters are never delayed
    /// by eviction. `cell` is the cell the bytes belong to: if a `clear`
    /// or `flush_source` detached it (whether or not a new entry was
    /// since created under the same key) nothing is charged or kept —
    /// the stale value lives only in the detached cell.
    fn charge(
        &self,
        key: u64,
        cell: &Arc<SingleFlight<Value>>,
        bytes: u64,
        text: Option<&Arc<String>>,
    ) {
        let mut map = self.lock_map();
        match map.entries.get_mut(&key) {
            Some(entry) if Arc::ptr_eq(&entry.cell, cell) => {
                if let Some(text) = text {
                    if entry.text.is_some() {
                        return; // a racing reader's copy is kept and charged
                    }
                    entry.text = Some(Arc::clone(text));
                }
                entry.bytes = Some(entry.bytes.unwrap_or(0) + bytes);
            }
            _ => return,
        }
        map.bytes += bytes;
        // Evict oldest committed entries (never the one just charged —
        // its readers are being served from it right now) until we fit.
        while map.bytes > self.budget {
            let victim = map
                .entries
                .iter()
                .filter(|(k, e)| **k != key && e.bytes.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                // Only the charged entry remains and it alone exceeds
                // the budget: serve it, do not retain it.
                .unwrap_or(key);
            if let Some(e) = map.entries.remove(&victim) {
                map.bytes -= e.bytes.unwrap_or(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            if victim == key {
                break;
            }
        }
        // The high-water mark is taken after eviction: the budget is a
        // cap on *resident* bytes, and eviction runs under the same lock
        // as the charge, so no reader ever observes an over-budget total.
        self.peak_bytes.fetch_max(map.bytes, Ordering::Relaxed);
    }
}

impl ResultTicket {
    /// Publish `v` to every waiter and charge it against the budget.
    pub fn commit(self, v: Value) {
        let bytes = v.approx_bytes();
        let cell = Arc::clone(self.lead.flight());
        // Publish first (wakes waiters), account second (may evict).
        self.lead.commit(v);
        self.cache.charge(self.key, &cell, bytes, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn vint(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn hit_after_commit() {
        let cache = ResultCache::new(1 << 20);
        match cache.lookup_or_begin(1) {
            ResultLookup::Miss(t) => t.commit(vint(42)),
            _ => panic!("fresh key must miss"),
        }
        match cache.lookup_or_begin(1) {
            ResultLookup::Hit(v) => assert_eq!(v, vint(42)),
            _ => panic!("committed key must hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
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
    fn budget_evicts_lru_and_caps_resident_bytes() {
        let one_entry = vint(0).approx_bytes();
        // Room for exactly two committed scalars.
        let cache = ResultCache::new(one_entry * 2);
        for key in 0..5u64 {
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
            match cache.lookup_or_begin(key) {
                ResultLookup::Miss(t) => t.commit(vint(key as i64)),
                _ => panic!("miss expected"),
            }
        }
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(matches!(cache.lookup_or_begin(1), ResultLookup::Hit(_)));
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
        let ResultLookup::Miss(flying) = cache.lookup_or_begin(2) else {
            panic!("miss expected")
        };
        assert!(cache.exchange_text(2).is_none());
        assert_eq!(cache.stats().hits, 2);
        flying.commit(vint(20));

        // Budget pressure evicts key 1, value and text together...
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
}
