//! Single flight: the one place a caller waits for another caller's
//! result, and the one shared cache built on it.
//!
//! The paper's Section 4 caches the result of a subquery so that an inner
//! relation is computed once however many outer elements ask for it; a
//! mediator serving many sessions extends the promise across them. A
//! [`SingleFlight`] is one cell of that promise: it holds a value, or the
//! attempt currently computing it. The per-query subquery slots
//! (`exec::Context`) are a bare map of these cells; the two shared caches,
//! compiled plans (`kleisli::PlanCache`) and results
//! (`exec::ResultCache`), are one [`FlightCache`] each. None of them states
//! anything of its own about waiting. The semantics, once:
//!
//! * **The first caller leads, the rest wait.** [`SingleFlight::join`] on
//!   an empty cell returns [`Join::Lead`]; every other caller parks until
//!   the leader [`Lead::commit`]s and then reads the value
//!   ([`Join::Hit`]), so the work runs once however many callers race.
//! * **A dropped lead hands the lead over.** A [`Lead`] dropped without a
//!   commit — its holder failed, was cancelled, or *unwound* — empties
//!   the cell and wakes the waiters; the first to come back leads in its
//!   turn. Nothing is ever poisoned, and an error is never cached: it
//!   belongs to the caller that met it.
//! * **A re-entrant join is told so.** The thread that holds the lead and
//!   joins the same cell again further down its own stack gets
//!   [`Join::Reentrant`] instead of waiting for itself; it computes
//!   without the cell.
//! * **A waiter that gives up resolves only itself.** Every wait takes
//!   the caller's own deadline and [`CancelToken`]; when either fires the
//!   caller gets `Err(WaitFor::TimedOut | WaitFor::Interrupted)` at once
//!   — woken by the token's pulse, never by polling — and the leader and
//!   the other waiters are untouched.
//! * **A late commit reaches the waiters already parked, and nobody
//!   else.** A map that invalidates a key *detaches* the cell: it drops
//!   its own `Arc` and leaves the flight alone. The leader still commits
//!   into the detached cell and its parked waiters still wake with the
//!   value, but no later lookup can reach it; the map compares
//!   [`Lead::flight`] by identity before it records (or charges for) the
//!   commit.
//!
//! Each attempt is a set-once [`OneShot`] resolved `Some(v)` by a commit
//! and `None` by a dropped lead, so the only blocking loop here is
//! [`OneShot::wait_for`].
//!
//! # The shared cache
//!
//! A [`FlightCache`] maps keys to cells and keeps their committed values
//! under a budget. Its user says what a key is and what one unit of cost
//! is; the rules are the same for both caches:
//!
//! * **Admission.** A committed value is kept only if its key was asked
//!   for *before its flight*: by an earlier miss still remembered in the
//!   cache's table of recently missed keys, or by a caller that coalesced
//!   onto the flight while it ran. Any other value is served to its
//!   leader and waiters, not kept, and counts as `declined`, not as an
//!   eviction. So a never-repeated key (ad hoc text, a nonce) costs the
//!   cache nothing and the budget holds what is asked again. The price is
//!   one computation more per repeated key, on its second ask, which
//!   admits it; from the third ask on it hits. The table is fixed and
//!   direct-mapped: 4 096 slots of one key digest each, at most
//!   32 KiB, allocated a page at a time as misses land, so it remembers
//!   about the last 4 096 distinct misses. A slot holds whichever key
//!   missed in it last, so a colliding key delays an admission by one ask
//!   and never admits a stranger.
//! * **A budget, spent least recently asked first.** A commit charges its
//!   value's cost, and what is kept beside a value may be charged to it
//!   later ([`FlightCache::charge`]). A charge that takes the total over
//!   the budget evicts committed entries, least recently asked first,
//!   until the total fits. The entry just charged is never the victim
//!   while another committed entry is left: its callers are being served
//!   from it. An entry larger than the whole budget is served and not
//!   kept (an eviction). In-flight entries cost nothing and are never
//!   evicted, since evicting one would repeat the work the cache exists to
//!   share. The budget caps *resident* cost: the high-water mark is taken
//!   after eviction, under the same lock.
//! * **Sources and generations.** An entry is tagged with the sources its
//!   value derives from: when it is first asked for, or, if they are not
//!   yet known then, when it is committed. [`FlightCache::flush_source`]
//!   drops every entry tagged with the source (counted as `flushes`),
//!   detaches every entry whose sources are not yet known (uncounted), and
//!   bumps the source's generation: 0 until its first flush, then +1 per
//!   flush. [`FlightCache::clear`] detaches everything.
//! * **Detach.** Invalidation drops the map's hold on a cell and leaves
//!   the flight alone (the cell rules above): a late commit reaches the
//!   callers already parked on it and is charged to nothing, and the next
//!   ask starts a fresh flight.
//! * **Release.** An abandoned flight leaves no entry behind. A flight is
//!   abandoned when its [`Ticket`] is dropped uncommitted (the computation
//!   failed, was cancelled or unwound) or a waiter's wait is given up.
//!   Holds on a cell are let go under the map's lock, so exactly the last
//!   caller to let go of a cell nothing was committed to sees the map's
//!   own `Arc` alone, and it removes the entry. A caller still holding the
//!   cell, such as a parked waiter about to lead in turn, keeps it. A
//!   cache is quiescent when every entry holds a committed value.
//!
//! The table of recent misses is not an entry: invalidation leaves it be,
//! and so does release. A key flushed, cleared or abandoned after an ask
//! is kept on its next computation.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::{self, ThreadId};
use std::time::Instant;

use crate::oneshot::{OneShot, PromiseState, Pulsable, WaitFor};
use crate::resilience::CancelToken;
use crate::testutil::Quiescent;

/// One attempt at the value: `Some(v)` once its leader commits, `None`
/// once the leader gives up.
type Attempt<V> = Arc<OneShot<Option<V>>>;

enum State<V> {
    Empty,
    Flying { leader: ThreadId, attempt: Attempt<V> },
    Full(V),
}

/// A value, or the attempt currently computing it; see the module docs.
pub struct SingleFlight<V> {
    state: Mutex<State<V>>,
}

/// What [`SingleFlight::join`] found.
pub enum Join<V> {
    /// The value — already there, or committed while this caller waited.
    Hit(V),
    /// The cell was empty and the caller now leads: compute the value and
    /// [`Lead::commit`] it, or drop the lead to let a waiter try.
    Lead(Lead<V>),
    /// This thread already leads this cell further up its own stack;
    /// compute without it.
    Reentrant,
}

/// The exclusive right to fill one [`SingleFlight`]; see the module docs
/// for what dropping it uncommitted means.
pub struct Lead<V> {
    flight: Arc<SingleFlight<V>>,
    attempt: Attempt<V>,
}

/// An empty cell.
impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            state: Mutex::new(State::Empty),
        }
    }
}

impl<V> SingleFlight<V> {
    fn lock(&self) -> MutexGuard<'_, State<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<V: Clone + Send + 'static> SingleFlight<V> {
    /// Read the value, take the lead, or wait for the current leader —
    /// at most until `deadline` passes or `cancel` fires, which end this
    /// caller's wait and nothing else.
    pub fn join(
        self: &Arc<Self>,
        deadline: Option<Instant>,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<Join<V>, WaitFor> {
        let me = thread::current().id();
        loop {
            let attempt = match &mut *self.lock() {
                State::Full(v) => return Ok(Join::Hit(v.clone())),
                State::Flying { leader, .. } if *leader == me => return Ok(Join::Reentrant),
                State::Flying { attempt, .. } => Arc::clone(attempt),
                empty => {
                    let attempt = Arc::new(OneShot::new());
                    *empty = State::Flying {
                        leader: me,
                        attempt: Arc::clone(&attempt),
                    };
                    return Ok(Join::Lead(Lead {
                        flight: Arc::clone(self),
                        attempt,
                    }));
                }
            };
            if let Some(token) = cancel {
                token.watch(Arc::downgrade(&attempt) as Weak<dyn Pulsable>);
            }
            match attempt.wait_for(deadline, || cancel.is_some_and(|t| t.is_cancelled())) {
                WaitFor::Ready => {}
                gave_up => return Err(gave_up),
            }
            if let Some(Some(v)) = attempt.cloned() {
                return Ok(Join::Hit(v));
            }
            // The leader gave up: race the other waiters for the lead.
        }
    }

    /// The committed value, if any, without joining.
    pub fn peek(&self) -> Option<V> {
        match &*self.lock() {
            State::Full(v) => Some(v.clone()),
            _ => None,
        }
    }
}

impl<V: Clone> Lead<V> {
    /// Fill the cell and wake every waiter with the value.
    pub fn commit(self, v: V) {
        *self.flight.lock() = State::Full(v.clone());
        self.attempt.set(Some(v));
    }
}

impl<V> Lead<V> {
    /// The cell this lead fills — compared by identity by a map that may
    /// have detached it since (module docs).
    pub fn flight(&self) -> &Arc<SingleFlight<V>> {
        &self.flight
    }
}

impl<V> Drop for Lead<V> {
    fn drop(&mut self) {
        if self.attempt.poll() == PromiseState::Pending {
            // Given up. Empty the cell before waking the waiters, so the
            // first one back finds a lead to take.
            *self.flight.lock() = State::Empty;
            self.attempt.set(None);
        }
    }
}

/// A map from key to [`SingleFlight`] cell that keeps committed values
/// under a budget; see the module docs, "The shared cache". A value is
/// shared, so a hit is an `Arc` bump.
pub struct FlightCache<K, T> {
    map: Mutex<Map<K, T>>,
    /// What the table of recent misses remembers a key by.
    digest: fn(&K) -> u64,
    budget: u64,
}

struct Map<K, T> {
    entries: HashMap<K, Entry<T>>,
    /// The keys missed lately (module docs, "Admission").
    missed: RecentMisses,
    /// The counters, and the total cost charged and its high-water mark;
    /// the occupancy is counted when asked for.
    counts: FlightStats,
    /// Monotone ask counter feeding `Entry::last_used`.
    tick: u64,
    /// Per-source generations: bumped by `flush_source`, never reset. A
    /// source never flushed is at generation 0.
    generations: HashMap<Arc<str>, u64>,
}

struct Entry<T> {
    cell: Arc<SingleFlight<Arc<T>>>,
    /// Cost charged for the committed value and what is kept beside it;
    /// `None` until the commit is charged.
    cost: Option<u64>,
    /// The sources the value derives from; `None` while not yet known.
    sources: Option<Box<[Arc<str>]>>,
    /// The tick of the last ask, for LRU eviction.
    last_used: u64,
    /// The key was asked for before this entry's flight, or during it:
    /// its commit is kept (module docs, "Admission").
    asked: bool,
}

/// What [`FlightCache::join`] found.
pub enum Lookup<K: Eq + Hash, T> {
    /// The committed value, already there or committed while this caller
    /// waited.
    Hit(Arc<T>),
    /// The caller leads: compute the value and [`Ticket::commit`] it, or
    /// drop the ticket to let a waiter try.
    Miss(Ticket<K, T>),
    /// This thread already leads this key further up its own stack
    /// ([`Join::Reentrant`]); compute without the cache.
    Reentrant,
}

/// The right to fill one [`FlightCache`] entry. Dropped uncommitted, it
/// hands the lead to a parked waiter, or removes the entry when there is
/// none (module docs, "Release").
pub struct Ticket<K: Eq + Hash, T> {
    cache: Arc<FlightCache<K, T>>,
    key: K,
    /// `None` once committed.
    lead: Option<Lead<Arc<T>>>,
}

/// The counters and occupancy of a [`FlightCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightStats {
    /// Joins served a committed value, waits included, and counted
    /// [`FlightCache::hit`]s.
    pub hits: u64,
    /// Joins that took the lead (one per computation started).
    pub misses: u64,
    /// Committed entries dropped to fit the budget.
    pub evictions: u64,
    /// Commits served but not kept, because their key was not asked for
    /// before their flight.
    pub declined: u64,
    /// Entries dropped by [`FlightCache::flush_source`] because they are
    /// tagged with the flushed source.
    pub flushes: u64,
    /// Entries with a charged commit.
    pub entries: usize,
    /// Entries whose flight has not committed yet.
    pub flying: usize,
    /// Cost charged by the entries.
    pub cost: u64,
    /// High-water mark of `cost`; never above the budget.
    pub peak_cost: u64,
}

impl<K: Eq + Hash, T> FlightCache<K, T> {
    fn lock(&self) -> MutexGuard<'_, Map<K, T>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The budget, in cost units.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Point-in-time counters; see [`FlightStats`].
    pub fn stats(&self) -> FlightStats {
        let map = self.lock();
        let entries = map.entries.values().filter(|e| e.cost.is_some()).count();
        let flying = map.entries.len() - entries;
        FlightStats { entries, flying, ..map.counts }
    }

    /// Whether `key` has an entry whose commit will be kept (module docs,
    /// "Admission").
    pub fn asked(&self, key: &K) -> bool {
        self.lock().entries.get(key).is_some_and(|e| e.asked)
    }

    /// The generation of `source`: 0 until its first
    /// [`FlightCache::flush_source`], then +1 per flush.
    pub fn generation(&self, source: &str) -> u64 {
        self.lock().generations.get(source).copied().unwrap_or(0)
    }

    /// Detach every entry. The counters, the generations and the table of
    /// recent misses are kept.
    pub fn clear(&self) {
        let mut map = self.lock();
        map.entries.clear();
        map.counts.cost = 0;
    }

    /// Let go of a caller's hold on `cell`, the entry of `key` it joined
    /// and left without a value (module docs, "Release").
    fn release(&self, key: &K, cell: Arc<SingleFlight<Arc<T>>>) {
        let mut map = self.lock();
        let held = Arc::as_ptr(&cell);
        drop(cell);
        let abandoned = map.entries.get(key).is_some_and(|e| {
            Arc::as_ptr(&e.cell) == held && Arc::strong_count(&e.cell) == 1 && e.cost.is_none()
        });
        if abandoned {
            map.entries.remove(key);
        }
    }
}

impl<K: Eq + Hash + Clone, T: Send + Sync + 'static> FlightCache<K, T> {
    /// An empty cache of `budget` cost units, whose table of recent misses
    /// remembers a key by `digest`.
    pub fn new(budget: u64, digest: fn(&K) -> u64) -> Arc<Self> {
        let map = Map {
            entries: HashMap::new(),
            missed: RecentMisses::default(),
            counts: FlightStats::default(),
            tick: 0,
            generations: HashMap::new(),
        };
        Arc::new(FlightCache { map: Mutex::new(map), digest, budget })
    }

    /// Read the committed value of `key`, take the lead on computing it,
    /// or wait for the caller computing it: at most until `deadline`
    /// passes or `cancel` fires, which end this caller's wait (`Err`,
    /// counting neither a hit nor a miss) and nothing else.
    ///
    /// Every call is an ask (module docs). One that finds the entry marks
    /// it asked, so a coalesced waiter admits the flight it waits on. One
    /// that creates the entry tags it with `sources` (`None`: not yet
    /// known) and reads and records the key in the table of recent misses.
    pub fn join(
        self: &Arc<Self>,
        key: K,
        sources: Option<&[Arc<str>]>,
        deadline: Option<Instant>,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<Lookup<K, T>, WaitFor> {
        let cell = {
            let mut map = self.lock();
            map.tick += 1;
            let (tick, Map { entries, missed, .. }) = (map.tick, &mut *map);
            let entry = match entries.get_mut(&key) {
                Some(entry) => {
                    entry.asked = true;
                    entry
                }
                None => entries.entry(key.clone()).or_insert(Entry {
                    cell: Arc::default(),
                    cost: None,
                    sources: sources.map(Into::into),
                    last_used: tick,
                    asked: missed.record((self.digest)(&key)),
                }),
            };
            entry.last_used = tick;
            Arc::clone(&entry.cell)
        };
        // The map lock is released before the (potentially blocking)
        // join: a waiter parked on one key must not hold up lookups of
        // every other key.
        let joined = cell.join(deadline, cancel).inspect_err(|_| self.release(&key, cell))?;
        let counts = &mut self.lock().counts;
        Ok(match joined {
            Join::Hit(value) => {
                counts.hits += 1;
                Lookup::Hit(value)
            }
            Join::Lead(lead) => {
                counts.misses += 1;
                let cache = Arc::clone(self);
                Lookup::Miss(Ticket { cache, key, lead: Some(lead) })
            }
            Join::Reentrant => Lookup::Reentrant,
        })
    }

    /// The committed value of `key`, if any, without joining: no counter
    /// moves and no LRU position is refreshed.
    pub fn peek(&self, key: &K) -> Option<Arc<T>> {
        self.lock().entries.get(key)?.cell.peek()
    }

    /// The committed value of `key`, if any, as a counted hit that
    /// refreshes its LRU position: for a reader that serves it without
    /// joining.
    pub fn hit(&self, key: &K) -> Option<Arc<T>> {
        let mut map = self.lock();
        map.tick += 1;
        let tick = map.tick;
        let entry = map.entries.get_mut(key)?;
        let value = entry.cell.peek()?;
        entry.last_used = tick;
        map.counts.hits += 1;
        Some(value)
    }

    /// Charge `cost` more to the entry of `key` for something kept beside
    /// `value`, and evict as a commit does. Nothing is charged unless
    /// `value` is still the entry's committed value.
    pub fn charge(&self, key: &K, value: &Arc<T>, cost: u64) {
        self.account(key, cost, None, |cell| {
            cell.peek().is_some_and(|v| Arc::ptr_eq(&v, value))
        });
    }

    /// Drop every entry tagged with `source` and detach every entry whose
    /// sources are not yet known, then bump the source's generation.
    /// Returns the keys of the tagged entries, which count as `flushes`.
    pub fn flush_source(&self, source: &str) -> Vec<K> {
        let mut map = self.lock();
        let Map { entries, counts, generations, .. } = &mut *map;
        let mut flushed = Vec::new();
        entries.retain(|key, entry| {
            let tagged = entry.sources.as_ref().map(|s| s.iter().any(|s| &**s == source));
            if tagged == Some(false) {
                return true;
            }
            counts.cost -= entry.cost.unwrap_or(0);
            if tagged == Some(true) {
                flushed.push(key.clone());
            }
            false
        });
        counts.flushes += flushed.len() as u64;
        *generations.entry(Arc::from(source)).or_insert(0) += 1;
        flushed
    }

    /// Charge `cost` to the entry of `key` if `mine` says its cell is the
    /// one the cost belongs to (a detached cell is charged nothing), record
    /// `sources` if the entry's are not yet known, and evict (module docs,
    /// "A budget"): least recently asked committed entries until the total
    /// fits, or the entry itself when it was not asked for before its
    /// flight or is alone over the budget. Called after the value is
    /// published to the cell, so waiters never wait for eviction.
    fn account(
        &self,
        key: &K,
        cost: u64,
        sources: Option<&[Arc<str>]>,
        mine: impl FnOnce(&Arc<SingleFlight<Arc<T>>>) -> bool,
    ) {
        let mut map = self.lock();
        let Map { entries, counts, .. } = &mut *map;
        let asked = match entries.get_mut(key) {
            Some(entry) if mine(&entry.cell) => {
                entry.cost = Some(entry.cost.unwrap_or(0) + cost);
                if entry.sources.is_none() {
                    entry.sources = sources.map(Into::into);
                }
                entry.asked
            }
            _ => return,
        };
        counts.cost += cost;
        while counts.cost > self.budget || !asked {
            let others = entries.iter().filter(|(k, e)| *k != key && e.cost.is_some());
            let lru = asked.then(|| others.min_by_key(|(_, e)| e.last_used)).flatten();
            let victim = lru.map_or_else(|| key.clone(), |(k, _)| k.clone());
            if let Some(e) = entries.remove(&victim) {
                counts.cost -= e.cost.unwrap_or(0);
                *if asked { &mut counts.evictions } else { &mut counts.declined } += 1;
            }
            if victim == *key {
                break;
            }
        }
        counts.peak_cost = counts.peak_cost.max(counts.cost);
    }
}

impl<K: Eq + Hash + Clone, T: Send + Sync + 'static> Ticket<K, T> {
    /// Publish `value` to every waiter, then charge `cost` for it (module
    /// docs). `sources` become the entry's tags if they were not yet known
    /// when it was first asked for.
    pub fn commit(mut self, value: Arc<T>, cost: u64, sources: &[Arc<str>]) {
        let lead = self.lead.take().expect("a ticket commits once");
        let cell = Arc::clone(lead.flight());
        lead.commit(value);
        self.cache.account(&self.key, cost, Some(sources), |held| Arc::ptr_eq(held, &cell));
    }
}

impl<K: Eq + Hash, T> Drop for Ticket<K, T> {
    fn drop(&mut self) {
        if let Some(lead) = self.lead.take() {
            let cell = Arc::clone(lead.flight());
            drop(lead);
            self.cache.release(&self.key, cell);
        }
    }
}

/// A cache holds nothing while every entry has a committed value: no
/// flight running, and none left behind by one abandoned.
impl<K: Eq + Hash, T> Quiescent for FlightCache<K, T> {
    fn held(&self) -> Option<String> {
        let flying = self.stats().flying;
        (flying > 0).then(|| format!("{flying} uncommitted entries"))
    }
}

/// Slots in the table of recent misses (module docs, "Admission"). A
/// power of two.
const ASKED_SLOTS: usize = 4096;

/// Slots a [`RecentMisses`] allocates together: 4 KiB.
const PAGE_SLOTS: usize = 512;

/// The table of recently missed keys an admission reads (module docs,
/// "Admission"). It has no lock of its own: a [`FlightCache`] keeps it
/// under its map's lock. The default table remembers no miss.
#[derive(Default)]
struct RecentMisses {
    /// The last key missed in each slot, `PAGE_SLOTS` slots to a page,
    /// each page allocated by the first miss that lands on it: a cache
    /// that sees a few distinct keys keeps a few pages, one that never
    /// misses (a session's own, replaced by a server's shared one) none.
    /// An empty slot holds a key that maps to another slot, so it matches
    /// none: 0 maps to slot 0, which starts at 1, and 1 does not.
    pages: [Option<Box<[u64]>>; ASKED_SLOTS / PAGE_SLOTS],
}

impl RecentMisses {
    /// Record a miss of `key` and say whether it missed before: whether
    /// it is the key last missed in its slot.
    fn record(&mut self, key: u64) -> bool {
        let slot = slot(key);
        let page = self.pages[slot / PAGE_SLOTS].get_or_insert_with(|| {
            let mut page = vec![0; PAGE_SLOTS].into_boxed_slice();
            page[0] = u64::from(slot < PAGE_SLOTS);
            page
        });
        std::mem::replace(&mut page[slot % PAGE_SLOTS], key) == key
    }
}

/// The slot of `key` (Fibonacci hashing: every bit of the key moves the
/// slot).
fn slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - ASKED_SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    type Cell = Arc<SingleFlight<i32>>;

    fn lead(cell: &Cell) -> Lead<i32> {
        match cell.join(None, None) {
            Ok(Join::Lead(lead)) => lead,
            _ => panic!("an empty cell hands out the lead"),
        }
    }

    /// Block until `n` waiters are parked on the cell's current attempt.
    fn await_parked(cell: &Cell, n: usize) {
        let attempt = match &*cell.lock() {
            State::Flying { attempt, .. } => Arc::clone(attempt),
            _ => panic!("no attempt in flight"),
        };
        while attempt.watchers() < n {
            thread::yield_now();
        }
    }

    #[test]
    fn one_of_many_leads_and_the_rest_read_its_value() {
        let cell: Cell = Arc::default();
        let (leads, start) = (AtomicUsize::new(0), Barrier::new(8));
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    match cell.join(None, None) {
                        Ok(Join::Lead(lead)) => {
                            leads.fetch_add(1, Ordering::SeqCst);
                            lead.commit(7);
                        }
                        Ok(Join::Hit(v)) => assert_eq!(v, 7),
                        _ => panic!("distinct threads, no budget"),
                    }
                });
            }
        });
        assert_eq!(leads.load(Ordering::SeqCst), 1);
        assert_eq!(cell.peek(), Some(7));
    }

    #[test]
    fn a_dropped_lead_hands_the_lead_to_a_parked_waiter() {
        let cell: Cell = Arc::default();
        let first = lead(&cell);
        thread::scope(|s| {
            let waiter = s.spawn(|| match cell.join(None, None) {
                Ok(Join::Lead(second)) => second.commit(2),
                _ => panic!("the waiter must inherit the lead, not a value"),
            });
            await_parked(&cell, 1);
            assert_eq!(cell.peek(), None);
            drop(first);
            waiter.join().unwrap();
        });
        assert!(matches!(cell.join(None, None), Ok(Join::Hit(2))));
    }

    #[test]
    fn an_unwinding_leader_releases_the_cell() {
        let cell: Cell = Arc::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lead = lead(&cell);
            panic!("the computation blew up");
        }));
        assert!(unwound.is_err());
        lead(&cell).commit(3);
        assert_eq!(cell.peek(), Some(3));
    }

    #[test]
    fn the_leading_thread_joining_again_is_told_so() {
        let cell: Cell = Arc::default();
        let held = lead(&cell);
        assert!(matches!(cell.join(None, None), Ok(Join::Reentrant)));
        held.commit(4);
        assert!(matches!(cell.join(None, None), Ok(Join::Hit(4))));
    }

    #[test]
    fn a_deadline_and_a_cancel_each_resolve_only_their_own_waiter() {
        let cell: Cell = Arc::default();
        let held = lead(&cell);
        let token = Arc::new(CancelToken::new());
        thread::scope(|s| {
            let patient = s.spawn(|| cell.join(None, None));
            let cancelled = s.spawn(|| cell.join(None, Some(&token)));
            // No deadline on either: only the token's pulse can wake one.
            await_parked(&cell, 2);
            token.cancel();
            assert!(matches!(cancelled.join().unwrap(), Err(WaitFor::Interrupted)));
            let hurried = s.spawn(|| {
                let soon = Instant::now() + Duration::from_millis(10);
                cell.join(Some(soon), None)
            });
            assert!(matches!(hurried.join().unwrap(), Err(WaitFor::TimedOut)));
            // Neither touched the flight or the waiter still parked on it.
            assert_eq!(cell.peek(), None);
            held.commit(5);
            assert!(matches!(patient.join().unwrap(), Ok(Join::Hit(5))));
        });
    }

    #[test]
    fn a_late_commit_into_a_detached_cell_reaches_only_its_parked_waiters() {
        // The owner is a one-slot "map"; invalidation swaps the cell out.
        let mut slot: Cell = Arc::default();
        let stale = lead(&slot);
        let detached = Arc::clone(&slot);
        thread::scope(|s| {
            let parked = s.spawn(|| detached.join(None, None));
            await_parked(&detached, 1);
            slot = Arc::default();
            assert!(!Arc::ptr_eq(stale.flight(), &slot), "what the owner checks");
            stale.commit(-1);
            assert!(matches!(parked.join().unwrap(), Ok(Join::Hit(-1))));
        });
        assert_eq!(slot.peek(), None);
        lead(&slot).commit(6);
        assert_eq!(slot.peek(), Some(6));
    }

    #[test]
    fn a_colliding_key_delays_an_admission_and_admits_no_stranger() {
        let a = 1u64;
        let b = (2..).find(|&k| slot(k) == slot(a)).unwrap();
        let mut misses = RecentMisses::default();
        assert!(!misses.record(a), "a first miss");
        assert!(!misses.record(b), "a first miss");
        // `b` took `a`'s slot: `a`'s second miss is a first miss again...
        assert!(!misses.record(a));
        // ...and its third is a repeat; `b`, pushed out by it, is not.
        assert!(misses.record(a));
        assert!(!misses.record(b));
    }

    #[test]
    fn an_empty_slot_matches_no_key() {
        let mut misses = RecentMisses::default();
        for key in 0..2 * ASKED_SLOTS as u64 {
            assert!(!misses.record(key), "key {key} was never missed");
        }
        let mut misses = RecentMisses::default();
        for key in [0, 1, u64::MAX] {
            assert!(!misses.record(key), "key {key} was never missed");
            assert!(misses.record(key), "key {key} just missed");
        }
    }
}
