//! Single flight: the one place a caller waits for another caller's
//! result.
//!
//! The paper's Section 4 caches the result of a subquery so that an inner
//! relation is computed once however many outer elements ask for it; a
//! mediator serving many sessions extends the promise across them. A
//! [`SingleFlight`] is one cell of that promise: it holds a value, or the
//! attempt currently computing it. The per-query subquery slots
//! (`exec::Context`), the cross-session result cache
//! (`exec::ResultCache`) and the plan cache's in-flight compiles
//! (`kleisli::PlanCache`) are all maps of these cells and state nothing
//! of their own about waiting. The semantics, once:
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
//! **Why there is no key.** The maps around these cells keep different
//! things beside each one — an LRU tick, a byte charge and source tags; a
//! source text and optimizer configuration in LRU order; nothing at all —
//! and evict by different rules. One generic `SingleFlight<K, V>` map
//! would have to branch on which of them it serves; a cell they each put
//! in their own map does not.
//!
//! **Admission.** The two shared caches keep a committed cell only if it
//! was asked for *before its flight*: by an earlier miss still remembered
//! in [`RecentMisses`], or by a caller that coalesced onto the flight
//! while it ran. The table is fixed and direct-mapped — [`ASKED_SLOTS`]
//! slots of one key each, at most 32 KiB, allocated a page at a time as
//! misses land — and is the one table of recently missed keys there is:
//! each cache keeps one beside its map, under its map's lock, and says in
//! its own docs what a key is and what the rule costs it. A slot holds
//! whichever key missed in it last, so a colliding key delays an
//! admission by one ask and never admits a stranger; and the table is not
//! an entry, so what invalidates entries leaves it be.

use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::{self, ThreadId};
use std::time::Instant;

use crate::oneshot::{OneShot, PromiseState, Pulsable, WaitFor};
use crate::resilience::CancelToken;

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

/// Slots in a [`RecentMisses`] table (module docs, "Admission"). A power
/// of two.
pub const ASKED_SLOTS: usize = 4096;

/// Slots a [`RecentMisses`] allocates together: 4 KiB.
const PAGE_SLOTS: usize = 512;

/// The table of recently missed keys an admission rule reads (module
/// docs, "Admission"). It has no lock of its own: a cache keeps it under
/// the lock of the map it admits to. The default table remembers no miss.
#[derive(Default)]
pub struct RecentMisses {
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
    pub fn record(&mut self, key: u64) -> bool {
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
