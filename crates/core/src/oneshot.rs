//! A one-shot promise: the single blocking primitive of the system.
//!
//! Every "submit now, redeem later" handle — the driver-level
//! [`crate::driver::RequestHandle`], whose promise sits beside its
//! request's one stage (queued work, a running worker's ticket, or over),
//! the executor's caller-helped
//! [`crate::executor::Awaited`] task behind the session-level `QueryHandle`
//! in the `kleisli` crate and behind each body of a parallel loop's chunk
//! — and every place where one caller waits for *another caller's* result
//! — [`crate::flight::SingleFlight`] and its clients, the batched
//! [`crate::batch::Flight`] — parks here and nowhere else:
//! [`OneShot::wait_for`] is the only loop in the workspace in which a
//! caller sleeps until someone else's value exists, its own deadline
//! passes, or its own query is cancelled. (A condition variable elsewhere
//! parks a thread on a *queue* — executor workers, `RowBuf`, the server's
//! writer queue — never on a result.) [`OneShot`] is a single mutex +
//! condition-variable cell that is **set at most once** by a producer and
//! **taken at most once** by a consumer, or cloned out by many.
//!
//! Properties the handles rely on:
//!
//! * **Set-once.** The first [`OneShot::set`] wins; later sets are
//!   rejected (returning `false`) instead of overwriting, so a racing
//!   cancel/complete pair resolves deterministically — an abandoning
//!   waiter resolves before it lets go, and a reply that comes later
//!   loses.
//! * **Take-once, or clone-out.** [`OneShot::wait`] / [`OneShot::try_wait`]
//!   move the value out; a second take observes [`PromiseState::Taken`]
//!   rather than a stale clone. A promise with many readers is never
//!   taken from: each reads it with [`OneShot::cloned`].
//! * **Poison-immune.** Every lock acquisition recovers the inner state
//!   from a poisoned mutex (`into_inner`), so a producer that panics
//!   *near* the cell can never wedge waiters in a poisoned-lock panic —
//!   the producer's `catch_unwind` wrapper parks an error value instead
//!   (see `WorkerPool`), and waiters keep working.
//! * **Progress pulses.** A producer that wants to report progress
//!   *before* completion (the query worker streaming rows, cancellation
//!   flags flipping) calls [`OneShot::pulse`]; consumers blocked in
//!   [`OneShot::wait_until`] re-check their predicate on every pulse.
//!   Pulse takes the cell lock before notifying, so a waiter that has
//!   just checked its predicate and is about to sleep cannot miss the
//!   wakeup (no lost-wakeup window). A pulse wakes only those who watch
//!   for progress; a consumer in plain [`OneShot::wait`] wants the value
//!   and sleeps through it — waking a parked thread for nothing costs
//!   the *producer* tens of microseconds on a virtualized host, and a
//!   query worker pulses once per block. A promise is itself
//!   [`Pulsable`], so a `CancelToken` can watch it directly.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Observed lifecycle stage of a [`OneShot`] cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromiseState {
    /// Not set yet.
    Pending,
    /// Set; the value is waiting to be taken.
    Ready,
    /// Set and already taken by a consumer.
    Taken,
}

/// Why a deadline-aware [`OneShot::wait_for`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitFor {
    /// The promise was set (possibly already taken by an earlier waiter).
    Ready,
    /// The deadline passed with the promise still pending.
    TimedOut,
    /// The caller's interrupt predicate fired (its query was cancelled)
    /// with the promise still pending.
    Interrupted,
}

/// Something that can be nudged awake when an event it watches fires.
///
/// A `CancelToken` pulses every in-flight request promise and flight it
/// watches through this, so a waiter blocked in [`OneShot::wait_for`]
/// re-checks its interrupt predicate the moment the query is cancelled
/// instead of spinning on short timeouts.
pub trait Pulsable: Send + Sync {
    /// Wake any waiters so they re-check their predicates. Must not
    /// block and must be safe to call from any thread; implementations
    /// typically delegate to [`OneShot::pulse`].
    fn pulse_now(&self);
}

struct Slot<T> {
    value: Option<T>,
    set: bool,
    /// Waiters inside [`OneShot::wait_until`] / [`OneShot::wait_for`]:
    /// the ones a pulse is for.
    watchers: usize,
}

/// A set-once / take-once promise cell (see the module docs).
///
/// ```
/// use std::sync::Arc;
/// use kleisli_core::{OneShot, PromiseState};
///
/// let promise: Arc<OneShot<i64>> = Arc::new(OneShot::new());
/// assert_eq!(promise.poll(), PromiseState::Pending);
///
/// // A producer (here: another thread) fulfils the promise exactly once.
/// let producer = Arc::clone(&promise);
/// let worker = std::thread::spawn(move || {
///     assert!(producer.set(42));
///     assert!(!producer.set(7), "second set is rejected, not overwritten");
/// });
///
/// // The consumer blocks until the value is parked, then takes it.
/// assert_eq!(promise.wait(), Some(42));
/// assert_eq!(promise.poll(), PromiseState::Taken);
/// assert_eq!(promise.wait(), None, "take-once: the value moved out");
/// worker.join().unwrap();
/// ```
pub struct OneShot<T> {
    state: Mutex<Slot<T>>,
    cv: Condvar,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        OneShot::new()
    }
}

impl<T> OneShot<T> {
    /// An empty (pending) cell.
    pub fn new() -> OneShot<T> {
        OneShot {
            state: Mutex::new(Slot {
                value: None,
                set: false,
                watchers: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// A cell already holding `value` — for handles that complete at
    /// construction time (the default inline driver adapter).
    pub fn ready(value: T) -> OneShot<T> {
        OneShot {
            state: Mutex::new(Slot {
                value: Some(value),
                set: true,
                watchers: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fulfil the promise. The first set wins and wakes every waiter;
    /// returns `false` (dropping `value`) if the cell was already set.
    pub fn set(&self, value: T) -> bool {
        let mut st = self.lock();
        if st.set {
            return false;
        }
        st.value = Some(value);
        st.set = true;
        drop(st);
        self.cv.notify_all();
        true
    }

    /// Where the promise is in its lifecycle, without blocking.
    pub fn poll(&self) -> PromiseState {
        let st = self.lock();
        match (st.set, st.value.is_some()) {
            (false, _) => PromiseState::Pending,
            (true, true) => PromiseState::Ready,
            (true, false) => PromiseState::Taken,
        }
    }

    /// Block until the promise is set and take the value; `None` if it
    /// was already taken by an earlier wait.
    pub fn wait(&self) -> Option<T> {
        let mut st = self.lock();
        while !st.set {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.value.take()
    }

    /// Take the value if the promise is set; `None` while pending (or
    /// after the value was taken — disambiguate with [`OneShot::poll`]).
    pub fn try_wait(&self) -> Option<T> {
        self.lock().value.take()
    }

    /// Wake the waiters blocked in [`OneShot::wait_until`] /
    /// [`OneShot::wait_for`] without setting the promise, so they
    /// re-check external progress (streamed rows, cancellation flags).
    /// Acquires the cell lock first: a pulse fired between a waiter's
    /// predicate check and its sleep cannot be lost. With nobody
    /// watching it is a lock and nothing else — a consumer in plain
    /// [`OneShot::wait`] is not woken.
    pub fn pulse(&self) {
        if self.lock().watchers > 0 {
            self.cv.notify_all();
        }
    }

    /// Block until the promise is set **or** `ready()` returns true.
    /// The predicate is evaluated under the cell lock, so producers must
    /// never call [`OneShot::set`]/[`OneShot::pulse`] while holding a
    /// lock the predicate takes (push progress first, then pulse).
    pub fn wait_until<F: FnMut() -> bool>(&self, mut ready: F) {
        let mut st = self.lock();
        st.watchers += 1;
        while !(st.set || ready()) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.watchers -= 1;
    }

    /// Block until the promise is set, the optional `deadline` passes, or
    /// the `interrupt` predicate fires — whichever comes first. Does
    /// **not** take the value; on [`WaitFor::Ready`] redeem it with
    /// [`OneShot::wait`] / [`OneShot::try_wait`].
    ///
    /// The interrupt predicate is evaluated under the cell lock on every
    /// wakeup (set, [`OneShot::pulse`], timeout slice, or
    /// spurious), with the same caveat as [`OneShot::wait_until`]: it
    /// must not take a lock that a producer holds while setting/pulsing.
    /// A deadline of `None` waits indefinitely (until set/interrupt).
    pub fn wait_for<F: FnMut() -> bool>(
        &self,
        deadline: Option<Instant>,
        mut interrupt: F,
    ) -> WaitFor {
        let mut st = self.lock();
        st.watchers += 1;
        let outcome = loop {
            if st.set {
                break WaitFor::Ready;
            }
            if interrupt() {
                break WaitFor::Interrupted;
            }
            match deadline {
                None => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break WaitFor::TimedOut;
                    }
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        };
        st.watchers -= 1;
        outcome
    }
}

impl<T: Clone> OneShot<T> {
    /// A copy of the value, left in place for the next reader; `None`
    /// while pending (or after a take).
    pub fn cloned(&self) -> Option<T> {
        self.lock().value.clone()
    }
}

/// Pulsing a promise wakes its [`OneShot::wait_for`] /
/// [`OneShot::wait_until`] waiters to re-check their predicates.
impl<T: Send> Pulsable for OneShot<T> {
    fn pulse_now(&self) {
        self.pulse();
    }
}

#[cfg(test)]
impl<T> OneShot<T> {
    /// Waiters inside [`OneShot::wait_until`] / [`OneShot::wait_for`]
    /// right now — how a test knows a waiter has parked.
    pub(crate) fn watchers(&self) -> usize {
        self.lock().watchers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn set_wait_take_lifecycle() {
        let p: OneShot<i32> = OneShot::new();
        assert_eq!(p.poll(), PromiseState::Pending);
        assert!(p.try_wait().is_none());
        assert!(p.set(7));
        assert_eq!(p.poll(), PromiseState::Ready);
        assert_eq!(p.wait(), Some(7));
        assert_eq!(p.poll(), PromiseState::Taken);
        assert!(p.wait().is_none(), "take-once: second wait yields nothing");
    }

    #[test]
    fn first_set_wins() {
        let p: OneShot<&str> = OneShot::new();
        assert!(p.set("first"));
        assert!(!p.set("second"));
        assert_eq!(p.wait(), Some("first"));
    }

    #[test]
    fn ready_cell_is_immediately_takeable() {
        let p = OneShot::ready(vec![1, 2, 3]);
        assert_eq!(p.poll(), PromiseState::Ready);
        assert_eq!(p.try_wait(), Some(vec![1, 2, 3]));
        assert_eq!(p.poll(), PromiseState::Taken);
    }

    #[test]
    fn wait_blocks_until_set_across_threads() {
        let p: Arc<OneShot<u64>> = Arc::new(OneShot::new());
        let setter = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            setter.set(42);
        });
        assert_eq!(p.wait(), Some(42));
        t.join().unwrap();
    }

    #[test]
    fn wait_until_observes_pulsed_progress() {
        let p: Arc<OneShot<()>> = Arc::new(OneShot::new());
        let progress = Arc::new(AtomicUsize::new(0));
        let (p2, progress2) = (Arc::clone(&p), Arc::clone(&progress));
        let t = std::thread::spawn(move || {
            for i in 1..=5 {
                std::thread::sleep(Duration::from_millis(2));
                progress2.store(i, Ordering::SeqCst);
                p2.pulse();
            }
        });
        p.wait_until(|| progress.load(Ordering::SeqCst) >= 3);
        assert!(progress.load(Ordering::SeqCst) >= 3);
        t.join().unwrap();
        assert_eq!(p.poll(), PromiseState::Pending, "pulse never sets");
    }

    #[test]
    fn a_pulse_is_for_progress_watchers_not_for_plain_waiters() {
        let p: Arc<OneShot<i32>> = Arc::new(OneShot::new());
        let watchers = |p: &OneShot<i32>| p.lock().watchers;
        std::thread::scope(|scope| {
            let plain = scope.spawn(|| p.wait());
            let watching = scope.spawn(|| p.wait_until(|| false));
            while watchers(&p) < 1 {
                std::thread::yield_now();
            }
            p.pulse();
            assert_eq!(watchers(&p), 1, "the plain waiter never counts");
            p.set(3);
            assert_eq!(plain.join().unwrap(), Some(3));
            watching.join().unwrap();
        });
        assert_eq!(watchers(&p), 0);
        assert_eq!(p.wait_for(None, || true), WaitFor::Ready);
        assert_eq!(watchers(&p), 0, "every exit of wait_for gives its count back");
    }

    #[test]
    fn wait_for_times_out_then_sees_a_late_set() {
        let p: Arc<OneShot<i32>> = Arc::new(OneShot::new());
        let t0 = std::time::Instant::now();
        let deadline = t0 + Duration::from_millis(20);
        assert_eq!(p.wait_for(Some(deadline), || false), WaitFor::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        p.set(9);
        assert_eq!(p.wait_for(Some(deadline), || false), WaitFor::Ready);
        assert_eq!(p.try_wait(), Some(9));
    }

    #[test]
    fn wait_for_interrupt_beats_deadline() {
        let p: Arc<OneShot<i32>> = Arc::new(OneShot::new());
        let hit = Arc::new(AtomicUsize::new(0));
        let (p2, hit2) = (Arc::clone(&p), Arc::clone(&hit));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            hit2.store(1, Ordering::SeqCst);
            p2.pulse();
        });
        let out = p.wait_for(Some(std::time::Instant::now() + Duration::from_secs(5)), || {
            hit.load(Ordering::SeqCst) == 1
        });
        assert_eq!(out, WaitFor::Interrupted);
        t.join().unwrap();
    }

    #[test]
    fn wait_until_returns_when_set_without_predicate() {
        let p: Arc<OneShot<i32>> = Arc::new(OneShot::new());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            p2.set(1);
        });
        p.wait_until(|| false);
        assert_eq!(p.try_wait(), Some(1));
        t.join().unwrap();
    }
}
