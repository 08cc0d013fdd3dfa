//! The resilience layer: deadlines, bounded retry and per-driver circuit
//! breakers for the two-phase driver API.
//!
//! The paper's sources — GDB's Sybase at Johns Hopkins, GenBank's Entrez
//! in Bethesda, ACE servers on lab workstations — were reached over 1995
//! wide-area links: slow, flaky, and sometimes simply gone. The request
//! path built in `crate::driver`/`crate::pool` makes requests *fast*
//! (non-blocking submission, admission control, row prefetch); this
//! module makes them *survivable*. Three mechanisms, composed per
//! request by [`DriverResilience::fetch`], configured by what the driver
//! advertises ([`crate::Capabilities::resilience`]) and all disabled by
//! the default [`ResiliencePolicy`]:
//!
//! 1. **Deadlines.** A waiter blocks at most until its deadline, then
//!    resolves [`crate::KError::Timeout`] through the request's one-shot
//!    promise, steals the parked admission ticket back from the (maybe
//!    wedged) worker, and returns — never blocking on the worker. The
//!    pool replaces the abandoned worker up to a bounded orphan budget
//!    (`crate::pool`).
//! 2. **Bounded retry.** Failures classified retryable by
//!    [`crate::KError::is_retryable`] are resubmitted up to
//!    [`RetryPolicy::max_retries`] times with exponential backoff and
//!    jitter, never past the deadline.
//! 3. **Circuit breaking.** A per-driver breaker counts consecutive
//!    failures; at the threshold it *opens* and subsequent submissions
//!    fail fast with [`crate::KError::CircuitOpen`] instead of queueing
//!    doomed work behind a dead source. After a cooldown the breaker
//!    goes *half-open* and admits one probe: success closes it,
//!    failure re-opens it.
//!
//! Everything observable is counted in [`crate::DriverMetrics`]
//! (`timeouts`, `retries`, `breaker_opens`); the session layer merges
//! these resilience-side counters with the driver's own traffic counters.
//!
//! # Full fetches
//!
//! A [`Fetch::Full`] of a request its driver answers piecewise
//! ([`crate::Driver::parts`]) is fetched as those parts while the breaker
//! is closed, each an ordinary request of this layer — admitted, counted,
//! retried and charged to the breaker on its own — behind one
//! handle that reads them back in order.
//!
//! # Batching
//!
//! When a driver advertises [`crate::Capabilities::batching`], a
//! [`Fetch::Batch`] folds many per-key requests into single wire requests
//! (one retry loop and one breaker charge per wire failure, however many
//! consumers wait on the keys), and any other fetch of a request already
//! pending in the driver's [`crate::batch::BatchWindow`] — or seeded by a
//! batch warm-up ([`DriverResilience::seed`]) — attaches to that flight
//! instead of making its own round-trip. See [`crate::batch`] for the
//! invariants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::batch::{request_key, BatchPolicy, BatchWindow, Flight, Joined, SharedReply};
use crate::block::{lazy_blocks, BlockStream};
use crate::driver::{
    DriverMetrics, DriverRef, DriverRequest, Fetch, MetricsSnapshot, RequestHandle,
};
use crate::error::{KError, KResult};
use crate::oneshot::{Pulsable, WaitFor};
use crate::remote::PartBlocks;

// ------------------------------------------------------------------------
// Policies
// ------------------------------------------------------------------------

/// Bounded-retry configuration: how many *extra* submissions a request
/// may spend on retryable failures, and the exponential-backoff window
/// between them (each attempt doubles the delay, capped at
/// `max_backoff`, with up to 50% random jitter subtracted to decorrelate
/// retry storms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum extra submissions after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling the doubling backoff saturates at.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

/// Circuit-breaker configuration (see [`CircuitBreaker`] for the state
/// machine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before going half-open.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// A driver's failure-handling configuration, carried in
/// [`crate::Capabilities::resilience`]: what the driver advertises is
/// what its requests get. The default disables every mechanism, making
/// the request path byte-identical to the pre-resilience behavior —
/// drivers and tests that don't opt in observe no change in request
/// counts, thread counts, or admission behavior.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResiliencePolicy {
    /// Per-request deadline measured from submission, or `None` for
    /// unbounded waits. A session-level deadline, when tighter, wins.
    pub deadline: Option<Duration>,
    /// Bounded retry for [`KError::is_retryable`] failures, or `None`
    /// to fail on the first error.
    pub retry: Option<RetryPolicy>,
    /// Circuit breaking, or `None` to keep submitting to a dead source.
    pub breaker: Option<BreakerPolicy>,
}

impl ResiliencePolicy {
    /// The recommended advertisement for simulated *remote* drivers:
    /// bounded retry and a circuit breaker, deadlines left to the caller
    /// (they are its latency budget, not the driver's to guess).
    pub fn standard() -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: None,
            retry: Some(RetryPolicy::default()),
            breaker: Some(BreakerPolicy::default()),
        }
    }
}

// ------------------------------------------------------------------------
// Circuit breaker
// ------------------------------------------------------------------------

/// Observable circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests pass, consecutive failures are counted.
    Closed,
    /// Tripped: requests fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is admitted; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

enum BreakerInner {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until: Instant,
    },
    HalfOpen {
        probe_in_flight: bool,
        /// When the half-open state was entered; a probe that never
        /// reports back (abandoned handle) blocks the next probe only
        /// for one further cooldown, not forever.
        since: Instant,
    },
}

/// A per-driver circuit breaker: `closed → open` on
/// [`BreakerPolicy::failure_threshold`] consecutive failures, `open →
/// half-open` after [`BreakerPolicy::cooldown`], and `half-open →
/// closed`/`open` on the probe's outcome. Timeouts and transport errors
/// count as failures; semantic errors (bad SQL, missing tables) do not —
/// they say nothing about the source's health.
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            state: Mutex::new(BreakerInner::Closed {
                consecutive_failures: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The observable state right now (an `Open` breaker whose cooldown
    /// has elapsed reports `HalfOpen`, since that is what the next
    /// admission will see).
    pub fn state(&self) -> BreakerState {
        match &*self.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { until } => {
                if Instant::now() >= *until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            BreakerInner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether a request may pass right now. Open→half-open transitions
    /// happen here (on the admission attempt after the cooldown), and a
    /// half-open breaker admits one probe at a time.
    pub fn try_admit(&self) -> bool {
        let mut st = self.lock();
        match &mut *st {
            BreakerInner::Closed { .. } => true,
            BreakerInner::Open { until } => {
                if Instant::now() >= *until {
                    *st = BreakerInner::HalfOpen {
                        probe_in_flight: true,
                        since: Instant::now(),
                    };
                    true
                } else {
                    false
                }
            }
            BreakerInner::HalfOpen {
                probe_in_flight,
                since,
            } => {
                if !*probe_in_flight || since.elapsed() >= self.policy.cooldown {
                    *probe_in_flight = true;
                    *since = Instant::now();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful request: closes the breaker (and resets the
    /// consecutive-failure count).
    pub fn record_success(&self) {
        *self.lock() = BreakerInner::Closed {
            consecutive_failures: 0,
        };
    }

    /// Record a failed request. Returns `true` when this failure
    /// *tripped* the breaker open (closed at threshold, or a failed
    /// half-open probe) so the caller can count `breaker_opens`.
    pub fn record_failure(&self) -> bool {
        let mut st = self.lock();
        match &mut *st {
            BreakerInner::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.policy.failure_threshold {
                    *st = BreakerInner::Open {
                        until: Instant::now() + self.policy.cooldown,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerInner::Open { .. } => false,
            BreakerInner::HalfOpen { .. } => {
                *st = BreakerInner::Open {
                    until: Instant::now() + self.policy.cooldown,
                };
                true
            }
        }
    }
}

// ------------------------------------------------------------------------
// Cancellation
// ------------------------------------------------------------------------

/// A cooperative cancellation token shared by everything serving one
/// query: the session's `QueryHandle` cancels it (explicitly or on
/// drop), and every in-flight driver request registered via
/// [`CancelToken::watch`] is pulsed awake so its waiter abandons the
/// round-trip *immediately* — stealing the parked admission ticket back
/// from a wedged worker — instead of discovering the flag at the next
/// row boundary. This is what makes dropping a query against a
/// never-responding driver release the gate width without blocking the
/// dropper.
#[derive(Default)]
pub struct CancelToken {
    flag: AtomicBool,
    watchers: Mutex<Vec<Weak<dyn Pulsable>>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Cancel: set the flag, then pulse every registered watcher so
    /// blocked waiters re-check it. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
        let watchers = std::mem::take(
            &mut *self.watchers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for w in watchers {
            if let Some(p) = w.upgrade() {
                p.pulse_now();
            }
        }
    }

    /// Register a waker to be pulsed on cancellation. If the token is
    /// already cancelled the waker is pulsed immediately. Watchers are
    /// held weakly; dead ones are pruned as the list grows.
    pub fn watch(&self, watcher: Weak<dyn Pulsable>) {
        if self.is_cancelled() {
            if let Some(p) = watcher.upgrade() {
                p.pulse_now();
            }
            return;
        }
        let mut ws = self.watchers.lock().unwrap_or_else(|e| e.into_inner());
        if ws.len() >= 32 {
            ws.retain(|w| w.strong_count() > 0);
        }
        ws.push(watcher);
    }
}

// ------------------------------------------------------------------------
// Jitter
// ------------------------------------------------------------------------

/// A tiny xorshift PRNG for backoff jitter — decorrelating retry storms
/// needs "not synchronized", not cryptographic quality, and core takes
/// no RNG dependency.
static JITTER_STATE: AtomicU64 = AtomicU64::new(0);

fn jittered(backoff: Duration) -> Duration {
    let ns = backoff.as_nanos().min(u64::MAX as u128) as u64;
    if ns == 0 {
        return Duration::ZERO;
    }
    let mut x = JITTER_STATE.load(Ordering::Relaxed);
    if x == 0 {
        x = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 | 1)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    JITTER_STATE.store(x, Ordering::Relaxed);
    // Subtract up to 50%: jitter shortens waits, never lengthens them,
    // so the policy's backoff remains the worst case.
    Duration::from_nanos(ns - (x % (ns / 2 + 1)))
}

// ------------------------------------------------------------------------
// Per-driver resilience state
// ------------------------------------------------------------------------

/// One driver's resilience state: its advertised [`ResiliencePolicy`],
/// circuit breaker, the resilience-side metrics counters, and — for a
/// driver that batches —
/// its batching window and the flights batch warm-ups seeded. The
/// execution context keeps one of these per registered driver and routes
/// every remote fetch through [`DriverResilience::fetch`].
pub struct DriverResilience {
    name: String,
    policy: ResiliencePolicy,
    breaker: Option<CircuitBreaker>,
    metrics: Arc<DriverMetrics>,
    /// The driver's batching window, present only when its
    /// capabilities advertise [`crate::Capabilities::batching`].
    batching: Option<BatchState>,
}

struct BatchState {
    policy: BatchPolicy,
    window: BatchWindow,
    /// Flights kept answerable by live [`Seeds`], by request key — even
    /// after they resolved, which is what lets a warmed-up loop's bodies
    /// find their batched replies instead of going to the wire.
    seeds: Mutex<HashMap<u64, Vec<Arc<Flight>>>>,
}

impl BatchState {
    fn lock_seeds(&self) -> MutexGuard<'_, HashMap<u64, Vec<Arc<Flight>>>> {
        self.seeds.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn seeded(&self, req: &DriverRequest) -> Option<Arc<Flight>> {
        let seeds = self.lock_seeds();
        // Nothing seeded is the common case: skip hashing the request.
        if seeds.is_empty() {
            return None;
        }
        let f = seeds.get(&request_key(req))?.iter().find(|f| f.request() == req)?;
        Some(Arc::clone(f))
    }
}

impl DriverResilience {
    /// Resilience state for driver `name` under `policy`, with a
    /// batching window when the driver advertises one
    /// ([`crate::Capabilities::batching`]).
    pub fn with_batching(
        name: impl Into<String>,
        policy: ResiliencePolicy,
        batching: Option<BatchPolicy>,
    ) -> DriverResilience {
        let breaker = policy.breaker.clone().map(CircuitBreaker::new);
        DriverResilience {
            name: name.into(),
            policy,
            breaker,
            metrics: Arc::new(DriverMetrics::default()),
            batching: batching.map(|policy| BatchState {
                window: BatchWindow::new(),
                policy,
                seeds: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The driver name this state belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The breaker's observable state, when one is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// Flights pending in the driver's batching window right now
    /// (tests/inspection; `0` once every batched wire request resolved).
    pub fn pending_flights(&self) -> usize {
        self.batching.as_ref().map_or(0, |b| b.window.len())
    }

    /// Flights live [`Seeds`] keep answerable right now (tests/inspection;
    /// `0` once every batch warm-up's loop has finished or been dropped).
    pub fn seeded_flights(&self) -> usize {
        let seeded = |b: &BatchState| b.lock_seeds().values().map(Vec::len).sum();
        self.batching.as_ref().map_or(0, seeded)
    }

    /// A snapshot of the resilience-side counters (timeouts, retries,
    /// breaker opens; the traffic counters stay zero here —
    /// merge with the driver's own snapshot for the full picture).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zero the resilience-side counters.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn record_failure(&self, err: &KError) {
        // Only failures that speak to the *source's health* trip the
        // breaker: timeouts and transport errors. Semantic errors (bad
        // SQL, unknown tables) and cancellations do not.
        if !(err.is_retryable() || err.is_timeout()) {
            return;
        }
        if let Some(b) = &self.breaker {
            if b.record_failure() {
                self.metrics.record_breaker_open();
            }
        }
    }

    fn record_success(&self) {
        if let Some(b) = &self.breaker {
            b.record_success();
        }
    }

    /// Fetch `reqs` — requests starting together on `driver` — `how`
    /// they will be read, under this policy: one [`ResilientHandle`] per
    /// request, in order, or that request's error. The layer's one
    /// submitting verb. `deadline` is the caller's absolute budget (the
    /// policy's own [`ResiliencePolicy::deadline`] tightens it); `cancel`
    /// aborts in-flight waits promptly when cancelled.
    ///
    /// A [`Fetch::Window`] or [`Fetch::Full`] request is answered by the
    /// first of:
    ///
    /// * a batch flight, when the driver advertises
    ///   [`crate::Capabilities::batching`] and the request is
    ///   [`DriverRequest::coalescable`]: one live [`Seeds`] keep
    ///   answerable (even resolved), or else one still pending in the
    ///   driver's [`BatchWindow`] (one `coalesced` count). Neither is a
    ///   wire request. These fetches never register a flight of their
    ///   own, so a reply keeps streaming lazily (`first_n` stays cheap
    ///   against large scans) and concurrent identical fetches each keep
    ///   their own round-trip;
    /// * for a full fetch, while the breaker is closed, the parts its
    ///   driver cuts it into ([`crate::Driver::parts`], asked once for
    ///   all of `reqs`): each part is fetched on its own, as below, and
    ///   the handle reads them back in order — every part in flight
    ///   before the first is read. A half-open breaker admits one probe
    ///   at a time, and a whole request is that probe;
    /// * one wire request: breaker admission first (fail fast with
    ///   [`KError::CircuitOpen`]), then [`crate::Driver::fetch`], with the
    ///   deadline and retry loops run when the handle is redeemed.
    ///   A retryable submission error (inline drivers) is kept in the
    ///   handle for the retry loop rather than returned.
    ///
    /// A [`Fetch::Batch`] folds `reqs` into batched wire requests of at
    /// most [`BatchPolicy::max_keys`] distinct keys, one admission ticket
    /// each ([`crate::batch`]'s invariants), and answers each request
    /// with its key's flight: a new one, or one already pending. A driver
    /// that advertises no batching, or a request that cannot be
    /// coalesced, gets an error instead.
    pub fn fetch(
        self: &Arc<Self>,
        driver: &DriverRef,
        reqs: &[DriverRequest],
        how: Fetch,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
    ) -> Vec<KResult<ResilientHandle>> {
        let deadline = self.merge_deadline(deadline);
        if how == Fetch::Batch {
            return self.batched(driver, reqs, deadline, &cancel);
        }
        let one = |req: &DriverRequest| self.fetch_one(driver, req, how, deadline, &cancel);
        // Only a full fetch is cut into parts, and only while the breaker
        // is closed: half-open admits one probe, and a whole request is it.
        let closed = self.breaker.as_ref().is_none_or(|b| b.state() == BreakerState::Closed);
        let mut parts = match how == Fetch::Full && closed {
            true => driver.parts(&reqs.iter().collect::<Vec<_>>()).into_iter(),
            false => Vec::new().into_iter(),
        };
        let whole = |req| match parts.next().filter(|parts| parts.len() > 1) {
            None => one(req),
            // Every part in flight, or — one failing to start — none.
            Some(parts) => {
                let parts = parts.iter().map(one).collect::<KResult<_>>()?;
                Ok(self.handle(deadline, &cancel, HandleMode::Parts(parts)))
            }
        };
        reqs.iter().map(whole).collect()
    }

    /// One request, or one part: a batch flight that answers it, or one
    /// wire request ([`DriverResilience::fetch`]).
    fn fetch_one(
        self: &Arc<Self>,
        driver: &DriverRef,
        req: &DriverRequest,
        how: Fetch,
        deadline: Option<Instant>,
        cancel: &Option<Arc<CancelToken>>,
    ) -> KResult<ResilientHandle> {
        if let Some(b) = self.batching.as_ref().filter(|_| req.coalescable()) {
            let pending = || b.window.try_attach(req).inspect(|_| self.metrics.record_coalesced());
            if let Some(flight) = b.seeded(req).or_else(pending) {
                return Ok(self.handle(deadline, cancel, HandleMode::Attached { flight }));
            }
        }
        self.admit()?;
        let mut state = Box::new(DirectState {
            driver: Arc::clone(driver),
            req: req.clone(),
            how,
            attempt: None,
            retries: Retries::of(&self.policy),
        });
        let attempt = state.wire_fetch().inspect_err(|e| self.record_failure(e));
        // A retryable submit error is carried into the handle so wait()
        // can spend the retry budget on it; anything else fails now.
        state.attempt = Some(match attempt {
            Ok(h) => Ok(h),
            Err(e) if e.is_retryable() && self.policy.retry.is_some() => Err(e),
            Err(e) => return Err(e),
        });
        Ok(self.handle(deadline, cancel, HandleMode::Direct(state)))
    }

    /// Breaker admission: fail fast while the breaker is open.
    fn admit(&self) -> KResult<()> {
        match &self.breaker {
            Some(b) if !b.try_admit() => Err(KError::circuit_open(&self.name)),
            _ => Ok(()),
        }
    }

    /// The caller's absolute budget tightened by the policy's own
    /// per-request deadline.
    fn merge_deadline(&self, deadline: Option<Instant>) -> Option<Instant> {
        match (deadline, self.policy.deadline) {
            (Some(d), Some(p)) => Some(d.min(Instant::now() + p)),
            (Some(d), None) => Some(d),
            (None, Some(p)) => Some(Instant::now() + p),
            (None, None) => None,
        }
    }

    fn handle(
        self: &Arc<Self>,
        deadline: Option<Instant>,
        cancel: &Option<Arc<CancelToken>>,
        mode: HandleMode,
    ) -> ResilientHandle {
        ResilientHandle {
            res: Arc::clone(self),
            deadline,
            cancel: cancel.clone(),
            mode,
        }
    }

    /// A [`Fetch::Batch`] ([`DriverResilience::fetch`]).
    fn batched(
        self: &Arc<Self>,
        driver: &DriverRef,
        reqs: &[DriverRequest],
        deadline: Option<Instant>,
        cancel: &Option<Arc<CancelToken>>,
    ) -> Vec<KResult<ResilientHandle>> {
        let mut fresh: Vec<Arc<Flight>> = Vec::new();
        let attach = |req: &DriverRequest| {
            let b = self.batching.as_ref().filter(|_| req.coalescable());
            let cannot = || KError::driver(&self.name, format!("cannot batch {}", req.describe()));
            let b = b.ok_or_else(cannot)?;
            let flight = match b.window.join(req) {
                Joined::Attached(flight) => flight,
                Joined::Lead(flight) => {
                    fresh.push(Arc::clone(&flight));
                    flight
                }
            };
            Ok(self.handle(deadline, cancel, HandleMode::Attached { flight }))
        };
        let handles = reqs.iter().map(attach).collect();
        if let Some(b) = &self.batching {
            for chunk in fresh.chunks(b.policy.keys_per_request()) {
                self.metrics.record_batch_request(chunk.len() as u64);
                let op = BatchOp {
                    res: Arc::clone(self),
                    driver: Arc::clone(driver),
                    reqs: chunk.iter().map(|f| f.request().clone()).collect(),
                    flights: chunk.to_vec(),
                    retries: Mutex::new(Retries::of(&self.policy)),
                };
                Arc::new(op).launch();
            }
        }
        handles
    }

    /// Keep the flights `handles` — a batch fetch's — wait on answerable
    /// for as long as the returned [`Seeds`] lives: a fetch of one of
    /// their requests then attaches to it even after it resolved. The
    /// span of the loop whose bodies a batch warm-up fetched for.
    pub fn seed(self: &Arc<Self>, handles: &[ResilientHandle]) -> Seeds {
        let attached = handles.iter().filter_map(|h| match &h.mode {
            HandleMode::Attached { flight } => Some(Arc::clone(flight)),
            _ => None,
        });
        let flights: Vec<Arc<Flight>> = attached.collect();
        if let Some(b) = &self.batching {
            let mut seeds = b.lock_seeds();
            for f in &flights {
                seeds.entry(f.key()).or_default().push(Arc::clone(f));
            }
        }
        Seeds {
            res: Arc::clone(self),
            flights,
        }
    }

    /// Resolve `flight`, dropping its window entry first (no result,
    /// `Ok` or `Err`, is ever cached).
    fn finish_flight(&self, flight: &Arc<Flight>, result: Result<Arc<SharedReply>, KError>) {
        match &self.batching {
            Some(b) => b.window.resolve(flight, result),
            None => flight.finish(result),
        }
    }
}

/// A batch warm-up's flights, kept answerable while this lives
/// ([`DriverResilience::seed`]). Dropping it removes exactly the flights
/// it seeded: concurrent loops over overlapping keys each hold their own,
/// and a flight seeded twice stays until its last holder goes.
pub struct Seeds {
    res: Arc<DriverResilience>,
    flights: Vec<Arc<Flight>>,
}

impl Drop for Seeds {
    fn drop(&mut self) {
        let Some(b) = &self.res.batching else { return };
        let mut seeds = b.lock_seeds();
        for f in &self.flights {
            if let Some(list) = seeds.get_mut(&f.key()) {
                if let Some(at) = list.iter().position(|g| Arc::ptr_eq(g, f)) {
                    list.swap_remove(at);
                }
                if list.is_empty() {
                    seeds.remove(&f.key());
                }
            }
        }
    }
}

// ------------------------------------------------------------------------
// Batched wire requests
// ------------------------------------------------------------------------

/// One batched wire request in flight: the chunk of per-key requests,
/// their flights, and the retry state. When the wire request answers, its
/// keys' replies resolve every flight (or the cloned batch error does, on
/// terminal failure), or the wire request is relaunched on a retryable
/// failure.
struct BatchOp {
    res: Arc<DriverResilience>,
    driver: DriverRef,
    reqs: Vec<DriverRequest>,
    flights: Vec<Arc<Flight>>,
    retries: Mutex<Retries>,
}

impl BatchOp {
    fn launch(self: &Arc<Self>) {
        let keys = self.driver.fetch(&self.reqs, Fetch::Batch).into_iter().collect();
        let mut keys: Vec<RequestHandle> = match keys {
            Ok(keys) => keys,
            Err(e) => return self.complete(Err(e)),
        };
        let Some(last) = keys.pop() else {
            return self.complete(Ok(Vec::new()));
        };
        // A batch's keys resolve together, in order: once the last has,
        // every one has — on the pool worker that ran the wire request,
        // or inline under the default adapter.
        let op = Arc::clone(self);
        last.then(move |last| {
            let replies = keys.into_iter().map(RequestHandle::wait).chain([last]);
            op.complete(replies.collect());
        });
    }

    /// Resolve the flights with their keys' replies — materialized here,
    /// where their rows are charged — or spend the retry budget on the
    /// wire request's failure.
    fn complete(self: &Arc<Self>, outcome: KResult<Vec<BlockStream>>) {
        match outcome {
            Ok(replies) => {
                self.res.record_success();
                let mut replies = replies.into_iter();
                for flight in &self.flights {
                    let reply = replies.next().ok_or_else(|| {
                        KError::driver(&self.res.name, "batched reply is missing a key")
                    });
                    let reply = reply.map(|r| Arc::new(SharedReply::materialize(r)));
                    self.res.finish_flight(flight, reply);
                }
            }
            Err(e) => {
                // Charged once per wire failure, exactly like a direct
                // request — never once per attached waiter.
                self.res.record_failure(&e);
                if self.try_retry(&e) {
                    return;
                }
                for flight in &self.flights {
                    self.res.finish_flight(flight, Err(e.clone()));
                }
            }
        }
    }

    /// Mirror of the direct retry loop: jittered exponential backoff
    /// (slept on this worker), breaker re-admission, one `retries`
    /// count, resubmit. Returns whether a retry was launched.
    fn try_retry(self: &Arc<Self>, err: &KError) -> bool {
        let pause = self.retries.lock().unwrap_or_else(|e| e.into_inner()).spend(err);
        let Some(pause) = pause else { return false };
        std::thread::sleep(pause);
        match self.res.admit() {
            Ok(()) => {
                self.res.metrics.record_retry();
                self.launch();
            }
            Err(e) => {
                for flight in &self.flights {
                    self.res.finish_flight(flight, Err(e.clone()));
                }
            }
        }
        true
    }
}

/// What is left of one request's retry budget ([`RetryPolicy`]): the
/// extra attempts, and the backoff before the next.
struct Retries {
    left: u32,
    backoff: Duration,
    max: Duration,
}

impl Retries {
    fn of(policy: &ResiliencePolicy) -> Retries {
        let retry = policy.retry.as_ref();
        Retries {
            left: retry.map_or(0, |r| r.max_retries),
            backoff: retry.map_or(Duration::ZERO, |r| r.base_backoff),
            max: retry.map_or(Duration::ZERO, |r| r.max_backoff),
        }
    }

    /// Spend one retry on `err`: the jittered pause to serve before it,
    /// or `None` — `err` is not retryable, or the budget is spent.
    fn spend(&mut self, err: &KError) -> Option<Duration> {
        if !err.is_retryable() || self.left == 0 {
            return None;
        }
        self.left -= 1;
        let pause = jittered(self.backoff);
        self.backoff = (self.backoff * 2).min(self.max);
        Some(pause)
    }
}

// ------------------------------------------------------------------------
// The resilient handle
// ------------------------------------------------------------------------

/// The caller's half of one *resilient* fetch: the deadline, retry and
/// cancellation behavior of the driver's policy, applied when the handle
/// is redeemed with [`ResilientHandle::wait`].
///
/// A handle is **direct** — it owns its wire [`RequestHandle`] and the
/// retry state, and runs deadline → retry to an outcome when redeemed — or **attached** to a batch-led [`Flight`], in which case
/// redeeming parks until the batch operation resolves the flight and
/// replays its shared reply, or it holds the **parts** of a split full
/// fetch, direct handles each, redeemed one after the other as the reply
/// is read. Dropping a direct handle unredeemed abandons the in-flight
/// round-trip (ticket reclaimed, wedged worker orphaned); dropping an
/// attached handle only detaches this waiter — the batched wire request
/// belongs to the batch operation.
pub struct ResilientHandle {
    res: Arc<DriverResilience>,
    deadline: Option<Instant>,
    cancel: Option<Arc<CancelToken>>,
    mode: HandleMode,
}

enum HandleMode {
    // Boxed: the direct state (request, retry budget, parked attempt) is
    // an order of magnitude larger than the attached variant's pointer.
    Direct(Box<DirectState>),
    Attached { flight: Arc<Flight> },
    Parts(Vec<ResilientHandle>),
}

/// The wire-owning half of a direct fetch, including the retry budget.
struct DirectState {
    driver: DriverRef,
    req: DriverRequest,
    /// How the request is read, so every wire fetch the handle makes —
    /// the first attempt and each retry — is the same kind.
    how: Fetch,
    /// The current attempt (or its synchronous submit error, kept for
    /// the retry loop). `None` once redeemed.
    attempt: Option<Result<RequestHandle, KError>>,
    retries: Retries,
}

/// The bounds one handle is redeemed under: the owning resilience
/// state and the fetch's deadline/cancel.
struct DriveCtx<'a> {
    res: &'a DriverResilience,
    deadline: Option<Instant>,
    cancel: Option<&'a Arc<CancelToken>>,
}

impl DriveCtx<'_> {
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|t| t.is_cancelled())
    }
}

impl ResilientHandle {
    /// The deadline this handle enforces, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Block until the request resolves under the policy: deadline
    /// enforced (with the ticket stolen back from a wedged worker on
    /// expiry), retryable errors resubmitted with jittered exponential
    /// backoff, cancellation honored promptly. An attached handle waits on its flight instead
    /// (under its own deadline and cancellation only) and replays the
    /// shared reply. A split fetch's handle returns at once: its reply
    /// redeems each part when the reader reaches it. Consumes the handle.
    pub fn wait(mut self) -> KResult<BlockStream> {
        let cx = DriveCtx {
            res: &self.res,
            deadline: self.deadline,
            cancel: self.cancel.as_ref(),
        };
        match &mut self.mode {
            HandleMode::Direct(st) => st.drive(&cx),
            HandleMode::Attached { flight } => await_flight(&cx, flight),
            HandleMode::Parts(parts) => {
                let parts = std::mem::take(parts).into_iter();
                let parts = parts.map(|part| lazy_blocks(|| part.wait())).collect();
                Ok(Box::new(PartBlocks { parts }))
            }
        }
    }
}

impl DirectState {
    /// Put the request on the wire once more (first attempt or retry),
    /// as the kind of fetch the handle was made by.
    fn wire_fetch(&self) -> KResult<RequestHandle> {
        let mut handles = self.driver.fetch(std::slice::from_ref(&self.req), self.how);
        handles.pop().expect("a fetch answers every request")
    }

    /// The retry loop: one round on the current attempt, then — on a
    /// retryable failure with budget left — back off, re-admit through
    /// the breaker, and resubmit.
    fn drive(&mut self, cx: &DriveCtx<'_>) -> KResult<BlockStream> {
        loop {
            let attempt = match self.attempt.take() {
                Some(a) => a,
                None => return Err(KError::eval("request result already taken")),
            };
            let e = match attempt.and_then(|handle| round(cx, handle)) {
                Ok(stream) => {
                    cx.res.record_success();
                    return Ok(stream);
                }
                Err(e) => e,
            };
            cx.res.record_failure(&e);
            let pause = match self.retries.spend(&e) {
                Some(pause) if !cx.cancelled() => pause,
                _ => return Err(e),
            };
            // Retry only if the backoff still fits the deadline.
            if cx.deadline.is_some_and(|d| Instant::now() + pause >= d) {
                return Err(e);
            }
            std::thread::sleep(pause);
            cx.res.admit()?;
            cx.res.metrics.record_retry();
            self.attempt = Some(self.wire_fetch());
        }
    }
}

/// One round: wait on `handle` until it resolves, the deadline passes
/// (abandon it, `Timeout`), or cancellation fires (abandon it,
/// `Cancelled`).
fn round(cx: &DriveCtx<'_>, handle: RequestHandle) -> KResult<BlockStream> {
    if let Some(t) = cx.cancel {
        t.watch(handle.watcher());
    }
    loop {
        match handle.wait_for_ref(cx.deadline, || cx.cancelled()) {
            WaitFor::Ready => return handle.wait(),
            WaitFor::Interrupted => return abandon_cancelled(handle),
            // A clock race re-enters the wait.
            WaitFor::TimedOut if cx.deadline.is_some_and(|d| Instant::now() >= d) => {
                return timeout(cx, handle)
            }
            WaitFor::TimedOut => {}
        }
    }
}

fn timeout(cx: &DriveCtx<'_>, handle: RequestHandle) -> KResult<BlockStream> {
    let err = KError::timeout(&cx.res.name, "request deadline exceeded");
    if handle.abandon(err.clone()) {
        cx.res.metrics.record_timeout();
        Err(err)
    } else {
        // The worker's answer won the set-once race: use it.
        handle.wait()
    }
}

fn abandon_cancelled(handle: RequestHandle) -> KResult<BlockStream> {
    let err = KError::cancelled("query cancelled while the request was in flight");
    if handle.abandon(err.clone()) {
        Err(err)
    } else {
        handle.wait()
    }
}

/// An attached waiter's wait for its flight: replay the result the batch
/// operation resolved it with. The waiter's own deadline/cancel resolve
/// only *this waiter* — the shared flight is never cancelled or poisoned
/// by one waiter giving up.
fn await_flight(cx: &DriveCtx<'_>, flight: &Arc<Flight>) -> KResult<BlockStream> {
    if let Some(t) = cx.cancel {
        t.watch(Arc::downgrade(flight) as Weak<dyn Pulsable>);
    }
    match flight.done.wait_for(cx.deadline, || cx.cancelled()) {
        WaitFor::Ready => flight
            .done
            .cloned()
            .expect("a flight's result is read, never taken")
            .map(|reply| reply.replay()),
        WaitFor::Interrupted => Err(KError::cancelled(
            "query cancelled while the request was in flight",
        )),
        WaitFor::TimedOut => {
            cx.res.metrics.record_timeout();
            Err(KError::timeout(&cx.res.name, "request deadline exceeded"))
        }
    }
}

impl Drop for ResilientHandle {
    fn drop(&mut self) {
        // An unredeemed in-flight attempt has no future consumer: don't
        // just flag it cancelled (the worker would hold the admission
        // ticket until the — possibly wedged — work returns), abandon it
        // so the ticket is reclaimed now. An attached handle owns no
        // wire request; dropping it only detaches this waiter.
        if let HandleMode::Direct(st) = &mut self.mode {
            if let Some(Ok(h)) = st.attempt.take() {
                h.abandon(KError::cancelled("resilient handle dropped unredeemed"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn default_policy_disables_everything() {
        let p = ResiliencePolicy::default();
        assert!(p.deadline.is_none());
        assert!(p.retry.is_none());
        assert!(p.breaker.is_none());
        let s = ResiliencePolicy::standard();
        assert!(s.retry.is_some() && s.breaker.is_some());
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third failure trips the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_admit(), "open breaker fails fast");
        thread::sleep(Duration::from_millis(25));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.try_admit(), "cooldown elapsed: one probe passes");
        assert!(!b.try_admit(), "second probe is held back");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_admit());
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_millis(10),
        });
        assert!(b.record_failure());
        thread::sleep(Duration::from_millis(15));
        assert!(b.try_admit());
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_admit());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        });
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure(), "count restarted after success");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn jitter_shortens_never_lengthens() {
        let base = Duration::from_millis(10);
        for _ in 0..100 {
            let j = jittered(base);
            assert!(j <= base);
            assert!(j >= base / 2 - Duration::from_nanos(1));
        }
        assert_eq!(jittered(Duration::ZERO), Duration::ZERO);
    }

    // --------------------------------------------------------------
    // Batched wire requests and attached waiters
    // --------------------------------------------------------------

    use crate::batch::BatchPolicy;
    use crate::block::DEFAULT_BLOCK_ROWS;
    use crate::driver::DriverRef;
    use crate::testutil::{Fault, SlowDriver};

    fn links(uid: i64) -> DriverRequest {
        DriverRequest::EntrezLinks {
            db: "na".into(),
            uid,
        }
    }

    /// Count the rows of a redeemed stream, panicking on any error row.
    fn drain(mut stream: BlockStream) -> usize {
        let mut n = 0;
        while let Some(block) = stream.next_block(DEFAULT_BLOCK_ROWS) {
            for row in block.rows() {
                row.as_ref().expect("no error rows");
                n += 1;
            }
        }
        n
    }

    fn batching(name: &str, policy: ResiliencePolicy) -> Arc<DriverResilience> {
        Arc::new(DriverResilience::with_batching(
            name,
            policy,
            Some(BatchPolicy::default()),
        ))
    }

    /// The handle of `req` fetched alone, `how` it is read.
    fn one(
        res: &Arc<DriverResilience>,
        dref: &DriverRef,
        req: DriverRequest,
        how: Fetch,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
    ) -> ResilientHandle {
        let mut handles = res.fetch(dref, &[req], how, deadline, cancel);
        handles.pop().expect("a handle a request").expect("fetched")
    }

    #[test]
    fn concurrent_identical_requests_share_one_wire_request() {
        let d = SlowDriver::new("co", 4, Duration::from_millis(2), 4);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        // A batch for the request is wedged on the wire, so every plain
        // fetch of it attaches instead of going out itself.
        let batch = res.fetch(&dref, &[links(7)], Fetch::Batch, None, None);
        assert_eq!(batch.len(), 1);
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let h = one(&res, &dref, links(7), Fetch::Window, None, None);
                thread::spawn(move || h.wait().map(drain))
            })
            .collect();
        d.release_wedged();
        for j in joins {
            assert_eq!(j.join().expect("thread").expect("rows"), 4);
        }
        assert_eq!(d.batch_performs.load(Ordering::SeqCst), 1, "one wire request for 8 waiters");
        assert_eq!(d.performs.load(Ordering::SeqCst), 0, "no per-submission round-trips");
        assert_eq!(res.metrics_snapshot().coalesced, 8);
    }

    #[test]
    fn one_waiter_cancelling_never_poisons_the_shared_flight() {
        let d = SlowDriver::new("co", 3, Duration::from_millis(2), 2);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        let _batch = one(&res, &dref, links(1), Fetch::Batch, None, None);
        let cancel = Arc::new(CancelToken::new());
        let cancelled = one(&res, &dref, links(1), Fetch::Batch, None, Some(Arc::clone(&cancel)));
        let soon = Some(Instant::now() + Duration::from_millis(30));
        let bounded = one(&res, &dref, links(1), Fetch::Window, soon, None);
        let survivors = [
            one(&res, &dref, links(1), Fetch::Batch, None, None),
            one(&res, &dref, links(1), Fetch::Window, None, None),
        ];
        let t_cancelled = thread::spawn(move || cancelled.wait().map(drain));
        let t_bounded = thread::spawn(move || bounded.wait().map(drain));
        let t_survivors = survivors.map(|h| thread::spawn(move || h.wait().map(drain)));
        // The wire is still wedged: each bound resolves only its waiter.
        let e = t_bounded.join().expect("thread").expect_err("own deadline");
        assert!(e.is_timeout(), "got: {e}");
        cancel.cancel();
        let e = t_cancelled.join().expect("thread").expect_err("own cancellation");
        assert!(format!("{e}").contains("cancelled"), "got: {e}");
        assert_eq!(res.pending_flights(), 1, "a waiter giving up never resolves the flight");
        // The surviving waiters still replay the shared rows.
        d.release_wedged();
        for t in t_survivors {
            assert_eq!(t.join().expect("thread").expect("rows"), 3);
        }
        assert_eq!(d.batch_performs.load(Ordering::SeqCst), 1);
        assert_eq!(d.performs.load(Ordering::SeqCst), 0);
        let m = res.metrics_snapshot();
        assert_eq!((m.timeouts, m.coalesced), (1, 2), "{m:?}");
    }

    #[test]
    fn concurrent_plain_submissions_keep_their_own_lazy_wire_requests() {
        // The production semantics: with no batch in flight, a batching
        // driver's plain fetches never share — N identical concurrent
        // requests are N wire requests, each streamed lazily.
        let d = SlowDriver::new("co", 100, Duration::from_millis(1), 4);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        let handles: Vec<_> = (0..4)
            .map(|_| one(&res, &dref, links(2), Fetch::Window, None, None))
            .collect();
        while d.current.load(Ordering::SeqCst) < 4 {
            thread::sleep(Duration::from_millis(1)); // all four overlap on the wire
        }
        d.release_wedged();
        let mut streams: Vec<BlockStream> =
            handles.into_iter().map(|h| h.wait().expect("reply")).collect();
        assert_eq!(d.performs.load(Ordering::SeqCst), 4);
        assert_eq!(res.metrics_snapshot().coalesced, 0);
        assert_eq!(d.counters().snapshot().rows_shipped, 0, "nothing ships until pulled");
        for s in &mut streams {
            assert_eq!(s.next_block(1).expect("first row").len(), 1);
        }
        assert_eq!(
            d.counters().snapshot().rows_shipped,
            4,
            "one row per pull: a materialized reply would have shipped all 400"
        );
    }

    #[test]
    fn zero_window_never_replays_completed_flights() {
        let d = SlowDriver::new("co", 2, Duration::from_millis(1), 2);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        for _ in 0..3 {
            let h = one(&res, &dref, links(4), Fetch::Window, None, None);
            assert_eq!(drain(h.wait().expect("rows")), 2);
        }
        assert_eq!(
            d.performs.load(Ordering::SeqCst),
            3,
            "sequential requests keep their own round-trips"
        );
        assert_eq!(res.metrics_snapshot().coalesced, 0);
    }

    #[test]
    fn dropping_a_direct_handle_abandons_its_wire_request() {
        let d = SlowDriver::new("co", 2, Duration::from_millis(2), 2);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        let h = one(&res, &dref, links(3), Fetch::Window, None, None);
        thread::sleep(Duration::from_millis(20));
        drop(h); // unredeemed: the wedged wire request is abandoned
        d.release_wedged();
        d.set_fault(Fault::None);
        // Nothing of the abandoned request lingers in the window: a new
        // fetch makes a fresh wire request of its own.
        let again = one(&res, &dref, links(3), Fetch::Window, None, None);
        assert_eq!(drain(again.wait().expect("rows")), 2);
        assert_eq!(d.performs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn submit_batch_folds_keys_into_chunked_wire_requests() {
        let d = SlowDriver::new("bat", 3, Duration::from_millis(2), 2);
        let dref: DriverRef = d.clone();
        let res = Arc::new(DriverResilience::with_batching(
            "bat",
            ResiliencePolicy::default(),
            Some(BatchPolicy { max_keys: 4 }),
        ));
        // Seven logical keys, six distinct: the duplicate shares its
        // key's flight instead of adding a slot.
        let reqs: Vec<DriverRequest> = (0..6).map(links).chain(std::iter::once(links(0))).collect();
        let handles = res.fetch(&dref, &reqs, Fetch::Batch, None, None);
        assert_eq!(handles.len(), 7, "a handle a request");
        for h in handles {
            assert_eq!(drain(h.expect("batched").wait().expect("batched rows")), 3);
        }
        assert_eq!(
            d.batch_performs.load(Ordering::SeqCst),
            2,
            "6 keys under max_keys=4 is two wire requests"
        );
        assert_eq!(d.performs.load(Ordering::SeqCst), 0, "no per-key round-trips");
        let m = res.metrics_snapshot();
        assert_eq!(m.batch_requests, 2);
        assert_eq!(m.batched_keys, 6);
    }

    #[test]
    fn cancel_token_pulses_watchers_and_prunes() {
        struct Counter(AtomicU64);
        impl Pulsable for Counter {
            fn pulse_now(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let t = CancelToken::new();
        let c = Arc::new(Counter(AtomicU64::new(0)));
        let dy: Arc<dyn Pulsable> = c.clone() as Arc<dyn Pulsable>;
        t.watch(Arc::downgrade(&dy));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(c.0.load(Ordering::SeqCst), 1);
        // watching after cancellation pulses immediately
        t.watch(Arc::downgrade(&dy));
        assert_eq!(c.0.load(Ordering::SeqCst), 2);
    }
}
