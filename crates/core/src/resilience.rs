//! The resilience layer: deadlines, bounded retry, hedged requests, and
//! per-driver circuit breakers for the two-phase driver API.
//!
//! The paper's sources — GDB's Sybase at Johns Hopkins, GenBank's Entrez
//! in Bethesda, ACE servers on lab workstations — were reached over 1995
//! wide-area links: slow, flaky, and sometimes simply gone. The request
//! path built in `crate::driver`/`crate::pool` makes requests *fast*
//! (non-blocking submission, admission control, row prefetch); this
//! module makes them *survivable*. Four mechanisms, composed per
//! request by [`DriverResilience::submit`] and all disabled by the
//! default [`ResiliencePolicy`]:
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
//! 3. **Hedged requests.** After a delay derived from the driver's
//!    EWMA-p99 round-trip estimate ([`crate::latency::RttEstimator`]), a
//!    second identical submit is issued; the first answer wins and the
//!    loser is abandoned, its ticket released. Duplicating only the
//!    slowest ~1% of requests cuts tail latency to roughly the median.
//! 4. **Circuit breaking.** A per-driver breaker counts consecutive
//!    failures; at the threshold it *opens* and subsequent submissions
//!    fail fast with [`crate::KError::CircuitOpen`] instead of queueing
//!    doomed work behind a dead source. After a cooldown the breaker
//!    goes *half-open* and admits one probe: success closes it,
//!    failure re-opens it.
//!
//! Everything observable is counted in [`crate::DriverMetrics`]
//! (`timeouts`, `retries`, `hedges_fired`, `hedge_wins`,
//! `breaker_opens`); the session layer merges these resilience-side
//! counters with the driver's own traffic counters.
//!
//! # Batching
//!
//! When a driver advertises [`crate::Capabilities::batching`], the
//! multi-key [`DriverResilience::submit_batch`] path folds many per-key
//! requests into single wire requests (one retry loop and one breaker
//! charge per wire failure, however many consumers wait on the keys),
//! and a plain submission whose request is already pending in the
//! driver's [`crate::batch::BatchWindow`] attaches to that flight
//! instead of making its own round-trip. See [`crate::batch`] for the
//! invariants.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::batch::{BatchPolicy, BatchWindow, Flight, Joined, SharedReply};
use crate::driver::{
    BatchCompletion, DriverMetrics, DriverRef, DriverRequest, MetricsSnapshot, RequestHandle,
};
use crate::error::{KError, KResult};
use crate::latency::RttEstimator;
use crate::oneshot::{Pulsable, WaitFor};
use crate::BlockStream;

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

/// Hedged-request configuration. The hedge delay itself is derived per
/// request from the driver's observed latency (EWMA + 3 deviations, ~p99
/// — see [`RttEstimator`]), clamped into `[min_delay, max_delay]`; the
/// clamp is the policy's protection against a cold or skewed estimator
/// hedging everything (too small) or never (too large).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Never hedge sooner than this after the primary submit.
    pub min_delay: Duration,
    /// Always hedge by this point, whatever the estimator says.
    pub max_delay: Duration,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(500),
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
/// [`crate::Capabilities::resilience`] (the driver's advertisement) and
/// overridable per session. The default disables every mechanism, making
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
    /// Tail-latency hedging, or `None` to never duplicate requests.
    pub hedge: Option<HedgePolicy>,
    /// Circuit breaking, or `None` to keep submitting to a dead source.
    pub breaker: Option<BreakerPolicy>,
}

impl ResiliencePolicy {
    /// The recommended advertisement for simulated *remote* drivers:
    /// bounded retry and a circuit breaker, hedging and deadlines left
    /// to the session (hedging duplicates requests, which perturbs the
    /// request-count experiments unless asked for; deadlines are the
    /// caller's latency budget, not the driver's to guess).
    pub fn standard() -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: None,
            retry: Some(RetryPolicy::default()),
            hedge: None,
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

/// One driver's resilience state: its effective [`ResiliencePolicy`],
/// circuit breaker, RTT estimator (feeding the hedge delay), and the
/// resilience-side metrics counters. The execution context keeps one of
/// these per registered driver and routes every remote submission
/// through [`DriverResilience::submit`].
pub struct DriverResilience {
    name: String,
    policy: ResiliencePolicy,
    breaker: Option<CircuitBreaker>,
    rtt: RttEstimator,
    metrics: Arc<DriverMetrics>,
    /// The driver's batching window, present only when its
    /// capabilities advertise [`crate::Capabilities::batching`].
    batching: Option<BatchState>,
}

struct BatchState {
    policy: BatchPolicy,
    window: BatchWindow,
}

impl DriverResilience {
    /// Resilience state for driver `name` under `policy`, with no
    /// batching window — every submission keeps its own wire
    /// round-trip, byte-identical to the pre-batching behavior.
    pub fn new(name: impl Into<String>, policy: ResiliencePolicy) -> DriverResilience {
        DriverResilience::with_batching(name, policy, None)
    }

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
            rtt: RttEstimator::new(),
            metrics: Arc::new(DriverMetrics::default()),
            batching: batching.map(|policy| BatchState {
                window: BatchWindow::new(),
                policy,
            }),
        }
    }

    /// The driver name this state belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The effective policy.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// The breaker's observable state, when one is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state())
    }

    /// The RTT estimator feeding the hedge delay.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Flights pending in the driver's batching window right now
    /// (tests/inspection; `0` once every batched wire request resolved).
    pub fn pending_flights(&self) -> usize {
        self.batching.as_ref().map_or(0, |b| b.window.len())
    }

    /// A snapshot of the resilience-side counters (timeouts, retries,
    /// hedges, breaker opens; the traffic counters stay zero here —
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

    /// Submit `req` to `driver` under this policy: breaker check first
    /// (fail-fast with [`KError::CircuitOpen`]), then a real
    /// [`crate::Driver::submit`], wrapped in a [`ResilientHandle`] that
    /// enforces the deadline and runs the hedge/retry loops when
    /// redeemed. `deadline` is the caller's absolute budget (the
    /// policy's own [`ResiliencePolicy::deadline`] tightens it);
    /// `cancel` aborts in-flight waits promptly when cancelled.
    ///
    /// A synchronous submit error (inline drivers) is captured into the
    /// handle rather than returned, so the retry loop can still
    /// resubmit it; breaker rejection is returned immediately.
    ///
    /// When the driver advertises [`crate::Capabilities::batching`] and
    /// the request is [`DriverRequest::coalescable`], a flight already
    /// pending for the identical request in the driver's
    /// [`crate::batch::BatchWindow`] — a batch warm-up seed — answers
    /// this submission too (one `coalesced` count, no wire request).
    /// Otherwise the submission is direct: a plain submission never
    /// registers a flight, so its reply keeps streaming lazily
    /// (`first_n` stays cheap against large scans) and concurrent
    /// identical plain submissions each keep their own round-trip.
    /// Either way the returned handle redeems the same way.
    pub fn submit(
        self: &Arc<Self>,
        driver: &DriverRef,
        req: &DriverRequest,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
    ) -> KResult<ResilientHandle> {
        self.submit_as(driver, req, deadline, cancel, false)
    }

    /// [`DriverResilience::submit`]; with `full`, for a caller that will
    /// read the reply to its end: every wire submission the handle makes
    /// — the first attempt, each retry, a hedge — is then a
    /// [`crate::Driver::submit_full`].
    pub fn submit_as(
        self: &Arc<Self>,
        driver: &DriverRef,
        req: &DriverRequest,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
        full: bool,
    ) -> KResult<ResilientHandle> {
        let deadline = self.merge_deadline(deadline);
        if let Some(b) = &self.batching {
            if req.coalescable() {
                if let Some(flight) = b.window.try_attach(req) {
                    self.metrics.record_coalesced();
                    return Ok(self.attached(flight, deadline, cancel));
                }
            }
        }
        self.submit_direct(driver, req, deadline, cancel, full)
    }

    /// The parts each of the full fetches `reqs`, starting together, is
    /// to be submitted as ([`crate::Driver::split_full`]), each through
    /// [`DriverResilience::submit_as`]; empty: as itself. Nothing is
    /// split unless the breaker is closed — a half-open breaker admits
    /// one probe at a time, and a whole request is that probe.
    pub fn split_full(
        &self,
        driver: &DriverRef,
        reqs: &[&DriverRequest],
    ) -> Vec<Vec<DriverRequest>> {
        let closed = self
            .breaker
            .as_ref()
            .is_none_or(|b| b.state() == BreakerState::Closed);
        if !closed {
            return vec![Vec::new(); reqs.len()];
        }
        let mut parts = driver.split_full(reqs);
        parts.iter_mut().filter(|p| p.len() < 2).for_each(Vec::clear);
        parts
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

    /// The pre-batching submit path: breaker, one wire submission, one
    /// direct handle. `deadline` is already merged with the policy's.
    fn submit_direct(
        self: &Arc<Self>,
        driver: &DriverRef,
        req: &DriverRequest,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
        full: bool,
    ) -> KResult<ResilientHandle> {
        if let Some(b) = &self.breaker {
            if !b.try_admit() {
                return Err(KError::circuit_open(&self.name));
            }
        }
        let retry = self.policy.retry.as_ref();
        let mut state = Box::new(DirectState {
            driver: Arc::clone(driver),
            req: req.clone(),
            full,
            attempt: None,
            retries_left: retry.map_or(0, |r| r.max_retries),
            backoff: retry.map_or(Duration::ZERO, |r| r.base_backoff),
        });
        let attempt = state.wire_submit().inspect_err(|e| self.record_failure(e));
        // A retryable submit error is carried into the handle so wait()
        // can spend the retry budget on it; anything else fails now.
        state.attempt = Some(match attempt {
            Ok(h) => Ok(h),
            Err(e) if e.is_retryable() && retry.is_some() => Err(e),
            Err(e) => return Err(e),
        });
        Ok(ResilientHandle {
            res: Arc::clone(self),
            deadline,
            cancel,
            mode: HandleMode::Direct(state),
        })
    }

    /// Wrap `flight` in an attached handle.
    fn attached(
        self: &Arc<Self>,
        flight: Arc<Flight>,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
    ) -> ResilientHandle {
        ResilientHandle {
            res: Arc::clone(self),
            deadline,
            cancel,
            mode: HandleMode::Attached { flight },
        }
    }

    /// Attach to a flight previously registered by
    /// [`DriverResilience::submit_batch`] (the executor's warm-up path
    /// hands these out through its seed table). The caller must have
    /// checked that `flight.request()` equals the request it wants
    /// answered. `deadline` is merged with the policy's.
    pub fn attach_seeded(
        self: &Arc<Self>,
        flight: &Arc<Flight>,
        deadline: Option<Instant>,
        cancel: Option<Arc<CancelToken>>,
    ) -> ResilientHandle {
        self.attached(Arc::clone(flight), self.merge_deadline(deadline), cancel)
    }

    /// Fold a set of per-key coalescable requests into batched wire
    /// requests of at most [`BatchPolicy::max_keys`] keys each, one
    /// admission ticket per wire request, and return the flight of
    /// every distinct key (newly led or already in the window) so
    /// per-key consumers can attach via
    /// [`DriverResilience::attach_seeded`]. Returns `None` when this
    /// driver has no batching window — callers fall back to per-key
    /// submission. Non-coalescable and duplicate requests are skipped
    /// (duplicates share their key's flight by construction).
    pub fn submit_batch(
        self: &Arc<Self>,
        driver: &DriverRef,
        reqs: &[DriverRequest],
    ) -> Option<Vec<Arc<Flight>>> {
        let b = self.batching.as_ref()?;
        let mut seeds: Vec<Arc<Flight>> = Vec::new();
        let mut fresh: Vec<Arc<Flight>> = Vec::new();
        for req in reqs.iter().filter(|r| r.coalescable()) {
            if seeds.iter().any(|f| f.request() == req) {
                continue;
            }
            match b.window.join(&self.name, req) {
                Joined::Attached(flight) => seeds.push(flight),
                Joined::Lead(flight) => {
                    fresh.push(Arc::clone(&flight));
                    seeds.push(flight);
                }
            }
        }
        for chunk in fresh.chunks(b.policy.keys_per_request()) {
            let op = Arc::new(BatchOp {
                res: Arc::clone(self),
                driver: Arc::clone(driver),
                reqs: chunk.iter().map(|f| f.request().clone()).collect(),
                flights: chunk.to_vec(),
                retries_left: AtomicU32::new(
                    self.policy.retry.as_ref().map_or(0, |r| r.max_retries),
                ),
                backoff: Mutex::new(
                    self.policy
                        .retry
                        .as_ref()
                        .map_or(Duration::ZERO, |r| r.base_backoff),
                ),
                wire: Mutex::new(Vec::new()),
            });
            self.metrics.record_batch_request(chunk.len() as u64);
            op.launch();
        }
        Some(seeds)
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

// ------------------------------------------------------------------------
// Batched wire requests
// ------------------------------------------------------------------------

/// One batched wire request in flight: the chunk of per-key requests,
/// their flights, and the retry state. The completion callback resolves
/// every flight (per-key results on success, the cloned batch error on
/// terminal failure) or relaunches the wire request on a retryable one.
struct BatchOp {
    res: Arc<DriverResilience>,
    driver: DriverRef,
    reqs: Vec<DriverRequest>,
    flights: Vec<Arc<Flight>>,
    retries_left: AtomicU32,
    backoff: Mutex<Duration>,
    /// Pool handles of every wire attempt, kept alive until the op
    /// resolves — dropping a `RequestHandle` cancels it.
    wire: Mutex<Vec<RequestHandle>>,
}

impl BatchOp {
    fn launch(self: &Arc<Self>) {
        let op = Arc::clone(self);
        let complete: BatchCompletion = Box::new(move |outcome| op.complete(outcome));
        if let Some(handle) = self.driver.submit_batch(self.reqs.clone(), complete) {
            self.wire
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
    }

    /// Runs exactly once per wire attempt, on the pool worker that
    /// performed it (or inline under the default adapter).
    fn complete(self: &Arc<Self>, outcome: KResult<crate::driver::BatchReply>) {
        match outcome {
            Ok(per_key) => {
                self.res.record_success();
                let mut results = per_key.into_iter();
                for flight in &self.flights {
                    let r = results.next().unwrap_or_else(|| {
                        Err(KError::driver(
                            &self.res.name,
                            "batched reply is missing a key",
                        ))
                    });
                    self.res.finish_flight(flight, r.map(Arc::new));
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
        if !err.is_retryable() || self.res.policy.retry.is_none() {
            return false;
        }
        if self
            .retries_left
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_err()
        {
            return false;
        }
        let pause = {
            let mut b = self.backoff.lock().unwrap_or_else(|e| e.into_inner());
            let pause = jittered(*b);
            let max = self
                .res
                .policy
                .retry
                .as_ref()
                .map_or(Duration::ZERO, |r| r.max_backoff);
            *b = (*b * 2).min(max);
            pause
        };
        std::thread::sleep(pause);
        if let Some(b) = &self.res.breaker {
            if !b.try_admit() {
                let e = KError::circuit_open(&self.res.name);
                for flight in &self.flights {
                    self.res.finish_flight(flight, Err(e.clone()));
                }
                return true;
            }
        }
        self.res.metrics.record_retry();
        self.launch();
        true
    }
}

// ------------------------------------------------------------------------
// The resilient handle
// ------------------------------------------------------------------------

/// The caller's half of one *resilient* submission: the deadline,
/// hedge, retry, and cancellation behavior of the driver's policy,
/// applied when the handle is redeemed with [`ResilientHandle::wait`].
///
/// A handle is either **direct** — it owns its wire [`RequestHandle`]
/// and the retry state, and runs deadline → hedge → retry to an outcome
/// when redeemed — or **attached** to a batch-led [`Flight`], in which
/// case redeeming parks until the batch operation resolves the flight
/// and replays its shared reply. Dropping a direct handle unredeemed
/// abandons the in-flight round-trip (ticket reclaimed, wedged worker
/// orphaned); dropping an attached handle only detaches this waiter —
/// the batched wire request belongs to the batch operation.
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
}

/// The wire-owning half of a direct submission, including the retry
/// budget.
struct DirectState {
    driver: DriverRef,
    req: DriverRequest,
    /// The caller reads the reply to its end
    /// ([`DriverResilience::submit_as`]).
    full: bool,
    /// The current attempt (or its synchronous submit error, kept for
    /// the retry loop). `None` once redeemed.
    attempt: Option<Result<RequestHandle, KError>>,
    retries_left: u32,
    backoff: Duration,
}

/// The bounds one handle is redeemed under: the owning resilience
/// state and the submission's deadline/cancel.
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
    /// Whether the current attempt has resolved (without blocking).
    /// `true` also for captured submit errors and redeemed handles —
    /// "a wait would not block".
    pub fn is_ready(&self) -> bool {
        match &self.mode {
            HandleMode::Direct(st) => match &st.attempt {
                Some(Ok(h)) => h.poll() != crate::driver::RequestStatus::Pending,
                _ => true,
            },
            HandleMode::Attached { flight } => flight.is_done(),
        }
    }

    /// The deadline this handle enforces, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Block until the request resolves under the policy: deadline
    /// enforced (with the ticket stolen back from a wedged worker on
    /// expiry), hedge fired after the EWMA-p99 delay, retryable errors
    /// resubmitted with jittered exponential backoff, cancellation
    /// honored promptly. An attached handle waits on its flight instead
    /// (under its own deadline and cancellation only) and replays the
    /// shared reply. Consumes the handle.
    pub fn wait(mut self) -> KResult<BlockStream> {
        let cx = DriveCtx {
            res: &self.res,
            deadline: self.deadline,
            cancel: self.cancel.as_ref(),
        };
        match &mut self.mode {
            HandleMode::Direct(st) => st.drive(&cx),
            HandleMode::Attached { flight } => await_flight(&cx, flight),
        }
    }
}

impl DirectState {
    /// Put the request on the wire once more (first attempt, retry, or
    /// hedge), as the kind of fetch the handle was submitted as.
    fn wire_submit(&self) -> KResult<RequestHandle> {
        if self.full {
            self.driver.submit_full(&self.req)
        } else {
            self.driver.submit(&self.req)
        }
    }

    /// The retry loop: one round on the current attempt, then — on a
    /// retryable failure with budget left — back off and resubmit.
    fn drive(&mut self, cx: &DriveCtx<'_>) -> KResult<BlockStream> {
        loop {
            let attempt = match self.attempt.take() {
                Some(a) => a,
                None => return Err(KError::eval("request result already taken")),
            };
            let started = Instant::now();
            match attempt.and_then(|handle| self.round(cx, handle)) {
                Ok(stream) => {
                    cx.res.rtt.observe(started.elapsed());
                    cx.res.record_success();
                    return Ok(stream);
                }
                Err(e) => {
                    cx.res.record_failure(&e);
                    if !e.is_retryable() || self.retries_left == 0 || cx.cancelled() {
                        return Err(e);
                    }
                    self.backoff_and_resubmit(cx, e)?;
                }
            }
        }
    }

    /// Serve the backoff owed for the (already charged) failure `e`,
    /// re-admit through the breaker, and resubmit. `Err` ends the retry
    /// loop with that error.
    fn backoff_and_resubmit(&mut self, cx: &DriveCtx<'_>, e: KError) -> Result<(), KError> {
        // Retry only if the backoff still fits the deadline.
        let pause = jittered(self.backoff);
        if cx.deadline.is_some_and(|d| Instant::now() + pause >= d) {
            return Err(e);
        }
        std::thread::sleep(pause);
        let max = cx
            .res
            .policy
            .retry
            .as_ref()
            .map_or(Duration::ZERO, |r| r.max_backoff);
        self.backoff = (self.backoff * 2).min(max);
        self.retries_left -= 1;
        if let Some(b) = &cx.res.breaker {
            if !b.try_admit() {
                return Err(KError::circuit_open(&cx.res.name));
            }
        }
        cx.res.metrics.record_retry();
        self.attempt = Some(self.wire_submit());
        Ok(())
    }

    /// One round: wait on `primary` until it resolves, the hedge delay
    /// elapses (then race a second submit against it), the deadline
    /// passes (abandon everything, `Timeout`), or cancellation fires
    /// (abandon everything, `Cancelled`).
    fn round(&self, cx: &DriveCtx<'_>, primary: RequestHandle) -> KResult<BlockStream> {
        if let Some(t) = cx.cancel {
            t.watch(primary.watcher());
        }
        // Phase 1: wait for the primary alone until the hedge point.
        let hedge_at = self.hedge_fire_at(cx);
        loop {
            match primary.wait_for_ref(min_deadline(hedge_at, cx.deadline), || cx.cancelled()) {
                WaitFor::Ready => return primary.wait(),
                WaitFor::Interrupted => return abandon_cancelled(primary, None),
                WaitFor::TimedOut => {
                    let now = Instant::now();
                    // The deadline outranks the hedge point; a clock
                    // race re-enters the wait.
                    if cx.deadline.is_some_and(|d| now >= d) {
                        return timeout(cx, primary, None);
                    }
                    if hedge_at.is_some_and(|h| now >= h) {
                        break;
                    }
                }
            }
        }
        // Phase 2: fire the hedge and wait for either handle.
        cx.res.metrics.record_hedge_fired();
        let mut hedge = match self.wire_submit() {
            Ok(h) => {
                h.mirror_into(&primary);
                if let Some(t) = cx.cancel {
                    t.watch(h.watcher());
                }
                Some(h)
            }
            // A failed hedge submit never fails the round — the primary
            // is still in flight.
            Err(_) => None,
        };
        loop {
            let hedge_ready = || {
                hedge
                    .as_ref()
                    .is_some_and(|h| h.poll() != crate::driver::RequestStatus::Pending)
            };
            match primary.wait_for_ref(cx.deadline, || cx.cancelled() || hedge_ready()) {
                WaitFor::Ready => {
                    if let Some(h) = hedge.take() {
                        h.abandon(KError::cancelled("hedged request lost the race"));
                    }
                    return primary.wait();
                }
                WaitFor::TimedOut => {
                    if cx.deadline.is_some_and(|d| Instant::now() >= d) {
                        return timeout(cx, primary, hedge.take());
                    }
                }
                WaitFor::Interrupted => {
                    if cx.cancelled() {
                        return abandon_cancelled(primary, hedge.take());
                    }
                    // The hedge resolved first. A failed hedge: keep
                    // waiting on the primary alone (hedge stays
                    // taken/None).
                    if hedge_ready() {
                        if let Some(Ok(stream)) = hedge.take().map(RequestHandle::wait) {
                            cx.res.metrics.record_hedge_win();
                            primary
                                .abandon(KError::cancelled("primary request lost to its hedge"));
                            return Ok(stream);
                        }
                    }
                }
            }
        }
    }

    /// Where the hedge should fire, if this round hedges at all:
    /// policy present, and the driver's submission genuinely
    /// non-blocking (hedging through an inline adapter would *run* the
    /// duplicate on this thread instead of putting it in flight).
    fn hedge_fire_at(&self, cx: &DriveCtx<'_>) -> Option<Instant> {
        let h = cx.res.policy.hedge.as_ref()?;
        if !self.driver.nonblocking_submit() {
            return None;
        }
        let est = cx
            .res
            .rtt
            .p99_estimate()
            .unwrap_or(h.max_delay)
            .clamp(h.min_delay, h.max_delay);
        Some(Instant::now() + est)
    }
}

fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (Some(a), None) => Some(a),
        (None, b) => b,
    }
}

fn timeout(
    cx: &DriveCtx<'_>,
    primary: RequestHandle,
    hedge: Option<RequestHandle>,
) -> KResult<BlockStream> {
    if let Some(h) = hedge {
        h.abandon(KError::timeout(&cx.res.name, "request deadline exceeded"));
    }
    let err = KError::timeout(&cx.res.name, "request deadline exceeded");
    if primary.abandon(err.clone()) {
        cx.res.metrics.record_timeout();
        Err(err)
    } else {
        // The worker's answer won the set-once race: use it.
        primary.wait()
    }
}

fn abandon_cancelled(primary: RequestHandle, hedge: Option<RequestHandle>) -> KResult<BlockStream> {
    if let Some(h) = hedge {
        h.abandon(KError::cancelled("query cancelled"));
    }
    let err = KError::cancelled("query cancelled while the request was in flight");
    if primary.abandon(err.clone()) {
        Err(err)
    } else {
        primary.wait()
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
        assert!(p.hedge.is_none());
        assert!(p.breaker.is_none());
        let s = ResiliencePolicy::standard();
        assert!(s.retry.is_some() && s.breaker.is_some() && s.hedge.is_none());
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

    #[test]
    fn concurrent_identical_requests_share_one_wire_request() {
        let d = SlowDriver::new("co", 4, Duration::from_millis(2), 4);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        // A batch seed for the request is wedged on the wire, so every
        // plain submission of it attaches instead of going out itself.
        let seeds = res.submit_batch(&dref, &[links(7)]).expect("batching advertised");
        assert_eq!(seeds.len(), 1);
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let h = res.submit(&dref, &links(7), None, None).expect("submit");
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
        let seeds = res.submit_batch(&dref, &[links(1)]).expect("batching advertised");
        let cancel = Arc::new(CancelToken::new());
        let cancelled = res.attach_seeded(&seeds[0], None, Some(Arc::clone(&cancel)));
        let bounded = res
            .submit(&dref, &links(1), Some(Instant::now() + Duration::from_millis(30)), None)
            .expect("submit");
        let survivors = [
            res.attach_seeded(&seeds[0], None, None),
            res.submit(&dref, &links(1), None, None).expect("submit"),
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
        assert!(!seeds[0].is_done(), "a waiter giving up never resolves the flight");
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
        // The production semantics: with no seed in flight, a batching
        // driver's plain submissions never share — N identical
        // concurrent requests are N wire requests, each streamed lazily.
        let d = SlowDriver::new("co", 100, Duration::from_millis(1), 4);
        d.set_fault(Fault::NeverRespond);
        let dref: DriverRef = d.clone();
        let res = batching("co", ResiliencePolicy::default());
        let handles: Vec<_> = (0..4)
            .map(|_| res.submit(&dref, &links(2), None, None).expect("submit"))
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
            let h = res.submit(&dref, &links(4), None, None).expect("submit");
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
        let h = res.submit(&dref, &links(3), None, None).expect("submit");
        thread::sleep(Duration::from_millis(20));
        drop(h); // unredeemed: the wedged wire request is abandoned
        d.release_wedged();
        d.set_fault(Fault::None);
        // Nothing of the abandoned request lingers in the window: a new
        // submission makes a fresh wire request of its own.
        let again = res.submit(&dref, &links(3), None, None).expect("submit");
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
        let seeds = res.submit_batch(&dref, &reqs).expect("batching advertised");
        assert_eq!(seeds.len(), 6);
        for f in &seeds {
            let h = res.attach_seeded(f, None, None);
            assert_eq!(drain(h.wait().expect("batched rows")), 3);
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
