//! Instrumented driver test-double shared by the concurrency test suites
//! (and a minimal reference implementation of the pooled two-phase
//! [`Driver::submit`]): every request charges a configurable per-request
//! latency on its pool worker — and optionally a per-row transfer
//! latency on whoever pulls each row — tracks the high-water mark of
//! concurrent `perform`s, and enforces its declared
//! `max_concurrent_requests` through a per-driver [`WorkerPool`] — the
//! same structure as the real Sybase/Entrez/ACE servers. Construct with
//! [`SlowDriver::pipelined`] to also advertise a row-prefetch depth and
//! exercise the row-pipelined execution path.
//!
//! For the resilience test suites the driver can also be put into a
//! [`Fault`] mode: never answering, stalling mid-stream, failing the
//! next N requests with transport errors, or spiking the latency of
//! every k-th request. Wedged workers block on an internal latch until
//! [`SlowDriver::release_wedged`] lets them finish, so tests can assert
//! that abandoning a wedged round-trip neither blocks the caller nor
//! leaks the admission ticket — and still exit with every thread joined.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::batch::{BatchPolicy, SharedReply};
use crate::block::{blocks_of_rows, BlockSource, BlockStream, ValueBlock, DEFAULT_BLOCK_ROWS};
use crate::driver::{
    BatchCompletion, BatchReply, Capabilities, Driver, DriverMetrics, DriverRequest,
    MetricsSnapshot, RequestGate, RequestHandle,
};
use crate::error::{KError, KResult};
use crate::latency::LatencyModel;
use crate::pool::WorkerPool;
use crate::resilience::ResiliencePolicy;
use crate::value::Value;

/// An injectable failure mode for [`SlowDriver`].
#[derive(Debug, Clone)]
pub enum Fault {
    /// Healthy: behave exactly as configured (the default).
    None,
    /// Requests wedge before producing any rows and hold their worker
    /// until [`SlowDriver::release_wedged`] — the "source fell off the
    /// network mid-round-trip" scenario deadlines exist for.
    NeverRespond,
    /// Requests answer normally but the *stream* wedges after yielding
    /// this many rows — the mid-stream stall scenario.
    StallAfterRows(usize),
    /// The next N requests fail with a retryable [`KError::Transport`]
    /// error, then the driver recovers — the retry-then-succeed
    /// scenario. (The counter is armed by [`SlowDriver::set_fault`].)
    FailRequests(u32),
    /// Every `every`-th request (1-based) takes `extra` longer — the
    /// straggler scenario hedging exists for.
    SpikeEvery {
        /// Spike period: request numbers divisible by this spike.
        every: u64,
        /// Additional wall-clock latency charged to a spiked request.
        extra: Duration,
    },
}

/// The latch wedged work blocks on. Sticky: once released, every
/// current and future wedge passes straight through.
struct WedgeLatch {
    released: Mutex<bool>,
    cv: Condvar,
}

impl WedgeLatch {
    fn new() -> WedgeLatch {
        WedgeLatch {
            released: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wedge(&self) {
        let mut released = self.released.lock().unwrap_or_else(|e| e.into_inner());
        while !*released {
            released = self
                .cv
                .wait(released)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// Fault-injection state shared between the driver facade and the work
/// closures already queued on pool workers.
struct FaultState {
    fault: Mutex<Fault>,
    /// Requests still owed a transport failure under `FailRequests`.
    fail_remaining: AtomicU64,
    /// Monotonic request number (1-based), for `SpikeEvery`.
    seq: AtomicU64,
    wedge: WedgeLatch,
}

/// A simulated slow source for concurrency tests. The instrumentation
/// counters are public so tests can assert on them directly.
pub struct SlowDriver {
    name: String,
    rows: i64,
    limit: usize,
    prefetch: usize,
    /// Request/row latency model (real sleeps).
    latency: Arc<LatencyModel>,
    /// The request worker pool (sized to `limit`; public so tests can
    /// watch thread growth).
    pub pool: WorkerPool,
    /// The admission gate (public so tests can watch tickets drain).
    pub gate: Arc<RequestGate>,
    /// Requests inside `perform` right now.
    pub current: Arc<AtomicUsize>,
    /// High-water mark of `current`.
    pub max_seen: Arc<AtomicUsize>,
    /// Total `perform` invocations.
    pub performs: Arc<AtomicU64>,
    /// Total batched wire round-trips ([`Driver::batch`] invocations).
    pub batch_performs: Arc<AtomicU64>,
    /// Traffic counters (rows shipped, rows prefetched/pulled, ...).
    pub metrics: Arc<DriverMetrics>,
    faults: Arc<FaultState>,
    /// The resilience policy advertised in `Capabilities`.
    policy: Mutex<ResiliencePolicy>,
    /// The batching advertisement in `Capabilities` (default: none).
    batching: Mutex<Option<BatchPolicy>>,
}

impl SlowDriver {
    /// A driver named `name` yielding `rows` records per request, each
    /// request costing `delay` of worker time, admitting at most `limit`
    /// requests at once. Rows transfer instantly and are never
    /// prefetched — the PR-3-identical fully-lazy configuration.
    pub fn new(name: &str, rows: i64, delay: Duration, limit: usize) -> Arc<SlowDriver> {
        SlowDriver::pipelined(name, rows, delay, Duration::ZERO, limit, 0)
    }

    /// The fully-configurable constructor: per-request latency `delay`,
    /// per-row transfer latency `row_delay` (charged on whichever thread
    /// pulls the row — the consumer's when lazy, a pool worker's when
    /// prefetched), and a row-prefetch advertisement of `prefetch_rows`.
    pub fn pipelined(
        name: &str,
        rows: i64,
        delay: Duration,
        row_delay: Duration,
        limit: usize,
        prefetch_rows: usize,
    ) -> Arc<SlowDriver> {
        let metrics = Arc::new(DriverMetrics::default());
        let pool = WorkerPool::new(name, limit, Some(Arc::clone(&metrics)));
        let gate = Arc::clone(pool.gate());
        Arc::new(SlowDriver {
            name: name.into(),
            rows,
            limit,
            prefetch: prefetch_rows,
            latency: Arc::new(LatencyModel::real(delay, row_delay)),
            pool,
            gate,
            current: Arc::new(AtomicUsize::new(0)),
            max_seen: Arc::new(AtomicUsize::new(0)),
            performs: Arc::new(AtomicU64::new(0)),
            batch_performs: Arc::new(AtomicU64::new(0)),
            metrics,
            faults: Arc::new(FaultState {
                fault: Mutex::new(Fault::None),
                fail_remaining: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                wedge: WedgeLatch::new(),
            }),
            policy: Mutex::new(ResiliencePolicy::default()),
            batching: Mutex::new(None),
        })
    }

    /// Arm (or clear, with [`Fault::None`]) a failure mode. Applies to
    /// requests *started* after this call; `FailRequests(n)` arms a
    /// countdown of `n` transport failures.
    pub fn set_fault(&self, fault: Fault) {
        if let Fault::FailRequests(n) = fault {
            self.faults.fail_remaining.store(n as u64, Ordering::SeqCst);
        } else {
            self.faults.fail_remaining.store(0, Ordering::SeqCst);
        }
        *self.faults.fault.lock().unwrap_or_else(|e| e.into_inner()) = fault;
    }

    /// Release every wedged request (current and future): the
    /// never-responding / stalled work completes normally from here on.
    /// Tests call this before dropping the driver so abandoned workers
    /// finish, notice their stolen tickets, and retire — leaving the
    /// process with no leaked threads.
    pub fn release_wedged(&self) {
        self.faults.wedge.release();
    }

    /// How many requests have *started* running (includes wedged and
    /// failed ones, unlike `performs` which they also count — this is
    /// the `SpikeEvery` sequence number).
    pub fn requests_started(&self) -> u64 {
        self.faults.seq.load(Ordering::SeqCst)
    }

    /// Override the [`ResiliencePolicy`] this driver advertises in its
    /// [`Capabilities`] (the default advertises everything off).
    pub fn set_resilience(&self, policy: ResiliencePolicy) {
        *self.policy.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// Advertise (or withdraw, with `None`) a [`BatchPolicy`] in this
    /// driver's [`Capabilities`], turning on the batched wire path for
    /// its resilience state.
    pub fn set_batching(&self, policy: Option<BatchPolicy>) {
        *self.batching.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// One batched wire round-trip serving `n_reqs` logical keys:
    /// charges one request admission and one request latency, then
    /// packs each key's rows (per-row latency and traffic counted as
    /// usual). Fault modes apply to the whole wire request.
    #[allow(clippy::too_many_arguments)] // mirrors `run`, one slot per knob
    fn run_batch(
        name: &str,
        rows: i64,
        n_reqs: usize,
        latency: &Arc<LatencyModel>,
        current: &AtomicUsize,
        max_seen: &AtomicUsize,
        batch_performs: &AtomicU64,
        metrics: &Arc<DriverMetrics>,
        faults: &Arc<FaultState>,
    ) -> KResult<BatchReply> {
        let seq = faults.seq.fetch_add(1, Ordering::SeqCst) + 1;
        batch_performs.fetch_add(1, Ordering::SeqCst);
        metrics.record_request();
        let fault = faults.fault.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match &fault {
            Fault::FailRequests(_) => {
                let owed = faults
                    .fail_remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if owed {
                    return Err(KError::transport(name, "injected transport failure"));
                }
            }
            Fault::NeverRespond => {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                faults.wedge.wedge();
                current.fetch_sub(1, Ordering::SeqCst);
            }
            Fault::SpikeEvery { every, extra } => {
                if *every > 0 && seq.is_multiple_of(*every) {
                    std::thread::sleep(*extra);
                }
            }
            Fault::None | Fault::StallAfterRows(_) => {}
        }
        let now = current.fetch_add(1, Ordering::SeqCst) + 1;
        max_seen.fetch_max(now, Ordering::SeqCst);
        latency.charge_request();
        current.fetch_sub(1, Ordering::SeqCst);
        Ok((0..n_reqs)
            .map(|_| {
                let mut out = Vec::with_capacity(rows.max(0) as usize);
                for i in 0..rows {
                    latency.charge_row();
                    let v = Value::record_from(vec![("n", Value::Int(i))]);
                    metrics.record_row(v.approx_size());
                    out.push(v);
                }
                Ok(SharedReply::of_rows(out))
            })
            .collect())
    }

    #[allow(clippy::too_many_arguments)] // one slot per fault-injection knob
    fn run(
        name: &str,
        rows: i64,
        latency: &Arc<LatencyModel>,
        current: &AtomicUsize,
        max_seen: &AtomicUsize,
        performs: &AtomicU64,
        metrics: &Arc<DriverMetrics>,
        faults: &Arc<FaultState>,
    ) -> KResult<BlockStream> {
        let seq = faults.seq.fetch_add(1, Ordering::SeqCst) + 1;
        performs.fetch_add(1, Ordering::SeqCst);
        metrics.record_request();
        let fault = faults.fault.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match &fault {
            Fault::FailRequests(_) => {
                let owed = faults
                    .fail_remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if owed {
                    return Err(KError::transport(name, "injected transport failure"));
                }
            }
            Fault::NeverRespond => {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                faults.wedge.wedge();
                current.fetch_sub(1, Ordering::SeqCst);
            }
            Fault::SpikeEvery { every, extra } => {
                if *every > 0 && seq.is_multiple_of(*every) {
                    std::thread::sleep(*extra);
                }
            }
            Fault::None | Fault::StallAfterRows(_) => {}
        }
        let now = current.fetch_add(1, Ordering::SeqCst) + 1;
        max_seen.fetch_max(now, Ordering::SeqCst);
        latency.charge_request();
        current.fetch_sub(1, Ordering::SeqCst);
        let stall_at = match fault {
            Fault::StallAfterRows(n) => Some(n as i64),
            _ => None,
        };
        Ok(Box::new(SlowBlocks {
            next: 0,
            rows,
            stall_at,
            latency: Arc::clone(latency),
            metrics: Arc::clone(metrics),
            faults: Arc::clone(faults),
        }))
    }
}

/// The native block source behind [`SlowDriver`]: charges per-row
/// latency and traffic metrics as rows are packed, on the puller's
/// clock. A [`Fault::StallAfterRows`] stall is checked *before* each
/// row is charged; if it hits mid-block, the rows already packed ship
/// now as a partial block and the *next* pull wedges — rows produced
/// before a stall stay observable, exactly as under the single-row
/// protocol.
struct SlowBlocks {
    next: i64,
    rows: i64,
    stall_at: Option<i64>,
    latency: Arc<LatencyModel>,
    metrics: Arc<DriverMetrics>,
    faults: Arc<FaultState>,
}

impl BlockSource for SlowBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let max = max_rows.max(1);
        let mut block = ValueBlock::with_capacity(max.min(DEFAULT_BLOCK_ROWS));
        while self.next < self.rows && block.len() < max {
            if self.stall_at == Some(self.next) {
                if !block.is_empty() {
                    // Ship what the stall has not reached; wedge on the
                    // next pull instead.
                    return Some(block);
                }
                self.faults.wedge.wedge();
                self.stall_at = None; // released: never wedge again
            }
            self.latency.charge_row();
            let v = Value::record_from(vec![("n", Value::Int(self.next))]);
            self.metrics.record_row(v.approx_size());
            block.push_row(v);
            self.next += 1;
        }
        if block.is_empty() {
            None
        } else {
            Some(block)
        }
    }
}

impl Driver for SlowDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            max_concurrent_requests: self.limit,
            prefetch_rows: self.prefetch,
            resilience: self.policy.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            batching: self.batching.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            ..Capabilities::default()
        }
    }

    fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
        SlowDriver::run(
            &self.name,
            self.rows,
            &self.latency,
            &self.current,
            &self.max_seen,
            &self.performs,
            &self.metrics,
            &self.faults,
        )
    }

    fn submit(&self, _req: &DriverRequest) -> KResult<RequestHandle> {
        let name = self.name.clone();
        let rows = self.rows;
        let latency = Arc::clone(&self.latency);
        let current = Arc::clone(&self.current);
        let max_seen = Arc::clone(&self.max_seen);
        let performs = Arc::clone(&self.performs);
        let metrics = Arc::clone(&self.metrics);
        let faults = Arc::clone(&self.faults);
        Ok(self.pool.submit(self.prefetch, move || {
            SlowDriver::run(
                &name, rows, &latency, &current, &max_seen, &performs, &metrics, &faults,
            )
        }))
    }

    fn nonblocking_submit(&self) -> bool {
        true
    }

    fn batch(&self, reqs: &[DriverRequest]) -> KResult<BatchReply> {
        SlowDriver::run_batch(
            &self.name,
            self.rows,
            reqs.len(),
            &self.latency,
            &self.current,
            &self.max_seen,
            &self.batch_performs,
            &self.metrics,
            &self.faults,
        )
    }

    fn submit_batch(
        &self,
        reqs: Vec<DriverRequest>,
        complete: BatchCompletion,
    ) -> Option<RequestHandle> {
        let name = self.name.clone();
        let rows = self.rows;
        let n = reqs.len();
        let latency = Arc::clone(&self.latency);
        let current = Arc::clone(&self.current);
        let max_seen = Arc::clone(&self.max_seen);
        let batch_performs = Arc::clone(&self.batch_performs);
        let metrics = Arc::clone(&self.metrics);
        let faults = Arc::clone(&self.faults);
        // One pool job == one admission ticket for the whole wire batch.
        Some(self.pool.submit(0, move || {
            complete(SlowDriver::run_batch(
                &name,
                rows,
                n,
                &latency,
                &current,
                &max_seen,
                &batch_performs,
                &metrics,
                &faults,
            ));
            Ok(blocks_of_rows(Box::new(std::iter::empty())))
        }))
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
    }
}

// ------------------------------------------------------------------------
// ChaosProxy: a fault-injecting TCP proxy for protocol torture tests
// ------------------------------------------------------------------------

/// A fault to inject into one direction of a proxied TCP connection;
/// see [`ChaosProxy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Forward bytes unmodified.
    Pass,
    /// Forward exactly this many bytes, then close the whole proxied
    /// connection — the peer sees a truncated stream (for a framed
    /// protocol: EOF mid-frame).
    TruncateAfter(usize),
    /// Forward this many bytes, then *stop reading* without closing.
    /// Backpressure propagates: the sender's kernel buffers fill and
    /// its next write blocks — the stalled-reader (slow-client)
    /// scenario when applied server→client.
    StallAfter(usize),
    /// Close the whole proxied connection this long after it opened,
    /// wherever the byte stream happens to be — the mid-query
    /// disconnect scenario.
    CloseAfter(Duration),
    /// Forward at most `chunk` bytes at a time with `delay` between
    /// reads — the byte-at-a-time slow-loris peer.
    SlowLoris {
        /// Bytes forwarded per read.
        chunk: usize,
        /// Pause between forwarded chunks.
        delay: Duration,
    },
}

/// Per-connection fault plan for a [`ChaosProxy`]: independent faults
/// for the client→server (`up`) and server→client (`down`) directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Fault on bytes flowing client→server.
    pub up: WireFault,
    /// Fault on bytes flowing server→client.
    pub down: WireFault,
}

impl ChaosPlan {
    /// A plan that forwards both directions unmodified.
    pub fn passthrough() -> ChaosPlan {
        ChaosPlan {
            up: WireFault::Pass,
            down: WireFault::Pass,
        }
    }
}

/// A fault-injecting TCP proxy for torture-testing servers: listens on
/// an ephemeral loopback port, forwards each accepted connection to a
/// fixed upstream address, and applies the *current* [`ChaosPlan`]
/// (snapshotted per connection at accept time) to the two byte
/// directions. Set a plan with [`ChaosProxy::set_plan`], connect a
/// client through [`ChaosProxy::addr`], and the configured misbehavior
/// — truncation, stalls, disconnects, slow-loris trickle — happens on
/// the wire, exactly as a hostile or unlucky peer would produce it.
/// Dropping the proxy closes the listener and joins every forwarding
/// thread.
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    plan: Arc<Mutex<ChaosPlan>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Start a proxy forwarding to `upstream`, initially in
    /// passthrough.
    pub fn new(upstream: std::net::SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let plan = Arc::new(Mutex::new(ChaosPlan::passthrough()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let plan = Arc::clone(&plan);
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("chaos-proxy-accept".to_string())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = incoming else { continue };
                        let Ok(server) = std::net::TcpStream::connect(upstream) else {
                            continue;
                        };
                        client.set_nodelay(true).ok();
                        server.set_nodelay(true).ok();
                        let snapshot = *plan.lock().unwrap_or_else(|e| e.into_inner());
                        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                            continue;
                        };
                        let up_stop = Arc::clone(&stop);
                        let down_stop = Arc::clone(&stop);
                        let mut spawned = Vec::new();
                        if let Ok(h) = std::thread::Builder::new()
                            .name("chaos-proxy-up".to_string())
                            .spawn(move || forward(client, server, snapshot.up, &up_stop))
                        {
                            spawned.push(h);
                        }
                        if let Ok(h) = std::thread::Builder::new()
                            .name("chaos-proxy-down".to_string())
                            .spawn(move || forward(s2, c2, snapshot.down, &down_stop))
                        {
                            spawned.push(h);
                        }
                        workers
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .extend(spawned);
                    }
                })
                .expect("spawn chaos proxy accept thread")
        };
        Ok(ChaosProxy {
            addr,
            plan,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Set the fault plan applied to connections accepted from now on
    /// (connections already proxied keep their snapshot).
    pub fn set_plan(&self, plan: ChaosPlan) {
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the accept loop awake, then join everything.
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers = std::mem::take(
            &mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// One direction of a proxied connection: pump bytes `from` → `to`
/// under `fault` until EOF, error, fault-mandated closure, or proxy
/// shutdown. Read timeouts keep the loop responsive to `stop`.
fn forward(
    from: std::net::TcpStream,
    to: std::net::TcpStream,
    fault: WireFault,
    stop: &std::sync::atomic::AtomicBool,
) {
    use std::io::{Read, Write};
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let started = std::time::Instant::now();
    let mut from = from;
    let mut to = to;
    let mut forwarded = 0usize;
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let budget = match fault {
            WireFault::Pass => buf.len(),
            WireFault::CloseAfter(after) => {
                if started.elapsed() >= after {
                    break;
                }
                buf.len()
            }
            WireFault::TruncateAfter(limit) => {
                if forwarded >= limit {
                    break;
                }
                (limit - forwarded).min(buf.len())
            }
            WireFault::StallAfter(limit) => {
                if forwarded >= limit {
                    // Deliberately stop *reading*: the sender backs up.
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                (limit - forwarded).min(buf.len())
            }
            WireFault::SlowLoris { chunk, .. } => chunk.clamp(1, buf.len()),
        };
        match from.read(&mut buf[..budget]) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                forwarded += n;
                if let WireFault::SlowLoris { delay, .. } = fault {
                    // Sleep in short slices so proxy shutdown stays
                    // prompt even with long trickle delays.
                    let end = std::time::Instant::now() + delay;
                    while std::time::Instant::now() < end {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}
