//! Instrumented source test-double shared by the concurrency test suites:
//! [`SlowDriver`] is the production shell ([`Remote`]) over a
//! [`SlowSource`], so pooling, admission, prefetch and batching under test
//! are the very code the Sybase/Entrez/ACE servers ship. Every request
//! costs a configurable delay of worker time — and optionally a per-row
//! transfer latency on whoever pulls each row — and the source tracks the
//! high-water mark of concurrent requests. Construct with
//! [`SlowDriver::pipelined`] to also advertise a row-prefetch depth and
//! exercise the row-pipelined execution path.
//!
//! For the resilience test suites the source can also be put into a
//! [`Fault`] mode: never answering, failing the next N requests with
//! transport errors, or spiking the latency of every k-th request. Wedged
//! workers block on an internal latch until
//! [`SlowSource::release_wedged`] lets them finish, so tests can assert
//! that abandoning a wedged round-trip neither blocks the caller nor
//! leaks the admission ticket — and still exit with every thread joined.
//!
//! [`SlowSource::set_sliceable`] makes the source answer a table scan by
//! row ranges ([`Source::split`]), the way GDB does, so the suites can
//! drive a split full fetch — [`Fault::FailRow`] failing exactly the part
//! that holds one row — through the same instrumentation. Off by
//! default: a scan of a plain `SlowDriver` is one request, always.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::batch::BatchPolicy;
use crate::driver::{Capabilities, DriverRequest};
use crate::error::{KError, KResult};
use crate::latency::LatencyModel;
use crate::remote::{row_ranges, Remote, Source};
use crate::resilience::ResiliencePolicy;
use crate::value::Value;

/// An injectable failure mode for [`SlowSource`].
#[derive(Debug, Clone)]
pub enum Fault {
    /// Healthy: behave exactly as configured (the default).
    None,
    /// Requests wedge before producing any rows and hold their worker
    /// until [`SlowSource::release_wedged`] — the "source fell off the
    /// network mid-round-trip" scenario deadlines exist for.
    NeverRespond,
    /// The next N requests fail with a retryable [`KError::Transport`]
    /// error, then the source recovers — the retry-then-succeed
    /// scenario. (The counter is armed by [`SlowSource::set_fault`].)
    FailRequests(u32),
    /// Every `every`-th request (1-based) takes `extra` longer — the
    /// straggler scenario hedging exists for.
    SpikeEvery {
        /// Spike period: request numbers divisible by this spike.
        every: u64,
        /// Additional wall-clock latency charged to a spiked request.
        extra: Duration,
    },
    /// Every request whose reply would hold row `n` (0-based) fails with
    /// a [`KError::Transport`] error after its delay: the whole scan, or
    /// of a split one ([`SlowSource::set_sliceable`]) the one part whose
    /// range covers the row — the parts in front of it answer.
    FailRow(i64),
}

/// The latch wedged work blocks on. Sticky: once released, every
/// current and future wedge passes straight through.
struct WedgeLatch {
    released: Mutex<bool>,
    cv: Condvar,
}

impl WedgeLatch {
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

/// A simulated slow source for concurrency tests, served through the
/// production shell.
pub type SlowDriver = Remote<SlowSource>;

/// The data half of [`SlowDriver`]: `rows` records per request after
/// `delay` of worker time. The instrumentation counters are public so
/// tests can assert on them directly (through the shell's `Deref`).
pub struct SlowSource {
    rows: i64,
    delay: Duration,
    limit: usize,
    prefetch: usize,
    /// Requests inside the source right now.
    pub current: Arc<AtomicUsize>,
    /// High-water mark of `current`.
    pub max_seen: Arc<AtomicUsize>,
    /// Total per-request round-trips ([`Source::answer`] invocations).
    pub performs: Arc<AtomicU64>,
    /// Total batched wire round-trips ([`Source::answer_batch`]
    /// invocations).
    pub batch_performs: Arc<AtomicU64>,
    fault: Mutex<Fault>,
    /// Requests still owed a transport failure under `FailRequests`.
    fail_remaining: AtomicU64,
    /// Monotonic request number (1-based), for `SpikeEvery`.
    seq: AtomicU64,
    wedge: WedgeLatch,
    /// The resilience policy advertised in `Capabilities`.
    policy: Mutex<ResiliencePolicy>,
    /// The batching advertisement in `Capabilities` (default: none).
    batching: Mutex<Option<BatchPolicy>>,
    /// Answer table scans by row ranges ([`SlowSource::set_sliceable`]).
    sliceable: AtomicBool,
}

impl SlowDriver {
    /// A driver named `name` yielding `rows` records per request, each
    /// request costing `delay` of worker time, admitting at most `limit`
    /// requests at once. Rows transfer instantly and are never
    /// prefetched — the fully-lazy configuration.
    pub fn new(name: &str, rows: i64, delay: Duration, limit: usize) -> Arc<SlowDriver> {
        SlowDriver::pipelined(name, rows, delay, Duration::ZERO, limit, 0)
    }

    /// The fully-configurable constructor: per-request latency `delay`,
    /// per-row transfer latency `row_delay` (charged on whichever thread
    /// pulls the row — the consumer's when lazy, a pool worker's when
    /// prefetched), and a row-prefetch advertisement of `prefetch_rows`
    /// (ungated: prefetch is exercised even with instant rows).
    pub fn pipelined(
        name: &str,
        rows: i64,
        delay: Duration,
        row_delay: Duration,
        limit: usize,
        prefetch_rows: usize,
    ) -> Arc<SlowDriver> {
        let source = SlowSource {
            rows,
            delay,
            limit,
            prefetch: prefetch_rows,
            current: Arc::new(AtomicUsize::new(0)),
            max_seen: Arc::new(AtomicUsize::new(0)),
            performs: Arc::new(AtomicU64::new(0)),
            batch_performs: Arc::new(AtomicU64::new(0)),
            fault: Mutex::new(Fault::None),
            fail_remaining: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            wedge: WedgeLatch {
                released: Mutex::new(false),
                cv: Condvar::new(),
            },
            policy: Mutex::new(ResiliencePolicy::default()),
            batching: Mutex::new(None),
            sliceable: AtomicBool::new(false),
        };
        // The source sleeps `delay` itself, inside its concurrency
        // bracket; the shell's model carries the per-row cost only.
        let latency = LatencyModel::real(Duration::ZERO, row_delay);
        Arc::new(Remote::serve(name, source, latency))
    }
}

impl SlowSource {
    /// Arm (or clear, with [`Fault::None`]) a failure mode. Applies to
    /// requests *started* after this call; `FailRequests(n)` arms a
    /// countdown of `n` transport failures.
    pub fn set_fault(&self, fault: Fault) {
        let owed = match fault {
            Fault::FailRequests(n) => u64::from(n),
            _ => 0,
        };
        self.fail_remaining.store(owed, Ordering::SeqCst);
        *self.fault.lock().unwrap_or_else(|e| e.into_inner()) = fault;
    }

    /// Release every wedged request (current and future): the
    /// never-responding work completes normally from here on. Tests call
    /// this before dropping the driver so abandoned workers finish,
    /// notice their stolen tickets, and retire — leaving the process
    /// with no leaked threads.
    pub fn release_wedged(&self) {
        self.wedge.release();
    }

    /// How many wire requests have *started* running (includes wedged
    /// and failed ones — this is the `SpikeEvery` sequence number).
    pub fn requests_started(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Override the [`ResiliencePolicy`] this source advertises in its
    /// [`Capabilities`] (the default advertises everything off).
    pub fn set_resilience(&self, policy: ResiliencePolicy) {
        *self.policy.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// Advertise (or withdraw, with `None`) a [`BatchPolicy`] in this
    /// source's [`Capabilities`], turning on the batched wire path for
    /// its resilience state.
    pub fn set_batching(&self, policy: Option<BatchPolicy>) {
        *self.batching.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// Answer [`DriverRequest::TableScan`] by row ranges from now on:
    /// [`Source::split`] cuts a scan of more rows than the prefetch window
    /// exactly as GDB does. Only a source that advertises a prefetch depth
    /// is ever asked.
    pub fn set_sliceable(&self, on: bool) {
        self.sliceable.store(on, Ordering::SeqCst);
    }

    /// Run `work` counted in `current` / `max_seen`.
    fn in_flight(&self, work: impl FnOnce()) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_seen.fetch_max(now, Ordering::SeqCst);
        work();
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    /// One wire round-trip, per-key or batched, answering `rows` of the
    /// source's records: count it, apply the armed fault, then spend
    /// `delay` of worker time.
    fn round_trip(&self, driver: &str, counter: &AtomicU64, rows: &Range<i64>) -> KResult<()> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        counter.fetch_add(1, Ordering::SeqCst);
        let fault = self.fault.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match fault {
            Fault::FailRequests(_) => {
                let owed = self
                    .fail_remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if owed {
                    return Err(KError::transport(driver, "injected transport failure"));
                }
            }
            Fault::NeverRespond => self.in_flight(|| self.wedge.wedge()),
            Fault::SpikeEvery { every, extra } => {
                if every > 0 && seq.is_multiple_of(every) {
                    std::thread::sleep(extra);
                }
            }
            Fault::FailRow(_) | Fault::None => {}
        }
        self.in_flight(|| std::thread::sleep(self.delay));
        match fault {
            Fault::FailRow(n) if rows.contains(&n) => {
                Err(KError::transport(driver, "injected transport failure"))
            }
            _ => Ok(()),
        }
    }

    /// The rows a request asks for: a [`DriverRequest::TableRows`] part
    /// its range, anything else every row.
    fn rows_of(&self, req: &DriverRequest) -> Range<i64> {
        let clamp = |row: u64| i64::try_from(row).map_or(self.rows, |row| row.min(self.rows));
        match req {
            DriverRequest::TableRows { from, to, .. } => clamp(*from)..to.map_or(self.rows, clamp),
            _ => 0..self.rows,
        }
    }

    fn records(rows: Range<i64>) -> Vec<Value> {
        rows.map(|i| Value::record_from(vec![("n", Value::Int(i))]))
            .collect()
    }
}

impl Source for SlowSource {
    fn capabilities(&self, _latency: &LatencyModel) -> Capabilities {
        Capabilities {
            max_concurrent_requests: self.limit,
            prefetch_rows: self.prefetch,
            resilience: self.policy.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            batching: self.batching.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            ..Capabilities::default()
        }
    }

    fn answer(&self, driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
        let rows = self.rows_of(req);
        self.round_trip(driver, &self.performs, &rows)?;
        Ok(SlowSource::records(rows))
    }

    /// One batched wire round-trip serving every key: fault modes apply
    /// to the whole wire request.
    fn answer_batch(
        &self,
        driver: &str,
        reqs: &[DriverRequest],
    ) -> KResult<Vec<KResult<Vec<Value>>>> {
        self.round_trip(driver, &self.batch_performs, &(0..self.rows))?;
        Ok(reqs
            .iter()
            .map(|_| Ok(SlowSource::records(0..self.rows)))
            .collect())
    }

    /// GDB's split (`sybase_sim`), over this source's one row count.
    fn split(
        &self,
        reqs: &[&DriverRequest],
        window: usize,
        width: usize,
    ) -> Vec<Vec<DriverRequest>> {
        let sliceable = self.sliceable.load(Ordering::SeqCst);
        row_ranges(reqs, window, width, |_| {
            sliceable.then_some(self.rows.max(0) as u64)
        })
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
