//! The `kleislid` server: many client connections, one process-wide set
//! of caches.
//!
//! # Topology
//!
//! Each accepted connection gets its own reader thread, its own writer
//! thread, and its own [`Session`] — built by the server's *registrar*
//! (the closure that registers drivers and bindings), then attached to
//! the **shared** [`PlanCache`] and [`ResultCache`]. Driver `Arc`s
//! captured by the registrar are shared across sessions, and a driver
//! carries its whole request path: its admission gate, its counters and
//! its one resilience state ([`kleisli_core::Driver::resilience`]) — the
//! circuit breaker, the batch flight table, and the resilience counters
//! (`timeouts`, `retries`, `breaker_opens`, `coalesced`,
//! `batch_requests`, `batched_keys`) — are process-wide. A breaker one
//! connection's queries open fails the next query of every connection
//! fast, and STATS shows it (`drivers`). Every session evaluates on the
//! process-wide compute [`Executor`].
//!
//! Those are all the threads there are: the accept loop, and a reader
//! and a writer per connection. **A fresh query is one executor task
//! from frame to frame** — no thread is created per query and the query
//! changes threads twice, not five times:
//!
//! ```text
//!  reader ── QUERY frame ──► executor task ── RESULT frame ──► writer queue ──► socket
//!  (admission, or the       compile · shared-cache lookup ·
//!   warm fast path)         evaluate · serialize into the frame
//! ```
//!
//! The task evaluates *in place*: it starts the query with no limit
//! ([`Session::start`]: value position, through the shared result cache)
//! and waits for it, and [`kleisli::QueryHandle::wait`] runs an
//! evaluation no worker has picked up yet on the waiting thread. The
//! block evaluator's parallel chunks may borrow further executor
//! workers, but the query itself never waits on a second task. The one thing a task
//! may park its worker on is another session's single flight of the
//! very same plan or result ([`kleisli_core::flight`]) — until that
//! leader commits, which needs no further worker (it is itself running,
//! and parallel chunks are caller-helped), or until the waiting query's
//! own CANCEL arrives, which frees its worker and run slot at once. The
//! reply is written once, straight into the frame the writer puts on the
//! socket ([`encode_result_frame`]).
//!
//! # The byte budget
//!
//! Every query evaluates under a byte budget ([`kleisli::How::max_bytes`])
//! of 16 bytes per byte of [`ServerConfig::max_result_frame`], and never
//! less than 16 MiB: a value in memory is several times its exchange
//! text (a 4-byte `I 7` line is a 32-byte `Value`), and a row is charged
//! once per value it is collected into. A text that asks for more — six
//! generators over one 20-element literal is 64 M records — gets an
//! `Error` frame naming the budget, and the connection and every other
//! query keep being served.
//!
//! # Admission (per-tenant fair share)
//!
//! A connection is a tenant. Each has
//! [`ServerConfig::max_queries_per_connection`] *run slots* and a FIFO
//! of at most [`ServerConfig::queue_depth_per_connection`] admitted
//! queries waiting for one; a QUERY arriving with both full is rejected
//! immediately with an `Error` response (message prefix `"busy:"`)
//! instead of stalling the connection. **A query is one cell entry** from
//! admission to its terminal frame: the connection's `Queries` maps each
//! admitted id to its stage — `Waiting(text)` or `Running(token)` — and
//! keeps the FIFO of waiting ids, under one lock, so admission, CANCEL
//! routing, the hand-on of run slots and the drain's count all read and
//! move the same state:
//!
//! ```text
//!  QUERY ──admit──► Waiting(text) ──start──► Running(token) ──finish──► gone
//!   │ (duplicate id,       │                      │   (hands the slot to
//!   │  or slots and FIFO   └─cancel: answered     │    the FIFO's head)
//!   └─ full: refused)        at once, gone        └─cancel: token cancelled
//! ```
//!
//! **A gate wait is data**: a waiting query holds no thread and no
//! executor worker, and becomes a task only when it takes a run slot —
//! at once, or when a finishing query hands its slot on. A hot tenant
//! therefore saturates *its own* slots and queue while every other
//! tenant's queries keep flowing — downstream, the shared executor and
//! the per-driver gates arbitrate between tenants' admitted queries on
//! equal terms. Process-wide, at most
//! [`ServerConfig::max_connections`] reader threads exist at once;
//! further connections are shed at accept time with a best-effort
//! `busy:` frame (counted in `connections_shed`).
//!
//! # Slow-client isolation
//!
//! Responses are never written from a query task or reader thread
//! directly. Every frame goes onto a bounded per-connection outbound queue
//! ([`ServerConfig::writer_queue_frames`]) drained by the connection's
//! writer thread under a write deadline
//! ([`ServerConfig::write_deadline`]). A client that stops reading
//! fills its kernel send buffer, the writer's next write times out (or
//! the queue overflows first), and the connection is *condemned*: its
//! pending frames are cleared, its queue is closed, and both halves of
//! its socket are shut, which wakes the reader into the one end of a
//! connection (below). The stall costs the stalled tenant its
//! connection and nothing else — no executor worker, and no other
//! tenant's responses, ever block on a hostile peer's socket.
//!
//! # One end of a connection
//!
//! A reader blocks in its read with no timeout: it is woken, not polled.
//! Whatever ends a connection makes that read return EOF — the peer
//! closing, condemnation shutting both halves of the socket, or the stop
//! shutting its read half — and the reader then ends it one way: it
//! cancels what its cell still holds, answering the waiting queries at
//! once, waits until the running ones have enqueued their terminal
//! frames (the tasks are the executor's, so it waits on the cell, not on
//! a join), closes its writer's queue and joins the writer once the
//! frames are flushed.
//!
//! # Graceful drain
//!
//! [`ServerHandle::shutdown`] (and `shutdown_within`) drains rather
//! than drops: accepting stops, new QUERY frames are rejected with a
//! `shutting-down:` error, and in-flight queries run to completion and
//! flush their terminal frames through the writer queues. The drain
//! waits on each connection's cell until it is empty, all under one
//! absolute deadline — [`DRAIN_DEADLINE`] or the caller's own bound. No
//! connection can join mid-wait: accepting stopped first. Then the stop
//! flag goes up, which each reader checks between frames, and every
//! connection's read half is shut, which returns a blocked read as EOF
//! (on Linux in about 0.1 ms, idle or mid-frame) while the write half
//! still flushes. A query still running past the deadline is cancelled by
//! its reader's exit path, and its terminal frame still goes out. So no
//! client can hold the stop open — not an idle one, not one that sent
//! half a frame, and not one sending a frame every few milliseconds.
//! Every reader is joined before `shutdown` returns.
//!
//! # Cancellation
//!
//! CANCEL frames act on the query id. A waiting query leaves the FIFO
//! and is answered when the CANCEL arrives — an `Error` reporting the
//! cancellation — and its place is free for the next QUERY. A running
//! one is stopped cooperatively through its token; the token is made
//! when the query takes its run slot, so one still waiting for an
//! executor worker answers "cancelled before it started" without
//! compiling. Either way the client receives a terminal frame for the
//! id. Cancelling a query that is populating the shared result cache
//! drops its populate ticket, handing the lead to a waiting session —
//! the shared cache is never poisoned by a cancelled flight — and
//! cancelling one that is *waiting* on another session's flight answers
//! it at once and leaves that flight alone. CANCEL for an unknown or
//! already-finished id is an acknowledged no-op.
//!
//! # Wire-level cache invalidation
//!
//! A FLUSH frame names a refreshed source. The connection's session
//! flushes exactly the cached plans and results derived from it
//! ([`Session::flush_source`]) — a result's serialized copy is part of
//! its cache entry and goes with it — and the client gets back a
//! `Flushed` frame with the drop counts. Source generations are
//! observable through the caches' `generation` accessors.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kleisli::{How, PlanCache, Session};
use kleisli_core::print::escape_str;
use kleisli_core::testutil::Quiescent;
use kleisli_core::{BreakerState, CancelToken, DriverRef, Executor, KError};
use kleisli_exec::ResultCache;

use crate::proto::{
    decode_request, encode_response, encode_result_frame, encode_result_text, frame, read_frame,
    write_frame, Request, Response, ServedFrom, MAX_FRAME_LEN,
};

/// Tuning knobs for a [`serve`] call. `Default` gives a 64-plan shared
/// cache, the result cache's default 64 MiB budget, per-connection
/// limits of 4 running + 16 queued queries, a 256-connection process
/// cap, a 64-frame writer queue with a 5 s write deadline, and a 5 s
/// drain deadline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of the shared compiled-plan cache (entries).
    pub plan_cache_capacity: usize,
    /// Memory budget of the shared result cache (bytes of approximate
    /// resident `Value` footprint; see `Value::approx_bytes`).
    pub result_cache_budget: u64,
    /// Queries one connection may have *running* at once.
    pub max_queries_per_connection: usize,
    /// Queries one connection may have *waiting* for its gate beyond the
    /// running ones; the excess is rejected with a `busy:` error.
    pub queue_depth_per_connection: usize,
    /// Connections served at once, process-wide; the excess is shed at
    /// accept time with a best-effort `busy:` frame. Bounds the
    /// thread-per-connection model.
    pub max_connections: usize,
    /// Response frames buffered per connection before the client is
    /// condemned as a non-reader (see the module docs on slow-client
    /// isolation).
    pub writer_queue_frames: usize,
    /// Longest a single frame write may block on the client's socket
    /// before the connection is condemned.
    pub write_deadline: Duration,
    /// Largest result frame the server will send (capped by the
    /// protocol's `MAX_FRAME_LEN`); a larger result becomes a clean
    /// `Error` frame instead of a hung client. It also sets every
    /// query's byte budget (module docs, "The byte budget").
    pub max_result_frame: usize,
}

/// Longest [`ServerHandle::shutdown`] (and dropping the handle) lets
/// in-flight queries finish before cancelling the stragglers; a caller
/// wanting another bound passes it to [`ServerHandle::shutdown_within`].
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            plan_cache_capacity: 64,
            result_cache_budget: kleisli_exec::DEFAULT_RESULT_CACHE_BUDGET,
            max_queries_per_connection: 4,
            queue_depth_per_connection: 16,
            max_connections: 256,
            writer_queue_frames: 64,
            write_deadline: Duration::from_secs(5),
            max_result_frame: MAX_FRAME_LEN,
        }
    }
}

/// The closure that prepares each connection's [`Session`]: register
/// drivers, bind values, run defines. It runs *before* the shared caches
/// are attached, so its registrations never clear them.
pub type Registrar = dyn Fn(&mut Session) + Send + Sync;

/// Process-wide server state shared by every connection.
struct ServerShared {
    plan_cache: Arc<PlanCache>,
    result_cache: Arc<ResultCache>,
    registrar: Arc<Registrar>,
    /// The compute executor every session evaluates on and every
    /// admitted query is a task of (the process-wide one, outside tests).
    executor: Arc<Executor>,
    config: ServerConfig,
    /// Stop accepting and reject new QUERYs; in-flight work continues.
    draining: AtomicBool,
    /// Final stop: each reader exits before its next frame; the stop
    /// wakes a reader blocked in a read by shutting its socket's read
    /// half.
    shutdown: AtomicBool,
    started: Instant,
    /// Live connections by id: reader join handle + per-connection
    /// state, so shutdown can wake and join every reader.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    connections_shed: AtomicU64,
    queries: AtomicU64,
    served_fresh: AtomicU64,
    served_cached: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    cancel_requests: AtomicU64,
    flush_requests: AtomicU64,
}

/// One live connection as seen by the accept loop and shutdown.
struct ConnEntry {
    handle: JoinHandle<()>,
    conn: Arc<Conn>,
}

impl ServerShared {
    /// Largest RESULT payload this server sends.
    fn result_limit(&self) -> usize {
        self.config.max_result_frame.min(MAX_FRAME_LEN)
    }

    /// The byte budget each query evaluates under (module docs).
    fn query_budget(&self) -> u64 {
        (16 * self.result_limit() as u64).max(16 << 20)
    }

    fn conns(&self) -> MutexGuard<'_, HashMap<u64, ConnEntry>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run slots taken and queries waiting for one, over every
    /// connection.
    fn admission(&self) -> (usize, usize) {
        self.conns()
            .values()
            .fold((0, 0), |(running, waiting), entry| {
                let (r, w) = entry.conn.queries.counts();
                (running + r, waiting + w)
            })
    }

    /// The STATS payload: one JSON document over the shared-cache and
    /// admission counters and, given a connection's `session`, a
    /// `drivers` object ([`drivers_json`]); `ServerHandle::stats_json`
    /// has no session, and leaves it out.
    fn stats_json(&self, session: Option<&Session>) -> String {
        let p = self.plan_cache.stats();
        let r = self.result_cache.stats();
        format!(
            concat!(
                "{{\"uptime_ms\":{},",
                "\"connections\":{{\"total\":{},\"open\":{},\"shed\":{}}},",
                "\"queries\":{{\"total\":{},\"served_fresh\":{},\"served_cached\":{},",
                "\"errors\":{},\"rejected\":{},\"cancel_requests\":{},\"flush_requests\":{}}},",
                "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"declined\":{},",
                "\"flushes\":{},\"entries\":{},\"capacity\":{}}},",
                "\"result_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"declined\":{},",
                "\"flushes\":{},",
                "\"entries\":{},\"bytes\":{},\"peak_bytes\":{},\"budget\":{}}}{}}}"
            ),
            self.started.elapsed().as_millis(),
            self.connections_total.load(Ordering::Relaxed),
            self.connections_open.load(Ordering::Relaxed),
            self.connections_shed.load(Ordering::Relaxed),
            self.queries.load(Ordering::Relaxed),
            self.served_fresh.load(Ordering::Relaxed),
            self.served_cached.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.cancel_requests.load(Ordering::Relaxed),
            self.flush_requests.load(Ordering::Relaxed),
            p.hits,
            p.misses,
            p.evictions,
            p.declined,
            p.flushes,
            p.entries,
            p.capacity,
            r.hits,
            r.misses,
            r.evictions,
            r.declined,
            r.flushes,
            r.entries,
            r.bytes,
            r.peak_bytes,
            r.budget,
            session.map_or(String::new(), |s| format!(
                ",\"drivers\":{}",
                drivers_json(s)
            )),
        )
    }
}

/// The `drivers` object of a STATS document: every driver `session`
/// registered, by name in order, with its counters and its breaker's state
/// (`null` without one). Each is the driver's own, shared by every session,
/// so one connection's view is the process's.
fn drivers_json(session: &Session) -> String {
    let ctx = session.context();
    let drivers: BTreeMap<&str, &DriverRef> = ctx.drivers().map(|d| (d.name(), d)).collect();
    let driver = |(name, d): (&&str, &&DriverRef)| {
        let m = d.metrics();
        let breaker = d
            .resilience()
            .breaker_state()
            .map_or("null", |state| match state {
                BreakerState::Closed => "\"closed\"",
                BreakerState::Open => "\"open\"",
                BreakerState::HalfOpen => "\"half_open\"",
            });
        format!(
            concat!(
                "\"{}\":{{\"requests\":{},\"timeouts\":{},\"retries\":{},\"breaker_opens\":{},",
                "\"coalesced\":{},\"batch_requests\":{},\"batched_keys\":{},\"breaker\":{}}}"
            ),
            escape_str(name),
            m.requests,
            m.timeouts,
            m.retries,
            m.breaker_opens,
            m.coalesced,
            m.batch_requests,
            m.batched_keys,
            breaker,
        )
    };
    format!(
        "{{{}}}",
        drivers.iter().map(driver).collect::<Vec<_>>().join(",")
    )
}

/// What a graceful shutdown accomplished; see
/// [`ServerHandle::shutdown_within`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every in-flight query finished (and its terminal frame was
    /// handed to its writer) before the deadline; `false` means
    /// stragglers were cancelled.
    pub drained: bool,
    /// Wall-clock time the whole shutdown took, joins included.
    pub elapsed: Duration,
}

/// A running server: the accept loop lives on its own thread. Dropping
/// the handle shuts the server down gracefully (drain in-flight queries
/// up to the configured deadline, then join every connection thread).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `serve_ephemeral` was
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-wide compiled-plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.plan_cache
    }

    /// The process-wide result cache.
    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.shared.result_cache
    }

    /// The JSON document a STATS frame returns, but for its `drivers`
    /// object, which is read from the asking connection's session.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json(None)
    }

    /// Connections currently being served.
    pub fn connections_open(&self) -> u64 {
        self.shared.connections_open.load(Ordering::Relaxed)
    }

    /// Connections accepted and handed to a reader thread, ever.
    pub fn connections_total(&self) -> u64 {
        self.shared.connections_total.load(Ordering::Relaxed)
    }

    /// Connections refused at accept time (connection cap, or resource
    /// exhaustion spawning their reader).
    pub fn connections_shed(&self) -> u64 {
        self.shared.connections_shed.load(Ordering::Relaxed)
    }

    /// Queries admitted but not yet terminal, over every connection's
    /// cell — what the drain waits on; `0` means no query holds a run slot or a place in
    /// a wait queue anywhere in the server (what the chaos suite asserts
    /// after every injected fault).
    pub fn active_queries(&self) -> u64 {
        let (running, waiting) = self.shared.admission();
        (running + waiting) as u64
    }

    /// Block on the accept loop (for a daemon main: serve until killed).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Gracefully shut down within [`DRAIN_DEADLINE`]; see
    /// [`ServerHandle::shutdown_within`].
    pub fn shutdown(mut self) -> DrainReport {
        self.stop(DRAIN_DEADLINE)
    }

    /// Gracefully shut down: stop accepting, let in-flight queries
    /// finish and flush their terminal frames (new QUERYs are rejected
    /// with a `shutting-down:` error meanwhile), cancel any query still
    /// running at the deadline, and join every connection thread —
    /// readers and writers; the readers wait out their query tasks.
    pub fn shutdown_within(mut self, deadline: Duration) -> DrainReport {
        self.stop(deadline)
    }

    fn stop(&mut self, deadline: Duration) -> DrainReport {
        let start = Instant::now();
        // Phase 1: stop accepting. New QUERYs on live connections are
        // rejected by the readers once `draining` is up.
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            let elapsed = Duration::ZERO;
            return DrainReport {
                drained: true,
                elapsed,
            };
        }
        let _ = TcpStream::connect(self.addr); // nudge the listener
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Phase 2: drain — wait, under one absolute deadline, until every
        // connection's cell is empty. Accepting has stopped and new
        // QUERYs are refused, so no connection joins mid-wait.
        let until = start.checked_add(deadline);
        let entries: Vec<ConnEntry> = self.shared.conns().drain().map(|(_, e)| e).collect();
        let drained = entries.iter().all(|e| e.conn.queries.wait_quiet(until));
        // Phase 3: stop the readers. Each checks `shutdown` between
        // frames, and shutting its socket's read half turns a read
        // blocked on an idle or half-sent frame into EOF; its exit path
        // cancels whatever outlived the deadline, waits for the terminal
        // frames and flushes them through the write half.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for entry in &entries {
            let _ = entry.conn.socket.shutdown(Shutdown::Read);
        }
        for entry in entries {
            let _ = entry.handle.join();
        }
        let elapsed = start.elapsed();
        DrainReport { drained, elapsed }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop(DRAIN_DEADLINE);
    }
}

/// A server holds nothing once no query is active — none running, none
/// waiting in any connection's admission FIFO — and neither shared cache
/// keeps an entry without a value.
impl Quiescent for ServerHandle {
    fn held(&self) -> Option<String> {
        let (running, waiting) = self.shared.admission();
        let queries = (running + waiting > 0)
            .then(|| format!("kleislid: {running} queries running, {waiting} waiting"));
        let caches = [self.plan_cache().held(), self.result_cache().held()];
        let held: Vec<String> = queries
            .into_iter()
            .chain(caches.into_iter().flatten())
            .collect();
        (!held.is_empty()).then(|| held.join("; "))
    }
}

/// Bind `addr` and serve connections until the handle is shut down.
/// `registrar` prepares each connection's session (drivers, bindings)
/// before the shared caches are attached.
pub fn serve(
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    registrar: Arc<Registrar>,
) -> io::Result<ServerHandle> {
    serve_on(addr, config, registrar, Executor::shared())
}

fn serve_on(
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    registrar: Arc<Registrar>,
    executor: Arc<Executor>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        plan_cache: PlanCache::new(config.plan_cache_capacity),
        result_cache: ResultCache::new(config.result_cache_budget),
        registrar,
        executor,
        config,
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
        connections_total: AtomicU64::new(0),
        connections_open: AtomicU64::new(0),
        connections_shed: AtomicU64::new(0),
        queries: AtomicU64::new(0),
        served_fresh: AtomicU64::new(0),
        served_cached: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        cancel_requests: AtomicU64::new(0),
        flush_requests: AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("kleislid-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))
        .expect("spawn accept thread");
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// [`serve`] on `127.0.0.1` with an OS-assigned port — for tests,
/// examples, and the bench harness.
pub fn serve_ephemeral(
    config: ServerConfig,
    registrar: Arc<Registrar>,
) -> io::Result<ServerHandle> {
    serve("127.0.0.1:0", config, registrar)
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for incoming in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        stream.set_nodelay(true).ok();
        // Reap finished connections so the registry (and the live
        // count it implies) tracks reality.
        let open = {
            let mut conns = shared.conns();
            for (_, entry) in conns.extract_if(|_, entry| entry.handle.is_finished()) {
                let _ = entry.handle.join();
            }
            conns.len()
        };
        if open >= shared.config.max_connections {
            shed(&stream, &shared);
            continue;
        }
        let Ok(socket) = stream.try_clone() else {
            shed(&stream, &shared);
            continue;
        };
        // The write deadline is a socket option shared by both handles;
        // reads have no timeout: a reader is woken, not polled.
        let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
        let conn = Arc::new(Conn {
            socket,
            writer: WriterQueue {
                state: Mutex::new(WriterState {
                    frames: VecDeque::new(),
                    closing: false,
                }),
                cv: Condvar::new(),
                capacity: shared.config.writer_queue_frames.max(1),
            },
            queries: Queries::new(&shared.config),
        });
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let reader_conn = Arc::clone(&conn);
        let spawned = thread::Builder::new()
            .name(format!("kleislid-conn-{id}"))
            .spawn(move || {
                conn_shared.connections_open.fetch_add(1, Ordering::Relaxed);
                handle_connection(stream, reader_conn, &conn_shared);
                conn_shared.connections_open.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => {
                // Counted only now: a connection is "handled" once its
                // reader thread actually exists.
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                shared.conns().insert(id, ConnEntry { handle, conn });
            }
            // Thread exhaustion: shed the connection rather than dropping
            // the whole server.
            Err(_) => shed(&conn.socket, &shared),
        }
    }
}

/// Refuse a connection at accept time: count it, tell the client why
/// (best effort, briefly bounded — a peer that won't read its rejection
/// doesn't get to block the accept loop), drop the socket.
fn shed(stream: &TcpStream, shared: &ServerShared) {
    shared.connections_shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let payload = encode_response(&Response::Error {
        id: 0,
        message: format!(
            "busy: connection limit {} reached",
            shared.config.max_connections
        ),
    });
    let _ = write_frame(&mut &*stream, &payload);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's queries, from admission to terminal frame, in one
/// cell under one lock: each admitted id's stage and the FIFO of waiting
/// ids. The queries holding a run slot are the entries not in the FIFO.
/// Its moves are [`Queries::admit`], [`Queries::finish`],
/// [`Queries::cancel`] and [`Queries::cancel_all`], and each one that
/// frees a run slot gives it to the FIFO's head (module docs,
/// "Admission").
struct Queries {
    cell: Mutex<Cell>,
    /// Signalled when the cell empties: teardown and the drain wait here.
    quiet: Condvar,
    /// [`ServerConfig::max_queries_per_connection`], at least 1.
    slots: usize,
    /// [`ServerConfig::queue_depth_per_connection`].
    depth: usize,
}

#[derive(Default)]
struct Cell {
    stages: HashMap<u64, Stage>,
    /// The waiting ids in arrival order.
    waiting: VecDeque<u64>,
}

/// Where an admitted query is.
enum Stage {
    /// Waiting as data for a run slot: no thread, no executor worker.
    Waiting(String),
    /// Holding a run slot: queued on the executor, compiling, evaluating
    /// or answering. A CANCEL goes through the token.
    Running(Arc<CancelToken>),
}

/// A query that has just taken a run slot: its id, text and token.
type Started = (u64, String, Arc<CancelToken>);

/// What [`Queries::admit`] made of a QUERY.
enum Admit {
    /// It took a free run slot: spawn its task.
    Run(Started),
    /// It waits in the FIFO.
    Queued,
    /// Its id is already admitted.
    Duplicate,
    /// Every run slot is taken and the FIFO is full.
    Full,
}

impl Queries {
    fn new(config: &ServerConfig) -> Queries {
        Queries {
            cell: Mutex::default(),
            quiet: Condvar::new(),
            slots: config.max_queries_per_connection.max(1),
            depth: config.queue_depth_per_connection,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Cell> {
        self.cell.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `id` is admitted and not yet answered.
    fn holds(&self, id: u64) -> bool {
        self.lock().stages.contains_key(&id)
    }

    /// Run slots taken and queries waiting for one.
    fn counts(&self) -> (usize, usize) {
        let cell = self.lock();
        (cell.stages.len() - cell.waiting.len(), cell.waiting.len())
    }

    /// Admit query `id` unless its id is already admitted or its
    /// connection's slots and FIFO are all taken.
    fn admit(&self, id: u64, src: String) -> Admit {
        let mut cell = self.lock();
        if cell.stages.contains_key(&id) {
            return Admit::Duplicate;
        }
        if cell.stages.len() >= self.slots + self.depth {
            return Admit::Full;
        }
        cell.stages.insert(id, Stage::Waiting(src));
        cell.waiting.push_back(id);
        self.start(&mut cell).map_or(Admit::Queued, Admit::Run)
    }

    /// Give a free run slot to the FIFO's head, if there are both. The
    /// query's token is made here, so a CANCEL reaches it while its task
    /// still waits for an executor worker.
    fn start(&self, cell: &mut Cell) -> Option<Started> {
        if cell.stages.len() - cell.waiting.len() >= self.slots {
            return None;
        }
        let id = cell.waiting.pop_front()?;
        let token = Arc::new(CancelToken::new());
        match cell.stages.insert(id, Stage::Running(Arc::clone(&token))) {
            Some(Stage::Waiting(src)) => Some((id, src, token)),
            _ => unreachable!("a waiting id is waiting"),
        }
    }

    /// Query `id` has enqueued its terminal frame: drop it, and hand its
    /// run slot to the FIFO's head, which its caller spawns.
    fn finish(&self, id: u64) -> Option<Started> {
        let mut cell = self.lock();
        cell.stages.remove(&id);
        let next = self.start(&mut cell);
        self.notify_if_quiet(&cell);
        next
    }

    /// A CANCEL: a running query is stopped through its token; a waiting
    /// one leaves the FIFO, and answering it falls to the caller (`true`).
    /// An unknown or answered id is a no-op.
    fn cancel(&self, id: u64) -> bool {
        let mut cell = self.lock();
        match cell.stages.get(&id) {
            Some(Stage::Running(token)) => token.cancel(),
            Some(Stage::Waiting(_)) => {
                cell.stages.remove(&id);
                cell.waiting.retain(|&waiting| waiting != id);
                self.notify_if_quiet(&cell);
                return true;
            }
            None => {}
        }
        false
    }

    /// [`Queries::cancel`] every query, when the connection's reader
    /// ends. Returns the waiting ids, for the caller to answer.
    fn cancel_all(&self) -> Vec<u64> {
        let ids: Vec<u64> = self.lock().stages.keys().copied().collect();
        ids.into_iter().filter(|&id| self.cancel(id)).collect()
    }

    /// Wait until every admitted query has enqueued its terminal frame,
    /// or until `deadline`; whether the cell emptied.
    fn wait_quiet(&self, deadline: Option<Instant>) -> bool {
        let mut cell = self.lock();
        while !cell.stages.is_empty() {
            let left = deadline.map_or(Duration::MAX, |d| d - Instant::now().min(d));
            if left.is_zero() {
                return false;
            }
            cell = self
                .quiet
                .wait_timeout(cell, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    fn notify_if_quiet(&self, cell: &Cell) {
        if cell.stages.is_empty() {
            self.quiet.notify_all();
        }
    }
}

/// The bounded outbound frame queue one writer thread drains; see the
/// module docs on slow-client isolation.
struct WriterQueue {
    state: Mutex<WriterState>,
    cv: Condvar,
    capacity: usize,
}

struct WriterState {
    frames: VecDeque<Vec<u8>>,
    /// No further enqueues; the writer drains what's left, then exits —
    /// at once when the connection is condemned, which clears the frames.
    closing: bool,
}

/// Per-connection state shared between the reader thread, the writer
/// thread, and the connection's query tasks.
struct Conn {
    /// The connection's socket (a second handle to the reader's): the
    /// writer thread writes through it, and condemnation and the stop
    /// shut it down, which wakes the reader.
    socket: TcpStream,
    writer: WriterQueue,
    /// This tenant's admitted queries.
    queries: Queries,
}

impl Conn {
    fn send(&self, resp: &Response) {
        self.send_payload(&encode_response(resp));
    }

    fn send_payload(&self, payload: &[u8]) {
        match frame(payload) {
            Ok(frame) => self.send_frame(frame),
            // Over the protocol's frame limit: undeliverable.
            Err(_) => self.condemn(),
        }
    }

    /// Hand a complete frame (length prefix included) to the writer
    /// thread. Never blocks: a full queue means the client has stopped
    /// reading, and the connection is condemned on the spot.
    fn send_frame(&self, frame: Vec<u8>) {
        let mut st = self.lock_writer();
        if st.closing {
            // Condemned or shut: the frame has nowhere to go; its query
            // already ran.
            return;
        }
        let overflow = st.frames.len() >= self.writer.capacity;
        if !overflow {
            st.frames.push_back(frame);
        }
        drop(st);
        self.writer.cv.notify_all();
        if overflow {
            self.condemn();
        }
    }

    /// Kill a connection whose peer has stopped reading (queue overflow
    /// or write deadline): drop undeliverable frames, close the queue and
    /// shut both halves of the socket, which wakes the reader, and the
    /// reader cancels this tenant's queries.
    fn condemn(&self) {
        {
            let mut st = self.lock_writer();
            st.frames.clear();
            st.closing = true;
        }
        self.writer.cv.notify_all();
        let _ = self.socket.shutdown(Shutdown::Both);
    }

    /// Flag the queue closed: the writer drains what is left (each write
    /// bounded by the write deadline), then exits.
    fn finish_writer(&self) {
        self.lock_writer().closing = true;
        self.writer.cv.notify_all();
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The writer thread: drain the queue one frame at a time, each write
/// bounded by the socket's write deadline. Any write failure — timeout
/// included — condemns the connection.
fn writer_loop(conn: &Conn) {
    loop {
        let frame = {
            let mut st = conn.lock_writer();
            loop {
                if let Some(frame) = st.frames.pop_front() {
                    break frame;
                }
                if st.closing {
                    return;
                }
                st = conn.writer.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        if (&conn.socket).write_all(&frame).is_err() {
            conn.condemn();
            return;
        }
    }
}

fn handle_connection(reader: TcpStream, conn: Arc<Conn>, shared: &Arc<ServerShared>) {
    let writer_conn = Arc::clone(&conn);
    let Ok(writer) = thread::Builder::new()
        .name("kleislid-writer".to_string())
        .spawn(move || writer_loop(&writer_conn))
    else {
        conn.condemn();
        return;
    };

    // Build this tenant's session: registrar first (drivers, bindings),
    // shared caches after, so registration never clears them.
    let mut session = Session::with_executor(Arc::clone(&shared.executor));
    (shared.registrar)(&mut session);
    session.share_plan_cache(Arc::clone(&shared.plan_cache));
    session.share_result_cache(Arc::clone(&shared.result_cache));
    let session = Arc::new(session);

    // The stop is checked between frames; a read it finds blocked is
    // woken as EOF (`ServerHandle::stop`, phase 3).
    while !shared.shutdown.load(Ordering::SeqCst) {
        let payload = match read_frame(&mut &reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // An oversized length announcement: the stream cannot be
                // resynchronized, but the client can at least be told
                // before its connection (and only its connection) goes.
                conn.send(&Response::Error {
                    id: 0,
                    message: format!("protocol error: {e}"),
                });
                break;
            }
            Err(_) => break,
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                // The length prefix framed correctly, only the payload
                // was bad — the stream stays in sync, so report and go
                // on rather than dropping the connection.
                conn.send(&Response::Error {
                    id: 0,
                    message: format!("malformed request: {e}"),
                });
                continue;
            }
        };
        match req {
            Request::Stats { id } => {
                let json = shared.stats_json(Some(&session));
                conn.send(&Response::Stats { id, json });
            }
            Request::Cancel { id } => {
                shared.cancel_requests.fetch_add(1, Ordering::Relaxed);
                if conn.queries.cancel(id) {
                    answer_cancelled(shared, &conn, id);
                }
            }
            Request::Flush { id, source } => {
                shared.flush_requests.fetch_add(1, Ordering::Relaxed);
                match session.flush_source(&source) {
                    Ok(flush) => {
                        conn.send(&Response::Flushed {
                            id,
                            plans: flush.plans,
                            results: flush.results,
                        });
                    }
                    Err(e) => send_error(shared, &conn, id, e.to_string()),
                }
            }
            Request::Query { id, src } => {
                if shared.draining.load(Ordering::SeqCst) {
                    let message = "shutting-down: server is draining; no new queries";
                    conn.send(&Response::Error {
                        id,
                        message: message.to_string(),
                    });
                    continue;
                }
                if !conn.queries.holds(id) && try_fast_path(shared, &conn, &session, id, &src) {
                    continue;
                }
                admit(shared, &conn, &session, id, src);
            }
        }
    }

    // Reader gone (EOF, condemned, or stopped): stop this tenant's
    // in-flight queries, answering the waiting ones at once, wait out
    // the running ones' tasks so every terminal frame is enqueued, then
    // let the writer drain and join it. After this no thread of the
    // connection survives and no task refers to it.
    for id in conn.queries.cancel_all() {
        answer_cancelled(shared, &conn, id);
    }
    conn.queries.wait_quiet(None);
    conn.finish_writer();
    let _ = writer.join();
    // The registry ([`ServerShared::conns`]) still holds this
    // connection's socket clone until the accept loop reaps it, which
    // may be much later: actively shut the socket down so the peer sees
    // EOF now, not at the next accept.
    let _ = conn.socket.shutdown(Shutdown::Both);
}

/// Answer query `id` with an `Error` frame, counted in `errors`.
fn send_error(shared: &ServerShared, conn: &Conn, id: u64, message: String) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    conn.send(&Response::Error { id, message });
}

/// Tell the client its result passed the configured frame bound — a
/// clean `Error` frame instead of a frame it would refuse to read (a
/// silently hung client).
fn send_too_large(shared: &ServerShared, conn: &Conn, id: u64) {
    let limit = shared.result_limit();
    let message = format!("result too large: the frame exceeds the {limit}-byte limit");
    send_error(shared, conn, id, message);
}

/// Answer a query cancelled before it compiled: a waiting one when its
/// CANCEL arrives, a started one when its task finds its token cancelled.
fn answer_cancelled(shared: &ServerShared, conn: &Conn, id: u64) {
    shared.queries.fetch_add(1, Ordering::Relaxed);
    let message = "query cancelled before it started";
    send_error(shared, conn, id, message.to_string());
}

/// Admit a QUERY frame into its connection's cell: it becomes an
/// executor task at once if a run slot is free, and otherwise waits as
/// data in the connection's FIFO until a finishing query hands its slot
/// on ([`Queries::finish`]).
fn admit(
    shared: &Arc<ServerShared>,
    conn: &Arc<Conn>,
    session: &Arc<Session>,
    id: u64,
    src: String,
) {
    match conn.queries.admit(id, src) {
        Admit::Run(started) => spawn_query(shared, conn, session, started),
        Admit::Queued => {}
        Admit::Duplicate => conn.send(&Response::Error {
            id,
            message: format!("protocol error: query id {id} already in flight"),
        }),
        Admit::Full => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            let depth = conn.queries.depth;
            let message = format!("busy: connection queue depth {depth} exceeded");
            conn.send(&Response::Error { id, message });
        }
    }
}

/// Make a started query a task on the shared executor: it answers, then
/// [`Queries::finish`]es, and spawns the query its run slot goes to. A
/// panic still ends in a terminal frame and frees the slot.
fn spawn_query(
    shared: &Arc<ServerShared>,
    conn: &Arc<Conn>,
    session: &Arc<Session>,
    started: Started,
) {
    let (shared, conn, session) = (Arc::clone(shared), Arc::clone(conn), Arc::clone(session));
    let executor = Arc::clone(&shared.executor);
    executor.spawn(move || {
        let (id, src, token) = started;
        let run = AssertUnwindSafe(|| run_query(&shared, &conn, &session, id, &src, token));
        if catch_unwind(run).is_err() {
            let message = KError::eval("query evaluation panicked").to_string();
            send_error(&shared, &conn, id, message);
        }
        if let Some(next) = conn.queries.finish(id) {
            spawn_query(&shared, &conn, &session, next);
        }
    });
}

/// Warm fast path: a fully cached query is served inline on the reader
/// thread — no executor task, no admission (the per-tenant gate guards
/// *evaluation* capacity; a memory read needs none), and at most one
/// serialization per result-cache commit: the exchange text lives in the
/// result's cache entry ([`ResultCache::exchange_text`]), so the
/// steady-state hit neither clones the `Value` out nor re-serializes it.
/// Returns `false` (caller takes the ordinary admission path) unless
/// both the plan and its committed result are cached.
fn try_fast_path(
    shared: &ServerShared,
    conn: &Conn,
    session: &Session,
    id: u64,
    src: &str,
) -> bool {
    let Some(compiled) = session.plan_cache().peek(src, session.opt_config()) else {
        return false;
    };
    // `exchange_text` does the result cache's hit accounting and LRU
    // refresh for the whole fast path (the plan `peek` is
    // counter-neutral); the plan cache's follows once the reply is
    // certain.
    let Some(text) = shared.result_cache.exchange_text(compiled.plan_hash()) else {
        return false;
    };
    session.plan_cache().record_hit(src, session.opt_config());
    shared.queries.fetch_add(1, Ordering::Relaxed);
    shared.served_cached.fetch_add(1, Ordering::Relaxed);
    let payload = encode_result_text(id, ServedFrom::SharedCache, &text);
    if payload.len() > shared.result_limit() {
        send_too_large(shared, conn, id);
    } else {
        conn.send_payload(&payload);
    }
    true
}

/// The body of one started query's task: compile and evaluate through
/// the shared-cache path right here under the query's token, write the
/// reply once — straight into its frame — and enqueue it. A query whose
/// CANCEL (or its connection's end) landed while it waited for a worker
/// is answered without compiling.
fn run_query(
    shared: &ServerShared,
    conn: &Conn,
    session: &Session,
    id: u64,
    src: &str,
    token: Arc<CancelToken>,
) {
    if token.is_cancelled() {
        return answer_cancelled(shared, conn, id);
    }
    shared.queries.fetch_add(1, Ordering::Relaxed);
    // No limit: the result is read to its end in value position, through
    // the shared result cache; the wait evaluates right here.
    let how = How {
        cancel: Some(token),
        max_bytes: Some(shared.query_budget()),
        ..How::default()
    };
    let outcome = session.compile_shared(src).and_then(|compiled| {
        let handle = session.start(&compiled, how);
        let cached = handle.from_cache();
        Ok((handle.wait()?, cached))
    });
    match outcome {
        Ok((value, cached)) => {
            let served = if cached {
                shared.served_cached.fetch_add(1, Ordering::Relaxed);
                ServedFrom::SharedCache
            } else {
                shared.served_fresh.fetch_add(1, Ordering::Relaxed);
                ServedFrom::Fresh
            };
            match encode_result_frame(id, served, &value, shared.result_limit()) {
                Some(frame) => conn.send_frame(frame),
                None => send_too_large(shared, conn, id),
            }
        }
        Err(e) => send_error(shared, conn, id, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, QueryReply};
    use kleisli_core::testutil::{assert_quiescent, Fault, SlowDriver};
    use kleisli_core::Value;

    /// A server over one wedged source (every `SRC` request blocks until
    /// `release_wedged`) and a local `DB`, one run slot per connection,
    /// evaluating on `executor`.
    fn wedged_server(
        queue_depth: usize,
        executor: &Arc<Executor>,
    ) -> (ServerHandle, Arc<SlowDriver>) {
        let driver = SlowDriver::new("SRC", 1, Duration::ZERO, 4);
        driver.set_fault(Fault::NeverRespond);
        let registered = Arc::clone(&driver);
        let registrar: Arc<Registrar> = Arc::new(move |session: &mut Session| {
            session.register_driver(registered.clone());
            session.bind_value("DB", Value::set((0..5).map(Value::Int).collect()));
        });
        let config = ServerConfig {
            max_queries_per_connection: 1,
            queue_depth_per_connection: queue_depth,
            ..ServerConfig::default()
        };
        let server = serve_on("127.0.0.1:0", config, registrar, Arc::clone(executor)).unwrap();
        (server, driver)
    }

    /// A never-seen query costing one `SRC` request.
    fn probe(k: u64) -> String {
        format!(r#"count(SRC([function = "probe", arg = {k}]))"#)
    }

    fn eventually(what: &str, mut holds: impl FnMut() -> bool) {
        let start = Instant::now();
        while !holds() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "timed out waiting for {what}"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_one_wide_executor_still_serves_a_query() {
        // The admitted query is the executor's one task, so nobody but
        // the task itself can evaluate what it starts: its wait must run
        // the evaluation in place.
        let executor = Executor::new("one-wide", 1);
        let registrar: Arc<Registrar> = Arc::new(|session: &mut Session| {
            session.bind_value("DB", Value::set((0..5).map(Value::Int).collect()));
        });
        let config = ServerConfig::default();
        let server = serve_on("127.0.0.1:0", config, registrar, Arc::clone(&executor)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (v, _) = client
            .query(r"{x + 1 | \x <- DB}")
            .unwrap()
            .into_value()
            .unwrap();
        assert_eq!(v, Value::set((1..6).map(Value::Int).collect()));
        assert_eq!(executor.threads_spawned(), 1);
        assert_quiescent(&[&server]);
    }

    #[test]
    fn a_one_wide_executor_runs_a_parallel_loop_in_place() {
        // Both waiters nested on the executor's one worker: the admitted
        // query runs the evaluation it waits for, and the parallel loop
        // inside it runs every body of its chunk itself, since there is
        // no other worker to claim one.
        let executor = Executor::new("one-wide", 1);
        let driver = SlowDriver::new("SRC", 2, Duration::ZERO, 4);
        let registered = Arc::clone(&driver);
        let register = move |session: &mut Session| {
            session.register_driver(registered.clone());
            session.bind_value("DB", Value::set((0..5).map(Value::Int).collect()));
        };
        let text = r#"{[x = x, n = y.n] | \x <- DB, \y <- SRC([function = "probe", arg = x])}"#;
        let mut local = Session::new();
        register(&mut local);
        let plan = local.compile_shared(text).unwrap();
        assert!(
            plan.optimized.to_string().contains("PAR[4]"),
            "{}",
            plan.optimized
        );
        local.set_opt_config(kleisli_opt::OptConfig::none());
        let expected = local.query(text).unwrap();
        assert_eq!(expected.len(), Some(10));

        let config = ServerConfig::default();
        let server = serve_on(
            "127.0.0.1:0",
            config,
            Arc::new(register),
            Arc::clone(&executor),
        );
        let server = server.unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (v, _) = client.query(text).unwrap().into_value().unwrap();
        assert_eq!(v, expected);
        assert_eq!(executor.threads_spawned(), 1);
        assert_quiescent(&[&server, &*driver]);
    }

    #[test]
    fn a_gate_wait_is_data_and_holds_no_executor_worker() {
        // Two workers. If a query waiting for its connection's run slot
        // parked one, the wedged query and the first waiter would hold
        // both and the other tenant below could never run.
        let executor = Executor::new("served-path", 2);
        let (server, driver) = wedged_server(16, &executor);
        let mut hot = Client::connect(server.addr()).unwrap();
        let ids: Vec<u64> = (0..3).map(|k| hot.send_query(&probe(k)).unwrap()).collect();
        hot.stats().unwrap(); // the reader has admitted all three
        eventually("the first query to reach the source", || {
            driver.requests_started() == 1
        });

        assert_eq!(
            server.shared.admission(),
            (1, 2),
            "one running, two waiting as data"
        );
        assert_eq!(server.active_queries(), 3);
        assert_eq!(executor.busy(), 1, "only the running query holds a worker");

        let mut other = Client::connect(server.addr()).unwrap();
        let (v, _) = other.query("count(DB)").unwrap().into_value().unwrap();
        assert_eq!(
            v,
            Value::Int(5),
            "another tenant runs beside the wedged one"
        );
        assert_eq!(driver.requests_started(), 1, "the waiters have not started");

        driver.release_wedged();
        let order: Vec<u64> = (0..3)
            .map(|_| match hot.read_response().unwrap() {
                Response::Result { id, value, .. } => {
                    assert_eq!(value, Value::Int(1));
                    id
                }
                other => panic!("expected a result, got {other:?}"),
            })
            .collect();
        assert_eq!(order, ids, "one run slot: completion in admission order");
        assert_quiescent(&[&server, &*driver]);
        assert!(executor.threads_spawned() <= executor.limit());
    }

    #[test]
    fn cancel_reaches_queued_and_running_queries_and_the_queue_stays_bounded() {
        let executor = Executor::new("served-path", 2);
        let (server, driver) = wedged_server(2, &executor);
        let mut client = Client::connect(server.addr()).unwrap();
        let running = client.send_query(&probe(0)).unwrap();
        let queued = client.send_query(&probe(1)).unwrap();
        let survivor = client.send_query(&probe(2)).unwrap();
        // One running + queue_depth waiting are admitted; one more is not.
        let overflow = client.send_query(&probe(3)).unwrap();
        match client.read_response().unwrap() {
            Response::Error { id, message } => {
                assert_eq!(id, overflow);
                assert!(message.starts_with("busy:"), "{message}");
            }
            other => panic!("expected a busy rejection, got {other:?}"),
        }
        eventually("the first query to reach the source", || {
            driver.requests_started() == 1
        });
        assert_eq!(server.shared.admission(), (1, 2));

        // The queued id first, then the running one: each ends in its
        // own terminal Error frame, the queued one's first (it is
        // answered when its CANCEL arrives).
        client.cancel(queued).unwrap();
        client.cancel(running).unwrap();
        for expected in [queued, running] {
            match client.read_response().unwrap() {
                Response::Error { id, message } => {
                    assert_eq!(id, expected);
                    assert!(message.to_lowercase().contains("cancel"), "{message}");
                }
                other => panic!("expected a cancellation error, got {other:?}"),
            }
        }

        // The query behind them is untouched: it runs once its turn comes.
        eventually("the survivor to reach the source", || {
            driver.requests_started() == 2
        });
        driver.release_wedged();
        match client.wait_reply(survivor).unwrap() {
            QueryReply::Value { value, .. } => assert_eq!(value, Value::Int(1)),
            other => panic!("expected a value, got {other:?}"),
        }
        assert_eq!(
            driver.requests_started(),
            2,
            "the cancelled waiter never reached the source"
        );
        assert_quiescent(&[&server, &*driver]);
    }

    #[test]
    fn a_cancelled_waiter_is_answered_at_once_and_frees_its_place() {
        let executor = Executor::new("served-path", 2);
        let (server, driver) = wedged_server(1, &executor);
        let mut client = Client::connect(server.addr()).unwrap();
        let running = client.send_query(&probe(0)).unwrap();
        let waiting = client.send_query(&probe(1)).unwrap();
        eventually("the first query to reach the source", || {
            driver.requests_started() == 1
        });
        assert_eq!(server.shared.admission(), (1, 1), "the queue is full");

        client.cancel(waiting).unwrap();
        match client.read_response().unwrap() {
            Response::Error { id, message } => {
                assert_eq!(id, waiting);
                assert!(message.contains("cancelled before it started"), "{message}");
            }
            other => panic!("expected the waiter's cancellation, got {other:?}"),
        }
        assert_eq!(
            server.shared.admission(),
            (1, 0),
            "still wedged, its place free"
        );

        // The freed place takes a new query: a full queue would refuse it.
        let next = client.send_query(&probe(2)).unwrap();
        client.stats().unwrap(); // the reader has admitted it
        assert_eq!(server.shared.admission(), (1, 1));
        driver.release_wedged();
        for id in [running, next] {
            match client.wait_reply(id).unwrap() {
                QueryReply::Value { value, .. } => assert_eq!(value, Value::Int(1)),
                other => panic!("expected a value, got {other:?}"),
            }
        }
        assert_eq!(
            driver.requests_started(),
            2,
            "the cancelled waiter never reached the source"
        );
        assert_quiescent(&[&server, &*driver]);
    }
}
