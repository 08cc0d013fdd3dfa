//! The `kleislid` server: many client connections, one process-wide set
//! of caches.
//!
//! # Topology
//!
//! Each accepted connection gets its own reader thread, its own writer
//! thread, and its own [`Session`] — built by the server's *registrar*
//! (the closure that registers drivers and bindings), then attached to
//! the **shared** [`PlanCache`] and [`ResultCache`]. Driver `Arc`s
//! captured by the registrar are shared across sessions, so per-driver
//! admission gates, resilience policies, and metrics are process-wide,
//! exactly as they were per-session; and every session evaluates on the
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
//! # Admission (per-tenant fair share)
//!
//! A connection is a tenant. Each has
//! [`ServerConfig::max_queries_per_connection`] *run slots* and a FIFO
//! of at most [`ServerConfig::queue_depth_per_connection`] admitted
//! queries waiting for one; a QUERY arriving with the queue full is
//! rejected immediately with an `Error` response (message prefix
//! `"busy:"`) instead of stalling the connection. **A gate wait is
//! data**: the waiting query is an `(id, text)` entry in its
//! connection's queue — no thread, no executor worker — and the run
//! slot a finishing query releases is handed straight to the head of
//! that queue, which only then becomes a task (`RunSlot`). A hot tenant
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
//! the queue overflows first), and the connection is *condemned*: the
//! socket is shut down, pending frames are dropped, and its in-flight
//! queries are cancelled. The stall costs the stalled tenant its
//! connection and nothing else — no executor worker, and no other
//! tenant's responses, ever block on a hostile peer's socket.
//!
//! # Graceful drain
//!
//! [`ServerHandle::shutdown`] (and `shutdown_within`) drains rather
//! than drops: accepting stops, new QUERY frames are rejected with a
//! `shutting-down:` error, in-flight queries run to completion and
//! flush their terminal frames through the writer queues — all bounded
//! by [`DRAIN_DEADLINE`] (or the caller's own bound), after which
//! stragglers are cancelled. Each reader waits until its connection's
//! last query task has released its run slot (a count, not a join: the
//! tasks are the executor's), then closes and joins its writer; every
//! reader is joined before `shutdown` returns.
//!
//! # Cancellation
//!
//! CANCEL frames act on the query id: a running query is stopped
//! cooperatively through its cancellation token, a queued one — waiting
//! for a run slot or for an executor worker — is marked and answers as
//! soon as its turn comes, without evaluating (the client still
//! receives a terminal frame for that id, normally an `Error` reporting
//! the cancellation). Cancelling a query that is populating the shared
//! result cache drops its populate ticket, handing the lead to a waiting
//! session — the shared cache is never poisoned by a cancelled flight —
//! and cancelling one that is *waiting* on another session's flight
//! answers it at once and leaves that flight alone. CANCEL for an
//! unknown or already-finished id is an acknowledged no-op.
//!
//! # Wire-level cache invalidation
//!
//! A FLUSH frame names a refreshed source. The connection's session
//! flushes exactly the cached plans and results derived from it
//! ([`Session::flush_source`]) — a result's serialized copy is part of
//! its cache entry and goes with it — and the client gets back a
//! `Flushed` frame with the drop counts. Source generations are
//! observable through the caches' `generation` accessors.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kleisli::{How, PlanCache, Session};
use kleisli_core::testutil::Quiescent;
use kleisli_core::{CancelToken, Executor, KError};
use kleisli_exec::ResultCache;

use crate::proto::{
    decode_request, encode_response, encode_result_frame, encode_result_text, frame, write_frame,
    Request, Response, ServedFrom, MAX_FRAME_LEN,
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
    /// `Error` frame instead of a hung client.
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
    /// Final stop: connection readers exit at the next poll tick.
    shutdown: AtomicBool,
    started: Instant,
    /// Live connections by id: reader join handle + per-connection
    /// state, so shutdown can cancel stragglers and join every reader.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    /// Queries admitted (queued or running) but not yet terminal —
    /// what the drain phase waits on.
    active_queries: AtomicU64,
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
    handle: Option<JoinHandle<()>>,
    conn: Arc<Conn>,
}

impl ServerShared {
    /// Largest RESULT payload this server sends.
    fn result_limit(&self) -> usize {
        self.config.max_result_frame.min(MAX_FRAME_LEN)
    }

    /// Run slots taken and queries waiting for one, over every
    /// connection.
    fn admission(&self) -> (usize, usize) {
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.values().fold((0, 0), |(running, waiting), entry| {
            let admission = entry.conn.lock_admission();
            (
                running + admission.running,
                waiting + admission.waiting.len(),
            )
        })
    }

    /// The STATS payload: one JSON document over the shared-cache and
    /// admission counters (also what `ServerHandle::stats_json` returns).
    fn stats_json(&self) -> String {
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
                "\"entries\":{},\"bytes\":{},\"peak_bytes\":{},\"budget\":{}}}}}"
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
        )
    }
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
    stopped: bool,
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

    /// The same JSON document a STATS frame returns.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
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

    /// Queries admitted but not yet terminal — the quantity the drain
    /// phase waits on; `0` means no query holds a run slot or a place in
    /// a wait queue anywhere in the server (what the chaos suite asserts
    /// after every injected fault).
    pub fn active_queries(&self) -> u64 {
        self.shared.active_queries.load(Ordering::SeqCst)
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
        if self.stopped {
            return DrainReport {
                drained: true,
                elapsed: Duration::ZERO,
            };
        }
        self.stopped = true;
        let start = Instant::now();
        // Phase 1: stop accepting. New QUERYs on live connections are
        // rejected by the readers once `draining` is up.
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // nudge the listener
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Phase 2: drain — wait out admitted queries, bounded.
        let mut drained = true;
        while self.shared.active_queries.load(Ordering::SeqCst) > 0 {
            if start.elapsed() >= deadline {
                drained = false;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        // Phase 3: stop the readers (they poll `shutdown` at 50 ms) and
        // cancel whatever outlived the deadline so the readers' waits
        // for their query tasks are prompt.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let entries: Vec<ConnEntry> = {
            let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.drain().map(|(_, e)| e).collect()
        };
        if !drained {
            for entry in &entries {
                entry.conn.cancel_all_pending();
            }
        }
        for mut entry in entries {
            if let Some(handle) = entry.handle.take() {
                let _ = handle.join();
            }
        }
        DrainReport {
            drained,
            elapsed: start.elapsed(),
        }
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
        let active = self.active_queries();
        let queries = (active + running as u64 + waiting as u64 > 0).then(|| {
            format!("kleislid: {active} queries active, {running} running, {waiting} waiting")
        });
        let caches = [self.plan_cache().held(), self.result_cache().held()];
        let held: Vec<String> = queries.into_iter().chain(caches.into_iter().flatten()).collect();
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
        active_queries: AtomicU64::new(0),
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
        stopped: false,
    })
}

/// [`serve`] on `127.0.0.1` with an OS-assigned port — for tests,
/// examples, and the bench harness.
pub fn serve_ephemeral(config: ServerConfig, registrar: Arc<Registrar>) -> io::Result<ServerHandle> {
    serve("127.0.0.1:0", config, registrar)
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for incoming in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        stream.set_nodelay(true).ok();
        // Reap finished connections so the registry (and the live count
        // it implies) tracks reality.
        let open = {
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            let done: Vec<u64> = conns
                .iter()
                .filter(|(_, e)| e.handle.as_ref().is_none_or(|h| h.is_finished()))
                .map(|(id, _)| *id)
                .collect();
            for id in done {
                if let Some(mut entry) = conns.remove(&id) {
                    if let Some(handle) = entry.handle.take() {
                        let _ = handle.join();
                    }
                }
            }
            conns.len()
        };
        if open >= shared.config.max_connections {
            shed(stream, &shared);
            continue;
        }
        let Ok(socket) = stream.try_clone() else {
            shed(stream, &shared);
            continue;
        };
        // The write deadline is a socket option shared by both handles;
        // reads are governed separately by the reader's poll timeout.
        let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
        let conn = Arc::new(Conn {
            socket,
            writer: WriterQueue {
                state: Mutex::new(WriterState {
                    frames: VecDeque::new(),
                    closing: false,
                    dead: false,
                }),
                cv: Condvar::new(),
                capacity: shared.config.writer_queue_frames.max(1),
            },
            admission: Mutex::new(Admission {
                running: 0,
                waiting: VecDeque::new(),
            }),
            quiet: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
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
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(
                        id,
                        ConnEntry {
                            handle: Some(handle),
                            conn,
                        },
                    );
            }
            Err(_) => {
                // Thread exhaustion: shed the connection rather than
                // dropping the whole server.
                match conn.socket.try_clone() {
                    Ok(socket) => shed(socket, &shared),
                    Err(_) => {
                        shared.connections_shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Refuse a connection at accept time: count it, tell the client why
/// (best effort, briefly bounded — a peer that won't read its rejection
/// doesn't get to block the accept loop), drop the socket.
fn shed(stream: TcpStream, shared: &ServerShared) {
    shared.connections_shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let payload = encode_response(&Response::Error {
        id: 0,
        message: format!(
            "busy: connection limit {} reached",
            shared.config.max_connections
        ),
    });
    let _ = write_frame(&mut &stream, &payload);
    let _ = stream.shutdown(Shutdown::Both);
}

/// The lifecycle of one query id on a connection, from QUERY frame to
/// terminal response. Tracked so a CANCEL can land while the query is
/// still waiting — for a run slot, or for an executor worker.
enum Pending {
    /// QUERY admitted, its task not yet started.
    Requested,
    /// CANCEL received before the task started.
    Cancelled,
    /// Compiling or evaluating; cancel through the query's token.
    Running(Arc<CancelToken>),
}

/// One tenant's admission state. Run slots are a count; the queries
/// waiting for one are *data* — `(id, source text)` in arrival order —
/// as a `Remote`'s pool queues requests, so a waiting query holds no
/// thread and no executor worker.
struct Admission {
    /// Run slots taken, at most
    /// [`ServerConfig::max_queries_per_connection`].
    running: usize,
    /// Admitted queries waiting for a slot, at most
    /// [`ServerConfig::queue_depth_per_connection`].
    waiting: VecDeque<(u64, String)>,
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
    /// No further enqueues; the writer drains what's left, then exits.
    closing: bool,
    /// The connection is condemned: frames are dropped, not sent.
    dead: bool,
}

/// Per-connection state shared between the reader thread, the writer
/// thread, and the connection's query tasks.
struct Conn {
    /// The connection's socket (a second handle to the reader's): the
    /// writer thread writes through it, and condemnation shuts it down
    /// — which unblocks the reader too.
    socket: TcpStream,
    writer: WriterQueue,
    /// This tenant's run slots and wait queue.
    admission: Mutex<Admission>,
    /// Signalled when the last admitted query releases its run slot;
    /// connection teardown waits here.
    quiet: Condvar,
    /// In-flight queries by id, for CANCEL routing.
    pending: Mutex<HashMap<u64, Pending>>,
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
        let overflow = {
            let mut st = self.lock_writer();
            if st.dead || st.closing {
                // Condemned or draining shut: the frame has nowhere to
                // go; its query already ran.
                return;
            }
            if st.frames.len() >= self.writer.capacity {
                true
            } else {
                st.frames.push_back(frame);
                false
            }
        };
        self.writer.cv.notify_all();
        if overflow {
            self.condemn();
        }
    }

    /// Kill a connection whose peer has stopped reading (queue overflow
    /// or write deadline): drop undeliverable frames, shut the socket
    /// (unblocking the reader), cancel this tenant's in-flight queries.
    fn condemn(&self) {
        {
            let mut st = self.lock_writer();
            st.dead = true;
            st.frames.clear();
        }
        self.writer.cv.notify_all();
        let _ = self.socket.shutdown(Shutdown::Both);
        self.cancel_all_pending();
    }

    /// Stop cooperatively everything this connection has in flight;
    /// queries not yet started are marked cancelled so their tasks
    /// short-circuit.
    fn cancel_all_pending(&self) {
        for p in self.lock_pending().values_mut() {
            cancel(p);
        }
    }

    /// Wait until every admitted query has enqueued its terminal frame
    /// and released its run slot.
    fn wait_quiet(&self) {
        let mut admission = self.lock_admission();
        while admission.running > 0 || !admission.waiting.is_empty() {
            admission = self
                .quiet
                .wait(admission)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Flag the queue closed and wait for the writer to drain it (each
    /// residual frame write is bounded by the write deadline).
    fn finish_writer(&self) {
        {
            let mut st = self.lock_writer();
            st.closing = true;
        }
        self.writer.cv.notify_all();
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, HashMap<u64, Pending>> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Apply a CANCEL to one query's state: a query not yet started is
/// marked, a started one is stopped through its token.
fn cancel(p: &mut Pending) {
    match p {
        Pending::Requested => *p = Pending::Cancelled,
        Pending::Running(token) => token.cancel(),
        Pending::Cancelled => {}
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
                if st.dead {
                    return;
                }
                if let Some(frame) = st.frames.pop_front() {
                    break frame;
                }
                if st.closing {
                    return;
                }
                st = conn
                    .writer
                    .cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        if (&conn.socket).write_all(&frame).is_err() {
            conn.condemn();
            return;
        }
    }
}

fn handle_connection(mut reader: TcpStream, conn: Arc<Conn>, shared: &Arc<ServerShared>) {
    // Idle readers must notice shutdown: poll with a short read timeout.
    let _ = reader.set_read_timeout(Some(Duration::from_millis(50)));

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

    loop {
        let payload = match read_frame_with_shutdown(&mut reader, &shared.shutdown) {
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
                conn.send(&Response::Stats {
                    id,
                    json: shared.stats_json(),
                });
            }
            Request::Cancel { id } => {
                shared.cancel_requests.fetch_add(1, Ordering::Relaxed);
                // Already finished (or never existed): nothing to do.
                if let Some(p) = conn.lock_pending().get_mut(&id) {
                    cancel(p);
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
                    Err(e) => {
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                        conn.send(&Response::Error {
                            id,
                            message: e.to_string(),
                        });
                    }
                }
            }
            Request::Query { id, src } => {
                if shared.draining.load(Ordering::SeqCst) {
                    conn.send(&Response::Error {
                        id,
                        message: "shutting-down: server is draining; no new queries".to_string(),
                    });
                    continue;
                }
                start_query(shared, &conn, &session, id, src);
            }
        }
    }

    // Reader gone (EOF, condemned, or shutdown): stop this tenant's
    // in-flight queries, wait out their tasks so every terminal frame
    // is enqueued, then let the writer drain and join it. After this no
    // thread of the connection survives and no task refers to it.
    conn.cancel_all_pending();
    conn.wait_quiet();
    conn.finish_writer();
    let _ = writer.join();
    // The registry ([`ServerShared::conns`]) still holds this
    // connection's socket clone until the accept loop reaps it, which
    // may be much later: actively shut the socket down so the peer sees
    // EOF now, not at the next accept.
    let _ = conn.socket.shutdown(Shutdown::Both);
}

/// Tell the client its result passed the configured frame bound — a
/// clean `Error` frame instead of a frame it would refuse to read (a
/// silently hung client).
fn send_too_large(shared: &ServerShared, conn: &Conn, id: u64) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    conn.send(&Response::Error {
        id,
        message: format!(
            "result too large: the frame exceeds the {}-byte limit",
            shared.result_limit()
        ),
    });
}

/// Admission-check a QUERY frame. An admitted query is an executor task
/// as soon as one of its connection's run slots is free — at once, or
/// when a finishing query hands its slot on ([`RunSlot`]); until then it
/// waits as data in the connection's FIFO.
fn start_query(
    shared: &Arc<ServerShared>,
    conn: &Arc<Conn>,
    session: &Arc<Session>,
    id: u64,
    src: String,
) {
    if conn.lock_pending().contains_key(&id) {
        conn.send(&Response::Error {
            id,
            message: format!("protocol error: query id {id} already in flight"),
        });
        return;
    }
    if try_fast_path(shared, conn, session, id, &src) {
        return;
    }
    let mut admission = conn.lock_admission();
    let run_now = admission.running < shared.config.max_queries_per_connection.max(1);
    if !run_now && admission.waiting.len() >= shared.config.queue_depth_per_connection {
        // Admission: reject instead of queueing without bound.
        drop(admission);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        conn.send(&Response::Error {
            id,
            message: format!(
                "busy: connection queue depth {} exceeded",
                shared.config.queue_depth_per_connection
            ),
        });
        return;
    }
    // Admitted: cancellable by id and counted for the drain *before* it
    // can start.
    conn.lock_pending().insert(id, Pending::Requested);
    shared.active_queries.fetch_add(1, Ordering::SeqCst);
    if run_now {
        admission.running += 1;
        drop(admission);
        RunSlot {
            shared: Arc::clone(shared),
            conn: Arc::clone(conn),
            session: Arc::clone(session),
        }
        .spawn(id, src);
    } else {
        admission.waiting.push_back((id, src));
    }
}

/// Possession of one of a connection's run slots, from the moment an
/// admitted query becomes an executor task until its terminal frame is
/// enqueued. Dropping it — on every path, unwinding included — hands the
/// slot to the connection's longest-waiting query, which becomes a task
/// in turn, or frees it.
struct RunSlot {
    shared: Arc<ServerShared>,
    conn: Arc<Conn>,
    session: Arc<Session>,
}

impl RunSlot {
    /// Make query `id` a task on the shared executor: it compiles,
    /// evaluates, serializes and enqueues its own terminal frame there,
    /// then releases the slot.
    fn spawn(self, id: u64, src: String) {
        let executor = Arc::clone(&self.shared.executor);
        executor.spawn(move || run_query(&self, id, &src));
    }
}

impl Drop for RunSlot {
    fn drop(&mut self) {
        let next = {
            let mut admission = self.conn.lock_admission();
            let next = admission.waiting.pop_front();
            if next.is_none() {
                admission.running -= 1;
                if admission.running == 0 {
                    self.conn.quiet.notify_all();
                }
            }
            next
        };
        if let Some((id, src)) = next {
            RunSlot {
                shared: Arc::clone(&self.shared),
                conn: Arc::clone(&self.conn),
                session: Arc::clone(&self.session),
            }
            .spawn(id, src);
        }
        self.shared.active_queries.fetch_sub(1, Ordering::SeqCst);
    }
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

/// The body of one admitted query's task: make it cancellable by id,
/// compile and evaluate through the shared-cache path right here, write
/// the reply once — straight into its frame — and enqueue it, and
/// maintain the counters.
fn run_query(slot: &RunSlot, id: u64, src: &str) {
    let RunSlot {
        shared,
        conn,
        session,
    } = slot;
    shared.queries.fetch_add(1, Ordering::Relaxed);
    // Requested -> Running, unless a CANCEL (or the connection's death)
    // landed while the query waited: don't evaluate a query nobody is
    // waiting for.
    let token = Arc::new(CancelToken::new());
    let started = {
        let mut pending = conn.lock_pending();
        let started = !matches!(pending.get(&id), Some(Pending::Cancelled));
        if started {
            pending.insert(id, Pending::Running(Arc::clone(&token)));
        }
        started
    };
    let outcome = if started {
        // A panic must still end in a terminal frame for this id. No
        // limit: the result is read to its end in value position, through
        // the shared result cache; the wait evaluates right here.
        catch_unwind(AssertUnwindSafe(|| {
            let how = How {
                cancel: Some(token),
                ..How::default()
            };
            let handle = session.start(&session.compile_shared(src)?, how);
            let cached = handle.from_cache();
            Ok((handle.wait()?, cached))
        }))
        .unwrap_or_else(|_| Err(KError::eval("query evaluation panicked")))
        .map_err(|e: KError| e.to_string())
    } else {
        Err("query cancelled before it started".to_string())
    };
    conn.lock_pending().remove(&id);
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
        Err(message) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            conn.send(&Response::Error { id, message });
        }
    }
}

/// [`crate::proto::read_frame`] for the server side: the stream has a
/// short read timeout so readers can observe `shutdown` — idle or
/// mid-frame alike (a peer trickling bytes must not pin the drain);
/// otherwise timeouts mid-frame keep waiting (the peer is mid-write,
/// not gone).
fn read_frame_with_shutdown(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_full(stream, &mut len, shutdown)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (limit {MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, shutdown)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF mid-frame",
        ));
    }
    Ok(Some(payload))
}

/// Fill `buf`, riding out read timeouts. `Ok(false)`: clean EOF (or
/// shutdown) before the first byte; EOF after the first byte is an
/// error. At shutdown a partially read frame is abandoned — the
/// connection is closing either way.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> io::Result<bool> {
    if buf.is_empty() {
        return Ok(true);
    }
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
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
        let (v, _) = client.query(r"{x + 1 | \x <- DB}").unwrap().into_value().unwrap();
        assert_eq!(v, Value::set((1..6).map(Value::Int).collect()));
        assert_eq!(executor.threads_spawned(), 1);
        assert_quiescent(&[&server]);
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
        // own terminal Error frame, the running one's first (its slot
        // is what the queued one is waiting for).
        client.cancel(queued).unwrap();
        client.cancel(running).unwrap();
        for expected in [running, queued] {
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
}
