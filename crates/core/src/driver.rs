//! Data-source drivers (Figure 2 of the paper) and the two-phase
//! request-submission machinery of Section 4 ("Laziness, Latency, and
//! Concurrency").
//!
//! A driver logs into a source, ships requests in the source's native
//! language (SQL for Sybase, index lookups + path expressions for Entrez,
//! class fetches for ACE), and streams results back as Kleisli values. The
//! original system ran drivers in separate processes over UNIX pipes; here
//! drivers are trait objects, but the boundary is preserved: everything
//! that crosses it is counted by [`DriverMetrics`] and delayed by the
//! driver's latency model, which is what the optimization experiments
//! measure.
//!
//! # The fetch/handle lifecycle
//!
//! Remote sources are latency-bound, so the executor must be able to keep
//! several requests in flight per server while it works on something else.
//! The driver boundary is therefore *two-phase*:
//!
//! 1. **Fetch.** [`Driver::fetch`] — the boundary's one submitting verb —
//!    accepts the [`DriverRequest`]s that start together and *how* they
//!    will be read ([`Fetch`]: a window ahead of a consumer that may stop,
//!    the whole reply for one that reads to the end, or many keys as one
//!    wire request), and returns a [`RequestHandle`] per request without
//!    waiting for the source to answer. Submission never blocks on the
//!    network: when the driver's admission budget is full, a request
//!    *queues as data* in the driver's worker-pool deque rather than in
//!    the caller. [`Driver::submit`] is its one-request `Window`
//!    shorthand.
//! 2. **Wait.** The caller holds the handle while it submits other
//!    requests or consumes other streams, then redeems it:
//!    [`RequestHandle::wait`] blocks until the source has answered and
//!    yields a [`BlockStream`] of row batches; [`RequestHandle::poll`] checks
//!    progress without blocking.
//!
//! In between, a pooled request is in one of three stages, one value
//! under one lock, and each move is one step:
//!
//! ```text
//! Queued(work) ──pickup──► Running(ticket) ──finish──► Over
//!      └──── drop / abandon / shutdown ──────────────────►┘   (abandon also takes a Running ticket)
//! ```
//!
//! A worker's pickup takes the admission ticket and the work in the same
//! step, and its finish hands the ticket back — or finds `Over`, which
//! means an abandoner took the ticket and the worker retires. A handle
//! lets go of its request in one of two ways. **Dropped** unredeemed, it
//! cancels a queued request — the work is dropped without ever
//! contacting the source (and without a thread ever having existed for
//! it) — and lets a running one finish, throwing its reply away.
//! **Abandoned** ([`RequestHandle::abandon`], the resilience layer's
//! deadline and cancellation), it resolves with the caller's error at
//! once, then cancels a queued request or takes the ticket back from the
//! worker on the wire, which is orphaned and replaced (`crate::pool`).
//! Either way the driver's admission ticket is released, never leaked.
//!
//! The blocking half lives in [`Driver::perform`], which executes one
//! request synchronously. Simple drivers — local, in-memory, or
//! test doubles — implement *only* `perform` and inherit the default
//! `fetch` adapter, which performs inline and returns already-completed
//! handles.
//!
//! # The worker pool
//!
//! Drivers that model real remote servers do not implement this trait by
//! hand: they implement [`crate::remote::Source`] — the blocking,
//! data-only half (`capabilities` + "answer this request") — and are
//! served through the one shell, [`crate::remote::Remote`], which owns
//! the registered name, latency model, traffic counters and the only
//! [`crate::pool::WorkerPool`] constructed in the workspace. **A new
//! source is one file: implement `Source`.** The shell's pool runs at
//! most [`Capabilities::concurrency_limit`] worker threads per driver
//! (the paper's "say five" tolerated requests), spawned lazily and
//! reused across requests, so queued submissions cost a deque slot, not
//! an OS thread.
//!
//! # Admission control
//!
//! The source's budget **is the pool's width**: a request runs only on a
//! pool worker, there are at most `concurrency_limit()` of them, and each
//! runs one round-trip at a time — which makes the limit *enforced
//! admission*, not advisory metadata, with no second mechanism to keep
//! in step. [`RequestGate`] is that budget's observable count: a worker
//! takes a [`GateTicket`] at pickup (never waiting for one), holds it on
//! the request — where an abandoning waiter can take it back — and
//! releases it when the round-trip ends, so `in_flight()` reads the requests at the source
//! right now and `in_flight() == 0` is the quiescence check. When the
//! source also advertises
//! [`Capabilities::prefetch_rows`], the worker that performed a request
//! keeps pulling up to that many rows into a bounded buffer ahead of the
//! consumer, pipelining per-row transfer latency as well (see
//! `crate::pool` for the full story).
//!
//! All handle blocking is built on the shared one-shot promise in
//! [`crate::oneshot`] — the same primitive the session-level
//! `QueryHandle` uses.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use crate::batch::BatchPolicy;
use crate::block::{lazy_blocks, BlockStream};
use crate::error::{KError, KResult};
use crate::executor::Executor;
use crate::oneshot::{OneShot, PromiseState, Pulsable, WaitFor};
use crate::resilience::{DriverResilience, ResiliencePolicy};
use crate::value::Value;

/// A request shipped to a driver, in a form the optimizer can construct and
/// inspect. `Hash` feeds the structural plan hash in `nrc::hash` (and
/// through it the deterministic `Cached` ids), so the derive must keep
/// covering every field.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum DriverRequest {
    /// Ship a complete SQL query (Sybase driver).
    Sql {
        /// The SQL text, in the source's dialect.
        query: String,
    },
    /// Scan a whole table, optionally projecting columns (Sybase driver,
    /// pre-pushdown form generated by `GDB-Tab`-style templates).
    TableScan {
        /// The table to scan.
        table: String,
        /// Columns to project, or `None` for all of them.
        columns: Option<Vec<String>>,
    },
    /// Rows `from..to` (storage order; `to = None` is "to the end") of a
    /// [`DriverRequest::TableScan`]: one part of a split full fetch.
    /// Only [`Driver::parts`] makes these — no plan ever holds one.
    TableRows {
        /// The table to scan.
        table: String,
        /// Columns to project, or `None` for all of them.
        columns: Option<Vec<String>>,
        /// The first row of the range.
        from: u64,
        /// One past its last row, or `None` for every row from `from` on.
        to: Option<u64>,
    },
    /// Entrez index retrieval: boolean query over precomputed indexes with
    /// an optional path expression applied *during the parse* of each hit.
    EntrezFetch {
        /// Which Entrez database (`"na"`, `"aa"`, ...).
        db: String,
        /// The boolean index query.
        query: String,
        /// Optional path expression extracted server-side per hit.
        path: Option<String>,
    },
    /// Entrez precomputed neighbor links for one sequence id.
    EntrezLinks {
        /// Which Entrez database the uid lives in.
        db: String,
        /// The sequence id whose neighbors to fetch.
        uid: i64,
    },
    /// Fetch ACE objects of a class, optionally a single named object.
    AceFetch {
        /// The ACE class to fetch from.
        class: String,
        /// A single named object, or `None` for the whole class.
        name: Option<String>,
    },
    /// Generic driver-defined call (escape hatch; e.g. BLAST-style analysis
    /// packages).
    Call {
        /// The driver-defined function name.
        function: String,
        /// Its argument, as a CPL value.
        arg: Value,
    },
}

impl DriverRequest {
    /// Whether this request may be answered by a shared flight in the
    /// driver's [`crate::batch::BatchWindow`] (a key of a batched wire
    /// request, or a plain submission attaching to one). Key-addressed reads — SQL text,
    /// Entrez fetches/links, ACE fetches — are; [`DriverRequest::Call`]
    /// is not (an opaque escape hatch may have effects per invocation),
    /// and [`DriverRequest::TableScan`] and its
    /// [`DriverRequest::TableRows`] parts are not (bulk transfers gain
    /// nothing from sharing and would skew scan-count baselines).
    pub fn coalescable(&self) -> bool {
        matches!(
            self,
            DriverRequest::Sql { .. }
                | DriverRequest::EntrezFetch { .. }
                | DriverRequest::EntrezLinks { .. }
                | DriverRequest::AceFetch { .. }
        )
    }

    /// Short description used by `explain` output and traces.
    pub fn describe(&self) -> String {
        match self {
            DriverRequest::Sql { query } => format!("sql: {}", compact_ws(query)),
            DriverRequest::TableScan { table, columns } => describe_scan(table, columns),
            DriverRequest::TableRows {
                table,
                columns,
                from,
                to,
            } => {
                let to = to.map_or(String::new(), |to| to.to_string());
                format!("{} rows {from}..{to}", describe_scan(table, columns))
            }
            DriverRequest::EntrezFetch { db, query, path } => match path {
                Some(p) => format!("entrez {db} select=\"{query}\" path={p}"),
                None => format!("entrez {db} select=\"{query}\""),
            },
            DriverRequest::EntrezLinks { db, uid } => format!("entrez-links {db} uid={uid}"),
            DriverRequest::AceFetch { class, name } => match name {
                Some(n) => format!("ace {class} \"{n}\""),
                None => format!("ace {class}"),
            },
            DriverRequest::Call { function, .. } => format!("call {function}"),
        }
    }
}

fn describe_scan(table: &str, columns: &Option<Vec<String>>) -> String {
    match columns {
        Some(cs) => format!("scan {table} [{}]", cs.join(", ")),
        None => format!("scan {table}"),
    }
}

fn compact_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// What a driver can do for the optimizer; mirrors the paper's discussion of
/// "exploiting additional access paths or query languages when these exist".
#[derive(Debug, Clone)]
pub struct Capabilities {
    /// Understands full conjunctive SQL (selections, projections, joins).
    pub sql: bool,
    /// Supports server-side path extraction (the ASN.1 driver).
    pub path_extraction: bool,
    /// How many in-flight requests the server tolerates (the paper's
    /// example: "say five"). This is an **enforced admission limit**, not
    /// advisory metadata: it is the width of the driver's worker pool —
    /// submissions beyond it queue as data — its [`RequestGate`] counts
    /// the requests in flight against it, and the optimizer's parallel
    /// rule sizes parallel loops by it. A value of `0` is meaningless for
    /// an admission limit and is normalized to `1` (strictly serial) by
    /// [`Capabilities::concurrency_limit`]; `Default` is `1`.
    pub max_concurrent_requests: usize,
    /// The window of rows a pool worker pulls *ahead* of the consumer
    /// into the request's bounded prefetch buffer after a request
    /// completes. `0` (the default) keeps row transfer fully lazy —
    /// every row is pulled on the consumer's clock, byte-identical to
    /// the pre-prefetch behavior. A positive value trades bounded
    /// laziness for pipelining: up to this many rows may cross the
    /// driver boundary even if the consumer stops early (Section 4's
    /// laziness/cost trade, now at row rather than request
    /// granularity). The window is fixed: the buffer keeps it full
    /// whatever the consumer's pace (`crate::pool`, "A fixed window").
    /// Only meaningful for drivers that submit through a worker pool;
    /// the default inline adapter ignores it.
    pub prefetch_rows: usize,
    /// The driver's failure handling: bounded retry and circuit
    /// breaking (see [`crate::resilience`]). The default policy disables
    /// both — behavior is then
    /// byte-identical to the pre-resilience request path. The
    /// advertisement is the policy: nothing overrides it.
    pub resilience: ResiliencePolicy,
    /// The driver's set-at-a-time advertisement (see
    /// [`crate::batch`]): present when the source can answer many keys
    /// in one round-trip (multi-uid Entrez fetches, SQL `IN`-lists) and
    /// its coalescable requests may be folded into batched wire requests.
    /// `None` (the default) keeps every request on its own round-trip —
    /// byte-identical to the pre-batching behavior.
    pub batching: Option<BatchPolicy>,
}

impl Default for Capabilities {
    fn default() -> Capabilities {
        Capabilities {
            sql: false,
            path_extraction: false,
            // serial by default: one request at a time is the safe floor
            // for an *enforced* limit (0 would mean "admit nothing")
            max_concurrent_requests: 1,
            // fully lazy by default: rows ship only on consumer demand
            prefetch_rows: 0,
            // no deadlines, retries, or breaking by default
            resilience: ResiliencePolicy::default(),
            // every request on its own round-trip by default
            batching: None,
        }
    }
}

impl Capabilities {
    /// The enforced admission limit, normalized: a declared `0` (admit
    /// nothing — meaningless) is treated as `1` (strictly serial). Both
    /// the optimizer's parallel rule and the shell sizing its pool
    /// ([`crate::remote::Remote::serve`]) read this, never the raw field.
    pub fn concurrency_limit(&self) -> usize {
        self.max_concurrent_requests.max(1)
    }
}

/// Per-table statistics a driver may expose. Several join rules "require
/// statistics about the size of files" and are gated on availability; the
/// paper notes remote statistics are hard to get on the fly, so drivers may
/// return `None` and the optimizer must cope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total rows in the table.
    pub rows: u64,
    /// Column names of the table (its schema), in declaration order.
    pub columns: Vec<String>,
    /// Columns with precomputed indexes on the server.
    pub indexed_columns: Vec<String>,
    /// Approximate distinct-value counts per column, when known.
    pub distinct: BTreeMap<String, u64>,
}

/// Declares the driver's counters once, each as its doc and its name: the
/// atomic field of [`DriverMetrics`], the plain field of
/// [`MetricsSnapshot`] and the two whole-set operations (`snapshot`,
/// `since`) all come from the one list below. The `record_*` methods are
/// written out, since some count into several.
macro_rules! driver_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters for traffic crossing a driver boundary and for what
        /// its resilience state did about it — one set per driver, shared
        /// by every session that registers it. All counters are atomics:
        /// with the two-phase API several worker threads record into the
        /// same metrics concurrently. They only grow: a reader that wants
        /// one phase's counts takes a snapshot before it and
        /// [`MetricsSnapshot::since`] after.
        #[derive(Debug, Default)]
        pub struct DriverMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`DriverMetrics`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl DriverMetrics {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl MetricsSnapshot {
            /// Difference since an earlier snapshot. Saturating: handed a
            /// later snapshot instead, the delta clamps to zero rather
            /// than underflowing.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
}

driver_counters! {
    /// Requests shipped across the driver boundary.
    requests,
    /// Result rows shipped back by the source.
    rows_shipped,
    /// Approximate bytes shipped back by the source.
    bytes_shipped,
    /// Rows pulled *ahead* of the consumer by a pool prefetch worker.
    rows_prefetched,
    /// Rows handed to a consumer through a prefetching stream (whether
    /// served from the buffer or pulled inline on demand). Comparing
    /// this with `rows_prefetched` shows how far ahead the pipeline ran
    /// — prefetched minus pulled is the bounded laziness given up.
    rows_pulled,
    /// Row *blocks* handed to a consumer through a prefetching stream —
    /// one buffer handoff (lock + wake) each. `rows_pulled /
    /// blocks_shipped` is the observed amortization factor of the block
    /// pull protocol: 1 for fully-lazy single-row pulls, up to the block
    /// capacity for a draining consumer.
    blocks_shipped,
    /// Always 0: the prefetch window is fixed (`crate::pool`, "A fixed
    /// window"), so nothing counts here. Kept, with `prefetch_shrinks`,
    /// because the benchmark builds a `MetricsSnapshot` by literal; both
    /// go when it retires its `core.pool.prefetch_shrinks` metric.
    prefetch_grows,
    /// Always 0, like `prefetch_grows`.
    prefetch_shrinks,
    /// Requests that missed their deadline and resolved
    /// [`KError::Timeout`] (their worker abandoned, ticket released).
    timeouts,
    /// Retries issued for retryable ([`KError::is_retryable`]) failures
    /// — the *extra* submissions, not the original attempts.
    retries,
    /// Always 0, like `prefetch_grows`: nothing hedges. Kept, with
    /// `hedge_wins`, because the benchmark builds a `MetricsSnapshot` by
    /// literal.
    hedges_fired,
    /// Always 0, like `prefetch_grows`.
    hedge_wins,
    /// Circuit-breaker transitions into the open state (from closed on
    /// the consecutive-failure threshold, or from half-open on a failed
    /// probe).
    breaker_opens,
    /// Plain submissions answered by attaching to a pending flight in
    /// the driver's [`crate::batch::BatchWindow`] — wire round-trips
    /// *saved* by coalescing.
    coalesced,
    /// Batched wire requests shipped by the multi-key submit path (each
    /// covers up to [`crate::batch::BatchPolicy::max_keys`] logical
    /// keys on one admission ticket).
    batch_requests,
    /// Logical keys answered through batched wire requests.
    /// `batched_keys - batch_requests` is the round-trips *removed* by
    /// batching (vs merely overlapped).
    batched_keys,
}

impl DriverMetrics {
    /// One request shipped to the source.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One result row of approximately `bytes` shipped back.
    pub fn record_row(&self, bytes: u64) {
        self.rows_shipped.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
    }

    /// `rows` rows pulled ahead of the consumer by a prefetch worker.
    pub fn record_prefetched_rows(&self, rows: u64) {
        self.rows_prefetched.fetch_add(rows, Ordering::Relaxed);
    }

    /// One block of `rows` rows handed to a consumer through a
    /// prefetching stream (one buffer handoff).
    pub fn record_block(&self, rows: u64) {
        self.blocks_shipped.fetch_add(1, Ordering::Relaxed);
        self.rows_pulled.fetch_add(rows, Ordering::Relaxed);
    }

    /// One request that missed its deadline.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One extra submission issued by the retry loop.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// One circuit-breaker transition into the open state.
    pub fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// One submission answered by an existing flight instead of a wire
    /// round-trip of its own.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// One batched wire request covering `keys` logical keys.
    pub fn record_batch_request(&self, keys: u64) {
        self.batch_requests.fetch_add(1, Ordering::Relaxed);
        self.batched_keys.fetch_add(keys, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------------
// Admission control
// ------------------------------------------------------------------------

/// The observable count of a driver's
/// [`Capabilities::max_concurrent_requests`] budget (module docs,
/// "Admission control"). The budget itself is the *width* of the driver's
/// worker pool — `limit` workers, each holding at most one [`GateTicket`]
/// for the round-trip it is running — so a ticket is counted in, never
/// waited for, and nothing here can block: a wait would be unreachable
/// (ROADMAP item 5 records the probe that showed it).
pub struct RequestGate {
    limit: usize,
    in_flight: AtomicUsize,
}

impl RequestGate {
    /// A gate counting at most `limit` concurrent requests (`0` is
    /// normalized to `1`).
    pub fn new(limit: usize) -> Arc<RequestGate> {
        Arc::new(RequestGate {
            limit: limit.max(1),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// The admission limit — the width of the pool this gate counts for.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// How many tickets are currently held.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Count one request into flight. Never blocks: the caller is a pool
    /// worker, and the pool's width is what keeps `in_flight` within
    /// `limit` — asserted here, on every pickup, in debug builds.
    pub(crate) fn admit(self: &Arc<Self>) -> GateTicket {
        let before = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let ticket = GateTicket {
            gate: Arc::clone(self),
        };
        debug_assert!(
            before < self.limit,
            "admission exceeded the pool width: {before} in flight at a limit of {}",
            self.limit
        );
        ticket
    }
}

/// Possession of one admission slot in a [`RequestGate`]; released on drop
/// (on every path — completion, error, panic — so a slot can never leak).
pub struct GateTicket {
    gate: Arc<RequestGate>,
}

impl Drop for GateTicket {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

// ------------------------------------------------------------------------
// Request handles
// ------------------------------------------------------------------------

/// Non-blocking view of a submitted request's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Queued behind the driver's admission budget, or running.
    Pending,
    /// Resolved: the source's answer, or the error that ended the
    /// request, is waiting in the handle.
    Ready,
}

/// One request's blocking round-trip, as queued in a pool.
pub(crate) type Work = Box<dyn FnOnce() -> KResult<BlockStream> + Send>;

/// What takes a request's outcome in place of a waiter
/// ([`RequestHandle::then`]).
type Then = Box<dyn FnOnce(KResult<BlockStream>) + Send>;

/// Where a request is (module docs, "The fetch/handle lifecycle"). Each
/// move is one step under the stage's lock, and the party that makes it
/// owns what the stage held: the worker that picks a request up runs its
/// work, a canceller that finds it queued drops the work unrun, and an
/// abandoner that finds it running takes its ticket back.
enum Stage {
    /// In the pool's deque; nobody has started the work.
    Queued(Work),
    /// A worker is on the wire, holding the request's admission ticket.
    Running(GateTicket),
    /// Done with the source: finished, let go, or never pooled.
    Over,
}

/// The handle-side state of one submitted request, shared between the
/// caller and the pool task that runs it: its [`Stage`] and its outcome,
/// a [`OneShot`] promise — the same primitive the session's `QueryHandle`
/// uses.
pub(crate) struct ReqShared {
    /// The driver/pool name, labelling errors the request raises itself.
    pub(crate) driver: String,
    promise: OneShot<KResult<BlockStream>>,
    stage: Mutex<Stage>,
    /// The caller's handle was dropped: a reply resolved from now on has
    /// no reader.
    dropped: AtomicBool,
    /// The outcome's reader when the handle handed it on
    /// ([`RequestHandle::then`]); run once, by whoever finds the request
    /// resolved and this slot full.
    then: Mutex<Option<Then>>,
    /// The handle handed its outcome to `then`: dropping it neither
    /// cancels the request nor discards its reply.
    continued: AtomicBool,
}

impl ReqShared {
    /// A request queued with its `work`, or — with none — one a caller
    /// resolves itself (the keys of a batched wire request).
    pub(crate) fn pending(driver: impl Into<String>, work: Option<Work>) -> ReqShared {
        ReqShared {
            driver: driver.into(),
            promise: OneShot::new(),
            stage: Mutex::new(work.map_or(Stage::Over, Stage::Queued)),
            dropped: AtomicBool::new(false),
            then: Mutex::new(None),
            continued: AtomicBool::new(false),
        }
    }

    fn stage(&self) -> std::sync::MutexGuard<'_, Stage> {
        self.stage.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queued → running, in one step: the ticket `admit` hands out goes
    /// on the request as its work comes off it, so whoever lets go of
    /// the request finds one or the other. `None` is the husk of a
    /// request let go while queued (and resolved by whoever let go).
    pub(crate) fn pick_up(&self, admit: impl FnOnce() -> GateTicket) -> Option<Work> {
        let mut stage = self.stage();
        // A task runs once, so the stage here is never `Running`.
        let Stage::Queued(work) = std::mem::replace(&mut *stage, Stage::Over) else {
            return None;
        };
        *stage = Stage::Running(admit());
        Some(work)
    }

    /// Running → over, as the round-trip ends: the ticket back. `None`
    /// means an abandoner took it (and released it) — the worker is an
    /// orphan and retires instead of resolving.
    pub(crate) fn finish(&self) -> Option<GateTicket> {
        match std::mem::replace(&mut *self.stage(), Stage::Over) {
            Stage::Running(ticket) => Some(ticket),
            _ => None,
        }
    }

    /// Queued → over: drop the work unrun. Running → over only through
    /// `workers`, when they disown the worker on the wire: its ticket is
    /// released inside [`Executor::disown`], before the replacement it
    /// spawns can reach admission. Lock order: the stage, then the
    /// executor's state; no path takes them the other way. Whether the
    /// request was still queued.
    fn let_go(&self, workers: Option<&Executor>) -> bool {
        let mut stage = self.stage();
        match *stage {
            Stage::Queued(_) => {
                let work = std::mem::replace(&mut *stage, Stage::Over);
                // Dropping the work may resolve other requests (a batch's
                // keys): not under this one's lock.
                drop(stage);
                drop(work);
                true
            }
            Stage::Running(_) => {
                if let Some(workers) = workers {
                    workers.disown(|| *stage = Stage::Over);
                }
                false
            }
            Stage::Over => false,
        }
    }

    /// Queued → over, resolved `Cancelled`: a request nobody picked up
    /// is dropped at once, with no thread ever involved.
    pub(crate) fn cancel_queued(&self) {
        if self.let_go(None) {
            self.resolve_err(KError::cancelled("driver request cancelled before it ran"));
        }
    }

    /// Whether the caller's handle was dropped.
    pub(crate) fn is_dropped(&self) -> bool {
        self.dropped.load(Ordering::Acquire)
    }

    /// Park the request's outcome; returns whether this resolution won
    /// the set-once race (false: another outcome was already parked).
    pub(crate) fn resolve_stream(&self, result: KResult<BlockStream>) -> bool {
        let won = self.promise.set(result);
        self.run_then();
        won
    }

    /// Park an error outcome ([`ReqShared::resolve_stream`]).
    pub(crate) fn resolve_err(&self, err: KError) -> bool {
        self.resolve_stream(Err(err))
    }

    /// Hand a resolved outcome to the reader `then` left, if there is
    /// one. Both the resolver and [`RequestHandle::then`] call this,
    /// after their own step: whichever comes second finds both halves.
    fn run_then(&self) {
        if self.promise.poll() == PromiseState::Pending {
            return;
        }
        let Some(then) = self.then.lock().unwrap_or_else(|e| e.into_inner()).take() else {
            return;
        };
        if let Some(outcome) = self.promise.try_wait() {
            then(outcome);
        }
    }

    /// Once the caller's handle is gone, drop a reply it never redeemed.
    /// Over a prefetching driver this closes the row buffer, so the
    /// worker filling it stops at the next block boundary instead of
    /// shipping a window — for a full fetch, the whole reply — to
    /// nobody. Called by the dropping handle and, after it parks a
    /// prefetching reply, by the worker: whichever comes second finds the
    /// other's mark (the flag is written before, and read after, a
    /// critical section of the promise's lock). A no-op while the handle
    /// lives, while the request is pending, and after the reply was taken.
    pub(crate) fn discard_if_unredeemed(&self) {
        if self.is_dropped() {
            if let Some(Ok(stream)) = self.promise.try_wait() {
                crate::pool::guarded_drop(stream);
            }
        }
    }
}

impl Pulsable for ReqShared {
    fn pulse_now(&self) {
        self.promise.pulse();
    }
}

/// The caller's half of one submitted request: poll, wait, or let go.
///
/// Obtained from [`Driver::fetch`]. A handle lets go of its request in
/// one of two ways. Dropped unredeemed, it cancels a request still
/// queued in the driver's worker pool — the work is dropped without
/// contacting the source, and no thread ever existed for it — lets a
/// running one finish on its worker and throws the reply away, and drops
/// an unread reply (which stops a row prefetch in progress).
/// [Abandoned](RequestHandle::abandon), it resolves at once and takes the
/// admission ticket back from a worker still on the wire. Either way the
/// ticket is released, never leaked.
pub struct RequestHandle {
    shared: Arc<ReqShared>,
    /// The pool's workers, one of which may be running the request, so
    /// `abandon` can disown it and have it replaced.
    workers: Option<Weak<Executor>>,
}

impl RequestHandle {
    /// An already-completed handle wrapping `stream` — the default
    /// blocking adapter for drivers that only implement
    /// [`Driver::perform`].
    pub fn ready(stream: BlockStream) -> RequestHandle {
        RequestHandle {
            shared: Arc::new(ReqShared {
                promise: OneShot::ready(Ok(stream)),
                ..ReqShared::pending("inline", None)
            }),
            workers: None,
        }
    }

    /// Assemble a handle over request state: pool-managed
    /// (`crate::pool::WorkerPool::submit`), or, with no pool, resolved by
    /// whoever holds the state (the keys of a batched wire request).
    pub(crate) fn from_parts(
        shared: Arc<ReqShared>,
        workers: Option<Weak<Executor>>,
    ) -> RequestHandle {
        RequestHandle { shared, workers }
    }

    /// Hand the outcome to `then` on whichever thread resolves the
    /// request — at once, if it has — instead of waiting for it. The
    /// request is not cancelled when the handle goes: `then` is its
    /// reader.
    pub(crate) fn then(self, then: impl FnOnce(KResult<BlockStream>) + Send + 'static) {
        *self.shared.then.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(then));
        self.shared.continued.store(true, Ordering::Release);
        self.shared.run_then();
    }

    /// The request's progress, without blocking.
    pub fn poll(&self) -> RequestStatus {
        match self.shared.promise.poll() {
            PromiseState::Pending => RequestStatus::Pending,
            PromiseState::Ready | PromiseState::Taken => RequestStatus::Ready,
        }
    }

    /// Block until the source answers and yield its block stream. A
    /// request cancelled before it ran (its pool shut down) yields
    /// [`KError::Cancelled`].
    pub fn wait(self) -> KResult<BlockStream> {
        self.shared
            .promise
            .wait()
            .unwrap_or_else(|| Err(KError::eval("request result already taken")))
    }

    /// Resolve this request *now* with `err` and let go of it without
    /// blocking: still-queued work is dropped unrun, and a running
    /// request has its admission ticket taken back and released (the
    /// wedged worker is orphaned and replaced — see `crate::pool`).
    /// Returns whether `err` won the set-once promise (`false`: the
    /// request had already resolved, and the caller should use that
    /// result instead). Idempotent; the deadline and cancellation paths
    /// of [`crate::resilience`] give up on a request this way.
    pub fn abandon(&self, err: KError) -> bool {
        // Resolve first: a reply that comes later loses the race.
        let won = self.shared.resolve_err(err);
        let workers = self.workers.as_ref().and_then(Weak::upgrade);
        self.shared.let_go(workers.as_deref());
        won
    }

    /// Like [`OneShot::wait_for`] on the request's promise: block until
    /// resolved, `deadline`, or `interrupt` — without consuming the
    /// handle or taking the result.
    pub(crate) fn wait_for_ref<F: FnMut() -> bool>(
        &self,
        deadline: Option<Instant>,
        interrupt: F,
    ) -> WaitFor {
        self.shared.promise.wait_for(deadline, interrupt)
    }

    /// A weak pulse target for this request's promise, for registration
    /// with a `CancelToken`.
    pub(crate) fn watcher(&self) -> Weak<dyn Pulsable> {
        let arc: Arc<dyn Pulsable> = Arc::clone(&self.shared) as Arc<dyn Pulsable>;
        Arc::downgrade(&arc)
    }
}

impl Drop for RequestHandle {
    fn drop(&mut self) {
        if self.shared.continued.load(Ordering::Acquire) {
            return;
        }
        self.shared.cancel_queued();
        self.shared.dropped.store(true, Ordering::Release);
        self.shared.discard_if_unredeemed();
    }
}

// ------------------------------------------------------------------------
// The driver trait
// ------------------------------------------------------------------------

/// How the requests handed to one fetch — requests that start together —
/// will be read: the one thing the request path's submitting verbs
/// ([`Driver::fetch`], [`crate::DriverResilience::fetch`] and the
/// executor's `Context::fetch`) take besides the requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// For a consumer that may stop early or never hold the rows:
    /// [`Capabilities::prefetch_rows`] stays the ceiling on rows shipped
    /// ahead of it, and a request is never split.
    Window,
    /// Each request read to its end by a consumer that keeps every row:
    /// buffering the reply ahead costs no memory the consumer would not
    /// spend anyway, so a driver that prefetches at all ships the whole
    /// reply without waiting for it — the consumer may be away draining
    /// a sibling. Above the driver, a request its source answers
    /// piecewise is fetched as the parts [`Driver::parts`] names.
    Full,
    /// The requests — coalescable keys of a driver that advertises
    /// [`Capabilities::batching`] — as **one wire round-trip** on one
    /// admission ticket. Each key's handle holds that key's rows, ending
    /// in its own error if the source could not answer it; the handles
    /// resolve together, in order, and resolve `Err` only when the wire
    /// request itself failed — every one of them, with its error.
    Batch,
}

/// A registered data-source driver, exposing the two-phase fetch/handle
/// API (see the module docs for the lifecycle).
pub trait Driver: Send + Sync {
    /// The name queries refer to this source by (e.g. `"GDB"`).
    fn name(&self) -> &str;

    /// What the optimizer may push to this source, and the enforced
    /// admission budget ([`Capabilities::max_concurrent_requests`]).
    fn capabilities(&self) -> Capabilities;

    /// Execute one request synchronously, streaming results back as row
    /// blocks — the blocking half of the boundary. Latency-model charges
    /// for the request round-trip belong here (they then land on whatever
    /// thread runs the request: the caller's under the default adapter, a
    /// worker under a pooled `fetch`); per-row transfer charges belong
    /// inside the returned [`BlockStream`], firing as rows are packed on
    /// the puller's clock. Drivers whose rows are naturally a single-row
    /// iterator wrap it with [`crate::block::blocks_of_rows`]; consumers
    /// choose the batch size per pull, so `next_block(1)` preserves exact
    /// single-row laziness.
    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream>;

    /// Put `reqs` in flight, `how` they will be read, without waiting for
    /// the source: one [`RequestHandle`] per request, in order — or that
    /// request's submission error. The boundary's one submitting verb.
    ///
    /// The default adapter runs [`Driver::perform`] inline and returns
    /// already-completed handles, so simple (local / test) drivers stay
    /// one method; under it a batch costs one round-trip per key.
    /// Remote sources get the pooled override from
    /// [`crate::remote::Remote`], which performs through its
    /// [`crate::pool::WorkerPool`], making submission genuinely
    /// non-blocking, the concurrency budget enforced (the pool's
    /// width), row transfer pipelined ahead of the consumer when
    /// [`Capabilities::prefetch_rows`] is advertised, and a
    /// [`Fetch::Batch`] one wire request.
    fn fetch(&self, reqs: &[DriverRequest], how: Fetch) -> Vec<KResult<RequestHandle>> {
        let fetch_one = |req| match self.perform(req) {
            Ok(stream) => Ok(RequestHandle::ready(stream)),
            // A key the source could not answer: a reply that is its failure.
            Err(e) if how == Fetch::Batch => Ok(RequestHandle::ready(lazy_blocks(|| Err(e)))),
            Err(e) => Err(e),
        };
        reqs.iter().map(fetch_one).collect()
    }

    /// One request, [`Fetch::Window`]: [`Driver::fetch`] of the slice of
    /// one, the shorthand of callers outside the request path (the
    /// benchmark, tests). Provided, and never overridden.
    fn submit(&self, req: &DriverRequest) -> KResult<RequestHandle> {
        let mut handles = self.fetch(std::slice::from_ref(req), Fetch::Window);
        handles.pop().expect("a fetch answers every request")
    }

    /// The parts a [`Fetch::Full`] of `reqs` — requests **starting
    /// together**, in source order; one request is the slice of one —
    /// is cut into, so one large reply crosses on several of the
    /// source's connections at once, and siblings share that width
    /// between them rather than each sizing itself as if alone
    /// (`kleisli_exec::eval`, "a full fetch is as wide as its reply, and
    /// siblings share the width"). One answer per request: requests the
    /// source admits side by side whose replies, concatenated in order,
    /// are that request's reply — or, empty (the default, for every
    /// request), not at all. Not a submission: the resilience layer asks
    /// this while the source's breaker is closed and fetches each part
    /// on its own. The answer must depend only on the requests, the
    /// source's data and its advertisement — never on load — so the
    /// same scans cost the same requests every time.
    fn parts(&self, reqs: &[&DriverRequest]) -> Vec<Vec<DriverRequest>> {
        vec![Vec::new(); reqs.len()]
    }

    /// Does [`Driver::fetch`] return *without* running the requests
    /// inline? `false` for the default adapter (fetching performs on the
    /// caller's thread); drivers that submit through a worker pool
    /// return `true`. The executor consults this before prefetching
    /// requests whose rows it may never pull (e.g. union arms):
    /// prefetching through a blocking adapter would execute work eagerly
    /// instead of merely putting it in flight.
    fn nonblocking_submit(&self) -> bool {
        false
    }

    /// Statistics for a named table, when available.
    fn table_stats(&self, _table: &str) -> Option<TableStats> {
        None
    }

    /// Traffic counters for this driver, and the resilience counters its
    /// [`Driver::resilience`] state records into them.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// The driver's one resilience state — breaker, batch flight table,
    /// counters — built on first use from what the driver advertises then
    /// ([`crate::DriverResilience::of`]) and shared by every session that
    /// registers the driver. Every fetch above the boundary goes through it.
    fn resilience(&self) -> &Arc<DriverResilience>;
}

/// A shared, thread-safe driver handle.
pub type DriverRef = Arc<dyn Driver>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn metrics_accumulate_and_diff() {
        let m = DriverMetrics::default();
        m.record_request();
        m.record_row(100);
        m.record_row(50);
        let s1 = m.snapshot();
        assert_eq!(s1.requests, 1);
        assert_eq!(s1.rows_shipped, 2);
        assert_eq!(s1.bytes_shipped, 150);
        m.record_request();
        let s2 = m.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.requests, 1);
        assert_eq!(d.rows_shipped, 0);
    }

    #[test]
    fn since_saturates_across_a_reset() {
        let m = DriverMetrics::default();
        m.record_request();
        let earlier = m.snapshot();
        m.record_request();
        m.record_row(10);
        let later = m.snapshot();
        // `earlier` is behind `later`; the diff must clamp, not underflow.
        let d = earlier.since(&later);
        assert_eq!(d, MetricsSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let m = Arc::new(DriverMetrics::default());
        let threads = 8;
        let per_thread = 5_000u64;
        thread::scope(|s| {
            for _ in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        m.record_request();
                        m.record_row(3);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.requests, threads * per_thread);
        assert_eq!(snap.rows_shipped, threads * per_thread);
        assert_eq!(snap.bytes_shipped, threads * per_thread * 3);
    }

    #[test]
    fn default_capabilities_are_serial_and_normalized() {
        let caps = Capabilities::default();
        assert_eq!(caps.max_concurrent_requests, 1);
        assert_eq!(caps.concurrency_limit(), 1);
        let zero = Capabilities {
            max_concurrent_requests: 0,
            ..Capabilities::default()
        };
        assert_eq!(zero.concurrency_limit(), 1, "0 normalizes to serial");
    }

    #[test]
    fn request_description_is_compact() {
        let r = DriverRequest::Sql {
            query: "select a\n  from t\n  where x = 1".into(),
        };
        assert_eq!(r.describe(), "sql: select a from t where x = 1");
        let part = |to| DriverRequest::TableRows {
            table: "locus".into(),
            columns: Some(vec!["a".into(), "b".into()]),
            from: 25,
            to,
        };
        assert_eq!(part(Some(50)).describe(), "scan locus [a, b] rows 25..50");
        assert_eq!(part(None).describe(), "scan locus [a, b] rows 25..");
        assert!(!part(None).coalescable());
    }

    fn rows_stream(n: i64) -> BlockStream {
        crate::block::blocks_of_rows(Box::new((0..n).map(|i| Ok(Value::Int(i)))))
    }

    /// A latch each round's requests wedge on until it is released
    /// (sticky).
    type Latch = Arc<(Mutex<bool>, std::sync::Condvar)>;

    fn wedge(latch: &Latch) {
        let (lock, cv) = &**latch;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = cv.wait(released).unwrap();
        }
    }

    fn release(latch: &Latch) {
        *latch.0.lock().unwrap() = true;
        latch.1.notify_all();
    }

    /// Poll `done` until it holds (bounded: a stuck pool fails, not hangs).
    fn await_that(what: &str, done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(5), "never: {what}");
            thread::yield_now();
        }
    }

    /// Drop `h`, keeping what its request resolves with: a reader in
    /// its `then` slot takes the outcome the dropping handle would have
    /// discarded.
    fn drop_recording(h: RequestHandle) -> Arc<Mutex<Option<KResult<Vec<Value>>>>> {
        let seen: Arc<Mutex<Option<_>>> = Arc::default();
        let out = Arc::clone(&seen);
        let read = move |reply: KResult<BlockStream>| {
            *out.lock().unwrap() = Some(reply.and_then(|rows| rows.collect()));
        };
        *h.shared.then.lock().unwrap() = Some(Box::new(read));
        h.shared.run_then();
        drop(h);
        seen
    }

    #[test]
    fn the_stage_machine_holds_whatever_order_handles_let_go() {
        // A width-1 pool, 200 rounds. Each round submits three requests
        // that record that they ran and wedge until the round's latch is
        // released: the first runs, two queue behind it. Each handle is
        // then dropped, abandoned or waited — a wait releases the latch
        // first — in a seed-chosen order.
        let pool = crate::pool::WorkerPool::new("t", 1, None);
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let rows = |h: RequestHandle| h.wait()?.collect::<KResult<Vec<Value>>>();
        for round in 0..200i64 {
            let latch: Latch = Arc::default();
            let ran: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::default()).collect();
            let id = |i: usize| Value::Int(round * 3 + i as i64);
            let mut handles: Vec<Option<RequestHandle>> = (0..3)
                .map(|i| {
                    let (latch, ran, id) = (Arc::clone(&latch), Arc::clone(&ran[i]), id(i));
                    Some(pool.submit(0, move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        wedge(&latch);
                        let reply = std::iter::once(Ok(id));
                        Ok(crate::block::blocks_of_rows(Box::new(reply)))
                    }))
                })
                .collect();
            let cells: Vec<_> = handles
                .iter()
                .flatten()
                .map(|h| Arc::clone(&h.shared))
                .collect();
            await_that("the first request runs", || pool.gate().in_flight() == 1);
            let mut order = vec![0, 1, 2];
            for i in (1..3).rev() {
                order.swap(i, next(i as u64 + 1) as usize);
            }
            let abandon_err = |i: usize| KError::timeout("t", format!("round {round}: {i}"));
            let (mut dropped, mut abandoned, mut waited) = (Vec::new(), Vec::new(), Vec::new());
            for &i in &order {
                let h = handles[i].take().expect("one way to let go each");
                match next(3) {
                    0 => dropped.push((i, drop_recording(h))),
                    1 => abandoned.push((i, h.abandon(abandon_err(i)), h)),
                    _ => {
                        release(&latch);
                        waited.push((i, rows(h)));
                    }
                }
                assert!(pool.orphans() <= pool.orphan_budget());
            }
            release(&latch);
            await_that("the round settles", || {
                let pending = |c: &Arc<ReqShared>| c.promise.poll() == PromiseState::Pending;
                let resolved = !cells.iter().any(pending);
                let read = !dropped.iter().any(|(_, seen)| seen.lock().unwrap().is_none());
                resolved && read && pool.gate().in_flight() == 0 && pool.orphans() == 0
            });
            let ran = |i: usize| ran[i].load(Ordering::SeqCst);
            assert!((0..3).all(|i| ran(i) <= 1), "round {round}: ran twice");
            for (i, out) in waited {
                assert_eq!(out.unwrap(), [id(i)], "round {round}: waited {i}");
                assert_eq!(ran(i), 1);
            }
            for (i, won, h) in abandoned {
                match rows(h) {
                    Err(e) => {
                        assert!(won, "round {round}: {i} lost the race yet ended in {e}");
                        assert_eq!(e.to_string(), abandon_err(i).to_string());
                    }
                    Ok(got) => {
                        assert!(!won && ran(i) == 1, "round {round}: {i} won, yet answered");
                        assert_eq!(got, [id(i)]);
                    }
                }
            }
            for (i, seen) in dropped {
                match seen.lock().unwrap().take() {
                    Some(Err(KError::Cancelled(_))) => {
                        assert_eq!(ran(i), 0, "round {round}: {i} cancelled, yet ran")
                    }
                    Some(Ok(got)) => {
                        assert_eq!(got, [id(i)], "round {round}: dropped {i}");
                        assert_eq!(ran(i), 1);
                    }
                    other => panic!("round {round}: dropped {i} ended in {other:?}"),
                }
            }
        }
        assert_eq!(pool.gate().in_flight(), 0);
        assert_eq!(pool.orphans(), 0);
    }

    #[test]
    fn ready_handle_is_immediately_redeemable() {
        let h = RequestHandle::ready(rows_stream(3));
        assert_eq!(h.poll(), RequestStatus::Ready);
        let rows: Vec<_> = h.wait().unwrap().collect::<KResult<_>>().unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn pool_bounds_in_flight_work() {
        let pool = crate::pool::WorkerPool::new("t", 2, None);
        let current = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let current = Arc::clone(&current);
                let max_seen = Arc::clone(&max_seen);
                pool.submit(0, move || {
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(5));
                    current.fetch_sub(1, Ordering::SeqCst);
                    Ok(rows_stream(1))
                })
            })
            .collect();
        for h in handles {
            let rows: Vec<_> = h.wait().unwrap().collect();
            assert_eq!(rows.len(), 1);
        }
        assert!(
            max_seen.load(Ordering::SeqCst) <= 2,
            "in-flight exceeded the pool limit: {}",
            max_seen.load(Ordering::SeqCst)
        );
        assert_eq!(pool.gate().in_flight(), 0, "all tickets released");
        assert!(pool.threads_spawned() <= 2);
    }

    #[test]
    fn dropped_handle_releases_the_budget() {
        let pool = crate::pool::WorkerPool::new("t", 1, None);
        {
            let h = pool.submit(0, move || {
                thread::sleep(Duration::from_millis(20));
                Ok(rows_stream(1))
            });
            let _ = h.poll(); // Pending or Ready depending on scheduling
            // dropped here without wait(): cancel + eventual ticket release
        }
        // A subsequent submit on the full budget must still proceed.
        let h = pool.submit(0, move || Ok(rows_stream(3)));
        let rows: Vec<_> = h.wait().unwrap().collect();
        assert_eq!(rows.len(), 3);
        // The dropped request's worker has finished by now or will; the
        // gate converges to empty (bounded: a leak must fail, not hang).
        let t0 = std::time::Instant::now();
        while pool.gate().in_flight() != 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "ticket leaked");
            thread::sleep(Duration::from_millis(1));
        }
    }
}
