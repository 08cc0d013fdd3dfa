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
//! # The submit/handle lifecycle
//!
//! Remote sources are latency-bound, so the executor must be able to keep
//! several requests in flight per server while it works on something else.
//! The driver boundary is therefore *two-phase*:
//!
//! 1. **Submit.** [`Driver::submit`] accepts a [`DriverRequest`] and
//!    returns a [`RequestHandle`] without waiting for the source to
//!    answer. Submission never blocks on the network: when the driver's
//!    admission budget is full, the request *queues as data* in the
//!    driver's worker-pool deque rather than in the caller.
//! 2. **Wait.** The caller holds the handle while it submits other
//!    requests or consumes other streams, then redeems it:
//!    [`RequestHandle::wait`] blocks until the source has answered and
//!    yields a [`BlockStream`] of row batches; [`RequestHandle::poll`] checks
//!    progress without blocking; [`RequestHandle::cancel`] (or dropping
//!    the handle) abandons the request — a request still queued is
//!    removed from the pool's deque without ever contacting the source
//!    (and without a thread ever having existed for it), and in every
//!    case the driver's admission ticket is released, never leaked.
//!
//! The blocking half lives in [`Driver::perform`], which executes one
//! request synchronously. Simple drivers — local, in-memory, or
//! test doubles — implement *only* `perform` and inherit the default
//! `submit` adapter, which performs inline and returns an
//! already-completed handle.
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
//! an OS thread. Workers consume [`RequestGate`] admission tickets at
//! pickup time, making the limit *enforced admission*, not advisory
//! metadata. When the source also advertises
//! [`Capabilities::prefetch_rows`], the worker that performed a request
//! keeps pulling up to that many rows into a bounded buffer ahead of the
//! consumer, pipelining per-row transfer latency as well (see
//! `crate::pool` for the full story).
//!
//! All handle blocking is built on the shared one-shot promise in
//! [`crate::oneshot`] — the same primitive the session-level
//! `QueryHandle` uses.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Instant;

use crate::batch::{BatchPolicy, SharedReply};
use crate::block::BlockStream;
use crate::error::{KError, KResult};
use crate::oneshot::{OneShot, PromiseState, Pulsable, WaitFor};
use crate::pool::PoolCore;
use crate::resilience::ResiliencePolicy;
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
    /// and [`DriverRequest::TableScan`] is not (bulk transfers gain
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
            DriverRequest::TableScan { table, columns } => match columns {
                Some(cs) => format!("scan {table} [{}]", cs.join(", ")),
                None => format!("scan {table}"),
            },
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
    /// Supports precomputed link lookups.
    pub links: bool,
    /// How many in-flight requests the server tolerates (the paper's
    /// example: "say five"). This is an **enforced admission limit**, not
    /// advisory metadata: the driver's [`RequestGate`] queues submissions
    /// beyond it, the driver's worker pool spawns at most this many
    /// threads, and the optimizer's parallel rule sizes `ParExt` loops
    /// by it. A value of `0` is meaningless for an admission limit and is
    /// normalized to `1` (strictly serial) by
    /// [`Capabilities::concurrency_limit`]; `Default` is `1`.
    pub max_concurrent_requests: usize,
    /// The *ceiling* on rows a pool worker may pull *ahead* of the
    /// consumer into the bounded prefetch buffer after a request
    /// completes. `0` (the default) keeps row transfer fully lazy —
    /// every row is pulled on the consumer's clock, byte-identical to
    /// the pre-prefetch behavior. A positive value trades bounded
    /// laziness for pipelining: up to this many rows may cross the
    /// driver boundary even if the consumer stops early (Section 4's
    /// laziness/cost trade, now at row rather than request
    /// granularity). The *effective* depth of each request's buffer
    /// adapts between `0` and this ceiling to the consumer's observed
    /// drain rate — see `crate::pool` ("Adaptive depth") — so a slow
    /// consumer stops paying for pipelining it cannot use. Only
    /// meaningful for drivers that submit through a worker pool; the
    /// default inline adapter ignores it.
    pub prefetch_rows: usize,
    /// The driver's *advertised* failure-handling defaults: per-request
    /// deadline, bounded retry, hedged requests, and circuit breaking
    /// (see [`crate::resilience`]). The default policy disables all four
    /// — behavior is then byte-identical to the pre-resilience request
    /// path. Sessions may override the advertisement per driver.
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
            links: false,
            // serial by default: one request at a time is the safe floor
            // for an *enforced* limit (0 would mean "admit nothing")
            max_concurrent_requests: 1,
            // fully lazy by default: rows ship only on consumer demand
            prefetch_rows: 0,
            // no deadlines, retries, hedging, or breaking by default
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

/// Counters for traffic crossing a driver boundary. All counters are
/// atomics: with the two-phase API several worker threads record into the
/// same metrics concurrently.
#[derive(Debug, Default)]
pub struct DriverMetrics {
    /// Requests shipped across the driver boundary.
    pub requests: AtomicU64,
    /// Result rows shipped back by the source.
    pub rows_shipped: AtomicU64,
    /// Approximate bytes shipped back by the source.
    pub bytes_shipped: AtomicU64,
    /// Rows pulled *ahead* of the consumer by a pool prefetch worker.
    pub rows_prefetched: AtomicU64,
    /// Rows handed to a consumer through a prefetching stream (whether
    /// served from the buffer or pulled inline on demand). Comparing
    /// this with `rows_prefetched` shows how far ahead the pipeline ran
    /// — prefetched minus pulled is the bounded laziness given up.
    pub rows_pulled: AtomicU64,
    /// Row *blocks* handed to a consumer through a prefetching stream —
    /// one buffer handoff (lock + wake) each. `rows_pulled /
    /// blocks_shipped` is the observed amortization factor of the block
    /// pull protocol: 1 for fully-lazy single-row pulls, up to the block
    /// capacity for a draining consumer.
    pub blocks_shipped: AtomicU64,
    /// Times an adaptive prefetch buffer *grew* its effective depth
    /// because the consumer drained faster than rows arrived (see
    /// `crate::pool`: the depth doubles toward
    /// [`Capabilities::prefetch_rows`]).
    pub prefetch_grows: AtomicU64,
    /// Times an adaptive prefetch buffer *shrank* its effective depth
    /// because rows sat in the buffer longer than they cost to fetch
    /// (the depth halves, down to `0` — fully lazy demand pulls).
    pub prefetch_shrinks: AtomicU64,
    /// Requests that missed their deadline and resolved
    /// [`KError::Timeout`] (their worker abandoned, ticket released).
    pub timeouts: AtomicU64,
    /// Retries issued for retryable ([`KError::is_retryable`]) failures
    /// — the *extra* submissions, not the original attempts.
    pub retries: AtomicU64,
    /// Hedge submissions fired after the EWMA-p99-derived delay.
    pub hedges_fired: AtomicU64,
    /// Hedged requests where the *hedge* answered first (the primary was
    /// abandoned and its ticket released).
    pub hedge_wins: AtomicU64,
    /// Circuit-breaker transitions into the open state (from closed on
    /// the consecutive-failure threshold, or from half-open on a failed
    /// probe).
    pub breaker_opens: AtomicU64,
    /// Plain submissions answered by attaching to a pending flight in
    /// the driver's [`crate::batch::BatchWindow`] — wire round-trips
    /// *saved* by coalescing.
    pub coalesced: AtomicU64,
    /// Batched wire requests shipped by the multi-key submit path (each
    /// covers up to [`crate::batch::BatchPolicy::max_keys`] logical
    /// keys on one admission ticket).
    pub batch_requests: AtomicU64,
    /// Logical keys answered through batched wire requests.
    /// `batched_keys - batch_requests` is the round-trips *removed* by
    /// batching (vs merely overlapped).
    pub batched_keys: AtomicU64,
}

/// A point-in-time copy of [`DriverMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Requests shipped across the driver boundary.
    pub requests: u64,
    /// Result rows shipped back by the source.
    pub rows_shipped: u64,
    /// Approximate bytes shipped back by the source.
    pub bytes_shipped: u64,
    /// Rows pulled ahead of the consumer by prefetch workers.
    pub rows_prefetched: u64,
    /// Rows delivered to consumers through prefetching streams.
    pub rows_pulled: u64,
    /// Row blocks delivered to consumers (see [`DriverMetrics`]).
    pub blocks_shipped: u64,
    /// Adaptive prefetch depth increases (see [`DriverMetrics`]).
    pub prefetch_grows: u64,
    /// Adaptive prefetch depth decreases (see [`DriverMetrics`]).
    pub prefetch_shrinks: u64,
    /// Requests that missed their deadline (see [`DriverMetrics`]).
    pub timeouts: u64,
    /// Extra submissions issued by the retry loop (see [`DriverMetrics`]).
    pub retries: u64,
    /// Hedge submissions fired (see [`DriverMetrics`]).
    pub hedges_fired: u64,
    /// Hedges that answered before their primary (see [`DriverMetrics`]).
    pub hedge_wins: u64,
    /// Circuit-breaker open transitions (see [`DriverMetrics`]).
    pub breaker_opens: u64,
    /// Submissions coalesced onto an existing flight (see
    /// [`DriverMetrics`]).
    pub coalesced: u64,
    /// Batched multi-key wire requests shipped (see [`DriverMetrics`]).
    pub batch_requests: u64,
    /// Logical keys answered through batched wire requests (see
    /// [`DriverMetrics`]).
    pub batched_keys: u64,
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

    /// One adaptive-depth increase in a prefetch buffer.
    pub fn record_prefetch_grow(&self) {
        self.prefetch_grows.fetch_add(1, Ordering::Relaxed);
    }

    /// One adaptive-depth decrease in a prefetch buffer.
    pub fn record_prefetch_shrink(&self) {
        self.prefetch_shrinks.fetch_add(1, Ordering::Relaxed);
    }

    /// One request that missed its deadline.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One extra submission issued by the retry loop.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// One hedge submission fired.
    pub fn record_hedge_fired(&self) {
        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// One hedge that answered before its primary.
    pub fn record_hedge_win(&self) {
        self.hedge_wins.fetch_add(1, Ordering::Relaxed);
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

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows_shipped: self.rows_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            rows_prefetched: self.rows_prefetched.load(Ordering::Relaxed),
            rows_pulled: self.rows_pulled.load(Ordering::Relaxed),
            blocks_shipped: self.blocks_shipped.load(Ordering::Relaxed),
            prefetch_grows: self.prefetch_grows.load(Ordering::Relaxed),
            prefetch_shrinks: self.prefetch_shrinks.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            batched_keys: self.batched_keys.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (used between benchmark phases).
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.rows_shipped.store(0, Ordering::Relaxed);
        self.bytes_shipped.store(0, Ordering::Relaxed);
        self.rows_prefetched.store(0, Ordering::Relaxed);
        self.rows_pulled.store(0, Ordering::Relaxed);
        self.blocks_shipped.store(0, Ordering::Relaxed);
        self.prefetch_grows.store(0, Ordering::Relaxed);
        self.prefetch_shrinks.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.hedges_fired.store(0, Ordering::Relaxed);
        self.hedge_wins.store(0, Ordering::Relaxed);
        self.breaker_opens.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
        self.batch_requests.store(0, Ordering::Relaxed);
        self.batched_keys.store(0, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Difference since an earlier snapshot. Saturating: if the counters
    /// were reset between the two snapshots the "earlier" one can be
    /// larger, and the delta clamps to zero instead of underflowing.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            rows_shipped: self.rows_shipped.saturating_sub(earlier.rows_shipped),
            bytes_shipped: self.bytes_shipped.saturating_sub(earlier.bytes_shipped),
            rows_prefetched: self.rows_prefetched.saturating_sub(earlier.rows_prefetched),
            rows_pulled: self.rows_pulled.saturating_sub(earlier.rows_pulled),
            blocks_shipped: self.blocks_shipped.saturating_sub(earlier.blocks_shipped),
            prefetch_grows: self.prefetch_grows.saturating_sub(earlier.prefetch_grows),
            prefetch_shrinks: self.prefetch_shrinks.saturating_sub(earlier.prefetch_shrinks),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retries: self.retries.saturating_sub(earlier.retries),
            hedges_fired: self.hedges_fired.saturating_sub(earlier.hedges_fired),
            hedge_wins: self.hedge_wins.saturating_sub(earlier.hedge_wins),
            breaker_opens: self.breaker_opens.saturating_sub(earlier.breaker_opens),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            batch_requests: self.batch_requests.saturating_sub(earlier.batch_requests),
            batched_keys: self.batched_keys.saturating_sub(earlier.batched_keys),
        }
    }

    /// Sum two snapshots counter-by-counter (saturating). The session
    /// layer uses this to merge a driver's own traffic counters with the
    /// resilience-layer counters kept outside the driver.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.saturating_add(other.requests),
            rows_shipped: self.rows_shipped.saturating_add(other.rows_shipped),
            bytes_shipped: self.bytes_shipped.saturating_add(other.bytes_shipped),
            rows_prefetched: self.rows_prefetched.saturating_add(other.rows_prefetched),
            rows_pulled: self.rows_pulled.saturating_add(other.rows_pulled),
            blocks_shipped: self.blocks_shipped.saturating_add(other.blocks_shipped),
            prefetch_grows: self.prefetch_grows.saturating_add(other.prefetch_grows),
            prefetch_shrinks: self.prefetch_shrinks.saturating_add(other.prefetch_shrinks),
            timeouts: self.timeouts.saturating_add(other.timeouts),
            retries: self.retries.saturating_add(other.retries),
            hedges_fired: self.hedges_fired.saturating_add(other.hedges_fired),
            hedge_wins: self.hedge_wins.saturating_add(other.hedge_wins),
            breaker_opens: self.breaker_opens.saturating_add(other.breaker_opens),
            coalesced: self.coalesced.saturating_add(other.coalesced),
            batch_requests: self.batch_requests.saturating_add(other.batch_requests),
            batched_keys: self.batched_keys.saturating_add(other.batched_keys),
        }
    }
}

// ------------------------------------------------------------------------
// Admission control
// ------------------------------------------------------------------------

/// A counting semaphore enforcing a driver's
/// [`Capabilities::max_concurrent_requests`]: at most `limit` requests run
/// at once; further submissions queue inside their worker threads until a
/// [`GateTicket`] is released. One gate is shared by every request path of
/// one driver, which is what turns the capability from advisory metadata
/// into an enforced budget.
pub struct RequestGate {
    limit: usize,
    in_flight: Mutex<usize>,
    cv: Condvar,
}

impl RequestGate {
    /// A gate admitting at most `limit` concurrent requests (`0` is
    /// normalized to `1`).
    pub fn new(limit: usize) -> Arc<RequestGate> {
        Arc::new(RequestGate {
            limit: limit.max(1),
            in_flight: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    /// The admission limit this gate enforces.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// How many tickets are currently held.
    pub fn in_flight(&self) -> usize {
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until a ticket is available and take it.
    pub fn acquire(self: &Arc<Self>) -> GateTicket {
        self.acquire_unless(&AtomicBool::new(false))
            .expect("acquire with a never-set flag cannot be cancelled")
    }

    /// Take a ticket if one is free right now.
    pub fn try_acquire(self: &Arc<Self>) -> Option<GateTicket> {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        if *n < self.limit {
            *n += 1;
            Some(GateTicket {
                gate: Arc::clone(self),
            })
        } else {
            None
        }
    }

    /// Block until a ticket is available, giving up (returning `None`)
    /// once `cancelled` is observed set. [`RequestHandle::cancel`] nudges
    /// the gate so a queued worker re-checks its flag promptly.
    pub fn acquire_unless(self: &Arc<Self>, cancelled: &AtomicBool) -> Option<GateTicket> {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if cancelled.load(Ordering::Acquire) {
                return None;
            }
            if *n < self.limit {
                *n += 1;
                return Some(GateTicket {
                    gate: Arc::clone(self),
                });
            }
            n = self.cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wake every queued worker so it re-checks its cancellation flag.
    /// Takes the gate lock first: a worker that has checked its flag and
    /// is about to wait would otherwise miss a notification fired in the
    /// gap (lost-wakeup), leaving a cancelled request parked until some
    /// unrelated ticket release.
    fn nudge(&self) {
        let _guard = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }
}

/// Possession of one admission slot in a [`RequestGate`]; released on drop
/// (on every path — completion, error, panic — so a slot can never leak).
pub struct GateTicket {
    gate: Arc<RequestGate>,
}

impl Drop for GateTicket {
    fn drop(&mut self) {
        let mut n = self
            .gate
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        drop(n);
        self.gate.cv.notify_all();
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
    /// The source has answered; the result is waiting in the handle.
    Ready,
    /// Cancelled before the source was contacted.
    Cancelled,
}

/// The handle-side state of one submitted request, shared between the
/// caller, the pool worker that runs it, and the pool queue. Built on
/// the shared [`OneShot`] promise — the same primitive the session's
/// `QueryHandle` uses — instead of a private mutex+condvar machine.
pub(crate) struct ReqShared {
    /// The driver/pool name, labelling `Timeout` resolutions.
    driver: String,
    promise: OneShot<KResult<BlockStream>>,
    cancelled: AtomicBool,
    /// The caller's handle is gone: a reply resolved from now on has no
    /// reader (unlike `cancelled`, which an abandoning waiter sets while
    /// it may still take a reply that beat it to the promise).
    handle_dropped: AtomicBool,
    /// Set (before the promise) when the request resolved *as
    /// cancelled*, so `poll` can report `Cancelled` rather than `Ready`.
    resolved_cancelled: AtomicBool,
    /// The gate a worker may be waiting at for this request, so `cancel`
    /// can wake it promptly.
    gate: Option<Arc<RequestGate>>,
    /// The admission ticket, *parked here by the worker* for the
    /// duration of the request round-trip. Parking makes the ticket
    /// stealable: a waiter whose deadline passed takes it out from under
    /// the (possibly wedged) worker and releases it, restoring the gate
    /// width without blocking on the worker. The worker detects the
    /// theft — an empty slot at completion time — and retires itself
    /// (see `PoolCore::abandon_running`).
    ticket: Mutex<Option<GateTicket>>,
}

impl ReqShared {
    pub(crate) fn pending(
        driver: impl Into<String>,
        gate: Option<Arc<RequestGate>>,
    ) -> ReqShared {
        ReqShared {
            driver: driver.into(),
            promise: OneShot::new(),
            cancelled: AtomicBool::new(false),
            handle_dropped: AtomicBool::new(false),
            resolved_cancelled: AtomicBool::new(false),
            gate,
            ticket: Mutex::new(None),
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    pub(crate) fn cancelled_flag(&self) -> &AtomicBool {
        &self.cancelled
    }

    /// Park the request's outcome (first resolution wins).
    pub(crate) fn resolve_stream(&self, result: KResult<BlockStream>) {
        self.promise.set(result);
    }

    /// Park an error outcome; returns whether this resolution won the
    /// set-once race (false: the worker's result was already parked).
    pub(crate) fn resolve_err(&self, err: KError) -> bool {
        self.promise.set(Err(err))
    }

    /// Resolve as cancelled-before-running (first resolution wins).
    pub(crate) fn resolve_cancelled(&self) {
        // Flag first: a `poll` that observes the promise set must also
        // observe the cancellation marker.
        self.resolved_cancelled.store(true, Ordering::Release);
        self.promise
            .set(Err(KError::cancelled("driver request cancelled before it ran")));
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
        if self.handle_dropped.load(Ordering::Acquire) {
            if let Some(Ok(stream)) = self.promise.try_wait() {
                crate::pool::guarded_drop(stream);
            }
        }
    }

    pub(crate) fn lock_ticket_slot(&self) -> std::sync::MutexGuard<'_, Option<GateTicket>> {
        self.ticket.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker side: park the admission ticket for the round-trip.
    pub(crate) fn park_ticket(&self, ticket: GateTicket) {
        *self.lock_ticket_slot() = Some(ticket);
    }

    /// Worker side: reclaim the parked ticket at completion. `None`
    /// means an abandoning waiter stole (and released) it — the worker
    /// is an orphan and must retire instead of resolving.
    pub(crate) fn steal_ticket(&self) -> Option<GateTicket> {
        self.lock_ticket_slot().take()
    }
}

impl Pulsable for ReqShared {
    fn pulse_now(&self) {
        self.promise.pulse();
    }
}

/// The caller's half of one submitted request: poll / wait / cancel.
///
/// Obtained from [`Driver::submit`]. Dropping the handle without waiting
/// cancels the request: if it is still queued in the driver's worker
/// pool it is removed without contacting the source (no thread ever
/// existed for it); if it is already running, the work completes on its
/// pool worker and is thrown away; if it has completed, the unread reply
/// is dropped (which stops a row prefetch in progress). Either way the
/// admission ticket is released.
pub struct RequestHandle {
    shared: Arc<ReqShared>,
    /// The pool queue the request may still be sitting in, so `cancel`
    /// can remove it, plus its queue id.
    pool_slot: Option<(Weak<PoolCore>, u64)>,
}

impl RequestHandle {
    /// An already-completed handle wrapping `stream` — the default
    /// blocking adapter for drivers that only implement
    /// [`Driver::perform`].
    pub fn ready(stream: BlockStream) -> RequestHandle {
        RequestHandle {
            shared: Arc::new(ReqShared {
                driver: "inline".into(),
                promise: OneShot::ready(Ok(stream)),
                cancelled: AtomicBool::new(false),
                handle_dropped: AtomicBool::new(false),
                resolved_cancelled: AtomicBool::new(false),
                gate: None,
                ticket: Mutex::new(None),
            }),
            pool_slot: None,
        }
    }

    /// Assemble a handle over pool-managed request state
    /// (`crate::pool::WorkerPool::submit` calls this).
    pub(crate) fn from_parts(
        shared: Arc<ReqShared>,
        pool_slot: Option<(Weak<PoolCore>, u64)>,
    ) -> RequestHandle {
        RequestHandle { shared, pool_slot }
    }

    /// The request's progress, without blocking.
    pub fn poll(&self) -> RequestStatus {
        match self.shared.promise.poll() {
            PromiseState::Pending => RequestStatus::Pending,
            PromiseState::Ready | PromiseState::Taken => {
                if self.shared.resolved_cancelled.load(Ordering::Acquire) {
                    RequestStatus::Cancelled
                } else {
                    RequestStatus::Ready
                }
            }
        }
    }

    /// Block until the source answers and yield its block stream. A
    /// handle cancelled before the work started yields
    /// [`KError::Cancelled`].
    pub fn wait(self) -> KResult<BlockStream> {
        self.shared
            .promise
            .wait()
            .unwrap_or_else(|| Err(KError::eval("request result already taken")))
    }

    /// Block until the source answers **or** `deadline` passes. On the
    /// deadline the request is [abandoned](RequestHandle::abandon) with
    /// [`KError::Timeout`]: the admission ticket is released (stolen from
    /// the worker if the request is mid-flight, so a wedged worker never
    /// holds gate width hostage), still-queued work is removed, and the
    /// call returns promptly — within scheduler noise of the deadline,
    /// never blocking on the wedged worker. If the worker's answer races
    /// the deadline and wins the set-once promise, that answer is
    /// returned instead of the timeout.
    pub fn wait_deadline(self, deadline: Instant) -> KResult<BlockStream> {
        match self.shared.promise.wait_for(Some(deadline), || false) {
            WaitFor::Ready | WaitFor::Interrupted => self.wait(),
            WaitFor::TimedOut => {
                let driver = self.shared.driver.clone();
                self.abandon(KError::timeout(driver, "request deadline exceeded"));
                // Resolved now — by our timeout, or by a worker that won
                // the race to the promise.
                self.wait()
            }
        }
    }

    /// Resolve this request *now* with `err` and reclaim its resources
    /// without blocking: still-queued work is removed from the pool
    /// deque, a mid-flight request has its parked admission ticket
    /// stolen and released (the wedged worker is orphaned and replaced —
    /// see `crate::pool`), and any worker parked at the gate is woken.
    /// Returns whether `err` won the set-once promise (`false`: the
    /// request had already resolved, and the caller should use that
    /// result instead). Idempotent; used by the deadline and
    /// cancellation paths of [`crate::resilience`].
    pub fn abandon(&self, err: KError) -> bool {
        let won = self.shared.resolve_err(err);
        self.shared.cancelled.store(true, Ordering::Release);
        if let Some((pool, id)) = &self.pool_slot {
            if let Some(core) = pool.upgrade() {
                // Still queued: remove (its resolve-as-cancelled is a
                // set-once no-op after ours). Mid-flight: steal the
                // parked ticket and orphan the worker.
                core.remove_job(*id);
                core.abandon_running(&self.shared);
            }
        }
        if let Some(gate) = &self.shared.gate {
            gate.nudge();
        }
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

    /// When this request resolves, pulse `target`'s promise so a waiter
    /// blocked on `target` re-checks its interrupt predicate (the
    /// hedge-to-primary wiring in [`crate::resilience`]).
    pub(crate) fn mirror_into(&self, target: &RequestHandle) {
        let arc: Arc<dyn Pulsable> = Arc::clone(&target.shared) as Arc<dyn Pulsable>;
        self.shared.promise.add_mirror(Arc::downgrade(&arc));
    }

    /// A weak pulse target for this request's promise, for registration
    /// with a `CancelToken`.
    pub(crate) fn watcher(&self) -> Weak<dyn Pulsable> {
        let arc: Arc<dyn Pulsable> = Arc::clone(&self.shared) as Arc<dyn Pulsable>;
        Arc::downgrade(&arc)
    }

    /// Abandon the request. Still-queued work is removed from the pool
    /// deque before it contacts the source; running work finishes on its
    /// worker and is dropped. The admission ticket is released in both
    /// cases. Idempotent.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Release);
        // Remove the request from the pool queue if a worker has not
        // picked it up yet (resolves the handle as cancelled).
        if let Some((pool, id)) = &self.pool_slot {
            if let Some(core) = pool.upgrade() {
                core.remove_job(*id);
            }
        }
        // Wake a worker that may be parked at the gate for this request.
        if let Some(gate) = &self.shared.gate {
            gate.nudge();
        }
    }
}

impl Drop for RequestHandle {
    fn drop(&mut self) {
        self.cancel();
        self.shared.handle_dropped.store(true, Ordering::Release);
        self.shared.discard_if_unredeemed();
    }
}

// ------------------------------------------------------------------------
// The driver trait
// ------------------------------------------------------------------------

/// The per-key results of one batched wire request: one entry per
/// submitted request, in submission order. A per-key `Err` means *that
/// key* failed (e.g. an unknown uid) while the batch itself succeeded;
/// a batch-level `Err` (the outer `KResult` of [`Driver::batch`]) means
/// the whole wire request failed and is what the retry loop acts on.
pub type BatchReply = Vec<KResult<SharedReply>>;

/// Completion callback of [`Driver::submit_batch`], invoked exactly once
/// with the batch outcome (on the pool worker that ran the wire request,
/// or inline under the default adapter).
pub type BatchCompletion = Box<dyn FnOnce(KResult<BatchReply>) + Send>;

/// A registered data-source driver, exposing the two-phase submit/handle
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
    /// worker under a spawning `submit`); per-row transfer charges belong
    /// inside the returned [`BlockStream`], firing as rows are packed on
    /// the puller's clock. Drivers whose rows are naturally a single-row
    /// iterator wrap it with [`crate::block::blocks_of_rows`]; consumers
    /// choose the batch size per pull, so `next_block(1)` preserves exact
    /// single-row laziness.
    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream>;

    /// Submit one request without waiting for the source to answer; the
    /// returned [`RequestHandle`] yields the [`BlockStream`] on
    /// [`RequestHandle::wait`].
    ///
    /// The default adapter runs [`Driver::perform`] inline and returns an
    /// already-completed handle, so simple (local / test) drivers stay
    /// one method. Remote sources get the pooled override from
    /// [`crate::remote::Remote`], which submits `perform` through its
    /// [`crate::pool::WorkerPool`], making submission genuinely
    /// non-blocking, the concurrency budget enforced (pool threads +
    /// admission gate), and — when [`Capabilities::prefetch_rows`] is
    /// advertised — row transfer pipelined ahead of the consumer.
    fn submit(&self, req: &DriverRequest) -> KResult<RequestHandle> {
        Ok(RequestHandle::ready(self.perform(req)?))
    }

    /// [`Driver::submit`] for a caller that will read the reply **to its
    /// end** and keeps every row (the executor collecting a scan into
    /// the collection it denotes). Buffering such a reply ahead costs no
    /// memory the caller would not spend anyway, so a driver that
    /// advertises [`Capabilities::prefetch_rows`] `> 0` lifts the
    /// prefetch window for it: its pool worker ships the whole reply
    /// without waiting for the consumer — who may be away draining a
    /// sibling scan. Said at submission because that is the only moment
    /// the consumer touches this request before it drains it. The
    /// default is plain `submit`: lazy drivers stay lazy.
    fn submit_full(&self, req: &DriverRequest) -> KResult<RequestHandle> {
        self.submit(req)
    }

    /// Does [`Driver::submit`] return *without* running the request
    /// inline? `false` for the default adapter (submission performs on
    /// the caller's thread); drivers that submit through a worker pool
    /// return `true`. The executor consults this
    /// before prefetching requests whose rows it may never pull (e.g.
    /// union arms): prefetching through a blocking adapter would execute
    /// work eagerly instead of merely putting it in flight.
    fn nonblocking_submit(&self) -> bool {
        false
    }

    /// Execute many per-key requests as **one wire round-trip**,
    /// synchronously, returning each key's materialized rows in
    /// submission order — the blocking half of the batched boundary
    /// (multi-uid Entrez fetch, SQL `IN`-list). Only called with
    /// requests for which [`DriverRequest::coalescable`] holds and only
    /// when [`Capabilities::batching`] is advertised.
    ///
    /// The default adapter performs each request in turn — correct, but
    /// it charges one round-trip per key; drivers that advertise
    /// batching override this to charge the request latency **once**
    /// for the whole set.
    fn batch(&self, reqs: &[DriverRequest]) -> KResult<BatchReply> {
        Ok(reqs
            .iter()
            .map(|r| self.perform(r).map(SharedReply::materialize))
            .collect())
    }

    /// Submit one batched wire request without waiting, delivering the
    /// outcome through `complete` (called exactly once). Returns the
    /// pool handle keeping the wire request alive, or `None` when the
    /// work ran inline (the default adapter). [`crate::remote::Remote`]
    /// routes [`Driver::batch`] through its worker pool so the
    /// whole batch consumes **one admission ticket** — the
    /// ticket-per-wire-request invariant of [`crate::batch`].
    fn submit_batch(
        &self,
        reqs: Vec<DriverRequest>,
        complete: BatchCompletion,
    ) -> Option<RequestHandle> {
        complete(self.batch(&reqs));
        None
    }

    /// Statistics for a named table, when available.
    fn table_stats(&self, _table: &str) -> Option<TableStats> {
        None
    }

    /// Traffic counters for this driver.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Reset traffic counters (used between benchmark phases).
    fn reset_metrics(&self) {}
}

/// A shared, thread-safe driver handle.
pub type DriverRef = Arc<dyn Driver>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
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
        m.record_row(10);
        let before = m.snapshot();
        m.reset();
        let after = m.snapshot();
        // `after` is behind `before`; the diff must clamp, not underflow.
        let d = after.since(&before);
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
    }

    fn rows_stream(n: i64) -> BlockStream {
        crate::block::blocks_of_rows(Box::new((0..n).map(|i| Ok(Value::Int(i)))))
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

    #[test]
    fn try_acquire_respects_the_limit() {
        let gate = RequestGate::new(1);
        let t1 = gate.try_acquire();
        assert!(t1.is_some());
        assert!(gate.try_acquire().is_none());
        drop(t1);
        assert!(gate.try_acquire().is_some());
    }
}
