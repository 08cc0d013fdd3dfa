//! The Kleisli session: the CPL → NRC → optimizer → executor pipeline of
//! Figure 2, plus driver registration, a compiled-plan cache, and explain
//! output.
//!
//! # Concurrency
//!
//! Queries are *submitted*, not executed: [`Session::submit`] compiles
//! and returns a [`QueryHandle`] while evaluation proceeds as a task on
//! the session's shared compute [`Executor`] (no per-query OS thread),
//! shipping its driver requests through the two-phase submit/handle API
//! so round-trips to independent sources overlap (Section 4, "Laziness,
//! Latency, and Concurrency"). [`Session::query`] is simply
//! submit-then-wait. Several handles may be in flight on one session at
//! once, each bounded by the per-driver admission budgets; submissions
//! beyond the executor's worker bound queue as data, never as parked
//! threads. Sessions share the process-wide [`Executor::shared`] pool by
//! default — construct with [`Session::with_executor`] to isolate or
//! resize it.
//!
//! A [`QueryHandle`]'s worker hands its rows over **a block at a time,
//! at a grain that doubles per pull** from 1 to
//! [`kleisli_core::DEFAULT_BLOCK_ROWS`]: the first row is visible as
//! soon as it exists, a long drain pays one budget check, one lock and
//! one wake per 64 rows instead of per row, and a prefix consumer
//! ([`QueryHandle::first_n`]) over-evaluates at most the prefix again.
//! A caller that already runs on the executor — the server's admitted
//! query — skips the hand-off altogether and evaluates in place with
//! [`Session::run_shared`], through the same drain; nobody can take a
//! prefix of that evaluation, so its plan's top is in *value position*
//! (`kleisli_exec::eval`: a scan there is a full fetch, split over the
//! source's connections when the source can), while a handle's worker
//! stays in stream position.
//!
//! # Plan caching
//!
//! [`Session::compile`] memoizes compiled plans in a small LRU keyed by
//! the CPL source text plus the [`OptConfig`] in force — re-submitting a
//! query (the common shape of mediator traffic: the same handful of
//! queries over and over) skips parse/typecheck/optimize entirely from
//! its third ask on. A plan is kept only once its text is asked for
//! again (the second ask compiles it anew and admits it), so text that
//! is never repeated leaves no plan behind ([`PlanCache`], "Admission").
//! The cache is invalidated whenever the meaning of a source string can
//! change: a driver or value binding is registered, or a `define` runs.
//! The table statistics the optimizer reads while compiling are a
//! snapshot kept *with* the plans ([`PlanCache::table_stats`]): a source
//! is asked once per table, and whatever drops the plans derived from
//! it — [`Session::clear_plan_cache`], [`Session::flush_source`] from
//! any session sharing the cache — drops its statistics too.
//!
//! Before optimization, each plan is hash-consed through an
//! [`nrc::Interner`] of its own, so structurally identical subplans
//! within it are one shared `Arc` and the optimizer's identity-keyed
//! rewrite memo rewrites them once. The table lives for that one
//! compile: nothing a session keeps grows with the number of distinct
//! queries it has ever been asked. `Cached` ids are the subplan's
//! structural hash, not an interner identity, so recompiling the same
//! query addresses the same `Context` cache slots.
//!
//! # Process-wide sharing
//!
//! The plan cache is a standalone [`PlanCache`] that a
//! server can share across sessions ([`Session::share_plan_cache`]), and
//! a session can additionally attach a process-wide
//! [`ResultCache`] keyed by
//! [`Compiled::plan_hash`] ([`Session::share_result_cache`]); queries
//! run through [`Session::run_shared`] then consult and populate it
//! with single-flight semantics ([`kleisli_core::flight`]). Attach shared
//! caches
//! *after* registering drivers and bindings — registration invalidates
//! whatever caches are attached at that moment.

use std::collections::HashSet;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use cpl::{desugar_stmt, parse_expr, parse_program, Definitions, Stmt};
use kleisli_core::{
    BlockStream, CancelToken, Capabilities, CollKind, DriverRef, Executor, KError, KResult,
    MetricsSnapshot, OneShot, PromiseState, TableStats, Type, Value, ValueBlock,
    DEFAULT_BLOCK_ROWS,
};
use kleisli_exec::{
    eval, eval_blocks, eval_blocks_to_end, first_n, first_n_distinct, Context, Env, ObjectStore,
    ResultCache, ResultLookup,
};
use kleisli_opt::{optimize_shared, OptConfig, SourceCatalog, TraceEntry};
use nrc::{Expr, Interner, TypeEnv};

use crate::plan_cache::{PlanCache, PlanCacheStats};

/// What [`Session::flush_source`] invalidated; see its docs for the
/// precise-vs-conservative split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceFlush {
    /// Compiled plans dropped from the plan cache.
    pub plans: u64,
    /// Entries dropped from the shared result cache.
    pub results: u64,
    /// `source` was a value binding (untraceable in compiled plans), so
    /// both caches were cleared rather than matched.
    pub conservative: bool,
}

/// The result of running one top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtResult {
    /// A `define` extended the session's definitions.
    Defined(String),
    /// A query produced a value.
    Value(Value),
}

/// A compiled query, before execution (for inspection and benchmarks).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// NRC straight out of the desugarer.
    pub raw: Expr,
    /// NRC after the optimizer pipeline.
    pub optimized: Expr,
    /// Rules fired, in order.
    pub trace: Vec<TraceEntry>,
    /// Inferred (gradual) result type.
    pub ty: Type,
    /// Driver names this plan reads from (sorted, deduplicated),
    /// collected from the raw and optimized NRC. Definitions are inlined
    /// at desugar time, so a plan reaching a driver through any chain of
    /// `define`s still lists it here. This is what [`Session::flush_source`]
    /// matches against to invalidate exactly the plans derived from a
    /// refreshed source.
    pub deps: Vec<nrc::Name>,
}

/// Collect every driver name mentioned by `Remote`/`RemoteApp` nodes
/// into `deps` (callers sort + dedup afterwards).
fn collect_driver_deps(expr: &Expr, deps: &mut Vec<nrc::Name>) {
    expr.visit(&mut |e| match e {
        Expr::Remote { driver, .. } | Expr::RemoteApp { driver, .. } => {
            deps.push(driver.clone());
        }
        _ => {}
    });
}

impl Compiled {
    /// The deterministic structural hash of the *optimized* plan
    /// ([`nrc::hash::plan_hash`]): pointer-blind and stable across
    /// recompiles (binder names made by `nrc::fresh` are hashed by rank,
    /// not spelling), so two sessions compiling the same query against
    /// the same topology agree on the key. This is the key of the shared
    /// result cache. Computed on demand (a plan traversal) rather than
    /// stored, so a plan whose `optimized` field is replaced — as some
    /// benches do — can never carry a stale hash.
    pub fn plan_hash(&self) -> u64 {
        nrc::hash::plan_hash(&self.optimized)
    }
}

// ------------------------------------------------------------------------
// Non-blocking query submission
// ------------------------------------------------------------------------

/// How far a query submitted with [`Session::submit`] has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Still evaluating (or queued behind driver admission budgets).
    Running,
    /// Finished; the result is waiting in the handle.
    Finished,
}

/// Worker/consumer state of one in-flight query. The completion half is
/// the shared [`kleisli_core::OneShot`] promise — the same primitive the
/// driver-level `RequestHandle` is built on — and the streamed-row
/// progress rides next to it: the worker pushes a block of rows
/// (releasing the rows lock first), then [`OneShot::pulse`]s the promise
/// so `first_n` waiters re-check how much has arrived.
struct QueryShared {
    /// Rows streamed so far, in arrival order (streaming plans only).
    rows: StdMutex<Vec<Value>>,
    /// The final result, set exactly once when evaluation completes.
    done: OneShot<KResult<Value>>,
    /// Cooperative cancellation, shared with the evaluation context so
    /// in-flight driver round-trips are woken and abandoned immediately
    /// (their admission tickets reclaimed) rather than discovered at the
    /// next block boundary.
    cancel: Arc<CancelToken>,
    /// Lock-and-pulse rounds the worker has made (one per block).
    #[cfg(test)]
    rounds: std::sync::atomic::AtomicUsize,
}

/// A query in flight: the public face of the two-phase execution API.
///
/// Obtained from [`Session::submit`], which returns as soon as the plan
/// is compiled — evaluation proceeds as a task on the session's shared
/// compute executor, submitting its driver requests through the
/// non-blocking handle machinery (bounded by each driver's admission
/// budget). Redeem it with:
///
/// * [`QueryHandle::wait`] — block until the full result is ready;
/// * [`QueryHandle::try_wait`] — non-blocking poll that takes the result
///   when finished;
/// * [`QueryHandle::first_n`] — block only until `n` rows have streamed
///   in (set-typed prefixes are deduplicated, as in
///   [`Session::query_first_n`]), then cancel the remainder;
/// * [`QueryHandle::cancel`] — stop the evaluation cooperatively: the
///   worker aborts at the next block boundary, and driver requests still
///   queued behind admission gates are discarded without ever reaching
///   their source. Dropping the handle cancels too; either way no driver
///   admission ticket is leaked.
///
/// Cancellation granularity: a request already running inside a driver
/// finishes on its worker (its result is thrown away); a plan that is not
/// visibly a collection, and any collection nested inside a row, is
/// drained in one piece and checks the flag only at its own driver
/// round-trips, i.e. cancellation is cooperative, not preemptive.
///
/// ```
/// use kleisli::{QueryStatus, Session};
/// use kleisli_core::Value;
///
/// let mut session = Session::new();
/// session.bind_value("DB", Value::set((0..10).map(Value::Int).collect()));
/// let mut handle = session.submit(r"sum({x | \x <- DB})").unwrap();
///
/// // Poll without blocking until the result is in (a real caller
/// // would do other work between polls; see `wait` to just block).
/// let result = loop {
///     if let Some(r) = handle.try_wait() {
///         break r.unwrap();
///     }
///     std::thread::yield_now();
/// };
/// assert_eq!(result, Value::Int(45));
/// assert_eq!(handle.status(), QueryStatus::Finished);
/// ```
pub struct QueryHandle {
    shared: Arc<QueryShared>,
    /// Deduplicate the streamed prefix (set-typed plans).
    dedup: bool,
}

impl QueryHandle {
    /// Submit the evaluation of `compiled` against `ctx` as a task on
    /// the context's shared [`Executor`] — no ad-hoc OS thread exists
    /// per query; a burst of submissions beyond the executor's worker
    /// bound queues as data and runs as workers free up. The task
    /// resolves the handle's [`OneShot`] promise when it finishes.
    fn spawn(
        compiled: Arc<Compiled>,
        ctx: Arc<Context>,
        deadline: Option<Duration>,
    ) -> QueryHandle {
        // The same kind/dedup decisions as the synchronous query paths:
        // stream block by block when the plan's collection kind is
        // syntactically evident, else evaluate in one piece on the worker.
        let kind = compiled.optimized.coll_kind_hint();
        let dedup = match &compiled.ty {
            Type::Coll(k, _) => *k == CollKind::Set,
            _ => kind == Some(CollKind::Set),
        };
        let cancel = Arc::new(CancelToken::new());
        // Thread the query budget into the evaluation context: every
        // remote wait and row-boundary check below this clone observes
        // the deadline and the cancellation token.
        let mut qctx = ctx.with_cancel_token(Arc::clone(&cancel));
        if let Some(budget) = deadline {
            qctx = qctx.with_deadline(Instant::now() + budget);
        }
        let ctx = Arc::new(qctx);
        let shared = Arc::new(QueryShared {
            rows: StdMutex::new(Vec::new()),
            done: OneShot::new(),
            cancel,
            #[cfg(test)]
            rounds: Default::default(),
        });
        let worker = Arc::clone(&shared);
        let executor = Arc::clone(ctx.executor());
        executor.spawn(move || {
            // A panic in evaluation must park an error, never leave
            // the handle unfinished (the caller is blocked in wait).
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                QueryHandle::run(&worker, &compiled, &ctx, kind)
            }))
            .unwrap_or_else(|_| Err(KError::eval("query evaluation panicked")));
            worker.done.set(result);
        });
        QueryHandle { shared, dedup }
    }

    /// The worker body: stream blocks of rows into the shared state when
    /// the plan is collection-shaped, evaluate it in one piece otherwise.
    /// Either way the block evaluator runs the plan; only the grain
    /// differs.
    fn run(
        shared: &Arc<QueryShared>,
        compiled: &Compiled,
        ctx: &Arc<Context>,
        kind: Option<CollKind>,
    ) -> KResult<Value> {
        let Some(kind) = kind else {
            // Not visibly a collection: no row-granular progress (and no
            // row-granular cancellation) to offer.
            return eval(&compiled.optimized, &Env::empty(), ctx);
        };
        // Stream position: the handle's owner may take a prefix and
        // cancel ([`QueryHandle::first_n`]) at any moment.
        let blocks = eval_blocks(&compiled.optimized, &Env::empty(), ctx)?;
        drain(blocks, ctx, |block| {
            let mut rows = shared.rows.lock().unwrap_or_else(|e| e.into_inner());
            let pushed = push_rows(&mut rows, block);
            drop(rows);
            #[cfg(test)]
            shared
                .rounds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Wake first_n waiters to re-count the arrived prefix. The
            // rows lock is released first: pulse holds the promise lock,
            // and waiters evaluate their row-count predicate under it.
            shared.done.pulse();
            pushed
        })?;
        // Move the rows out rather than cloning them: first_n's fallback
        // already serves the prefix from the final value when the row
        // buffer is empty.
        let mut rows = shared.rows.lock().unwrap_or_else(|e| e.into_inner());
        let rows = std::mem::take(&mut *rows);
        Ok(Value::collection(kind, rows))
    }

    /// Progress, without blocking.
    pub fn status(&self) -> QueryStatus {
        match self.shared.done.poll() {
            PromiseState::Pending => QueryStatus::Running,
            PromiseState::Ready | PromiseState::Taken => QueryStatus::Finished,
        }
    }

    /// Block until evaluation completes and return the full result.
    pub fn wait(self) -> KResult<Value> {
        self.shared
            .done
            .wait()
            .unwrap_or_else(|| Err(KError::eval("query result already taken")))
    }

    /// Take the result if evaluation has finished; `None` while running.
    pub fn try_wait(&mut self) -> Option<KResult<Value>> {
        match self.shared.done.poll() {
            PromiseState::Pending => None,
            PromiseState::Ready | PromiseState::Taken => Some(
                self.shared
                    .done
                    .try_wait()
                    .unwrap_or_else(|| Err(KError::eval("query result already taken"))),
            ),
        }
    }

    /// Block until `n` rows have streamed in (fewer if the query finishes
    /// first), return them in arrival order — canonical collection order
    /// when the evaluation had already completed — and cancel the
    /// remainder of the evaluation. Set-typed prefixes are
    /// duplicate-free — duplicates do not count toward `n`. An
    /// evaluation error arriving before `n` rows propagates.
    pub fn first_n(self, n: usize) -> KResult<Vec<Value>> {
        // Block until enough rows arrived or the promise resolved. The
        // worker pushes each block (releasing the rows lock) and then
        // pulses the promise, so the predicate re-runs per block. The
        // wakeup check only needs a count (capped at `n`), maintained
        // *incrementally* across pulses: each wakeup scans only the rows
        // that arrived since the last one, so a long stream of
        // duplicates costs O(rows) hashing total, not O(rows^2).
        {
            let mut seen: HashSet<Value> = HashSet::new();
            let mut scanned = 0usize;
            self.shared.done.wait_until(|| {
                let rows = self.shared.rows.lock().unwrap_or_else(|e| e.into_inner());
                if !self.dedup {
                    return rows.len() >= n;
                }
                while scanned < rows.len() && seen.len() < n {
                    // contains-before-insert bounds the deep clones to
                    // at most `n` distinct values; duplicate rows (the
                    // common case on this path) cost only a hash.
                    if !seen.contains(&rows[scanned]) {
                        seen.insert(rows[scanned].clone());
                    }
                    scanned += 1;
                }
                seen.len() >= n
            });
        }
        // Snapshot the streamed prefix *before* inspecting the result:
        // the worker's completion path moves its rows into the final
        // collection, and deciding on a stale count here would race that
        // move and return a short (even empty) prefix for a query that
        // streamed plenty.
        let prefix = {
            let rows = self.shared.rows.lock().unwrap_or_else(|e| e.into_inner());
            if self.dedup {
                distinct_prefix(&rows, n)
            } else {
                rows.iter().take(n).cloned().collect::<Vec<_>>()
            }
        };
        if prefix.len() < n {
            // Not enough in the stream buffer. Either the promise has
            // resolved (wait_until only returns early on promise set),
            // or the worker is mid-completion: it has already moved its
            // rows into the final collection but not yet set the promise
            // (the take and the set are separate steps). In the latter
            // case the set is imminent — block for it; the row count is
            // monotone until the take, so a short snapshot proves the
            // take happened.
            let result = match self.shared.done.try_wait() {
                some @ Some(_) => some,
                None => self.shared.done.wait(),
            };
            match result {
                Some(Ok(v)) => {
                    // Serve the prefix from the final value: the
                    // one-piece fallback, and the streaming worker's
                    // completion path (whose collection holds every
                    // streamed row, superseding whatever snapshot we
                    // took above).
                    return match v.elements() {
                        Some(es) => Ok(if self.dedup {
                            distinct_prefix(es, n)
                        } else {
                            es.iter().take(n).cloned().collect()
                        }),
                        None => Err(KError::eval(format!(
                            "cannot take a row prefix of a non-collection ({})",
                            v.kind_name()
                        ))),
                    };
                }
                // An error arriving before `n` rows propagates.
                Some(Err(e)) => return Err(e),
                // Result already taken (impossible for an owned handle):
                // serve the streamed rows.
                None => {}
            }
        }
        // Enough rows arrived (or the stream ended): the rest of the
        // evaluation is wasted work.
        self.cancel();
        Ok(prefix)
    }

    /// Stop the evaluation cooperatively (see the type docs). Driver
    /// round-trips in flight are woken through the cancellation token
    /// and abandoned — their admission tickets reclaimed at once, even
    /// from a wedged worker — so cancelling (or dropping) a handle never
    /// blocks on, or leaks gate width to, an unresponsive source.
    /// Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        self.shared.done.pulse();
    }
}

impl Drop for QueryHandle {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// Drain a collection-shaped plan's stream block by block, handing each
/// block to `deliver` — the one loop behind every query evaluated for a
/// consumer who may be watching or may cancel ([`QueryHandle`]'s worker,
/// and [`Session::run_shared`] on its caller's thread).
///
/// **The grain rule: it doubles per pull**, from 1 up to
/// [`DEFAULT_BLOCK_ROWS`]. The first row is handed over as soon as it
/// exists (the paper's fast first response), a long drain pays one
/// budget check, one hand-over and one wake per 64 rows, and a prefix
/// consumer over-evaluates at most the prefix again: when its `n`-th row
/// arrives fewer than `2n` have been delivered (the pull then in flight,
/// which its cancel stops, asks for at most as many again).
fn drain(
    mut blocks: BlockStream,
    ctx: &Context,
    mut deliver: impl FnMut(ValueBlock) -> KResult<()>,
) -> KResult<()> {
    let mut grain = 1;
    while let Some(block) = blocks.next_block(grain) {
        // Cancelled -> KError::Cancelled; past the query deadline ->
        // KError::Timeout, even when every individual round-trip was
        // fast (the budget is end-to-end).
        ctx.check_budget()?;
        deliver(block)?;
        grain = (grain * 2).min(DEFAULT_BLOCK_ROWS);
    }
    Ok(())
}

/// Move a block's rows behind `rows`; a block's error is its last row,
/// so the rows in front of it are kept.
fn push_rows(rows: &mut Vec<Value>, block: ValueBlock) -> KResult<()> {
    for row in block.into_rows() {
        rows.push(row?);
    }
    Ok(())
}

/// First-arrival-order distinct prefix of at most `n` rows.
fn distinct_prefix(rows: &[Value], n: usize) -> Vec<Value> {
    let mut seen: HashSet<&Value> = HashSet::new();
    let mut out = Vec::new();
    for v in rows {
        if out.len() >= n {
            break;
        }
        if seen.insert(v) {
            out.push(v.clone());
        }
    }
    out
}

/// A CPL/Kleisli session. Drivers are registered once; `define`s
/// accumulate; queries compile and run against the registered sources.
pub struct Session {
    ctx: Arc<Context>,
    defs: Definitions,
    config: OptConfig,
    /// Compiled-plan cache: private by default, process-wide when the
    /// server swaps in a shared one ([`Session::share_plan_cache`]).
    plan_cache: Arc<PlanCache>,
    /// Shared whole-query result cache, when attached
    /// ([`Session::share_result_cache`]); consulted by `run_shared`.
    result_cache: Option<Arc<ResultCache>>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// The optimizer's view of the registered sources. Capabilities are
/// read off the driver; table statistics come from the plan cache's
/// snapshot ([`PlanCache::table_stats`]), so the source is asked once
/// per table and invalidation, not eleven times per cold compile.
struct CtxCatalog<'a> {
    ctx: &'a Context,
    plans: &'a PlanCache,
}

impl SourceCatalog for CtxCatalog<'_> {
    fn capabilities(&self, driver: &str) -> Option<Capabilities> {
        self.ctx.driver(driver).ok().map(|d| d.capabilities())
    }

    fn table_stats(&self, driver: &str, table: &str) -> Option<TableStats> {
        let source = self.ctx.driver(driver).ok()?;
        self.plans
            .table_stats(driver, table, || source.table_stats(table))
            .map(|stats| TableStats::clone(&stats))
    }
}

/// Default number of compiled plans kept per session.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

impl Session {
    /// A session evaluating its queries on the process-wide shared
    /// compute executor ([`Executor::shared`]).
    pub fn new() -> Session {
        Session::with_executor(Executor::shared())
    }

    /// A session evaluating its queries (and `ParExt` chunks) on a
    /// caller-supplied [`Executor`] — for embedders that want their own
    /// worker sizing or an isolated pool, and for tests that assert on
    /// executor thread counts.
    pub fn with_executor(executor: Arc<Executor>) -> Session {
        Session {
            ctx: Arc::new(Context::with_executor(executor)),
            defs: Definitions::new(),
            config: OptConfig::default(),
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            result_cache: None,
        }
    }

    /// Swap this session's private plan cache for a shared one, so a
    /// plan compiled by any session sharing `cache` is a compile skipped
    /// here (and vice versa). Attach *after* registering drivers and
    /// bindings: registration calls [`Session::clear_plan_cache`], which
    /// would wipe the shared cache for everyone. Sessions sharing a plan
    /// cache must agree on source topology (same driver names meaning
    /// the same data) — the cache key is source text + optimizer config.
    pub fn share_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = cache;
    }

    /// Attach a process-wide single-flight result cache, keyed by
    /// [`Compiled::plan_hash`]; [`Session::run_shared`] consults and
    /// populates it. The same topology caveat as
    /// [`Session::share_plan_cache`] applies, and like the plan cache it
    /// is cleared by [`Session::clear_plan_cache`] (registration and
    /// `define` both invalidate it).
    pub fn share_result_cache(&mut self, cache: Arc<ResultCache>) {
        self.result_cache = Some(cache);
    }

    /// The plan cache in force (private unless
    /// [`Session::share_plan_cache`] swapped in a shared one).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The attached shared result cache, if any.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.result_cache.as_ref()
    }

    /// The compute executor this session's queries run on (observable:
    /// [`Executor::threads_spawned`] stays bounded by
    /// [`Executor::limit`] no matter how many queries are submitted).
    pub fn executor(&self) -> &Arc<Executor> {
        self.ctx.executor()
    }

    /// Tune the optimizer (e.g. to ablate one optimization in a bench).
    /// The optimizer config is part of the plan-cache key, so previously
    /// cached plans stay valid (and reusable if the config is restored).
    pub fn set_opt_config(&mut self, config: OptConfig) {
        self.config = config;
    }

    pub fn opt_config(&self) -> &OptConfig {
        &self.config
    }

    /// Enable or disable batched driver round-trips (the IN-list /
    /// multi-uid pushdown mark). A convenience over [`set_opt_config`]
    /// for the equivalence harness and the batching benchmark, which
    /// compare the two execution paths on the same session. Like any
    /// config change, the toggle is part of the plan-cache key, so both
    /// variants cache independently.
    ///
    /// [`set_opt_config`]: Session::set_opt_config
    pub fn set_batching(&mut self, on: bool) {
        self.config.enable_batching = on;
    }

    /// Resize the plan cache; `0` disables it. Existing entries beyond
    /// the new capacity are evicted oldest-first.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache.set_capacity(capacity);
    }

    /// Hit/miss/eviction counters and occupancy of the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached compiled plan (counters are kept) and any
    /// attached shared result cache's entries. Called automatically
    /// whenever definitions or registered sources change (stale results
    /// must never outlive a topology change).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
        if let Some(results) = &self.result_cache {
            results.clear();
        }
    }

    /// Invalidate every cached plan and result derived from `source` —
    /// the session-level half of the wire-level FLUSH verb, for when a
    /// source has been refreshed underneath the mediator.
    ///
    /// * A registered **driver** is flushed precisely: plans are matched
    ///   by [`Compiled::deps`], results by the source tags recorded at
    ///   population time. Entries derived only from other sources
    ///   survive.
    /// * A **value binding** cannot be traced — desugaring inlines the
    ///   bound constant, erasing the name from the plan — so the flush
    ///   falls back to clearing both caches wholesale
    ///   ([`SourceFlush::conservative`] is set).
    /// * An unknown name is an error: flushing everything on a typo
    ///   would be an availability incident, not a refresh.
    ///
    /// Either way the source's invalidation generations (plan and
    /// result side) are bumped, so a refresh is observable even when
    /// nothing was resident.
    pub fn flush_source(&self, source: &str) -> KResult<SourceFlush> {
        let is_driver = self.ctx.driver(source).is_ok();
        if !is_driver && self.defs.get(source).is_none() {
            return Err(KError::eval(format!(
                "flush: no such source or binding: {source}"
            )));
        }
        let mut flush = SourceFlush::default();
        if !is_driver {
            flush.conservative = true;
            flush.plans = self.plan_cache.stats().entries as u64;
            flush.results = self
                .result_cache
                .as_ref()
                .map_or(0, |c| c.stats().entries as u64);
            self.clear_plan_cache();
        }
        // For drivers this does the precise matching; after a
        // conservative clear it drops nothing but still bumps the
        // source's generations.
        let plans = self.plan_cache.flush_source(source) as u64;
        let results = self
            .result_cache
            .as_ref()
            .map_or(0, |c| c.flush_source(source).len() as u64);
        if !flush.conservative {
            flush.plans = plans;
            flush.results = results;
        }
        Ok(flush)
    }

    fn ctx_mut(&mut self) -> &mut Context {
        Arc::get_mut(&mut self.ctx)
            .expect("session context is uniquely owned between queries")
    }

    /// Register a data-source driver. The driver's name becomes a CPL
    /// function (`GDB(req)`); SQL-capable drivers also get the paper's
    /// `<name>-Tab(table)` template. Invalidates the plan cache: both the
    /// definitions and the optimizer's source catalog change.
    pub fn register_driver(&mut self, driver: DriverRef) {
        self.clear_plan_cache();
        let name: nrc::Name = Arc::from(driver.name());
        let sql = driver.capabilities().sql;
        self.ctx_mut().register_driver(driver);
        let req = nrc::fresh("req");
        self.defs.insert(
            Arc::clone(&name),
            Expr::Lambda {
                var: Arc::clone(&req),
                body: Arc::new(Expr::RemoteApp {
                    driver: Arc::clone(&name),
                    arg: Arc::new(Expr::Var(req)),
                }),
            },
        );
        if sql {
            let t = nrc::fresh("table");
            self.defs.insert(
                Arc::from(format!("{name}-Tab")),
                Expr::Lambda {
                    var: Arc::clone(&t),
                    body: Arc::new(Expr::RemoteApp {
                        driver: name,
                        arg: Arc::new(Expr::Record(vec![(
                            Arc::from("table"),
                            Arc::new(Expr::Var(t)),
                        )])),
                    }),
                },
            );
        }
    }

    /// Register an object store consulted by `deref`. Invalidates the
    /// plan cache for symmetry with driver registration (object stores
    /// are consulted at run time, but a stale compiled plan should never
    /// outlive a topology change).
    pub fn register_object_store(&mut self, store: Arc<dyn ObjectStore>) {
        self.clear_plan_cache();
        self.ctx_mut().register_object_store(store);
    }

    /// Bind a name to a data value (a local "database"). Invalidates the
    /// plan cache: the name's meaning in future sources changes.
    pub fn bind_value(&mut self, name: impl AsRef<str>, v: Value) {
        self.clear_plan_cache();
        self.defs.insert_value(name, v);
    }

    /// Compile a single CPL expression: desugar, typecheck, optimize —
    /// or fetch the identical plan from the session plan cache (keyed by
    /// source text + optimizer config; see the module docs). The cache
    /// keeps a plan once its text has been asked for before, so the first
    /// two asks of a text compile and the third is a hit.
    pub fn compile(&self, src: &str) -> KResult<Compiled> {
        Ok((*self.compile_shared(src)?).clone())
    }

    /// [`Session::compile`] returning the cache's shared handle: a cache
    /// hit is a pointer bump, no `Compiled` clone. The internal query
    /// paths use this.
    pub fn compile_shared(&self, src: &str) -> KResult<Arc<Compiled>> {
        self.plan_cache.get_or_compile(src, &self.config, || {
            Ok(Arc::new(self.compile_uncached(src)?))
        })
    }

    fn compile_uncached(&self, src: &str) -> KResult<Compiled> {
        let ast = parse_expr(src)?;
        let raw = cpl::desugar(&ast, &self.defs)?;
        let ty = nrc::infer(&raw, &TypeEnv::new())?;
        let (optimized, trace) = self.intern_and_optimize(raw.clone());
        let mut deps = Vec::new();
        collect_driver_deps(&raw, &mut deps);
        collect_driver_deps(&optimized, &mut deps);
        deps.sort_unstable();
        deps.dedup();
        Ok(Compiled {
            raw,
            optimized: (*optimized).clone(),
            trace,
            ty,
            deps,
        })
    }

    /// The shared back half of compilation: hash-cons the raw plan —
    /// identical subplans within it become one Arc, which the engine's
    /// identity-keyed memo then rewrites once — and run the optimizer
    /// pipeline. The table dies with the call (module docs).
    fn intern_and_optimize(&self, raw: Expr) -> (Arc<Expr>, Vec<TraceEntry>) {
        let shared = Interner::new().intern(&Arc::new(raw));
        let catalog = CtxCatalog {
            ctx: &self.ctx,
            plans: &self.plan_cache,
        };
        optimize_shared(shared, &catalog, &self.config)
    }

    /// Submit one CPL expression for evaluation without waiting for it:
    /// compilation (and any compile error) happens here, then evaluation
    /// proceeds as a task on the session's shared compute executor,
    /// shipping its driver requests through the non-blocking
    /// submit/handle machinery. Returns a [`QueryHandle`] exposing
    /// wait / try_wait / cancel / first_n.
    ///
    /// ```
    /// use kleisli::Session;
    /// use kleisli_core::Value;
    ///
    /// let mut session = Session::new();
    /// session.bind_value("DB", Value::set((0..100).map(Value::Int).collect()));
    ///
    /// // Both queries are in flight at once; neither submit blocks.
    /// let doubles = session.submit(r"{x * 2 | \x <- DB}").unwrap();
    /// let evens = session.submit(r"{x | \x <- DB, x mod 2 = 0}").unwrap();
    ///
    /// // A streamed prefix: blocks only until 5 rows have arrived,
    /// // then cancels the rest of that query's evaluation.
    /// let five = evens.first_n(5).unwrap();
    /// assert_eq!(five.len(), 5);
    ///
    /// // The full result of the other query.
    /// let all = doubles.wait().unwrap();
    /// assert_eq!(all.len(), Some(100));
    /// ```
    ///
    /// Note: like every query entry point, submission clears the
    /// session's subquery cache, so results of queries *currently in
    /// flight* on the same session may recompute cached subtrees.
    pub fn submit(&self, src: &str) -> KResult<QueryHandle> {
        let compiled = self.compile_shared(src)?;
        self.ctx.cache_clear();
        Ok(QueryHandle::spawn(compiled, Arc::clone(&self.ctx), None))
    }

    /// [`Session::submit`] with an end-to-end latency budget: once
    /// `budget` has elapsed (measured from submission), remote waits
    /// resolve `KError::Timeout` — abandoning wedged round-trips and
    /// reclaiming their admission tickets — and the evaluation aborts at
    /// the next block boundary. A driver policy's own deadline, when
    /// tighter, still wins for that driver's requests.
    pub fn submit_with_deadline(&self, src: &str, budget: Duration) -> KResult<QueryHandle> {
        let compiled = self.compile_shared(src)?;
        self.ctx.cache_clear();
        Ok(QueryHandle::spawn(
            compiled,
            Arc::clone(&self.ctx),
            Some(budget),
        ))
    }

    /// [`Session::run`] consulting the attached shared result cache (see
    /// [`Session::share_result_cache`]) with single-flight semantics,
    /// keyed by [`Compiled::plan_hash`], for a caller that already *is*
    /// a task on the compute executor (the server's admitted query):
    ///
    /// * a cached result returns without starting an evaluation;
    /// * a cold key evaluates **on the calling thread** — no second
    ///   task, no hand-off — and commits the result before returning it
    ///   (the cache keeps it if the key was asked for before: the
    ///   admission rule of [`kleisli_exec::result_cache`]);
    /// * a key *currently being computed by another session* waits
    ///   until that computation commits (then a hit), aborts (then this
    ///   caller races for the lead), or `cancel` fires — which ends this
    ///   caller's wait at once, with the error of a cancelled query, and
    ///   touches nothing else ([`kleisli_core::flight`]).
    ///
    /// Returns the value and whether it came from the shared cache.
    /// Without an attached cache (or on a re-entrant lookup) the
    /// evaluation is invisible to other sessions.
    ///
    /// `cancel` stops the evaluation cooperatively, exactly as
    /// [`QueryHandle::cancel`] does; the drain is the handle worker's
    /// (the grain rule on [`QueryHandle`]), so cancellation is noticed
    /// at block boundaries and inside remote waits. Unlike a handle's,
    /// this evaluation cannot be asked for a prefix, so it drains
    /// [`kleisli_exec::eval_blocks_to_end`]: a remote scan at the top of
    /// the plan is fetched the way one inside a record field is. A failed or
    /// cancelled evaluation drops its populate ticket uncommitted,
    /// handing the lead to a waiting session.
    pub fn run_shared(&self, src: &str, cancel: &Arc<CancelToken>) -> KResult<(Value, bool)> {
        let compiled = self.compile_shared(src)?;
        let ctx = self.ctx.with_cancel_token(Arc::clone(cancel));
        let ticket = match &self.result_cache {
            None => None,
            Some(cache) => match cache
                .join(compiled.plan_hash(), &compiled.deps, ctx.deadline(), Some(cancel))
                .map_err(|_| ctx.spent_budget())?
            {
                ResultLookup::Hit(v) => return Ok((v, true)),
                ResultLookup::Reentrant => None,
                ResultLookup::Miss(ticket) => Some(ticket),
            },
        };
        self.ctx.cache_clear();
        let value = match compiled.optimized.coll_kind_hint() {
            None => eval(&compiled.optimized, &Env::empty(), &ctx)?,
            Some(kind) => {
                // Value position: nobody can take a prefix of this
                // evaluation, it reads its plan to the end and keeps
                // every row — so a scan at the top of the plan is a full
                // fetch, as it would be one level down.
                let blocks = eval_blocks_to_end(&compiled.optimized, &Env::empty(), &ctx)?;
                let mut rows = Vec::new();
                drain(blocks, &ctx, |block| push_rows(&mut rows, block))?;
                Value::collection(kind, rows)
            }
        };
        if let Some(ticket) = ticket {
            ticket.commit(value.clone());
        }
        Ok((value, false))
    }

    /// [`Session::submit`] for an already-compiled plan.
    pub fn submit_compiled(&self, compiled: &Compiled) -> QueryHandle {
        self.ctx.cache_clear();
        QueryHandle::spawn(Arc::new(compiled.clone()), Arc::clone(&self.ctx), None)
    }

    /// Compile and evaluate one CPL expression: submit-then-wait through
    /// the concurrency machinery, so independent remote subplans overlap
    /// their round-trips.
    pub fn query(&self, src: &str) -> KResult<Value> {
        self.submit(src)?.wait()
    }

    /// Evaluate an already-compiled query on the caller's thread: the
    /// same block evaluator [`Session::submit_compiled`] runs on a worker,
    /// drained at the full grain with no per-row hand-off, progress or
    /// cancellation. Union arms, join sides and `ParExt` chunks overlap
    /// their round-trips exactly as they do there. (`run` evaluates
    /// program statements the same way.)
    pub fn run_compiled(&self, compiled: &Compiled) -> KResult<Value> {
        self.ctx.cache_clear();
        eval(&compiled.optimized, &Env::empty(), &self.ctx)
    }

    /// Evaluate lazily, returning only the first `n` elements — the
    /// paper's fast-first-response path. Streams skip collection
    /// canonicalization, so when the plan produces a *set* (by inferred
    /// type, or plan syntax where typing says `Any`) the streamed prefix
    /// is deduplicated (duplicates do not count toward `n`); bag/list
    /// prefixes are returned in arrival order as-is.
    ///
    /// This synchronous path pulls rows on the caller's thread, so driver
    /// traffic is strictly bounded by demand; [`QueryHandle::first_n`] is
    /// the concurrent variant (its worker may run slightly ahead of the
    /// prefix before cancellation lands).
    pub fn query_first_n(&self, src: &str, n: usize) -> KResult<Vec<Value>> {
        let compiled = self.compile_shared(src)?;
        self.ctx.cache_clear();
        let is_set = match &compiled.ty {
            Type::Coll(kind, _) => *kind == CollKind::Set,
            _ => compiled.optimized.coll_kind_hint() == Some(CollKind::Set),
        };
        if is_set {
            first_n_distinct(&compiled.optimized, n, &Env::empty(), &self.ctx)
        } else {
            first_n(&compiled.optimized, n, &Env::empty(), &self.ctx)
        }
    }

    /// Run a whole program (defines and queries).
    pub fn run(&mut self, src: &str) -> KResult<Vec<StmtResult>> {
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            match stmt {
                Stmt::Define(name, _) => {
                    // A define changes what later sources mean.
                    self.clear_plan_cache();
                    desugar_stmt(stmt, &mut self.defs)?;
                    out.push(StmtResult::Defined(name.to_string()));
                }
                Stmt::Query(_) => {
                    // Statements have no stable source key (defines in the
                    // same program may change their meaning mid-stream),
                    // so program queries do not consult the plan LRU; they
                    // still go through the interner + optimizer pipeline.
                    let Some(raw) = desugar_stmt(stmt, &mut self.defs)? else {
                        continue;
                    };
                    nrc::infer(&raw, &TypeEnv::new())?;
                    let (optimized, _trace) = self.intern_and_optimize(raw);
                    self.ctx.cache_clear();
                    out.push(StmtResult::Value(eval(
                        &optimized,
                        &Env::empty(),
                        &self.ctx,
                    )?));
                }
            }
        }
        Ok(out)
    }

    /// Human-readable compilation report: NRC before/after, fired rules,
    /// and the inferred type.
    pub fn explain(&self, src: &str) -> KResult<String> {
        use std::fmt::Write as _;
        let c = self.compile(src)?;
        let mut out = String::new();
        let _ = writeln!(out, "== type ==\n{}", c.ty);
        let _ = writeln!(out, "\n== NRC (desugared, {} nodes) ==\n{}", c.raw.size(), c.raw);
        let _ = writeln!(
            out,
            "\n== optimized ({} nodes) ==\n{}",
            c.optimized.size(),
            c.optimized
        );
        let _ = writeln!(out, "\n== rules fired ({}) ==", c.trace.len());
        let mut counts: Vec<(String, usize)> = Vec::new();
        for t in &c.trace {
            let key = format!("{}/{}", t.rule_set, t.rule);
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => counts.push((key, 1)),
            }
        }
        for (k, n) in counts {
            let _ = writeln!(out, "{n:>4} x {k}");
        }
        Ok(out)
    }

    /// Traffic *and* resilience counters of a registered driver: the
    /// driver's own request/row counts merged with the timeouts,
    /// retries and breaker opens recorded by the resilience layer on
    /// its behalf.
    pub fn driver_metrics(&self, name: &str) -> KResult<MetricsSnapshot> {
        self.ctx.driver_metrics(name)
    }

    /// Reset every driver's traffic and resilience counters.
    pub fn reset_metrics(&self) {
        self.ctx.reset_metrics();
    }

    /// A registered driver's circuit-breaker state, when its policy
    /// configures a breaker.
    pub fn breaker_state(&self, name: &str) -> Option<kleisli_core::BreakerState> {
        self.ctx.resilience(name).and_then(|r| r.breaker_state())
    }

    /// The execution context (for advanced embedding). Register all
    /// drivers *before* taking clones of the context: registration needs
    /// unique ownership.
    pub fn context(&self) -> Arc<Context> {
        Arc::clone(&self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn a_long_drain_hands_over_per_block_not_per_row() {
        let mut session = Session::new();
        session.bind_value("DB", Value::list((0..10_000).map(Value::Int).collect()));
        let handle = session.submit(r"[| x + 1 | \x <- DB |]").expect("submit");
        let shared = Arc::clone(&handle.shared);
        assert_eq!(handle.wait().expect("drain").len(), Some(10_000));
        // The grain ramps 1, 2, 4, .. 64 and stays there: 7 pulls for the
        // first 127 rows, then one per 64.
        let rounds = shared.rounds.load(Ordering::Relaxed);
        assert!(
            (100..=200).contains(&rounds),
            "{rounds} lock-and-pulse rounds"
        );
    }
}
