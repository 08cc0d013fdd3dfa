//! The Kleisli session: the CPL → NRC → optimizer → executor pipeline of
//! Figure 2, plus driver registration, a compiled-plan cache, and explain
//! output.
//!
//! # One verb, one drain
//!
//! A query starts one way: [`Session::start`] takes a compiled plan and
//! a [`How`] and returns a [`QueryHandle`] at once, while evaluation
//! proceeds as a task on the session's shared compute [`Executor`] (no
//! per-query OS thread), shipping its driver requests through the
//! two-phase submit/handle API so round-trips to independent sources
//! overlap (Section 4, "Laziness, Latency, and Concurrency").
//! [`Session::query`] is the shorthand: compile, start, wait. Several
//! handles may be in flight on one session at once, each bounded by the
//! per-driver admission budgets; starts beyond the executor's worker
//! bound queue as data, never as parked threads. An evaluation no worker
//! has picked up when its handle is waited for runs on the waiting
//! thread, and a start from an executor task wakes no other worker to
//! race for it ([`Executor::spawn_awaited`]), so the server's admitted
//! query evaluates in place, on its own task. Sessions share the process-wide
//! [`Executor::shared`] pool by default — construct with
//! [`Session::with_executor`] to isolate or resize it.
//!
//! What is read is a function of the caller's limit alone — the paper's
//! laziness "to generate initial output quickly, and minimize storage of
//! intermediate results" (§4) is the consumer's choice, not the
//! method's. With no limit the top of the plan is in *value position*
//! (`kleisli_exec::eval`: a scan there is a full fetch, split over the
//! source's connections when the source can) and the attached result
//! cache answers repeats; with `limit: Some(n)` the plan is streamed and
//! stopped after `n` rows, so a scan keeps its `prefetch_rows` window
//! and is never split. Either way one drain reads the blocks, at a grain
//! that doubles per pull from 1 to [`kleisli_core::DEFAULT_BLOCK_ROWS`],
//! checking the query's deadline and token between blocks.
//!
//! # Plan caching
//!
//! [`Session::compile_shared`] memoizes compiled plans in a [`PlanCache`] keyed by
//! the CPL source text plus the [`OptConfig`] in force — re-submitting a
//! query (the common shape of mediator traffic: the same handful of
//! queries over and over) skips parse/typecheck/optimize entirely from
//! its third ask on. A plan is kept only once its text is asked for
//! again (the second ask compiles it anew and admits it), so text that
//! is never repeated leaves no plan behind ([`kleisli_core::flight`],
//! "Admission").
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
//! Hash-consing happens before optimization only. A rule that rebuilds a
//! subtree builds new nodes, so two subtrees that are equal in the
//! optimized plan can be two `Arc`s, each rewritten on its own. That is
//! why the executor matches a marked call to its loop's mark
//! structurally (`BatchSpec::arg` by `==`, not by pointer); keeping the
//! sharing through the optimizer is ROADMAP item 21.
//!
//! # Process-wide sharing
//!
//! The plan cache is a standalone [`PlanCache`] that a
//! server can share across sessions ([`Session::share_plan_cache`]), and
//! a session can additionally attach a process-wide
//! [`ResultCache`] keyed by
//! [`Compiled::plan_hash`] ([`Session::share_result_cache`]); queries
//! started with no limit then consult and populate it with
//! single-flight semantics ([`kleisli_core::flight`]). Attach shared
//! caches *after* registering drivers and bindings — registration invalidates
//! whatever caches are attached at that moment.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpl::{desugar_stmt, parse_expr, parse_program, Definitions, Stmt};
use kleisli_core::{
    Awaited, BlockStream, CancelToken, Capabilities, CollKind, Directory, DriverRef, Executor,
    KError, KResult, MetricsSnapshot, PromiseState, RemyRecord, TableStats, Type, Value,
    DEFAULT_BLOCK_ROWS,
};
use kleisli_exec::{
    eval, eval_blocks, eval_blocks_to_end, Context, Env, ObjectStore, ResultCache, ResultLookup,
    ResultTicket,
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
    /// The directories of the record shapes the optimized plan builds,
    /// kept while the plan lives: a shape none of whose records outlives
    /// its statement — a driver request record, say — would otherwise
    /// intern a fresh directory every time one is built.
    pub(crate) _shapes: Vec<Arc<Directory>>,
}

/// The directory of every record shape `plan` constructs.
fn record_shapes(plan: &Expr) -> Vec<Arc<Directory>> {
    let mut shapes = Vec::new();
    plan.visit(&mut |e| {
        if let Expr::Record(fields) = e {
            let shape = fields.iter().map(|(name, _)| (Arc::clone(name), Value::Unit));
            shapes.push(Arc::clone(RemyRecord::new(shape.collect()).dir()));
        }
    });
    shapes
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
// Starting a query
// ------------------------------------------------------------------------

/// How [`Session::start`] runs a query: the one choice a caller makes
/// about an evaluation beyond which plan it is.
///
/// * `limit` — `None` reads the result to its end: the top of the plan is
///   in *value position* (a remote scan there is a full fetch, split over
///   the source's connections where it can be), and the attached shared
///   result cache is consulted and populated. `Some(n)` stops after `n`
///   rows (`n` distinct rows for a set) in *stream position*: nothing is
///   split, the driver's `prefetch_rows` window bounds what is shipped
///   ahead, and no result cache is involved (a prefix is not the result).
/// * `deadline` — an end-to-end budget measured from `start`: once it has
///   passed, remote waits resolve `KError::Timeout` (abandoning wedged
///   round-trips and reclaiming their admission tickets) and the drain
///   stops at its next block.
/// * `cancel` — a token the caller keeps and may fire from anywhere
///   (the server's CANCEL frame); a fresh one when `None`.
///   [`QueryHandle::cancel`] fires the same token.
/// * `max_bytes` — a budget on what the evaluation materializes: every
///   row collected into a value — the result, a join's inner side, a
///   body's piece — is charged its `Value::approx_bytes`, once per value
///   however many generators it passed, and once the charges pass the
///   budget the query fails with an error naming it, dropping its streams
///   (and so cancelling their requests). A cache hit charges nothing.
#[derive(Clone, Default)]
pub struct How {
    pub limit: Option<usize>,
    pub deadline: Option<Duration>,
    pub cancel: Option<Arc<CancelToken>>,
    pub max_bytes: Option<u64>,
}

/// How far a started query has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Still evaluating (or queued behind driver admission budgets).
    Running,
    /// Finished; the result is waiting in the handle.
    Finished,
}

/// One query's evaluation, owned by whoever claims its task.
struct Job {
    compiled: Arc<Compiled>,
    /// The session's context under the query's token and deadline.
    ctx: Context,
    limit: Option<usize>,
    /// The result cache's populate ticket, when the lookup missed: the
    /// result is committed before it is returned, and a failed, cancelled
    /// or never-run evaluation drops it uncommitted, handing the lead to
    /// a waiting session.
    ticket: Option<ResultTicket>,
}

impl Job {
    fn run(self) -> KResult<Value> {
        let value = drain(&self.compiled, &self.ctx, self.limit)?;
        if let Some(ticket) = self.ticket {
            ticket.commit(value.clone());
        }
        Ok(value)
    }
}

/// A started query: the handle [`Session::start`] returns.
///
/// Evaluation is a task on the session's compute executor, submitting
/// its driver requests through the non-blocking handle machinery
/// (bounded by each driver's admission budget). Redeem it with:
///
/// * [`QueryHandle::wait`] — block until the result is ready. An
///   evaluation no executor worker has picked up yet runs **on the
///   waiting thread** (it is a caller-helped `kleisli_core::Awaited`
///   task, as a parallel loop's bodies are), so a caller that is itself
///   an executor task — the server's admitted query — evaluates in place
///   and never waits on a second task;
/// * [`QueryHandle::try_wait`] — non-blocking poll that takes the result
///   when finished;
/// * [`QueryHandle::cancel`] — stop the evaluation cooperatively: the
///   drain aborts at the next block boundary, driver requests still
///   queued behind admission gates are discarded without ever reaching
///   their source, and an evaluation nobody has started never starts.
///   Dropping the handle cancels too; either way no driver admission
///   ticket is leaked.
///
/// Cancellation granularity: a request already running inside a driver
/// finishes on its worker (its result is thrown away); a plan that is not
/// visibly a collection, and any collection nested inside a row, is
/// drained in one piece and checks the flag only at its own driver
/// round-trips, i.e. cancellation is cooperative, not preemptive.
///
/// ```
/// use kleisli::{How, QueryStatus, Session};
/// use kleisli_core::Value;
///
/// let mut session = Session::new();
/// session.bind_value("DB", Value::set((0..10).map(Value::Int).collect()));
/// let plan = session.compile_shared(r"sum({x | \x <- DB})").unwrap();
/// let mut handle = session.start(&plan, How::default());
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
    /// The evaluation, and the promise its result lands in.
    task: Arc<Awaited<KResult<Value>>>,
    /// Cooperative cancellation, shared with the evaluation context so
    /// in-flight driver round-trips are woken and abandoned immediately
    /// (their admission tickets reclaimed) rather than discovered at the
    /// next block boundary.
    cancel: Arc<CancelToken>,
    /// Answered by the shared result cache at `start`, without an
    /// evaluation.
    from_cache: bool,
}

impl QueryHandle {
    /// A handle whose result is known at `start`.
    fn resolved(result: KResult<Value>, cancel: Arc<CancelToken>, from_cache: bool) -> QueryHandle {
        QueryHandle {
            task: Arc::new(Awaited::ready(result)),
            cancel,
            from_cache,
        }
    }

    /// Progress, without blocking.
    pub fn status(&self) -> QueryStatus {
        match self.task.poll() {
            PromiseState::Pending => QueryStatus::Running,
            PromiseState::Ready | PromiseState::Taken => QueryStatus::Finished,
        }
    }

    /// Whether the shared result cache answered this query without an
    /// evaluation (kleislid's `ServedFrom`). Settled when `start`
    /// returns.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// Block until evaluation completes and return the result — running
    /// it right here if no worker has picked it up yet.
    pub fn wait(self) -> KResult<Value> {
        self.task.wait().unwrap_or_else(lost)
    }

    /// Take the result if evaluation has finished; `None` while running.
    pub fn try_wait(&mut self) -> Option<KResult<Value>> {
        match self.task.poll() {
            PromiseState::Pending => None,
            PromiseState::Ready | PromiseState::Taken => {
                Some(self.task.try_wait().unwrap_or_else(lost))
            }
        }
    }

    /// Stop the evaluation cooperatively (see the type docs). Driver
    /// round-trips in flight are woken through the cancellation token
    /// and abandoned — their admission tickets reclaimed at once, even
    /// from a wedged worker — so cancelling (or dropping) a handle never
    /// blocks on, or leaks gate width to, an unresponsive source.
    /// Idempotent.
    pub fn cancel(&self) {
        self.cancel.cancel();
        self.task.cancel(Err(KError::cancelled("query cancelled")));
    }
}

/// The result of a finished query whose task has none to give.
fn lost() -> KResult<Value> {
    Err(KError::eval("query result lost: its evaluation panicked or it was taken"))
}

/// Dropping an unfinished handle cancels it; a finished one leaves the
/// token alone (a caller may share it with other queries).
impl Drop for QueryHandle {
    fn drop(&mut self) {
        if self.status() == QueryStatus::Running {
            self.cancel();
        }
    }
}

/// The one drain behind every started query, a function of the limit
/// alone ([`How`]):
///
/// * **No limit: value position.** Nobody can take a prefix, the result
///   is read to its end and every row kept — so a scan at the top of
///   the plan is a full fetch, as it would be one level down
///   ([`kleisli_exec::eval_blocks_to_end`]).
/// * **A limit: stream position**, stopped once `n` rows (distinct rows,
///   for a set) are in; the stream's drop cancels what is still in
///   flight. The prefix comes back as a collection of the plan's kind.
///
/// A plan that is not visibly a collection is evaluated in one piece.
fn drain(compiled: &Compiled, ctx: &Context, limit: Option<usize>) -> KResult<Value> {
    let plan = &compiled.optimized;
    let env = Env::empty();
    let Some(n) = limit else {
        let Some(kind) = plan.coll_kind_hint() else {
            return eval(plan, &env, ctx);
        };
        let blocks = eval_blocks_to_end(plan, &env, ctx)?;
        return Ok(Value::collection(kind, read(blocks, ctx, usize::MAX, false)?));
    };
    let kind = match &compiled.ty {
        Type::Coll(kind, _) => Some(*kind),
        _ => plan.coll_kind_hint(),
    };
    let Some(kind) = kind else {
        let value = eval(plan, &env, ctx)?;
        return match (value.coll_kind(), value.elements()) {
            (Some(kind), Some(rows)) => {
                Ok(Value::collection(kind, rows.iter().take(n).cloned().collect()))
            }
            _ => Err(KError::eval(format!(
                "cannot take a row prefix of a non-collection ({})",
                value.kind_name()
            ))),
        };
    };
    if n == 0 {
        // An empty prefix starts nothing.
        return Ok(Value::collection(kind, Vec::new()));
    }
    let blocks = eval_blocks(plan, &env, ctx)?;
    Ok(Value::collection(kind, read(blocks, ctx, n, kind == CollKind::Set)?))
}

/// Read `blocks` until `limit` rows are in — distinct ones when
/// `distinct`, duplicates not counting — checking the query's budget
/// between blocks: `KError::Cancelled` once its token fires,
/// `KError::Timeout` past its deadline, even when every round-trip was
/// fast (the budget is end-to-end), and charging each block's rows to its
/// byte budget as they are collected.
///
/// **The grain doubles per pull**, from 1 up to [`DEFAULT_BLOCK_ROWS`],
/// and never asks for more rows than the limit still wants: the first
/// row costs one row's work, a long drain pays one budget check per 64
/// rows, and a prefix pulls no row it does not need.
fn read(
    mut blocks: BlockStream,
    ctx: &Context,
    limit: usize,
    distinct: bool,
) -> KResult<Vec<Value>> {
    let mut rows = Vec::new();
    let mut seen = HashSet::new();
    let mut grain = 1;
    while rows.len() < limit {
        let Some(block) = blocks.next_block(grain.min(limit - rows.len())) else {
            break;
        };
        ctx.check_budget()?;
        ctx.charge(&block)?;
        // A block's error is its last row.
        for row in block.into_rows() {
            let row = row?;
            if distinct {
                // contains-before-insert clones only the distinct rows.
                if seen.contains(&row) {
                    continue;
                }
                seen.insert(row.clone());
            }
            rows.push(row);
        }
        grain = (grain * 2).min(DEFAULT_BLOCK_ROWS);
    }
    Ok(rows)
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
    /// ([`Session::share_result_cache`]); consulted by `start`.
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

    /// A session evaluating its queries (and parallel loops' chunks) on a
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
    /// [`Compiled::plan_hash`]; a query started with no limit
    /// ([`Session::start`]) consults and populates it. The same topology caveat as
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
    /// nothing was resident. A driver's batching window needs nothing: it
    /// keeps only flights in the air, so a fetch that starts after the
    /// flush never replays rows fetched before it.
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
    /// two asks of a text compile and the third is a hit, a pointer bump.
    pub fn compile_shared(&self, src: &str) -> KResult<Arc<Compiled>> {
        self.plan_cache.get_or_compile(src, &self.config, || {
            Ok(Arc::new(self.compile_uncached(src)?))
        })
    }

    fn compile_uncached(&self, src: &str) -> KResult<Compiled> {
        self.compile_desugared(cpl::desugar(&parse_expr(src)?, &self.defs)?)
    }

    /// The back half of compilation, shared by a text and a program's
    /// query: typecheck the desugared plan, hash-cons it — identical
    /// subplans within it become one Arc, which the engine's
    /// identity-keyed memo then rewrites once; the table dies with the
    /// call (module docs) — and run the optimizer pipeline.
    fn compile_desugared(&self, raw: Expr) -> KResult<Compiled> {
        let ty = nrc::infer(&raw, &TypeEnv::new())?;
        let catalog = CtxCatalog {
            ctx: &self.ctx,
            plans: &self.plan_cache,
        };
        let shared = Interner::new().intern(&Arc::new(raw.clone()));
        let (optimized, trace) = optimize_shared(shared, &catalog, &self.config);
        let mut deps = Vec::new();
        collect_driver_deps(&raw, &mut deps);
        collect_driver_deps(&optimized, &mut deps);
        deps.sort_unstable();
        deps.dedup();
        Ok(Compiled {
            _shapes: record_shapes(&optimized),
            raw,
            optimized: (*optimized).clone(),
            trace,
            ty,
            deps,
        })
    }

    /// Start evaluating `compiled` — the one way a query starts — and
    /// return its handle at once: the evaluation is a task on the
    /// session's compute executor (or runs on the thread that
    /// [waits](QueryHandle::wait) for it, if that comes first). What is
    /// read, and how far, is `how` ([`How`]): with no limit the result
    /// is read to its end in value position, with a limit the plan is
    /// streamed and stopped after that many rows.
    ///
    /// Without a limit the attached shared result cache (see
    /// [`Session::share_result_cache`]) is consulted here, on the calling
    /// thread, keyed by [`Compiled::plan_hash`] with single-flight
    /// semantics ([`kleisli_core::flight`]):
    ///
    /// * a cached result is the handle's result, with no evaluation
    ///   ([`QueryHandle::from_cache`]);
    /// * a key *currently being computed by another session* is waited
    ///   for here until that computation commits (then a hit), aborts
    ///   (then this caller races for the lead), or the handle's deadline
    ///   or token ends the wait — with the error of a cancelled or late
    ///   query, touching nothing else;
    /// * a cold key is evaluated and committed before the handle resolves
    ///   (the cache keeps it if the key was asked for before: the
    ///   admission rule of [`kleisli_core::flight`]).
    ///
    /// ```
    /// use kleisli::{How, Session};
    /// use kleisli_core::Value;
    ///
    /// let mut session = Session::new();
    /// session.bind_value("DB", Value::set((0..100).map(Value::Int).collect()));
    /// let doubles = session.compile_shared(r"{x * 2 | \x <- DB}").unwrap();
    /// let evens = session.compile_shared(r"{x | \x <- DB, x mod 2 = 0}").unwrap();
    ///
    /// // Both queries are in flight at once; neither start blocks.
    /// let all = session.start(&doubles, How::default());
    /// let five = session.start(&evens, How { limit: Some(5), ..How::default() });
    ///
    /// // A prefix: the evaluation stops once 5 rows are in.
    /// assert_eq!(five.wait().unwrap().len(), Some(5));
    /// // The full result of the other query.
    /// assert_eq!(all.wait().unwrap().len(), Some(100));
    /// ```
    pub fn start(&self, compiled: &Arc<Compiled>, how: How) -> QueryHandle {
        let cancel = how.cancel.unwrap_or_default();
        // Thread the query budget into the evaluation context, with
        // subquery slots of its own: every
        // remote wait and block boundary below this clone observes the
        // deadline and the cancellation token, and every collection
        // charges the byte budget.
        let mut ctx = self.ctx.with_own_cache().with_cancel_token(Arc::clone(&cancel));
        if let Some(budget) = how.deadline {
            ctx = ctx.with_deadline(Instant::now() + budget);
        }
        if let Some(limit) = how.max_bytes {
            ctx = ctx.with_byte_budget(limit);
        }
        let ticket = match (&self.result_cache, how.limit) {
            (Some(cache), None) => {
                let hash = compiled.plan_hash();
                match cache.join(hash, &compiled.deps, ctx.deadline(), Some(&cancel)) {
                    Err(_) => return QueryHandle::resolved(Err(ctx.spent_budget()), cancel, false),
                    Ok(ResultLookup::Hit(v)) => return QueryHandle::resolved(Ok(v), cancel, true),
                    Ok(ResultLookup::Reentrant) => None,
                    Ok(ResultLookup::Miss(ticket)) => Some(ticket),
                }
            }
            _ => None,
        };
        let job = Job {
            compiled: Arc::clone(compiled),
            ctx,
            limit: how.limit,
            ticket,
        };
        QueryHandle {
            task: self.executor().spawn_awaited(move || job.run()),
            cancel,
            from_cache: false,
        }
    }

    /// Compile and evaluate one CPL expression to its end: the
    /// shorthand for [`Session::compile_shared`], [`Session::start`]
    /// with no limit, and [`QueryHandle::wait`].
    pub fn query(&self, src: &str) -> KResult<Value> {
        self.start(&self.compile_shared(src)?, How::default()).wait()
    }

    /// [`Session::start`] with no limit, waited for. Kept only because
    /// the benchmark calls it (ROADMAP item 14).
    pub fn run_compiled(&self, compiled: &Arc<Compiled>) -> KResult<Value> {
        self.start(compiled, How::default()).wait()
    }

    /// [`Session::start`] with no limit. Kept only because the benchmark
    /// calls it (ROADMAP item 14).
    pub fn submit_compiled(&self, compiled: &Arc<Compiled>) -> QueryHandle {
        self.start(compiled, How::default())
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
                    // so program queries do not consult the plan cache.
                    let Some(raw) = desugar_stmt(stmt, &mut self.defs)? else {
                        continue;
                    };
                    let plan = Arc::new(self.compile_desugared(raw)?);
                    out.push(StmtResult::Value(self.start(&plan, How::default()).wait()?));
                }
            }
        }
        Ok(out)
    }

    /// Human-readable compilation report: NRC before/after, fired rules,
    /// and the inferred type.
    pub fn explain(&self, src: &str) -> KResult<String> {
        use std::fmt::Write as _;
        let c = self.compile_shared(src)?;
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

    /// Traffic *and* resilience counters of a registered driver — one set
    /// per driver, shared by every session that registers it, and only
    /// growing: take a snapshot before a phase and
    /// [`MetricsSnapshot::since`] after it.
    pub fn driver_metrics(&self, name: &str) -> KResult<MetricsSnapshot> {
        Ok(self.ctx.driver(name)?.metrics())
    }

    /// A registered driver's circuit-breaker state, when its policy
    /// configures a breaker: the driver's one breaker, which every
    /// session's fetches charge and obey.
    pub fn breaker_state(&self, name: &str) -> Option<kleisli_core::BreakerState> {
        self.ctx.driver(name).ok()?.resilience().breaker_state()
    }

    /// The execution context (for advanced embedding). Register all
    /// drivers *before* taking clones of the context: registration needs
    /// unique ownership.
    pub fn context(&self) -> Arc<Context> {
        Arc::clone(&self.ctx)
    }
}
