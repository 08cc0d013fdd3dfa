//! The block evaluator: the one evaluator of collection-typed NRC.
//!
//! Section 4 of the paper: "each (x, y) pair in the result can be assembled
//! by retrieving a single element x from DB and single element from the set
//! S(x). Where possible, the Kleisli optimizer will lazily retrieve elements
//! from DB and lazily evaluate the function S in order to generate initial
//! output quickly, and minimize storage of intermediate results."
//!
//! `eval_blocks` compiles a collection-valued NRC expression into a
//! pull-based [`BlockSource`]: generators (`Ext`), unions,
//! conditionals, remote scans, joins and cached subqueries all stream;
//! everything else is a value, computed by [`crate::eval()`] — which in turn
//! hands every collection form it meets (a comprehension in a record
//! field, say) back here and drains it, so a plan means the same thing
//! wherever it sits. The unit of transfer is a
//! [`ValueBlock`] whose grain the *consumer* chooses per pull
//! (`next_block(max_rows)`): full drains ask for
//! [`DEFAULT_BLOCK_ROWS`]-row batches — and a generator whose body
//! yields a bounded number of rows evaluates the whole batch in one pass
//! (*One generator operator*, below) — while a prefix consumer
//! (`first_n`) pulls at grain 1, which is byte-identical to the
//! single-row protocol. [`eval_stream`] is exactly that grain-1 view.
//! Every operator here passes on the grain it is asked for: none reads
//! its input a row at a time (the `Cached` tee records the rows of each
//! block it passes).
//!
//! A stream yields elements *without* final collection canonicalization
//! (set deduplication happens only when the stream is collected), which
//! is what makes `first_n` cheap — the intended use, as in the paper, is
//! fast first response on queries whose laziness the optimizer has
//! identified as profitable. A consumer of a set-typed prefix that must
//! not see duplicates counts distinct rows (`kleisli::Session::start`
//! with a limit does). Inside a plan the same
//! shortcut is taken only where the consumer's own canonicalization
//! hides it: a bag or list comprehension over a source that assembles a
//! set (or a list one over a bag) drains and canonicalizes that source
//! first, so a generator sees each element of a set exactly once.
//!
//! Remote scans follow the rule stated once in [`mod@crate::eval`]'s module
//! docs — *strict siblings start together; value position fetches in
//! full; stream position keeps the window; a full fetch is as wide as
//! its reply, and siblings share the width*. This module's share of it:
//! a union's right arm is built ahead when that only puts requests in
//! flight (`try_start`, the step `eval`'s `start` takes for record fields
//! and primitive arguments), a singleton arm starts its element and
//! drains it on first pull, every scan built here without `eval` asking
//! for it in value position (`Fetch::Window`) leaves the driver's
//! `prefetch_rows` the ceiling on rows shipped but unread — and is one
//! request, always — and a value-position scan (`Fetch::Full`) is
//! *planned* where it is met and put on the wire when everything starting
//! with it has been (`Wave`): the requests bound for one source are one
//! [`Context::fetch`] of [`kleisli_core::Fetch::Full`], which splits them
//! together and puts every part in flight before the first is read
//! (`request ‖ request ‖ …`, then `rows ‖ rows ‖ …`, for one scan).
//! [`eval_blocks_to_end`] is the same position offered to a caller
//! outside this crate who drains the blocks itself.
//!
//! # One generator operator
//!
//! Every `Ext` and `Join` is one operator, `Generate`. It expands each
//! source element (a join's outer element) into the block the consumer
//! asked for, through one of two arms (`Expand`):
//!
//! * **`Ext`**: a body with a bounded number of rows — `{e}`, `{}`, or
//!   `if` / `∪` / `let` over such bodies, every piece of the
//!   comprehension's kind — goes through the **body kernel** (`Body`),
//!   which evaluates it straight into the output block. Only the rows
//!   past the consumer's grain wait in a queue for the next pull. A union
//!   whose arms both reach a source is not taken, so its arms still start
//!   together. Any other body is streamed, at the consumer's grain. The
//!   loop's [`nrc::LoopStrategy`] says how its source is pulled: an
//!   element at a time, or — a batched or parallel loop — a chunk at a
//!   time, warmed up (*Warmed-up chunks*, below);
//! * **`Join`**: the probe sends each match's body through the same
//!   kernel, and evaluates a body the kernel cannot take to its
//!   collection.
//!
//! **The pull grain** is one rule: the source is asked for the rows the
//! consumer still wants, divided by the most rows one element can yield,
//! and for one element at a time when that is unbounded (a streamed body,
//! a join); a batched or parallel loop asks for a chunk when it has no
//! element in hand. A grain-1 consumer therefore moves one source row per
//! pull, and a full drain moves whole batches through one loop.
//!
//! **Warmed-up chunks.** A chunk's warm-up leaves each of its elements
//! something (`Warm`), and the elements are then expanded in order, each
//! under what it was left. A chunk is a concurrency boundary, so it does
//! not move with the consumer's grain.
//!
//! * A **batched** loop — an `Ext` the optimizer marked
//!   (`opt::rules::batch`) — takes its source `max_keys` elements at a
//!   time (`warm_up_batch`): the chunk's requests go on the wire as a few
//!   multi-key fetches, and element *i*'s body runs under a context that
//!   carries the handle of its own request (`Context::for_element`). The
//!   body's marked call — every `RemoteApp` of the mark's driver on an
//!   argument equal to the mark's `arg`, also under an inner loop —
//!   replays that handle each time it runs instead of building, hashing
//!   and fetching its request. An element keeps the handles of the marked
//!   loops around it, so an outer loop's marked call in an inner marked
//!   loop's body replays too. A warm-up does not block, so a marked loop
//!   pulls and warms up *two* chunks whenever it has none in hand: the
//!   second chunk's wire requests are in flight while the first's bodies
//!   run, and a prefix consumer costs at most `2 * max_keys` keys per
//!   loop.
//! * A **parallel** loop (the paper's "say five") takes `width` elements,
//!   with no read-ahead, so at most `width` bodies run at once: its
//!   warm-up runs their bodies into pieces (`run_bodies`), and element
//!   *i*'s expansion writes piece *i* through the same `Out` the body
//!   kernel writes to. Every body of the chunk runs, but a failing one's
//!   error is written where element *i* stands, behind the pieces in
//!   front of it.
//!
//! **Rows before errors.** An error — the source's, or a body's, key's or
//! condition's on a later match — goes behind every row the element
//! yielded before it (`Out::fail`), and ends the stream, whatever the
//! grain.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

use kleisli_core::resilience::ResilientHandle;
use kleisli_core::{
    lazy_blocks, shared_blocks, BlockSource, BlockStream, CollKind, DriverRequest, Join, KError,
    KResult, Lead, Value, ValueBlock, DEFAULT_BLOCK_ROWS,
};
use nrc::{Expr, LoopStrategy, Name};
use parking_lot::Mutex;

use crate::context::{request_from_value, Context};
use crate::env::{Env, Rt};
use crate::eval::{eval, eval_cond, eval_rt, start, strict_children, Pending};

/// A pull-based stream of collection elements — the single-row view.
/// [`BlockStream`] boxes iterate at grain 1, so any block stream coerces.
pub type RowStream = Box<dyn Iterator<Item = KResult<Value>> + Send>;

/// Stream the elements of a collection-valued expression one row at a
/// time: the grain-1 view of [`eval_blocks`], byte-identical to the
/// pre-block single-row executor (each pull moves at most one row, and
/// only on demand).
pub fn eval_stream(e: &Expr, env: &Env, ctx: &Context) -> KResult<RowStream> {
    Ok(Box::new(eval_blocks(e, env, ctx)?))
}

/// Stream the elements of a collection-valued expression as row blocks.
/// Operators keep their own clone of `ctx` (one `Arc` bump plus the
/// query's deadline and cancellation token).
pub fn eval_blocks(e: &Expr, env: &Env, ctx: &Context) -> KResult<BlockStream> {
    blocks(e, env, ctx, Want::Any)
}

/// [`eval_blocks`] for a consumer that reads the stream **to its end and
/// keeps every row**: the top of the plan is then in value position (the
/// rule in [`mod@crate::eval`]'s module docs), exactly as if [`crate::eval()`]
/// collected it, while the caller still sees — and can check its budget
/// between — the blocks. A consumer that may stop early must use
/// [`eval_blocks`]: a full fetch ships whatever it is not stopped from
/// shipping.
pub fn eval_blocks_to_end(e: &Expr, env: &Env, ctx: &Context) -> KResult<BlockStream> {
    blocks_to_end(e, env, ctx, Want::Any)
}

/// How a remote scan's rows are fetched ([`kleisli_core::Fetch`], with
/// the wave a full fetch joins); decided by where its stream is consumed
/// (the rule is stated once, in [`mod@crate::eval`]'s module docs).
#[derive(Clone, Copy)]
pub(crate) enum Fetch<'w> {
    /// Stream position: the consumer may stop early or never hold the
    /// rows, so the driver's `prefetch_rows` is the ceiling on rows
    /// shipped but not yet read.
    Window,
    /// Value position: the consumer collects the scan to its end and the
    /// rows are the collection it builds, so the whole reply is fetched
    /// ahead — on as many of the source's connections as it has windows
    /// of rows, shared with the full fetches starting beside it in this
    /// [`Wave`]. Inherited by the arms of a union and by what a singleton
    /// arm starts for its element, and by nothing else.
    Full(&'w Wave),
}

/// What the consumer of a block chain requires of the collection feeding
/// it. The type checker settles this statically; for `any`-typed values
/// (driver rows, runtime-selected branches) it is checked here, wherever
/// a materialized [`Value`] or a collection form of evident kind enters
/// a chain — so a query's top and its nested parts are equally strict.
#[derive(Clone, Copy)]
pub(crate) enum Want {
    /// The top of a query: any collection.
    Any,
    /// The source of a comprehension of the given kind. Generators draw
    /// from any collection kind (the paper: "x <- p.authors matches
    /// elements of a list rather than elements of a set"), and a *set*
    /// comprehension may read a raw stream — duplicates and arrival order
    /// vanish when its own result is canonicalized. A bag comprehension
    /// must see each element of a set once, and a list comprehension must
    /// see a set or bag in canonical order, so for those a source that
    /// assembles such a collection is drained and canonicalized first.
    Source(CollKind),
    /// A union operand or join side (named by the `&str`): this kind.
    Operand(&'static str, CollKind),
    /// One piece of a comprehension or join body: this kind.
    Piece(CollKind),
}

impl Want {
    /// Check a collection entering the chain: `got` is its kind (`None`
    /// for a non-collection) and `name` what to call it in the error.
    fn check(self, got: Option<CollKind>, name: &str) -> KResult<()> {
        let mismatch = match (self, got) {
            (Want::Any | Want::Source(_), Some(_)) => return Ok(()),
            (Want::Operand(_, k) | Want::Piece(k), Some(g)) if g == k => return Ok(()),
            (Want::Any, _) => format!("cannot stream a non-collection ({name})"),
            (Want::Source(_), _) => {
                format!("comprehension generator: expected a collection, got {name}")
            }
            (Want::Operand(what, k), _) => {
                let a = if got.is_some() { "a " } else { "" };
                format!("{what}: expected a {}, got {a}{name}", k.name())
            }
            (Want::Piece(k), _) => {
                format!("comprehension body must produce a {}, got {name}", k.name())
            }
        };
        Err(KError::eval(mismatch))
    }
}

/// The kind of collection `e` itself assembles; `None` for forms that
/// pass one through (`If`, `Let`, `Cached`) or compute a value.
fn built_kind(e: &Expr) -> Option<CollKind> {
    match e {
        Expr::If(..) | Expr::Let { .. } | Expr::Cached { .. } | Expr::Const(_) => None,
        _ => e.coll_kind_hint(),
    }
}

/// The elements of one evaluated comprehension or join body piece.
fn piece_elems(piece: &Value, kind: CollKind) -> KResult<&[Value]> {
    Want::Piece(kind).check(piece.coll_kind(), piece.kind_name())?;
    Ok(piece.elements().expect("checked to be a collection"))
}

/// Must a `consumer`-kind comprehension drain and canonicalize its
/// `source` before reading it? See [`Want::Source`]: a set under a bag or
/// list comprehension, a bag under a list one.
fn canonicalizes_first(consumer: CollKind, source: &Expr) -> bool {
    built_kind(source).is_some_and(|built| {
        consumer != CollKind::Set && built != CollKind::List && built != consumer
    })
}

/// The stream of `e` in stream position.
fn blocks(e: &Expr, env: &Env, ctx: &Context, want: Want) -> KResult<BlockStream> {
    blocks_at(e, env, ctx, want, Fetch::Window)
}

/// The stream of `e` in value position, outermost: the full fetches it
/// starts are one [`Wave`].
pub(crate) fn blocks_to_end(
    e: &Expr,
    env: &Env,
    ctx: &Context,
    want: Want,
) -> KResult<BlockStream> {
    Wave::of(|fetch| blocks_at(e, env, ctx, want, fetch))
}

pub(crate) fn blocks_at(
    e: &Expr,
    env: &Env,
    ctx: &Context,
    want: Want,
    fetch: Fetch,
) -> KResult<BlockStream> {
    if let Some(built) = built_kind(e) {
        want.check(Some(built), built.name())?;
        if let Want::Source(consumer) = want {
            if canonicalizes_first(consumer, e) {
                let v = collect_in(blocks(e, env, ctx, Want::Any)?, built, ctx)?;
                return value_blocks(&v, want);
            }
        }
    }
    match e {
        Expr::Empty(_) => Ok(shared_blocks(Arc::default(), None)),
        Expr::Single(_, inner) => match start(inner, env, ctx, fetch) {
            Pending::Lazy(_) => Ok(shared_blocks(Arc::new(vec![eval(inner, env, ctx)?]), None)),
            // The element has requests in flight; it is drained on first
            // pull, so the sibling arms built next put theirs in flight
            // beside them.
            started => {
                let (env, ctx) = (env.clone(), ctx.clone());
                Ok(lazy_blocks(move || {
                    let v = started.finish(&env, &ctx)?;
                    Ok(shared_blocks(Arc::new(vec![v]), None))
                }))
            }
        },
        Expr::Union(kind, a, b) => {
            let want = Want::Operand("union", *kind);
            let sa = blocks_at(a, env, ctx, want, fetch)?;
            // Strict siblings start together: when building the right
            // operand's stream does nothing but put requests in flight
            // (`prefetchable`), build it *now*, so its round-trips
            // overlap consumption of the left arm — the paper's "keep
            // several requests in flight" traded against strict
            // laziness. In stream position rows stay lazy up to the
            // driver's advertised `prefetch_rows` (`prefetch_rows = 0`
            // drivers ship rows strictly on demand). Anything that would
            // do real work at construction time stays fully lazy: a
            // consumer that stops inside the left operand never
            // evaluates it. A construction error (e.g. a malformed
            // request record) falls back to the lazy path too,
            // preserving the guarantee that a left-arm-only consumer
            // never sees the right arm fail.
            let sb = try_start(b, env, ctx, want, fetch).unwrap_or_else(|| {
                let (b, env2, ctx2) = (Arc::clone(b), env.clone(), ctx.clone());
                // Built on first pull, long after this wave has left.
                let position: fn(&Expr, &Env, &Context, Want) -> _ = match fetch {
                    Fetch::Window => blocks,
                    Fetch::Full(_) => blocks_to_end,
                };
                lazy_blocks(move || position(&b, &env2, &ctx2, want))
            });
            Ok(Box::new(ChainBlocks {
                a: Some(sa),
                b: Some(sb),
            }))
        }
        Expr::Ext {
            kind,
            var,
            body,
            source,
            strategy,
        } => {
            let src = blocks(source, env, ctx, Want::Source(*kind))?;
            // A parallel loop's warm-up evaluates each body whole.
            let kernel = match strategy {
                LoopStrategy::Parallel(_) => Body::Other(Arc::clone(body)),
                _ => Body::of(body, *kind),
            };
            let how = Expand::Ext(Arc::clone(var), kernel, strategy.clone());
            Ok(how.over(src, *kind, env, ctx.for_bodies([&**body])))
        }
        Expr::If(c, t, f) => {
            let branch = if eval_cond(c, env, ctx, "if")? { t } else { f };
            blocks(branch, env, ctx, want)
        }
        Expr::Let { var, def, body } => {
            let d = eval_rt(def, env, ctx)?;
            blocks(body, &env.bind(Arc::clone(var), d), ctx, want)
        }
        Expr::Remote { driver, request } => {
            // Two-phase: the request is in flight from this moment; the
            // stream blocks only when the first block is actually
            // pulled, so independent scans submitted while assembling
            // one pull chain overlap their round-trips. Submission goes
            // through the driver's resilience layer: breaker admission
            // here, deadline and retry when the first pull redeems
            // it.
            PendingBlocks::start(driver, request, ctx, fetch)
        }
        Expr::RemoteApp { driver, arg } => {
            // A marked call replays its element's batch handle: that of the
            // innermost enclosing marked loop whose mark it is.
            let element = ctx.element.as_deref();
            let mut elements = std::iter::successors(element, |e| e.outer.as_deref());
            let own = elements.find(|e| e.mark.driver == *driver && e.mark.arg == *arg);
            if let Some(handle) = own.and_then(|e| e.handle.replay()) {
                return Ok(PendingBlocks::boxed(handle, ctx));
            }
            let argv = eval(arg, env, ctx)?;
            PendingBlocks::start(driver, &request_from_value(&argv)?, ctx, fetch)
        }
        Expr::Join {
            kind,
            left,
            right,
            lvar,
            rvar,
            keys,
            cond,
            body,
        } => {
            // Materialize the inner (right) relation, stream the outer —
            // but build the outer stream *first*: its driver request (if
            // any) is then already in flight while the inner relation is
            // being collected, overlapping the two sources' round-trips.
            let lstream = blocks(left, env, ctx, Want::Operand("join left", *kind))?;
            let right = blocks(right, env, ctx, Want::Operand("join right", *kind))?;
            let rv = collect_rows(right, Some(ctx))?;
            // Each key runs under its own side's variable alone (`nrc::expr`,
            // "Scope"), so the indexed join cannot fold them into `cond`.
            let probe = match keys {
                // Index the inner relation on the fly by its key.
                Some((lk, rk)) => {
                    let mut index: HashMap<Value, Vec<Value>> = HashMap::new();
                    for r in rv {
                        let key = eval(rk, &env.bind(Arc::clone(rvar), Rt::Val(r.clone())), ctx)?;
                        index.entry(key).or_default().push(r);
                    }
                    Probe::Index(Arc::clone(lk), index)
                }
                None => Probe::Scan(rv),
            };
            let keys = keys.iter().flat_map(|(lk, rk)| [&**lk, &**rk]);
            let per_pair = [&**cond, &**body].into_iter().chain(keys);
            let how = Expand::Join {
                probe,
                lvar: Arc::clone(lvar),
                rvar: Arc::clone(rvar),
                cond: Arc::clone(cond),
                body: Body::of(body, *kind),
            };
            Ok(how.over(lstream, *kind, env, ctx.for_bodies(per_pair)))
        }
        Expr::Cached { id, expr } => match ctx.cache_join(*id)? {
            // Hit: stream the memoized rows; no driver traffic at all.
            Join::Hit(v) => value_blocks(&v, want),
            // Re-entrant join (this thread leads the same id higher
            // up): stream the subquery directly, uncached.
            Join::Reentrant => blocks(expr, env, ctx, want),
            // This consumer leads. When the subplan's collection kind is
            // syntactically evident we stream the subquery lazily,
            // teeing rows aside, and commit the canonical collection once
            // the stream is exhausted — so `first_n` over a cached remote
            // scan still pulls only what it needs (an abandoned prefix
            // drops the lead and leaves the slot empty). The lead rides
            // inside the stream, so racing evaluators wait for its commit
            // or its drop exactly as under `eval`'s `Cached` arm.
            Join::Lead(lead) => match expr.coll_kind_hint() {
                Some(kind) => Ok(Box::new(Tee {
                    // An Err here drops the lead on the way out.
                    inner: Some(blocks(expr, env, ctx, want)?),
                    lead: Some(lead),
                    rows: Vec::new(),
                    kind,
                    ctx: ctx.clone(),
                })),
                None => {
                    // Kind unknowable from syntax: compute the value,
                    // commit it, then stream it.
                    let v = eval(expr, env, ctx)?;
                    lead.commit(v.clone());
                    value_blocks(&v, want)
                }
            },
        },
        // Everything else is a value: compute it and stream its elements.
        other => value_blocks(&eval(other, env, ctx)?, want),
    }
}

/// Stream the elements of an already-computed collection value without
/// copying it: the source shares the collection's element vector (one
/// `Arc` bump) and clones elements only as they are pulled — a `first_n`
/// over a huge cache hit touches `n` elements, not the whole collection.
fn value_blocks(v: &Value, want: Want) -> KResult<BlockStream> {
    want.check(v.coll_kind(), v.kind_name())?;
    let (Value::Set(es) | Value::Bag(es) | Value::List(es)) = v else {
        unreachable!("`Want::check` rejects non-collections")
    };
    Ok(shared_blocks(Arc::clone(es), None))
}

/// Pull at most `n` elements from the stream of `e` — the "fast response"
/// path. Returns the elements in arrival order. Pulls at grain 1: the
/// prefix stop must not cause even one row more than demanded to move.
pub fn first_n(e: &Expr, n: usize, env: &Env, ctx: &Context) -> KResult<Vec<Value>> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return Ok(out);
    }
    for item in eval_stream(e, env, ctx)? {
        out.push(item?);
        if out.len() >= n {
            break;
        }
    }
    Ok(out)
}

/// Collect a stream into a canonical collection of the given kind.
pub fn collect_stream(stream: RowStream, kind: CollKind) -> KResult<Value> {
    let elems: Vec<Value> = stream.collect::<KResult<_>>()?;
    Ok(Value::collection(kind, elems))
}

/// Collect a block stream into a canonical collection, draining at the
/// full [`DEFAULT_BLOCK_ROWS`] grain — the batched full-drain path. It
/// charges no byte budget: the evaluation's own collections charge theirs
/// (`collect_in`).
pub fn collect_blocks(stream: BlockStream, kind: CollKind) -> KResult<Value> {
    Ok(Value::collection(kind, collect_rows(stream, None)?))
}

/// [`collect_blocks`] inside an evaluation under `ctx`: the rows are
/// charged to its byte budget ([`Context::with_byte_budget`]) as they are
/// collected into the value.
pub(crate) fn collect_in(stream: BlockStream, kind: CollKind, ctx: &Context) -> KResult<Value> {
    Ok(Value::collection(kind, collect_rows(stream, Some(ctx))?))
}

/// Drain a block stream to a row vector at the full grain, charging each
/// block to `budget`'s byte budget, if given.
fn collect_rows(mut stream: BlockStream, budget: Option<&Context>) -> KResult<Vec<Value>> {
    let mut elems = Vec::new();
    while let Some(b) = stream.next_block(DEFAULT_BLOCK_ROWS) {
        budget.map_or(Ok(()), |ctx| ctx.charge(&b))?;
        for item in b.into_rows() {
            elems.push(item?);
        }
    }
    Ok(elems)
}

/// Lazy population of a cached subquery's slot: passes the inner
/// stream's blocks through at the consumer's grain while teeing their rows
/// aside — a collection the evaluation builds, so each block is charged to
/// the query's byte budget as `collect_in` charges, and the stream ends
/// with the budget's error past it — and commits the canonical collection
/// (`Value::collection`, exactly what draining the subquery yields) when
/// the inner stream is exhausted. An error, or dropping the stream early,
/// drops the lead uncommitted, releasing the slot still empty.
struct Tee {
    /// `None` once exhausted or failed.
    inner: Option<BlockStream>,
    lead: Option<Lead<Value>>,
    rows: Vec<Value>,
    kind: CollKind,
    ctx: Context,
}

impl BlockSource for Tee {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let block = self.inner.as_mut()?.next_block(max_rows);
        match &block {
            Some(b) if !b.ends_with_err() => match self.ctx.charge(b) {
                Ok(()) => self.rows.extend(b.rows().iter().flatten().cloned()),
                Err(e) => {
                    (self.inner, self.lead) = (None, None);
                    return Some(ValueBlock::of_err(e));
                }
            },
            Some(_) => {
                self.inner = None;
                self.lead = None; // do not cache a partial result
            }
            None => {
                self.inner = None;
                if let Some(lead) = self.lead.take() {
                    lead.commit(Value::collection(self.kind, std::mem::take(&mut self.rows)));
                }
            }
        }
        block
    }
}

/// Is building a stream for `e` (or, for a strict operator,
/// [`start`]ing it) effectively free of *blocking* work — nothing beyond
/// non-blocking driver submissions, environment lookups and constant
/// collections — **and** does it put at least one request in flight?
/// Such expressions are started ahead of the siblings in front of them
/// (union arms here, record fields and primitive arguments in
/// [`mod@crate::eval`]); everything else (locals with side work, joins that
/// materialize, cached populations, generators that must canonicalize
/// their source first, or drivers whose `fetch` runs the request
/// inline) keeps the fully lazy path. `RemoteApp` arguments are required
/// to be remote-free because they are evaluated at construction time. A
/// strict operator qualifies when any of its children does: starting it
/// starts those and leaves the rest lazy.
pub(crate) fn prefetchable(e: &Expr, ctx: &Context) -> bool {
    if ctx.remote_free() {
        return false;
    }
    let nonblocking = |driver: &str| {
        ctx.driver(driver)
            .map(|d| d.nonblocking_submit())
            .unwrap_or(false)
    };
    match e {
        Expr::Remote { driver, .. } => nonblocking(driver),
        Expr::RemoteApp { driver, arg } => !arg.touches_remote() && nonblocking(driver),
        Expr::Ext { kind, source, .. } => {
            !canonicalizes_first(*kind, source) && prefetchable(source, ctx)
        }
        Expr::Union(_, a, b) => prefetchable(a, ctx) && prefetchable(b, ctx),
        _ => strict_children(e).any(|child| prefetchable(child, ctx)),
    }
}

/// Build the stream of `e` now, ahead of its turn, if that only puts
/// requests in flight — the one start-ahead step union arms and
/// [`start`] share. `None`: `e` stays lazy.
pub(crate) fn try_start(
    e: &Expr,
    env: &Env,
    ctx: &Context,
    want: Want,
    fetch: Fetch,
) -> Option<BlockStream> {
    if !prefetchable(e, ctx) {
        return None;
    }
    blocks_at(e, env, ctx, want, fetch).ok()
}

/// Two block streams back to back — the union operator. Blocks pass
/// through at the consumer's grain; like the old row-level chain, an
/// error block from the left arm does not gate the right arm (a consumer
/// that stops at the error — all of them in practice — never touches it).
struct ChainBlocks {
    a: Option<BlockStream>,
    b: Option<BlockStream>,
}

impl BlockSource for ChainBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if let Some(a) = &mut self.a {
            if let Some(block) = a.next_block(max_rows) {
                return Some(block);
            }
            self.a = None;
        }
        let b = self.b.as_mut()?;
        match b.next_block(max_rows) {
            Some(block) => Some(block),
            None => {
                self.b = None;
                None
            }
        }
    }
}

/// A driver request in flight: submission already happened (the source is
/// working, bounded by its admission gate); the first pull redeems the
/// handle and then streams blocks as before. Dropping the stream unpulled
/// cancels the request, releasing the driver's admission ticket.
///
/// # Row prefetch (`Capabilities::prefetch_rows`)
///
/// On drivers advertising a positive `prefetch_rows`, the stream this
/// redeems is backed by the driver pool's bounded block-prefetch buffer:
/// the pool worker that performed the request keeps pulling row blocks
/// ahead of whoever consumes this stream (up to `prefetch_rows` rows —
/// or, for a scan submitted in value position, [`Fetch::Full`], to the
/// end of the reply), so per-row transfer latency overlaps consumer work (and other
/// streams' rows — union arms and join sides fill their buffers
/// concurrently). This is the Section-4 laziness trade at *row*
/// granularity, and it composes with `nonblocking_submit` the same way
/// request prefetch does: only pool-submitting drivers ever prefetch, so
/// one-method (default-adapter) drivers and `prefetch_rows = 0` drivers
/// keep the fully-lazy, byte-identical pull behavior — `first_n` over
/// them ships exactly the demanded prefix. Over a prefetching driver,
/// `first_n` may leave up to a buffer's worth of rows
/// shipped-but-unread; dropping this stream early closes that buffer
/// (stopping refill work at the next block boundary), drops the buffered
/// blocks, and cancels/releases the request's admission ticket — nothing
/// leaks. A join's inner collection simply drains the buffer to
/// exhaustion.
struct PendingBlocks {
    handle: Option<ResilientHandle>,
    inner: Option<BlockStream>,
    /// The query budget, checked at every block boundary so a mid-stream
    /// stall resolves as `Timeout`/`Cancelled` at the next pull instead of
    /// silently hanging the consumer forever. (Grain-1 consumers check
    /// per row.)
    ctx: Context,
    failed: bool,
}

impl PendingBlocks {
    /// `req` in flight through the driver's resilience layer: on the
    /// wire now in stream position, with its [`Wave`] in value position.
    fn start(
        driver: &str,
        req: &DriverRequest,
        ctx: &Context,
        fetch: Fetch,
    ) -> KResult<BlockStream> {
        match fetch {
            Fetch::Window => {
                let req = std::slice::from_ref(req);
                let mut handles = ctx.fetch(driver, req, kleisli_core::Fetch::Window);
                Ok(PendingBlocks::boxed(handles.pop().expect("a handle a request")?, ctx))
            }
            Fetch::Full(wave) => Ok(wave.plan(driver, req, ctx)),
        }
    }

    fn boxed(handle: ResilientHandle, ctx: &Context) -> BlockStream {
        Box::new(PendingBlocks {
            ctx: ctx.clone(),
            handle: Some(handle),
            inner: None,
            failed: false,
        })
    }
}

/// The full fetches starting together: every value-position scan one
/// outermost start meets — record fields, primitive arguments, union
/// arms, singleton elements, however nested — is *planned* here, and all
/// of them are put on the wire when the start returns, one
/// [`Context::fetch`] per source. Planning before fetching is what lets
/// the scans bound for one source be split **together**, so siblings
/// share the source's width instead of each filling it alone (the fourth
/// clause of the rule in [`mod@crate::eval`]'s module docs). Nothing
/// pulls a planned stream before its wave is launched: whatever blocks
/// while the wave is open evaluates under a wave of its own.
#[derive(Default)]
pub(crate) struct Wave {
    /// In source order. A plan whose stream was dropped before the
    /// launch asks for nothing.
    plans: RefCell<Vec<Weak<Planned>>>,
}

/// One planned full fetch, owned by its stream.
struct Planned {
    driver: String,
    req: DriverRequest,
    ctx: Context,
    /// What the launch put in flight, until the first pull takes it.
    launched: Mutex<Option<BlockStream>>,
}

impl Wave {
    /// What `build` builds in value position, its full fetches launched
    /// together.
    pub(crate) fn of<T>(build: impl FnOnce(Fetch) -> T) -> T {
        let wave = Wave::default();
        let built = build(Fetch::Full(&wave));
        let plans: Vec<_> = wave.plans.take().iter().filter_map(Weak::upgrade).collect();
        for (plan, stream) in plans.iter().zip(Planned::launch(&plans)) {
            // A scan that fails to start stays lazy: it is fetched again,
            // and fails, when its turn comes.
            *plan.launched.lock() = stream.ok();
        }
        built
    }

    fn plan(&self, driver: &str, req: &DriverRequest, ctx: &Context) -> BlockStream {
        let plan = Arc::new(Planned {
            driver: driver.to_string(),
            req: req.clone(),
            ctx: ctx.clone(),
            launched: Mutex::new(None),
        });
        self.plans.borrow_mut().push(Arc::downgrade(&plan));
        lazy_blocks(move || {
            let launched = plan.launched.lock().take();
            launched.map_or_else(|| Planned::launch(&[plan]).remove(0), Ok)
        })
    }
}

impl Planned {
    /// Put `plans` on the wire as full fetches, one fetch per source for
    /// all the plans bound for it, in order.
    fn launch(plans: &[Arc<Planned>]) -> Vec<KResult<BlockStream>> {
        let mut streams: Vec<Option<KResult<BlockStream>>> = plans.iter().map(|_| None).collect();
        for (i, first) in plans.iter().enumerate() {
            // Once per source, at its first plan.
            if streams[i].is_some() {
                continue;
            }
            let same_source = |j: &usize| plans[*j].driver == first.driver;
            let at: Vec<usize> = (i..plans.len()).filter(same_source).collect();
            let reqs: Vec<DriverRequest> = at.iter().map(|&j| plans[j].req.clone()).collect();
            let handles = first.ctx.fetch(&first.driver, &reqs, kleisli_core::Fetch::Full);
            for (j, handle) in at.into_iter().zip(handles) {
                streams[j] = Some(handle.map(|h| PendingBlocks::boxed(h, &plans[j].ctx)));
            }
        }
        streams.into_iter().map(|s| s.expect("every plan fetched")).collect()
    }
}

impl BlockSource for PendingBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.failed {
            return None;
        }
        if self.inner.is_none() {
            match self.handle.take()?.wait() {
                Ok(s) => self.inner = Some(s),
                Err(e) => {
                    self.failed = true;
                    return Some(ValueBlock::of_err(e));
                }
            }
        }
        if let Err(e) = self.ctx.check_budget() {
            self.failed = true;
            // Drop the redeemed stream now: over a prefetching driver
            // this closes the block buffer and stops refill work.
            self.inner = None;
            return Some(ValueBlock::of_err(e));
        }
        self.inner.as_mut()?.next_block(max_rows)
    }
}

/// How the join operator finds an outer element's inner candidates —
/// the one thing the two Section-4 operators differ in, chosen by whether
/// the join has keys.
enum Probe {
    /// Blocked nested loop [Kim 80], a join without keys: every element
    /// of the materialized inner relation.
    Scan(Vec<Value>),
    /// Indexed nested loop [Nakayama et al. 88], a join with keys: the
    /// inner elements whose right key equals the outer element's left key
    /// (held here), by an index built on the fly.
    Index(Arc<Expr>, HashMap<Value, Vec<Value>>),
}

/// The one generator operator, of `Ext` and `Join` (module
/// docs, "One generator operator"): the source — a join's outer side — is
/// pulled at the pull-grain rule's grain, or a chunk at a time, and each
/// element expands into the block the consumer asked for.
struct Generate {
    /// `None` once exhausted or failed.
    source: Option<BlockStream>,
    /// Source rows pulled but not yet expanded.
    elems: VecDeque<KResult<Value>>,
    /// A batched or parallel loop's: what the warm-up left each element
    /// in `elems` (`None` where it left nothing), in order.
    warm: VecDeque<Option<Warm>>,
    /// The rows an element yielded past the consumer's grain, in order,
    /// and the error that ends the stream behind them.
    overflow: VecDeque<KResult<Value>>,
    /// The body stream of the element being expanded ([`Body::Other`]).
    streaming: Option<BlockStream>,
    /// The most rows one element yields; `None` when unbounded.
    per_elem: Option<usize>,
    how: Expand,
    kind: CollKind,
    env: Env,
    ctx: Context,
    failed: bool,
}

enum Expand {
    /// An `Ext`: the body through the kernel, or else streamed; a chunk
    /// warmed up at a time when the loop is batched or parallel.
    Ext(Name, Body, LoopStrategy),
    /// A join: every match's body through the kernel, or else evaluated.
    Join {
        probe: Probe,
        lvar: Name,
        rvar: Name,
        cond: Arc<Expr>,
        body: Body,
    },
}

/// What a chunk's warm-up left one of its elements (module docs,
/// "Warmed-up chunks").
enum Warm {
    /// A batched loop's: the context the body runs under, whose marked
    /// call replays the element's batch handle.
    Under(Context),
    /// A parallel loop's: the body's piece.
    Piece(KResult<Value>),
}

/// Pull up to `grain` rows of `source` into `into`, filled across its
/// blocks. A source error ends the pull, last; `source` is `None` once it
/// ended or failed.
fn pull(source: &mut Option<BlockStream>, grain: usize, into: &mut VecDeque<KResult<Value>>) {
    let end = into.len() + grain;
    while into.len() < end {
        let Some(block) = source.as_mut().and_then(|s| s.next_block(end - into.len())) else {
            *source = None;
            break;
        };
        if block.ends_with_err() {
            *source = None;
        }
        into.extend(block.into_rows());
    }
}

/// The body kernel's view of a body of a `kind` comprehension or join:
/// one with a bounded number of rows — `{}`, `{e}`, or `if` / `∪` / `let`
/// over such bodies, every piece of kind `kind` — is evaluated straight
/// into the output block, and no body stream is built.
enum Body {
    Empty,
    Single(Arc<Expr>),
    If(Arc<Expr>, Box<Body>, Box<Body>),
    Union(Box<Body>, Box<Body>),
    Let(Name, Arc<Expr>, Box<Body>),
    /// Any other body.
    Other(Arc<Expr>),
}

impl Body {
    fn of(body: &Arc<Expr>, kind: CollKind) -> Body {
        Body::bounded(body, kind).unwrap_or_else(|| Body::Other(Arc::clone(body)))
    }

    fn bounded(e: &Expr, kind: CollKind) -> Option<Body> {
        let of = |e: &Expr| Body::bounded(e, kind).map(Box::new);
        Some(match e {
            Expr::Empty(k) if *k == kind => Body::Empty,
            Expr::Single(k, inner) if *k == kind => Body::Single(Arc::clone(inner)),
            Expr::If(c, t, f) => Body::If(Arc::clone(c), of(t)?, of(f)?),
            // Arms that both reach a source are streamed: they start together.
            Expr::Union(k, a, b) if *k == kind && !(a.touches_remote() && b.touches_remote()) => {
                Body::Union(of(a)?, of(b)?)
            }
            Expr::Let { var, def, body } => Body::Let(Arc::clone(var), Arc::clone(def), of(body)?),
            _ => return None,
        })
    }

    /// The most rows one evaluation yields; `None` when unbounded.
    fn rows(&self) -> Option<usize> {
        match self {
            Body::Empty => Some(0),
            Body::Single(_) => Some(1),
            Body::If(_, t, f) => Some(t.rows()?.max(f.rows()?)),
            Body::Union(t, u) => Some(t.rows()? + u.rows()?),
            Body::Let(_, _, body) => body.rows(),
            Body::Other(_) => None,
        }
    }

    /// Evaluate the body into `out`, in order; the rows written before
    /// an error stay written.
    fn write(&self, env: &Env, ctx: &Context, kind: CollKind, out: &mut Out) -> KResult<()> {
        match self {
            Body::Empty => {}
            Body::Single(e) => out.push(eval(e, env, ctx)?),
            Body::If(c, t, f) => {
                let branch = if eval_cond(c, env, ctx, "if")? { t } else { f };
                match &**branch {
                    Body::Single(e) => out.push(eval(e, env, ctx)?),
                    Body::Empty => {}
                    branch => branch.write(env, ctx, kind, out)?,
                }
            }
            Body::Union(t, u) => {
                t.write(env, ctx, kind, out)?;
                u.write(env, ctx, kind, out)?
            }
            Body::Let(var, def, body) => {
                let env = env.bind(Arc::clone(var), eval_rt(def, env, ctx)?);
                body.write(&env, ctx, kind, out)?
            }
            Body::Other(e) => out.write_piece(&eval(e, env, ctx)?, kind)?,
        }
        Ok(())
    }
}

/// The block one pull fills, and where the rows past its grain go.
struct Out<'a> {
    block: ValueBlock,
    max: usize,
    overflow: &'a mut VecDeque<KResult<Value>>,
}

impl Out<'_> {
    fn push(&mut self, v: Value) {
        if self.block.len() < self.max {
            self.block.push_row(v)
        } else {
            self.overflow.push_back(Ok(v))
        }
    }

    /// Write the elements of a body's `piece`, in order.
    fn write_piece(&mut self, piece: &Value, kind: CollKind) -> KResult<()> {
        piece_elems(piece, kind)?.iter().for_each(|v| self.push(v.clone()));
        Ok(())
    }

    /// End the stream with `e`, behind every row written so far.
    fn fail(&mut self, e: KError) {
        if self.block.len() < self.max {
            self.block.push_err(e)
        } else {
            self.overflow.push_back(Err(e))
        }
    }
}

impl Expand {
    /// The generator that expands each element of `source` this way.
    fn over(self, source: BlockStream, kind: CollKind, env: &Env, ctx: Context) -> BlockStream {
        Box::new(Generate {
            source: Some(source),
            elems: VecDeque::new(),
            warm: VecDeque::new(),
            overflow: VecDeque::new(),
            streaming: None,
            per_elem: match &self {
                Expand::Ext(_, body, _) => body.rows(),
                Expand::Join { .. } => None,
            },
            how: self,
            kind,
            env: env.clone(),
            ctx,
            failed: false,
        })
    }

    /// Expand the element `el` into `out`, under what its chunk's warm-up
    /// left it; a streamed body's stream is returned instead.
    fn expand(
        &self,
        el: Value,
        warm: Option<Warm>,
        (kind, env, ctx): (CollKind, &Env, &Context),
        out: &mut Out,
    ) -> KResult<Option<BlockStream>> {
        let (lvar, probe, rvar, cond, body) = match self {
            Expand::Ext(var, body, _) => {
                let ctx = match warm {
                    Some(Warm::Piece(piece)) => {
                        return out.write_piece(&piece?, kind).map(|()| None);
                    }
                    Some(Warm::Under(ctx)) => Cow::Owned(ctx),
                    None => Cow::Borrowed(ctx),
                };
                let env = env.bind(Arc::clone(var), Rt::Val(el));
                return match body {
                    Body::Other(body) => blocks(body, &env, &ctx, Want::Piece(kind)).map(Some),
                    body => body.write(&env, &ctx, kind, out).map(|()| None),
                };
            }
            Expand::Join { probe, lvar, rvar, cond, body } => (lvar, probe, rvar, cond, body),
        };
        let lenv = env.bind(Arc::clone(lvar), Rt::Val(el));
        let candidates = match probe {
            Probe::Scan(right) => right.as_slice(),
            Probe::Index(lk, index) => match index.get(&eval(lk, &lenv, ctx)?) {
                Some(matches) => matches.as_slice(),
                None => return Ok(None),
            },
        };
        for r in candidates {
            let env = lenv.bind(Arc::clone(rvar), Rt::Val(r.clone()));
            if eval_cond(cond, &env, ctx, "join")? {
                body.write(&env, ctx, kind, out)?;
            }
        }
        Ok(None)
    }
}

impl BlockSource for Generate {
    /// The next block, of at most `max_rows` rows.
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.failed {
            return None;
        }
        let max = max_rows.max(1);
        let block = ValueBlock::with_capacity(self.overflow.len().min(max));
        let mut out = Out { block, max, overflow: &mut self.overflow };
        // What an element yielded past the last pull's grain comes first.
        // Within a pull, only a full block overflows.
        while out.block.len() < max {
            match out.overflow.pop_front() {
                Some(Ok(v)) => out.block.push_row(v),
                Some(Err(e)) => out.block.push_err(e),
                None => break,
            }
        }
        loop {
            if out.block.len() == max || out.block.ends_with_err() {
                self.failed = out.block.ends_with_err();
                return Some(out.block);
            }
            if let Some(body) = &mut self.streaming {
                match body.next_block(max - out.block.len()) {
                    Some(b) => out.block.append(b),
                    None => self.streaming = None,
                }
                continue;
            }
            if self.elems.is_empty() {
                if self.source.is_none() {
                    return (!out.block.is_empty()).then_some(out.block);
                }
                // A chunk when none is in hand (module docs, "Warmed-up
                // chunks"): two of a batched loop, one of a parallel one.
                match &self.how {
                    Expand::Ext(var, _, LoopStrategy::Batched(mark)) => {
                        for _ in 0..2 {
                            pull(&mut self.source, mark.max_keys.max(1), &mut self.elems);
                            let chunk = self.elems.range(self.warm.len()..);
                            let warm = warm_up_batch(mark, var, chunk, &self.env, &self.ctx);
                            self.warm.extend(warm);
                        }
                    }
                    Expand::Ext(var, Body::Other(body), LoopStrategy::Parallel(width)) => {
                        pull(&mut self.source, (*width).max(1), &mut self.elems);
                        let chunk = self.elems.iter();
                        self.warm.extend(run_bodies(body, var, chunk, &self.env, &self.ctx));
                    }
                    // The pull-grain rule.
                    _ => {
                        let want = max - out.block.len();
                        let grain = self.per_elem.map_or(1, |n| (want / n.max(1)).max(1));
                        pull(&mut self.source, grain, &mut self.elems);
                    }
                }
            }
            // Room for what the elements in hand can yield, not for the
            // whole grain: a bounded body's rows each, a default block for
            // a streamed body or a join.
            let room = self.per_elem.map_or(DEFAULT_BLOCK_ROWS, |n| n * self.elems.len());
            out.block.reserve(room.min(max - out.block.len()));
            // Expand the elements pulled while the block has room.
            while out.block.len() < max {
                let Some(el) = self.elems.pop_front() else {
                    break;
                };
                let warm = self.warm.pop_front().flatten();
                let at = (self.kind, &self.env, &self.ctx);
                match el.and_then(|el| self.how.expand(el, warm, at, &mut out)) {
                    Ok(None) => {}
                    Ok(stream) => {
                        self.streaming = stream;
                        break;
                    }
                    // Rows before errors: the error that ends the stream
                    // goes behind every row the element yielded.
                    Err(e) => {
                        out.fail(e);
                        break;
                    }
                }
            }
        }
    }
}

/// The batching warm-up of a marked loop's chunk: evaluate the mark's
/// request argument for every element of `chunk` (it is pure-local by the
/// optimizer's construction, so this duplicates no driver effects), ship
/// the requests as a few multi-key wire round-trips — one
/// [`Context::fetch`] of [`kleisli_core::Fetch::Batch`] — and return one
/// handle per element, which its body replays. Any surprise — an argument
/// that fails to evaluate, a non-request value, a request no batch can
/// carry, a driver without batching — skips the warm-up: every element
/// gets `None`, and its body then behaves exactly as unbatched, surfacing
/// its own errors in their usual place. A returned handle therefore
/// answers its element's request; it is left to the element in the
/// context its body runs under.
fn warm_up_batch<'a>(
    mark: &nrc::BatchSpec,
    var: &Name,
    chunk: impl Iterator<Item = &'a KResult<Value>> + Clone,
    env: &Env,
    ctx: &Context,
) -> Vec<Option<Warm>> {
    let elems = chunk.flatten();
    let request = |v: &Value| {
        let env = env.bind(Arc::clone(var), Rt::Val(v.clone()));
        let v = eval(&mark.arg, &env, ctx).ok()?;
        request_from_value(&v)
            .ok()
            .filter(DriverRequest::coalescable)
    };
    let reqs: Option<Vec<DriverRequest>> = elems.clone().map(request).collect();
    let handles = reqs.filter(|reqs| !reqs.is_empty()).and_then(|reqs| {
        let handles = ctx.fetch(&mark.driver, &reqs, kleisli_core::Fetch::Batch);
        handles.into_iter().collect::<KResult<Vec<_>>>().ok()
    });
    match handles {
        Some(handles) => {
            handles.into_iter().map(|h| Some(Warm::Under(ctx.for_element(mark, h)))).collect()
        }
        None => elems.map(|_| None).collect(),
    }
}

/// The warm-up of a parallel loop's chunk, the parallel-retrieval
/// primitive of Section 4 ("Laziness, Latency, and Concurrency"):
/// evaluate `body` for every element of `chunk` at once — the chunk is as
/// wide as the server's tolerated number of requests, so requests to
/// remote servers overlap, but no more than that many run at once — and
/// leave each element its piece, in order.
///
/// The bodies run through [`kleisli_core::Executor::run_all`] on the
/// context's executor — tasks own cheap clones of the body `Arc`, the
/// environment and the context handle, so no OS thread is ever created
/// per element — and the caller runs every body no worker has claimed,
/// which keeps nested parallel loops deadlock-free on the bounded pool. A
/// body that panics leaves an evaluation error.
fn run_bodies<'a>(
    body: &Arc<Expr>,
    var: &Name,
    chunk: impl Iterator<Item = &'a KResult<Value>>,
    env: &Env,
    ctx: &Context,
) -> Vec<Option<Warm>> {
    let tasks = chunk.flatten().map(|v| {
        let env = env.bind(Arc::clone(var), Rt::Val(v.clone()));
        let (body, ctx) = (Arc::clone(body), ctx.clone());
        Box::new(move || eval(&body, &env, &ctx)) as Box<dyn FnOnce() -> KResult<Value> + Send>
    });
    let pieces = ctx.executor().run_all(tasks.collect());
    let panicked = || Err(KError::eval("worker thread panicked"));
    pieces.into_iter().map(|piece| Some(Warm::Piece(piece.unwrap_or_else(panicked)))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::{
        blocks_of_rows, BlockStream, Capabilities, Driver, DriverRequest, DriverResilience,
        MetricsSnapshot,
    };
    use nrc::name;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// A driver that yields `rows` integers and counts how many were
    /// actually pulled — the laziness probe.
    struct CountingDriver {
        rows: i64,
        pulled: Arc<AtomicU64>,
        resilience: OnceLock<Arc<DriverResilience>>,
    }

    impl Driver for CountingDriver {
        fn name(&self) -> &str {
            "counting"
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::default()
        }
        fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
            let pulled = Arc::clone(&self.pulled);
            let rows = self.rows;
            Ok(blocks_of_rows(Box::new((0..rows).map(move |i| {
                pulled.fetch_add(1, Ordering::Relaxed);
                Ok(Value::record_from(vec![("n", Value::Int(i))]))
            }))))
        }
        fn metrics(&self) -> MetricsSnapshot {
            MetricsSnapshot::default()
        }
        fn resilience(&self) -> &Arc<DriverResilience> {
            self.resilience.get_or_init(|| DriverResilience::of(self, Arc::default()))
        }
    }

    fn counting_ctx(rows: i64) -> (Arc<Context>, Arc<AtomicU64>) {
        let pulled = Arc::new(AtomicU64::new(0));
        let mut ctx = Context::new();
        ctx.register_driver(Arc::new(CountingDriver {
            rows,
            pulled: Arc::clone(&pulled),
            resilience: OnceLock::new(),
        }));
        (Arc::new(ctx), pulled)
    }

    fn remote_scan() -> Expr {
        Expr::Remote {
            driver: name("counting"),
            request: DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        }
    }

    #[test]
    fn first_n_pulls_only_what_it_needs() {
        let (ctx, pulled) = counting_ctx(100_000);
        // U{ {x.n} | \x <- REMOTE }
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
            remote_scan(),
        );
        // An empty prefix starts nothing.
        assert_eq!(first_n(&e, 0, &Env::empty(), &ctx).unwrap(), Vec::<Value>::new());
        assert_eq!(pulled.load(Ordering::Relaxed), 0, "pulled rows for an empty prefix");
        let got = first_n(&e, 5, &Env::empty(), &ctx).unwrap();
        assert_eq!(got.len(), 5);
        assert!(
            pulled.load(Ordering::Relaxed) <= 6,
            "pulled {} rows for 5 results",
            pulled.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn stream_agrees_with_eager_eval_on_sets() {
        let (ctx, _) = counting_ctx(50);
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::if_(
                Expr::eq(
                    Expr::prim(
                        nrc::Prim::Mod,
                        vec![Expr::proj(Expr::var("x"), "n"), Expr::int(2)],
                    ),
                    Expr::int(0),
                ),
                Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
                Expr::Empty(CollKind::Set),
            ),
            remote_scan(),
        );
        let expected = crate::reference::eval(&e, &Env::empty(), &ctx).unwrap();
        let streamed =
            collect_stream(eval_stream(&e, &Env::empty(), &ctx).unwrap(), CollKind::Set).unwrap();
        assert_eq!(expected, streamed);
        assert_eq!(expected, eval(&e, &Env::empty(), &ctx).unwrap());
        assert_eq!(expected.len(), Some(25));
    }

    #[test]
    fn block_drain_agrees_with_row_drain() {
        // The batched full-drain path (fused filter/project at
        // DEFAULT_BLOCK_ROWS grain) and the grain-1 view must produce
        // identical collections.
        let (ctx, _) = counting_ctx(500);
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::if_(
                Expr::eq(
                    Expr::prim(
                        nrc::Prim::Mod,
                        vec![Expr::proj(Expr::var("x"), "n"), Expr::int(3)],
                    ),
                    Expr::int(0),
                ),
                Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
                Expr::Empty(CollKind::Set),
            ),
            remote_scan(),
        );
        let rows =
            collect_stream(eval_stream(&e, &Env::empty(), &ctx).unwrap(), CollKind::Set).unwrap();
        let blocks =
            collect_blocks(eval_blocks(&e, &Env::empty(), &ctx).unwrap(), CollKind::Set).unwrap();
        assert_eq!(rows, blocks);
        assert_eq!(blocks.len(), Some(167));
    }

    #[test]
    fn blocks_honor_the_consumer_grain() {
        let (ctx, _) = counting_ctx(100);
        let e = Expr::ext(
            CollKind::Bag,
            "x",
            Expr::single(CollKind::Bag, Expr::proj(Expr::var("x"), "n")),
            remote_scan(),
        );
        let mut s = eval_blocks(&e, &Env::empty(), &ctx).unwrap();
        let b = s.next_block(7).unwrap();
        assert_eq!(b.len(), 7, "a fused generator fills the requested grain");
        let b = s.next_block(1).unwrap();
        assert_eq!(b.len(), 1);
        let mut total = 8;
        while let Some(b) = s.next_block(DEFAULT_BLOCK_ROWS) {
            assert!(b.len() <= DEFAULT_BLOCK_ROWS);
            total += b.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn union_right_side_rows_stay_lazy() {
        // The right arm's *request* may be prefetched on non-blocking
        // drivers (CountingDriver uses the blocking default adapter, so
        // here it is not even submitted), and its rows must never be
        // pulled by a consumer that stops inside the left arm.
        let (ctx, pulled) = counting_ctx(1000);
        let e = Expr::union(
            CollKind::Set,
            Expr::single(CollKind::Set, Expr::int(-1)),
            Expr::ext(
                CollKind::Set,
                "x",
                Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
                remote_scan(),
            ),
        );
        let got = first_n(&e, 1, &Env::empty(), &ctx).unwrap();
        assert_eq!(got, vec![Value::Int(-1)]);
        assert_eq!(pulled.load(Ordering::Relaxed), 0, "no rows may be pulled");
    }

    #[test]
    fn union_right_side_with_local_work_is_not_prefetched() {
        // A right arm whose construction would do real local work (here a
        // Let) keeps the fully lazy path: nothing of it runs at all.
        let (ctx, pulled) = counting_ctx(1000);
        let e = Expr::union(
            CollKind::Set,
            Expr::single(CollKind::Set, Expr::int(-1)),
            Expr::let_(
                "s",
                Expr::int(0),
                Expr::ext(
                    CollKind::Set,
                    "x",
                    Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
                    remote_scan(),
                ),
            ),
        );
        let got = first_n(&e, 1, &Env::empty(), &ctx).unwrap();
        assert_eq!(got, vec![Value::Int(-1)]);
        assert_eq!(pulled.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn streaming_joins_agree_with_eager() {
        let left = Expr::Const(Value::set(
            (0..20)
                .map(|i| Value::record_from(vec![("k", Value::Int(i % 4)), ("a", Value::Int(i))]))
                .collect(),
        ));
        let right = Expr::Const(Value::set(
            (0..15)
                .map(|i| Value::record_from(vec![("k", Value::Int(i % 3)), ("b", Value::Int(i))]))
                .collect(),
        ));
        let body = Expr::single(
            CollKind::Set,
            Expr::record(vec![
                ("a", Expr::proj(Expr::var("l"), "a")),
                ("b", Expr::proj(Expr::var("r"), "b")),
            ]),
        );
        // Blocked: no keys, the equality in `cond`; indexed: keys too.
        let key = |v: &str| Arc::new(Expr::proj(Expr::var(v), "k"));
        for keys in [None, Some((key("l"), key("r")))] {
            let e = Expr::Join {
                kind: CollKind::Set,
                left: Arc::new(left.clone()),
                right: Arc::new(right.clone()),
                lvar: name("l"),
                rvar: name("r"),
                keys,
                cond: Arc::new(Expr::eq(
                    Expr::proj(Expr::var("l"), "k"),
                    Expr::proj(Expr::var("r"), "k"),
                )),
                body: Arc::new(body.clone()),
            };
            let ctx = Arc::new(Context::new());
            let expected = crate::reference::eval(&e, &Env::empty(), &ctx).unwrap();
            let streamed =
                collect_stream(eval_stream(&e, &Env::empty(), &ctx).unwrap(), CollKind::Set)
                    .unwrap();
            let blocked =
                collect_blocks(eval_blocks(&e, &Env::empty(), &ctx).unwrap(), CollKind::Set)
                    .unwrap();
            assert_eq!(expected, streamed);
            assert_eq!(expected, blocked);
            assert_eq!(expected, eval(&e, &Env::empty(), &ctx).unwrap());
        }
    }

    #[test]
    fn par_chunk_stream_matches_sequential() {
        let src = Expr::Const(Value::set((0..30).map(Value::Int).collect()));
        let body = Expr::single(
            CollKind::Set,
            Expr::prim(nrc::Prim::Add, vec![Expr::var("x"), Expr::int(100)]),
        );
        let par = Expr::Ext {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body.clone()),
            source: Arc::new(src.clone()),
            strategy: LoopStrategy::Parallel(4),
        };
        let seq = Expr::ext(CollKind::Set, "x", body, src);
        let ctx = Arc::new(Context::new());
        let a = collect_stream(
            eval_stream(&par, &Env::empty(), &ctx).unwrap(),
            CollKind::Set,
        )
        .unwrap();
        let b = crate::reference::eval(&seq, &Env::empty(), &ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors_propagate_through_streams() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(nrc::Prim::Div, vec![Expr::int(1), Expr::var("x")]),
            ),
            Expr::Const(Value::set(vec![Value::Int(0)])),
        );
        let ctx = Arc::new(Context::new());
        let items: Vec<_> = eval_stream(&e, &Env::empty(), &ctx).unwrap().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }

    #[test]
    fn a_mid_batch_error_ships_the_good_rows_first() {
        // 1/(5-x) over 0..8: rows 0..4 evaluate, x=5 divides by zero.
        // In one fused batch, the good rows arrive in front of the
        // error, and the stream ends after it — exactly the single-row
        // order.
        let e = Expr::ext(
            CollKind::List,
            "x",
            Expr::single(
                CollKind::List,
                Expr::prim(
                    nrc::Prim::Div,
                    vec![
                        Expr::int(1),
                        Expr::prim(nrc::Prim::Sub, vec![Expr::int(5), Expr::var("x")]),
                    ],
                ),
            ),
            Expr::Const(Value::list((0..8).map(Value::Int).collect())),
        );
        let ctx = Arc::new(Context::new());
        let mut s = eval_blocks(&e, &Env::empty(), &ctx).unwrap();
        let b = s.next_block(DEFAULT_BLOCK_ROWS).unwrap();
        assert_eq!(b.len(), 6, "five good rows, then the error");
        assert!(b.ends_with_err());
        assert!(b.rows()[..5].iter().all(|r| r.is_ok()));
        assert!(s.next_block(DEFAULT_BLOCK_ROWS).is_none(), "ends after the error");
        // The grain-1 view sees the same rows in the same order.
        let items: Vec<_> = eval_stream(&e, &Env::empty(), &ctx).unwrap().collect();
        assert_eq!(items.len(), 6);
        assert!(items[5].is_err());
    }

    #[test]
    fn a_join_ships_the_rows_before_a_failing_match() {
        // [1/(5-r) | \l <- [0], \r <- [0..8]]: the matches r = 0..4
        // evaluate and r = 5 divides by zero. Under either strategy the
        // five rows come out in front of the error, at any grain — also
        // the one they fill exactly.
        let list = |n: i64| Expr::Const(Value::list((0..n).map(Value::Int).collect()));
        let zero = |v: &str| Expr::prim(nrc::Prim::Mul, vec![Expr::var(v), Expr::int(0)]);
        let body = Expr::single(
            CollKind::List,
            Expr::prim(
                nrc::Prim::Div,
                vec![
                    Expr::int(1),
                    Expr::prim(nrc::Prim::Sub, vec![Expr::int(5), Expr::var("r")]),
                ],
            ),
        );
        let ctx = Arc::new(Context::new());
        // Blocked: no keys, the equality in `cond`; indexed: the keys.
        let on_zero = Expr::eq(zero("l"), zero("r"));
        for (what, keys, cond) in [
            ("blocked", None, on_zero),
            ("indexed", Some((Arc::new(zero("l")), Arc::new(zero("r")))), Expr::bool(true)),
        ] {
            let e = Expr::Join {
                kind: CollKind::List,
                left: Arc::new(list(1)),
                right: Arc::new(list(8)),
                lvar: name("l"),
                rvar: name("r"),
                keys,
                cond: Arc::new(cond),
                body: Arc::new(body.clone()),
            };
            for grain in [DEFAULT_BLOCK_ROWS, 5, 1] {
                let mut s = eval_blocks(&e, &Env::empty(), &ctx).unwrap();
                let mut rows = Vec::new();
                while let Some(b) = s.next_block(grain) {
                    assert!(b.len() <= grain);
                    rows.extend(b.into_rows());
                }
                assert_eq!(rows.len(), 6, "{what} at {grain}: five rows and the error");
                for (r, row) in (0..5).zip(&rows) {
                    assert_eq!(row.as_ref().ok(), Some(&Value::Int(1 / (5 - r))), "{what}");
                }
                assert!(rows[5].is_err(), "{what} at {grain}");
            }
        }
    }
}
