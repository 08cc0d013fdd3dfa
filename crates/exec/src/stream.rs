//! The block evaluator: the one evaluator of collection-typed NRC.
//!
//! Section 4 of the paper: "each (x, y) pair in the result can be assembled
//! by retrieving a single element x from DB and single element from the set
//! S(x). Where possible, the Kleisli optimizer will lazily retrieve elements
//! from DB and lazily evaluate the function S in order to generate initial
//! output quickly, and minimize storage of intermediate results."
//!
//! `eval_blocks` compiles a collection-valued NRC expression into a
//! pull-based [`BlockSource`]: generators (`Ext`, `ParExt`), unions,
//! conditionals, remote scans, joins and cached subqueries all stream;
//! everything else is a value, computed by [`crate::eval()`] — which in turn
//! hands every collection form it meets (a comprehension in a record
//! field, say) back here and drains it, so a plan means the same thing
//! wherever it sits. The unit of transfer is a
//! [`ValueBlock`] whose grain the *consumer* chooses per pull
//! (`next_block(max_rows)`): full drains ask for
//! [`DEFAULT_BLOCK_ROWS`]-row batches — and `Ext` generators whose body
//! is a pure filter/projection evaluate the whole batch in one fused
//! pass — while order-sensitive consumers (`first_n` prefix stops,
//! set-dedup, the `Cached` tee) pull at grain 1, which is byte-identical
//! to the single-row protocol. [`eval_stream`] is exactly that grain-1
//! view.
//!
//! A stream yields elements *without* final collection canonicalization
//! (set deduplication happens only when the stream is collected), which
//! is what makes `first_n` cheap — the intended use, as in the paper, is
//! fast first response on queries whose laziness the optimizer has
//! identified as profitable. Consumers of a set-typed prefix that must
//! not see duplicates use [`first_n_distinct`]. Inside a plan the same
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

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Weak};

use kleisli_core::resilience::{ResilientHandle, Seeds};
use kleisli_core::{
    blocks_of_rows, lazy_blocks, BlockSource, BlockStream, CollKind, DriverRequest, Join, KError,
    KResult, Lead, Value, ValueBlock, DEFAULT_BLOCK_ROWS,
};
use nrc::{Expr, JoinStrategy, Name};
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
                let v = collect_blocks(blocks(e, env, ctx, Want::Any)?, built)?;
                return value_blocks(&v, want);
            }
        }
    }
    match e {
        Expr::Empty(_) => Ok(blocks_of_rows(Box::new(std::iter::empty()))),
        Expr::Single(_, inner) => match start(inner, env, ctx, fetch) {
            Pending::Lazy(_) => Ok(slice_blocks(Arc::new(vec![eval(inner, env, ctx)?]))),
            // The element has requests in flight; it is drained on first
            // pull, so the sibling arms built next put theirs in flight
            // beside them.
            started => {
                let (env, ctx) = (env.clone(), ctx.clone());
                Ok(lazy_blocks(move || {
                    Ok(slice_blocks(Arc::new(vec![started.finish(&env, &ctx)?])))
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
        } => {
            let src = blocks(source, env, ctx, Want::Source(*kind))?;
            let ctx = ctx.for_bodies([&**body]);
            // Fused fast path: a body that is a pure projection
            // (`Single`) or filter+projection (`If(c, Single, Empty)`)
            // evaluates a whole source batch in one pass — no per-row
            // body stream construction at all. Anything else flat-maps
            // a body block stream per source element.
            if let Some(fused) = FusedBody::of(body, *kind) {
                return Ok(Box::new(FusedExtBlocks {
                    source: Some(src),
                    leftover: VecDeque::new(),
                    fused,
                    var: Arc::clone(var),
                    env: env.clone(),
                    ctx,
                    failed: false,
                }));
            }
            Ok(Box::new(ExtBlocks {
                source: Some(src),
                src_rows: VecDeque::new(),
                current: None,
                kind: *kind,
                var: Arc::clone(var),
                body: Arc::clone(body),
                env: env.clone(),
                ctx,
                failed: false,
            }))
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
            let argv = eval(arg, env, ctx)?;
            PendingBlocks::start(driver, &request_from_value(&argv)?, ctx, fetch)
        }
        Expr::Join {
            kind,
            strategy,
            left,
            right,
            lvar,
            rvar,
            left_key,
            right_key,
            cond,
            body,
        } => {
            // Materialize the inner (right) relation, stream the outer —
            // but build the outer stream *first*: its driver request (if
            // any) is then already in flight while the inner relation is
            // being collected, overlapping the two sources' round-trips.
            let lstream = blocks(left, env, ctx, Want::Operand("join left", *kind))?;
            let rv = collect_rows(blocks(right, env, ctx, Want::Operand("join right", *kind))?)?;
            // Each key runs under its own side's variable alone (`nrc::expr`,
            // "Scope"), so neither strategy can fold them into `cond`.
            let probe = match (strategy, left_key, right_key) {
                // Index the inner relation on the fly by its key.
                (JoinStrategy::IndexedNl, Some(lk), Some(rk)) => {
                    let mut index: HashMap<Value, Vec<Value>> = HashMap::new();
                    for r in rv {
                        let key = eval(rk, &env.bind(Arc::clone(rvar), Rt::Val(r.clone())), ctx)?;
                        index.entry(key).or_default().push(r);
                    }
                    Probe::Index(Arc::clone(lk), index)
                }
                (JoinStrategy::IndexedNl, ..) => {
                    return Err(KError::eval("indexed join without keys"))
                }
                (JoinStrategy::BlockedNl, lk, rk) => Probe::Scan(rv, lk.clone().zip(rk.clone())),
            };
            let keys = left_key.iter().chain(right_key).map(|k| &**k);
            let per_pair = [&**cond, &**body].into_iter().chain(keys);
            let ctx = ctx.for_bodies(per_pair);
            Ok(Box::new(JoinBlocks {
                left: lstream,
                probe,
                pending: VecDeque::new(),
                kind: *kind,
                lvar: Arc::clone(lvar),
                rvar: Arc::clone(rvar),
                cond: Arc::clone(cond),
                body: Arc::clone(body),
                env: env.clone(),
                ctx,
                failed: false,
            }))
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
            // or its drop exactly as under `eval`'s `Cached` arm. The tee
            // is order-sensitive (it must record every row that passed),
            // so it stays a single-row operator over the grain-1 view.
            Join::Lead(lead) => match expr.coll_kind_hint() {
                Some(kind) => {
                    // An Err here drops the lead on the way out.
                    let inner: RowStream = Box::new(blocks(expr, env, ctx, want)?);
                    Ok(blocks_of_rows(Box::new(CachingStream {
                        inner,
                        lead: Some(lead),
                        rows: Vec::new(),
                        kind,
                        done: false,
                    })))
                }
                None => {
                    // Kind unknowable from syntax: compute the value,
                    // commit it, then stream it.
                    let v = eval(expr, env, ctx)?;
                    lead.commit(v.clone());
                    value_blocks(&v, want)
                }
            },
        },
        Expr::ParExt {
            kind,
            var,
            body,
            source,
            max_in_flight,
            batch,
        } => {
            // Chunk assembly is order-sensitive (a chunk boundary is an
            // observable concurrency boundary), so the parallel operator
            // keeps its single-row pull loop over the grain-1 view.
            let src: RowStream = Box::new(blocks(source, env, ctx, Want::Source(*kind))?);
            Ok(blocks_of_rows(Box::new(ParChunkStream {
                source: Some(src),
                buffer: VecDeque::new(),
                error: None,
                ahead: None,
                kind: *kind,
                var: Arc::clone(var),
                body: Arc::clone(body),
                env: env.clone(),
                ctx: ctx.for_bodies([&**body]),
                width: (*max_in_flight).max(1),
                attach_only: batch.is_some() && remote_nodes(body) == 1,
                batch: batch.clone(),
            })))
        }
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
    Ok(slice_blocks(Arc::clone(es)))
}

fn slice_blocks(elems: Arc<Vec<Value>>) -> BlockStream {
    Box::new(SliceBlocks { elems, i: 0 })
}

/// Blocks over a shared element vector (cache hits, `Single`, computed
/// values). Clones elements only as they are packed.
struct SliceBlocks {
    elems: Arc<Vec<Value>>,
    i: usize,
}

impl BlockSource for SliceBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        let n = (self.elems.len() - self.i).min(max_rows.max(1));
        if n == 0 {
            return None;
        }
        let mut b = ValueBlock::with_capacity(n);
        for v in &self.elems[self.i..self.i + n] {
            b.push_row(v.clone());
        }
        self.i += n;
        Some(b)
    }
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

/// [`first_n`] for *set*-typed plans: streams skip collection
/// canonicalization (see the module docs), so a set query can yield the
/// same element several times; here duplicates are dropped and do not
/// count toward `n`. First-arrival order is preserved.
pub fn first_n_distinct(e: &Expr, n: usize, env: &Env, ctx: &Context) -> KResult<Vec<Value>> {
    let mut out = Vec::with_capacity(n);
    let mut seen: HashSet<Value> = HashSet::new();
    if n == 0 {
        return Ok(out);
    }
    for item in eval_stream(e, env, ctx)? {
        let v = item?;
        if seen.insert(v.clone()) {
            out.push(v);
            if out.len() >= n {
                break;
            }
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
/// full [`DEFAULT_BLOCK_ROWS`] grain — the batched full-drain path.
pub fn collect_blocks(stream: BlockStream, kind: CollKind) -> KResult<Value> {
    Ok(Value::collection(kind, collect_rows(stream)?))
}

/// Drain a block stream to a row vector at the full grain.
fn collect_rows(mut stream: BlockStream) -> KResult<Vec<Value>> {
    let mut elems = Vec::new();
    while let Some(b) = stream.next_block(DEFAULT_BLOCK_ROWS) {
        for item in b.into_rows() {
            elems.push(item?);
        }
    }
    Ok(elems)
}

/// Lazy population of a cached subquery's slot: passes the inner
/// stream's rows through while teeing them aside, and commits the
/// canonical collection (`Value::collection`, exactly what draining the
/// subquery yields) when the inner stream is exhausted. Dropping the
/// stream early drops the lead uncommitted, releasing the slot still
/// empty.
struct CachingStream {
    inner: RowStream,
    lead: Option<Lead<Value>>,
    rows: Vec<Value>,
    kind: CollKind,
    done: bool,
}

impl Iterator for CachingStream {
    type Item = KResult<Value>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.inner.next() {
            Some(Ok(v)) => {
                self.rows.push(v.clone());
                Some(Ok(v))
            }
            Some(Err(e)) => {
                self.done = true;
                self.lead = None; // do not cache a partial result
                Some(Err(e))
            }
            None => {
                self.done = true;
                if let Some(lead) = self.lead.take() {
                    lead.commit(Value::collection(self.kind, std::mem::take(&mut self.rows)));
                }
                None
            }
        }
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
        Expr::Ext { kind, source, .. } | Expr::ParExt { kind, source, .. } => {
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
    /// The query budget, tightened by the driver policy's own deadline;
    /// checked at every block boundary so a mid-stream stall resolves as
    /// `Timeout`/`Cancelled` at the next pull instead of silently hanging
    /// the consumer forever. (Grain-1 consumers check per row.)
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
            ctx: handle
                .deadline()
                .map_or_else(|| ctx.clone(), |d| ctx.with_deadline(d)),
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

/// The body shapes the `Ext` generator evaluates in one fused pass over
/// a whole source batch: no body stream is ever constructed, the
/// filter/projection runs right in the generator's pull loop.
enum FusedBody {
    /// `{ f(x) }` — pure per-element projection.
    Project { inner: Arc<Expr> },
    /// `if p(x) then { f(x) } else {}` — filter + projection.
    FilterProject { cond: Arc<Expr>, inner: Arc<Expr> },
}

impl FusedBody {
    /// Recognize a fusable body of a `kind` comprehension. A body piece
    /// of another kind is left to the general path, which rejects it.
    fn of(body: &Expr, kind: CollKind) -> Option<FusedBody> {
        match body {
            Expr::Single(k, inner) if *k == kind => Some(FusedBody::Project {
                inner: Arc::clone(inner),
            }),
            Expr::If(c, t, f) => match (t.as_ref(), f.as_ref()) {
                (Expr::Single(k, inner), Expr::Empty(k2)) if *k == kind && *k2 == kind => {
                    Some(FusedBody::FilterProject {
                        cond: Arc::clone(c),
                        inner: Arc::clone(inner),
                    })
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluate the body for one source element: `Ok(Some)` emits,
    /// `Ok(None)` is a filtered-out element. Error semantics match the
    /// unfused path exactly (a body-stream construction error there).
    fn apply(&self, el: Value, var: &Name, env: &Env, ctx: &Context) -> KResult<Option<Value>> {
        let env2 = env.bind(Arc::clone(var), Rt::Val(el));
        match self {
            FusedBody::Project { inner } => eval(inner, &env2, ctx).map(Some),
            FusedBody::FilterProject { cond, inner } => {
                if eval_cond(cond, &env2, ctx, "if")? {
                    eval(inner, &env2, ctx).map(Some)
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Fused streaming `Ext`: filter/projection over a batch at a time. The
/// source is pulled at exactly the grain still needed for the output
/// block (`max_rows - packed`), so a grain-1 consumer induces grain-1
/// source pulls — byte-identical laziness — while a full drain moves
/// whole batches through one `apply` loop per block.
struct FusedExtBlocks {
    source: Option<BlockStream>,
    /// Source rows pulled but not yet evaluated (a filter that passed
    /// fewer rows than requested leaves the rest here).
    leftover: VecDeque<KResult<Value>>,
    fused: FusedBody,
    var: Name,
    env: Env,
    ctx: Context,
    failed: bool,
}

impl BlockSource for FusedExtBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.failed {
            return None;
        }
        let max = max_rows.max(1);
        let mut out = ValueBlock::with_capacity(max.min(DEFAULT_BLOCK_ROWS));
        loop {
            while out.len() < max {
                let Some(row) = self.leftover.pop_front() else {
                    break;
                };
                match row {
                    Err(e) => {
                        // A source error ends the generator: good rows
                        // already packed ship in front of it.
                        self.failed = true;
                        out.push_err(e);
                        return Some(out);
                    }
                    Ok(el) => match self.fused.apply(el, &self.var, &self.env, &self.ctx) {
                        Ok(Some(v)) => out.push_row(v),
                        Ok(None) => {}
                        Err(e) => {
                            self.failed = true;
                            out.push_err(e);
                            return Some(out);
                        }
                    },
                }
            }
            if out.len() >= max {
                return Some(out);
            }
            let Some(src) = &mut self.source else {
                return if out.is_empty() { None } else { Some(out) };
            };
            match src.next_block(max - out.len()) {
                Some(b) => {
                    if b.ends_with_err() {
                        self.source = None;
                    }
                    self.leftover.extend(b.into_rows());
                }
                None => {
                    self.source = None;
                    return if out.is_empty() { None } else { Some(out) };
                }
            }
        }
    }
}

/// Streaming `Ext` for general bodies: flat-maps a body block stream
/// over the source stream. Body blocks pass through at the consumer's
/// grain.
struct ExtBlocks {
    source: Option<BlockStream>,
    /// Source rows pulled but not yet expanded.
    src_rows: VecDeque<KResult<Value>>,
    current: Option<BlockStream>,
    kind: CollKind,
    var: Name,
    body: Arc<Expr>,
    env: Env,
    ctx: Context,
    failed: bool,
}

impl BlockSource for ExtBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.failed {
            return None;
        }
        let max = max_rows.max(1);
        loop {
            if let Some(cur) = &mut self.current {
                match cur.next_block(max) {
                    // Pass body blocks (and body errors) through, as the
                    // row-level operator did.
                    Some(b) => return Some(b),
                    None => self.current = None,
                }
            }
            let next = match self.src_rows.pop_front() {
                Some(r) => Some(r),
                None => {
                    let src = self.source.as_mut()?;
                    match src.next_block(max) {
                        Some(b) => {
                            if b.ends_with_err() {
                                self.source = None;
                            }
                            self.src_rows.extend(b.into_rows());
                            self.src_rows.pop_front()
                        }
                        None => {
                            self.source = None;
                            return None;
                        }
                    }
                }
            };
            match next {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(ValueBlock::of_err(e));
                }
                Some(Ok(el)) => {
                    let env2 = self.env.bind(Arc::clone(&self.var), Rt::Val(el));
                    match blocks(&self.body, &env2, &self.ctx, Want::Piece(self.kind)) {
                        Ok(s) => self.current = Some(s),
                        Err(e) => {
                            self.failed = true;
                            return Some(ValueBlock::of_err(e));
                        }
                    }
                }
            }
        }
    }
}

/// Pull a single row off a block stream (grain-1 helper for the join
/// operators' outer side, which expands one outer element at a time).
fn next_row(s: &mut BlockStream) -> Option<KResult<Value>> {
    s.next_block(1).and_then(|b| b.into_rows().next())
}

/// Drain up to `max` pending join results into one block.
fn drain_pending(pending: &mut VecDeque<Value>, max: usize) -> ValueBlock {
    let k = max.max(1).min(pending.len());
    let mut b = ValueBlock::with_capacity(k);
    for v in pending.drain(..k) {
        b.push_row(v);
    }
    b
}

/// How the join operator finds an outer element's inner candidates —
/// the one thing the two Section-4 strategies differ in.
enum Probe {
    /// Blocked nested loop [Kim 80]: every element of the materialized
    /// inner relation, kept when its `right_key` equals the outer
    /// element's `left_key` (if the join has keys).
    Scan(Vec<Value>, Option<(Arc<Expr>, Arc<Expr>)>),
    /// Indexed nested loop [Nakayama et al. 88]: the inner elements whose
    /// key equals the outer element's, by an index built on the fly.
    Index(Arc<Expr>, HashMap<Value, Vec<Value>>),
}

/// Streaming join: the outer side streams, the inner side is
/// materialized; results come out outer-major, so list joins keep the
/// nested-loop order under either strategy.
struct JoinBlocks {
    left: BlockStream,
    probe: Probe,
    pending: VecDeque<Value>,
    kind: CollKind,
    lvar: Name,
    rvar: Name,
    cond: Arc<Expr>,
    body: Arc<Expr>,
    env: Env,
    ctx: Context,
    failed: bool,
}

impl JoinBlocks {
    fn emit_for(&mut self, l: Value) -> KResult<()> {
        let lenv = self.env.bind(Arc::clone(&self.lvar), Rt::Val(l));
        let (candidates, keys) = match &self.probe {
            Probe::Scan(right, None) => (right.as_slice(), None),
            Probe::Scan(right, Some((left_key, right_key))) => {
                let key = eval(left_key, &lenv, &self.ctx)?;
                (right.as_slice(), Some((key, right_key)))
            }
            Probe::Index(left_key, index) => match index.get(&eval(left_key, &lenv, &self.ctx)?) {
                Some(matches) => (matches.as_slice(), None),
                None => return Ok(()),
            },
        };
        for r in candidates {
            if let Some((key, right_key)) = &keys {
                let renv = self.env.bind(Arc::clone(&self.rvar), Rt::Val(r.clone()));
                if eval(right_key, &renv, &self.ctx)? != *key {
                    continue;
                }
            }
            let env2 = lenv.bind(Arc::clone(&self.rvar), Rt::Val(r.clone()));
            if eval_cond(&self.cond, &env2, &self.ctx, "join")? {
                let piece = eval(&self.body, &env2, &self.ctx)?;
                self.pending
                    .extend(piece_elems(&piece, self.kind)?.iter().cloned());
            }
        }
        Ok(())
    }
}

impl BlockSource for JoinBlocks {
    fn next_block(&mut self, max_rows: usize) -> Option<ValueBlock> {
        if self.failed {
            return None;
        }
        loop {
            if !self.pending.is_empty() {
                return Some(drain_pending(&mut self.pending, max_rows));
            }
            match next_row(&mut self.left)? {
                Err(e) => {
                    self.failed = true;
                    return Some(ValueBlock::of_err(e));
                }
                Ok(l) => {
                    if let Err(e) = self.emit_for(l) {
                        self.failed = true;
                        return Some(ValueBlock::of_err(e));
                    }
                }
            }
        }
    }
}

/// Streaming bounded-parallel `Ext`: pulls a chunk of `width` source
/// elements, evaluates their bodies concurrently, yields the union, then
/// pulls the next chunk. Concurrency never exceeds `width`.
///
/// **Rows before errors.** A source error ends the chunk being
/// assembled; the elements pulled before it still run, their pieces are
/// delivered, and then the error — unless one of those bodies fails,
/// which is the earlier error and wins. Likewise the pieces of the
/// bodies preceding a failing one are delivered in front of its error.
/// The stream thus fails exactly where an element-at-a-time evaluation
/// would, which is what lets a staged two-hop loop (`opt::rules::batch`)
/// report what the nested one does.
///
/// **Read-ahead (batch-marked loops only).** [`warm_up_batch`] does not
/// block: it puts the chunk's batched requests on the wire and returns.
/// So a marked loop pulls and warms up *two* chunks whenever it has none
/// in hand, then runs them in turn — the two chunks' wire requests are
/// in flight together instead of the second waiting behind the first's
/// bodies. At most one chunk beyond the one whose rows are being
/// consumed is ever pulled, so a prefix consumer costs at most
/// `2 * max_keys` keys per loop. Unmarked loops pull one chunk at a
/// time, as they always did.
struct ParChunkStream {
    /// `None` once exhausted or failed.
    source: Option<RowStream>,
    /// Rows of the chunks run so far, not yet handed out.
    buffer: VecDeque<Value>,
    /// The error that ends the stream once `buffer` has drained.
    error: Option<KError>,
    /// The chunk pulled and warmed up ahead of the one last run.
    ahead: Option<Chunk>,
    kind: CollKind,
    var: Name,
    body: Arc<Expr>,
    env: Env,
    ctx: Context,
    width: usize,
    /// The optimizer's batching mark: assemble chunks at the driver's
    /// key-per-request grain (never below `width`) and warm each one up
    /// into batched wire round-trips before its bodies run. Output
    /// values and their order are unchanged — only the wire traffic is.
    batch: Option<nrc::BatchSpec>,
    /// The marked request is the body's only remote node: the bodies of
    /// a warmed-up chunk then do nothing but attach to its flights, so
    /// they run on the calling thread — executor hands would only park
    /// on the same few wire requests.
    attach_only: bool,
}

/// How many driver calls `e` holds.
fn remote_nodes(e: &Expr) -> usize {
    let mut n = 0;
    e.visit(&mut |node| {
        n += usize::from(matches!(node, Expr::Remote { .. } | Expr::RemoteApp { .. }))
    });
    n
}

/// One chunk of source elements, warmed up but not yet run.
struct Chunk {
    elems: Vec<Value>,
    /// The warm-up's seeded flights, held until the bodies have run.
    seeds: Option<Seeds>,
    /// The source error that cut the chunk short.
    source_err: Option<KError>,
}

impl ParChunkStream {
    /// Pull up to one chunk grain of source elements and warm them up.
    fn pull_chunk(&mut self) -> Chunk {
        let grain = match &self.batch {
            Some(spec) => self.width.max(spec.max_keys),
            None => self.width,
        };
        let mut elems = Vec::with_capacity(grain);
        let mut source_err = None;
        while elems.len() < grain {
            match self.source.as_mut().and_then(Iterator::next) {
                Some(Ok(v)) => elems.push(v),
                end => {
                    self.source = None;
                    source_err = end.and_then(Result::err);
                    break;
                }
            }
        }
        let seeds = self
            .batch
            .as_ref()
            .and_then(|spec| warm_up_batch(spec, &elems, &self.var, &self.env, &self.ctx));
        Chunk {
            elems,
            seeds,
            source_err,
        }
    }

    /// Evaluate one chunk's bodies, buffering the pieces that precede
    /// the first error and recording that error.
    fn run_chunk(&mut self, chunk: Chunk) {
        let width = if self.attach_only && chunk.seeds.is_some() {
            1
        } else {
            self.width
        };
        let mut pieces = Vec::with_capacity(chunk.elems.len());
        let ran = eval_parallel(
            &chunk.elems,
            &self.var,
            &self.body,
            &self.env,
            &self.ctx,
            width,
            &mut pieces,
        );
        let unpacked = pieces.iter().try_for_each(|piece| {
            self.buffer
                .extend(piece_elems(piece, self.kind)?.iter().cloned());
            Ok(())
        });
        // In element order: a piece of the wrong kind, then the first
        // failing body, then the source error behind the chunk.
        if let Err(e) = unpacked.and(ran).and(chunk.source_err.map_or(Ok(()), Err)) {
            self.error = Some(e);
            self.source = None;
            self.ahead = None;
        }
    }
}

impl Iterator for ParChunkStream {
    type Item = KResult<Value>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(v) = self.buffer.pop_front() {
                return Some(Ok(v));
            }
            if let Some(e) = self.error.take() {
                return Some(Err(e));
            }
            let chunk = match self.ahead.take() {
                Some(chunk) => chunk,
                None => {
                    self.source.as_ref()?;
                    let chunk = self.pull_chunk();
                    if self.batch.is_some() && self.source.is_some() {
                        self.ahead = Some(self.pull_chunk());
                    }
                    chunk
                }
            };
            self.run_chunk(chunk);
        }
    }
}

/// The batching warm-up for a marked `ParExt` chunk: evaluate the spec's
/// request argument for every chunk element (it is pure-local by the
/// optimizer's construction, so this duplicates no driver effects),
/// and ship the distinct requests as a few multi-key wire round-trips —
/// one [`Context::fetch`] of [`kleisli_core::Fetch::Batch`] — whose
/// flights stay seeded while the returned [`Seeds`] live, so the loop
/// bodies' own fetches attach to them. Any surprise — an argument that
/// fails to evaluate, a non-request value, a request no batch can carry,
/// too few distinct keys, a driver without batching — skips the warm-up
/// entirely and returns `None`: the per-element path then behaves
/// exactly as unbatched, surfacing its own errors in their usual place.
/// Returned seeds therefore answer the request of *every* element.
fn warm_up_batch(
    spec: &nrc::BatchSpec,
    elems: &[Value],
    var: &Name,
    env: &Env,
    ctx: &Context,
) -> Option<Seeds> {
    if elems.len() < spec.min_keys.max(1) {
        return None;
    }
    let mut reqs = Vec::with_capacity(elems.len());
    for el in elems {
        let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
        let v = eval(&spec.arg, &env2, ctx).ok()?;
        reqs.push(
            request_from_value(&v)
                .ok()
                .filter(DriverRequest::coalescable)?,
        );
    }
    let mut distinct = 0usize;
    for (i, r) in reqs.iter().enumerate() {
        if !reqs[..i].contains(r) {
            distinct += 1;
        }
    }
    if distinct < spec.min_keys.max(1) {
        return None;
    }
    let handles = ctx.fetch(&spec.driver, &reqs, kleisli_core::Fetch::Batch);
    let handles: Vec<ResilientHandle> = handles.into_iter().collect::<KResult<_>>().ok()?;
    Some(ctx.resilience(&spec.driver)?.seed(&handles))
}

/// Evaluate `body` for every element of `elems`, at most `max_in_flight`
/// at a time, preserving element order in the result. This is the
/// parallel-retrieval primitive of Section 4 ("Laziness, Latency, and
/// Concurrency"): requests to remote servers overlap, but no more than the
/// server's tolerated number run at once.
///
/// Each chunk runs as a batch on the context's shared
/// [`kleisli_core::Executor`] — tasks own cheap clones of the body
/// `Arc`, the environment, and the context handle, so no OS thread is
/// ever created per element. The submitting thread helps drain its own
/// batch, which both caps in-flight work at `max_in_flight` and keeps
/// nested parallel loops deadlock-free on the bounded pool (see
/// `kleisli_core::executor`). A task that panics surfaces as an
/// evaluation error, and an error stops later chunks from being
/// submitted at all; `out` then holds the results of the elements in
/// front of the failing one.
fn eval_parallel(
    elems: &[Value],
    var: &Name,
    body: &Arc<Expr>,
    env: &Env,
    ctx: &Context,
    max_in_flight: usize,
    out: &mut Vec<Value>,
) -> KResult<()> {
    let width = max_in_flight.max(1);
    if width == 1 || elems.len() <= 1 {
        for el in elems {
            let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
            out.push(eval(body, &env2, ctx)?);
        }
        return Ok(());
    }
    for chunk in elems.chunks(width) {
        let tasks: Vec<Box<dyn FnOnce() -> KResult<Value> + Send>> = chunk
            .iter()
            .map(|el| {
                let env2 = env.bind(Arc::clone(var), Rt::Val(el.clone()));
                let body = Arc::clone(body);
                let ctx = ctx.clone();
                Box::new(move || eval(&body, &env2, &ctx))
                    as Box<dyn FnOnce() -> KResult<Value> + Send>
            })
            .collect();
        for r in ctx.executor().run_all(tasks) {
            out.push(r.unwrap_or_else(|| Err(KError::eval("worker thread panicked")))?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::{
        blocks_of_rows, BlockStream, Capabilities, Driver, DriverRequest, MetricsSnapshot,
    };
    use nrc::name;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A driver that yields `rows` integers and counts how many were
    /// actually pulled — the laziness probe.
    struct CountingDriver {
        rows: i64,
        pulled: Arc<AtomicU64>,
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
    }

    fn counting_ctx(rows: i64) -> (Arc<Context>, Arc<AtomicU64>) {
        let pulled = Arc::new(AtomicU64::new(0));
        let mut ctx = Context::new();
        ctx.register_driver(Arc::new(CountingDriver {
            rows,
            pulled: Arc::clone(&pulled),
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
        assert_eq!(first_n_distinct(&e, 0, &Env::empty(), &ctx).unwrap(), Vec::<Value>::new());
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
        for strategy in [JoinStrategy::BlockedNl, JoinStrategy::IndexedNl] {
            let e = Expr::Join {
                kind: CollKind::Set,
                strategy,
                left: Arc::new(left.clone()),
                right: Arc::new(right.clone()),
                lvar: name("l"),
                rvar: name("r"),
                left_key: Some(Arc::new(Expr::proj(Expr::var("l"), "k"))),
                right_key: Some(Arc::new(Expr::proj(Expr::var("r"), "k"))),
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
        let par = Expr::ParExt {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body.clone()),
            source: Arc::new(src.clone()),
            max_in_flight: 4,
            batch: None,
        };
        let seq = Expr::Ext {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(src),
        };
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
}
