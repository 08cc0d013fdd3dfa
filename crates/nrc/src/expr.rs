//! The abstract syntax of NRC, the monad algebra CPL is translated into
//! (Section 4 of the paper: "Once submitted to Kleisli, a CPL query is
//! translated into an abstract syntax language in the monad algebra NRC to
//! which the rewrite rules can be applied").
//!
//! The central construct is [`Expr::Ext`], written `U{ e1 | \x <- e2 }` in
//! the paper: the big-union of `e1[o/x]` for each element `o` of the
//! collection `e2`. Comprehensions desugar into `Ext`, `Single`, `Empty`,
//! and `If` via Wadler's identities (implemented in the `cpl` crate).
//!
//! Besides the logical constructs, the enum carries the *physical* nodes
//! introduced by the non-monadic optimizations: [`Expr::Remote`] (a request
//! shipped to a driver), [`Expr::Join`] (blocked / indexed nested-loop
//! joins), [`Expr::Cached`] (memoized subquery), and [`Expr::ParExt`]
//! (bounded-concurrency retrieval).
//!
//! # Structural sharing
//!
//! Every child slot is an [`Arc<Expr>`], which makes a plan a *persistent*
//! (purely functional) DAG rather than an owned tree:
//!
//! * **Cloning is O(1).** `Expr::clone` copies one node and bumps the
//!   reference counts of its children. Handing a plan (or any subplan) to
//!   the streaming executor, a closure, or a cache never deep-copies it.
//! * **Rewrites are persistent-style.** A transformation must never mutate
//!   a node in place (other plans may share it); it builds new nodes along
//!   the changed spine and re-links the unchanged children by `Arc::clone`.
//!   [`Expr::map_children_shared`] and [`Expr::subst_shared`] implement
//!   this discipline and *return the input `Arc` itself* (pointer-equal)
//!   when nothing changed underneath.
//! * **Pointer equality witnesses "no change".** Because every traversal
//!   in the optimizer is sharing-preserving, the rewrite engine detects a
//!   fixpoint with `Arc::ptr_eq` on the root instead of a structural
//!   `PartialEq` walk, and a pass over an already-normalized subtree
//!   allocates nothing at all.
//!
//! Anything that violates the discipline — returning a freshly rebuilt but
//! structurally identical tree from a "no-op" — silently degrades the
//! optimizer back to O(plan-size) per pass, so new rules should be written
//! against the `*_shared` helpers. [`Expr::deep_clone`] exists only to
//! deliberately *un*-share a plan (benchmarks measuring the cost of the
//! old copying representation).
//!
//! # Hashing and interning invariants
//!
//! The [`crate::hash`] module builds on the discipline above:
//!
//! * **Structural hashes are pointer-blind.** [`crate::hash::plan_hash`]
//!   depends only on constructors, names, constants and child hashes —
//!   never on addresses — so structurally identical plans hash equal no
//!   matter how they were built. `Cached { id }` ids are derived from this
//!   hash by the cache rule; anything that rewrites *inside* a `Cached`
//!   node after ids are assigned would silently change what the id
//!   describes, which is why the cache rule set runs after the semantic
//!   rule sets and never descends into an existing `Cached`.
//! * **Interning is sharing-maximal, structure-neutral.** An
//!   [`crate::hash::Interner`] maps a plan to a canonical form where every
//!   structurally identical subtree is one `Arc`. It changes only sharing
//!   (`Arc::ptr_eq` topology), never structure, so evaluation results are
//!   unchanged, and everything keyed on pointer identity — the rewrite
//!   engine's memo table, `Arc::ptr_eq` fixpoint detection — treats
//!   repeated subplans as one.
//! * **Never mutate a node in place** (the base discipline): both the
//!   interner's pointer-keyed hash cache and the engine's memo table
//!   assume a given `Arc<Expr>` address denotes one immutable structure
//!   for as long as it is alive.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kleisli_core::{CollKind, DriverRequest, Value};

use crate::prim::Prim;

/// Variable and field names.
pub type Name = Arc<str>;

/// Create a `Name` from a `&str`.
pub fn name(s: impl AsRef<str>) -> Name {
    Arc::from(s.as_ref())
}

/// A fresh variable name, unique within the process.
pub fn fresh(prefix: &str) -> Name {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Arc::from(format!("{prefix}%{n}"))
}

/// Strategy chosen for a local join by the join rule set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Blocked nested-loop join [Kim 80]: the inner collection is
    /// materialized and scanned per outer element (in memory the block
    /// structure of the I/O pattern is unobservable, so none is kept).
    BlockedNl,
    /// Indexed blocked nested-loop join (a variation of the hashed-loop
    /// join of [Nakayama et al. 88]): an index is built on the fly over the
    /// inner collection, keyed by `right_key`; outer elements probe it with
    /// `left_key`.
    IndexedNl,
}

/// One arm of a `Case` expression: tag, bound variable, arm body.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    pub tag: Name,
    pub var: Name,
    pub body: Arc<Expr>,
}

/// An NRC expression. See the module docs for the structural-sharing
/// invariants every producer and consumer relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    Var(Name),
    Let {
        var: Name,
        def: Arc<Expr>,
        body: Arc<Expr>,
    },
    Lambda {
        var: Name,
        body: Arc<Expr>,
    },
    Apply(Arc<Expr>, Arc<Expr>),
    /// Record construction `[l1 = e1, ..., ln = en]`.
    Record(Vec<(Name, Arc<Expr>)>),
    /// Field projection `e.l`.
    Proj(Arc<Expr>, Name),
    /// Variant construction `<tag = e>`.
    Inject(Name, Arc<Expr>),
    /// Variant elimination. `default` (if present) binds nothing and
    /// handles unlisted tags; without it an unlisted tag is a runtime error.
    Case {
        scrutinee: Arc<Expr>,
        arms: Vec<CaseArm>,
        default: Option<Arc<Expr>>,
    },
    /// The empty collection of the given kind.
    Empty(CollKind),
    /// The singleton collection `{e}` / `{|e|}` / `[|e|]`.
    Single(CollKind, Arc<Expr>),
    /// Collection union: set union, bag additive union, list append.
    Union(CollKind, Arc<Expr>, Arc<Expr>),
    /// The monad extension `U{ body | \var <- source }`.
    Ext {
        kind: CollKind,
        var: Name,
        body: Arc<Expr>,
        source: Arc<Expr>,
    },
    If(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Primitive application.
    Prim(Prim, Vec<Arc<Expr>>),

    /// A driver call whose request is computed at run time, e.g.
    /// `NA-Links(uid)` where `uid` is bound by an enclosing comprehension.
    /// When the argument is constant the optimizer lowers this to
    /// [`Expr::Remote`] so that pushdown rules can inspect the request.
    RemoteApp {
        driver: Name,
        arg: Arc<Expr>,
    },

    // ---- physical nodes (introduced by the optimizer) ----
    /// A request shipped to a registered driver; evaluates to the set of
    /// values the driver streams back.
    Remote {
        driver: Name,
        request: DriverRequest,
    },
    /// A local join with an explicit strategy. Semantically equal to
    /// `U{ U{ if cond then body else empty | \rvar <- right } | \lvar <- left }`,
    /// where for `IndexedNl` the condition additionally includes
    /// `left_key(lvar) == right_key(rvar)`.
    Join {
        kind: CollKind,
        strategy: JoinStrategy,
        left: Arc<Expr>,
        right: Arc<Expr>,
        lvar: Name,
        rvar: Name,
        /// Equi-join keys (over `lvar` / `rvar`), used by `IndexedNl`;
        /// `BlockedNl` folds them into `cond`.
        left_key: Option<Arc<Expr>>,
        right_key: Option<Arc<Expr>>,
        /// Residual join predicate (may be `Const(true)`).
        cond: Arc<Expr>,
        /// Collection-valued output expression for each matching pair.
        body: Arc<Expr>,
    },
    /// Memoize the result of an outer-independent subquery (the paper's
    /// disk cache for inner relations; in-memory here).
    Cached {
        id: u64,
        expr: Arc<Expr>,
    },
    /// `Ext` whose body issues remote requests: evaluate bodies for up to
    /// `max_in_flight` source elements concurrently and take the union of
    /// the results. When `batch` is set, the executor first folds the
    /// per-element requests into batched wire round-trips (the loop body
    /// is unchanged; per-element submissions attach to the pre-seeded
    /// flights).
    ParExt {
        kind: CollKind,
        var: Name,
        body: Arc<Expr>,
        source: Arc<Expr>,
        max_in_flight: usize,
        batch: Option<BatchSpec>,
    },
}

/// The optimizer's batching mark on a [`Expr::ParExt`]: the per-element
/// remote request inside the loop body, abstracted over the loop
/// variable, so the executor can pre-compute the whole key set's
/// requests and ship them as a few multi-key wire round-trips (the
/// paper's Section 4 semijoin strategy — ship the *set* of keys, not
/// one round-trip per element).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// The driver the body's remote call targets.
    pub driver: Name,
    /// The remote request argument (a record, see
    /// `kleisli_exec::request_from_value`), with the loop variable
    /// still free — evaluated once per source element during warm-up.
    pub arg: Arc<Expr>,
    /// Skip warm-up below this many distinct keys: small key sets keep
    /// the plain latency-overlap path.
    pub min_keys: usize,
    /// The driver's advertised per-request key ceiling (warm-up chunk
    /// grain).
    pub max_keys: usize,
}

impl Expr {
    pub fn var(n: impl AsRef<str>) -> Expr {
        Expr::Var(name(n))
    }

    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    pub fn str(s: impl AsRef<str>) -> Expr {
        Expr::Const(Value::str(s))
    }

    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    pub fn proj(e: Expr, field: impl AsRef<str>) -> Expr {
        Expr::Proj(Arc::new(e), name(field))
    }

    pub fn ext(kind: CollKind, var: impl AsRef<str>, body: Expr, source: Expr) -> Expr {
        Expr::Ext {
            kind,
            var: name(var),
            body: Arc::new(body),
            source: Arc::new(source),
        }
    }

    pub fn single(kind: CollKind, e: Expr) -> Expr {
        Expr::Single(kind, Arc::new(e))
    }

    pub fn union(kind: CollKind, a: Expr, b: Expr) -> Expr {
        Expr::Union(kind, Arc::new(a), Arc::new(b))
    }

    pub fn record<I, S>(fields: I) -> Expr
    where
        I: IntoIterator<Item = (S, Expr)>,
        S: AsRef<str>,
    {
        Expr::Record(
            fields
                .into_iter()
                .map(|(n, e)| (name(n), Arc::new(e)))
                .collect(),
        )
    }

    pub fn if_(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::If(Arc::new(c), Arc::new(t), Arc::new(f))
    }

    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Prim(Prim::Eq, vec![Arc::new(a), Arc::new(b)])
    }

    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Prim(Prim::And, vec![Arc::new(a), Arc::new(b)])
    }

    /// `eq` over already-shared operands — links the subplans by `Arc`.
    pub fn eq_arc(a: Arc<Expr>, b: Arc<Expr>) -> Expr {
        Expr::Prim(Prim::Eq, vec![a, b])
    }

    /// `and` over already-shared operands — links the subplans by `Arc`.
    pub fn and_arc(a: Arc<Expr>, b: Arc<Expr>) -> Expr {
        Expr::Prim(Prim::And, vec![a, b])
    }

    /// Primitive application over owned arguments (wraps each in an `Arc`).
    pub fn prim(p: Prim, args: Vec<Expr>) -> Expr {
        Expr::Prim(p, args.into_iter().map(Arc::new).collect())
    }

    pub fn apply(f: Expr, a: Expr) -> Expr {
        Expr::Apply(Arc::new(f), Arc::new(a))
    }

    pub fn lambda(var: impl AsRef<str>, body: Expr) -> Expr {
        Expr::Lambda {
            var: name(var),
            body: Arc::new(body),
        }
    }

    pub fn let_(var: impl AsRef<str>, def: Expr, body: Expr) -> Expr {
        Expr::Let {
            var: name(var),
            def: Arc::new(def),
            body: Arc::new(body),
        }
    }

    /// Wrap in a shared handle (sugar for `Arc::new`).
    pub fn arc(self) -> Arc<Expr> {
        Arc::new(self)
    }

    /// Number of AST nodes; used to bound rewriting and report in explain.
    /// Shared subtrees are counted once per occurrence (tree size of the
    /// unfolding), matching the pre-sharing semantics.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Visit every node (pre-order, through sharing).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        let mut go = |c: &'a Arc<Expr>| c.visit(f);
        self.for_each_child(&mut go);
    }

    /// Apply `f` to each direct child handle, in evaluation order.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Arc<Expr>)) {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) | Expr::Remote { .. } => {}
            Expr::Let { def, body, .. } => {
                f(def);
                f(body);
            }
            Expr::Lambda { body, .. } => f(body),
            Expr::Apply(a, b) | Expr::Union(_, a, b) => {
                f(a);
                f(b);
            }
            Expr::Record(fields) => {
                for (_, e) in fields {
                    f(e);
                }
            }
            Expr::Proj(e, _) | Expr::Inject(_, e) | Expr::Single(_, e) => f(e),
            Expr::RemoteApp { arg, .. } => f(arg),
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                f(scrutinee);
                for arm in arms {
                    f(&arm.body);
                }
                if let Some(d) = default {
                    f(d);
                }
            }
            Expr::Ext { body, source, .. } | Expr::ParExt { body, source, .. } => {
                f(body);
                f(source);
            }
            Expr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Expr::Prim(_, args) => {
                for a in args {
                    f(a);
                }
            }
            Expr::Join {
                left,
                right,
                left_key,
                right_key,
                cond,
                body,
                ..
            } => {
                f(left);
                f(right);
                if let Some(k) = left_key {
                    f(k);
                }
                if let Some(k) = right_key {
                    f(k);
                }
                f(cond);
                f(body);
            }
            Expr::Cached { expr, .. } => f(expr),
        }
    }

    /// Rebuild this node with each child handle transformed by `f`,
    /// preserving sharing: when every child comes back pointer-equal, the
    /// input handle itself is returned and nothing is allocated. This is
    /// the traversal primitive of the rewrite engine — see the module docs.
    pub fn map_children_shared(
        e: &Arc<Expr>,
        f: &mut impl FnMut(&Arc<Expr>) -> Arc<Expr>,
    ) -> Arc<Expr> {
        // `step` applies f and records whether any child changed.
        fn step<F: FnMut(&Arc<Expr>) -> Arc<Expr>>(
            c: &Arc<Expr>,
            f: &mut F,
            changed: &mut bool,
        ) -> Arc<Expr> {
            let out = f(c);
            if !Arc::ptr_eq(&out, c) {
                *changed = true;
            }
            out
        }
        let mut changed = false;
        let rebuilt = match &**e {
            Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) | Expr::Remote { .. } => {
                return Arc::clone(e)
            }
            Expr::Let { var, def, body } => Expr::Let {
                var: Arc::clone(var),
                def: step(def, f, &mut changed),
                body: step(body, f, &mut changed),
            },
            Expr::Lambda { var, body } => Expr::Lambda {
                var: Arc::clone(var),
                body: step(body, f, &mut changed),
            },
            Expr::Apply(a, b) => Expr::Apply(step(a, f, &mut changed), step(b, f, &mut changed)),
            Expr::Record(fields) => {
                // Rebuild the field vector lazily: an unchanged record
                // must not allocate (the whole point of the sharing pass).
                let mut new_fields: Option<Vec<(Name, Arc<Expr>)>> = None;
                for (i, (n, fe)) in fields.iter().enumerate() {
                    let out = f(fe);
                    if new_fields.is_none() && !Arc::ptr_eq(&out, fe) {
                        let mut v = Vec::with_capacity(fields.len());
                        v.extend(
                            fields[..i]
                                .iter()
                                .map(|(pn, pe)| (Arc::clone(pn), Arc::clone(pe))),
                        );
                        new_fields = Some(v);
                    }
                    if let Some(v) = &mut new_fields {
                        v.push((Arc::clone(n), out));
                    }
                }
                match new_fields {
                    Some(v) => {
                        changed = true;
                        Expr::Record(v)
                    }
                    None => return Arc::clone(e),
                }
            }
            Expr::Proj(inner, n) => Expr::Proj(step(inner, f, &mut changed), Arc::clone(n)),
            Expr::Inject(n, inner) => Expr::Inject(Arc::clone(n), step(inner, f, &mut changed)),
            Expr::RemoteApp { driver, arg } => Expr::RemoteApp {
                driver: Arc::clone(driver),
                arg: step(arg, f, &mut changed),
            },
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                let scrutinee2 = step(scrutinee, f, &mut changed);
                let mut new_arms: Option<Vec<CaseArm>> = None;
                for (i, arm) in arms.iter().enumerate() {
                    let out = f(&arm.body);
                    if new_arms.is_none() && !Arc::ptr_eq(&out, &arm.body) {
                        let mut v = Vec::with_capacity(arms.len());
                        v.extend(arms[..i].iter().cloned());
                        new_arms = Some(v);
                    }
                    if let Some(v) = &mut new_arms {
                        v.push(CaseArm {
                            tag: Arc::clone(&arm.tag),
                            var: Arc::clone(&arm.var),
                            body: out,
                        });
                    }
                }
                let default2 = default.as_ref().map(|d| step(d, f, &mut changed));
                match new_arms {
                    Some(v) => {
                        changed = true;
                        Expr::Case {
                            scrutinee: scrutinee2,
                            arms: v,
                            default: default2,
                        }
                    }
                    None if changed => Expr::Case {
                        scrutinee: scrutinee2,
                        arms: arms.clone(),
                        default: default2,
                    },
                    None => return Arc::clone(e),
                }
            }
            Expr::Single(k, inner) => Expr::Single(*k, step(inner, f, &mut changed)),
            Expr::Union(k, a, b) => {
                Expr::Union(*k, step(a, f, &mut changed), step(b, f, &mut changed))
            }
            Expr::Ext {
                kind,
                var,
                body,
                source,
            } => Expr::Ext {
                kind: *kind,
                var: Arc::clone(var),
                body: step(body, f, &mut changed),
                source: step(source, f, &mut changed),
            },
            Expr::If(c, t, el) => Expr::If(
                step(c, f, &mut changed),
                step(t, f, &mut changed),
                step(el, f, &mut changed),
            ),
            Expr::Prim(p, args) => {
                let mut new_args: Option<Vec<Arc<Expr>>> = None;
                for (i, a) in args.iter().enumerate() {
                    let out = f(a);
                    if new_args.is_none() && !Arc::ptr_eq(&out, a) {
                        let mut v = Vec::with_capacity(args.len());
                        v.extend(args[..i].iter().map(Arc::clone));
                        new_args = Some(v);
                    }
                    if let Some(v) = &mut new_args {
                        v.push(out);
                    }
                }
                match new_args {
                    Some(v) => {
                        changed = true;
                        Expr::Prim(*p, v)
                    }
                    None => return Arc::clone(e),
                }
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
            } => Expr::Join {
                kind: *kind,
                strategy: strategy.clone(),
                left: step(left, f, &mut changed),
                right: step(right, f, &mut changed),
                lvar: Arc::clone(lvar),
                rvar: Arc::clone(rvar),
                left_key: left_key.as_ref().map(|k| step(k, f, &mut changed)),
                right_key: right_key.as_ref().map(|k| step(k, f, &mut changed)),
                cond: step(cond, f, &mut changed),
                body: step(body, f, &mut changed),
            },
            Expr::Cached { id, expr } => Expr::Cached {
                id: *id,
                expr: step(expr, f, &mut changed),
            },
            Expr::ParExt {
                kind,
                var,
                body,
                source,
                max_in_flight,
                batch,
            } => Expr::ParExt {
                kind: *kind,
                var: Arc::clone(var),
                body: step(body, f, &mut changed),
                source: step(source, f, &mut changed),
                max_in_flight: *max_in_flight,
                batch: batch.clone(),
            },
        };
        if changed {
            Arc::new(rebuilt)
        } else {
            Arc::clone(e)
        }
    }

    /// Fully un-share: rebuild the expression as a tree of fresh nodes.
    /// Only useful for measuring what plans cost *without* structural
    /// sharing (see the `plan_sharing` bench); never needed in the engine.
    pub fn deep_clone(&self) -> Expr {
        fn dc(c: &Arc<Expr>) -> Arc<Expr> {
            Arc::new(c.deep_clone())
        }
        match self {
            e @ (Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) | Expr::Remote { .. }) => e.clone(),
            Expr::Let { var, def, body } => Expr::Let {
                var: Arc::clone(var),
                def: dc(def),
                body: dc(body),
            },
            Expr::Lambda { var, body } => Expr::Lambda {
                var: Arc::clone(var),
                body: dc(body),
            },
            Expr::Apply(a, b) => Expr::Apply(dc(a), dc(b)),
            Expr::Record(fields) => {
                Expr::Record(fields.iter().map(|(n, e)| (Arc::clone(n), dc(e))).collect())
            }
            Expr::Proj(e, n) => Expr::Proj(dc(e), Arc::clone(n)),
            Expr::Inject(n, e) => Expr::Inject(Arc::clone(n), dc(e)),
            Expr::RemoteApp { driver, arg } => Expr::RemoteApp {
                driver: Arc::clone(driver),
                arg: dc(arg),
            },
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => Expr::Case {
                scrutinee: dc(scrutinee),
                arms: arms
                    .iter()
                    .map(|arm| CaseArm {
                        tag: Arc::clone(&arm.tag),
                        var: Arc::clone(&arm.var),
                        body: dc(&arm.body),
                    })
                    .collect(),
                default: default.as_ref().map(dc),
            },
            Expr::Single(k, e) => Expr::Single(*k, dc(e)),
            Expr::Union(k, a, b) => Expr::Union(*k, dc(a), dc(b)),
            Expr::Ext {
                kind,
                var,
                body,
                source,
            } => Expr::Ext {
                kind: *kind,
                var: Arc::clone(var),
                body: dc(body),
                source: dc(source),
            },
            Expr::If(c, t, f) => Expr::If(dc(c), dc(t), dc(f)),
            Expr::Prim(p, args) => Expr::Prim(*p, args.iter().map(dc).collect()),
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
            } => Expr::Join {
                kind: *kind,
                strategy: strategy.clone(),
                left: dc(left),
                right: dc(right),
                lvar: Arc::clone(lvar),
                rvar: Arc::clone(rvar),
                left_key: left_key.as_ref().map(dc),
                right_key: right_key.as_ref().map(dc),
                cond: dc(cond),
                body: dc(body),
            },
            Expr::Cached { id, expr } => Expr::Cached {
                id: *id,
                expr: dc(expr),
            },
            Expr::ParExt {
                kind,
                var,
                body,
                source,
                max_in_flight,
                batch,
            } => Expr::ParExt {
                kind: *kind,
                var: Arc::clone(var),
                body: dc(body),
                source: dc(source),
                max_in_flight: *max_in_flight,
                batch: batch.clone(),
            },
        }
    }

    /// Free variables of the expression.
    pub fn free_vars(&self) -> Vec<Name> {
        let mut acc = Vec::new();
        self.collect_free(&mut Vec::new(), &mut acc);
        acc.sort();
        acc.dedup();
        acc
    }

    /// Does `var` occur free in the expression? Allocation-free early-exit
    /// walk — this is the hottest predicate in the rule sets.
    pub fn occurs_free(&self, var: &str) -> bool {
        fn go(e: &Expr, var: &str) -> bool {
            match e {
                Expr::Var(n) => &**n == var,
                Expr::Let { var: v, def, body } => go(def, var) || (&**v != var && go(body, var)),
                Expr::Lambda { var: v, body } => &**v != var && go(body, var),
                Expr::Ext {
                    var: v,
                    body,
                    source,
                    ..
                }
                | Expr::ParExt {
                    var: v,
                    body,
                    source,
                    ..
                } => go(source, var) || (&**v != var && go(body, var)),
                Expr::Case {
                    scrutinee,
                    arms,
                    default,
                } => {
                    go(scrutinee, var)
                        || arms
                            .iter()
                            .any(|arm| &*arm.var != var && go(&arm.body, var))
                        || default.as_deref().is_some_and(|d| go(d, var))
                }
                Expr::Join {
                    left,
                    right,
                    lvar,
                    rvar,
                    left_key,
                    right_key,
                    cond,
                    body,
                    ..
                } => {
                    // Mirror collect_free's scoping exactly: left_key is
                    // under lvar only; right_key/cond/body under both.
                    go(left, var)
                        || go(right, var)
                        || (&**lvar != var
                            && (left_key.as_deref().is_some_and(|k| go(k, var))
                                || (&**rvar != var
                                    && (right_key.as_deref().is_some_and(|k| go(k, var))
                                        || go(cond, var)
                                        || go(body, var)))))
                }
                other => {
                    let mut found = false;
                    other.for_each_child(&mut |c| {
                        if !found {
                            found = go(c, var);
                        }
                    });
                    found
                }
            }
        }
        go(self, var)
    }

    fn collect_free(&self, bound: &mut Vec<Name>, acc: &mut Vec<Name>) {
        match self {
            Expr::Var(n) => {
                if !bound.iter().any(|b| b == n) {
                    acc.push(Arc::clone(n));
                }
            }
            Expr::Let { var, def, body } => {
                def.collect_free(bound, acc);
                bound.push(Arc::clone(var));
                body.collect_free(bound, acc);
                bound.pop();
            }
            Expr::Lambda { var, body } => {
                bound.push(Arc::clone(var));
                body.collect_free(bound, acc);
                bound.pop();
            }
            Expr::Ext {
                var, body, source, ..
            }
            | Expr::ParExt {
                var, body, source, ..
            } => {
                source.collect_free(bound, acc);
                bound.push(Arc::clone(var));
                body.collect_free(bound, acc);
                bound.pop();
            }
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                scrutinee.collect_free(bound, acc);
                for arm in arms {
                    bound.push(Arc::clone(&arm.var));
                    arm.body.collect_free(bound, acc);
                    bound.pop();
                }
                if let Some(d) = default {
                    d.collect_free(bound, acc);
                }
            }
            Expr::Join {
                left,
                right,
                lvar,
                rvar,
                left_key,
                right_key,
                cond,
                body,
                ..
            } => {
                left.collect_free(bound, acc);
                right.collect_free(bound, acc);
                bound.push(Arc::clone(lvar));
                if let Some(k) = left_key {
                    k.collect_free(bound, acc);
                }
                bound.push(Arc::clone(rvar));
                if let Some(k) = right_key {
                    // right_key must only see rvar, but binding both is harmless
                    k.collect_free(bound, acc);
                }
                cond.collect_free(bound, acc);
                body.collect_free(bound, acc);
                bound.pop();
                bound.pop();
            }
            other => {
                // All remaining constructs bind nothing.
                other.for_each_child(&mut |c| c.collect_free(bound, acc));
            }
        }
    }

    /// Capture-avoiding substitution of `replacement` for free `var`
    /// (owned-value convenience over [`Expr::subst_shared`]).
    pub fn subst(self, var: &str, replacement: &Expr) -> Expr {
        let out = Expr::subst_shared(&Arc::new(self), var, &Arc::new(replacement.clone()));
        (*out).clone()
    }

    /// Capture-avoiding substitution over shared handles. Subtrees in
    /// which `var` does not occur free come back pointer-equal — in
    /// particular, `subst_shared(e, x, r)` returns `e` itself when `x` is
    /// not free in `e` at all.
    pub fn subst_shared(e: &Arc<Expr>, var: &str, replacement: &Arc<Expr>) -> Arc<Expr> {
        let free_in_repl = replacement.free_vars();
        Expr::subst_rec(e, var, replacement, &free_in_repl)
    }

    fn subst_rec(e: &Arc<Expr>, var: &str, repl: &Arc<Expr>, free_in_repl: &[Name]) -> Arc<Expr> {
        // Rebinding of a shadowed binder only matters below a binder whose
        // name collides with a free variable of the replacement; the
        // generic path handles everything that binds nothing.
        match &**e {
            Expr::Var(n) => {
                if &**n == var {
                    Arc::clone(repl)
                } else {
                    Arc::clone(e)
                }
            }
            Expr::Let { var: v, def, body } => {
                let def2 = Expr::subst_rec(def, var, repl, free_in_repl);
                if &**v == var {
                    if Arc::ptr_eq(&def2, def) {
                        Arc::clone(e)
                    } else {
                        Arc::new(Expr::Let {
                            var: Arc::clone(v),
                            def: def2,
                            body: Arc::clone(body),
                        })
                    }
                } else if free_in_repl.iter().any(|n| n == v) {
                    let fresh_v = fresh(v);
                    let renamed =
                        Expr::subst_shared(body, v, &Arc::new(Expr::Var(Arc::clone(&fresh_v))));
                    Arc::new(Expr::Let {
                        var: fresh_v,
                        def: def2,
                        body: Expr::subst_rec(&renamed, var, repl, free_in_repl),
                    })
                } else {
                    let body2 = Expr::subst_rec(body, var, repl, free_in_repl);
                    if Arc::ptr_eq(&def2, def) && Arc::ptr_eq(&body2, body) {
                        Arc::clone(e)
                    } else {
                        Arc::new(Expr::Let {
                            var: Arc::clone(v),
                            def: def2,
                            body: body2,
                        })
                    }
                }
            }
            Expr::Lambda { var: v, body } => {
                if &**v == var {
                    Arc::clone(e)
                } else if free_in_repl.iter().any(|n| n == v) {
                    let fresh_v = fresh(v);
                    let renamed =
                        Expr::subst_shared(body, v, &Arc::new(Expr::Var(Arc::clone(&fresh_v))));
                    Arc::new(Expr::Lambda {
                        var: fresh_v,
                        body: Expr::subst_rec(&renamed, var, repl, free_in_repl),
                    })
                } else {
                    let body2 = Expr::subst_rec(body, var, repl, free_in_repl);
                    if Arc::ptr_eq(&body2, body) {
                        Arc::clone(e)
                    } else {
                        Arc::new(Expr::Lambda {
                            var: Arc::clone(v),
                            body: body2,
                        })
                    }
                }
            }
            Expr::Ext { .. } | Expr::ParExt { .. } => {
                // Shared binding structure; destructure via accessors.
                let (kind, v, body, source, par) = match &**e {
                    Expr::Ext {
                        kind,
                        var,
                        body,
                        source,
                    } => (*kind, var, body, source, None),
                    Expr::ParExt {
                        kind,
                        var,
                        body,
                        source,
                        max_in_flight,
                        ..
                    } => (*kind, var, body, source, Some(*max_in_flight)),
                    _ => unreachable!(),
                };
                // A substitution that actually rebuilds the node would
                // leave a `batch` mark's cached request argument stale,
                // so the rebuilt node drops it — the batch pass runs
                // after every substituting rewrite and re-derives it.
                // (The no-change fast path below keeps the shared node,
                // mark included.)
                let rebuild = |v: Name, body: Arc<Expr>, source: Arc<Expr>| match par {
                    None => Expr::Ext {
                        kind,
                        var: v,
                        body,
                        source,
                    },
                    Some(m) => Expr::ParExt {
                        kind,
                        var: v,
                        body,
                        source,
                        max_in_flight: m,
                        batch: None,
                    },
                };
                let source2 = Expr::subst_rec(source, var, repl, free_in_repl);
                if &**v == var {
                    if Arc::ptr_eq(&source2, source) {
                        Arc::clone(e)
                    } else {
                        Arc::new(rebuild(Arc::clone(v), Arc::clone(body), source2))
                    }
                } else if free_in_repl.iter().any(|n| n == v) {
                    let fresh_v = fresh(v);
                    let renamed =
                        Expr::subst_shared(body, v, &Arc::new(Expr::Var(Arc::clone(&fresh_v))));
                    Arc::new(rebuild(
                        fresh_v,
                        Expr::subst_rec(&renamed, var, repl, free_in_repl),
                        source2,
                    ))
                } else {
                    let body2 = Expr::subst_rec(body, var, repl, free_in_repl);
                    if Arc::ptr_eq(&source2, source) && Arc::ptr_eq(&body2, body) {
                        Arc::clone(e)
                    } else {
                        Arc::new(rebuild(Arc::clone(v), body2, source2))
                    }
                }
            }
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                let mut changed = false;
                let scrutinee2 = Expr::subst_rec(scrutinee, var, repl, free_in_repl);
                changed |= !Arc::ptr_eq(&scrutinee2, scrutinee);
                // Lazy arm rebuild, mirroring map_children_shared: no
                // allocation when the variable occurs in no arm.
                let mut new_arms: Option<Vec<CaseArm>> = None;
                for (i, arm) in arms.iter().enumerate() {
                    let arm2 = if &*arm.var == var {
                        None
                    } else if free_in_repl.contains(&arm.var) {
                        let fresh_v = fresh(&arm.var);
                        let renamed = Expr::subst_shared(
                            &arm.body,
                            &arm.var,
                            &Arc::new(Expr::Var(Arc::clone(&fresh_v))),
                        );
                        Some(CaseArm {
                            tag: Arc::clone(&arm.tag),
                            var: fresh_v,
                            body: Expr::subst_rec(&renamed, var, repl, free_in_repl),
                        })
                    } else {
                        let body2 = Expr::subst_rec(&arm.body, var, repl, free_in_repl);
                        if Arc::ptr_eq(&body2, &arm.body) {
                            None
                        } else {
                            Some(CaseArm {
                                tag: Arc::clone(&arm.tag),
                                var: Arc::clone(&arm.var),
                                body: body2,
                            })
                        }
                    };
                    if new_arms.is_none() && arm2.is_some() {
                        let mut v = Vec::with_capacity(arms.len());
                        v.extend(arms[..i].iter().cloned());
                        new_arms = Some(v);
                    }
                    if let Some(v) = &mut new_arms {
                        v.push(arm2.unwrap_or_else(|| arm.clone()));
                    }
                }
                changed |= new_arms.is_some();
                let default2 = default.as_ref().map(|d| {
                    let d2 = Expr::subst_rec(d, var, repl, free_in_repl);
                    changed |= !Arc::ptr_eq(&d2, d);
                    d2
                });
                if changed {
                    Arc::new(Expr::Case {
                        scrutinee: scrutinee2,
                        arms: new_arms.unwrap_or_else(|| arms.clone()),
                        default: default2,
                    })
                } else {
                    Arc::clone(e)
                }
            }
            // Joins are introduced after substitution-driven rewriting;
            // handle conservatively via the generic (binder-blind) path.
            _ => Expr::map_children_shared(e, &mut |c| Expr::subst_rec(c, var, repl, free_in_repl)),
        }
    }

    /// The collection kind this expression produces, when it is evident
    /// from the plan's syntax. Used by the evaluator to canonicalize a
    /// drained plan (or a cached subquery's teed rows) into the right
    /// collection, and by `Session::query_first_n` to decide whether the
    /// streamed prefix needs set deduplication. `None` means the kind is
    /// only knowable from types or runtime values (e.g. a bare `Var`).
    pub fn coll_kind_hint(&self) -> Option<CollKind> {
        match self {
            Expr::Empty(k) | Expr::Single(k, _) | Expr::Union(k, ..) => Some(*k),
            Expr::Ext { kind, .. } | Expr::ParExt { kind, .. } | Expr::Join { kind, .. } => {
                Some(*kind)
            }
            // Drivers answer with sets (so `typing` says too).
            Expr::Remote { .. } | Expr::RemoteApp { .. } => Some(CollKind::Set),
            Expr::Cached { expr, .. } => expr.coll_kind_hint(),
            Expr::Let { body, .. } => body.coll_kind_hint(),
            Expr::If(_, t, f) => t.coll_kind_hint().or_else(|| f.coll_kind_hint()),
            Expr::Const(v) => v.coll_kind(),
            _ => None,
        }
    }

    /// True when evaluating this expression may contact a driver. Used by
    /// the caching and concurrency rules to find "expensive" subqueries.
    pub fn touches_remote(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Remote { .. } | Expr::RemoteApp { .. }) {
                found = true;
            }
        });
        found
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::write_expr(f, self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        // U{ x + y | \x <- src }
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::var("y")]),
            Expr::var("src"),
        );
        let fv = e.free_vars();
        let names: Vec<&str> = fv.iter().map(|n| &**n).collect();
        assert_eq!(names, vec!["src", "y"]);
        assert!(e.occurs_free("y"));
        assert!(!e.occurs_free("x"));
    }

    #[test]
    fn occurs_free_matches_free_vars_on_join_keys() {
        // left_key is scoped under lvar only: rvar occurring in it is
        // FREE, and both predicates must agree on that.
        let join = Expr::Join {
            kind: CollKind::Set,
            strategy: JoinStrategy::IndexedNl,
            left: Arc::new(Expr::var("L")),
            right: Arc::new(Expr::var("R")),
            lvar: name("l"),
            rvar: name("r"),
            left_key: Some(Arc::new(Expr::var("r"))),
            right_key: Some(Arc::new(Expr::var("r"))),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(Expr::single(CollKind::Set, Expr::var("l"))),
        };
        let fv = join.free_vars();
        assert!(fv.iter().any(|n| &**n == "r"), "free_vars: {fv:?}");
        assert!(
            join.occurs_free("r"),
            "occurs_free must agree with free_vars"
        );
        assert!(!join.occurs_free("l"), "lvar never escapes");
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::var("x"),
            Expr::single(CollKind::Set, Expr::var("x")),
        );
        // the source's x is free, the body's x is bound
        let r = e.subst("x", &Expr::int(7));
        match r {
            Expr::Ext { body, source, .. } => {
                assert_eq!(*body, Expr::var("x"));
                assert_eq!(*source, Expr::single(CollKind::Set, Expr::int(7)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subst_avoids_capture() {
        // U{ y | \x <- src }  with  y := x   must rename the binder
        let e = Expr::ext(CollKind::Set, "x", Expr::var("y"), Expr::var("src"));
        let r = e.subst("y", &Expr::var("x"));
        match r {
            Expr::Ext { var, body, .. } => {
                assert_ne!(&*var, "x", "binder must be renamed");
                assert_eq!(*body, Expr::var("x"), "substituted var stays free");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lambda_subst_shadowing() {
        let e = Expr::lambda("x", Expr::var("x"));
        let r = e.clone().subst("x", &Expr::int(1));
        assert_eq!(r, e, "bound variable is untouched");
    }

    #[test]
    fn subst_shared_is_pointer_preserving_on_miss() {
        // var does not occur: the very same Arc comes back.
        let e = Arc::new(Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::var("x")),
            Expr::var("src"),
        ));
        let out = Expr::subst_shared(&e, "zzz", &Arc::new(Expr::int(1)));
        assert!(Arc::ptr_eq(&e, &out));
        // var occurs only in one branch: the untouched branch is shared.
        let e = Arc::new(Expr::if_(Expr::var("p"), Expr::var("q"), Expr::int(3)));
        let out = Expr::subst_shared(&e, "p", &Arc::new(Expr::bool(true)));
        let (Expr::If(_, t1, f1), Expr::If(_, t2, f2)) = (&*e, &*out) else {
            panic!("shape changed");
        };
        assert!(Arc::ptr_eq(t1, t2), "untouched then-branch must be shared");
        assert!(Arc::ptr_eq(f1, f2), "untouched else-branch must be shared");
    }

    #[test]
    fn map_children_shared_preserves_pointer_on_identity() {
        let e = Arc::new(Expr::eq(Expr::int(1), Expr::var("x")));
        let out = Expr::map_children_shared(&e, &mut Arc::clone);
        assert!(Arc::ptr_eq(&e, &out), "identity map must not reallocate");
        let out = Expr::map_children_shared(&e, &mut |c| match &**c {
            Expr::Var(_) => Arc::new(Expr::int(9)),
            _ => Arc::clone(c),
        });
        assert!(!Arc::ptr_eq(&e, &out));
        assert_eq!(*out, Expr::eq(Expr::int(1), Expr::int(9)));
    }

    #[test]
    fn clone_is_shallow_and_deep_clone_unshares() {
        let shared = Arc::new(Expr::int(5));
        let e = Expr::Union(CollKind::Set, Arc::clone(&shared), Arc::clone(&shared));
        let c = e.clone();
        let (Expr::Union(_, a, _), Expr::Union(_, b, _)) = (&e, &c) else {
            panic!("shape");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share children");
        let d = e.deep_clone();
        assert_eq!(d, e, "deep clone is structurally identical");
        let Expr::Union(_, da, db) = &d else {
            panic!("shape")
        };
        assert!(!Arc::ptr_eq(da, a), "deep clone must not share");
        assert!(!Arc::ptr_eq(da, db), "deep clone unfolds internal sharing");
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::eq(Expr::int(1), Expr::int(2));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn touches_remote_detection() {
        let remote = Expr::Remote {
            driver: name("GDB"),
            request: DriverRequest::TableScan {
                table: "locus".into(),
                columns: None,
            },
        };
        let e = Expr::ext(CollKind::Set, "x", Expr::var("x"), remote);
        assert!(e.touches_remote());
        assert!(!Expr::int(3).touches_remote());
    }

    #[test]
    fn fresh_names_are_unique() {
        let a = fresh("x");
        let b = fresh("x");
        assert_ne!(a, b);
    }
}
