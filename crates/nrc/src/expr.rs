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
//! against the `*_shared` helpers.
//!
//! # Scope
//!
//! Which names a node binds over which child is stated once, by
//! [`Expr::for_each_child_in_scope`]; this is that table, and a child not
//! listed is under nothing its parent binds:
//!
//! * `Let { var, def, body }`: `body` under `var`.
//! * `Lambda { var, body }`: `body` under `var`.
//! * `Ext` / `ParExt { var, body, source, .. }`: `body` under `var`.
//! * `Case { arms, .. }`: each arm's `body` under that arm's `var`.
//! * `Join { lvar, rvar, .. }`: `left_key` under `lvar`, `right_key` under
//!   `rvar`, `cond` and `body` under `lvar` then `rvar` (an equal `rvar`
//!   shadows `lvar`). A key sees its own side only because that is all
//!   there is when it runs: the indexed join keys the whole inner
//!   relation by `right_key` before any outer element exists, then
//!   probes with `left_key` before an inner one is chosen — which is why
//!   the join rule set splits an equality into keys only when each side
//!   mentions one variable.
//!
//! [`Expr::free_vars`], [`Expr::occurs_free`], [`Expr::count_free`] and
//! [`Expr::subst_shared`] are all derived from the table, so they cannot
//! disagree; a rule must ask them (or walk the table) and never compare
//! binder names itself. The type checker and the evaluators, which give
//! a binder its type or value, follow the same table and are held to it
//! by `crates/exec/tests/oracle.rs`.
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
use std::ops::ControlFlow;
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
        /// Equi-join keys, `left_key` over `lvar` and `right_key` over
        /// `rvar` alone (module docs, "Scope"): `IndexedNl` probes an
        /// index with them, `BlockedNl` compares them pair by pair.
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

    /// The scope table (module docs, "Scope"): apply `f` to each direct
    /// child handle — in the order [`Expr::map_children_shared`] rebuilds
    /// and [`crate::hash::plan_hash`] hashes them — together with the
    /// names this node binds over that child, outermost first, so a later
    /// equal name shadows an earlier one. Allocation-free.
    pub fn for_each_child_in_scope<'a>(&'a self, f: &mut impl FnMut(&'a Arc<Expr>, &[&'a Name])) {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) | Expr::Remote { .. } => {}
            Expr::Let { var, def, body } => {
                f(def, &[]);
                f(body, &[var]);
            }
            Expr::Lambda { var, body } => f(body, &[var]),
            Expr::Apply(a, b) | Expr::Union(_, a, b) => {
                f(a, &[]);
                f(b, &[]);
            }
            Expr::Record(fields) => fields.iter().for_each(|(_, e)| f(e, &[])),
            Expr::Proj(e, _)
            | Expr::Inject(_, e)
            | Expr::Single(_, e)
            | Expr::RemoteApp { arg: e, .. }
            | Expr::Cached { expr: e, .. } => f(e, &[]),
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                f(scrutinee, &[]);
                arms.iter().for_each(|arm| f(&arm.body, &[&arm.var]));
                default.iter().for_each(|d| f(d, &[]));
            }
            Expr::Ext {
                var, body, source, ..
            }
            | Expr::ParExt {
                var, body, source, ..
            } => {
                f(body, &[var]);
                f(source, &[]);
            }
            Expr::If(c, t, e) => {
                f(c, &[]);
                f(t, &[]);
                f(e, &[]);
            }
            Expr::Prim(_, args) => args.iter().for_each(|a| f(a, &[])),
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
                f(left, &[]);
                f(right, &[]);
                left_key.iter().for_each(|k| f(k, &[lvar]));
                right_key.iter().for_each(|k| f(k, &[rvar]));
                f(cond, &[lvar, rvar]);
                f(body, &[lvar, rvar]);
            }
        }
    }

    /// [`Expr::for_each_child_in_scope`] for walks that do not look at
    /// names ([`crate::hash::plan_hash`] hashes children in this order).
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Arc<Expr>)) {
        self.for_each_child_in_scope(&mut |c, _| f(c));
    }

    /// Early-exit, prunable pre-order search. `at` sees each node with the
    /// names its parent binds over it (none at the root) and answers
    /// `Break(Some(t))` — found, the search ends with `t` —, `Break(None)`
    /// — nothing here, and do not look below — or `Continue(())` — look
    /// at the children.
    pub fn find<'a, T>(
        &'a self,
        at: &mut impl FnMut(&'a Expr, &[&'a Name]) -> ControlFlow<Option<T>>,
    ) -> Option<T> {
        fn go<'a, T>(
            e: &'a Expr,
            scope: &[&'a Name],
            at: &mut impl FnMut(&'a Expr, &[&'a Name]) -> ControlFlow<Option<T>>,
        ) -> Option<T> {
            if let ControlFlow::Break(out) = at(e, scope) {
                return out;
            }
            let mut found = None;
            e.for_each_child_in_scope(&mut |c, scope| {
                if found.is_none() {
                    found = go(c, scope, at);
                }
            });
            found
        }
        go(self, &[], at)
    }

    /// Rebuild this node with each child handle transformed by `f`,
    /// preserving sharing: when every child comes back pointer-equal, the
    /// input handle itself is returned and nothing is allocated. This is
    /// the traversal primitive of the rewrite engine — see the module docs.
    pub fn map_children_shared(
        e: &Arc<Expr>,
        f: &mut impl FnMut(&Arc<Expr>) -> Arc<Expr>,
    ) -> Arc<Expr> {
        Expr::rebuild_shared(e, &mut Arc::clone, f)
    }

    /// [`Expr::map_children_shared`] that also passes the binder names of
    /// a node it rebuilds through `bind`. Children reach `f` in
    /// [`Expr::for_each_child_in_scope`]'s order; this is the one place a
    /// node is reconstructed variant by variant.
    fn rebuild_shared(
        e: &Arc<Expr>,
        bind: &mut impl FnMut(&Name) -> Name,
        f: &mut impl FnMut(&Arc<Expr>) -> Arc<Expr>,
    ) -> Arc<Expr> {
        let mut changed = false;
        let mut step = |c: &Arc<Expr>| {
            let out = f(c);
            changed |= !Arc::ptr_eq(&out, c);
            out
        };
        // The slots of a variable-length node, rebuilt lazily: an
        // unchanged record must not allocate (the whole point of the
        // sharing pass).
        fn slots<T: Clone>(
            items: &[T],
            child: impl Fn(&T) -> &Arc<Expr>,
            mut with: impl FnMut(&T, Arc<Expr>) -> T,
            step: &mut impl FnMut(&Arc<Expr>) -> Arc<Expr>,
        ) -> Option<Vec<T>> {
            let mut rebuilt: Option<Vec<T>> = None;
            for (i, item) in items.iter().enumerate() {
                let out = step(child(item));
                if rebuilt.is_none() && !Arc::ptr_eq(&out, child(item)) {
                    let mut v = Vec::with_capacity(items.len());
                    v.extend_from_slice(&items[..i]);
                    rebuilt = Some(v);
                }
                if let Some(v) = &mut rebuilt {
                    v.push(with(item, out));
                }
            }
            rebuilt
        }
        let rebuilt = match &**e {
            Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) | Expr::Remote { .. } => {
                return Arc::clone(e)
            }
            Expr::Let { var, def, body } => Expr::Let {
                def: step(def),
                body: step(body),
                var: bind(var),
            },
            Expr::Lambda { var, body } => Expr::Lambda {
                body: step(body),
                var: bind(var),
            },
            Expr::Apply(a, b) => Expr::Apply(step(a), step(b)),
            Expr::Record(fields) => {
                let with = |(n, _): &(Name, _), e| (Arc::clone(n), e);
                match slots(fields, |(_, e)| e, with, &mut step) {
                    Some(fields) => Expr::Record(fields),
                    None => return Arc::clone(e),
                }
            }
            Expr::Proj(inner, n) => Expr::Proj(step(inner), Arc::clone(n)),
            Expr::Inject(n, inner) => Expr::Inject(Arc::clone(n), step(inner)),
            Expr::RemoteApp { driver, arg } => Expr::RemoteApp {
                driver: Arc::clone(driver),
                arg: step(arg),
            },
            Expr::Case {
                scrutinee,
                arms,
                default,
            } => {
                let scrutinee = step(scrutinee);
                let with = |arm: &CaseArm, body| CaseArm {
                    tag: Arc::clone(&arm.tag),
                    var: bind(&arm.var),
                    body,
                };
                let rebuilt = slots(arms, |arm| &arm.body, with, &mut step);
                let default = default.as_ref().map(&mut step);
                if !changed {
                    return Arc::clone(e);
                }
                Expr::Case {
                    scrutinee,
                    arms: rebuilt.unwrap_or_else(|| arms.clone()),
                    default,
                }
            }
            Expr::Single(k, inner) => Expr::Single(*k, step(inner)),
            Expr::Union(k, a, b) => Expr::Union(*k, step(a), step(b)),
            Expr::Ext {
                kind,
                var,
                body,
                source,
            } => Expr::Ext {
                kind: *kind,
                body: step(body),
                source: step(source),
                var: bind(var),
            },
            Expr::If(c, t, el) => Expr::If(step(c), step(t), step(el)),
            Expr::Prim(p, args) => match slots(args, |a| a, |_, a| a, &mut step) {
                Some(args) => Expr::Prim(*p, args),
                None => return Arc::clone(e),
            },
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
                left: step(left),
                right: step(right),
                left_key: left_key.as_ref().map(&mut step),
                right_key: right_key.as_ref().map(&mut step),
                cond: step(cond),
                body: step(body),
                lvar: bind(lvar),
                rvar: bind(rvar),
            },
            Expr::Cached { id, expr } => Expr::Cached {
                id: *id,
                expr: step(expr),
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
                body: step(body),
                source: step(source),
                var: bind(var),
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

    /// Free variables of the expression, sorted.
    pub fn free_vars(&self) -> Vec<Name> {
        fn go<'a>(e: &'a Expr, bound: &mut Vec<&'a Name>, acc: &mut Vec<Name>) {
            match e {
                Expr::Var(n) if !bound.contains(&n) => acc.push(Arc::clone(n)),
                _ => e.for_each_child_in_scope(&mut |c, scope| {
                    bound.extend_from_slice(scope);
                    go(c, bound, acc);
                    bound.truncate(bound.len() - scope.len());
                }),
            }
        }
        let mut acc = Vec::new();
        go(self, &mut Vec::new(), &mut acc);
        acc.sort();
        acc.dedup();
        acc
    }

    /// Does `var` occur free in the expression? Allocation-free early-exit
    /// walk — this is the hottest predicate in the rule sets.
    pub fn occurs_free(&self, var: &str) -> bool {
        self.find(&mut |e, scope| match e {
            _ if binds(scope, var) => ControlFlow::Break(None),
            Expr::Var(n) if &**n == var => ControlFlow::Break(Some(())),
            _ => ControlFlow::Continue(()),
        })
        .is_some()
    }

    /// The number of free occurrences of `var` in the expression.
    pub fn count_free(&self, var: &str) -> usize {
        if let Expr::Var(n) = self {
            return usize::from(&**n == var);
        }
        let mut n = 0;
        self.for_each_child_in_scope(&mut |c, scope| {
            if !binds(scope, var) {
                n += c.count_free(var);
            }
        });
        n
    }

    /// Capture-avoiding substitution over shared handles. Subtrees in
    /// which `var` does not occur free come back pointer-equal — in
    /// particular, `subst_shared(e, x, r)` returns `e` itself when `x` is
    /// not free in `e` at all.
    pub fn subst_shared(e: &Arc<Expr>, var: &str, replacement: &Arc<Expr>) -> Arc<Expr> {
        let free_in_repl = replacement.free_vars();
        Expr::subst_rec(e, var, replacement, &free_in_repl, &mut Vec::new())
    }

    /// `results` is one stack for the whole substitution: a node parks
    /// its children's results above its caller's and takes them back off
    /// before it returns.
    fn subst_rec(
        e: &Arc<Expr>,
        var: &str,
        repl: &Arc<Expr>,
        free_in_repl: &[Name],
        results: &mut Vec<Arc<Expr>>,
    ) -> Arc<Expr> {
        if let Expr::Var(n) = &**e {
            return Arc::clone(if &**n == var { repl } else { e });
        }
        // A binder that would capture a free name of the replacement on
        // its way to an occurrence of `var` is renamed — by name, in
        // every child it reaches, so binders that shadowed one another
        // still do.
        let mut renamed: Vec<(&Name, Name)> = Vec::new();
        e.for_each_child_in_scope(&mut |c, scope| {
            for b in scope {
                if free_in_repl.contains(b)
                    && !renamed.iter().any(|(old, _)| old == b)
                    && !binds(scope, var)
                    && c.occurs_free(var)
                {
                    renamed.push((b, fresh(b)));
                }
            }
        });
        let base = results.len();
        let mut changed = false;
        e.for_each_child_in_scope(&mut |c, scope| {
            let mut out = Arc::clone(c);
            for (old, new) in &renamed {
                if binds(scope, old) {
                    out = Expr::subst_shared(&out, old, &Arc::new(Expr::Var(Arc::clone(new))));
                }
            }
            if !binds(scope, var) {
                out = Expr::subst_rec(&out, var, repl, free_in_repl, results);
            }
            changed |= !Arc::ptr_eq(&out, c);
            results.push(out);
        });
        if !changed {
            results.truncate(base);
            return Arc::clone(e);
        }
        let mut bind = |b: &Name| {
            let new = renamed.iter().find(|(old, _)| *old == b);
            Arc::clone(new.map_or(b, |(_, new)| new))
        };
        let mut children = results.drain(base..);
        let mut out = Expr::rebuild_shared(e, &mut bind, &mut |_| {
            children.next().expect("one result per child")
        });
        drop(children);
        // The rebuilt loop's `batch` mark caches a request argument that
        // is now stale, so it is dropped — the batch pass runs after
        // every substituting rewrite and re-derives it. (An untouched
        // loop above kept its shared node, mark included.)
        if let Some(Expr::ParExt { batch, .. }) = Arc::get_mut(&mut out) {
            *batch = None;
        }
        out
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
        self.find(&mut |e, _| match e {
            Expr::Remote { .. } | Expr::RemoteApp { .. } => ControlFlow::Break(Some(())),
            _ => ControlFlow::Continue(()),
        })
        .is_some()
    }
}

/// Is `var` one of the names a [scope](Expr::for_each_child_in_scope) binds?
fn binds(scope: &[&Name], var: &str) -> bool {
    scope.iter().any(|b| &***b == var)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::write_expr(f, self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `e[var := replacement]` over owned values.
    fn subst(e: Expr, var: &str, replacement: Expr) -> Expr {
        (*Expr::subst_shared(&Arc::new(e), var, &Arc::new(replacement))).clone()
    }

    /// `Join(\\lvar <- L, \\rvar <- R, left_key, right_key, true, {body})`.
    fn join(lvar: &str, rvar: &str, left_key: Expr, right_key: Expr, body: Expr) -> Expr {
        Expr::Join {
            kind: CollKind::Set,
            strategy: JoinStrategy::IndexedNl,
            left: Arc::new(Expr::var("L")),
            right: Arc::new(Expr::var("R")),
            lvar: name(lvar),
            rvar: name(rvar),
            left_key: Some(Arc::new(left_key)),
            right_key: Some(Arc::new(right_key)),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(Expr::single(CollKind::Set, body)),
        }
    }

    fn marked_loop(var: &str, body: Expr) -> Expr {
        Expr::ParExt {
            kind: CollKind::Set,
            var: name(var),
            body: Arc::new(Expr::single(CollKind::Set, body)),
            source: Arc::new(Expr::var("S")),
            max_in_flight: 3,
            batch: Some(BatchSpec {
                driver: name("GenBank"),
                arg: Arc::new(Expr::var(var)),
                min_keys: 2,
                max_keys: 8,
            }),
        }
    }

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
        let r = subst(e, "x", Expr::int(7));
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
        let r = subst(e, "y", Expr::var("x"));
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
        let r = subst(e.clone(), "x", Expr::int(1));
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
    fn clone_is_shallow() {
        let shared = Arc::new(Expr::int(5));
        let e = Expr::Union(CollKind::Set, Arc::clone(&shared), Arc::clone(&shared));
        let c = e.clone();
        let (Expr::Union(_, a, _), Expr::Union(_, b, _)) = (&e, &c) else {
            panic!("shape");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share children");
    }

    #[test]
    fn subst_respects_join_binders() {
        // `x` is the join's own left variable: only the operand is free.
        let mut e = join("x", "r", Expr::var("x"), Expr::var("r"), Expr::var("x"));
        if let Expr::Join { left, .. } = &mut e {
            *left = Arc::new(Expr::var("x"));
        }
        let Expr::Join {
            left,
            left_key,
            body,
            ..
        } = subst(e, "x", Expr::int(7))
        else {
            panic!("shape");
        };
        assert_eq!(*left, Expr::int(7), "the operand is outside the binder");
        assert_eq!(left_key.as_deref(), Some(&Expr::var("x")));
        assert_eq!(*body, Expr::single(CollKind::Set, Expr::var("x")));
        // `right_key` is under `rvar` alone: an `l` in it is free.
        let e = join("l", "r", Expr::var("l"), Expr::var("l"), Expr::var("l"));
        let Expr::Join {
            left_key,
            right_key,
            body,
            ..
        } = subst(e, "l", Expr::int(7))
        else {
            panic!("shape");
        };
        assert_eq!(left_key.as_deref(), Some(&Expr::var("l")));
        assert_eq!(right_key.as_deref(), Some(&Expr::int(7)));
        assert_eq!(*body, Expr::single(CollKind::Set, Expr::var("l")));
    }

    #[test]
    fn subst_renames_a_capturing_join_binder() {
        let e = join("l", "r", Expr::var("l"), Expr::var("r"), Expr::var("z"));
        let Expr::Join {
            lvar,
            rvar,
            left_key,
            body,
            ..
        } = subst(e, "z", Expr::var("l"))
        else {
            panic!("shape");
        };
        assert_ne!(&*lvar, "l", "the binder must be renamed");
        assert_eq!(&*rvar, "r", "the other one is left alone");
        assert_eq!(*body, Expr::single(CollKind::Set, Expr::var("l")));
        assert_eq!(
            left_key.as_deref(),
            Some(&Expr::Var(lvar)),
            "every child the binder reaches follows the rename"
        );
    }

    #[test]
    fn subst_respects_a_marked_loops_binder() {
        // Shadowed: nothing to do, so the shared node — mark included —
        // comes back.
        let e = Arc::new(marked_loop("x", Expr::var("x")));
        let out = Expr::subst_shared(&e, "x", &Arc::new(Expr::int(7)));
        assert!(Arc::ptr_eq(&e, &out));
        // Free in the source only: the loop is rebuilt around its body,
        // without the mark.
        let mut e = marked_loop("x", Expr::var("x"));
        if let Expr::ParExt { source, .. } = &mut e {
            *source = Arc::new(Expr::var("x"));
        }
        let Expr::ParExt {
            body,
            source,
            batch,
            ..
        } = subst(e, "x", Expr::int(7))
        else {
            panic!("shape");
        };
        assert_eq!(*source, Expr::int(7));
        assert_eq!(*body, Expr::single(CollKind::Set, Expr::var("x")));
        assert_eq!(batch, None, "a rebuilt loop drops its stale mark");
    }

    #[test]
    fn subst_renames_a_capturing_marked_loops_binder() {
        let e = marked_loop("x", Expr::var("z"));
        let Expr::ParExt {
            var,
            body,
            max_in_flight,
            batch,
            ..
        } = subst(e, "z", Expr::var("x"))
        else {
            panic!("shape");
        };
        assert_ne!(&*var, "x", "the binder must be renamed");
        assert_eq!(*body, Expr::single(CollKind::Set, Expr::var("x")));
        assert_eq!(max_in_flight, 3);
        assert_eq!(batch, None, "a rebuilt loop drops its stale mark");
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
