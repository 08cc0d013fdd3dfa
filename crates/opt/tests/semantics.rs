//! Property test: the optimizer never changes the meaning of a query.
//!
//! Random closed NRC expressions — nested comprehensions over sets, bags
//! and lists with mixed kinds, conditionals, arithmetic, unions and
//! aggregates — must evaluate to the same value before and after the full
//! optimization pipeline. This exercises the kind side-conditions of the
//! fusion rules (R1/R2), filter promotion (R3), the unit laws, and the
//! resolve set.

use kleisli_core::{CollKind, Value};
use kleisli_exec::{eval, Context, Env};
use kleisli_opt::{optimize, NullCatalog, OptConfig, RuleCtx};
use nrc::{Expr, Prim};
use proptest::prelude::*;

/// Variables in scope are always ints here, named v0..v{n-1}.
#[derive(Debug, Clone, Copy)]
struct Scope(usize);

fn int_expr(scope: Scope, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = {
        let consts = (-20i64..20).prop_map(Expr::int);
        if scope.0 == 0 {
            consts.boxed()
        } else {
            prop_oneof![
                consts,
                (0..scope.0).prop_map(|i| Expr::var(format!("v{i}"))),
            ]
            .boxed()
        }
    };
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        3 => leaf,
        2 => (int_expr(scope, depth - 1), int_expr(scope, depth - 1))
            .prop_map(|(a, b)| Expr::prim(Prim::Add, vec![a, b])),
        1 => (int_expr(scope, depth - 1), int_expr(scope, depth - 1))
            .prop_map(|(a, b)| Expr::prim(Prim::Sub, vec![a, b])),
        1 => coll_expr(scope, depth - 1)
            .prop_map(|c| Expr::prim(Prim::Count, vec![c])),
        1 => (bool_expr(scope, depth - 1), int_expr(scope, depth - 1), int_expr(scope, depth - 1))
            .prop_map(|(c, t, f)| Expr::if_(c, t, f)),
    ]
    .boxed()
}

fn bool_expr(scope: Scope, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = any::<bool>().prop_map(Expr::bool).boxed();
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        2 => leaf,
        2 => (int_expr(scope, depth - 1), int_expr(scope, depth - 1))
            .prop_map(|(a, b)| Expr::eq(a, b)),
        2 => (int_expr(scope, depth - 1), int_expr(scope, depth - 1))
            .prop_map(|(a, b)| Expr::prim(Prim::Lt, vec![a, b])),
        1 => (bool_expr(scope, depth - 1), bool_expr(scope, depth - 1))
            .prop_map(|(a, b)| Expr::and(a, b)),
        1 => bool_expr(scope, depth - 1)
            .prop_map(|a| Expr::prim(Prim::Not, vec![a])),
    ]
    .boxed()
}

fn any_kind() -> impl Strategy<Value = CollKind> {
    prop_oneof![
        Just(CollKind::Set),
        Just(CollKind::Bag),
        Just(CollKind::List)
    ]
}

/// A collection expression of arbitrary (generated) kind, producing int
/// elements.
fn coll_expr(scope: Scope, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = (any_kind(), proptest::collection::vec(-10i64..10, 0..5))
        .prop_map(|(k, xs)| Expr::Const(Value::collection(k, xs.into_iter().map(Value::Int).collect())))
        .boxed();
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        2 => leaf,
        1 => (any_kind(), int_expr(scope, depth - 1)).prop_map(|(k, e)| Expr::single(k, e)),
        2 => (any_kind(), coll_expr(scope, depth - 1), coll_expr(scope, depth - 1))
            .prop_map(|(k, a, b)| Expr::union(k, fit_kind(a, k), fit_kind(b, k))),
        3 => (any_kind(), coll_expr(scope, depth - 1), coll_body(scope, depth - 1))
            .prop_map(move |(k, src, body)| Expr::ext(k, format!("v{}", scope.0), fit_kind(body, k), src)),
        1 => (bool_expr(scope, depth - 1), any_kind(), coll_expr(scope, depth - 1), coll_expr(scope, depth - 1))
            .prop_map(|(c, k, t, f)| Expr::if_(c, fit_kind(t, k), fit_kind(f, k))),
    ]
    .boxed()
}

/// Body for an `Ext` with one extra int variable in scope.
fn coll_body(scope: Scope, depth: u32) -> BoxedStrategy<Expr> {
    coll_expr(Scope(scope.0 + 1), depth)
}

/// Coerce a generated collection expression to kind `k` by wrapping in a
/// conversion primitive when its syntactic kind differs. Keeps the
/// generated terms well-typed where NRC requires matching kinds
/// (union operands, comprehension bodies).
fn fit_kind(e: Expr, k: CollKind) -> Expr {
    let actual = definite_kind(&e);
    if actual == Some(k) {
        return e;
    }
    let conv = match k {
        CollKind::Set => Prim::SetOf,
        CollKind::Bag => Prim::BagOf,
        CollKind::List => Prim::ListOf,
    };
    Expr::prim(conv, vec![e])
}

fn definite_kind(e: &Expr) -> Option<CollKind> {
    match e {
        Expr::Const(v) => v.coll_kind(),
        Expr::Empty(k) | Expr::Single(k, _) | Expr::Union(k, ..) => Some(*k),
        Expr::Ext { kind, .. } => Some(*kind),
        Expr::If(_, t, _) => definite_kind(t),
        Expr::Prim(Prim::SetOf, _) => Some(CollKind::Set),
        Expr::Prim(Prim::BagOf, _) => Some(CollKind::Bag),
        Expr::Prim(Prim::ListOf, _) => Some(CollKind::List),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimizer_preserves_collection_semantics(e in coll_expr(Scope(0), 3)) {
        let ctx = Context::new();
        let before = eval(&e, &Env::empty(), &ctx);
        let (opt, _trace) = optimize(e.clone(), &NullCatalog, &OptConfig::default());
        let after = eval(&opt, &Env::empty(), &ctx);
        match (before, after) {
            (Ok(b), Ok(a)) => prop_assert_eq!(
                b, a, "\n  original: {}\n optimized: {}", e, opt
            ),
            (Err(_), _) => {
                // Generated terms are error-free by construction; if one
                // errs anyway, the optimizer may legally differ.
            }
            (Ok(b), Err(err)) => {
                return Err(TestCaseError::fail(format!(
                    "optimized query failed ({err}) where original gave {b}\n  original: {e}\n optimized: {opt}"
                )));
            }
        }
    }

    #[test]
    fn optimizer_preserves_scalar_semantics(e in int_expr(Scope(0), 3)) {
        let ctx = Context::new();
        if let Ok(before) = eval(&e, &Env::empty(), &ctx) {
            let (opt, _) = optimize(e.clone(), &NullCatalog, &OptConfig::default());
            let after = eval(&opt, &Env::empty(), &ctx)
                .expect("optimized scalar query failed");
            prop_assert_eq!(before, after, "\n  original: {}\n optimized: {}", e, opt);
        }
    }

    /// The two structural-sharing contracts of the Arc-based plan
    /// representation, over random plans:
    /// (a) a rewritten plan evaluates to the same `Value` as the original
    ///     (the `optimizer_preserves_collection_semantics` property above
    ///     already covers the value part; here we re-check through the
    ///     shared-handle API), and
    /// (b) re-optimizing an already-optimized plan is a no-op pass that
    ///     returns a *pointer-equal* `Arc` root — the engine must detect
    ///     the fixpoint by `Arc::ptr_eq`, not rebuild an identical tree.
    #[test]
    fn noop_passes_are_pointer_equal(e in coll_expr(Scope(0), 3)) {
        use std::sync::Arc;
        let ctx = Context::new();
        let before = eval(&e, &Env::empty(), &ctx);
        let (opt1, _) = kleisli_opt::optimize_shared(
            Arc::new(e.clone()), &NullCatalog, &OptConfig::default());
        // (a) same observable semantics through the shared-handle API
        if let Ok(b) = before {
            match eval(&opt1, &Env::empty(), &ctx) {
                Ok(a) => prop_assert_eq!(
                    b, a, "\n  original: {}\n optimized: {}", e, opt1
                ),
                Err(err) => {
                    return Err(TestCaseError::fail(format!(
                        "optimized plan failed ({err})\n  original: {e}\n optimized: {opt1}"
                    )));
                }
            }
        }
        // (b) a second pipeline run fires nothing and shares the root
        let (opt2, trace2) = kleisli_opt::optimize_shared(
            Arc::clone(&opt1), &NullCatalog, &OptConfig::default());
        prop_assert!(
            trace2.is_empty(),
            "re-optimization fired rules {:?} on {}", trace2, opt1
        );
        prop_assert!(
            Arc::ptr_eq(&opt1, &opt2),
            "no-op optimization must return the same Arc root for {}", opt1
        );
    }

    /// Hash-consing is a pure representation change: interning a plan
    /// (collapsing identical subtrees onto shared `Arc`s) must never
    /// change what it evaluates to — directly, or after optimization.
    #[test]
    fn interning_never_changes_eval_results(e in coll_expr(Scope(0), 3)) {
        use std::sync::Arc;
        let ctx = Context::new();
        let mut interner = nrc::Interner::new();
        let interned = interner.intern(&Arc::new(e.clone()));
        prop_assert_eq!(
            &*interned, &e,
            "interning changed the structure of {}", e
        );
        prop_assert_eq!(nrc::plan_hash(&e), nrc::plan_hash(&interned));
        match (eval(&e, &Env::empty(), &ctx), eval(&interned, &Env::empty(), &ctx)) {
            (Ok(b), Ok(a)) => prop_assert_eq!(b, a, "\n  plan: {}", e),
            (Err(_), Err(_)) => {}
            (b, a) => {
                return Err(TestCaseError::fail(format!(
                    "interning changed the outcome: {b:?} vs {a:?}\n  plan: {e}"
                )));
            }
        }
        // And through the full pipeline: an interned plan optimizes to
        // the same result as the raw plan.
        if let Ok(before) = eval(&e, &Env::empty(), &ctx) {
            let (opt, _) = kleisli_opt::optimize_shared(
                interned, &NullCatalog, &OptConfig::default());
            let after = eval(&opt, &Env::empty(), &ctx)
                .expect("optimized interned plan failed");
            prop_assert_eq!(before, after, "\n  plan: {}\n optimized: {}", e, opt);
        }
    }

    /// The engine's identity-keyed rewrite memo is invisible in the
    /// output: for each rule set in pipeline order, over the plan the
    /// sets before it produced, the memoized and the unmemoized fixpoint
    /// yield plans of the same shape (they may differ in fresh-variable
    /// suffixes, i.e. up to alpha-equivalence) with the same observable
    /// semantics.
    #[test]
    fn rewrite_memo_never_changes_plans(e in coll_expr(Scope(0), 3)) {
        use kleisli_opt::rules::{batch, cache, joins, monadic, parallel, pushdown, resolve};
        use std::sync::Arc;
        let rules = RuleCtx { catalog: &NullCatalog };
        let ctx = Context::new();
        let mut plan = Arc::new(e.clone());
        for set in [
            resolve::rule_set(), pushdown::rule_set(), monadic::rule_set(), resolve::rule_set(),
            joins::rule_set(), cache::rule_set(), parallel::rule_set(), batch::rule_set(),
        ] {
            let with_memo = set.run(Arc::clone(&plan), &rules, &mut Vec::new());
            let without = set.run_unmemoized(Arc::clone(&plan), &rules, &mut Vec::new());
            prop_assert_eq!(
                with_memo.size(), without.size(),
                "\n  rule set: {}\n  original: {}\n  memoized: {}\n  unmemoized: {}",
                set.name, e, with_memo, without
            );
            match (eval(&with_memo, &Env::empty(), &ctx), eval(&without, &Env::empty(), &ctx)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b, "\n  rule set: {}\n  original: {}\n  memoized: {}\n  unmemoized: {}",
                    set.name, e, with_memo, without
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "memoization changed the outcome of {}: {a:?} vs {b:?}\n  plan: {e}",
                        set.name
                    )));
                }
            }
            plan = with_memo;
        }
    }

    #[test]
    fn monadic_rules_alone_preserve_semantics(e in coll_expr(Scope(0), 4)) {
        let config = OptConfig {
            enable_pushdown: false,
            enable_joins: false,
            enable_cache: false,
            enable_parallel: false,
            ..OptConfig::default()
        };
        let ctx = Context::new();
        if let Ok(before) = eval(&e, &Env::empty(), &ctx) {
            let (opt, _) = optimize(e.clone(), &NullCatalog, &config);
            let after = eval(&opt, &Env::empty(), &ctx)
                .expect("optimized query failed");
            prop_assert_eq!(before, after, "\n  original: {}\n optimized: {}", e, opt);
        }
    }
}
