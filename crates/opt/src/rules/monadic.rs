//! The monadic rule set — the paper's core optimizations R1–R3, plus the
//! unit laws of the monad. These rules are strongly normalizing (Section
//! 4), so the engine's fixpoint loop always terminates.
//!
//! Kind side-conditions: because CPL lets a generator draw from a
//! collection of a different kind than the comprehension produces, each
//! fusion rule checks that flattening the intermediate collection cannot
//! change multiplicities (bags) or order (lists). `fusion_ok` encodes the
//! legal combinations.

use std::sync::Arc;

use kleisli_core::CollKind;
use nrc::{fresh, Expr, LoopStrategy};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the monadic rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "monadic",
        strategy: Strategy::BottomUp,
        rules: vec![
            Rule {
                name: "ext-empty-source",
                apply: ext_empty_source,
            },
            Rule {
                name: "ext-empty-body",
                apply: ext_empty_body,
            },
            Rule {
                name: "ext-singleton-source",
                apply: ext_singleton_source,
            },
            Rule {
                name: "vertical-fusion (R1)",
                apply: vertical_fusion,
            },
            Rule {
                name: "horizontal-fusion (R2)",
                apply: horizontal_fusion,
            },
            Rule {
                name: "filter-promotion (R3)",
                apply: filter_promotion,
            },
            Rule {
                name: "union-empty",
                apply: union_empty,
            },
            Rule {
                name: "right-unit",
                apply: right_unit,
            },
        ],
    }
}

/// The collection kind an expression *definitely* produces, when it can be
/// determined syntactically.
fn definite_kind(e: &Expr) -> Option<CollKind> {
    match e {
        Expr::Const(v) => v.coll_kind(),
        Expr::Empty(k) | Expr::Single(k, _) | Expr::Union(k, ..) => Some(*k),
        Expr::Ext { kind, .. } | Expr::Join { kind, .. } => Some(*kind),
        Expr::Remote { .. } | Expr::RemoteApp { .. } => Some(CollKind::Set),
        Expr::Cached { expr, .. } => definite_kind(expr),
        Expr::Let { body, .. } => definite_kind(body),
        Expr::If(_, t, f) => {
            let kt = definite_kind(t)?;
            (definite_kind(f)? == kt).then_some(kt)
        }
        _ => None,
    }
}

/// Right unit law: `U{ {x} | \x <- e }  ==>  e`, valid only when `e` is
/// known to produce the comprehension's own collection kind.
fn right_unit(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var,
        body,
        source,
        strategy: LoopStrategy::Sequential,
    } = e
    else {
        return None;
    };
    let Expr::Single(bkind, inner) = &**body else {
        return None;
    };
    if bkind != kind {
        return None;
    }
    if !matches!(&**inner, Expr::Var(v) if v == var) {
        return None;
    }
    (definite_kind(source) == Some(*kind)).then(|| (**source).clone())
}

/// May `U_outer{ e | \x <- inner-collection }` be fused with the producer
/// of that inner collection?
///
/// * outer = set: always (dedup/sort at the end erases intermediate
///   multiplicity and order);
/// * inner = outer: the classic monad associativity law;
/// * outer = bag, inner = list: flattening a list into a bag preserves
///   multiplicity.
///
/// Not allowed: inner = set under bag/list output (dedup would be lost),
/// and inner = bag under list output (canonical bag order differs from
/// generation order).
fn fusion_ok(outer: CollKind, inner: CollKind) -> bool {
    outer == CollKind::Set || inner == outer || (outer == CollKind::Bag && inner == CollKind::List)
}

/// `U{ e | \x <- {} }  ==>  {}`
fn ext_empty_source(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext { kind, source, .. } = e else {
        return None;
    };
    match &**source {
        Expr::Empty(_) => Some(Expr::Empty(*kind)),
        Expr::Const(v) if v.is_empty_coll() => Some(Expr::Empty(*kind)),
        _ => None,
    }
}

/// `U{ {} | \x <- e }  ==>  {}` — sound because sources are read-only.
fn ext_empty_body(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext { kind, body, .. } = e else {
        return None;
    };
    matches!(&**body, Expr::Empty(k) if k == kind).then(|| Expr::Empty(*kind))
}

/// `U{ e | \x <- {e'} }  ==>  let x = e' in e` (left unit law)
fn ext_singleton_source(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var,
        body,
        source,
        strategy: LoopStrategy::Sequential,
    } = e
    else {
        return None;
    };
    let Expr::Single(skind, elem) = &**source else {
        return None;
    };
    if !fusion_ok(*kind, *skind) {
        return None;
    }
    Some(Expr::Let {
        var: var.clone(),
        def: elem.clone(),
        body: body.clone(),
    })
}

/// Rule R1, vertical loop fusion:
/// `U{ e1 | \x <- U{ e2 | \y <- e3 } }  ==>  U{ U{ e1 | \x <- e2 } | \y <- e3 }`
fn vertical_fusion(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var: x,
        body: e1,
        source,
        strategy: LoopStrategy::Sequential,
    } = e
    else {
        return None;
    };
    let Expr::Ext {
        kind: inner_kind,
        var: y,
        body: e2,
        source: e3,
        strategy: LoopStrategy::Sequential,
    } = &**source
    else {
        return None;
    };
    if !fusion_ok(*kind, *inner_kind) {
        return None;
    }
    // Inner pieces (e2's results) are flattened by the outer loop; the
    // fused form iterates the pieces directly, so the piece kind must also
    // be fusable into the outer kind — e2 produces `inner_kind` pieces.
    // Capture check: y must not appear free in e1.
    let (y, e2) = if e1.occurs_free(y) {
        let fy = fresh(y);
        let renamed = Expr::subst_shared(e2, y, &Arc::new(Expr::Var(fy.clone())));
        (fy, renamed)
    } else {
        (y.clone(), e2.clone())
    };
    Some(Expr::Ext {
        kind: *kind,
        var: y,
        body: Arc::new(Expr::Ext {
            kind: *kind,
            var: x.clone(),
            body: e1.clone(),
            source: e2,
            strategy: LoopStrategy::Sequential,
        }),
        source: e3.clone(),
        strategy: LoopStrategy::Sequential,
    })
}

/// Rule R2, horizontal loop fusion (sets and bags, **not** lists):
/// `U{ e1 | \x <- e } U U{ e2 | \x <- e }  ==>  U{ e1 U e2 | \x <- e }`
///
/// Cost model: R2 buys one scan of `e` instead of two, and pays in row
/// order. The two loops yield all of `e1`'s rows, then all of `e2`'s;
/// the fused loop interleaves them element by element. A set or bag is
/// sorted when it is collected, so over a materialized `e` the scan R2
/// saves can cost less than the sort it forces. Measured on `report
/// e4_fusion`'s plan (`{x + 0} U {x + n}` over 50 000 elements; best of
/// 7 on a 2-vCPU VM): the two loops' 100 000 rows arrive as one ordered
/// run, which `Value::set` checks and deduplicates in 1.0 ms; the fused
/// rows need a sort, 8.0 ms. The fused loop itself, collected as a list,
/// runs in 10.3 ms against the two loops' 14.8 ms. So the rule wins
/// where a scan costs more than a sort — a remote or not yet
/// materialized `e` — and the side condition that would fire it only
/// there is still open (ROADMAP item 5).
fn horizontal_fusion(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Union(kind, a, b) = e else {
        return None;
    };
    if *kind == CollKind::List {
        return None;
    }
    let Expr::Ext {
        kind: k1,
        var: x1,
        body: b1,
        source: s1,
        strategy: LoopStrategy::Sequential,
    } = &**a
    else {
        return None;
    };
    let Expr::Ext {
        kind: k2,
        var: x2,
        body: b2,
        source: s2,
        strategy: LoopStrategy::Sequential,
    } = &**b
    else {
        return None;
    };
    if k1 != kind || k2 != kind {
        return None;
    }
    if s1 != s2 {
        return None;
    }
    // Rename the second loop's variable to the first's.
    let b2 = if x1 == x2 {
        Arc::clone(b2)
    } else {
        Expr::subst_shared(b2, x2, &Arc::new(Expr::Var(x1.clone())))
    };
    Some(Expr::Ext {
        kind: *kind,
        var: x1.clone(),
        body: Arc::new(Expr::Union(*kind, b1.clone(), b2)),
        source: s1.clone(),
        strategy: LoopStrategy::Sequential,
    })
}

/// Rule R3, filter promotion: a test independent of the loop variable moves
/// out of the loop:
/// `U{ if p then e1 else e2 | \x <- e }  ==>
///  if p then U{ e1 | \x <- e } else U{ e2 | \x <- e }`
fn filter_promotion(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var,
        body,
        source,
        strategy: LoopStrategy::Sequential,
    } = e
    else {
        return None;
    };
    let Expr::If(p, t, f) = &**body else {
        return None;
    };
    if p.occurs_free(var) {
        return None;
    }
    Some(Expr::if_(
        (**p).clone(),
        Expr::Ext {
            kind: *kind,
            var: var.clone(),
            body: t.clone(),
            source: source.clone(),
            strategy: LoopStrategy::Sequential,
        },
        Expr::Ext {
            kind: *kind,
            var: var.clone(),
            body: f.clone(),
            source: source.clone(),
            strategy: LoopStrategy::Sequential,
        },
    ))
}

/// `e U {} ==> e` and `{} U e ==> e`
fn union_empty(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Union(kind, a, b) = e else {
        return None;
    };
    let is_empty =
        |x: &Expr| matches!(x, Expr::Empty(_)) || matches!(x, Expr::Const(v) if v.is_empty_coll());
    if is_empty(a) {
        return Some((**b).clone());
    }
    if is_empty(b) {
        let _ = kind;
        return Some((**a).clone());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NullCatalog;
    use kleisli_core::Value;
    use kleisli_exec::{eval, Context, Env};

    fn normalize(e: Expr) -> Expr {
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    fn ints(range: std::ops::Range<i64>) -> Expr {
        Expr::Const(Value::set(range.map(Value::Int).collect()))
    }

    #[test]
    fn r1_fuses_producer_consumer() {
        // U{ {x+1} | \x <- U{ {y*2} | \y <- S } }
        let inner = Expr::ext(
            CollKind::Set,
            "y",
            Expr::single(
                CollKind::Set,
                Expr::prim(nrc::Prim::Mul, vec![Expr::var("y"), Expr::int(2)]),
            ),
            ints(0..10),
        );
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(nrc::Prim::Add, vec![Expr::var("x"), Expr::int(1)]),
            ),
            inner,
        );
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = normalize(e);
        // after fusion there is no Ext-over-Ext
        let mut nested = false;
        opt.visit(&mut |n| {
            if let Expr::Ext { source, .. } = n {
                if matches!(&**source, Expr::Ext { .. }) {
                    nested = true;
                }
            }
        });
        assert!(!nested, "fusion failed: {opt}");
        let after = eval(&opt, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn r1_respects_list_order_restrictions() {
        // List output over a set source must NOT fuse through.
        let inner = Expr::ext(
            CollKind::Set,
            "y",
            Expr::single(CollKind::Set, Expr::var("y")),
            ints(0..5),
        );
        let e = Expr::ext(
            CollKind::List,
            "x",
            Expr::single(CollKind::List, Expr::var("x")),
            inner,
        );
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let after = eval(&normalize(e), &Env::empty(), &Context::new()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn r2_fuses_independent_loops_over_same_source() {
        let mk = |off: i64| {
            Expr::ext(
                CollKind::Set,
                "x",
                Expr::single(
                    CollKind::Set,
                    Expr::prim(nrc::Prim::Add, vec![Expr::var("x"), Expr::int(off)]),
                ),
                ints(0..10),
            )
        };
        let e = Expr::union(CollKind::Set, mk(0), mk(100));
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = normalize(e);
        let mut ext_count = 0;
        opt.visit(&mut |n| {
            if matches!(n, Expr::Ext { .. }) {
                ext_count += 1;
            }
        });
        assert_eq!(ext_count, 1, "horizontal fusion failed: {opt}");
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
    }

    #[test]
    fn r2_does_not_apply_to_lists() {
        let mk = || {
            Expr::ext(
                CollKind::List,
                "x",
                Expr::single(CollKind::List, Expr::var("x")),
                Expr::Const(Value::list(vec![Value::Int(1), Value::Int(2)])),
            )
        };
        let e = Expr::union(CollKind::List, mk(), mk());
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = normalize(e);
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
        assert_eq!(
            before,
            Value::list(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(1),
                Value::Int(2)
            ])
        );
    }

    #[test]
    fn r3_hoists_loop_invariant_filter() {
        // U{ if p then {x} else {} | \x <- S }  with p independent of x
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::if_(
                Expr::var("p"),
                Expr::single(CollKind::Set, Expr::var("x")),
                Expr::Empty(CollKind::Set),
            ),
            ints(0..10),
        );
        let opt = normalize(e);
        assert!(matches!(opt, Expr::If(..)), "filter not promoted: {opt}");
        // ... and the else-branch loop collapsed to {}
        if let Expr::If(_, _, f) = &opt {
            assert_eq!(**f, Expr::Empty(CollKind::Set));
        }
    }

    #[test]
    fn r3_leaves_dependent_filters_alone() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::if_(
                Expr::eq(Expr::var("x"), Expr::int(3)),
                Expr::single(CollKind::Set, Expr::var("x")),
                Expr::Empty(CollKind::Set),
            ),
            ints(0..10),
        );
        let opt = normalize(e.clone());
        assert!(matches!(opt, Expr::Ext { .. }), "must stay a loop: {opt}");
        assert_eq!(
            eval(&opt, &Env::empty(), &Context::new()).unwrap(),
            Value::set(vec![Value::Int(3)])
        );
    }

    #[test]
    fn unit_laws() {
        // U{ e | \x <- {} } ==> {}
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::var("x")),
            Expr::Empty(CollKind::Set),
        );
        assert_eq!(normalize(e), Expr::Empty(CollKind::Set));
        // U{ {} | \x <- S } ==> {}
        let e = Expr::ext(CollKind::Set, "x", Expr::Empty(CollKind::Set), ints(0..9));
        assert_eq!(normalize(e), Expr::Empty(CollKind::Set));
        // U{ e | \x <- {a} } ==> let x = a in e (then inlined by resolve)
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::var("x")),
            Expr::single(CollKind::Set, Expr::int(42)),
        );
        let opt = normalize(e);
        assert!(matches!(opt, Expr::Let { .. }), "got {opt}");
    }

    #[test]
    fn vertical_fusion_avoids_capture() {
        // U{ {y} | \x <- U{ {x} | \y <- S } }  — outer body mentions a
        // *free* y; fusing must rename the inner binder.
        let inner = Expr::ext(
            CollKind::Set,
            "y",
            Expr::single(CollKind::Set, Expr::var("y")),
            ints(0..3),
        );
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::var("y")), // free y!
            inner,
        );
        let opt = normalize(e.clone());
        // y must still be free after optimization
        assert!(
            opt.occurs_free("y"),
            "free variable captured during fusion: {opt}"
        );
    }
}
