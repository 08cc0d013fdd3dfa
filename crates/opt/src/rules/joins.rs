//! Non-monadic join optimization (Section 4, "Optimizing Joins").
//!
//! Joins that cannot be migrated to a server "must be performed locally";
//! Kleisli adds two operators for them — the blocked nested-loop join and
//! the indexed blocked nested-loop join with indexes built on the fly —
//! plus a rule set "dedicated to recognizing under what conditions to apply
//! which join operator": the indexed join fires only when equality tests in
//! the join condition can be turned into index keys.

use std::sync::Arc;

use nrc::{Expr, JoinStrategy, Name, Prim};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the join rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "joins",
        strategy: Strategy::BottomUp,
        rules: vec![Rule {
            name: "local-join-operator",
            apply: local_join,
        }],
    }
}

fn local_join(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    if !ctx.config.enable_joins {
        return None;
    }
    let Expr::Ext {
        kind,
        var: v1,
        body,
        source: s1,
    } = e
    else {
        return None;
    };
    let Expr::Ext {
        kind: k2,
        var: v2,
        body: inner_body,
        source: s2,
    } = &**body
    else {
        return None;
    };
    if k2 != kind {
        return None;
    }
    // The inner relation must not depend on the outer element — that case
    // is the *parallel retrieval* pattern, not a join.
    if s2.occurs_free(v1) {
        return None;
    }
    let Expr::If(cond, then, els) = &**inner_body else {
        return None;
    };
    if !matches!(&**els, Expr::Empty(k) if k == kind) {
        return None;
    }
    // Split the condition into equi-key pairs and a residual.
    let mut conjuncts = Vec::new();
    flatten_and(cond, &mut conjuncts);
    let mut left_keys: Vec<Expr> = Vec::new();
    let mut right_keys: Vec<Expr> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        match equi_key(&c, v1, v2) {
            Some((l, r)) => {
                left_keys.push(l);
                right_keys.push(r);
            }
            None => residual.push(c),
        }
    }
    let residual_cond = residual
        .into_iter()
        .reduce(Expr::and)
        .unwrap_or_else(|| Expr::bool(true));
    let (strategy, lk, rk, cond) = if left_keys.is_empty() {
        (JoinStrategy::BlockedNl, None, None, Arc::clone(cond))
    } else {
        let key = |ks: Vec<Expr>| {
            if ks.len() == 1 {
                Arc::new(ks.into_iter().next().unwrap())
            } else {
                Arc::new(Expr::Record(
                    ks.into_iter()
                        .enumerate()
                        .map(|(i, k)| (nrc::name(format!("k{i}")), Arc::new(k)))
                        .collect(),
                ))
            }
        };
        (
            JoinStrategy::IndexedNl,
            Some(key(left_keys)),
            Some(key(right_keys)),
            Arc::new(residual_cond),
        )
    };
    Some(Expr::Join {
        kind: *kind,
        strategy,
        left: s1.clone(),
        right: s2.clone(),
        lvar: v1.clone(),
        rvar: v2.clone(),
        left_key: lk,
        right_key: rk,
        cond,
        body: then.clone(),
    })
}

fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Prim(Prim::And, args) = e {
        flatten_and(&args[0], out);
        flatten_and(&args[1], out);
    } else {
        out.push(e.clone());
    }
}

/// Recognize `a = b` where one side mentions only `v1` and the other only
/// `v2`; returns `(left_key, right_key)`.
fn equi_key(e: &Expr, v1: &Name, v2: &Name) -> Option<(Expr, Expr)> {
    let Expr::Prim(Prim::Eq, args) = e else {
        return None;
    };
    let (a, b) = (&args[0], &args[1]);
    let only = |x: &Expr, v: &Name, other: &Name| x.occurs_free(v) && !x.occurs_free(other);
    if only(a, v1, v2) && only(b, v2, v1) {
        Some(((**a).clone(), (**b).clone()))
    } else if only(a, v2, v1) && only(b, v1, v2) {
        Some(((**b).clone(), (**a).clone()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NullCatalog;
    use crate::engine::OptConfig;
    use kleisli_core::{CollKind, Value};
    use kleisli_exec::{eval, Context, Env};

    fn run(e: Expr) -> Expr {
        let config = OptConfig::default();
        let ctx = RuleCtx {
            catalog: &NullCatalog,
            config: &config,
        };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    fn table(n: usize, modulus: i64) -> Expr {
        Expr::Const(Value::set(
            (0..n as i64)
                .map(|i| {
                    Value::record_from(vec![("k", Value::Int(i % modulus)), ("v", Value::Int(i))])
                })
                .collect(),
        ))
    }

    fn nested_loop_join(cond: Expr) -> Expr {
        Expr::ext(
            CollKind::Set,
            "l",
            Expr::ext(
                CollKind::Set,
                "r",
                Expr::if_(
                    cond,
                    Expr::single(
                        CollKind::Set,
                        Expr::record(vec![
                            ("a", Expr::proj(Expr::var("l"), "v")),
                            ("b", Expr::proj(Expr::var("r"), "v")),
                        ]),
                    ),
                    Expr::Empty(CollKind::Set),
                ),
                table(20, 5),
            ),
            table(30, 7),
        )
    }

    #[test]
    fn equality_condition_selects_indexed_join() {
        let e = nested_loop_join(Expr::eq(
            Expr::proj(Expr::var("l"), "k"),
            Expr::proj(Expr::var("r"), "k"),
        ));
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = run(e);
        match &opt {
            Expr::Join { strategy, .. } => assert_eq!(*strategy, JoinStrategy::IndexedNl),
            other => panic!("no join operator introduced: {other}"),
        }
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
    }

    #[test]
    fn equality_plus_residual_keeps_residual() {
        let e = nested_loop_join(Expr::and(
            Expr::eq(
                Expr::proj(Expr::var("l"), "k"),
                Expr::proj(Expr::var("r"), "k"),
            ),
            Expr::prim(
                Prim::Lt,
                vec![
                    Expr::proj(Expr::var("l"), "v"),
                    Expr::proj(Expr::var("r"), "v"),
                ],
            ),
        ));
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = run(e);
        match &opt {
            Expr::Join { strategy, cond, .. } => {
                assert_eq!(*strategy, JoinStrategy::IndexedNl);
                assert!(matches!(&**cond, Expr::Prim(Prim::Lt, _)));
            }
            other => panic!("no join operator introduced: {other}"),
        }
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
    }

    #[test]
    fn inequality_only_selects_blocked_join() {
        let e = nested_loop_join(Expr::prim(
            Prim::Lt,
            vec![
                Expr::proj(Expr::var("l"), "v"),
                Expr::proj(Expr::var("r"), "v"),
            ],
        ));
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = run(e);
        match &opt {
            Expr::Join { strategy, .. } => {
                assert!(matches!(strategy, JoinStrategy::BlockedNl))
            }
            other => panic!("no join operator introduced: {other}"),
        }
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
    }

    #[test]
    fn dependent_inner_source_is_not_a_join() {
        // inner source mentions the outer variable: parallel case, not join
        let e = Expr::ext(
            CollKind::Set,
            "l",
            Expr::ext(
                CollKind::Set,
                "r",
                Expr::if_(
                    Expr::bool(true),
                    Expr::single(CollKind::Set, Expr::var("r")),
                    Expr::Empty(CollKind::Set),
                ),
                Expr::single(CollKind::Set, Expr::proj(Expr::var("l"), "v")),
            ),
            table(5, 2),
        );
        let opt = run(e.clone());
        assert_eq!(opt, e);
    }

    #[test]
    fn composite_keys_form_key_records() {
        let e = nested_loop_join(Expr::and(
            Expr::eq(
                Expr::proj(Expr::var("l"), "k"),
                Expr::proj(Expr::var("r"), "k"),
            ),
            Expr::eq(
                Expr::proj(Expr::var("l"), "v"),
                Expr::proj(Expr::var("r"), "v"),
            ),
        ));
        let before = eval(&e, &Env::empty(), &Context::new()).unwrap();
        let opt = run(e);
        match &opt {
            Expr::Join {
                left_key: Some(lk), ..
            } => {
                assert!(matches!(&**lk, Expr::Record(fs) if fs.len() == 2));
            }
            other => panic!("expected composite-key join: {other}"),
        }
        assert_eq!(eval(&opt, &Env::empty(), &Context::new()).unwrap(), before);
    }
}
