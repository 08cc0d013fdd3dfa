//! Subquery caching (Section 4): "As the system is fully compositional,
//! the inner relation in a join can sometimes be a subquery. To avoid
//! recomputation, we have therefore introduced an operator to cache the
//! result of a subquery ... Rules to recognize when the result of an inner
//! subquery can be cached check that the subquery doesn't depend on the
//! outer relation."

use std::sync::Arc;

use nrc::Expr;

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the cache rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "cache",
        strategy: Strategy::TopDown,
        rules: vec![Rule {
            name: "cache-inner-subquery",
            apply: cache_inner,
        }],
    }
}

/// Is this node a collection-producing subquery worth caching?
fn cacheable(e: &Expr) -> bool {
    match e {
        Expr::Ext { .. } | Expr::Remote { .. } | Expr::Join { .. } | Expr::Union(..) => {
            e.touches_remote() && e.free_vars().is_empty()
        }
        _ => false,
    }
}

/// Inside the body of a loop (or the right side of a join), wrap the
/// outermost closed remote subqueries in `Cached` so they are evaluated
/// once instead of once per outer element.
fn cache_inner(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var,
        body,
        source,
        strategy,
    } = e
    else {
        return None;
    };
    Some(Expr::Ext {
        kind: *kind,
        var: var.clone(),
        body: wrap_outermost(body)?,
        source: source.clone(),
        strategy: strategy.clone(),
    })
}

/// Wrap the outermost cacheable subexpressions of `e`; `None` if nothing
/// was wrapped. Never descends into already-cached subtrees. Sharing-
/// preserving: the wrapped subquery is referenced by `Arc`, never copied,
/// and untouched siblings stay pointer-shared.
fn wrap_outermost(e: &Arc<Expr>) -> Option<Arc<Expr>> {
    if matches!(&**e, Expr::Cached { .. }) {
        return None;
    }
    if cacheable(e) {
        // The id is the subplan's deterministic structural hash (not a
        // process-global counter): recompiling or re-running the same
        // query produces the same ids, so `Context` cache slots stay
        // stable across compiles, and two occurrences of the *same*
        // subquery in one plan share one slot instead of computing twice.
        return Some(Arc::new(Expr::Cached {
            id: nrc::plan_hash(e),
            expr: Arc::clone(e),
        }));
    }
    // otherwise try children (shallow: first level where something fires)
    let mut changed = false;
    let new = Expr::map_children_shared(e, &mut |c| {
        if changed {
            return Arc::clone(c); // one wrap per firing keeps the trace readable
        }
        match wrap_outermost(c) {
            Some(w) => {
                changed = true;
                w
            }
            None => Arc::clone(c),
        }
    });
    changed.then_some(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NullCatalog;
    use kleisli_core::{CollKind, DriverRequest};

    fn run(e: Expr) -> Expr {
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    fn remote() -> Expr {
        Expr::Remote {
            driver: nrc::name("GDB"),
            request: DriverRequest::TableScan {
                table: "locus".into(),
                columns: None,
            },
        }
    }

    #[test]
    fn closed_remote_subquery_in_loop_body_is_cached() {
        // U{ U{ {[a=x, b=y]} | \y <- REMOTE } | \x <- S }
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::ext(
                CollKind::Set,
                "y",
                Expr::single(
                    CollKind::Set,
                    Expr::record(vec![("a", Expr::var("x")), ("b", Expr::var("y"))]),
                ),
                remote(),
            ),
            Expr::var("S"),
        );
        let out = run(e);
        let mut cached = 0;
        out.visit(&mut |n| {
            if matches!(n, Expr::Cached { .. }) {
                cached += 1;
            }
        });
        assert_eq!(cached, 1, "{out}");
    }

    #[test]
    fn dependent_subquery_is_not_cached() {
        // inner remote request depends on x via RemoteApp(x): free var
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::RemoteApp {
                driver: nrc::name("GenBank"),
                arg: Arc::new(Expr::var("x")),
            },
            Expr::var("S"),
        );
        let out = run(e.clone());
        assert_eq!(out, e);
    }

    #[test]
    fn cache_is_not_wrapped_twice() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::ext(
                CollKind::Set,
                "y",
                Expr::single(CollKind::Set, Expr::var("y")),
                remote(),
            ),
            Expr::var("S"),
        );
        let once = run(e);
        let twice = run(once.clone());
        let count = |e: &Expr| {
            let mut n = 0;
            e.visit(&mut |x| {
                if matches!(x, Expr::Cached { .. }) {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(count(&once), 1);
        assert_eq!(count(&twice), 1, "{twice}");
    }

    #[test]
    fn cache_ids_are_deterministic_across_compiles() {
        // The same plan built twice (pointer-distinct) gets identical ids.
        let build = || {
            Expr::ext(
                CollKind::Set,
                "x",
                Expr::ext(
                    CollKind::Set,
                    "y",
                    Expr::single(CollKind::Set, Expr::var("y")),
                    remote(),
                ),
                Expr::var("S"),
            )
        };
        let ids = |e: &Expr| {
            let mut out = Vec::new();
            e.visit(&mut |n| {
                if let Expr::Cached { id, .. } = n {
                    out.push(*id);
                }
            });
            out
        };
        let a = run(build());
        let b = run(build());
        assert_ne!(ids(&a), vec![] as Vec<u64>, "a cache must be introduced");
        assert_eq!(ids(&a), ids(&b), "ids must not depend on process state");
        // ...and the id is exactly the wrapped subplan's structural hash.
        a.visit(&mut |n| {
            if let Expr::Cached { id, expr } = n {
                assert_eq!(*id, nrc::plan_hash(expr));
            }
        });
    }

    #[test]
    fn local_subqueries_are_not_cached() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::ext(
                CollKind::Set,
                "y",
                Expr::single(CollKind::Set, Expr::var("y")),
                Expr::var("T"),
            ),
            Expr::var("S"),
        );
        assert_eq!(run(e.clone()), e, "no remote access, nothing to cache");
    }
}
