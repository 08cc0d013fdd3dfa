//! Bounded-concurrency rules (Section 4, "Laziness, Latency, and
//! Concurrency"): "rules are introduced to recognize when a function
//! accessing a remote database appears in an inner loop", replacing the
//! sequential loop with "a primitive that retrieves elements from a
//! collection in parallel and returns the union of the results". The
//! degree of parallelism respects the server's tolerated number of
//! simultaneous requests ("say five"). That primitive is the loop's
//! `Parallel` strategy; only a `Sequential` loop is rewritten. A loop the
//! batch rule set marked keeps its `Batched` strategy and runs its bodies
//! in order: its warm-up already ships the keys as a few multi-key
//! requests, and its bodies only replay the replies.

use std::ops::ControlFlow::{Break, Continue};

use nrc::{Expr, LoopStrategy};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy, DEFAULT_CONCURRENCY};

/// Build the parallel rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "parallel",
        strategy: Strategy::TopDown,
        rules: vec![Rule {
            name: "parallel-remote-inner-loop",
            apply: parallelize,
        }],
    }
}

/// The driver of the first remote call in the body of a loop over `var`
/// whose request changes per element: a call outside any `Cached`
/// subtree whose argument names `var` or a variable bound inside `body`,
/// i.e. any variable but the loop's free ones. (A cached subquery runs
/// once, and a call on the loop's free variables alone asks the same of
/// every element; parallelizing the loop for either buys nothing.)
fn varying_call(body: &Expr, var: &str) -> Option<nrc::Name> {
    let outer: Vec<nrc::Name> = body.free_vars().into_iter().filter(|v| &**v != var).collect();
    body.find(&mut |e, _| match e {
        Expr::Cached { .. } => Break(None),
        Expr::RemoteApp { driver, arg } if arg.free_vars().iter().any(|v| !outer.contains(v)) => {
            Break(Some(driver.clone()))
        }
        _ => Continue(()),
    })
}

fn parallelize(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
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
    // Only loops whose body issues per-element remote requests benefit;
    // a body independent of the loop variable is the caching case.
    let driver = varying_call(body, var).filter(|_| body.occurs_free(var))?;
    // `concurrency_limit` is the *normalized* admission budget (a declared
    // 0 means 1, never "unknown"): since the executor enforces the budget
    // at the driver gate, asking for more in-flight work than the server
    // admits would only queue. Unknown servers fall back to
    // `DEFAULT_CONCURRENCY`.
    let cap = ctx
        .catalog
        .capabilities(&driver)
        .map(|c| c.concurrency_limit())
        .unwrap_or(DEFAULT_CONCURRENCY);
    Some(Expr::Ext {
        kind: *kind,
        var: var.clone(),
        body: body.clone(),
        source: source.clone(),
        strategy: LoopStrategy::Parallel(cap.max(1)),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::catalog::{NullCatalog, StaticCatalog};
    use kleisli_core::{Capabilities, CollKind};

    fn run(e: Expr, catalog: &dyn crate::catalog::SourceCatalog) -> Expr {
        let ctx = RuleCtx { catalog };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    fn dependent_remote_loop() -> Expr {
        // U{ REMOTE-APP[GenBank]([db=..., link=x]) | \x <- S }
        Expr::ext(
            CollKind::Set,
            "x",
            Expr::RemoteApp {
                driver: nrc::name("GenBank"),
                arg: Arc::new(Expr::record(vec![
                    ("db", Expr::str("na")),
                    ("link", Expr::var("x")),
                ])),
            },
            Expr::var("S"),
        )
    }

    #[test]
    fn remote_inner_loop_becomes_parallel_with_server_cap() {
        let mut catalog = StaticCatalog::new();
        catalog.add_driver(
            "GenBank",
            Capabilities {
                max_concurrent_requests: 5,
                ..Default::default()
            },
        );
        let out = run(dependent_remote_loop(), &catalog);
        match out {
            Expr::Ext {
                strategy: LoopStrategy::Parallel(width),
                ..
            } => assert_eq!(width, 5),
            other => panic!("not parallelized: {other}"),
        }
    }

    #[test]
    fn unknown_server_uses_default_concurrency() {
        let out = run(dependent_remote_loop(), &NullCatalog);
        match out {
            Expr::Ext {
                strategy: LoopStrategy::Parallel(width),
                ..
            } => assert_eq!(width, DEFAULT_CONCURRENCY),
            other => panic!("not parallelized: {other}"),
        }
    }

    #[test]
    fn declared_zero_budget_normalizes_to_serial_not_default() {
        // 0 is meaningless for an enforced admission limit; the rule must
        // read the normalized value (1), not fall back to the default 5.
        let mut catalog = StaticCatalog::new();
        catalog.add_driver(
            "GenBank",
            Capabilities {
                max_concurrent_requests: 0,
                ..Default::default()
            },
        );
        let out = run(dependent_remote_loop(), &catalog);
        match out {
            Expr::Ext {
                strategy: LoopStrategy::Parallel(width),
                ..
            } => assert_eq!(width, 1),
            other => panic!("not parallelized: {other}"),
        }
    }

    #[test]
    fn batch_marked_loops_stay_sequential() {
        let mut e = dependent_remote_loop();
        if let Expr::Ext { body, strategy, .. } = &mut e {
            let Expr::RemoteApp { driver, arg } = &**body else {
                unreachable!()
            };
            let (driver, arg) = (driver.clone(), Arc::clone(arg));
            *strategy = LoopStrategy::Batched(nrc::BatchSpec {
                driver,
                arg,
                max_keys: 16,
            });
        }
        assert_eq!(run(e.clone(), &NullCatalog), e);
    }

    #[test]
    fn a_call_that_asks_every_element_the_same_stays_sequential() {
        // U{ {x} ∪ REMOTE-APP[GenBank]([db=..., link=u]) | \x <- S }: the
        // body names x, but its one call names only the loop's free u.
        let call = |link: &str| Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![("db", Expr::str("na")), ("link", Expr::var(link))])),
        };
        let x = Expr::single(CollKind::Set, Expr::var("x"));
        let e = Expr::ext(CollKind::Set, "x", Expr::union(CollKind::Set, x, call("u")), Expr::var("S"));
        assert_eq!(run(e.clone(), &NullCatalog), e);
        // A call on a variable bound inside the body changes per element.
        let inner = Expr::ext(CollKind::Set, "y", call("y"), Expr::var("x"));
        let e = Expr::ext(CollKind::Set, "x", inner, Expr::var("S"));
        assert!(matches!(
            run(e, &NullCatalog),
            Expr::Ext { strategy: LoopStrategy::Parallel(_), .. }
        ));
    }

    #[test]
    fn local_loops_stay_sequential() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::var("x")),
            Expr::var("S"),
        );
        assert_eq!(run(e.clone(), &NullCatalog), e);
    }

    #[test]
    fn cached_bodies_are_not_parallelized() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::Cached {
                id: 7,
                expr: Arc::new(Expr::Remote {
                    driver: nrc::name("GDB"),
                    request: kleisli_core::DriverRequest::TableScan {
                        table: "t".into(),
                        columns: None,
                    },
                }),
            },
            Expr::var("S"),
        );
        assert_eq!(run(e.clone(), &NullCatalog), e);
    }
}
