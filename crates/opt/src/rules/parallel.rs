//! Bounded-concurrency rules (Section 4, "Laziness, Latency, and
//! Concurrency"): "rules are introduced to recognize when a function
//! accessing a remote database appears in an inner loop", replacing the
//! sequential loop with "a primitive that retrieves elements from a
//! collection in parallel and returns the union of the results". The
//! degree of parallelism respects the server's tolerated number of
//! simultaneous requests ("say five").

use std::ops::ControlFlow::{Break, Continue};

use nrc::Expr;

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

/// The first driver `e` reaches outside of any `Cached` subtree. (A
/// cached subquery runs once; parallelizing its surrounding loop buys
/// nothing.)
fn first_driver(e: &Expr) -> Option<nrc::Name> {
    e.find(&mut |e, _| match e {
        Expr::Cached { .. } => Break(None),
        Expr::Remote { driver, .. } | Expr::RemoteApp { driver, .. } => Break(Some(driver.clone())),
        _ => Continue(()),
    })
}

fn parallelize(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    if !ctx.config.enable_parallel {
        return None;
    }
    let Expr::Ext {
        kind,
        var,
        body,
        source,
    } = e
    else {
        return None;
    };
    // Only loops whose body issues per-element remote requests benefit;
    // a body independent of the loop variable is the caching case.
    let driver = first_driver(body).filter(|_| body.occurs_free(var))?;
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
    Some(Expr::ParExt {
        kind: *kind,
        var: var.clone(),
        body: body.clone(),
        source: source.clone(),
        max_in_flight: cap.max(1),
        // the batch pass (which runs after this one) decides batching
        batch: None,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::catalog::{NullCatalog, StaticCatalog};
    use crate::engine::OptConfig;
    use kleisli_core::{Capabilities, CollKind};

    fn run(e: Expr, catalog: &dyn crate::catalog::SourceCatalog) -> Expr {
        let config = OptConfig::default();
        let ctx = RuleCtx {
            catalog,
            config: &config,
        };
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
            Expr::ParExt { max_in_flight, .. } => assert_eq!(max_in_flight, 5),
            other => panic!("not parallelized: {other}"),
        }
    }

    #[test]
    fn unknown_server_uses_default_concurrency() {
        let out = run(dependent_remote_loop(), &NullCatalog);
        match out {
            Expr::ParExt { max_in_flight, .. } => {
                assert_eq!(max_in_flight, DEFAULT_CONCURRENCY)
            }
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
            Expr::ParExt { max_in_flight, .. } => assert_eq!(max_in_flight, 1),
            other => panic!("not parallelized: {other}"),
        }
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
