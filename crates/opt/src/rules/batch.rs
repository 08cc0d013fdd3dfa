//! Batched round-trip rules (IN-list / multi-uid pushdown): a
//! bounded-concurrency loop whose body issues one remote request per
//! element against a server advertising [`Capabilities::batching`] is
//! marked with a [`BatchSpec`], so the executor pre-fetches the whole
//! key set in `ceil(n / max_keys)` wire round-trips instead of `n`.
//!
//! The mark is *advisory*: the loop body is untouched, and at run time
//! each per-element submission attaches to a pre-seeded flight when one
//! matches (byte-identical results by construction). A key set smaller
//! than `min_keys` skips warm-up entirely — for a handful of keys the
//! latency-overlap path already hides the round-trips, and the batch
//! would only serialize them behind one wire request.
//!
//! [`Capabilities::batching`]: kleisli_core::Capabilities

use std::sync::Arc;

use nrc::{BatchSpec, Expr, Name};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the batching rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "batch",
        strategy: Strategy::TopDown,
        rules: vec![Rule {
            name: "batch-remote-inner-loop",
            apply: mark_batchable,
        }],
    }
}

/// Is `e` evaluable by the local evaluator alone, cheaply and without
/// effects — constants, the loop variable, record/variant plumbing,
/// primitives? The warm-up evaluates the request argument once per
/// element *before* the loop runs; anything touching a driver (or able
/// to loop) must disqualify the mark, or warm-up would duplicate remote
/// work the body will also perform.
fn pure_local(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Empty(_) => true,
        Expr::Record(fields) => fields.iter().all(|(_, v)| pure_local(v)),
        Expr::Proj(b, _) | Expr::Inject(_, b) | Expr::Single(_, b) => pure_local(b),
        Expr::Union(_, a, b) => pure_local(a) && pure_local(b),
        Expr::If(c, t, f) => pure_local(c) && pure_local(t) && pure_local(f),
        Expr::Prim(_, args) => args.iter().all(|a| pure_local(a)),
        Expr::Let { def, body, .. } => pure_local(def) && pure_local(body),
        _ => false,
    }
}

/// The first per-element remote call in `e` worth batching: a
/// `RemoteApp` outside any `Cached` subtree whose argument is pure-local
/// and actually depends on the loop variable. Returns the driver and the
/// argument expression (abstracted over `var`).
///
/// `Remote` nodes carry a *static* request — every element would issue
/// the identical wire request, which the coalescing window already
/// folds — so they are not batch targets.
fn batch_target(e: &Expr, var: &str) -> Option<(Name, Arc<Expr>)> {
    match e {
        Expr::Cached { .. } => None,
        Expr::RemoteApp { driver, arg } => (pure_local(arg) && arg.occurs_free(var))
            .then(|| (driver.clone(), Arc::clone(arg))),
        other => {
            let mut found = None;
            other.for_each_child(&mut |c| {
                if found.is_none() {
                    found = batch_target(c, var);
                }
            });
            found
        }
    }
}

fn mark_batchable(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    if !ctx.config.enable_batching {
        return None;
    }
    let Expr::ParExt {
        kind,
        var,
        body,
        source,
        max_in_flight,
        batch: None,
    } = e
    else {
        return None;
    };
    let (driver, arg) = batch_target(body, var)?;
    let policy = ctx.catalog.capabilities(&driver)?.batching?;
    Some(Expr::ParExt {
        kind: *kind,
        var: var.clone(),
        body: body.clone(),
        source: source.clone(),
        max_in_flight: *max_in_flight,
        batch: Some(BatchSpec {
            driver,
            arg,
            min_keys: ctx.config.min_batch_keys,
            max_keys: policy.max_keys.max(1),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{NullCatalog, StaticCatalog};
    use crate::engine::OptConfig;
    use kleisli_core::{BatchPolicy, Capabilities, CollKind};

    fn run(e: Expr, catalog: &dyn crate::catalog::SourceCatalog, config: &OptConfig) -> Expr {
        let ctx = RuleCtx { catalog, config };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    fn link_loop() -> Expr {
        // PAR-U{ REMOTE-APP[GenBank]([db=..., link=x]) | \x <- UIDS }
        Expr::ParExt {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body: Arc::new(Expr::RemoteApp {
                driver: nrc::name("GenBank"),
                arg: Arc::new(Expr::record(vec![
                    ("db", Expr::str("na")),
                    ("link", Expr::var("x")),
                ])),
            }),
            source: Arc::new(Expr::var("UIDS")),
            max_in_flight: 5,
            batch: None,
        }
    }

    fn batching_catalog(max_keys: usize) -> StaticCatalog {
        let mut catalog = StaticCatalog::new();
        catalog.add_driver(
            "GenBank",
            Capabilities {
                batching: Some(BatchPolicy { max_keys }),
                ..Default::default()
            },
        );
        catalog
    }

    #[test]
    fn remote_inner_loop_gets_a_batch_mark() {
        let out = run(link_loop(), &batching_catalog(16), &OptConfig::default());
        match out {
            Expr::ParExt {
                batch: Some(spec), ..
            } => {
                assert_eq!(spec.driver.as_ref(), "GenBank");
                assert_eq!(spec.max_keys, 16);
                assert_eq!(spec.min_keys, OptConfig::default().min_batch_keys);
                assert!(spec.arg.occurs_free("x"));
            }
            other => panic!("no batch mark: {other}"),
        }
    }

    #[test]
    fn servers_without_batching_capability_stay_unmarked() {
        let mut catalog = StaticCatalog::new();
        catalog.add_driver("GenBank", Capabilities::default());
        let e = link_loop();
        assert_eq!(run(e.clone(), &catalog, &OptConfig::default()), e);
        assert_eq!(run(e.clone(), &NullCatalog, &OptConfig::default()), e);
    }

    #[test]
    fn disabled_config_never_marks() {
        let config = OptConfig {
            enable_batching: false,
            ..OptConfig::default()
        };
        let e = link_loop();
        assert_eq!(run(e.clone(), &batching_catalog(16), &config), e);
    }

    #[test]
    fn element_independent_bodies_stay_unmarked() {
        // The request does not mention the loop variable: caching
        // territory, and batching N identical requests buys nothing the
        // coalescing window doesn't already.
        let e = Expr::ParExt {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body: Arc::new(Expr::RemoteApp {
                driver: nrc::name("GenBank"),
                arg: Arc::new(Expr::record(vec![("db", Expr::str("na"))])),
            }),
            source: Arc::new(Expr::var("UIDS")),
            max_in_flight: 5,
            batch: None,
        };
        assert_eq!(run(e.clone(), &batching_catalog(16), &OptConfig::default()), e);
    }

    #[test]
    fn impure_request_arguments_stay_unmarked() {
        // A request argument that itself calls a driver must not be
        // evaluated during warm-up.
        let e = Expr::ParExt {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body: Arc::new(Expr::RemoteApp {
                driver: nrc::name("GenBank"),
                arg: Arc::new(Expr::record(vec![(
                    "link",
                    Expr::RemoteApp {
                        driver: nrc::name("GDB"),
                        arg: Arc::new(Expr::var("x")),
                    },
                )])),
            }),
            source: Arc::new(Expr::var("UIDS")),
            max_in_flight: 5,
            batch: None,
        };
        assert_eq!(run(e.clone(), &batching_catalog(16), &OptConfig::default()), e);
    }
}
