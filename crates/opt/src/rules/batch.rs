//! Batched round-trip rules (IN-list / multi-uid pushdown): a loop whose
//! body makes one remote request per element, against a server
//! advertising [`Capabilities::batching`], is marked with a [`BatchSpec`],
//! so the executor ships the whole key set in `ceil(n / max_keys)` wire
//! round-trips instead of `n`.
//!
//! The mark is *advisory*: the loop body is untouched. At run time the
//! loop takes its source `max_keys` elements at a time, puts each chunk's
//! requests on the wire as batched fetches, and element *i*'s body replays
//! the reply to its own request instead of building it (byte-identical
//! results by construction). A loop is marked only when every remote call
//! in its body outside `Cached` subqueries is that one call, so once the
//! warm-up has put the keys on the wire a body makes no request of its
//! own: the loop runs its bodies in order, and the parallel rule set,
//! which runs after this one, leaves it alone. A body that also calls
//! another source stays unmarked and is parallelized instead.
//!
//!
//! # Staging dependent loops
//!
//! The mark only pays when the loop sees many keys. In a two-hop
//! dependent loop — the DOE query's `\locus <- Loci(c), \uid <-
//! ASN-IDs(locus.genbank_ref)` with `NA-Links(uid)` in the head — the
//! second hop's loop is nested *inside* each outer iteration, where it
//! sees only that element's handful of keys (one `uid`): one round-trip
//! per outer element. `stage-dependent-remote-loop` therefore rewrites
//!
//! ```text
//! Ext o <- S: Ext i <- f(o): body(i, o)
//!   ==>
//! Ext p <- (Ext o <- S: Ext i <- f(o): {[i = i, o = o]}): body(p.i, p.o)
//! ```
//!
//! (monad associativity; same collection kind throughout, so sets, bag
//! multiplicities and list order are all preserved). The second hop now
//! iterates one flat stream of `(i, o)` pairs, and both stages are plain
//! remote inner loops for the marking rule below. It fires only when
//! both hops would batch — `f` depends on `o`, and `f` and `body` each
//! hold only a markable request on a batching-capable driver — and runs
//! before the marking rule so the staged loops, not the nested ones, are
//! marked.
//!
//! [`Capabilities::batching`]: kleisli_core::Capabilities

use std::ops::ControlFlow::{Break, Continue};
use std::sync::Arc;

use nrc::{BatchSpec, Expr, LoopStrategy, Name};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the batching rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "batch",
        strategy: Strategy::TopDown,
        rules: vec![
            Rule {
                name: "stage-dependent-remote-loop",
                apply: stage_dependent_loop,
            },
            Rule {
                name: "batch-remote-inner-loop",
                apply: mark_batchable,
            },
        ],
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

/// The call a loop over `var` whose body is `e` batches: the driver and
/// argument of `e`'s first `RemoteApp` outside any `Cached` subtree, when
/// that argument is pure-local, depends on the loop variable, and is the
/// argument of every remote call of `e` outside `Cached`, all of them on
/// that driver.
///
/// The mark is exact or absent: the warm-up evaluates the argument with
/// the loop variable alone bound, and the executor hands that request's
/// reply to every call in the body, so a call under a binder of `e` that
/// rebinds a free variable of the argument refuses the mark. A `Remote`
/// carries a *static* request — every element would issue the identical
/// wire request, caching territory — so it is another call.
fn batch_target(e: &Expr, var: &str) -> Option<(Name, Arc<Expr>)> {
    let (driver, arg) = e.find(&mut |e, _| match e {
        Expr::Cached { .. } => Break(None),
        Expr::RemoteApp { driver, arg } => Break(Some((driver.clone(), Arc::clone(arg)))),
        _ => Continue(()),
    })?;
    if !pure_local(&arg) || !arg.occurs_free(var) {
        return None;
    }
    let other = e.find(&mut |e, scope| match e {
        Expr::Cached { .. } => Break(None),
        _ if scope.iter().any(|b| arg.occurs_free(b)) && e.touches_remote() => Break(Some(())),
        Expr::Remote { .. } => Break(Some(())),
        Expr::RemoteApp { driver: d, arg: a } if *d != driver || *a != arg => Break(Some(())),
        _ => Continue(()),
    });
    other.is_none().then_some((driver, arg))
}

/// The batching policy of the driver behind `e`'s [`batch_target`] over
/// `var`, if it has both.
fn batchable(e: &Expr, var: &str, ctx: &RuleCtx<'_>) -> Option<(Name, Arc<Expr>, usize)> {
    let (driver, arg) = batch_target(e, var)?;
    let policy = ctx.catalog.capabilities(&driver)?.batching?;
    Some((driver, arg, policy.max_keys.max(1)))
}

/// See the module docs ("Staging dependent loops").
fn stage_dependent_loop(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Ext {
        kind,
        var: outer,
        body: nested,
        source,
        strategy: LoopStrategy::Sequential,
    } = e
    else {
        return None;
    };
    let Expr::Ext {
        kind: inner_kind,
        var: inner,
        body,
        source: hop,
        strategy: LoopStrategy::Sequential,
    } = &**nested
    else {
        return None;
    };
    if inner_kind != kind {
        return None;
    }
    // `batch_target` demands the request mention the loop variable, so
    // the first test is also "the inner source depends on the outer one".
    batchable(hop, outer, ctx)?;
    batchable(body, inner, ctx)?;
    let pair = nrc::fresh("pair");
    let field = |f: &str| Arc::new(Expr::proj(Expr::Var(Arc::clone(&pair)), f));
    // Inner first: where the two loops share a name the body's
    // occurrences are the inner variable's.
    let body = Expr::subst_shared(body, inner, &field("i"));
    let body = Expr::subst_shared(&body, outer, &field("o"));
    let pairs = Expr::Ext {
        kind: *kind,
        var: Arc::clone(outer),
        body: Arc::new(Expr::Ext {
            kind: *kind,
            var: Arc::clone(inner),
            body: Arc::new(Expr::single(
                *kind,
                Expr::record(vec![
                    ("i", Expr::Var(Arc::clone(inner))),
                    ("o", Expr::Var(Arc::clone(outer))),
                ]),
            )),
            source: Arc::clone(hop),
            strategy: LoopStrategy::Sequential,
        }),
        source: Arc::clone(source),
        strategy: LoopStrategy::Sequential,
    };
    Some(Expr::Ext {
        kind: *kind,
        var: pair,
        body,
        source: Arc::new(pairs),
        strategy: LoopStrategy::Sequential,
    })
}

fn mark_batchable(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
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
    let (driver, arg, max_keys) = batchable(body, var, ctx)?;
    Some(Expr::Ext {
        kind: *kind,
        var: var.clone(),
        body: body.clone(),
        source: source.clone(),
        strategy: LoopStrategy::Batched(BatchSpec {
            driver,
            arg,
            max_keys,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{NullCatalog, StaticCatalog};
    use crate::engine::OptConfig;
    use kleisli_core::{BatchPolicy, Capabilities, CollKind};

    fn run(e: Expr, catalog: &dyn crate::catalog::SourceCatalog) -> Expr {
        let ctx = RuleCtx { catalog };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    /// `U{ body | \x <- UIDS }`.
    fn over_uids(body: Expr) -> Expr {
        Expr::ext(CollKind::Set, "x", body, Expr::var("UIDS"))
    }

    fn link_loop() -> Expr {
        // U{ REMOTE-APP[GenBank]([db=..., link=x]) | \x <- UIDS }
        over_uids(Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![
                ("db", Expr::str("na")),
                ("link", Expr::var("x")),
            ])),
        })
    }

    fn batching_catalog(max_keys: usize) -> StaticCatalog {
        let mut catalog = StaticCatalog::new();
        for driver in ["GenBank", "Other"] {
            catalog.add_driver(
                driver,
                Capabilities {
                    batching: Some(BatchPolicy { max_keys }),
                    ..Default::default()
                },
            );
        }
        catalog
    }

    fn marked(e: Expr) -> bool {
        let out = run(e, &batching_catalog(16));
        matches!(
            out,
            Expr::Ext {
                strategy: LoopStrategy::Batched(_),
                ..
            }
        )
    }

    #[test]
    fn remote_inner_loop_gets_a_batch_mark() {
        let out = run(link_loop(), &batching_catalog(16));
        match out {
            Expr::Ext {
                strategy: LoopStrategy::Batched(spec),
                ..
            } => {
                assert_eq!(spec.driver.as_ref(), "GenBank");
                assert_eq!(spec.max_keys, 16);
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
        assert_eq!(run(e.clone(), &catalog), e);
        assert_eq!(run(e.clone(), &NullCatalog), e);
    }

    #[test]
    fn disabled_config_never_marks() {
        // The parallel rule would take the loop the batch rule leaves: it
        // is off too, so an unchanged plan shows that nothing marked it.
        let config = OptConfig {
            enable_batching: false,
            enable_parallel: false,
            ..OptConfig::default()
        };
        let e = link_loop();
        assert_eq!(crate::optimize(e.clone(), &batching_catalog(16), &config).0, e);
    }

    #[test]
    fn element_independent_bodies_stay_unmarked() {
        // The request does not mention the loop variable: caching
        // territory, and batching N identical requests buys nothing the
        // coalescing window doesn't already.
        let e = over_uids(Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![("db", Expr::str("na"))])),
        });
        assert_eq!(run(e.clone(), &batching_catalog(16)), e);
    }

    #[test]
    fn impure_request_arguments_stay_unmarked() {
        // A request argument that itself calls a driver must not be
        // evaluated during warm-up.
        let e = over_uids(Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![(
                "link",
                Expr::RemoteApp {
                    driver: nrc::name("GDB"),
                    arg: Arc::new(Expr::var("x")),
                },
            )])),
        });
        assert_eq!(run(e.clone(), &batching_catalog(16)), e);
    }

    #[test]
    fn a_body_with_any_other_call_stays_unmarked() {
        let call = |driver: &str, field: &str| Expr::RemoteApp {
            driver: nrc::name(driver),
            arg: Arc::new(Expr::record(vec![(field, Expr::var("x"))])),
        };
        let both = |a: Expr, b: Expr| over_uids(Expr::union(CollKind::Set, a, b));
        // Two calls on equal arguments are one marked call.
        assert!(marked(both(
            call("GenBank", "link"),
            call("GenBank", "link")
        )));
        // Another argument, another driver or a static request is not.
        assert!(!marked(both(
            call("GenBank", "link"),
            call("GenBank", "uid")
        )));
        assert!(!marked(both(
            call("GenBank", "link"),
            call("Other", "link")
        )));
        let scan = Expr::Remote {
            driver: nrc::name("GenBank"),
            request: kleisli_core::DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        };
        assert!(!marked(both(call("GenBank", "link"), scan.clone())));
        // A cached subquery is evaluated once, not per element.
        let cached = Expr::Cached {
            id: 1,
            expr: Arc::new(scan),
        };
        assert!(marked(both(call("GenBank", "link"), cached)));
    }

    #[test]
    fn a_call_under_a_binder_of_its_argument_stays_unmarked() {
        let links = |db: Expr| {
            let arg = Expr::record(vec![("db", db), ("link", Expr::var("x"))]);
            Arc::new(Expr::RemoteApp { driver: nrc::name("GenBank"), arg: Arc::new(arg) })
        };
        let under_let = |var: &str, body: Arc<Expr>| {
            over_uids(Expr::Let {
                var: nrc::name(var),
                def: Arc::new(Expr::int(0)),
                body,
            })
        };
        // A binder that leaves the argument be keeps the mark.
        assert!(marked(under_let("y", links(Expr::str("na")))));
        // One that rebinds the loop variable, or another free variable of
        // the argument, refuses it.
        assert!(!marked(under_let("x", links(Expr::str("na")))));
        assert!(!marked(under_let("db", links(Expr::var("db")))));
        // So does one rebinding a free variable over a second call on the
        // same argument (equal subplans share one), though the first call
        // is exact.
        let call = links(Expr::str("na"));
        let inner = Expr::Ext {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body: Arc::clone(&call),
            source: Arc::new(Expr::var("UIDS")),
            strategy: LoopStrategy::Sequential,
        };
        assert!(!marked(over_uids(Expr::union(
            CollKind::Set,
            (*call).clone(),
            inner
        ))));
    }

    /// `Ext o <- S: Ext i <- hop(o): links(i)` of the given kinds.
    fn two_hop(outer: CollKind, inner: CollKind) -> Expr {
        let remote = |field: &str, key: &str| Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![
                ("db", Expr::str("na")),
                (field, Expr::var(key)),
            ])),
        };
        let hop = Expr::ext(inner, "i", remote("link", "i"), remote("select", "o"));
        Expr::ext(outer, "o", hop, Expr::var("S"))
    }

    #[test]
    fn a_dependent_two_hop_loop_is_staged_and_both_stages_marked() {
        for kind in [CollKind::Set, CollKind::Bag, CollKind::List] {
            let out = run(two_hop(kind, kind), &batching_catalog(16));
            // Ext p <- (Ext o <- S: Ext i <- hop(o): {[i, o]}): links(p.i)
            let Expr::Ext {
                kind: k2,
                var: pair,
                body,
                source,
                strategy: LoopStrategy::Batched(links),
            } = &out
            else {
                panic!("second hop not a marked loop: {out}");
            };
            assert_eq!(*k2, kind);
            assert!(links.arg.occurs_free(pair), "hop 2 keys are pair fields");
            assert!(body.occurs_free(pair) && !body.occurs_free("i"));
            let Expr::Ext {
                kind: k1,
                body: pairs,
                source: s,
                strategy: LoopStrategy::Batched(hop),
                ..
            } = &**source
            else {
                panic!("first hop not a marked loop: {source}");
            };
            assert_eq!(*k1, kind);
            assert!(hop.arg.occurs_free("o"));
            assert!(matches!(
                &**pairs,
                Expr::Ext { kind: k, strategy: LoopStrategy::Sequential, .. } if *k == kind
            ));
            assert_eq!(**s, Expr::var("S"));
        }
    }

    #[test]
    fn loops_of_different_kinds_are_marked_but_not_staged() {
        let out = run(two_hop(CollKind::List, CollKind::Set), &batching_catalog(16));
        // The outer body calls two requests: it stays unmarked.
        let Expr::Ext {
            body,
            source,
            strategy: LoopStrategy::Sequential,
            ..
        } = &out
        else {
            panic!("shape changed: {out}");
        };
        assert_eq!(**source, Expr::var("S"));
        assert!(matches!(
            &**body,
            Expr::Ext {
                strategy: LoopStrategy::Batched(_),
                ..
            }
        ));
    }
}
