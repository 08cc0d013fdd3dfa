//! Batched round-trip rules (IN-list / multi-uid pushdown): a
//! bounded-concurrency loop whose body issues one remote request per
//! element against a server advertising [`Capabilities::batching`] is
//! marked with a [`BatchSpec`], so the executor pre-fetches the whole
//! key set in `ceil(n / max_keys)` wire round-trips instead of `n`.
//!
//! The mark is *advisory*: the loop body is untouched, and at run time
//! each per-element submission attaches to a warmed-up flight when one
//! matches (byte-identical results by construction). A key set smaller
//! than `min_keys` skips warm-up entirely — for a handful of keys the
//! latency-overlap path already hides the round-trips, and the batch
//! would only serialize them behind one wire request.
//!
//!
//! # Staging dependent loops
//!
//! The mark only pays when the loop sees enough keys. In a two-hop
//! dependent loop — the DOE query's `\locus <- Loci(c), \uid <-
//! ASN-IDs(locus.genbank_ref)` with `NA-Links(uid)` in the head — the
//! second hop's loop is nested *inside* each outer iteration, where it
//! sees only that element's handful of keys (one `uid`) and never
//! reaches `min_keys`. `stage-dependent-remote-loop` therefore rewrites
//!
//! ```text
//! ParExt o <- S: ParExt i <- f(o): body(i, o)
//!   ==>
//! ParExt p <- (ParExt o <- S: Ext i <- f(o): {[i = i, o = o]}): body(p.i, p.o)
//! ```
//!
//! (monad associativity; same collection kind throughout, so sets, bag
//! multiplicities and list order are all preserved). The second hop now
//! iterates one flat stream of `(i, o)` pairs, and both stages are plain
//! remote inner loops for the marking rule below. It fires only when
//! both hops would batch — `f` depends on `o`, and `f` and `body` each
//! hold a markable request on a batching-capable driver — and runs before
//! the marking rule so the staged loops, not the nested ones, are marked.
//!
//! [`Capabilities::batching`]: kleisli_core::Capabilities

use std::ops::ControlFlow::{Break, Continue};
use std::sync::Arc;

use nrc::{BatchSpec, Expr, Name};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy, MIN_BATCH_KEYS};

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

/// The first per-element remote call in `e` worth batching: a
/// `RemoteApp` outside any `Cached` subtree whose argument is pure-local
/// and actually depends on the loop variable. Returns the driver and the
/// argument expression (abstracted over `var`).
///
/// The mark is exact or absent: the warm-up evaluates the argument with
/// the loop variable alone bound, and the executor hands that request's
/// reply to every call of this driver on an equal argument in the body,
/// so such a call under a binder of `e` that rebinds a free variable of
/// the argument refuses the mark.
///
/// `Remote` nodes carry a *static* request — every element would issue
/// the identical wire request, which the coalescing window already
/// folds — so they are not batch targets.
fn batch_target(e: &Expr, var: &str) -> Option<(Name, Arc<Expr>)> {
    let (driver, arg) = e.find(&mut |e, _| match e {
        Expr::Cached { .. } => Break(None),
        Expr::RemoteApp { driver, arg } => Break(
            (pure_local(arg) && arg.occurs_free(var)).then(|| (driver.clone(), Arc::clone(arg))),
        ),
        _ => Continue(()),
    })?;
    let rebound = e.find(&mut |e, scope| {
        let mut call = false;
        if scope.iter().any(|b| arg.occurs_free(b)) {
            let on_arg = |e: &Expr| matches!(e, Expr::RemoteApp { driver: d, arg: a } if *d == driver && *a == arg);
            e.visit(&mut |e| call |= on_arg(e));
        }
        if call { Break(Some(())) } else { Continue(()) }
    });
    rebound.is_none().then_some((driver, arg))
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
    if !ctx.config.enable_batching {
        return None;
    }
    let Expr::ParExt {
        kind,
        var: outer,
        body: nested,
        source,
        max_in_flight: outer_width,
        batch: None,
    } = e
    else {
        return None;
    };
    let Expr::ParExt {
        kind: inner_kind,
        var: inner,
        body,
        source: hop,
        max_in_flight: inner_width,
        batch: None,
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
    let pairs = Expr::ParExt {
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
        }),
        source: Arc::clone(source),
        max_in_flight: *outer_width,
        batch: None,
    };
    Some(Expr::ParExt {
        kind: *kind,
        var: pair,
        body,
        source: Arc::new(pairs),
        max_in_flight: *inner_width,
        batch: None,
    })
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
    let (driver, arg, max_keys) = batchable(body, var, ctx)?;
    Some(Expr::ParExt {
        kind: *kind,
        var: var.clone(),
        body: body.clone(),
        source: source.clone(),
        max_in_flight: *max_in_flight,
        batch: Some(BatchSpec {
            driver,
            arg,
            min_keys: MIN_BATCH_KEYS,
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
                assert_eq!(spec.min_keys, MIN_BATCH_KEYS);
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

    #[test]
    fn a_call_under_a_binder_of_its_argument_stays_unmarked() {
        let links = |db: Expr| {
            let arg = Expr::record(vec![("db", db), ("link", Expr::var("x"))]);
            Arc::new(Expr::RemoteApp { driver: nrc::name("GenBank"), arg: Arc::new(arg) })
        };
        let over = |body: Arc<Expr>| Expr::ParExt {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body,
            source: Arc::new(Expr::var("UIDS")),
            max_in_flight: 5,
            batch: None,
        };
        let under_let = |var: &str, body: Arc<Expr>| {
            over(Arc::new(Expr::Let { var: nrc::name(var), def: Arc::new(Expr::int(0)), body }))
        };
        let marked = |e: Expr| {
            let out = run(e, &batching_catalog(16), &OptConfig::default());
            matches!(out, Expr::ParExt { batch: Some(_), .. })
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
        let inner = |body: &Arc<Expr>| Expr::Ext {
            kind: CollKind::Set,
            var: nrc::name("x"),
            body: Arc::clone(body),
            source: Arc::new(Expr::var("UIDS")),
        };
        assert!(!marked(over(Arc::new(Expr::union(CollKind::Set, (*call).clone(), inner(&call))))));
        // A call of another driver there is never handed the reply.
        let Expr::RemoteApp { arg, .. } = &*call else { unreachable!() };
        let other = Arc::new(Expr::RemoteApp { driver: nrc::name("Other"), arg: Arc::clone(arg) });
        assert!(marked(over(Arc::new(Expr::union(CollKind::Set, (*call).clone(), inner(&other))))));
    }

    /// `ParExt o <- S: ParExt i <- hop(o): links(i)` of the given kinds.
    fn two_hop(outer: CollKind, inner: CollKind) -> Expr {
        let remote = |field: &str, key: &str| Expr::RemoteApp {
            driver: nrc::name("GenBank"),
            arg: Arc::new(Expr::record(vec![
                ("db", Expr::str("na")),
                (field, Expr::var(key)),
            ])),
        };
        Expr::ParExt {
            kind: outer,
            var: nrc::name("o"),
            body: Arc::new(Expr::ParExt {
                kind: inner,
                var: nrc::name("i"),
                body: Arc::new(remote("link", "i")),
                source: Arc::new(remote("select", "o")),
                max_in_flight: 3,
                batch: None,
            }),
            source: Arc::new(Expr::var("S")),
            max_in_flight: 5,
            batch: None,
        }
    }

    #[test]
    fn a_dependent_two_hop_loop_is_staged_and_both_stages_marked() {
        for kind in [CollKind::Set, CollKind::Bag, CollKind::List] {
            let out = run(
                two_hop(kind, kind),
                &batching_catalog(16),
                &OptConfig::default(),
            );
            // ParExt p <- (ParExt o <- S: Ext i <- hop(o): {[i, o]}): links(p.i)
            let Expr::ParExt {
                kind: k2,
                var: pair,
                body,
                source,
                max_in_flight: 3,
                batch: Some(links),
            } = &out
            else {
                panic!("second hop not a marked loop of the inner width: {out}");
            };
            assert_eq!(*k2, kind);
            assert!(links.arg.occurs_free(pair), "hop 2 keys are pair fields");
            assert!(body.occurs_free(pair) && !body.occurs_free("i"));
            let Expr::ParExt {
                kind: k1,
                body: pairs,
                source: s,
                max_in_flight: 5,
                batch: Some(hop),
                ..
            } = &**source
            else {
                panic!("first hop not a marked loop of the outer width: {source}");
            };
            assert_eq!(*k1, kind);
            assert!(hop.arg.occurs_free("o"));
            assert!(matches!(&**pairs, Expr::Ext { kind: k, .. } if *k == kind));
            assert_eq!(**s, Expr::var("S"));
        }
    }

    #[test]
    fn loops_of_different_kinds_are_marked_but_not_staged() {
        let out = run(
            two_hop(CollKind::List, CollKind::Set),
            &batching_catalog(16),
            &OptConfig::default(),
        );
        let Expr::ParExt { body, source, .. } = &out else {
            panic!("shape changed: {out}");
        };
        assert_eq!(**source, Expr::var("S"));
        assert!(matches!(&**body, Expr::ParExt { batch: Some(_), .. }));
    }
}
