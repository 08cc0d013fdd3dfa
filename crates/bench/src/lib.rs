//! # bench-harness
//!
//! Shared workload builders for the Criterion benches (`benches/`) and the
//! table-printing report binary (`src/bin/report.rs`). Each experiment in
//! EXPERIMENTS.md maps to one function here, so the benches and the report
//! measure exactly the same workloads.

use std::sync::Arc;
use std::time::Duration;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{CollKind, DriverRequest, LatencyModel, RemyRecord, Value};
use kleisli_exec::{Context, Env};
use kleisli_opt::OptConfig;
use nrc::{Expr, JoinStrategy, Prim};

/// Rows for the Rémy-projection experiment (E3): `n` records of `width`
/// fields, all sharing one directory (the homogeneous case the paper
/// optimizes).
pub fn remy_rows(n: usize, width: usize) -> Vec<RemyRecord> {
    (0..n)
        .map(|i| {
            RemyRecord::new(
                (0..width)
                    .map(|f| {
                        (
                            Arc::from(format!("field{f}").as_str()),
                            Value::Int((i * width + f) as i64),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Plain Rémy projection: directory lookup per record.
pub fn project_plain(rows: &[RemyRecord], field: &str) -> i64 {
    let mut acc = 0;
    for r in rows {
        if let Some(Value::Int(i)) = r.get(field) {
            acc += *i;
        }
    }
    acc
}

/// Homogeneous-optimized projection: offset computed once, revalidated by
/// directory magic number.
pub fn project_cached(rows: &[RemyRecord], field: &str) -> i64 {
    let mut p = kleisli_core::CachedProjector::new(field);
    let mut acc = 0;
    for r in rows {
        if let Some(Value::Int(i)) = p.project(r) {
            acc += *i;
        }
    }
    acc
}

/// A constant set of `n` ints as an NRC expression.
pub fn int_set(n: i64) -> Expr {
    Expr::Const(Value::set((0..n).map(Value::Int).collect()))
}

/// E4: the unfused producer/consumer pipeline
/// `U{ {x+1} | \x <- U{ {y*2} | \y <- S } }`.
pub fn vertical_pipeline(n: i64) -> Expr {
    let inner = Expr::ext(
        CollKind::Set,
        "y",
        Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Mul, vec![Expr::var("y"), Expr::int(2)]),
        ),
        int_set(n),
    );
    Expr::ext(
        CollKind::Set,
        "x",
        Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::int(1)]),
        ),
        inner,
    )
}

/// E5: two independent loops over the same source, unioned.
pub fn horizontal_pipeline(n: i64) -> Expr {
    let mk = |off: i64| {
        Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::int(off)]),
            ),
            int_set(n),
        )
    };
    Expr::union(CollKind::Set, mk(0), mk(n))
}

/// E6: a loop whose filter (`flag = 1`) is loop-invariant; with promotion
/// the false case never scans.
pub fn invariant_filter(n: i64, flag: i64) -> Expr {
    Expr::let_(
        "flag",
        Expr::int(flag),
        Expr::ext(
            CollKind::Set,
            "x",
            Expr::if_(
                Expr::eq(Expr::var("flag"), Expr::int(1)),
                Expr::single(CollKind::Set, Expr::var("x")),
                Expr::Empty(CollKind::Set),
            ),
            int_set(n),
        ),
    )
}

/// A pair of join inputs keyed with the given selectivity.
pub fn join_inputs(n: i64, modulus: i64) -> (Expr, Expr) {
    let table = |rows: i64, m: i64, tag: &str| {
        Expr::Const(Value::set(
            (0..rows)
                .map(|i| Value::record_from(vec![("k", Value::Int(i % m)), (tag, Value::Int(i))]))
                .collect(),
        ))
    };
    (table(n, modulus, "a"), table(n, modulus, "b"))
}

/// E8: a join of the two inputs under the given strategy (or the naive
/// nested loop when `strategy` is `None`).
pub fn join_query(left: Expr, right: Expr, strategy: Option<JoinStrategy>) -> Expr {
    let cond = Expr::eq(
        Expr::proj(Expr::var("l"), "k"),
        Expr::proj(Expr::var("r"), "k"),
    );
    let body = Expr::single(
        CollKind::Set,
        Expr::record(vec![
            ("a", Expr::proj(Expr::var("l"), "a")),
            ("b", Expr::proj(Expr::var("r"), "b")),
        ]),
    );
    match strategy {
        None => Expr::ext(
            CollKind::Set,
            "l",
            Expr::ext(
                CollKind::Set,
                "r",
                Expr::if_(cond, body, Expr::Empty(CollKind::Set)),
                right,
            ),
            left,
        ),
        Some(strategy) => Expr::Join {
            kind: CollKind::Set,
            strategy,
            left: Arc::new(left),
            right: Arc::new(right),
            lvar: nrc::name("l"),
            rvar: nrc::name("r"),
            left_key: Some(Arc::new(Expr::proj(Expr::var("l"), "k"))),
            right_key: Some(Arc::new(Expr::proj(Expr::var("r"), "k"))),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(body),
        },
    }
}

/// The standard federation for driver-facing experiments, with the given
/// per-request latency realized as real sleeps.
pub fn latency_federation(loci: usize, per_request: Duration) -> (Session, BioFederation) {
    latency_federation_rows(loci, per_request, Duration::ZERO)
}

/// Like [`latency_federation`] but also charging a per-row transfer cost —
/// used by the laziness experiment, where the row transfer time is what
/// the pipelined executor avoids.
pub fn latency_federation_rows(
    loci: usize,
    per_request: Duration,
    per_row: Duration,
) -> (Session, BioFederation) {
    let fed = bio_federation(
        &GdbConfig {
            loci,
            seed: 97,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 50,
            links_per_entry: 3,
            seq_len: 60,
            seed: 97,
        },
        LatencyModel::real(per_request, per_row),
        LatencyModel::real(per_request, per_row),
    )
    .expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    (session, fed)
}

/// The Loci22 CPL text (E7).
pub const LOCI22: &str = r#"{[locus_symbol = x, genbank_ref = y] |
    [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
    [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
    [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}"#;

/// Optimizer configurations compared by the ablation experiments.
pub fn config_variants() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("full", OptConfig::default()),
        (
            "no-pushdown",
            OptConfig {
                enable_pushdown: false,
                ..OptConfig::default()
            },
        ),
        (
            // monadic rules only, sequential: isolates what the naive
            // remote plan costs without joins/caching/concurrency
            "local-no-cache",
            OptConfig {
                enable_pushdown: false,
                enable_joins: false,
                enable_cache: false,
                enable_parallel: false,
                ..OptConfig::default()
            },
        ),
        ("none", OptConfig::none()),
    ]
}

/// E9: per-locus remote aggregate whose inner subquery is outer-
/// independent (cacheable): pairs every locus with the total number of
/// class-1 GenBank cross-references.
pub const CACHEABLE: &str = r#"{[s = l.locus_symbol,
       n = count({e | \e <- GDB-Tab("object_genbank_eref"), e.object_class_key = 1})] |
    \l <- GDB-Tab("locus")}"#;

/// E11: per-element remote calls (links), parallelizable. `UIDS` must be
/// bound in the session (see [`bind_uids`]).
pub const CONCURRENCY: &str =
    r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] | \uid <- UIDS}"#;

/// E13: the two-source overlap workload for the concurrency report —
/// per-uid requests to *both* servers (GenBank neighbor links and a GDB
/// locus lookup), so the latency-overlapping scheduler can keep both
/// sources busy at once, bounded by each one's admission budget. `UIDS`
/// must be bound in the session (see [`bind_uids`]).
pub const TWO_SOURCE_CONCURRENCY: &str = r#"{[u = uid,
       links = count(GenBank([db = "na", link = uid])),
       loci = count({l | \l <- GDB-Tab("locus"), l.locus_id = uid})] |
    \uid <- UIDS}"#;

/// Bind `UIDS` to the first `n` GenBank entry uids.
pub fn bind_uids(session: &mut Session, fed: &BioFederation, n: usize) {
    let uids: Vec<Value> = fed
        .genbank_data
        .entries
        .iter()
        .take(n)
        .map(|e| Value::Int(e.uid))
        .collect();
    session.bind_value("UIDS", Value::set(uids));
}

/// Rewrite every `ParExt` in the plan to the requested width (1 =
/// sequential), sharing untouched subtrees.
pub fn set_par_width(e: &Expr, width: usize) -> Expr {
    fn go(e: &Arc<Expr>, width: usize) -> Arc<Expr> {
        let e = Expr::map_children_shared(e, &mut |c| go(c, width));
        match &*e {
            Expr::ParExt {
                kind,
                var,
                body,
                source,
                batch,
                ..
            } => Arc::new(Expr::ParExt {
                kind: *kind,
                var: var.clone(),
                body: body.clone(),
                source: source.clone(),
                max_in_flight: width,
                batch: batch.clone(),
            }),
            _ => e,
        }
    }
    (*go(&Arc::new(e.clone()), width)).clone()
}

// ------------------------------------------------------------------------
// E14: row-pipelined execution (the `row_pipeline` report).
// ------------------------------------------------------------------------

/// The row-pipeline workload: `drivers` SlowDrivers, each scanned
/// `arms_per_driver` times in one union spine, every row costing
/// `per_row` of real transfer latency. With `prefetch_rows = 0` the
/// consumer pays every row on its own clock (the PR-3 fully-lazy
/// behavior: requests overlap, rows do not); with `prefetch_rows >=
/// rows` each driver's pool workers pull their arms' rows concurrently,
/// so elapsed time approaches one arm's transfer instead of the sum.
/// Returns the execution context, the union plan, and the drivers (for
/// metrics assertions).
pub fn row_pipeline_workload(
    drivers: usize,
    arms_per_driver: usize,
    rows: i64,
    per_request: Duration,
    per_row: Duration,
    prefetch_rows: usize,
) -> (Arc<Context>, Expr, Vec<Arc<kleisli_core::testutil::SlowDriver>>) {
    use kleisli_core::testutil::SlowDriver;
    let mut ctx = Context::new();
    let mut slow = Vec::new();
    let mut arms: Vec<Expr> = Vec::new();
    for d in 0..drivers {
        let name = format!("S{d}");
        let driver = SlowDriver::pipelined(
            &name,
            rows,
            per_request,
            per_row,
            arms_per_driver.max(1),
            prefetch_rows,
        );
        slow.push(Arc::clone(&driver));
        ctx.register_driver(driver);
        for a in 0..arms_per_driver {
            // Tag rows per arm so the set union keeps every arm's rows.
            let scan = Expr::Remote {
                driver: nrc::name(&name),
                request: DriverRequest::TableScan {
                    table: "t".into(),
                    columns: None,
                },
            };
            arms.push(Expr::ext(
                CollKind::Set,
                "x",
                Expr::single(
                    CollKind::Set,
                    Expr::record(vec![
                        ("src", Expr::int((d * arms_per_driver + a) as i64)),
                        ("n", Expr::proj(Expr::var("x"), "n")),
                    ]),
                ),
                scan,
            ));
        }
    }
    let plan = arms
        .into_iter()
        .rev()
        .reduce(|acc, arm| Expr::union(CollKind::Set, arm, acc))
        .expect("at least one arm");
    (Arc::new(ctx), plan, slow)
}

// ------------------------------------------------------------------------
// E9: structural sharing of plans (the `plan_sharing` bench).
// ------------------------------------------------------------------------

/// A deep nested comprehension: `depth` levels of
/// `U{ if xi < B then {[a = xi + 1, b = xi * 2, s = {inner}]} else {} | \xi <- inner }`
/// over a small constant set — wide enough per level that the plan has a
/// few hundred nodes, and shaped so the monadic rules genuinely rewrite
/// parts of it on the first optimizer pass.
pub fn deep_comprehension(depth: usize, width: i64) -> Expr {
    let mut e = int_set(width);
    for i in 0..depth {
        let v = format!("x{i}");
        let xi = || Expr::var(&v);
        // a wide record of nested arithmetic per level keeps the plan at
        // realistic size (tens of nodes per comprehension level)
        let field = |mul: i64, add: i64| {
            Expr::prim(
                Prim::Add,
                vec![
                    Expr::prim(
                        Prim::Mul,
                        vec![xi(), Expr::prim(Prim::Add, vec![xi(), Expr::int(mul)])],
                    ),
                    Expr::prim(Prim::Mod, vec![xi(), Expr::int(add)]),
                ],
            )
        };
        let body = Expr::if_(
            Expr::prim(Prim::Lt, vec![xi(), Expr::int(width * 2)]),
            Expr::single(
                CollKind::Set,
                Expr::record(vec![
                    ("a", field(1, 7)),
                    ("b", field(2, 11)),
                    ("c", field(3, 13)),
                    ("d", field(5, 17)),
                    ("e", field(8, 19)),
                    ("f", field(13, 23)),
                ]),
            ),
            Expr::Empty(CollKind::Set),
        );
        // keep the next level iterating ints, not records
        let proj = Expr::ext(
            CollKind::Set,
            "r",
            Expr::single(CollKind::Set, Expr::proj(Expr::var("r"), "a")),
            Expr::ext(CollKind::Set, &v, body, e),
        );
        e = proj;
    }
    e
}

// ------------------------------------------------------------------------
// E12: subplan caching (the `plan_cache` bench).
// ------------------------------------------------------------------------

/// A plan in which one deep subtree is *shared* (one `Arc`, `copies`
/// occurrences): `union(S, union(S, ... union(S, S)))`. The memoized
/// rewrite engine rewrites `S` once per fixpoint; the unmemoized engine
/// walks it once per occurrence.
pub fn shared_subtree_plan(copies: usize, depth: usize, width: i64) -> Arc<Expr> {
    let shared = Arc::new(deep_comprehension(depth, width));
    let mut e = Arc::clone(&shared);
    for _ in 1..copies.max(1) {
        e = Arc::new(Expr::Union(CollKind::Set, Arc::clone(&shared), e));
    }
    e
}

/// Fixpoint over the resolve + monadic sets with the rewrite memo toggled.
pub fn memo_fixpoint(e: Arc<Expr>, config: &OptConfig, memo: bool) -> Arc<Expr> {
    let config = OptConfig {
        enable_rewrite_memo: memo,
        ..config.clone()
    };
    shared_fixpoint(e, &config)
}

/// A session with a small local database and the plan cache sized by
/// `capacity` (0 disables caching — the repeat-compile baseline).
pub fn compile_session(capacity: usize) -> Session {
    let mut session = Session::new();
    session.set_plan_cache_capacity(capacity);
    session.bind_value(
        "DB",
        Value::set(
            (0..64)
                .map(|i| {
                    Value::record_from(vec![
                        ("k", Value::Int(i % 7)),
                        ("v", Value::Int(i)),
                        ("name", Value::str(format!("row{i}"))),
                    ])
                })
                .collect(),
        ),
    );
    session
}

/// The query repeatedly compiled by the plan-cache experiment: enough
/// nesting and pattern sugar that a compile costs a realistic amount.
pub const REPEAT_COMPILE: &str = r"{[k = x.k, total = sum({y.v | \y <- DB, y.k = x.k}),
      names = {y.name | \y <- DB, y.k = x.k}] | \x <- DB}";

/// Run one rule set to fixpoint the way the pre-sharing engine did:
/// every pass rebuilds **every** node of the plan (one fresh allocation
/// per node, exactly like the old `Box<Expr>` `map_children`), and the
/// fixpoint test is the structural `changed` flag. This is the honest
/// baseline for the `plan_sharing` bench — same rules, same strategy,
/// same fixpoint bound, different plan representation discipline.
pub fn legacy_run_rule_set(
    rs: &kleisli_opt::RuleSet,
    e: Arc<Expr>,
    ctx: &kleisli_opt::RuleCtx<'_>,
) -> Arc<Expr> {
    fn rebuild_all(
        rs: &kleisli_opt::RuleSet,
        e: &Arc<Expr>,
        ctx: &kleisli_opt::RuleCtx<'_>,
        changed: &mut bool,
        top_down: bool,
    ) -> Arc<Expr> {
        let apply_here = |mut cur: Arc<Expr>, changed: &mut bool| -> Arc<Expr> {
            'outer: for _ in 0..kleisli_opt::MAX_PASSES {
                for rule in &rs.rules {
                    if let Some(new) = (rule.apply)(&cur, ctx) {
                        *changed = true;
                        cur = Arc::new(new);
                        continue 'outer;
                    }
                }
                break;
            }
            cur
        };
        let go_children = |e: &Arc<Expr>, changed: &mut bool| -> Arc<Expr> {
            let rebuilt =
                Expr::map_children_shared(e, &mut |c| rebuild_all(rs, c, ctx, changed, top_down));
            // Force the old representation's cost model: one fresh node
            // allocation per plan node per pass, even when unchanged.
            if Arc::ptr_eq(&rebuilt, e) {
                Arc::new((**e).clone())
            } else {
                rebuilt
            }
        };
        if top_down {
            let e2 = apply_here(Arc::clone(e), changed);
            go_children(&e2, changed)
        } else {
            let e2 = go_children(e, changed);
            apply_here(e2, changed)
        }
    }
    let top_down = matches!(rs.strategy, kleisli_opt::Strategy::TopDown);
    let mut e = e;
    for _ in 0..kleisli_opt::MAX_PASSES {
        let mut changed = false;
        e = rebuild_all(rs, &e, ctx, &mut changed, top_down);
        if !changed {
            break;
        }
    }
    e
}

/// Fixpoint over the resolve + monadic sets with the sharing engine.
pub fn shared_fixpoint(e: Arc<Expr>, config: &OptConfig) -> Arc<Expr> {
    let ctx = kleisli_opt::RuleCtx {
        catalog: &kleisli_opt::NullCatalog,
        config,
    };
    let mut trace = Vec::new();
    let e = kleisli_opt::rules::resolve::rule_set().run(e, &ctx, &mut trace);
    kleisli_opt::rules::monadic::rule_set().run(e, &ctx, &mut trace)
}

/// Fixpoint over the same sets with the legacy rebuild-every-pass engine.
pub fn legacy_fixpoint(e: Arc<Expr>, config: &OptConfig) -> Arc<Expr> {
    let ctx = kleisli_opt::RuleCtx {
        catalog: &kleisli_opt::NullCatalog,
        config,
    };
    let e = legacy_run_rule_set(&kleisli_opt::rules::resolve::rule_set(), e, &ctx);
    legacy_run_rule_set(&kleisli_opt::rules::monadic::rule_set(), e, &ctx)
}

/// The deep clones the pre-sharing streaming executor performed while
/// assembling the `ExtStream` chain for the first output element: one
/// full copy of the remaining body at every comprehension level. The
/// returned node count keeps the optimizer from eliding the work.
pub fn legacy_stream_clone_cost(e: &Expr) -> usize {
    match e {
        Expr::Ext { body, source, .. } => {
            let cloned = body.deep_clone();
            cloned.size() + legacy_stream_clone_cost(source)
        }
        Expr::Union(_, a, b) => {
            // the lazy right side was cloned up front
            let cloned = b.deep_clone();
            cloned.size() + legacy_stream_clone_cost(a)
        }
        _ => 0,
    }
}

/// Build the stream for `e` and pull the first element (the paper's
/// fast-first-response path); returns how many rows came out.
pub fn stream_first(e: &Expr) -> usize {
    let ctx = Arc::new(Context::new());
    kleisli_exec::first_n(e, 1, &Env::empty(), &ctx)
        .expect("stream")
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_exec::{eval, Context, Env};

    #[test]
    fn projections_agree() {
        let rows = remy_rows(1000, 8);
        assert_eq!(
            project_plain(&rows, "field3"),
            project_cached(&rows, "field3")
        );
    }

    #[test]
    fn fusion_workloads_evaluate() {
        let ctx = Context::new();
        let v = eval(&vertical_pipeline(100), &Env::empty(), &ctx).unwrap();
        assert_eq!(v.len(), Some(100));
        let h = eval(&horizontal_pipeline(100), &Env::empty(), &ctx).unwrap();
        assert_eq!(h.len(), Some(200));
    }

    #[test]
    fn join_workloads_agree_across_strategies() {
        let (l, r) = join_inputs(200, 10);
        let ctx = Context::new();
        let naive = eval(&join_query(l.clone(), r.clone(), None), &Env::empty(), &ctx).unwrap();
        for s in [JoinStrategy::BlockedNl, JoinStrategy::IndexedNl] {
            let v = eval(
                &join_query(l.clone(), r.clone(), Some(s)),
                &Env::empty(),
                &ctx,
            )
            .unwrap();
            assert_eq!(v, naive);
        }
    }
}
