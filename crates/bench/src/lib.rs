//! # bench-harness
//!
//! Workload builders and timing helpers for the one `report` binary
//! (`src/bin/report.rs`; its output is `BENCH_micro.json` at the repo
//! root) and for the root test suites that want the same federation
//! (`tests/batch_semantics.rs`, `tests/concurrency.rs`). Each paper
//! experiment maps to one builder here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{CollKind, DriverRequest, LatencyModel, RemyRecord, Value};
use kleisli_exec::{Context, Env};
use kleisli_opt::OptConfig;
use nrc::{Expr, LoopStrategy, Prim};

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

/// E8: a join of the two inputs on `l.k = r.k`. `None` is the naive
/// nested loop; `Some(keyed)` a local join operator: the indexed one, the
/// equality its keys, when `keyed`, else the blocked one, the equality its
/// condition.
pub fn join_query(left: Expr, right: Expr, keyed: Option<bool>) -> Expr {
    let key = |v: &str| Expr::proj(Expr::var(v), "k");
    let cond = Expr::eq(key("l"), key("r"));
    let body = Expr::single(
        CollKind::Set,
        Expr::record(vec![
            ("a", Expr::proj(Expr::var("l"), "a")),
            ("b", Expr::proj(Expr::var("r"), "b")),
        ]),
    );
    match keyed {
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
        Some(keyed) => Expr::Join {
            kind: CollKind::Set,
            left: Arc::new(left),
            right: Arc::new(right),
            lvar: nrc::name("l"),
            rvar: nrc::name("r"),
            keys: keyed.then(|| (Arc::new(key("l")), Arc::new(key("r")))),
            cond: Arc::new(if keyed { Expr::bool(true) } else { cond }),
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

/// Set every parallel loop of the plan to the requested width (1 =
/// sequential), sharing untouched subtrees.
pub fn set_par_width(e: &Expr, width: usize) -> Expr {
    fn go(e: &Arc<Expr>, width: usize) -> Arc<Expr> {
        let e = Expr::map_children_shared(e, &mut |c| go(c, width));
        match &*e {
            Expr::Ext {
                kind,
                var,
                body,
                source,
                strategy: LoopStrategy::Parallel(_),
            } => Arc::new(Expr::Ext {
                kind: *kind,
                var: var.clone(),
                body: body.clone(),
                source: source.clone(),
                strategy: LoopStrategy::Parallel(width),
            }),
            _ => e,
        }
    }
    (*go(&Arc::new(e.clone()), width)).clone()
}

// ------------------------------------------------------------------------
// E14: row-pipelined execution (`report row_heavy_scans`).
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
) -> (
    Arc<Context>,
    Expr,
    Vec<Arc<kleisli_core::testutil::SlowDriver>>,
) {
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
// E9: structural sharing of plans (`report sharing_fixpoint`).
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
// E12: the rewrite memo (`report memoized_fixpoint`).
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

/// Fixpoint over the resolve + monadic rule sets under the default
/// configuration: the sharing-preserving engine with its rewrite memo, or
/// (`memo = false`) through its unmemoized reference entry point.
pub fn fixpoint(e: Arc<Expr>, memo: bool) -> Arc<Expr> {
    let ctx = kleisli_opt::RuleCtx {
        catalog: &kleisli_opt::NullCatalog,
    };
    let mut trace = Vec::new();
    let sets = [
        kleisli_opt::rules::resolve::rule_set(),
        kleisli_opt::rules::monadic::rule_set(),
    ];
    sets.iter().fold(e, |e, set| {
        if memo {
            set.run(e, &ctx, &mut trace)
        } else {
            set.run_unmemoized(e, &ctx, &mut trace)
        }
    })
}

/// Build the stream for `e` and pull the first element (the paper's
/// fast-first-response path); returns how many rows came out.
pub fn stream_first(e: &Expr) -> usize {
    let ctx = Arc::new(Context::new());
    kleisli_exec::first_n(e, 1, &Env::empty(), &ctx)
        .expect("stream")
        .len()
}

// ------------------------------------------------------------------------
// Timing: the three ways `report` reads a clock.
// ------------------------------------------------------------------------

/// Mean wall time of `reps` runs of `f`, after one untimed warm-up run —
/// for CPU-bound work, where the mean over many runs is the stable figure.
pub fn time_mean<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed() / reps as u32
}

/// Fastest of `reps` runs of `f` — for work that sleeps, where every
/// disturbance only ever adds time.
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

/// Wall time of each of `n` runs of `f`, ascending — the sorted sample
/// `kbench::stats::percentile` reads.
pub fn latencies<R>(n: usize, mut f: impl FnMut() -> R) -> Vec<Duration> {
    let mut sample: Vec<Duration> = (0..n).map(|_| time_best_of(1, &mut f)).collect();
    sample.sort();
    sample
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
        for keyed in [false, true] {
            let v = eval(
                &join_query(l.clone(), r.clone(), Some(keyed)),
                &Env::empty(),
                &ctx,
            )
            .unwrap();
            assert_eq!(v, naive);
        }
    }

    #[test]
    fn time_mean_warms_up_once_and_averages_the_rest() {
        let nap = Duration::from_millis(2);
        let mut calls = 0;
        let t0 = Instant::now();
        let mean = time_mean(4, || {
            calls += 1;
            std::thread::sleep(nap);
        });
        let wall = t0.elapsed();
        assert_eq!(calls, 5, "one warm-up run plus four timed ones");
        assert!(mean >= nap, "{mean:?}");
        assert!(
            mean * 4 + nap <= wall,
            "a mean of the timed runs, warm-up excluded: {mean:?} of {wall:?}"
        );
    }

    #[test]
    fn time_best_of_keeps_the_fastest_run() {
        let mut calls = 0u64;
        let best = time_best_of(3, || {
            calls += 1;
            // The first run is the slow one.
            std::thread::sleep(Duration::from_millis(if calls == 1 { 30 } else { 2 }));
        });
        assert_eq!(calls, 3, "no warm-up run");
        assert!(
            (Duration::from_millis(2)..Duration::from_millis(30)).contains(&best),
            "{best:?}"
        );
    }

    #[test]
    fn latencies_are_one_sorted_sample_per_run() {
        let mut calls = 0u64;
        let sample = latencies(5, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(if calls == 2 { 20 } else { 1 }));
        });
        assert_eq!((calls, sample.len()), (5, 5));
        assert!(sample.windows(2).all(|w| w[0] <= w[1]), "{sample:?}");
        assert!(sample[4] >= Duration::from_millis(20), "{sample:?}");
        assert!(sample[3] < Duration::from_millis(20), "{sample:?}");
    }

    #[test]
    fn both_fixpoints_normalize_to_the_same_shape() {
        let plan = shared_subtree_plan(4, 3, 4);
        assert_eq!(
            fixpoint(Arc::clone(&plan), true).size(),
            fixpoint(plan, false).size()
        );
    }
}
