//! The repo's one micro-benchmark program: the paper's experiment tables
//! and the measurements with no end-to-end analogue in kbench
//! (`benchmark/`), each run once, each asserting its own floor.
//!
//! ```sh
//! cargo run -p bench-harness --release --bin report              # all, full size; rewrites BENCH_micro.json
//! cargo run -p bench-harness --release --bin report -- --smoke   # all, CI size; stdout only
//! cargo run -p bench-harness --release --bin report -- breaker_fail_fast drain
//! ```
//!
//! The arguments are `--smoke` and measurement names ([`MEASUREMENTS`]),
//! nothing else. The document goes to stdout; only a full-size run of
//! every measurement rewrites the committed `BENCH_micro.json`, so a
//! smoke or partial run never leaves CI-sized numbers in the working
//! tree. The exit status is the floors: a measurement that lost its win
//! panics. Percentiles are `kbench::stats`', the document is a
//! `kbench::json::Json` — the same definitions kbench's own numbers use.
//!
//! What each table shows is the *shape* the paper reports — who wins, by
//! what factor, and the traffic counters behind it — not a statistic.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bench_harness::*;
use kbench::json::Json;
use kbench::stats::percentile;
use kleisli::{BreakerPolicy, Compiled, How, ResiliencePolicy, Session};
use kleisli_core::testutil::{Fault, SlowDriver};
use kleisli_core::{CollKind, DriverRequest, Value};
use kleisli_exec::{
    collect_blocks, collect_stream, eval, eval_blocks, eval_stream, reference, Context, Env,
};
use kleisli_opt::OptConfig;
use kleisli_server::proto::{encode_request, write_frame, Request};
use kleisli_server::{
    serve_ephemeral, Client, QueryReply, ServedFrom, ServerConfig, DRAIN_DEADLINE,
};
use nrc::{Expr, Prim};

/// One measurement: its name on the command line and in the document,
/// and the function that runs it at CI (`smoke`) or full size.
type Measurement = (&'static str, fn(bool) -> Json);

const MEASUREMENTS: &[Measurement] = &[
    ("t1_pushdown", t1_pushdown),
    ("t2_path_extraction", t2_path_extraction),
    ("t3_remy_projection", t3_remy_projection),
    ("e4_fusion", e4_fusion),
    ("e8_joins", e8_joins),
    ("e9_caching", e9_caching),
    ("e10_laziness", e10_laziness),
    ("e11_concurrency", e11_concurrency),
    ("sharing_fixpoint", sharing_fixpoint),
    ("memoized_fixpoint", memoized_fixpoint),
    ("breaker_fail_fast", breaker_fail_fast),
    ("row_heavy_scans", row_heavy_scans),
    ("window_below_result", window_below_result),
    ("cpu_block_drain", cpu_block_drain),
    ("cpu_fused_filter_project", cpu_fused_filter_project),
    ("slow_client", slow_client),
    ("drain", drain),
];

const OUTPUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");

fn main() {
    let mut smoke = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if MEASUREMENTS.iter().any(|(name, _)| *name == arg) {
            names.push(arg);
        } else {
            let known: Vec<&str> = MEASUREMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: report [--smoke] [NAME...]\nunknown argument `{arg}`; measurements: {}",
                known.join(" ")
            );
            std::process::exit(2);
        }
    }
    let measured = MEASUREMENTS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .map(|(name, run)| {
            eprintln!("report: {name}");
            (*name, run(smoke))
        });
    let doc = Json::obj([
        ("bench", Json::str("micro")),
        (
            "command",
            Json::str("cargo run -p bench-harness --release --bin report"),
        ),
        ("smoke", Json::Bool(smoke)),
        ("measurements", Json::obj(measured.collect::<Vec<_>>())),
    ])
    .to_pretty();
    print!("{doc}");
    if !smoke && names.is_empty() {
        std::fs::write(OUTPUT, doc).expect("write BENCH_micro.json");
        eprintln!("report: wrote {OUTPUT}");
    }
}

/// A reading to two decimals — what a wall clock is worth.
fn num(x: f64) -> Json {
    Json::Num((x * 100.0).round() / 100.0)
}

fn int(n: u64) -> Json {
    Json::Num(n as f64)
}

fn ms(d: Duration) -> Json {
    num(d.as_secs_f64() * 1e3)
}

fn us(d: Duration) -> Json {
    num(d.as_secs_f64() * 1e6)
}

/// How many times `b` fits in `a`: the speedup of `b` over `a`.
fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}

/// The median of an ascending, non-empty sample.
fn p50(sorted: &[Duration]) -> Duration {
    percentile(sorted, 50.0).expect("a sample")
}

fn rows(rows: Vec<Json>) -> Json {
    Json::obj([("rows", Json::Arr(rows))])
}

// ------------------------------------------------------------------------
// The paper's tables.
// ------------------------------------------------------------------------

/// E7 / Table T1: Loci22 query migration, one row per optimizer ablation.
fn t1_pushdown(smoke: bool) -> Json {
    let (loci, per_request, reps) = if smoke {
        (40, Duration::from_micros(100), 1)
    } else {
        (300, Duration::from_millis(2), 3)
    };
    let (mut session, _fed) = latency_federation(loci, per_request);
    let runs = reps as u64 + 1; // the warm-up run ships too
    rows(
        config_variants()
            .into_iter()
            .map(|(plan, config)| {
                session.set_opt_config(config);
                let compiled = session.compile_shared(LOCI22).expect("compile");
                let before = session.driver_metrics("GDB").expect("metrics");
                let t = time_mean(reps, || session.run_compiled(&compiled).expect("run"));
                let m = session
                    .driver_metrics("GDB")
                    .expect("metrics")
                    .since(&before);
                Json::obj([
                    ("plan", Json::str(plan)),
                    ("requests", int(m.requests / runs)),
                    ("rows", int(m.rows_shipped / runs)),
                    ("bytes", int(m.bytes_shipped / runs)),
                    ("ms", ms(t)),
                ])
            })
            .collect(),
    )
}

/// E13 / Table T2: ASN.1 path extraction at the driver versus shipping
/// whole entries.
fn t2_path_extraction(smoke: bool) -> Json {
    let (loci, reps) = if smoke { (60, 1) } else { (400, 5) };
    let (mut session, _fed) = latency_federation(loci, Duration::from_micros(200));
    let with_path = session
        .compile_shared(
            r#"flatten(GenBank([db = "na", select = "organism \"Homo sapiens\"",
                          path = "Seq-entry.seq.id..giim"]))"#,
        )
        .expect("compile");
    // The baseline compiles with pushdown off: the path-migration rule
    // would otherwise rewrite it into the pushed form.
    session.set_opt_config(OptConfig {
        enable_pushdown: false,
        ..OptConfig::default()
    });
    let without = session
        .compile_shared(
            r#"{g | \e <- GenBank([db = "na", select = "organism \"Homo sapiens\""]),
               <giim = \g> <- e.seq.id}"#,
        )
        .expect("compile");
    let runs = reps as u64 + 1;
    rows(
        [("path-at-driver", &with_path), ("whole-entries", &without)]
            .into_iter()
            .map(|(plan, compiled)| {
                let before = session.driver_metrics("GenBank").expect("metrics");
                let t = time_mean(reps, || session.run_compiled(compiled).expect("run"));
                let m = session
                    .driver_metrics("GenBank")
                    .expect("metrics")
                    .since(&before);
                Json::obj([
                    ("plan", Json::str(plan)),
                    ("rows", int(m.rows_shipped / runs)),
                    ("bytes", int(m.bytes_shipped / runs)),
                    ("ms", ms(t)),
                ])
            })
            .collect(),
    )
}

/// E3 / Table T3: Rémy projection, directory lookup per record versus the
/// homogeneous fast path (the paper: better than 2x).
fn t3_remy_projection(smoke: bool) -> Json {
    let (records, reps) = if smoke { (20_000, 3) } else { (200_000, 20) };
    rows(
        [4usize, 8, 16, 32]
            .into_iter()
            .map(|fields| {
                let records = remy_rows(records, fields);
                let field = format!("field{}", fields / 2);
                let plain = time_mean(reps, || project_plain(&records, &field));
                let homogeneous = time_mean(reps, || project_cached(&records, &field));
                Json::obj([
                    ("fields", int(fields as u64)),
                    ("plain_ms", ms(plain)),
                    ("homogeneous_ms", ms(homogeneous)),
                    ("speedup", num(ratio(plain, homogeneous))),
                ])
            })
            .collect(),
    )
}

/// E4–E6: the monadic rules, each plan evaluated as written and as
/// optimized by the monadic rule sets alone. Each rule has a floor on
/// its own plan: fusion and promotion never lose, and R2's one scan
/// where there were two keeps 0.6x (ROADMAP item 5: its side condition
/// is open).
fn e4_fusion(smoke: bool) -> Json {
    let (n, reps) = if smoke { (5_000, 2) } else { (100_000, 5) };
    let config = OptConfig {
        enable_pushdown: false,
        enable_joins: false,
        enable_cache: false,
        enable_parallel: false,
        ..OptConfig::default()
    };
    let ctx = Context::new();
    rows(
        [
            ("R1 vertical fusion", vertical_pipeline(n), 1.0),
            ("R2 horizontal fusion", horizontal_pipeline(n / 2), 0.6),
            ("R3 filter promotion (false)", invariant_filter(n, 0), 1.0),
        ]
        .into_iter()
        .map(|(rule, raw, floor)| {
            let optimized =
                kleisli_opt::optimize(raw.clone(), &kleisli_opt::NullCatalog, &config).0;
            let t_raw = time_mean(reps, || eval(&raw, &Env::empty(), &ctx).expect("eval"));
            let t_opt = time_mean(reps, || {
                eval(&optimized, &Env::empty(), &ctx).expect("eval")
            });
            let speedup = ratio(t_raw, t_opt);
            assert!(
                speedup >= floor,
                "{rule}: the optimized plan ran {speedup:.2}x as fast as the plan as written \
                 (floor {floor}x): {t_raw:?} -> {t_opt:?}"
            );
            Json::obj([
                ("rule", Json::str(rule)),
                ("unoptimized_us", us(t_raw)),
                ("optimized_us", us(t_opt)),
                ("speedup", num(speedup)),
            ])
        })
        .collect(),
    )
}

/// E8: the local join operators' crossover, |R| = |S| = n at 10 % key
/// selectivity. The three plans of one n are timed interleaved — naive,
/// blocked, indexed, once each a round, seven rounds after a warm-up
/// round — so a slow stretch of the machine lands on all three alike;
/// each is reported as its median and interquartile range.
fn e8_joins(smoke: bool) -> Json {
    const ROUNDS: usize = 7;
    let sizes: &[i64] = if smoke { &[50, 100] } else { &[100, 400, 1600] };
    let ctx = Context::new();
    let plans = [
        ("naive_nl", None),
        ("blocked_nl", Some(false)),
        ("indexed_nl", Some(true)),
    ];
    let row = |&n: &i64| {
        let (l, r) = join_inputs(n, (n / 10).max(1));
        let plans = plans.map(|(name, keyed)| (name, join_query(l.clone(), r.clone(), keyed)));
        let mut samples = plans.each_ref().map(|_| Vec::with_capacity(ROUNDS));
        for round in 0..=ROUNDS {
            for ((_, plan), times) in plans.iter().zip(&mut samples) {
                let t0 = Instant::now();
                std::hint::black_box(eval(plan, &Env::empty(), &ctx).expect("eval"));
                if round > 0 {
                    times.push(t0.elapsed());
                }
            }
        }
        let mut fields = vec![("n".to_string(), int(n as u64))];
        for ((name, _), mut times) in plans.into_iter().zip(samples) {
            times.sort();
            let at = |p| percentile(&times, p).expect("a sample");
            fields.push((format!("{name}_ms"), ms(at(50.0))));
            fields.push((format!("{name}_iqr_ms"), ms(at(75.0) - at(25.0))));
        }
        Json::obj(fields)
    };
    rows(sizes.iter().map(row).collect())
}

/// E9: caching the outer-independent inner subquery. The cached plan
/// ships at most a tenth of the uncached plan's requests and runs at
/// least 4x as fast.
fn e9_caching(smoke: bool) -> Json {
    let (loci, per_request) = if smoke { (20, 100) } else { (60, 500) };
    let (mut session, _fed) = latency_federation(loci, Duration::from_micros(per_request));
    let reps = 3;
    let runs = reps as u64 + 1; // the warm-up run ships too
    let [cached, uncached] = [true, false].map(|enable_cache| {
        session.set_opt_config(OptConfig {
            enable_pushdown: false,
            enable_joins: false,
            enable_parallel: false,
            enable_cache,
            ..OptConfig::default()
        });
        let compiled = session.compile_shared(CACHEABLE).expect("compile");
        let before = session.driver_metrics("GDB").expect("metrics");
        let t = time_mean(reps, || session.run_compiled(&compiled).expect("run"));
        (
            session
                .driver_metrics("GDB")
                .expect("metrics")
                .since(&before)
                .requests
                / runs,
            t,
        )
    });
    let speedup = ratio(uncached.1, cached.1);
    assert!(
        cached.0 * 10 <= uncached.0 && speedup >= 4.0,
        "caching lost its win: {} -> {} requests, {speedup:.2}x",
        uncached.0,
        cached.0
    );
    rows(
        [("cached", cached), ("uncached", uncached)]
            .into_iter()
            .map(|(plan, (requests, t))| {
                Json::obj([
                    ("plan", Json::str(plan)),
                    ("requests", int(requests)),
                    ("ms", ms(t)),
                ])
            })
            .collect(),
    )
}

/// E10: time to the first ten rows of a remote scan versus its full
/// materialization.
fn e10_laziness(smoke: bool) -> Json {
    let (loci, reps) = if smoke { (1_000, 1) } else { (20_000, 3) };
    let (session, _fed) =
        latency_federation_rows(loci, Duration::from_micros(100), Duration::from_micros(20));
    let scan = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;
    let compiled = session.compile_shared(scan).expect("compile");
    let first_10 = How {
        limit: Some(10),
        ..How::default()
    };
    let first = time_mean(reps, || {
        session
            .start(&compiled, first_10.clone())
            .wait()
            .expect("query")
    });
    let full = time_mean(reps, || session.run_compiled(&compiled).expect("run"));
    Json::obj([
        ("scan_rows", int(loci as u64)),
        ("first_10_rows_ms", ms(first)),
        ("full_materialization_ms", ms(full)),
        ("advantage", num(ratio(full, first))),
    ])
}

/// E11: bounded-concurrency retrieval — per-element link lookups at K
/// requests in flight, saturating at the server's cap of 5. Batching is
/// ablated with caching: it would answer every uid in one request and
/// leave nothing for K to overlap. Five in flight run at least 2.5x as
/// fast as one.
fn e11_concurrency(smoke: bool) -> Json {
    let (uids, per_request, widths): (_, _, &[usize]) = if smoke {
        (10, 1, &[1, 5])
    } else {
        (40, 5, &[1, 2, 5, 10])
    };
    let (mut session, fed) = latency_federation(60, Duration::from_millis(per_request));
    bind_uids(&mut session, &fed, uids);
    session.set_opt_config(OptConfig {
        enable_cache: false,
        enable_batching: false,
        ..OptConfig::default()
    });
    let compiled = session.compile_shared(CONCURRENCY).expect("compile");
    let mut sequential = None;
    rows(
        widths
            .iter()
            .map(|&k| {
                let mut at_k = Compiled::clone(&compiled);
                at_k.optimized = set_par_width(&compiled.optimized, k);
                let at_k = Arc::new(at_k);
                let t = time_mean(3, || session.run_compiled(&at_k).expect("run"));
                let speedup = ratio(*sequential.get_or_insert(t), t);
                assert!(
                    k != 5 || speedup >= 2.5,
                    "five requests in flight ran only {speedup:.2}x as fast as one"
                );
                Json::obj([
                    ("k", int(k as u64)),
                    ("ms", ms(t)),
                    ("speedup", num(speedup)),
                ])
            })
            .collect(),
    )
}

// ------------------------------------------------------------------------
// The optimizer's engine.
// ------------------------------------------------------------------------

/// The sharing-preserving fixpoint: a rewriting run, a run over the
/// normalized plan — which must hand back the very `Arc` it was given —
/// and stream construction to the first row, which clones no body.
fn sharing_fixpoint(smoke: bool) -> Json {
    let (depth, reps) = if smoke { (6, 5) } else { (10, 50) };
    let plan = Arc::new(deep_comprehension(depth, 4));
    let rewriting = time_mean(reps, || fixpoint(Arc::clone(&plan), true));
    // Resolve and monadic feed each other; a few rounds settle them.
    let mut normalized = fixpoint(Arc::clone(&plan), true);
    for _ in 0..kleisli_opt::MAX_PASSES {
        let again = fixpoint(Arc::clone(&normalized), true);
        if Arc::ptr_eq(&again, &normalized) {
            break;
        }
        normalized = again;
    }
    assert!(
        Arc::ptr_eq(&fixpoint(Arc::clone(&normalized), true), &normalized),
        "a pass in which no rule fires must return the plan it was given"
    );
    let noop = time_mean(reps, || fixpoint(Arc::clone(&normalized), true));
    let first_row = time_mean(reps, || stream_first(&plan));
    Json::obj([
        ("plan_depth", int(depth as u64)),
        ("plan_nodes", int(plan.size() as u64)),
        ("fixpoint_us", us(rewriting)),
        ("noop_fixpoint_us", us(noop)),
        ("stream_first_row_us", us(first_row)),
    ])
}

/// The rewrite memo: one deep subtree shared by many parents, rewritten
/// once per fixpoint versus once per occurrence (the engine's unmemoized
/// reference entry point).
fn memoized_fixpoint(smoke: bool) -> Json {
    let (copies, depth, reps) = if smoke { (8, 4, 3) } else { (32, 6, 20) };
    let plan = shared_subtree_plan(copies, depth, 4);
    assert_eq!(
        fixpoint(Arc::clone(&plan), true).size(),
        fixpoint(Arc::clone(&plan), false).size(),
        "the memo must not change the plan"
    );
    let memoized = time_mean(reps, || fixpoint(Arc::clone(&plan), true));
    let unmemoized = time_mean(reps, || fixpoint(Arc::clone(&plan), false));
    Json::obj([
        ("shared_copies", int(copies as u64)),
        ("unfolded_nodes", int(plan.size() as u64)),
        ("unmemoized_us", us(unmemoized)),
        ("memoized_us", us(memoized)),
        ("speedup", num(ratio(unmemoized, memoized))),
    ])
}

// ------------------------------------------------------------------------
// Resilience, against a fault-injecting `SlowDriver`.
// ------------------------------------------------------------------------

const SCAN: &str = r#"{x.n | \x <- SRC([class = "any"])}"#;

/// A fresh session over a fresh 4-row, 2 ms `SlowDriver` advertising
/// `policy`.
fn resilient_session(policy: ResiliencePolicy) -> (Session, Arc<SlowDriver>) {
    let driver = SlowDriver::new("SRC", 4, Duration::from_millis(2), 4);
    driver.set_resilience(policy);
    let mut session = Session::new();
    session.register_driver(driver.clone());
    (session, driver)
}

/// Breaker fail-fast: the source stops answering and every query burns
/// its 30 ms deadline; with a breaker the first two timeouts trip it and
/// the rest fail in microseconds.
fn breaker_fail_fast(smoke: bool) -> Json {
    let queries = if smoke { 5 } else { 6 };
    let deadline = Duration::from_millis(30);
    let run = |breaker: Option<BreakerPolicy>| {
        let (session, driver) = resilient_session(ResiliencePolicy {
            breaker,
            ..ResiliencePolicy::default()
        });
        driver.set_fault(Fault::NeverRespond);
        let compiled = session.compile_shared(SCAN).expect("compile");
        let within = How {
            deadline: Some(deadline),
            ..How::default()
        };
        let total = time_best_of(1, || {
            for _ in 0..queries {
                session
                    .start(&compiled, within.clone())
                    .wait()
                    .expect_err("the source is dead");
            }
        });
        driver.release_wedged();
        (total, session.driver_metrics("SRC").expect("metrics"))
    };
    let (without, _) = run(None);
    let (with, metrics) = run(Some(BreakerPolicy {
        failure_threshold: 2,
        cooldown: Duration::from_secs(5),
    }));
    assert!(
        with < without,
        "the breaker must fail faster than burning every deadline: {with:?} vs {without:?}"
    );
    assert!(
        metrics.breaker_opens >= 1,
        "the breaker never opened: {metrics:?}"
    );
    Json::obj([
        ("queries", int(queries)),
        ("deadline_ms", ms(deadline)),
        ("without_breaker_total_ms", ms(without)),
        ("with_breaker_total_ms", ms(with)),
        ("breaker_opens", int(metrics.breaker_opens)),
        ("fail_fast_speedup", num(ratio(without, with))),
    ])
}

// ------------------------------------------------------------------------
// The block pull protocol.
// ------------------------------------------------------------------------

const PER_REQUEST: Duration = Duration::from_millis(2);
const PER_ROW: Duration = Duration::from_millis(1);

/// Drain through the grain-1 row view — the single-row protocol.
fn run_rows(ctx: &Arc<Context>, plan: &Expr, kind: CollKind) -> Value {
    collect_stream(eval_stream(plan, &Env::empty(), ctx).expect("stream"), kind).expect("collect")
}

/// Drain at the full block grain — the batched path.
fn run_blocks(ctx: &Arc<Context>, plan: &Expr, kind: CollKind) -> Value {
    collect_blocks(eval_blocks(plan, &Env::empty(), ctx).expect("blocks"), kind).expect("collect")
}

/// Row-heavy scans: a union of six remote scans over three `SlowDriver`s
/// with real slept per-row latency, fully lazy at grain 1
/// (`prefetch_rows = 0`: the single-row protocol) versus the block
/// pipeline (pool workers prefetch whole `ValueBlock`s, the consumer
/// drains at full grain). The lazy side is also the fully-lazy guard: it
/// must equal the reference interpreter's answer, prefetch nothing and
/// ship no block through the prefetch buffer.
fn row_heavy_scans(smoke: bool) -> Json {
    // Six arms on three drivers of two workers each: the row-transfer
    // win is ~6x in theory; the full floor guards PR 6's 3.9x mark.
    let (rows, reps, floor) = if smoke { (16, 2, 1.3) } else { (48, 3, 3.9) };
    let workload = |prefetch| row_pipeline_workload(3, 2, rows, PER_REQUEST, PER_ROW, prefetch);
    let (lazy_ctx, lazy_plan, lazy_drivers) = workload(0);
    let (pre_ctx, pre_plan, pre_drivers) = workload(rows as usize);
    let lazy_result = run_rows(&lazy_ctx, &lazy_plan, CollKind::Set);
    assert_eq!(
        lazy_result,
        run_blocks(&pre_ctx, &pre_plan, CollKind::Set),
        "block prefetch must not change the answer"
    );
    assert_eq!(
        lazy_result,
        reference::eval(&lazy_plan, &Env::empty(), &lazy_ctx).expect("reference"),
        "prefetch_rows = 0 must stay byte-identical to the reference answer"
    );
    let lazy = time_best_of(reps, || run_rows(&lazy_ctx, &lazy_plan, CollKind::Set));
    let pipelined = time_best_of(reps, || run_blocks(&pre_ctx, &pre_plan, CollKind::Set));
    let speedup = ratio(lazy, pipelined);
    assert!(
        speedup >= floor,
        "block pipelining lost the row-heavy-scan win (got {speedup:.2}x, floor {floor}: \
         lazy {lazy:?}, pipelined {pipelined:?})"
    );
    let traffic = |drivers: &[Arc<SlowDriver>]| {
        drivers.iter().map(|d| d.counters().snapshot()).fold(
            (0, 0, 0),
            |(prefetched, pulled, blocks), m| {
                (
                    prefetched + m.rows_prefetched,
                    pulled + m.rows_pulled,
                    blocks + m.blocks_shipped,
                )
            },
        )
    };
    let (prefetched, pulled, blocks_shipped) = traffic(&pre_drivers);
    assert!(
        blocks_shipped > 0,
        "the pipelined run must ship its rows in blocks"
    );
    let (lazy_prefetched, _, lazy_blocks) = traffic(&lazy_drivers);
    assert_eq!(
        (lazy_prefetched, lazy_blocks),
        (0, 0),
        "prefetch_rows = 0 must prefetch nothing and bypass the block buffer"
    );
    Json::obj([
        ("rows_per_scan", int(rows as u64)),
        ("lazy_ms", ms(lazy)),
        ("pipelined_ms", ms(pipelined)),
        ("speedup", num(speedup)),
        ("rows_prefetched", int(prefetched)),
        ("rows_pulled", int(pulled)),
        ("blocks_shipped", int(blocks_shipped)),
    ])
}

/// Window below result: a record of three row-heavy scans, one driver
/// each, whose tables are 3x the advertised prefetch window. Strict
/// siblings start together and a value-position scan is a full fetch
/// (`kleisli_exec::eval` module docs), so the record costs about one
/// scan; `serial_sum_ms` is each scan evaluated alone in the same run,
/// summed — there is no switch that turns the overlap off.
fn window_below_result(smoke: bool) -> Json {
    let (window, reps) = if smoke { (8, 2) } else { (24, 3) };
    let mut ctx = Context::new();
    let scans: Vec<Expr> = (0..3)
        .map(|i| {
            let name = format!("W{i}");
            ctx.register_driver(SlowDriver::pipelined(
                &name,
                3 * window as i64,
                PER_REQUEST,
                PER_ROW,
                2,
                window,
            ));
            Expr::Remote {
                driver: nrc::name(&name),
                request: DriverRequest::TableScan {
                    table: "t".into(),
                    columns: None,
                },
            }
        })
        .collect();
    let run = |plan: &Expr| eval(plan, &Env::empty(), &ctx).expect("eval");
    let serial_sum: Duration = scans
        .iter()
        .map(|scan| time_best_of(reps, || run(scan)))
        .sum();
    let fields = ["a", "b", "c"];
    let record = Expr::record(fields.into_iter().zip(scans.iter().cloned()));
    let value = run(&record);
    for (field, scan) in fields.iter().zip(&scans) {
        assert_eq!(value.project(field), Some(&run(scan)), "field {field}");
    }
    let overlapped = time_best_of(reps, || run(&record));
    // Three equal scans overlapped cost about one: a third of the sum.
    assert!(
        ratio(overlapped, serial_sum) < 0.6,
        "sibling scans stopped overlapping (record {overlapped:?}, \
         the three scans one by one {serial_sum:?})"
    );
    Json::obj([
        ("rows_per_scan", int(3 * window as u64)),
        ("prefetch_rows", int(window as u64)),
        ("serial_sum_ms", ms(serial_sum)),
        ("overlapped_ms", ms(overlapped)),
        ("speedup", num(ratio(serial_sum, overlapped))),
    ])
}

/// One pure-CPU plan drained through the grain-1 row view and at the
/// full `DEFAULT_BLOCK_ROWS` grain: identical answers, and the block
/// grain at least `floor` times as fast.
fn grain_comparison(plan: &Expr, rows: i64, floor: f64) -> Json {
    let ctx = Arc::new(Context::new());
    assert_eq!(
        run_rows(&ctx, plan, CollKind::List),
        run_blocks(&ctx, plan, CollKind::List),
        "grain must not change the answer"
    );
    let grain1 = time_best_of(3, || run_rows(&ctx, plan, CollKind::List));
    let blocks = time_best_of(3, || run_blocks(&ctx, plan, CollKind::List));
    let speedup = ratio(grain1, blocks);
    assert!(
        speedup >= floor,
        "the block grain lost its pure-CPU standing (got {speedup:.2}x, floor {floor}: \
         grain-1 {grain1:?}, blocks {blocks:?})"
    );
    Json::obj([
        ("rows", int(rows as u64)),
        ("grain1_ms", ms(grain1)),
        ("blocks_ms", ms(blocks)),
        ("speedup", num(speedup)),
    ])
}

fn cpu_rows(smoke: bool) -> i64 {
    if smoke {
        50_000
    } else {
        400_000
    }
}

/// CPU block drain: a materialized list streamed through the pull
/// protocol with no evaluation per row, so the cost *is* the protocol —
/// one `ValueBlock` per row versus one per 64.
fn cpu_block_drain(smoke: bool) -> Json {
    let rows = cpu_rows(smoke);
    let plan = Expr::Const(Value::list((0..rows).map(Value::Int).collect()));
    grain_comparison(&plan, rows, if smoke { 1.0 } else { 1.5 })
}

/// CPU fused filter/project: `x % 4 = 0 -> x * 3` over an in-memory
/// scan, the shape the batched generator evaluates in one pass per
/// block. Per-row body evaluation dominates, so the floor is only that
/// batching never loses (the margin absorbs runner noise).
fn cpu_fused_filter_project(smoke: bool) -> Json {
    let rows = cpu_rows(smoke);
    let x = || Expr::var("x");
    let plan = Expr::ext(
        CollKind::List,
        "x",
        Expr::if_(
            Expr::eq(Expr::prim(Prim::Mod, vec![x(), Expr::int(4)]), Expr::int(0)),
            Expr::single(
                CollKind::List,
                Expr::prim(Prim::Mul, vec![x(), Expr::int(3)]),
            ),
            Expr::Empty(CollKind::List),
        ),
        Expr::Const(Value::list((0..rows).map(Value::Int).collect())),
    );
    grain_comparison(&plan, rows, 0.9)
}

// ------------------------------------------------------------------------
// kleislid over loopback sockets.
// ------------------------------------------------------------------------

const SERVED_QUERY: &str = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;

/// A fresh kleislid over the two-source federation at `latency` per
/// driver request (30 ms ≈ a mid-90s WAN round-trip to GDB/GenBank;
/// the smoke run uses 4 ms).
fn serve(smoke: bool) -> (kleisli_server::ServerHandle, Duration) {
    let latency = Duration::from_millis(if smoke { 4 } else { 30 });
    let (_, fed) = latency_federation(200, latency);
    let server = serve_ephemeral(
        ServerConfig::default(),
        Arc::new(move |session: &mut Session| {
            session.register_driver(fed.gdb.clone());
            session.register_driver(fed.genbank.clone());
        }),
    )
    .expect("serve");
    (server, latency)
}

/// Every latency of `sessions` concurrent clients each repeating the
/// (already cached) query `reps` times, ascending.
fn warm_latencies(addr: std::net::SocketAddr, sessions: usize, reps: usize) -> Vec<Duration> {
    let barrier = Barrier::new(sessions);
    let mut all: Vec<Duration> = thread::scope(|scope| {
        let clients: Vec<_> = (0..sessions)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    latencies(reps, || {
                        let (_, served) = client
                            .query(SERVED_QUERY)
                            .expect("query")
                            .into_value()
                            .expect("value");
                        assert_eq!(served, ServedFrom::SharedCache, "the warm loop must hit");
                    })
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread"))
            .collect()
    });
    all.sort();
    all
}

/// Slow-client isolation: eight tenants run a warm loop; then one of
/// them pipelines 16 queries and stops reading while the other seven
/// repeat the loop. The stalled reader's frames pile up in *its own*
/// bounded writer queue (well under the bound, so it stalls for the whole
/// phase instead of being condemned), and the healthy tenants' warm p50
/// must not move by more than the ceiling.
fn slow_client(smoke: bool) -> Json {
    let (reps, ceiling) = if smoke { (5, 2.0) } else { (20, 1.2) };
    let (sessions, stalled_queries) = (8, 16);
    let (server, _) = serve(smoke);
    // Warm the shared caches so both phases measure the cached path: the
    // result cache keeps a result asked for twice.
    let mut primer = Client::connect(server.addr()).expect("connect");
    for _ in 0..2 {
        primer
            .query(SERVED_QUERY)
            .expect("query")
            .into_value()
            .expect("value");
    }
    drop(primer);
    let baseline = p50(&warm_latencies(server.addr(), sessions, reps));

    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("connect stalled");
    stalled.set_nodelay(true).ok();
    for id in 1..=stalled_queries {
        let query = Request::Query {
            id,
            src: SERVED_QUERY.to_string(),
        };
        write_frame(&mut stalled, &encode_request(&query)).expect("pipeline unread query");
    }
    thread::sleep(Duration::from_millis(20));
    let faulted = p50(&warm_latencies(server.addr(), sessions - 1, reps));
    drop(stalled);
    server.shutdown();

    let moved = ratio(faulted, baseline);
    assert!(
        moved <= ceiling,
        "one stalled reader among {sessions} sessions moved the healthy warm p50 \
         {moved:.2}x (ceiling {ceiling}x): baseline {baseline:?}, faulted {faulted:?}"
    );
    Json::obj([
        ("sessions", int(sessions as u64)),
        ("pipelined_unread_queries", int(stalled_queries)),
        ("baseline_warm_p50_us", us(baseline)),
        ("faulted_warm_p50_us", us(faulted)),
        ("p50_ratio", num(moved)),
        ("ratio_ceiling", num(ceiling)),
    ])
}

/// Drain: a graceful shutdown issued with one fresh (one federation
/// round-trip) query mid-flight must finish it inside the drain deadline,
/// and within 10 ms of the query's own latency: the readers are woken,
/// not polled, so the stop waits on no clock tick.
fn drain(smoke: bool) -> Json {
    let (server, latency) = serve(smoke);
    let mut client = Client::connect(server.addr()).expect("connect");
    let id = client.send_query(SERVED_QUERY).expect("send");
    // The reader answers frames in order, so the query is admitted once
    // STATS is answered (else the drain would refuse it and time an empty
    // server); then let it reach the driver.
    client.stats().expect("stats");
    thread::sleep(latency / 3);
    let report = server.shutdown();
    assert!(
        report.drained,
        "the single in-flight query must finish inside the {DRAIN_DEADLINE:?} drain deadline"
    );
    match client.wait_reply(id).expect("the drained query's reply") {
        QueryReply::Value { .. } => {}
        other => panic!("the drained query was not answered: {other:?}"),
    }
    let ceiling = latency + Duration::from_millis(10);
    assert!(
        report.elapsed <= ceiling,
        "the drain took {:?} for a query of {latency:?} (ceiling {ceiling:?})",
        report.elapsed
    );
    Json::obj([
        ("in_flight_queries", int(1)),
        ("driver_latency_ms", ms(latency)),
        ("elapsed_ms", ms(report.elapsed)),
        ("deadline_ms", ms(DRAIN_DEADLINE)),
    ])
}
