//! Measure the block-pull protocol win and record it in
//! `BENCH_blocks.json` at the repo root:
//!
//! ```sh
//! cargo run -p bench-harness --bin blocks_report --release
//! cargo run -p bench-harness --bin blocks_report --release -- --smoke
//! ```
//!
//! Four experiments:
//!
//! * **row-heavy scans** — the row-pipeline workload (a union of remote
//!   scans over `SlowDriver`s with *real* slept per-row transfer
//!   latency), lazy single-row baseline (`prefetch_rows = 0`, grain-1
//!   pulls: exactly the pre-block protocol) versus the block pipeline
//!   (pool workers prefetch whole `ValueBlock`s, one condvar wake per
//!   block, the consumer drains at full grain). Results asserted
//!   identical.
//! * **window below result** — a record of three row-heavy scans whose
//!   tables are 3x the advertised prefetch window, real per-row sleeps.
//!   Strict siblings start together and a value-position scan is a full
//!   fetch (`kleisli_exec::eval` module docs), so the record costs about
//!   one scan; `serial_sum_ms` is each scan evaluated alone in the same
//!   run, summed (there is no switch that turns the overlap off).
//!   `row_heavy_scans` above sets the window equal to the scan and never
//!   sees a worker park behind its window.
//! * **cpu block drain** — pure CPU, no sleeps: a materialized list
//!   streamed through the pull protocol, grain-1 view (one `ValueBlock`
//!   per row — the single-row protocol's cost shape) versus the full
//!   `DEFAULT_BLOCK_ROWS` grain (one allocation per 64 rows). This
//!   isolates what batching buys with latency out of the picture. A
//!   second pure-CPU measurement runs the fused filter/project
//!   generator at both grains; per-row body evaluation dominates there,
//!   so the guard is only that batching never loses.
//! * **fully-lazy guard** — `prefetch_rows = 0` must stay byte-identical
//!   to the reference interpreter's answer (`kleisli_exec::reference`;
//!   the JSON key keeps its historical name, `byte_identical_to_eager`),
//!   prefetch nothing, and ship zero blocks
//!   through the prefetch buffer: clamped-to-0 *is* the single-row
//!   protocol.
//!
//! `--smoke` shrinks the workloads and loosens the floors for CI runners.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::row_pipeline_workload;
use kleisli_core::testutil::SlowDriver;
use kleisli_core::{CollKind, DriverRequest, Value};
use kleisli_exec::{
    collect_blocks, collect_stream, eval, eval_blocks, eval_stream, reference, Context, Env,
};
use nrc::{Expr, Prim};

fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drain through the grain-1 row view — the single-row baseline.
fn run_rows(ctx: &Arc<Context>, plan: &Expr, kind: CollKind) -> Value {
    collect_stream(eval_stream(plan, &Env::empty(), ctx).expect("stream"), kind).expect("collect")
}

/// Drain at the full block grain — the batched path.
fn run_blocks(ctx: &Arc<Context>, plan: &Expr, kind: CollKind) -> Value {
    collect_blocks(eval_blocks(plan, &Env::empty(), ctx).expect("blocks"), kind).expect("collect")
}

/// Transport-only pure-CPU workload: stream a materialized list through
/// the pull protocol — no evaluation per row at all, so the cost *is*
/// the protocol (one block per pull versus one block per row).
fn drain_plan(n: i64) -> Expr {
    Expr::Const(Value::list((0..n).map(Value::Int).collect()))
}

/// Fused filter/projection over an in-memory scan — the shape the
/// batched generator evaluates in one pass per block. Per-row body
/// evaluation dominates here; the guard is that batching never loses.
fn fused_plan(n: i64) -> Expr {
    Expr::ext(
        CollKind::List,
        "x",
        Expr::if_(
            Expr::eq(
                Expr::prim(Prim::Mod, vec![Expr::var("x"), Expr::int(4)]),
                Expr::int(0),
            ),
            Expr::single(
                CollKind::List,
                Expr::prim(Prim::Mul, vec![Expr::var("x"), Expr::int(3)]),
            ),
            Expr::Empty(CollKind::List),
        ),
        Expr::Const(Value::list((0..n).map(Value::Int).collect())),
    )
}

/// The `window_below_result` scenario: `(serial_sum, overlapped)` for a
/// record of three scans of `3 * window` rows each, one driver per scan.
fn window_below_result(
    window: usize,
    per_request: Duration,
    per_row: Duration,
    reps: usize,
) -> (Duration, Duration) {
    let rows = 3 * window as i64;
    let mut ctx = Context::new();
    let scans: Vec<Expr> = (0..3)
        .map(|i| {
            let name = format!("W{i}");
            ctx.register_driver(SlowDriver::pipelined(
                &name,
                rows,
                per_request,
                per_row,
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
    let serial_sum = scans
        .iter()
        .map(|scan| time_best_of(reps, || run(scan)))
        .sum();
    let record = Expr::record(vec![
        ("a", scans[0].clone()),
        ("b", scans[1].clone()),
        ("c", scans[2].clone()),
    ]);
    let value = run(&record);
    for (field, scan) in ["a", "b", "c"].iter().zip(&scans) {
        assert_eq!(value.project(field), Some(&run(scan)), "field {field}");
    }
    (serial_sum, time_best_of(reps, || run(&record)))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rows, per_row_us, reps, floor, cpu_rows, cpu_floor) = if smoke {
        (16i64, 1000u64, 2usize, 1.3f64, 50_000i64, 1.0f64)
    } else {
        (48, 1000, 3, 3.9, 400_000, 1.5)
    };
    const DRIVERS: usize = 3;
    const ARMS_PER_DRIVER: usize = 2;
    let per_request = Duration::from_millis(2);
    let per_row = Duration::from_micros(per_row_us);

    // --- row-heavy scans: single-row lazy vs block pipeline -------------
    let (lazy_ctx, lazy_plan, _) =
        row_pipeline_workload(DRIVERS, ARMS_PER_DRIVER, rows, per_request, per_row, 0);
    let (pre_ctx, pre_plan, pre_drivers) = row_pipeline_workload(
        DRIVERS,
        ARMS_PER_DRIVER,
        rows,
        per_request,
        per_row,
        rows as usize,
    );

    let lazy_result = run_rows(&lazy_ctx, &lazy_plan, CollKind::Set);
    let pre_result = run_blocks(&pre_ctx, &pre_plan, CollKind::Set);
    assert_eq!(
        lazy_result, pre_result,
        "block prefetch must not change the answer"
    );

    let lazy = time_best_of(reps, || run_rows(&lazy_ctx, &lazy_plan, CollKind::Set));
    let pipelined = time_best_of(reps, || run_blocks(&pre_ctx, &pre_plan, CollKind::Set));
    let speedup = ms(lazy) / ms(pipelined);
    // 6 arms across 3 drivers (2 pool workers each): the theoretical
    // row-transfer win is ~6x; the floor guards the PR-6 3.9x mark.
    assert!(
        speedup >= floor,
        "block pipelining lost the row-heavy-scan win (got {speedup:.2}x, \
         floor {floor}: lazy {lazy:?}, pipelined {pipelined:?})"
    );
    let (prefetched, pulled, blocks_shipped) = pre_drivers
        .iter()
        .map(|d| d.counters().snapshot())
        .fold((0u64, 0u64, 0u64), |acc, m| {
            (
                acc.0 + m.rows_prefetched,
                acc.1 + m.rows_pulled,
                acc.2 + m.blocks_shipped,
            )
        });
    assert!(
        blocks_shipped > 0,
        "the pipelined run must ship its rows in blocks"
    );

    // --- window below result: three scans, each 3x its window ------------
    let window = rows as usize / 2;
    let (serial_sum, overlapped) = window_below_result(window, per_request, per_row, reps);
    let overlap_ratio = ms(overlapped) / ms(serial_sum);
    // Three equal scans overlapped cost about one: a third of the sum.
    assert!(
        overlap_ratio < 0.6,
        "sibling scans stopped overlapping (record {overlapped:?},          the three scans one by one {serial_sum:?})"
    );

    // --- cpu block drain: grain-1 view vs full-grain batches ------------
    let cpu_ctx = Arc::new(Context::new());
    let cpu_reps = reps.max(3);

    let drain = drain_plan(cpu_rows);
    let drain_rows_v = run_rows(&cpu_ctx, &drain, CollKind::List);
    let drain_blocks_v = run_blocks(&cpu_ctx, &drain, CollKind::List);
    assert_eq!(drain_rows_v, drain_blocks_v, "grain must not change the answer");
    let drain_rows_t = time_best_of(cpu_reps, || run_rows(&cpu_ctx, &drain, CollKind::List));
    let drain_blocks_t = time_best_of(cpu_reps, || run_blocks(&cpu_ctx, &drain, CollKind::List));
    let cpu_speedup = ms(drain_rows_t) / ms(drain_blocks_t);
    assert!(
        cpu_speedup >= cpu_floor,
        "batched drain lost its pure-CPU win (got {cpu_speedup:.2}x, floor {cpu_floor}: \
         grain-1 {drain_rows_t:?}, blocks {drain_blocks_t:?})"
    );

    let fused = fused_plan(cpu_rows);
    let fused_rows_v = run_rows(&cpu_ctx, &fused, CollKind::List);
    let fused_blocks_v = run_blocks(&cpu_ctx, &fused, CollKind::List);
    assert_eq!(fused_rows_v, fused_blocks_v, "grain must not change the answer");
    let fused_rows_t = time_best_of(cpu_reps, || run_rows(&cpu_ctx, &fused, CollKind::List));
    let fused_blocks_t = time_best_of(cpu_reps, || run_blocks(&cpu_ctx, &fused, CollKind::List));
    let fused_speedup = ms(fused_rows_t) / ms(fused_blocks_t);
    // Per-row body evaluation dominates this one; batching must simply
    // never lose (the margin absorbs runner noise).
    assert!(
        fused_speedup >= 0.9,
        "fused batch evaluation became a pessimization (got {fused_speedup:.2}x: \
         grain-1 {fused_rows_t:?}, blocks {fused_blocks_t:?})"
    );

    // --- fully-lazy guard: prefetch 0 is the single-row protocol --------
    let (guard_ctx, guard_plan, guard_drivers) =
        row_pipeline_workload(DRIVERS, ARMS_PER_DRIVER, rows, per_request, per_row, 0);
    let streamed = run_rows(&guard_ctx, &guard_plan, CollKind::Set);
    let expected = reference::eval(&guard_plan, &Env::empty(), &guard_ctx).expect("reference");
    assert_eq!(
        streamed, expected,
        "prefetch_rows = 0 must stay byte-identical"
    );
    let (guard_prefetched, guard_blocks) = guard_drivers
        .iter()
        .map(|d| d.counters().snapshot())
        .fold((0u64, 0u64), |acc, m| {
            (acc.0 + m.rows_prefetched, acc.1 + m.blocks_shipped)
        });
    assert_eq!(guard_prefetched, 0, "prefetch_rows = 0 must prefetch nothing");
    assert_eq!(
        guard_blocks, 0,
        "prefetch_rows = 0 must bypass the block buffer entirely"
    );

    let total_rows = rows as usize * DRIVERS * ARMS_PER_DRIVER;
    let json = format!(
        r#"{{
  "bench": "blocks",
  "description": "Block pull protocol: drivers ship ValueBlocks, the pool prefetches and wakes per block, and the executor drains fused filter/project batches, versus the single-row grain-1 baseline (byte-identical by construction). Row-heavy scans overlap real per-row transfer latency across union arms; the cpu section isolates the pure-CPU batching win with no sleeps; prefetch_rows = 0 stays byte-identical to the eager answer with zero rows prefetched and zero blocks shipped.",
  "command": "cargo run -p bench-harness --bin blocks_report --release",
  "smoke": {smoke},
  "row_heavy_scans": {{
    "workload": "union of {arms} remote scans across {drivers} drivers, {rows} rows per scan ({total_rows} rows), {per_row_us} us per row + {per_request_ms} ms per request (real sleeps)",
    "prefetch_rows": {rows},
    "lazy_ms": {lazy:.2},
    "pipelined_ms": {pipelined:.2},
    "speedup": {speedup:.2},
    "rows_prefetched": {prefetched},
    "rows_pulled": {pulled},
    "blocks_shipped": {blocks_shipped}
  }},
  "window_below_result": {{
    "workload": "record of 3 remote scans on 3 drivers, {window_rows} rows per scan behind a {window}-row prefetch window, {per_row_us} us per row + {per_request_ms} ms per request (real sleeps)",
    "prefetch_rows": {window},
    "serial_sum_ms": {serial_sum:.2},
    "overlapped_ms": {overlapped:.2},
    "speedup": {overlap_speedup:.2}
  }},
  "cpu_block_drain": {{
    "workload": "stream drain of a materialized list of {cpu_rows} rows, no latency, no per-row evaluation",
    "grain1_ms": {drain_rows_ms:.2},
    "blocks_ms": {drain_blocks_ms:.2},
    "speedup": {cpu_speedup:.2}
  }},
  "cpu_fused_filter_project": {{
    "workload": "fused filter/project (x % 4 = 0 -> x * 3) over an in-memory scan of {cpu_rows} rows, no latency",
    "grain1_ms": {fused_rows_ms:.2},
    "blocks_ms": {fused_blocks_ms:.2},
    "speedup": {fused_speedup:.2}
  }},
  "fully_lazy_guard": {{
    "prefetch_rows": 0,
    "byte_identical_to_eager": true,
    "rows_prefetched": 0,
    "blocks_shipped": 0
  }}
}}
"#,
        arms = DRIVERS * ARMS_PER_DRIVER,
        drivers = DRIVERS,
        per_request_ms = per_request.as_millis(),
        lazy = ms(lazy),
        pipelined = ms(pipelined),
        window_rows = 3 * window,
        serial_sum = ms(serial_sum),
        overlapped = ms(overlapped),
        overlap_speedup = 1.0 / overlap_ratio,
        drain_rows_ms = ms(drain_rows_t),
        drain_blocks_ms = ms(drain_blocks_t),
        fused_rows_ms = ms(fused_rows_t),
        fused_blocks_ms = ms(fused_blocks_t),
    );
    std::fs::write("BENCH_blocks.json", &json).expect("write BENCH_blocks.json");
    println!("{json}");
    println!(
        "row-heavy scans: lazy {:.2} ms, block-pipelined {:.2} ms ({speedup:.2}x); \
         window below result: one by one {:.2} ms, record {:.2} ms; \
         cpu drain: grain-1 {:.2} ms, blocks {:.2} ms ({cpu_speedup:.2}x); \
         fused filter/project {fused_speedup:.2}x",
        ms(lazy),
        ms(pipelined),
        ms(serial_sum),
        ms(overlapped),
        ms(drain_rows_t),
        ms(drain_blocks_t),
    );
}
