//! Measure the row-pipelined execution win and record it in
//! `BENCH_row_pipeline.json` at the repo root:
//!
//! ```sh
//! cargo run -p bench-harness --bin row_pipeline_report --release
//! cargo run -p bench-harness --bin row_pipeline_report --release -- --smoke
//! ```
//!
//! Two experiments over `SlowDriver`s with *real* (slept) per-row
//! transfer latency:
//!
//! * **row-heavy scans** — a union of four remote scans (two drivers,
//!   two arms each) where every row costs real transfer time. The lazy
//!   baseline (`prefetch_rows = 0`, exactly the PR-3 behavior: requests
//!   overlap at submission, rows ship on the consumer's clock) pays the
//!   sum of all arms' row transfers; the pipelined run advertises a
//!   prefetch depth covering the result, so each driver's pool workers
//!   pull their arms' rows concurrently and elapsed time approaches one
//!   arm's transfer. Results are asserted identical.
//! * **fully-lazy guard** — the `prefetch_rows = 0` path must stay
//!   byte-identical to the reference interpreter's answer
//!   (`kleisli_exec::reference`; the JSON key keeps its historical name,
//!   `byte_identical_to_eager`) and ship zero prefetched rows: the
//!   laziness contract PR 3 shipped is untouched.
//!
//! `--smoke` shrinks the workload and loosens the floor for CI runners.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::row_pipeline_workload;
use kleisli_core::{CollKind, Value};
use kleisli_exec::{collect_stream, eval_stream, reference, Context, Env};
use nrc::Expr;

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

fn run_once(ctx: &Arc<Context>, plan: &Expr) -> Value {
    collect_stream(
        eval_stream(plan, &Env::empty(), ctx).expect("stream"),
        CollKind::Set,
    )
    .expect("collect")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rows, per_row_us, reps, floor) = if smoke {
        (16i64, 1000u64, 2usize, 1.3f64)
    } else {
        (48, 1000, 3, 2.0)
    };
    const DRIVERS: usize = 2;
    const ARMS_PER_DRIVER: usize = 2;
    let per_request = Duration::from_millis(2);
    let per_row = Duration::from_micros(per_row_us);

    // --- row-heavy scans: lazy vs pipelined -----------------------------
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

    let lazy_result = run_once(&lazy_ctx, &lazy_plan);
    let pre_result = run_once(&pre_ctx, &pre_plan);
    assert_eq!(
        lazy_result, pre_result,
        "row prefetch must not change the answer"
    );

    let lazy = time_best_of(reps, || run_once(&lazy_ctx, &lazy_plan));
    let pipelined = time_best_of(reps, || run_once(&pre_ctx, &pre_plan));
    let speedup = ms(lazy) / ms(pipelined);
    // The workload has 4 arms across 2 drivers (2 pool workers each), so
    // the theoretical row-transfer win is ~4x; the floor only guards
    // against the pipeline disappearing entirely on a loaded runner.
    assert!(
        speedup >= floor,
        "row pipelining has vanished (got {speedup:.2}x: \
         lazy {lazy:?}, pipelined {pipelined:?})"
    );
    let pre_metrics = pre_drivers
        .iter()
        .map(|d| d.counters().snapshot())
        .fold((0u64, 0u64), |acc, m| {
            (acc.0 + m.rows_prefetched, acc.1 + m.rows_pulled)
        });

    // --- fully-lazy guard: prefetch 0 byte-identical, nothing prefetched
    let (guard_ctx, guard_plan, guard_drivers) =
        row_pipeline_workload(DRIVERS, ARMS_PER_DRIVER, rows, per_request, per_row, 0);
    let streamed = run_once(&guard_ctx, &guard_plan);
    let expected = reference::eval(&guard_plan, &Env::empty(), &guard_ctx).expect("reference");
    assert_eq!(
        streamed, expected,
        "prefetch_rows = 0 must stay byte-identical"
    );
    let guard_prefetched: u64 = guard_drivers
        .iter()
        .map(|d| d.counters().snapshot().rows_prefetched)
        .sum();
    assert_eq!(guard_prefetched, 0, "prefetch_rows = 0 must prefetch nothing");

    let total_rows = rows as usize * DRIVERS * ARMS_PER_DRIVER;
    let json = format!(
        r#"{{
  "bench": "row_pipeline",
  "description": "Row-pipelined execution: per-driver worker pools prefetch up to Capabilities::prefetch_rows rows into bounded buffers ahead of the consumer, overlapping real per-row transfer latency across union arms, versus the PR-3 lazy baseline (prefetch_rows = 0: requests overlap, rows ship on the consumer's clock). Same plan, results asserted identical; the prefetch_rows = 0 path is byte-identical to the eager answer with zero rows prefetched.",
  "command": "cargo run -p bench-harness --bin row_pipeline_report --release",
  "smoke": {smoke},
  "row_heavy_scans": {{
    "workload": "union of {arms} remote scans across {drivers} drivers, {rows} rows per scan ({total_rows} rows), {per_row_us} us per row + {per_request_ms} ms per request (real sleeps)",
    "prefetch_rows": {rows},
    "lazy_ms": {lazy:.2},
    "pipelined_ms": {pipelined:.2},
    "speedup": {speedup:.2},
    "rows_prefetched": {prefetched},
    "rows_pulled": {pulled}
  }},
  "fully_lazy_guard": {{
    "prefetch_rows": 0,
    "byte_identical_to_eager": true,
    "rows_prefetched": 0
  }}
}}
"#,
        arms = DRIVERS * ARMS_PER_DRIVER,
        drivers = DRIVERS,
        per_request_ms = per_request.as_millis(),
        lazy = ms(lazy),
        pipelined = ms(pipelined),
        prefetched = pre_metrics.0,
        pulled = pre_metrics.1,
    );
    std::fs::write("BENCH_row_pipeline.json", &json).expect("write BENCH_row_pipeline.json");
    println!("{json}");
    println!(
        "row-heavy scans: lazy {:.2} ms, pipelined {:.2} ms ({speedup:.2}x)",
        ms(lazy),
        ms(pipelined),
    );
}
