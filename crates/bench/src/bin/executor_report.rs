//! Measure the shared-session-executor refactor and the adaptive
//! row-prefetch depth, recording both in `BENCH_executor.json` at the
//! repo root:
//!
//! ```sh
//! cargo run -p bench-harness --bin executor_report --release
//! cargo run -p bench-harness --bin executor_report --release -- --smoke
//! ```
//!
//! Three experiments:
//!
//! * **row-heavy scans** — the exact `row_pipeline_report` workload
//!   (union of four remote scans with real per-row transfer latency),
//!   re-measured with the now-adaptive prefetch buffers. Buffers start
//!   at the advertised ceiling, so a fast consumer must see the same
//!   pipelining win PR 4 recorded in `BENCH_row_pipeline.json` — this
//!   is the no-regression guard for the adaptive depth.
//! * **session fan-out** — a burst of concurrent `Session::submit`s,
//!   each a per-element remote loop, on a session with a private
//!   executor. Elapsed time must beat submit-then-wait sequential
//!   execution (the overlap is preserved), while the executor's
//!   `threads_spawned()` stays bounded by its limit — versus the PR-4
//!   ad-hoc model, which created one OS thread per query *plus* one
//!   scoped thread per `ParExt` element evaluation (recorded as
//!   `adhoc_threads_model`).
//! * **adaptive guard** — the same prefetching driver consumed fast and
//!   slow: the fast consumer keeps the full window; the slow consumer's
//!   depth collapses (`prefetch_shrinks > 0`) and its prefetched-row
//!   count drops — the buffer/ticket cost the adaptive depth saves.
//!
//! `--smoke` shrinks the workloads and loosens the floors for CI.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::row_pipeline_workload;
use kleisli::Session;
use kleisli_core::testutil::SlowDriver;
use kleisli_core::{CollKind, Executor, Value};
use kleisli_exec::{collect_stream, eval_stream, Context, Env};
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
    // Floors only guard against a win disappearing entirely — expected
    // values on an idle machine are ~3.9x (scans) and ~1.6-2.6x
    // (fan-out, executor-bound by design); see the recorded JSON.
    let (rows, reps, scan_floor, fan_floor) = if smoke {
        (16i64, 2usize, 1.3f64, 1.2f64)
    } else {
        (48, 3, 2.0, 1.3)
    };

    // --- row-heavy scans: adaptive prefetch vs the lazy baseline --------
    const DRIVERS: usize = 2;
    const ARMS_PER_DRIVER: usize = 2;
    let per_request = Duration::from_millis(2);
    let per_row = Duration::from_micros(1000);
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
        "adaptive prefetch must not change the answer"
    );
    let lazy = time_best_of(reps, || run_once(&lazy_ctx, &lazy_plan));
    let pipelined = time_best_of(reps, || run_once(&pre_ctx, &pre_plan));
    let scan_speedup = ms(lazy) / ms(pipelined);
    assert!(
        scan_speedup >= scan_floor,
        "adaptive depth regressed the row pipeline (got {scan_speedup:.2}x: \
         lazy {lazy:?}, pipelined {pipelined:?})"
    );
    let (scan_prefetched, scan_pulled) = pre_drivers
        .iter()
        .map(|d| d.counters().snapshot())
        .fold((0u64, 0u64), |acc, m| {
            (acc.0 + m.rows_prefetched, acc.1 + m.rows_pulled)
        });

    // --- session fan-out on a bounded shared executor -------------------
    let queries = 8usize;
    let ids = if smoke { 4i64 } else { 8 };
    let exec_limit = 16usize;
    let executor = Executor::new("bench-exec", exec_limit);
    // A generous driver budget keeps the admission gate out of the
    // measurement: what's timed is the executor overlapping the query
    // workers (and their ParExt chunks), bounded by its 16 workers.
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(4), 64);
    let mut session = Session::with_executor(Arc::clone(&executor));
    session.register_driver(driver);
    session.bind_value("IDS", Value::set((0..ids).map(Value::Int).collect()));
    let q = r#"{[i = i, n = count(SRC([function = "probe", arg = i]))] | \i <- IDS}"#;
    let compiled = session.compile(q).expect("compile");

    let sequential = time_best_of(reps, || {
        for _ in 0..queries {
            session
                .submit_compiled(&compiled)
                .wait()
                .expect("sequential");
        }
    });
    let concurrent = time_best_of(reps, || {
        let handles: Vec<_> = (0..queries)
            .map(|_| session.submit_compiled(&compiled))
            .collect();
        for h in handles {
            h.wait().expect("concurrent");
        }
    });
    let fan_speedup = ms(sequential) / ms(concurrent);
    assert!(
        fan_speedup >= fan_floor,
        "query fan-out overlap has vanished (got {fan_speedup:.2}x: \
         sequential {sequential:?}, concurrent {concurrent:?})"
    );
    let threads_spawned = executor.threads_spawned();
    assert!(
        threads_spawned <= exec_limit,
        "executor workers exceeded the limit: {threads_spawned} > {exec_limit}"
    );
    // PR-4 ad-hoc model: one OS thread per submitted query, plus one
    // scoped thread per ParExt element evaluation — per run of the
    // timed closure above.
    let adhoc_threads_model = queries * (1 + ids as usize);

    // --- adaptive guard: slow consumers stop paying for prefetch --------
    let ceiling = 8usize;
    let consume = |slow: bool| {
        let driver = SlowDriver::pipelined(
            "A",
            40,
            Duration::from_millis(1),
            Duration::from_millis(1),
            2,
            ceiling,
        );
        let metrics = Arc::clone(driver.counters());
        let stream = kleisli_core::Driver::submit(
            &*driver,
            &kleisli_core::DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        )
        .expect("submit")
        .wait()
        .expect("wait");
        let mut n = 0;
        for row in stream {
            row.expect("row");
            n += 1;
            if slow && n < 25 {
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        assert_eq!(n, 40);
        metrics.snapshot()
    };
    let fast = consume(false);
    let slow = consume(true);
    assert!(
        slow.prefetch_shrinks > 0,
        "a slow consumer must shrink the adaptive depth"
    );
    assert!(
        slow.rows_prefetched < fast.rows_prefetched,
        "a collapsed depth must prefetch fewer rows ({} slow vs {} fast)",
        slow.rows_prefetched,
        fast.rows_prefetched
    );

    let total_rows = rows as usize * DRIVERS * ARMS_PER_DRIVER;
    let json = format!(
        r#"{{
  "bench": "executor",
  "description": "Shared session executor + adaptive row prefetch: query workers and ParExt chunks run as tasks on one bounded, lazily-grown compute pool (caller-helping batches, so nested parallelism cannot deadlock), replacing the PR-4 ad-hoc thread-per-query/thread-per-chunk-element model; prefetch buffers adapt their effective depth (0..=Capabilities::prefetch_rows) to the consumer's drain rate vs observed per-row latency.",
  "command": "cargo run -p bench-harness --bin executor_report --release",
  "smoke": {smoke},
  "row_heavy_scans": {{
    "workload": "union of {arms} remote scans across {drivers} drivers, {rows} rows per scan ({total_rows} rows), 1000 us per row + 2 ms per request (real sleeps), adaptive prefetch ceiling {rows}",
    "lazy_ms": {lazy:.2},
    "pipelined_ms": {pipelined:.2},
    "speedup": {scan_speedup:.2},
    "rows_prefetched": {scan_prefetched},
    "rows_pulled": {scan_pulled},
    "baseline": "BENCH_row_pipeline.json row_heavy_scans (static depth, PR 4)"
  }},
  "session_fan_out": {{
    "workload": "{queries} concurrent Session::submit of a {ids}-element per-element remote loop (4 ms per request, driver budget 64 so the executor is the measured bound)",
    "sequential_ms": {sequential:.2},
    "concurrent_ms": {concurrent:.2},
    "speedup": {fan_speedup:.2},
    "executor_threads_spawned": {threads_spawned},
    "executor_limit": {exec_limit},
    "adhoc_threads_model": {adhoc_threads_model}
  }},
  "adaptive_guard": {{
    "prefetch_ceiling": {ceiling},
    "fast_consumer": {{ "rows_prefetched": {fast_pre}, "prefetch_shrinks": {fast_shrinks} }},
    "slow_consumer": {{ "rows_prefetched": {slow_pre}, "prefetch_shrinks": {slow_shrinks}, "prefetch_grows": {slow_grows} }}
  }}
}}
"#,
        arms = DRIVERS * ARMS_PER_DRIVER,
        drivers = DRIVERS,
        lazy = ms(lazy),
        pipelined = ms(pipelined),
        sequential = ms(sequential),
        concurrent = ms(concurrent),
        fast_pre = fast.rows_prefetched,
        fast_shrinks = fast.prefetch_shrinks,
        slow_pre = slow.rows_prefetched,
        slow_shrinks = slow.prefetch_shrinks,
        slow_grows = slow.prefetch_grows,
    );
    std::fs::write("BENCH_executor.json", &json).expect("write BENCH_executor.json");
    println!("{json}");
    println!(
        "row-heavy scans: lazy {:.2} ms, pipelined {:.2} ms ({scan_speedup:.2}x); \
         fan-out: sequential {:.2} ms, concurrent {:.2} ms ({fan_speedup:.2}x) \
         on {threads_spawned} executor threads (ad-hoc model: {adhoc_threads_model})",
        ms(lazy),
        ms(pipelined),
        ms(sequential),
        ms(concurrent),
    );
}
