//! Measure the concurrency-first execution win and record it in
//! `BENCH_concurrency.json` at the repo root:
//!
//! ```sh
//! cargo run -p bench-harness --bin concurrency_report --release
//! ```
//!
//! Two experiments over the GDB + GenBank federation with *real* (slept)
//! per-request latency:
//!
//! * **two-source overlap** — the E13 query issues per-uid requests to
//!   both servers. The blocking baseline submits and immediately waits on
//!   every driver request in turn (the pre-submit/handle world, forced by
//!   rewriting every `ParExt` to width 1 — the record's two per-uid
//!   requests are separate fields, evaluated one after the other);
//!   the concurrent run goes through `Session::submit` → `QueryHandle`,
//!   keeping up to each server's admission budget in flight.
//! * **width scaling** — the same query at parallel widths 1/2/5: elapsed
//!   time should fall near-linearly up to GenBank's budget of 5.

use std::time::{Duration, Instant};

use bench_harness::{bind_uids, latency_federation, set_par_width, TWO_SOURCE_CONCURRENCY};
use kleisli::Compiled;
use kleisli_opt::OptConfig;

const PER_REQUEST_MS: u64 = 4;
const UIDS: usize = 16;

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

fn at_width(compiled: &Compiled, width: usize) -> Compiled {
    let mut c = compiled.clone();
    c.optimized = set_par_width(&compiled.optimized, width);
    c
}

fn main() {
    let (mut session, _fed) = latency_federation(40, Duration::from_millis(PER_REQUEST_MS));
    bind_uids(&mut session, &_fed, UIDS);
    // Ablate subquery caching so the experiment isolates concurrency (the
    // caching win is E9's story); everything else stays default.
    session.set_opt_config(OptConfig {
        enable_cache: false,
        ..OptConfig::default()
    });
    let compiled = session.compile(TWO_SOURCE_CONCURRENCY).expect("compile");

    // --- two-source overlap ---------------------------------------------
    let reps = 3;
    let sequential = at_width(&compiled, 1);
    let blocking_result = session.run_compiled(&sequential).expect("blocking");
    let blocking = time_best_of(reps, || {
        session.run_compiled(&sequential).expect("blocking")
    });
    let concurrent_result = session
        .submit_compiled(&compiled)
        .wait()
        .expect("concurrent");
    let concurrent = time_best_of(reps, || {
        session
            .submit_compiled(&compiled)
            .wait()
            .expect("concurrent")
    });
    assert_eq!(
        blocking_result, concurrent_result,
        "overlap must not change the answer"
    );
    let speedup = ms(blocking) / ms(concurrent);
    // Expected ~4x on an idle machine (recorded in the JSON); the hard
    // floor here is deliberately loose so scheduling jitter on a loaded
    // CI runner doesn't fail the smoke — it only guards against the
    // overlap disappearing entirely.
    assert!(
        speedup >= 1.3,
        "two-source overlap has vanished (got {speedup:.2}x: \
         blocking {blocking:?}, concurrent {concurrent:?})"
    );

    // --- width scaling ---------------------------------------------------
    let mut scaling = Vec::new();
    for width in [1usize, 2, 5] {
        let c = at_width(&compiled, width);
        let t = time_best_of(reps, || {
            session.submit_compiled(&c).wait().expect("scaled run")
        });
        scaling.push((width, ms(t)));
    }

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(w, t)| format!(r#"    {{ "width": {w}, "elapsed_ms": {t:.2} }}"#))
        .collect();
    let json = format!(
        r#"{{
  "bench": "concurrency",
  "description": "Concurrency-first execution: the two-phase submit/handle driver API overlapping real per-request latency across two sources (per-uid GenBank link lookups + GDB locus lookups), versus the blocking submit-then-wait baseline at parallel width 1. Admission budgets (GDB 8, GenBank 5) are enforced by per-driver gates.",
  "command": "cargo run -p bench-harness --bin concurrency_report --release",
  "two_source_overlap": {{
    "query": "per-uid GenBank links + GDB locus lookup over {UIDS} uids",
    "per_request_ms": {PER_REQUEST_MS},
    "budgets": {{ "GDB": 8, "GenBank": 5 }},
    "blocking_ms": {blocking:.2},
    "concurrent_ms": {concurrent:.2},
    "speedup": {speedup:.2}
  }},
  "width_scaling": [
{scaling}
  ]
}}
"#,
        blocking = ms(blocking),
        concurrent = ms(concurrent),
        scaling = scaling_json.join(",\n"),
    );
    std::fs::write("BENCH_concurrency.json", &json).expect("write BENCH_concurrency.json");
    println!("{json}");
    println!(
        "two-source overlap: blocking {:.2} ms, concurrent {:.2} ms ({speedup:.2}x)",
        ms(blocking),
        ms(concurrent),
    );
}
