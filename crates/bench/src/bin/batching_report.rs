//! Measure batched driver round-trips (IN-list / multi-uid pushdown)
//! and record them in `BENCH_batching.json` at the repo root:
//!
//! ```sh
//! cargo run -p bench-harness --bin batching_report --release
//! cargo run -p bench-harness --bin batching_report --release -- --smoke
//! ```
//!
//! The workload is the per-uid GenBank link loop (E11's `CONCURRENCY`
//! query) over 32 bound uids, with a real per-request sleep. Without
//! batching every uid costs one wire round-trip, overlapped up to the
//! server's admission budget; with batching the optimizer's `BatchSpec`
//! mark lets the evaluator pre-fetch each chunk's keys —
//! `ceil(32 / max_keys)` multi-uid wire requests in all, a chunk and the
//! one read ahead of it on the wire together — that the per-element
//! submissions then attach to.
//!
//! The second scenario is the two-hop dependent loop of the DOE query
//! (accession → sequence uids → links) over 32 bound accessions. Nested,
//! the second hop sees one uid per outer element and every key of both
//! hops travels alone; staged (`batch/stage-dependent-remote-loop`) each
//! hop is one flat loop and ships `ceil(32 / max_keys)` requests.
//!
//! Hard claims, asserted here and re-checked in CI's smoke run: results
//! are **identical** to the unbatched path (values and their printed
//! form), the batched single-hop run issues at least **5x fewer** wire
//! requests to the GenBank driver, and the staged two-hop run issues
//! fewer than the nested one.
//!
//! `--smoke` shrinks the timing sample for CI runners; the request-count
//! claim is deterministic and stays at full strength.

use std::time::{Duration, Instant};

use bench_harness::{bind_uids, latency_federation, CONCURRENCY};
use kleisli_core::{MetricsSnapshot, Value};

const UIDS: usize = 32;

/// The two-hop dependent loop: `ACCS` must be bound (see [`measure`]).
const TWO_HOP: &str = r#"{[a = acc, u = uid, n = count(GenBank([db = "na", link = uid]))] |
    \acc <- ACCS,
    \uid <- flatten(GenBank([db = "na", select = "accession " ^ acc,
                             path = "Seq-entry.seq.id..giim"]))}"#;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (nearest-rank) of an unsorted sample.
fn percentile(samples: &mut [Duration], q: f64) -> Duration {
    samples.sort();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

/// One configuration's run of `query`: the result value, the GenBank
/// wire metrics for a single query, and per-query latencies over `runs`
/// repetitions.
fn measure(query: &str, batching: bool, runs: usize) -> (Value, MetricsSnapshot, Vec<Duration>) {
    let (mut s, fed) = latency_federation(40, Duration::from_millis(4));
    bind_uids(&mut s, &fed, UIDS);
    let accessions = fed.genbank_data.entries.iter().take(UIDS);
    s.bind_value(
        "ACCS",
        Value::set(accessions.map(|e| Value::str(&e.accession)).collect()),
    );
    s.set_batching(batching);
    let compiled = s.compile(query).expect("compile");
    s.reset_metrics();
    let value = s.run_compiled(&compiled).expect("query");
    let metrics = s.driver_metrics("GenBank").expect("metrics");
    let times = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            s.run_compiled(&compiled).expect("query");
            t0.elapsed()
        })
        .collect();
    drop(fed);
    (value, metrics, times)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let runs = if smoke { 3usize } else { 15 };

    let (unbatched_value, unbatched_m, mut unbatched_t) = measure(CONCURRENCY, false, runs);
    let (batched_value, batched_m, mut batched_t) = measure(CONCURRENCY, true, runs);
    let (nested_value, nested_m, mut nested_t) = measure(TWO_HOP, false, runs);
    let (staged_value, staged_m, mut staged_t) = measure(TWO_HOP, true, runs);

    // Semantics first: the batched plan must be indistinguishable from
    // the per-element plan, down to the printed form.
    assert_eq!(
        batched_value, unbatched_value,
        "batched execution changed the result"
    );
    assert_eq!(
        batched_value.to_string(),
        unbatched_value.to_string(),
        "batched execution changed the result's printed form"
    );
    assert_eq!(staged_value, nested_value, "staging changed the result");
    assert_eq!(
        staged_value.to_string(),
        nested_value.to_string(),
        "staging changed the result's printed form"
    );

    // The tentpole claim: >= 5x fewer wire requests at 32 keys. The
    // driver counts one `requests` tick per wire round-trip, batched or
    // not (32 unbatched; ceil(32/16) = 2 batched).
    assert!(
        unbatched_m.requests >= 5 * batched_m.requests.max(1),
        "batching stopped cutting round-trips: {} unbatched vs {} batched wire requests",
        unbatched_m.requests,
        batched_m.requests,
    );
    assert!(
        batched_m.batch_requests > 0 && batched_m.batched_keys as usize == UIDS,
        "the batched run did not actually batch: {batched_m:?}"
    );

    // Staged, both hops batch: 2 * ceil(32/16) = 4 wire requests where
    // the nested loop sends each of its 64 keys alone.
    assert!(
        staged_m.requests < nested_m.requests
            && staged_m.batch_requests == staged_m.requests
            && staged_m.batched_keys as usize == 2 * UIDS,
        "the two-hop loop did not batch both hops: nested {nested_m:?}, staged {staged_m:?}"
    );
    let (ne_p50, st_p50) = (
        percentile(&mut nested_t, 0.5),
        percentile(&mut staged_t, 0.5),
    );

    let (un_p50, un_p99) = (
        percentile(&mut unbatched_t, 0.5),
        percentile(&mut unbatched_t, 0.99),
    );
    let (ba_p50, ba_p99) = (
        percentile(&mut batched_t, 0.5),
        percentile(&mut batched_t, 0.99),
    );
    let reduction = unbatched_m.requests as f64 / batched_m.requests.max(1) as f64;
    let p50_speedup = ms(un_p50) / ms(ba_p50);

    let json = format!(
        r#"{{
  "bench": "batching",
  "description": "Batched driver round-trips: the per-uid GenBank link workload (32 uids, 4 ms per wire request) with the optimizer's IN-list/multi-uid batching mark on vs off. The batched plan must return identical results while issuing at least 5x fewer wire requests (ceil(32/16) = 2 instead of 32); wall-clock improves because two batched round-trips, one per 16-key chunk and on the wire together (the evaluator warms up a chunk and the one after it before running the first), replace 32 admission-bounded overlapped ones. two_hop is the DOE query's dependent loop (accession -> sequence uids -> links) over 32 accessions: nested (batching off) every key of both hops travels alone; staged (batch/stage-dependent-remote-loop) each hop is one flat batch-marked loop.",
  "command": "cargo run -p bench-harness --bin batching_report --release",
  "smoke": {smoke},
  "workload": "{UIDS} per-uid GenBank link counts (E11 CONCURRENCY), {runs} timed repetitions",
  "unbatched": {{
    "wire_requests": {un_requests},
    "p50_ms": {un_p50:.2},
    "p99_ms": {un_p99:.2}
  }},
  "batched": {{
    "wire_requests": {ba_requests},
    "batch_requests": {batch_requests},
    "batched_keys": {batched_keys},
    "coalesced": {coalesced},
    "p50_ms": {ba_p50:.2},
    "p99_ms": {ba_p99:.2}
  }},
  "request_reduction": {reduction:.2},
  "p50_speedup": {p50_speedup:.2},
  "identical_results": true,
  "two_hop": {{
    "workload": "{UIDS} accessions -> sequence uids -> link counts, {runs} timed repetitions",
    "nested": {{
      "wire_requests": {ne_requests},
      "p50_ms": {ne_p50:.2}
    }},
    "staged": {{
      "wire_requests": {st_requests},
      "batch_requests": {st_batch_requests},
      "batched_keys": {st_batched_keys},
      "p50_ms": {st_p50:.2}
    }},
    "identical_results": true
  }}
}}
"#,
        ne_requests = nested_m.requests,
        ne_p50 = ms(ne_p50),
        st_requests = staged_m.requests,
        st_batch_requests = staged_m.batch_requests,
        st_batched_keys = staged_m.batched_keys,
        st_p50 = ms(st_p50),
        un_requests = unbatched_m.requests,
        ba_requests = batched_m.requests,
        batch_requests = batched_m.batch_requests,
        batched_keys = batched_m.batched_keys,
        coalesced = batched_m.coalesced,
        un_p50 = ms(un_p50),
        un_p99 = ms(un_p99),
        ba_p50 = ms(ba_p50),
        ba_p99 = ms(ba_p99),
    );
    std::fs::write("BENCH_batching.json", &json).expect("write BENCH_batching.json");
    println!("{json}");
    println!(
        "batching: {} -> {} wire requests ({reduction:.1}x); p50 {:.2} ms -> {:.2} ms ({p50_speedup:.2}x)",
        unbatched_m.requests,
        batched_m.requests,
        ms(un_p50),
        ms(ba_p50),
    );
    println!(
        "two-hop: {} -> {} wire requests; p50 {:.2} ms -> {:.2} ms",
        nested_m.requests,
        staged_m.requests,
        ms(ne_p50),
        ms(st_p50),
    );
}
