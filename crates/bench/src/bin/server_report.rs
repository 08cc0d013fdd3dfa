//! Load-generate the `kleislid` server over real loopback sockets and
//! record the shared-cache numbers in `BENCH_server.json`:
//!
//! ```sh
//! cargo run -p bench-harness --bin server_report --release
//! cargo run -p bench-harness --bin server_report --release -- --smoke
//! ```
//!
//! For each session count N, a fresh server (fresh shared caches) is
//! started against the paper's two-source federation with a fixed
//! per-request driver latency, and N concurrent client connections run
//! the same CPL query:
//!
//! * **cold** — every client fires the query simultaneously against the
//!   empty caches. Single-flight means one compile + one evaluation
//!   process-wide; everyone else blocks on the same flight, so cold
//!   latency ≈ one driver round-trip for all N.
//! * **warm** — each client then repeats the query; every repetition is
//!   a shared-result-cache hit served from memory.
//!
//! Recorded per N: cold/warm p50 and p99 latency, warm throughput, the
//! compile count (asserted == 1 — N identical concurrent queries must
//! compile once), the shared-cache hit ratio, and the result cache's
//! peak resident bytes (asserted <= the configured budget).
//!
//! Two robustness scenarios ride along (see `ARCHITECTURE.md` §9):
//!
//! * **slow client** — one tenant pipelines queries and stops reading
//!   while the other tenants keep their warm loop running. The
//!   stalled reader's frames pile up in *its own* bounded writer
//!   queue, so the healthy tenants' warm p50 must stay within a small
//!   factor of the no-fault baseline.
//! * **drain** — a graceful shutdown is issued with a query mid-
//!   flight; the report records whether the drain completed inside the
//!   deadline and how long it took.
//!
//! `--smoke` shrinks N and the repetition count and loosens the floors
//! for CI runners; the full run asserts warm p50 >= 5x better than cold
//! at 32 sessions and the slow-client ratio <= 1.2x.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::LatencyModel;
use kleisli_server::{
    serve_ephemeral, Client, Registrar, ServedFrom, ServerConfig, ServerHandle, DRAIN_DEADLINE,
};

const QUERY: &str = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;

fn federation(latency: Duration) -> BioFederation {
    bio_federation(
        &GdbConfig {
            loci: 200,
            seed: 61,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 20,
            links_per_entry: 2,
            seq_len: 40,
            seed: 61,
        },
        LatencyModel::real(latency, Duration::ZERO),
        LatencyModel::real(latency, Duration::ZERO),
    )
    .expect("federation")
}

fn registrar(fed: &BioFederation) -> Arc<Registrar> {
    let gdb = fed.gdb.clone();
    let genbank = fed.genbank.clone();
    Arc::new(move |session: &mut Session| {
        session.register_driver(gdb.clone());
        session.register_driver(genbank.clone());
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    let idx = (sorted.len().saturating_sub(1) * p) / 100;
    sorted[idx]
}

struct Phase {
    p50: Duration,
    p99: Duration,
    wall: Duration,
    queries: usize,
}

/// One measured run: per-session counts of cache-served replies plus
/// the latency distribution of the phase.
fn run_phase(addr: std::net::SocketAddr, sessions: usize, reps: usize) -> (Phase, usize) {
    let barrier = Barrier::new(sessions);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Duration>, usize)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(reps);
                    let mut cached = 0usize;
                    barrier.wait();
                    for _ in 0..reps {
                        let t = Instant::now();
                        let (_v, served) = client
                            .query(QUERY)
                            .expect("query")
                            .into_value()
                            .expect("value");
                        latencies.push(t.elapsed());
                        if served == ServedFrom::SharedCache {
                            cached += 1;
                        }
                    }
                    (latencies, cached)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();
    let mut latencies: Vec<Duration> = per_client
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    latencies.sort();
    let cached = per_client.iter().map(|(_, c)| c).sum();
    (
        Phase {
            p50: percentile(&latencies, 50),
            p99: percentile(&latencies, 99),
            wall,
            queries: latencies.len(),
        },
        cached,
    )
}

struct Row {
    sessions: usize,
    cold: Phase,
    warm: Phase,
    speedup_p50: f64,
    compiles: u64,
    hit_ratio: f64,
    peak_bytes: u64,
    resident_bytes: u64,
}

fn measure(server: &ServerHandle, sessions: usize, warm_reps: usize) -> Row {
    // Cold: all N clients race the empty caches with the same query.
    let (cold, _) = run_phase(server.addr(), sessions, 1);
    let compiles = server.plan_cache().stats().misses;

    // Warm: every further repetition is a shared-cache hit.
    let (warm, warm_cached) = run_phase(server.addr(), sessions, warm_reps);
    assert_eq!(
        warm_cached,
        warm.queries,
        "warm phase must be served entirely from the shared result cache"
    );

    let results = server.result_cache().stats();
    assert!(
        results.peak_bytes <= results.budget,
        "peak resident bytes {} exceed the {} budget",
        results.peak_bytes,
        results.budget
    );
    let looked_up = results.hits + results.misses;
    Row {
        sessions,
        speedup_p50: us(cold.p50) / us(warm.p50).max(0.01),
        cold,
        warm,
        compiles,
        hit_ratio: results.hits as f64 / looked_up.max(1) as f64,
        peak_bytes: results.peak_bytes,
        resident_bytes: results.bytes,
    }
}

/// The slow-client isolation scenario: warm the caches, measure the
/// healthy tenants' warm p50 with no fault, then again with one tenant
/// that pipelined `stalled_queries` queries and stopped reading. The
/// stalled reader's frames land in its own bounded writer queue; the
/// other tenants' latency must not move by more than `ceiling`.
struct SlowClient {
    sessions: usize,
    stalled_queries: usize,
    baseline_p50: Duration,
    faulted_p50: Duration,
    ratio: f64,
    ceiling: f64,
}

fn slow_client_scenario(
    fed: &BioFederation,
    budget: u64,
    sessions: usize,
    reps: usize,
    ceiling: f64,
) -> SlowClient {
    use kleisli_server::proto::{encode_request, write_frame, Request};

    let server = serve_ephemeral(
        ServerConfig {
            result_cache_budget: budget,
            ..ServerConfig::default()
        },
        registrar(fed),
    )
    .expect("serve");
    // Warm the shared caches so both phases measure the cached path.
    Client::connect(server.addr())
        .expect("connect")
        .query(QUERY)
        .expect("query")
        .into_value()
        .expect("value");

    // No-fault baseline: every session reads its replies.
    let (baseline, _) = run_phase(server.addr(), sessions, reps);

    // One tenant goes silent: it pipelines queries and never reads a
    // byte back (well under the writer-queue bound, so the stall
    // persists for the whole measured phase instead of being
    // condemned). The remaining tenants re-run the warm loop.
    let stalled_queries = 16;
    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("connect stalled");
    stalled.set_nodelay(true).ok();
    for id in 0..stalled_queries {
        write_frame(
            &mut stalled,
            &encode_request(&Request::Query {
                id: id as u64 + 1,
                src: QUERY.to_string(),
            }),
        )
        .expect("pipeline unread query");
    }
    thread::sleep(Duration::from_millis(20));
    let (faulted, _) = run_phase(server.addr(), sessions - 1, reps);
    drop(stalled);

    let ratio = us(faulted.p50) / us(baseline.p50).max(0.01);
    assert!(
        ratio <= ceiling,
        "one stalled reader among {sessions} sessions moved the healthy warm p50 \
         {ratio:.2}x (ceiling {ceiling}x): baseline {:.1}us, faulted {:.1}us",
        us(baseline.p50),
        us(faulted.p50)
    );
    server.shutdown();
    SlowClient {
        sessions,
        stalled_queries,
        baseline_p50: baseline.p50,
        faulted_p50: faulted.p50,
        ratio,
        ceiling,
    }
}

/// The drain scenario: shut the server down with one fresh (hence
/// slow, one federation round-trip) query mid-flight and report what
/// the deadline-bounded drain accomplished.
fn drain_scenario(fed: &BioFederation, budget: u64, latency: Duration) -> (bool, Duration, Duration) {
    let config = ServerConfig {
        result_cache_budget: budget,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, registrar(fed)).expect("serve");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.send_query(QUERY).expect("send");
    // Let the query be admitted and reach the driver before draining.
    thread::sleep(latency / 3);
    let report = server.shutdown();
    assert!(
        report.drained,
        "the single in-flight query must finish inside the {DRAIN_DEADLINE:?} drain deadline"
    );
    (report.drained, report.elapsed, DRAIN_DEADLINE)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (session_counts, warm_reps, latency, speedup_floor): (&[usize], usize, Duration, f64) =
        if smoke {
            (&[1, 4], 5, Duration::from_millis(4), 2.0)
        } else {
            // 30 ms/request ≈ a mid-90s WAN round-trip to GDB/GenBank
            // (the deployment the paper describes). The warm path is
            // bounded by local scheduling, not the wire, so the speedup
            // floor is asserted against this cold baseline.
            (&[1, 8, 32], 20, Duration::from_millis(30), 5.0)
        };
    let fed = federation(latency);
    let budget = 8 * 1024 * 1024u64;

    let rows: Vec<Row> = session_counts
        .iter()
        .map(|&sessions| {
            // A fresh server per point: cold means cold caches.
            let server = serve_ephemeral(
                ServerConfig {
                    result_cache_budget: budget,
                    ..ServerConfig::default()
                },
                registrar(&fed),
            )
            .expect("serve");
            let row = measure(&server, sessions, warm_reps);
            server.shutdown();
            row
        })
        .collect();

    for row in &rows {
        assert_eq!(
            row.compiles, 1,
            "{} identical concurrent queries must compile exactly once",
            row.sessions
        );
    }
    // The acceptance floor is asserted at the highest concurrency point
    // (32 sessions in the full run).
    let top = rows.last().expect("at least one session count");
    assert!(
        top.speedup_p50 >= speedup_floor,
        "warm p50 must be >= {speedup_floor}x better than cold at {} sessions (got {:.1}x)",
        top.sessions,
        top.speedup_p50
    );

    // Robustness scenarios: the 1.2x isolation ceiling is the full-run
    // acceptance bound; smoke loosens it for noisy CI runners.
    let isolation_ceiling = if smoke { 2.0 } else { 1.2 };
    let slow_client = slow_client_scenario(&fed, budget, 8, warm_reps, isolation_ceiling);
    let (drained, drain_elapsed, drain_deadline) = drain_scenario(&fed, budget, latency);

    let session_rows = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"sessions\": {}, \"compiles\": {},\n",
                    "      \"cold\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"wall_ms\": {:.1}, \"queries\": {} }},\n",
                    "      \"warm\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"wall_ms\": {:.1}, \"queries\": {}, \"throughput_qps\": {:.0} }},\n",
                    "      \"speedup_p50\": {:.1}, \"shared_cache_hit_ratio\": {:.3},\n",
                    "      \"result_cache_bytes\": {}, \"result_cache_peak_bytes\": {}, \"budget_ok\": true }}"
                ),
                r.sessions,
                r.compiles,
                us(r.cold.p50),
                us(r.cold.p99),
                r.cold.wall.as_secs_f64() * 1e3,
                r.cold.queries,
                us(r.warm.p50),
                us(r.warm.p99),
                r.warm.wall.as_secs_f64() * 1e3,
                r.warm.queries,
                r.warm.queries as f64 / r.warm.wall.as_secs_f64(),
                r.speedup_p50,
                r.hit_ratio,
                r.resident_bytes,
                r.peak_bytes,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "bench": "server",
  "description": "kleislid over loopback TCP: N concurrent client sessions issue the same federation query; cold = empty shared caches (single-flight: one compile + one evaluation process-wide), warm = repeated queries served from the shared result cache. Driver latency {latency_ms} ms/request, result-cache budget {budget} bytes.",
  "command": "cargo run -p bench-harness --bin server_report --release",
  "smoke": {smoke},
  "query": "per-locus symbol projection over GDB-Tab(locus)",
  "driver_latency_ms": {latency_ms},
  "result_cache_budget_bytes": {budget},
  "warm_reps_per_session": {warm_reps},
  "speedup_floor": {speedup_floor},
  "sessions": [
{session_rows}
  ],
  "slow_client": {{
    "sessions": {sc_sessions}, "stalled_readers": 1,
    "pipelined_unread_queries": {sc_queries},
    "baseline_warm_p50_us": {sc_baseline:.1},
    "faulted_warm_p50_us": {sc_faulted:.1},
    "p50_ratio": {sc_ratio:.2}, "ratio_ceiling": {sc_ceiling}, "isolated": true
  }},
  "drain": {{
    "in_flight_queries": 1, "drained": {drained},
    "elapsed_ms": {drain_elapsed:.1}, "deadline_ms": {drain_deadline}
  }}
}}
"#,
        latency_ms = latency.as_millis(),
        sc_sessions = slow_client.sessions,
        sc_queries = slow_client.stalled_queries,
        sc_baseline = us(slow_client.baseline_p50),
        sc_faulted = us(slow_client.faulted_p50),
        sc_ratio = slow_client.ratio,
        sc_ceiling = slow_client.ceiling,
        drain_elapsed = drain_elapsed.as_secs_f64() * 1e3,
        drain_deadline = drain_deadline.as_millis(),
    );
    print!("{json}");
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    eprintln!("wrote BENCH_server.json");
}
