//! The untraced end-to-end run of one workload: oracle, repeated
//! set-up, warm-up, a time-bounded measured phase over real loopback
//! sockets, and the four gated metrics.

use std::thread;
use std::time::{Duration, Instant};

use kleisli_repro::core::Value;
use kleisli_repro::kleisli::Session;
use kleisli_repro::opt::OptConfig;
use kleisli_server::{serve_ephemeral, Client, QueryReply, ServerHandle};

use crate::procfs;
use crate::stats;
use crate::workloads::{strip_nonce, Deployment, Plan, Source, Step};

/// Segments of a single pass whose throughputs the traced run compares
/// (`client.segment_qps_spread_pct`).
pub const SEGMENTS: usize = 5;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Failure messages kept for stderr; the count is always complete.
const FAILURES_KEPT: usize = 8;

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The first few failures, for stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        let room = FAILURES_KEPT.saturating_sub(self.failures.len());
        self.failures
            .extend(tally.failures.iter().take(room).cloned());
    }
}

/// Expected answers: one per distinct query, and for `Pubs`-derived
/// queries one per table generation. Computed by a session with every
/// optimization (and batching) off against a zero-latency copy of the
/// same seeded data, so the optimized, parallel, batched, cached,
/// remote answer is compared with what the naive NRC expression means.
pub struct Oracle {
    /// `expected[query][generation]`; GDB queries have one generation.
    expected: Vec<Vec<Value>>,
    /// Wall-clock cost of computing it (excluded from `setup_s`).
    pub seconds: f64,
}

impl Oracle {
    pub fn compute(plan: &Plan) -> Oracle {
        let started = Instant::now();
        let twin = plan.deploy(false);
        let mut session = Session::new();
        session.set_opt_config(OptConfig::none());
        plan.install(&twin, &mut session);
        let mut expected: Vec<Vec<Value>> = vec![Vec::new(); plan.queries.len()];
        for (generation, table) in twin.pubs_tables.iter().enumerate() {
            if generation > 0 {
                let pubs = twin.pubs.as_ref().expect("generations imply a Pubs source");
                pubs.replace_table("publications", table.clone());
            }
            for (q, query) in plan.queries.iter().enumerate() {
                if query.source == Source::Pubs {
                    expected[q].push(session.query(&query.text).expect("oracle evaluates"));
                }
            }
        }
        for (q, query) in plan.queries.iter().enumerate() {
            if query.source == Source::Gdb {
                expected[q].push(session.query(&query.text).expect("oracle evaluates"));
            }
        }
        Oracle {
            expected,
            seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Is `reply` the right answer to `query`? `generation` pins which
    /// `publications` generation a `Pubs` read must reflect (the
    /// flushing connection knows); `None` accepts any generation (a
    /// reader racing a refresh may see either side of it).
    pub fn check(
        &self,
        plan: &Plan,
        query: usize,
        nonce: Option<u64>,
        reply: &Value,
        generation: Option<usize>,
    ) -> Result<(), String> {
        let stripped;
        let rows = match nonce {
            Some(n) => {
                stripped = strip_nonce(reply, n).ok_or("reply rows lack the query's nonce")?;
                &stripped
            }
            None => reply,
        };
        let answers = &self.expected[query];
        let ok = match (plan.queries[query].source, generation) {
            (Source::Pubs, Some(g)) => &answers[g % answers.len()] == rows,
            _ => answers.iter().any(|a| a == rows),
        };
        if ok {
            Ok(())
        } else if generation.is_some() && answers.iter().any(|a| a == rows) {
            Err("stale read after an acknowledged FLUSH".to_string())
        } else {
            Err("reply differs from the oracle".to_string())
        }
    }
}

/// What a connection counted while driving steps.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Latency of each correct read, ns.
    pub read_ns: Vec<u64>,
    /// Completion time of each correct read, ns since the phase began.
    pub done_ns: Vec<u64>,
    /// Latency of each acknowledged FLUSH, ns.
    pub flush_ns: Vec<u64>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = FAILURES_KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.read_ns.extend(other.read_ns);
        self.done_ns.extend(other.done_ns);
        self.flush_ns.extend(other.flush_ns);
    }
}

/// When a connection stops driving steps.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Steps(u64),
}

/// Why a read counted as a failed operation.
struct ReadFailure {
    what: String,
    /// An I/O error: the connection is gone, stop driving it.
    connection_lost: bool,
}

/// One client connection and its position in the step script.
pub struct Conn {
    pub index: usize,
    pub client: Client,
    pub next_step: u64,
}

impl Conn {
    /// Send the read of step `i` and judge the reply against the
    /// oracle. Returns the client-observed latency: `Client::query`
    /// send to decoded `Value`.
    fn read(
        &mut self,
        plan: &Plan,
        oracle: &Oracle,
        i: u64,
        query: usize,
        nonce: Option<u64>,
    ) -> Result<Duration, ReadFailure> {
        let text = plan.text(query, nonce);
        let sent = Instant::now();
        let reply = self.client.query(&text);
        let took = sent.elapsed();
        // Only the flushing connection knows which generation a read
        // must reflect.
        let generation = (self.index == 0).then(|| plan.generation_before(i));
        let soft = |what: String| ReadFailure {
            what,
            connection_lost: false,
        };
        match reply {
            Ok(QueryReply::Value { value, .. }) => oracle
                .check(plan, query, nonce, &value, generation)
                .map(|()| took)
                .map_err(soft),
            Ok(QueryReply::Busy(m))
            | Ok(QueryReply::ShuttingDown(m))
            | Ok(QueryReply::Error(m)) => Err(soft(format!("server replied: {m}"))),
            Err(e) => Err(ReadFailure {
                what: format!("I/O error: {e}"),
                connection_lost: true,
            }),
        }
    }

    /// Perform a refresh step: install the next `publications`
    /// generation if the step says so, then FLUSH the source over the
    /// wire. Returns the FLUSH round-trip time.
    fn refresh(&mut self, deployment: &Deployment, step: &Step) -> Result<Duration, String> {
        let source = match step {
            Step::RefreshPubs { generation } => {
                let pubs = deployment.pubs.as_ref().expect("refresh_mix deploys Pubs");
                let tables = &deployment.pubs_tables;
                pubs.replace_table("publications", tables[generation % tables.len()].clone());
                "Pubs"
            }
            Step::FlushGdb => "GDB",
            Step::Read { .. } => unreachable!("reads are not refreshes"),
        };
        let sent = Instant::now();
        match self.client.flush(source) {
            Ok(_) => Ok(sent.elapsed()),
            Err(e) => Err(format!("FLUSH {source}: {e}")),
        }
    }

    /// Drive this connection's script from where it stands. Every
    /// `Error`/`Busy`/`ShuttingDown` reply, I/O error, oracle mismatch
    /// or stale post-FLUSH read is a failed operation and contributes
    /// no latency sample. An I/O error also ends the loop.
    pub fn drive(
        &mut self,
        plan: &Plan,
        deployment: &Deployment,
        oracle: &Oracle,
        until: Until,
        phase_start: Instant,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut steps_done = 0;
        loop {
            match until {
                Until::Deadline(at) if Instant::now() >= at => break,
                Until::Steps(n) if steps_done >= n => break,
                _ => {}
            }
            let i = self.next_step;
            self.next_step += 1;
            steps_done += 1;
            tally.attempted += 1;
            match plan.step(self.index, i) {
                Step::Read { query, nonce } => match self.read(plan, oracle, i, query, nonce) {
                    Ok(took) => {
                        tally.read_ns.push(took.as_nanos() as u64);
                        tally.done_ns.push(phase_start.elapsed().as_nanos() as u64);
                    }
                    Err(failure) => {
                        tally.fail(format!("conn {} step {i}: {}", self.index, failure.what));
                        if failure.connection_lost {
                            break;
                        }
                    }
                },
                refresh => match self.refresh(deployment, &refresh) {
                    Ok(took) => tally.flush_ns.push(took.as_nanos() as u64),
                    Err(what) => tally.fail(format!("conn {} step {i}: {what}", self.index)),
                },
            }
        }
        tally
    }
}

/// A deployed, connected, warmed-up system.
pub struct Live {
    pub deployment: Deployment,
    pub server: ServerHandle,
    pub conns: Vec<Conn>,
    /// `Client::connect` + first STATS reply of each connection, ms.
    pub connect_ms: Vec<f64>,
}

impl Live {
    /// Drive every connection on its own thread until `until`.
    pub fn drive_all(
        &mut self,
        plan: &Plan,
        oracle: &Oracle,
        until: Until,
        phase_start: Instant,
    ) -> Tally {
        let deployment = &self.deployment;
        let mut total = Tally::default();
        thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || conn.drive(plan, deployment, oracle, until, phase_start))
                })
                .collect();
            for handle in handles {
                total.merge(handle.join().expect("client thread panicked"));
            }
        });
        total
    }

    pub fn teardown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// How many client connections this machine gets: the workload's wish,
/// capped at the available parallelism (load comes from one process
/// with at most `nproc` client threads).
pub fn connections(plan: &Plan) -> usize {
    let cores = thread::available_parallelism().map_or(1, usize::from);
    plan.kind.connections().min(cores)
}

/// One full set-up: build the seeded data, start the server, connect
/// the clients, prime the caches and run the fixed warm-up. Everything
/// in here is `setup_s`; the oracle is not.
pub fn setup(plan: &Plan, oracle: &Oracle, outcome: &mut Outcome) -> (Live, f64) {
    let started = Instant::now();
    let deployment = plan.deploy(true);
    let server = serve_ephemeral(plan.server_config(), plan.registrar(&deployment))
        .expect("bind an ephemeral loopback port");
    let mut connect_ms = Vec::new();
    let conns = (0..connections(plan))
        .map(|index| {
            let t = Instant::now();
            let mut client = Client::connect(server.addr()).expect("connect to the server");
            // The session (registrar, defines) is built by the
            // connection's reader thread; the first reply proves it.
            client.stats().expect("first STATS reply");
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Conn {
                index,
                client,
                next_step: 0,
            }
        })
        .collect();
    let mut live = Live {
        deployment,
        server,
        conns,
        connect_ms,
    };
    if plan.primed() {
        let mut tally = Tally::default();
        for query in 0..plan.queries.len() {
            tally.attempted += 1;
            if let Err(failure) = live.conns[0].read(plan, oracle, 0, query, None) {
                tally.fail(format!("priming query {query}: {}", failure.what));
            }
        }
        outcome.absorb(&tally);
    }
    let warmup = live.drive_all(
        plan,
        oracle,
        Until::Steps(plan.warmup_steps()),
        Instant::now(),
    );
    outcome.absorb(&warmup);
    (live, started.elapsed().as_secs_f64())
}

/// A measured phase: every connection drives its script until `until`,
/// closed loop.
pub struct Measured {
    pub tally: Tally,
    /// From the phase's start to its last completion, ns.
    pub phase_ns: u64,
}

pub fn measure(live: &mut Live, plan: &Plan, oracle: &Oracle, until: Until) -> Measured {
    let phase_start = Instant::now();
    let tally = live.drive_all(plan, oracle, until, phase_start);
    Measured {
        tally,
        phase_ns: phase_start.elapsed().as_nanos() as u64,
    }
}

/// Client-side numbers of one pass of the traced run.
pub struct ClientStats {
    pub samples: usize,
    pub p50_ns: u64,
    /// `None`: fewer than ten samples beyond the percentile.
    pub p95_ns: Option<u64>,
    pub p99_ns: Option<u64>,
    /// (max - min) / median of the [`SEGMENTS`] segment throughputs, %.
    pub segment_spread_pct: f64,
}

pub fn client_stats(tally: &mut Tally, phase_ns: u64) -> Option<ClientStats> {
    let reads = &mut tally.read_ns;
    reads.sort_unstable();
    let throughput = stats::segment_throughput(&tally.done_ns, phase_ns, SEGMENTS)?;
    Some(ClientStats {
        samples: reads.len(),
        p50_ns: stats::percentile(reads, 50.0)?,
        p95_ns: stats::supported_percentile(reads, 95.0),
        p99_ns: stats::supported_percentile(reads, 99.0),
        segment_spread_pct: throughput.spread_pct,
    })
}

/// Epochs an untraced run splits its measured time into: the memory
/// epoch and seven timed ones.
pub const EPOCHS: usize = 8;

/// `--trace 0`: the four end-to-end metrics of one workload.
///
/// The measured time is split over [`EPOCHS`] epochs, each on a fresh
/// set-up (new data, server, connections and threads). `setup_s` is the
/// median over the set-ups.
///
/// The first epoch is the memory epoch. It is bounded by work, not by
/// time, and `peak_rss_mb` is read when it ends: memory here grows with
/// work done (the per-session interner keeps every plan it has seen,
/// latency samples accumulate), so a peak read after a *time*-bounded
/// phase would rise whenever the program got faster. Its timings are not
/// used: a process that starts after an idle spell runs up to 1.7 times
/// faster for its first two to three seconds on the shared VM.
///
/// Latency and throughput are the value the better quarter of the timed
/// epochs reaches (nearest-rank 25th percentile of the epochs' median
/// latencies, 75th of their throughputs): what disturbs a shared VM only
/// ever slows an epoch down, and it comes in spells of seconds, so some
/// epochs of a run escape it.
pub fn run_untraced(plan: &Plan, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let oracle = Oracle::compute(plan);
    let epoch_s = seconds / EPOCHS as f64;

    let (mut setups, mut p50_ms, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_reads = Vec::new();
    let mut peak_rss_mb = 0.0;
    for epoch in 0..EPOCHS {
        let (mut live, took) = setup(plan, &oracle, &mut outcome);
        setups.push(took);
        let memory_epoch = epoch == 0;
        let until = if memory_epoch {
            Until::Steps(plan.steps_in(epoch_s))
        } else {
            Until::Deadline(Instant::now() + Duration::from_secs_f64(epoch_s))
        };
        let mut measured = measure(&mut live, plan, &oracle, until);
        if memory_epoch {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        live.teardown();
        outcome.absorb(&measured.tally);
        let reads = &mut measured.tally.read_ns;
        reads.sort_unstable();
        let Some(p50) = stats::percentile(reads, 50.0) else {
            outcome
                .failures
                .push("an epoch completed no correct query".to_string());
            outcome.failed = outcome.failed.max(1);
            return outcome;
        };
        if !memory_epoch {
            p50_ms.push(p50 as f64 / 1e6);
            qps.push(reads.len() as f64 / (measured.phase_ns as f64 / 1e9));
            all_reads.append(reads);
        }
    }
    all_reads.sort_unstable();
    eprintln!(
        "[{}] samples {} p95 {} p99 {} oracle {:.2}s; set-ups {:.3?} s; per timed epoch: p50_ms {:.4?} 1/s {:.0?}",
        plan.kind.name(),
        all_reads.len(),
        tail_ms(stats::supported_percentile(&all_reads, 95.0)),
        tail_ms(stats::supported_percentile(&all_reads, 99.0)),
        oracle.seconds,
        setups,
        p50_ms,
        qps,
    );
    let better_quartile = |values: &mut [f64], higher_is_better: bool| {
        values.sort_by(f64::total_cmp);
        let p = if higher_is_better { 75.0 } else { 25.0 };
        stats::percentile(values, p).expect("every epoch reported")
    };
    outcome.metrics = vec![
        Metric::new("setup_s", stats::median(&setups).expect("set-ups ran"), "s"),
        Metric::new("query_p50_ms", better_quartile(&mut p50_ms, false), "ms"),
        Metric::new("queries_per_s", better_quartile(&mut qps, true), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    outcome
}

fn tail_ms(ns: Option<u64>) -> String {
    ns.map_or_else(
        || "n/a".to_string(),
        |ns| format!("{:.3} ms", ns as f64 / 1e6),
    )
}
