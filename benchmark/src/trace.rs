//! The traced run: per-layer numbers measured from outside the program.
//!
//! Nothing inside the program is instrumented (that is ROADMAP item 1,
//! a later issue). Instead the run follows one session — connection 0,
//! the others idle, so that one query's own time is what gets split —
//! through one fixed-count pass over the workload's step script:
//!
//! * the whole pass goes through the server, untraced: counter deltas
//!   read through public accessors (STATS, `Driver::metrics`,
//!   `LatencyModel::virtual_elapsed`) and the client latencies;
//! * the reads of its last stretch become `client.query` spans (built
//!   from the latencies the client loop records anyway, so the traced
//!   client path *is* the untraced one), and the same texts are then
//!   replayed in-process, stage by stage, against the same federation
//!   objects, with a span around each call into a layer's public
//!   functions.
//!
//! A fixed count (not a deadline) on one connection, so exact-count
//! metrics repeat exactly. On this sandbox a lone closed-loop client's
//! warm hit is *slower* than under load (its server threads sleep
//! between queries), so `query_p50_ms` of the two-connection workloads
//! is not the traced end-to-end p50.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use kleisli_repro::biodata::{GdbConfig, GenBankConfig, MemorySource};
use kleisli_repro::core::{
    read_exchange, write_exchange, Driver, DriverRef, DriverRequest, Executor, KResult,
    LatencyModel, MetricsSnapshot, Value,
};
use kleisli_repro::exec::{collect_blocks, eval, eval_blocks, Env};
use kleisli_repro::kleisli::{bio_federation, Session};
use kleisli_repro::opt::{optimize_shared, StaticCatalog};
use kleisli_repro::{cpl, nrc};
use kleisli_server::proto::{decode_request, decode_response, encode_request, encode_result_text};
use kleisli_server::{Request, ServedFrom};

use crate::json::Json;
use crate::procfs;
use crate::run::{client_stats, setup, Live, Metric, Oracle, Outcome, Tally, Until};
use crate::stats;
use crate::workloads::{Deployment, Group, Kind, Plan, ServedPath, Step};

/// One recorded span. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query_id: u64,
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, query_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record a span around one call.
    pub fn around<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let query_id = self.spans[parent].query_id;
        let span = self.begin(name, Some(parent), query_id);
        let out = std::hint::black_box(f());
        self.end(span);
        out
    }

    /// [`Recorder::around`] for a stage of a few microseconds: one
    /// unrecorded call first, so the span times the stage with its code
    /// and data in cache, as the server's loop over warm hits runs it. A
    /// first call, made after the replay's heavy stages, reads two to
    /// three times slower; summed, those readings exceeded the whole
    /// round trip of a warm hit.
    pub fn around_warm<T>(&mut self, name: &'static str, parent: usize, f: impl Fn() -> T) -> T {
        std::hint::black_box(f());
        self.around(name, parent, f)
    }

    /// Duration of the span recorded last, µs.
    pub fn last_us(&self) -> f64 {
        let span = self.spans.last().expect("a span was recorded");
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Durations (ns) of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans with this name, µs; 0 if none.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.durations(name)).unwrap_or(0.0) / 1e3
    }

    /// Self time of each span: duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time_ns((s.start_ns, s.end_ns), c))
            .collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// The workload's drivers, for counter snapshots.
fn drivers_of(deployment: &Deployment) -> Vec<DriverRef> {
    let mut drivers: Vec<DriverRef> = Vec::new();
    if let Some(fed) = &deployment.fed {
        drivers.push(fed.gdb.clone());
        drivers.push(fed.genbank.clone());
    }
    if let Some(pubs) = &deployment.pubs {
        drivers.push(pubs.clone());
    }
    drivers
}

fn latency_models(deployment: &Deployment) -> Vec<Arc<LatencyModel>> {
    deployment
        .fed
        .iter()
        .flat_map(|fed| [fed.gdb.latency().clone(), fed.genbank.latency().clone()])
        .collect()
}

/// Counters read from outside, before and after a pass.
struct Counters {
    stats: Json,
    drivers: Vec<MetricsSnapshot>,
    virtual_wire_ns: u128,
}

impl Counters {
    fn read(live: &mut Live) -> Counters {
        let stats = live.conns[0].client.stats().expect("STATS reply");
        Counters {
            stats: Json::parse(&stats).expect("STATS is JSON"),
            drivers: drivers_of(&live.deployment)
                .iter()
                .map(|d| d.metrics())
                .collect(),
            virtual_wire_ns: latency_models(&live.deployment)
                .iter()
                .map(|l| l.virtual_elapsed().as_nanos())
                .sum(),
        }
    }

    fn stat(&self, path: &str) -> f64 {
        self.stats
            .path(path)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("STATS lacks {path}"))
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Field-wise sum of two snapshots (`MetricsSnapshot::merged` joins one
/// driver's traffic with its resilience side; this adds across drivers).
fn add_counters(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        requests: a.requests + b.requests,
        rows_shipped: a.rows_shipped + b.rows_shipped,
        bytes_shipped: a.bytes_shipped + b.bytes_shipped,
        rows_prefetched: a.rows_prefetched + b.rows_prefetched,
        rows_pulled: a.rows_pulled + b.rows_pulled,
        blocks_shipped: a.blocks_shipped + b.blocks_shipped,
        prefetch_grows: a.prefetch_grows + b.prefetch_grows,
        prefetch_shrinks: a.prefetch_shrinks + b.prefetch_shrinks,
        timeouts: a.timeouts + b.timeouts,
        retries: a.retries + b.retries,
        hedges_fired: a.hedges_fired + b.hedges_fired,
        hedge_wins: a.hedge_wins + b.hedge_wins,
        breaker_opens: a.breaker_opens + b.breaker_opens,
        coalesced: a.coalesced + b.coalesced,
        batch_requests: a.batch_requests + b.batch_requests,
        batched_keys: a.batched_keys + b.batched_keys,
    }
}

/// A static optimizer catalog built from what the drivers advertise:
/// the same capabilities and table statistics the session's own
/// catalog reads, so `optimize_shared` called from here fires the same
/// rules as the session's compile.
fn static_catalog(deployment: &Deployment) -> StaticCatalog {
    let mut catalog = StaticCatalog::new();
    for driver in drivers_of(deployment) {
        catalog.add_driver(driver.name(), driver.capabilities());
        for table in [
            "locus",
            "object_genbank_eref",
            "locus_cyto_location",
            "publications",
        ] {
            if let Some(stats) = driver.table_stats(table) {
                catalog.add_table(driver.name(), table, stats);
            }
        }
    }
    catalog
}

/// Rows in a reply: elements of a collection, or of every collection
/// field of a record (`row_stream`'s record of three scans).
fn cardinality(v: &Value) -> usize {
    match (v.len(), v) {
        (Some(n), _) => n,
        (None, Value::Record(fields)) => fields.iter().filter_map(|(_, f)| f.len()).sum(),
        (None, _) => 1,
    }
}

/// Per-query facts the replay collects beside its spans.
#[derive(Default)]
struct ReplayFacts {
    rules_fired: Vec<f64>,
    plan_nodes: Vec<f64>,
    rows_out: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// Batching and resilience counters of the replayed executions
    /// (kept per session, outside the drivers, so only the session
    /// that ran the query can report them).
    session_counters: MetricsSnapshot,
    /// `compile_cold` minus parse, infer and optimize, µs.
    compile_rest_us: Vec<f64>,
}

/// The in-process sessions the replay runs stages on.
struct Replay {
    /// Registered with the *same* driver objects the server uses.
    session: Session,
    /// Texts repeat, so a cold compile needs the plan cache cleared. Where
    /// they never do, every compile misses anyway, and on a full cache
    /// the miss includes the eviction the server's session pays.
    texts_repeat: bool,
    driver_names: Vec<String>,
    catalog: StaticCatalog,
    /// The same seeded data at zero latency (real-latency workloads
    /// only): what `run_compiled` costs when nothing waits on a wire.
    twin: Option<(Deployment, Session)>,
}

impl Replay {
    fn new(plan: &Plan, live: &Live) -> Replay {
        let mut session = Session::new();
        plan.install(&live.deployment, &mut session);
        let real_latency = latency_models(&live.deployment).iter().any(|l| l.is_real());
        let twin = real_latency.then(|| {
            let deployment = plan.deploy(false);
            let mut session = Session::new();
            plan.install(&deployment, &mut session);
            (deployment, session)
        });
        Replay {
            session,
            texts_repeat: !plan.nonced,
            driver_names: drivers_of(&live.deployment)
                .iter()
                .map(|d| d.name().to_string())
                .collect(),
            catalog: static_catalog(&live.deployment),
            twin,
        }
    }

    /// This session's view of every driver's counters, summed.
    fn session_counters(&self) -> MetricsSnapshot {
        self.driver_names
            .iter()
            .filter_map(|name| self.session.driver_metrics(name).ok())
            .fold(MetricsSnapshot::default(), |sum, m| add_counters(&sum, &m))
    }

    /// Run the stages of one query in order, a span around each call.
    /// Returns the in-process result for the oracle check and how long
    /// each stage the attribution counts took.
    fn query(
        &self,
        rec: &mut Recorder,
        facts: &mut ReplayFacts,
        query_id: u64,
        text: &str,
    ) -> KResult<(Value, Stages)> {
        let root = rec.begin("query", None, query_id);
        let mut stages = Stages::default();

        let request = Request::Query {
            id: query_id,
            src: text.to_string(),
        };
        rec.around_warm("server.proto_request", root, || {
            decode_request(&encode_request(&request)).expect("request round-trips")
        });
        stages.proto_request = rec.last_us();

        rec.around("cpl.parse", root, || cpl::parse_expr(text))?;
        let parse_us = rec.last_us();

        if self.texts_repeat {
            self.session.clear_plan_cache();
        }
        let compiled = rec.around("kleisli.compile_cold", root, || {
            self.session.compile_shared(text)
        })?;
        stages.compile_cold = rec.last_us();

        rec.around("nrc.infer", root, || {
            nrc::infer(&compiled.raw, &nrc::TypeEnv::new())
        })?;
        let infer_us = rec.last_us();

        let raw = Arc::new(compiled.raw.clone());
        let (_, fired) = rec.around("opt.optimize", root, || {
            optimize_shared(raw, &self.catalog, self.session.opt_config())
        });
        assert_eq!(
            fired.len(),
            compiled.trace.len(),
            "the static catalog must drive the optimizer exactly as the session's does"
        );
        facts
            .compile_rest_us
            .push(stages.compile_cold - parse_us - infer_us - rec.last_us());
        facts.rules_fired.push(compiled.trace.len() as f64);
        facts.plan_nodes.push(compiled.optimized.size() as f64);

        rec.around_warm("kleisli.plan_cache_hit", root, || {
            self.session.compile_shared(text)
        })?;
        stages.plan_cache_hit = rec.last_us();
        rec.around_warm("nrc.plan_hash", root, || {
            nrc::plan_hash(&compiled.optimized)
        });
        stages.plan_hash = rec.last_us();

        rec.around("exec.run_compiled", root, || {
            self.session.run_compiled(&compiled)
        })?;
        // What the server itself calls: evaluation as an executor task
        // behind a `QueryHandle`, rows streamed into the handle.
        let counters_before = self.session_counters();
        let value = rec.around("exec.submit_wait", root, || {
            self.session.submit_compiled(&compiled).wait()
        })?;
        stages.submit_wait = rec.last_us();
        let spent = self.session_counters().since(&counters_before);
        facts.session_counters = add_counters(&facts.session_counters, &spent);
        match &self.twin {
            Some((_, twin)) => {
                let twin_plan = twin.compile_shared(text)?;
                rec.around("exec.submit_wait_nowire", root, || {
                    twin.submit_compiled(&twin_plan).wait()
                })?;
                stages.wire_wait = (stages.submit_wait - rec.last_us()).max(0.0);
            }
            None => {
                // Zero latency: the two evaluators can be compared on
                // the same optimized plan and context.
                let ctx = self.session.context();
                if let Some(kind) = compiled.optimized.coll_kind_hint() {
                    ctx.cache_clear();
                    rec.around("exec.block_eval", root, || {
                        eval_blocks(&compiled.optimized, &Env::empty(), &ctx)
                            .and_then(|blocks| collect_blocks(blocks, kind))
                    })?;
                }
                ctx.cache_clear();
                rec.around("exec.eager_eval", root, || {
                    eval(&compiled.optimized, &Env::empty(), &ctx)
                })?;
            }
        }
        facts.rows_out.push(cardinality(&value) as f64);

        let text_out = rec.around("core.token.write_exchange", root, || write_exchange(&value));
        stages.write_exchange = rec.last_us();
        facts.reply_bytes.push(text_out.len() as f64);
        rec.around_warm("server.proto_response", root, || {
            decode_response(&encode_result_text(query_id, ServedFrom::Fresh, &text_out))
                .expect("response round-trips")
        });
        stages.proto_response = rec.last_us();
        rec.around_warm("core.token.read_exchange", root, || {
            read_exchange(&text_out)
        })?;
        stages.read_exchange = rec.last_us();
        rec.end(root);
        Ok((value, stages))
    }
}

/// Driver-layer costs on fixed zero-latency sources, independent of the
/// workload: what one scan or link lookup costs the mediator's CPU.
struct DriverCosts {
    sybase_scan_us_per_krow: f64,
    entrez_links_request_us: f64,
    biodata_scan_us_per_krow: f64,
}

fn driver_costs(seed: u64) -> DriverCosts {
    let fed = bio_federation(
        &GdbConfig {
            loci: 600,
            seed,
            ..GdbConfig::default()
        },
        &GenBankConfig {
            extra_entries: 150,
            links_per_entry: 4,
            seed,
            ..GenBankConfig::default()
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("generated federation loads");
    let pubs = MemorySource::publications(2000, seed);
    // Median time to submit `request`, wait, and drain every row.
    let drained_us = |driver: &dyn Driver, request: &DriverRequest, reps: usize| -> (f64, usize) {
        let mut rows = 0;
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                let stream = driver
                    .submit(request)
                    .and_then(|h| h.wait())
                    .expect("driver answers");
                rows = stream.filter(|row| row.is_ok()).count();
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        (stats::median(&times).expect("reps > 0"), rows)
    };
    let scan = |table: &str| DriverRequest::TableScan {
        table: table.to_string(),
        columns: None,
    };
    let (gdb_us, gdb_rows) = drained_us(&*fed.gdb, &scan("locus"), 15);
    let (links_us, _) = drained_us(
        &*fed.genbank,
        &DriverRequest::EntrezLinks {
            db: "na".to_string(),
            uid: fed.genbank_data.entries[0].uid,
        },
        50,
    );
    let (pubs_us, pubs_rows) = drained_us(&pubs, &scan("publications"), 15);
    DriverCosts {
        sybase_scan_us_per_krow: gdb_us * 1000.0 / gdb_rows as f64,
        entrez_links_request_us: links_us,
        biodata_scan_us_per_krow: pubs_us * 1000.0 / pubs_rows as f64,
    }
}

/// How long the stages the attribution counts took for one replayed
/// query, µs, beside what the same text took through the server.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    /// `Client::query` latency of the same step through the server.
    pub end_to_end: f64,
    pub proto_request: f64,
    pub proto_response: f64,
    pub plan_hash: f64,
    pub compile_cold: f64,
    pub plan_cache_hit: f64,
    pub submit_wait: f64,
    /// `submit_wait` minus the same plan on the zero-latency twin.
    pub wire_wait: f64,
    pub write_exchange: f64,
    pub read_exchange: f64,
}

/// Name of the residual in the span file: end-to-end minus every
/// measured group — sockets, thread hand-offs and wake-ups, admission,
/// cache bookkeeping, what no public call exposes to a span from outside.
pub const RESIDUAL: &str = "unattributed";

impl Stages {
    /// Split this query's end-to-end time over [`Group::ALL`], in that
    /// order, the residual last. Only the stages the server actually
    /// performs for this workload's typical query count (a warm hit
    /// neither compiles nor executes).
    fn split(&self, path: ServedPath) -> [f64; 6] {
        let runs = path != ServedPath::ResultHit;
        let wire = if runs { self.wire_wait } else { 0.0 };
        let exec = if runs {
            (self.submit_wait - wire).max(0.0)
        } else {
            0.0
        };
        // The client always decodes; the server serializes only what it
        // ran (a warm hit reuses the cached exchange text).
        let token = self.read_exchange + if runs { self.write_exchange } else { 0.0 };
        let compile = self.plan_hash
            + match path {
                ServedPath::ColdCompileAndRun => self.compile_cold,
                _ => self.plan_cache_hit,
            };
        // `decode_response` parses the exchange text itself; that part
        // is already counted under core.token.
        let framing = self.proto_request + (self.proto_response - self.read_exchange).max(0.0);
        let measured = wire + exec + token + compile + framing;
        [
            wire,
            exec,
            token,
            compile,
            framing,
            self.end_to_end - measured,
        ]
    }
}

/// How the end-to-end time of the traced queries splits over the layer
/// groups. Every figure is a median over the queries of a per-query
/// value: a sum of stage medians is not the median of the sums when the
/// shapes of a workload differ in size.
pub struct Attribution {
    /// Per layer group, [`RESIDUAL`] last: µs, and share of the query's
    /// own end-to-end time in percent.
    pub groups: Vec<(&'static str, f64, f64)>,
    pub end_to_end_us: f64,
    /// The intended group set (or, with no intention, the largest).
    pub dominant_layer: String,
    pub dominant_share_pct: f64,
    /// The intended set holds a larger share than every other group and,
    /// unless the set includes the server, than the residual.
    pub confirmed: bool,
}

/// Index of the residual in [`Stages::split`].
const RESIDUAL_PART: usize = Group::ALL.len();

/// Judge which layer group dominates the traced queries. The residual
/// is the server's own waiting: it counts with the `server` group when
/// the question is whether the server dominates, and stands as a rival
/// of its own otherwise.
pub fn attribute(kind: Kind, queries: &[Stages]) -> Attribution {
    let path = kind.served_path();
    let splits: Vec<[f64; 6]> = queries.iter().map(|q| q.split(path)).collect();
    let median_over = |per_query: &dyn Fn(&Stages, &[f64; 6]) -> f64| {
        let values: Vec<f64> = queries
            .iter()
            .zip(&splits)
            .map(|(q, split)| per_query(q, split))
            .collect();
        stats::median(&values).unwrap_or(0.0)
    };
    let us_of = |part: usize| median_over(&|_, split| split[part]);
    let share_of = |parts: &[usize]| {
        median_over(&|q, split| ratio(parts.iter().map(|&p| split[p]).sum(), q.end_to_end) * 100.0)
    };
    let part_of = |g: Group| Group::ALL.iter().position(|&x| x == g).expect("listed");
    let with_residual = |mut parts: Vec<usize>| {
        if parts.contains(&part_of(Group::Server)) {
            parts.push(RESIDUAL_PART);
        }
        parts
    };

    let intended = kind.intended_dominant();
    let (dominant_layer, dominant_share_pct, confirmed) = if intended.is_empty() {
        Group::ALL
            .into_iter()
            .map(|g| {
                (
                    g.name().to_string(),
                    share_of(&with_residual(vec![part_of(g)])),
                    true,
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("groups")
    } else {
        let parts = with_residual(intended.iter().map(|&g| part_of(g)).collect());
        let share = share_of(&parts);
        let names: Vec<&str> = intended.iter().map(|g| g.name()).collect();
        let mut rivals = (0..=RESIDUAL_PART).filter(|p| !parts.contains(p));
        (
            names.join("+"),
            share,
            rivals.all(|p| share_of(&[p]) < share),
        )
    };
    let names = Group::ALL.iter().map(|g| g.name()).chain([RESIDUAL]);
    Attribution {
        groups: names
            .enumerate()
            .map(|(part, name)| (name, us_of(part), share_of(&[part])))
            .collect(),
        end_to_end_us: median_over(&|q, _| q.end_to_end),
        dominant_layer,
        dominant_share_pct,
        confirmed,
    }
}

/// Steps of the traced run's pass, `(before the traced stretch, traced
/// stretch)`: [`Kind::trace_passes`] scaled to the run's length
/// (`--smoke` only shortens the run), in whole shape cycles so that
/// per-query means are exact.
fn pass_sizes(kind: Kind, seconds: f64) -> (u64, u64) {
    let cycles = |steps: u64| ((steps as f64 * seconds / 10.0) as u64 / 3).max(1) * 3;
    let (untraced, traced) = kind.trace_passes();
    (cycles(untraced), cycles(traced).min(198))
}

/// How far the median latency of the traced stretch may lie from that of
/// the stretch just before it, in percent, before the shares stop being
/// believable. The traced client path *is* the untraced one, so a gap
/// is the machine changing speed, or the scheduler moving the threads,
/// during the pass. Runs of one commit stay within 22 %.
const MAX_OVERHEAD_PCT: f64 = 50.0;

/// `--trace 1`: every per-layer metric of one workload, and the span
/// file `benchmark/out/trace-<workload>.json`.
pub fn run_traced(plan: &Plan, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let oracle = Oracle::compute(plan);
    let (mut live, _) = setup(plan, &oracle, &mut outcome);
    let (untraced_steps, traced_steps) = pass_sizes(plan.kind, seconds);

    // One pass through the server, counters read from outside before and
    // after it. Its last stretch is the traced one.
    let before = Counters::read(&mut live);
    let mut rec = Recorder::new();
    let cpu_before = procfs::cpu_seconds();
    let started = Instant::now();
    let origin_ns = rec.now_ns();
    let mut served = live.conns[0].drive(
        plan,
        &live.deployment,
        &oracle,
        Until::Steps(untraced_steps + traced_steps),
        started,
    );
    let served_ns = started.elapsed().as_nanos() as u64;
    let served_cpu_s = procfs::cpu_seconds() - cpu_before;
    let after = Counters::read(&mut live);
    outcome.absorb(&served);
    let last_step = live.conns[0].next_step;
    let first_step = last_step.saturating_sub(traced_steps);

    // Each read of the traced stretch becomes a `client.query` span. A
    // failed read leaves no sample; the run has failed then, and the
    // pairing of samples with steps no longer matters.
    let traced_reads: Vec<u64> = (first_step..last_step)
        .filter(|&i| matches!(plan.step(0, i), Step::Read { .. }))
        .collect();
    let first_traced = served.read_ns.len().saturating_sub(traced_reads.len());
    let mut served_us: BTreeMap<u64, f64> = BTreeMap::new();
    for (sample, &query_id) in (first_traced..served.read_ns.len()).zip(&traced_reads) {
        let (took, done) = (served.read_ns[sample], served.done_ns[sample]);
        served_us.insert(query_id, took as f64 / 1e3);
        rec.spans.push(Span {
            name: "client.query",
            start_ns: origin_ns + done - took,
            end_ns: origin_ns + done,
            parent: None,
            query_id,
        });
    }
    // What the traced stretch is compared with: as many reads just
    // before it.
    let mut before_traced =
        served.read_ns[first_traced.saturating_sub(traced_reads.len())..first_traced].to_vec();
    before_traced.sort_unstable();
    let Some(client) = client_stats(&mut served, served_ns) else {
        outcome
            .failures
            .push("the pass completed no correct query".to_string());
        outcome.failed = outcome.failed.max(1);
        return outcome;
    };
    let queries = client.samples as f64;
    let delta = |path: &str| after.stat(path) - before.stat(path);
    let drivers = after
        .drivers
        .iter()
        .zip(&before.drivers)
        .map(|(a, b)| a.since(b))
        .fold(MetricsSnapshot::default(), |sum, d| add_counters(&sum, &d));
    let virtual_wire_ms = (after.virtual_wire_ns - before.virtual_wire_ns) as f64 / 1e6;

    // The texts of the traced stretch, replayed in-process stage by
    // stage. The sources now hold whatever generation the script has
    // installed, so that is what the replay must return.
    let replay = Replay::new(plan, &live);
    // A compile costs what the session's history makes it cost (the
    // interner has grown, the plan cache is full): the replay session
    // first sees what connection 0's session has seen.
    for i in 0..first_step {
        if let Step::Read { query, nonce } = plan.step(0, i) {
            replay
                .session
                .compile_shared(&plan.text(query, nonce))
                .expect("a text the server has answered compiles");
        }
    }
    let mut facts = ReplayFacts::default();
    let mut attributed = Vec::new();
    let mut replay_failures = Tally::default();
    let generation = Some(plan.generation_before(last_step));
    for i in first_step..last_step {
        let Step::Read { query, nonce } = plan.step(0, i) else {
            continue;
        };
        replay_failures.attempted += 1;
        let verdict = replay
            .query(&mut rec, &mut facts, i, &plan.text(query, nonce))
            .map_err(|e| e.to_string())
            .and_then(|(value, stages)| {
                oracle.check(plan, query, nonce, &value, generation)?;
                Ok(stages)
            });
        match (verdict, served_us.get(&i)) {
            (Ok(stages), Some(&end_to_end)) => attributed.push(Stages {
                end_to_end,
                ..stages
            }),
            (Ok(_), None) => {}
            (Err(what), _) => {
                replay_failures.failed += 1;
                replay_failures
                    .failures
                    .push(format!("step {i}: in-process replay: {what}"));
            }
        }
    }
    outcome.absorb(&replay_failures);
    let connect_ms = stats::median(&live.connect_ms).unwrap_or(0.0);
    live.teardown();

    let attribution = attribute(plan.kind, &attributed);
    let us_of = |group: &str| {
        let (_, us, _) = attribution
            .groups
            .iter()
            .find(|(name, ..)| *name == group)
            .expect("every group listed");
        *us
    };
    let overhead_pct = {
        let before_us = stats::percentile(&before_traced, 50.0).map_or(0.0, |ns| ns as f64 / 1e3);
        ratio(attribution.end_to_end_us - before_us, before_us) * 100.0
    };
    // The acceptance criterion, checked by the run itself: a workload
    // whose traced queries are not dominated by the layer it was built
    // to load, or whose time base moved under the trace, has failed. A
    // smoke run's pass is over within two seconds, a few traced queries
    // at whatever speed the machine starts a process at: its shares are
    // printed and, like its numbers, never judged.
    let problems = [
        (!attribution.confirmed).then(|| {
            format!(
                "the dominant layer is not the intended {} ({:.1} % of a query)",
                attribution.dominant_layer, attribution.dominant_share_pct
            )
        }),
        (overhead_pct.abs() > MAX_OVERHEAD_PCT).then(|| {
            format!("the traced stretch's p50 is {overhead_pct:+.1} % off the stretch before it")
        }),
    ];
    for problem in problems.into_iter().flatten() {
        if plan.smoke {
            eprintln!("[{}] smoke run, not judged: {problem}", plan.kind.name());
        } else {
            outcome.failed += 1;
            outcome.failures.push(problem);
        }
    }
    let costs = driver_costs(plan.seed);
    let mut flushes = served.flush_ns.clone();
    flushes.sort_unstable();
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    let batch = &facts.session_counters;
    // 0 stands for "not supported by this sample" (fewer than ten
    // samples beyond the percentile) and for "does not occur here".
    let us_or_zero = |ns: Option<u64>| ns.map_or(0.0, |ns| ns as f64 / 1e3);

    outcome.metrics = vec![
        Metric::new(
            "server.proto_request_us",
            rec.median_us("server.proto_request"),
            "us",
        ),
        Metric::new(
            "server.proto_response_us",
            rec.median_us("server.proto_response"),
            "us",
        ),
        Metric::new("server.unattributed_us", us_of(RESIDUAL), "us"),
        Metric::new(
            "server.served_cached_share",
            ratio(delta("queries/served_cached"), delta("queries/total")),
            "ratio",
        ),
        Metric::new(
            "server.flush_p50_us",
            us_or_zero(stats::percentile(&flushes, 50.0)),
            "us",
        ),
        Metric::new("server.connect_ms", connect_ms, "ms"),
        Metric::new("server.rejected", delta("queries/rejected"), "count"),
        Metric::new("server.errors", delta("queries/errors"), "count"),
        Metric::new("cpl.parse_us", rec.median_us("cpl.parse"), "us"),
        Metric::new("nrc.infer_us", rec.median_us("nrc.infer"), "us"),
        Metric::new("nrc.plan_hash_us", rec.median_us("nrc.plan_hash"), "us"),
        Metric::new("nrc.plan_nodes", mean(&facts.plan_nodes), "count"),
        Metric::new("opt.optimize_us", rec.median_us("opt.optimize"), "us"),
        Metric::new("opt.rules_fired", mean(&facts.rules_fired), "count"),
        Metric::new(
            "kleisli.compile_cold_us",
            rec.median_us("kleisli.compile_cold"),
            "us",
        ),
        Metric::new(
            "kleisli.compile_rest_us",
            stats::median(&facts.compile_rest_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "kleisli.plan_cache_hit_us",
            rec.median_us("kleisli.plan_cache_hit"),
            "us",
        ),
        Metric::new(
            "kleisli.plan_cache_hit_ratio",
            ratio(
                delta("plan_cache/hits"),
                delta("plan_cache/hits") + delta("plan_cache/misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "kleisli.plan_cache_evictions",
            delta("plan_cache/evictions"),
            "count",
        ),
        Metric::new(
            "exec.run_compiled_us",
            rec.median_us("exec.run_compiled"),
            "us",
        ),
        Metric::new(
            "exec.submit_wait_us",
            rec.median_us("exec.submit_wait"),
            "us",
        ),
        Metric::new("exec.block_eval_us", rec.median_us("exec.block_eval"), "us"),
        Metric::new("exec.eager_eval_us", rec.median_us("exec.eager_eval"), "us"),
        Metric::new("exec.rows_out_per_query", mean(&facts.rows_out), "count"),
        Metric::new(
            "exec.result_cache_hit_ratio",
            ratio(
                delta("result_cache/hits"),
                delta("result_cache/hits") + delta("result_cache/misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "exec.result_cache_evictions",
            delta("result_cache/evictions"),
            "count",
        ),
        Metric::new(
            "exec.result_cache_peak_mb",
            after.stat("result_cache/peak_bytes") / (1024.0 * 1024.0),
            "MB",
        ),
        Metric::new(
            "core.token.write_exchange_us",
            rec.median_us("core.token.write_exchange"),
            "us",
        ),
        Metric::new(
            "core.token.read_exchange_us",
            rec.median_us("core.token.read_exchange"),
            "us",
        ),
        Metric::new("core.token.bytes_per_query", mean(&facts.reply_bytes), "B"),
        Metric::new(
            "core.executor.threads_spawned",
            Executor::shared().threads_spawned() as f64,
            "count",
        ),
        Metric::new(
            "core.pool.rows_prefetched_share",
            ratio(drivers.rows_prefetched as f64, drivers.rows_pulled as f64),
            "ratio",
        ),
        Metric::new(
            "core.pool.rows_per_block",
            ratio(drivers.rows_pulled as f64, drivers.blocks_shipped as f64),
            "count",
        ),
        Metric::new(
            "core.pool.prefetch_shrinks",
            drivers.prefetch_shrinks as f64,
            "count",
        ),
        Metric::new(
            "core.batch.batched_keys_share",
            ratio(
                batch.batched_keys as f64,
                (batch.requests + batch.batched_keys).saturating_sub(batch.batch_requests) as f64,
            ),
            "ratio",
        ),
        Metric::new("core.batch.coalesced", batch.coalesced as f64, "count"),
        Metric::new("core.resilience.retries", batch.retries as f64, "count"),
        Metric::new("core.resilience.timeouts", batch.timeouts as f64, "count"),
        Metric::new(
            "drivers.wire_requests_per_query",
            ratio(drivers.requests as f64, queries),
            "count",
        ),
        Metric::new(
            "drivers.rows_shipped_per_query",
            ratio(drivers.rows_shipped as f64, queries),
            "count",
        ),
        Metric::new(
            "drivers.bytes_shipped_per_query",
            ratio(drivers.bytes_shipped as f64, queries),
            "B",
        ),
        Metric::new(
            "drivers.virtual_wire_ms_per_query",
            ratio(virtual_wire_ms, queries),
            "ms",
        ),
        Metric::new("drivers.wire_wait_us", us_of(Group::Wire.name()), "us"),
        Metric::new(
            "sybase.scan_us_per_krow",
            costs.sybase_scan_us_per_krow,
            "us",
        ),
        Metric::new(
            "entrez.links_request_us",
            costs.entrez_links_request_us,
            "us",
        ),
        Metric::new(
            "biodata.scan_us_per_krow",
            costs.biodata_scan_us_per_krow,
            "us",
        ),
        Metric::new("client.query_p95_us", us_or_zero(client.p95_ns), "us"),
        Metric::new("client.query_p99_us", us_or_zero(client.p99_ns), "us"),
        Metric::new("client.samples", queries, "count"),
        Metric::new(
            "client.cpu_ms_per_query",
            ratio(served_cpu_s * 1e3, queries),
            "ms",
        ),
        Metric::new(
            "client.segment_qps_spread_pct",
            client.segment_spread_pct,
            "%",
        ),
        Metric::new("client.oracle_s", oracle.seconds, "s"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ];
    eprintln!(
        "[{}] traced {} of {} queries; end-to-end p50 {:.1} us; dominant layer {} at {:.1}% ({})",
        plan.kind.name(),
        attributed.len(),
        client.samples,
        attribution.end_to_end_us,
        attribution.dominant_layer,
        attribution.dominant_share_pct,
        if attribution.confirmed {
            "as intended"
        } else {
            "NOT the intended layer"
        },
    );
    write_span_file(plan, &rec, &attribution);
    outcome
}

/// Where kbench leaves its files: `benchmark/out/`, git-ignored.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the spans and the attribution derived from them. A failure to
/// write is reported, not fatal: the metrics were already measured.
fn write_span_file(plan: &Plan, rec: &Recorder, attribution: &Attribution) {
    let self_times = rec.self_times_ns();
    let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, self_ns) in rec.spans.iter().zip(&self_times) {
        *self_by_name.entry(span.name).or_default() += self_ns;
    }
    let num = |n: u64| Json::Num(n as f64);
    let doc = Json::obj([
        ("workload", Json::str(plan.kind.name())),
        ("seed", num(plan.seed)),
        ("dominant_layer", Json::str(&attribution.dominant_layer)),
        (
            "dominant_share_pct",
            Json::Num(attribution.dominant_share_pct),
        ),
        ("dominant_as_intended", Json::Bool(attribution.confirmed)),
        ("end_to_end_p50_us", Json::Num(attribution.end_to_end_us)),
        (
            "group_us",
            Json::obj(
                attribution
                    .groups
                    .iter()
                    .map(|(name, us, _)| (*name, Json::Num(*us))),
            ),
        ),
        (
            "group_share_pct",
            Json::obj(
                attribution
                    .groups
                    .iter()
                    .map(|(name, _, share)| (*name, Json::Num(*share))),
            ),
        ),
        (
            "self_time_ns_by_span",
            Json::obj(self_by_name.into_iter().map(|(name, ns)| (name, num(ns)))),
        ),
        (
            "spans",
            Json::Arr(
                rec.spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                            ("query_id", num(s.query_id)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(format!("trace-{}.json", plan.kind.name()));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_line()));
    match written {
        Ok(()) => eprintln!("[{}] spans written to {}", plan.kind.name(), path.display()),
        Err(e) => eprintln!(
            "[{}] could not write {}: {e}",
            plan.kind.name(),
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_spans_and_computes_self_time() {
        let mut rec = Recorder::new();
        let root = rec.begin("query", None, 7);
        let x = rec.around("a", root, || 41 + 1);
        rec.around("b", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        assert_eq!(x, 42);
        assert_eq!(rec.spans.len(), 3);
        assert!(rec.spans[1..]
            .iter()
            .all(|s| s.parent == Some(root) && s.query_id == 7));
        assert!(rec.spans[2].end_ns - rec.spans[2].start_ns >= 2_000_000);
        let selfs = rec.self_times_ns();
        let root_dur = rec.spans[0].end_ns - rec.spans[0].start_ns;
        let child_dur: u64 = rec.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            selfs[0],
            root_dur - child_dur,
            "children do not overlap here"
        );
        assert_eq!(
            selfs[2],
            rec.spans[2].end_ns - rec.spans[2].start_ns,
            "a leaf is all self time"
        );
        assert!(rec.median_us("b") >= 2000.0);
        assert_eq!(rec.median_us("absent"), 0.0);
    }

    /// A cold compile-and-run query of 1000 µs: compile 304, exec 250,
    /// token 30, framing 21, residual 395.
    fn cold_query() -> Stages {
        Stages {
            end_to_end: 1000.0,
            proto_request: 1.0,
            proto_response: 30.0,
            plan_hash: 4.0,
            compile_cold: 300.0,
            plan_cache_hit: 0.5,
            submit_wait: 250.0,
            wire_wait: 0.0,
            write_exchange: 20.0,
            read_exchange: 10.0,
        }
    }

    fn of(a: &Attribution, group: &str) -> (f64, f64) {
        let (_, us, share) = a.groups.iter().find(|(n, ..)| *n == group).unwrap();
        (*us, *share)
    }

    #[test]
    fn attribution_sums_to_the_end_to_end_time_and_judges_dominance() {
        let m = cold_query();
        let a = attribute(Kind::AdhocCompile, std::slice::from_ref(&m));
        let measured: f64 = a.groups.iter().map(|(_, us, _)| us).sum();
        assert!(
            (measured - 1000.0).abs() < 1e-9,
            "the residual closes the sum"
        );
        assert_eq!(of(&a, RESIDUAL), (395.0, 39.5));
        // The residual is a rival: compile leads every measured layer
        // and still does not dominate.
        assert_eq!(a.dominant_layer, "kleisli.compile");
        assert!(!a.confirmed && (a.dominant_share_pct - 30.4).abs() < 1e-9);
        // A query whose compile outweighs the residual too: confirmed.
        let heavy = Stages {
            compile_cold: 500.0,
            ..m.clone()
        };
        assert!(attribute(Kind::AdhocCompile, std::slice::from_ref(&heavy)).confirmed);
        // ... unless the executor is slower still.
        let slow_exec = Stages {
            submit_wait: 520.0,
            end_to_end: 1500.0,
            ..heavy
        };
        assert!(!attribute(Kind::AdhocCompile, &[slow_exec]).confirmed);
        // A warm hit: no compile, no run, no server-side serialization;
        // the residual is the server's and joins its group.
        let hit = Stages {
            end_to_end: 100.0,
            ..m.clone()
        };
        let a = attribute(Kind::WarmHits, std::slice::from_ref(&hit));
        assert_eq!(
            (of(&a, "exec").0, of(&a, "drivers.wire_wait").0),
            (0.0, 0.0)
        );
        assert_eq!(of(&a, "core.token").0, 10.0);
        assert_eq!(of(&a, "kleisli.compile").0, 4.5);
        assert_eq!(of(&a, "server").0, 21.0);
        assert!((of(&a, RESIDUAL).0 - 64.5).abs() < 1e-9);
        assert!(a.confirmed && (a.dominant_share_pct - 85.5).abs() < 1e-9);
        // Wire wait is carved out of the executor's wall time.
        let remote = Stages {
            end_to_end: 21_000.0,
            submit_wait: 20_000.0,
            wire_wait: 19_000.0,
            ..m.clone()
        };
        let a = attribute(Kind::DoeCold, &[remote]);
        assert!(a.confirmed && a.dominant_layer == "drivers.wire_wait");
        // exec+token is judged as one intended set.
        let a = attribute(
            Kind::CpuTransform,
            &[Stages {
                submit_wait: 500.0,
                ..m.clone()
            }],
        );
        assert_eq!(a.dominant_layer, "exec+core.token");
        assert!(a.confirmed && (a.dominant_share_pct - 53.0).abs() < 1e-9);
        // No intention: the largest group, the residual counted as server.
        let a = attribute(Kind::RefreshMix, &[hit]);
        assert_eq!(a.dominant_layer, "server");
        assert!(a.confirmed);
    }

    #[test]
    fn shares_are_medians_of_per_query_shares() {
        // Three shapes of very different size, all 95 % wire wait: a sum
        // of stage medians over the median latency would say anything
        // but 95 %.
        let shape = |ms: f64| Stages {
            end_to_end: ms * 1000.0,
            submit_wait: ms * 990.0,
            wire_wait: ms * 950.0,
            ..Stages::default()
        };
        let queries = [
            shape(60.0),
            shape(170.0),
            shape(170.0),
            shape(60.0),
            shape(5.0),
        ];
        let a = attribute(Kind::RowStream, &queries);
        assert!((a.dominant_share_pct - 95.0).abs() < 1e-9);
        assert!((of(&a, "exec").1 - 4.0).abs() < 1e-9);
        assert!((of(&a, RESIDUAL).1 - 1.0).abs() < 1e-9);
        assert_eq!(a.end_to_end_us, 60_000.0);
        assert!(a.confirmed);
    }

    #[test]
    fn pass_sizes_are_whole_cycles_within_the_replay_cap() {
        for kind in Kind::ALL {
            let (a, b) = pass_sizes(kind, 10.0);
            assert!(a >= 3 && (3..=200).contains(&b), "{}: {a} {b}", kind.name());
            assert_eq!(b % 3, 0);
            let (sa, sb) = pass_sizes(kind, 2.0);
            assert!(sa <= a && sb <= b && sb >= 3);
        }
    }
}
