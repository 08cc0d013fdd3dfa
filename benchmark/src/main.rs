//! `kbench`: see `README.md` beside this crate.
//!
//! ```text
//! kbench --workload W --seed N --seconds S --trace 0|1    one workload, one JSON line (the driver's form)
//! kbench run   [--seed N] [--seconds S] [--smoke] [--workload W] [--out FILE]
//! kbench trace [--seed N] [--seconds S] [--smoke] [--workload W] [--out FILE]
//! kbench compare A.json B.json [--symmetric]
//! kbench validate
//! kbench baseline [--seed N]
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use kbench::check::{compare, validate, Gate};
use kbench::json::Json;
use kbench::run::{run_untraced, Outcome};
use kbench::trace::{out_dir, run_traced};
use kbench::workloads::{Kind, Plan};

const DEFAULT_SEED: u64 = 1995;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
const SMOKE_SECONDS: f64 = 2.0;

/// `--key value` flags and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key @ ("smoke" | "symmetric")) => parsed.switches.push(key.to_string()),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    parsed.flags.push((key.to_string(), value.clone()));
                }
                None => parsed.words.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: {v:?} is not a number")),
        }
    }

    fn workloads(&self) -> Result<Vec<Kind>, String> {
        let named: Vec<&str> = self
            .flags
            .iter()
            .filter(|(k, _)| k == "workload")
            .map(|(_, v)| v.as_str())
            .collect();
        if named.is_empty() {
            return Ok(Kind::ALL.to_vec());
        }
        named
            .into_iter()
            .map(|n| Kind::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect()
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_gates() -> Result<Vec<Gate>, String> {
    let benchmark = read_json(&repo_root().join("BENCHMARK.json"))?;
    let layers = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"))?;
    validate(&benchmark, &layers)
        .map_err(|problems| format!("BENCHMARK.json is invalid:\n  {}", problems.join("\n  ")))
}

fn outcome_json(outcome: &Outcome, smoke: bool) -> Json {
    let mut pairs = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ];
    if smoke {
        pairs.push(("smoke", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// The driver's form: one workload in this process, the result as the
/// last line of stdout.
fn one_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.flag("workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let smoke = args.switch("smoke");
    let mut seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    if smoke {
        seconds = seconds.min(SMOKE_SECONDS);
    }
    let trace = match args.flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let plan = Plan::new(kind, seed, smoke);
    let outcome = if trace {
        run_traced(&plan, seconds)
    } else {
        run_untraced(&plan, seconds)
    };
    for failure in &outcome.failures {
        eprintln!("[{name}] FAILED: {failure}");
    }
    if outcome.metrics.is_empty() {
        return Err(format!("{name}: no metrics could be measured"));
    }
    println!("{}", outcome_json(&outcome, smoke).to_line());
    Ok(ExitCode::SUCCESS)
}

/// Run each workload in its own child process (so `peak_rss_mb` and
/// the process-wide executor are per workload) and gather the results.
fn suite(args: &Args, trace: bool) -> Result<Json, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let smoke = args.switch("smoke");
    let seconds: f64 = args.number(
        "seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    )?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut workloads = Vec::new();
    for kind in args.workloads()? {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if smoke {
            child.arg("--smoke");
        }
        let output = child
            .output()
            .map_err(|e| format!("{}: cannot start: {e}", kind.name()))?;
        if !output.status.success() {
            return Err(format!(
                "{}: child exited with {}",
                kind.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{}: child printed nothing", kind.name()))?;
        let result =
            Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
        print_result(kind, &result);
        workloads.push((kind.name(), result));
    }
    Ok(Json::obj([
        (
            "kind",
            Json::str(if trace { "kbench-trace" } else { "kbench-run" }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn print_result(kind: Kind, result: &Json) {
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "{}  ops_attempted {}  ops_failed {}",
        kind.name(),
        count("attempted"),
        count("failed")
    );
    for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("?");
        println!("  {name:<36} {value:>14.4} {unit}");
    }
}

fn failed_ops(results: &Json) -> f64 {
    results
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(_, r)| r.get("failed").and_then(Json::as_f64))
        .sum()
}

fn write_results(results: &Json, args: &Args, default_name: &str) -> Result<PathBuf, String> {
    let path = args
        .flag("out")
        .map_or_else(|| out_dir().join(default_name), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, results.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run_suite(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let results = suite(args, trace)?;
    let seed = results.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
    let name = format!("{}-{seed}.json", if trace { "trace" } else { "run" });
    let path = write_results(&results, args, &name)?;
    eprintln!("results written to {}", path.display());
    let failed = failed_ops(&results);
    if failed > 0.0 {
        eprintln!("{failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: kbench compare A.json B.json [--symmetric]".to_string());
    };
    let gates = load_gates()?;
    let verdicts = compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &gates,
        args.switch("symmetric"),
    )?;
    let mut ok = true;
    for v in &verdicts {
        println!(
            "{:<4} {:<14} {:<32} {:>14.4} -> {:>14.4}  {:+7.2}% worse (bound {:.0}%)",
            if v.ok { "ok" } else { "FAIL" },
            v.workload,
            v.metric,
            v.a,
            v.b,
            v.worse_by * 100.0,
            v.bound * 100.0
        );
        ok &= v.ok;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measure every metric on every workload at this commit and write
/// `benchmark/baseline.json`: the values later issues quote as "the
/// parent's", with the machine and build they were measured on.
fn run_baseline(args: &Args) -> Result<ExitCode, String> {
    if args.switch("smoke") {
        return Err("smoke numbers are never written to the baseline".to_string());
    }
    load_gates()?;
    let untraced = suite(args, false)?;
    let traced = suite(args, true)?;
    if failed_ops(&untraced) + failed_ops(&traced) > 0.0 {
        return Err("operations failed; no baseline written".to_string());
    }
    let dominant: Vec<(String, Json)> = args
        .workloads()?
        .into_iter()
        .filter_map(|kind| {
            let spans = read_json(&out_dir().join(format!("trace-{}.json", kind.name()))).ok()?;
            let field = |k: &str| spans.get(k).cloned().unwrap_or(Json::Null);
            Some((
                kind.name().to_string(),
                Json::obj([
                    ("dominant_layer", field("dominant_layer")),
                    ("dominant_share_pct", field("dominant_share_pct")),
                    ("dominant_as_intended", field("dominant_as_intended")),
                    ("end_to_end_p50_us", field("end_to_end_p50_us")),
                    ("group_us", field("group_us")),
                    ("group_share_pct", field("group_share_pct")),
                ]),
            ))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let baseline = Json::obj([
        ("note", Json::str("Seed-commit values of every metric on every workload, one run each; BENCHMARK.json may hold only its six contract keys, so ISSUE 11's baseline block lives here.")),
        ("seed", untraced.get("seed").cloned().unwrap_or(Json::Null)),
        ("run_seconds", untraced.get("seconds").cloned().unwrap_or(Json::Null)),
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(nproc as f64)),
        ("profile", Json::str("cargo --release defaults (opt-level 3, no LTO, 16 codegen units, debug off, unwinding panics): the standalone package inherits no [profile] table, and the root workspace overrides only [profile.bench]")),
        (
            "commands",
            Json::obj([
                ("run", Json::str("cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1995")),
                ("trace", Json::str("cargo run --release --manifest-path benchmark/Cargo.toml -- trace --seed 1995")),
                ("compare", Json::str("cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json")),
            ]),
        ),
        ("end_to_end", untraced.get("workloads").cloned().unwrap_or(Json::Null)),
        ("per_layer", traced.get("workloads").cloned().unwrap_or(Json::Null)),
        ("dominant", Json::obj(dominant)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
    std::fs::write(&path, baseline.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("baseline written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    match args.words.first().map(String::as_str) {
        None => one_workload(&args),
        Some("run") => run_suite(&args, false),
        Some("trace") => run_suite(&args, true),
        Some("compare") => run_compare(&args),
        Some("validate") => load_gates().map(|gates| {
            println!("BENCHMARK.json is valid: {} gated metrics", gates.len());
            ExitCode::SUCCESS
        }),
        Some("baseline") => run_baseline(&args),
        Some(other) => Err(format!(
            "unknown command {other:?}; see benchmark/README.md"
        )),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kbench: {message}");
            ExitCode::from(2)
        }
    }
}
