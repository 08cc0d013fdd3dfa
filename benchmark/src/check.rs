//! Validation of `BENCHMARK.json` and comparison of two result files:
//! what `benchmark/check.sh` and a later regression gate run.

use crate::json::Json;
use crate::workloads::Kind;

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys_are(obj: &Json, expected: &[&str]) -> bool {
    obj.as_obj().is_some_and(|pairs| {
        pairs.len() == expected.len()
            && expected
                .iter()
                .all(|k| pairs.iter().any(|(have, _)| have == k))
    })
}

/// Check `BENCHMARK.json` against the driver's contract (keys, name and
/// unit alphabets, counts, bounds, `setup_s`) and against what this
/// benchmark promises beyond it: the workloads are among kbench's six
/// (the driver gates the ones that hold still on a shared VM; `kbench
/// run` measures all six), each with a one-line reason, and every
/// per-layer metric appears in
/// `layers` (the layer → end-to-end map, `benchmark/layers.json`) with
/// the end-to-end metrics it should move and the workloads to watch.
/// Returns the gates, or every problem found.
pub fn validate(benchmark: &Json, layers: &Json) -> Result<Vec<Gate>, Vec<String>> {
    let mut problems: Vec<String> = Vec::new();
    if !keys_are(
        benchmark,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    ) {
        problems.push("top level must have exactly: command, paths, run_seconds, workloads, end_to_end, per_layer".into());
    }
    let list = |key: &str| benchmark.get(key).and_then(Json::as_arr).unwrap_or(&[]);

    let command = list("command");
    if command.is_empty()
        || command.len() > 32
        || command
            .iter()
            .any(|c| c.as_str().is_none_or(|s| s.len() > 200))
    {
        problems.push("command: 1 to 32 strings of at most 200 characters".into());
    }
    let paths = list("paths");
    if paths.is_empty() || paths.len() > 16 {
        problems.push("paths: 1 to 16 directories".into());
    }
    match benchmark.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        _ => problems.push("run_seconds: a whole number from 1 to 60".into()),
    }

    // Every name is well-formed and used once across the whole file.
    let mut seen = std::collections::BTreeSet::new();
    let mut unique = |name: &str, problems: &mut Vec<String>| {
        if !valid_name(name) {
            problems.push(format!(
                "name {name:?} must match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if !seen.insert(name.to_string()) {
            problems.push(format!("name {name:?} is used twice"));
        }
    };

    let workloads = list("workloads");
    if !(2..=8).contains(&workloads.len()) {
        problems.push("workloads: 2 to 8".into());
    }
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("");
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if !keys_are(w, &["name", "why"]) {
            problems.push(format!("workload {name:?}: exactly the keys name, why"));
        }
        unique(name, &mut problems);
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {name:?}: why must be one line of at most 200 characters"
            ));
        }
        if Kind::parse(name).is_none() {
            problems.push(format!("workload {name:?} is not one kbench runs"));
        }
    }
    let mut gates = Vec::new();
    let end_to_end = list("end_to_end");
    if !(1..=16).contains(&end_to_end.len()) {
        problems.push("end_to_end: 1 to 16 metrics".into());
    }
    for m in end_to_end {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let better = m.get("better").and_then(Json::as_str).unwrap_or("");
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0);
        if !keys_are(m, &["name", "unit", "better", "bound"]) {
            problems.push(format!(
                "end_to_end {name:?}: exactly the keys name, unit, better, bound"
            ));
        }
        unique(name, &mut problems);
        if !valid_unit(unit) {
            problems.push(format!("end_to_end {name:?}: bad unit {unit:?}"));
        }
        if !["lower", "higher"].contains(&better) {
            problems.push(format!(
                "end_to_end {name:?}: better is \"lower\" or \"higher\""
            ));
        }
        if !(bound > 0.0 && bound <= 0.25) {
            problems.push(format!("end_to_end {name:?}: bound must be in (0, 0.25]"));
        }
        gates.push(Gate {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: better == "higher",
            bound,
        });
    }
    match gates.iter().find(|g| g.name == "setup_s") {
        Some(g) if g.unit == "s" && !g.higher_is_better => {
            if gates.iter().any(|other| other.bound > g.bound) {
                problems.push("setup_s must carry the largest bound".into());
            }
        }
        _ => problems.push("end_to_end must include setup_s, unit s, better lower".into()),
    }

    let per_layer = list("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        problems.push("per_layer: 1 to 128 metrics".into());
    }
    let gate_names: Vec<&str> = gates.iter().map(|g| g.name.as_str()).collect();
    for m in per_layer {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        if !keys_are(m, &["name", "unit", "better"]) {
            problems.push(format!(
                "per_layer {name:?}: exactly the keys name, unit, better"
            ));
        }
        unique(name, &mut problems);
        if !valid_unit(unit) {
            problems.push(format!("per_layer {name:?}: bad unit {unit:?}"));
        }
        if !["lower", "higher"].contains(&m.get("better").and_then(Json::as_str).unwrap_or("")) {
            problems.push(format!(
                "per_layer {name:?}: better is \"lower\" or \"higher\""
            ));
        }
        // The interaction map: which end-to-end metric this layer
        // metric should move, and on which workloads.
        let Some(entry) = layers.get(name) else {
            problems.push(format!("per_layer {name:?} has no entry in layers.json"));
            continue;
        };
        let strings = |key: &str| -> Vec<&str> {
            entry
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .collect()
        };
        let (moves, on) = (strings("moves"), strings("on"));
        if moves.is_empty() || on.is_empty() {
            problems.push(format!(
                "layers.json {name:?}: needs non-empty \"moves\" and \"on\""
            ));
        }
        // "context" marks size and noise indicators that explain a
        // number rather than move one; [`UNGATED_CPU`] is a whole-query
        // cost the traced run reports without a bound.
        for m in moves {
            if m != "context" && m != UNGATED_CPU && !gate_names.contains(&m) {
                problems.push(format!(
                    "layers.json {name:?}: {m:?} is not an end-to-end metric"
                ));
            }
        }
        for w in on.iter().chain(&strings("idle_on")) {
            if *w != "all" && Kind::parse(w).is_none() {
                problems.push(format!("layers.json {name:?}: {w:?} is not a workload"));
            }
        }
    }
    if problems.is_empty() {
        Ok(gates)
    } else {
        Err(problems)
    }
}

/// CPU time per query over the traced run's pass. ISSUE 11 gated it;
/// on the shared VM it read 3.1 or 4.5 ms on `doe_cold` depending on
/// what the machine had run just before, so it is reported per layer,
/// without a bound, and layer metrics may still name it as what they move.
pub const UNGATED_CPU: &str = "client.cpu_ms_per_query";

/// The value of `metric` on `workload` in a kbench result file.
fn value_of(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .path(&format!("metrics/{metric}/value"))
        .and_then(Json::as_f64)
}

/// Counts that must repeat exactly between two traced runs of one
/// commit and seed (the traced run drives a single connection).
pub const EXACT_COUNTS: [&str; 3] = [
    "drivers.wire_requests_per_query",
    "opt.rules_fired",
    "exec.rows_out_per_query",
];

/// One line of a comparison.
#[derive(Debug)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change in the direction of "worse" (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Compare result file `b` (the candidate) against `a` (the baseline):
/// every end-to-end metric on every workload both files hold. A metric
/// fails when `b` is worse than `a` by more than the metric's own
/// bound — or, with `symmetric`, when it differs by more than the bound
/// either way, which is what two runs of the *same* code must satisfy.
/// Exact-count metrics, when both files hold them, must be identical.
pub fn compare(
    a: &Json,
    b: &Json,
    gates: &[Gate],
    symmetric: bool,
) -> Result<Vec<Verdict>, String> {
    for (label, file) in [("first", a), ("second", b)] {
        if file.get("smoke").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "the {label} file is a smoke run; smoke numbers are not compared"
            ));
        }
    }
    let mut verdicts = Vec::new();
    for kind in Kind::ALL {
        let workload = kind.name();
        for gate in gates {
            let (Some(va), Some(vb)) = (
                value_of(a, workload, &gate.name),
                value_of(b, workload, &gate.name),
            ) else {
                continue;
            };
            if va <= 0.0 {
                return Err(format!(
                    "{workload}/{}: baseline value {va} is not positive",
                    gate.name
                ));
            }
            let change = (vb - va) / va;
            let worse_by = if gate.higher_is_better {
                -change
            } else {
                change
            };
            let ok = if symmetric {
                worse_by.abs() <= gate.bound
            } else {
                worse_by <= gate.bound
            };
            verdicts.push(Verdict {
                workload: workload.to_string(),
                metric: gate.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound: gate.bound,
                ok,
            });
        }
        for metric in EXACT_COUNTS {
            if let (Some(va), Some(vb)) =
                (value_of(a, workload, metric), value_of(b, workload, metric))
            {
                verdicts.push(Verdict {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                    a: va,
                    b: vb,
                    worse_by: if va == vb { 0.0 } else { f64::INFINITY },
                    bound: 0.0,
                    ok: va == vb,
                });
            }
        }
    }
    if verdicts.is_empty() {
        return Err("the two files share no workload and metric to compare".to_string());
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let workloads: Vec<Json> = Kind::ALL[..2]
            .iter()
            .map(|k| {
                Json::obj([
                    ("name", Json::str(k.name())),
                    ("why", Json::str("one line")),
                ])
            })
            .collect();
        let e2e = |name: &str, unit: &str, better: &str, bound: f64| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better)),
                ("bound", Json::Num(bound)),
            ])
        };
        Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("cargo"), Json::str("run")]),
            ),
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            ("run_seconds", Json::Num(10.0)),
            ("workloads", Json::Arr(workloads)),
            (
                "end_to_end",
                Json::Arr(vec![
                    e2e("setup_s", "s", "lower", 0.25),
                    e2e("query_p50_ms", "ms", "lower", 0.1),
                    e2e("queries_per_s", "1/s", "higher", 0.1),
                ]),
            ),
            (
                "per_layer",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("cpl.parse_us")),
                    ("unit", Json::str("us")),
                    ("better", Json::str("lower")),
                ])]),
            ),
        ])
    }

    fn layers_json() -> Json {
        Json::obj([(
            "cpl.parse_us",
            Json::obj([
                (
                    "moves",
                    Json::Arr(vec![Json::str("query_p50_ms"), Json::str(UNGATED_CPU)]),
                ),
                ("on", Json::Arr(vec![Json::str("adhoc_compile")])),
                ("idle_on", Json::Arr(vec![Json::str("warm_hits")])),
            ]),
        )])
    }

    fn replace(doc: &Json, key: &str, value: Json) -> Json {
        Json::Obj(
            doc.as_obj()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
    }

    #[test]
    fn a_well_formed_benchmark_validates() {
        let gates = validate(&benchmark_json(), &layers_json()).expect("valid");
        assert_eq!(gates.len(), 3);
        assert!(gates[2].higher_is_better && !gates[0].higher_is_better);
    }

    #[test]
    fn validation_reports_each_kind_of_problem() {
        let doc = benchmark_json();
        let problems_of = |d: &Json, l: &Json| validate(d, l).unwrap_err().join("\n");
        // A layer metric nobody said what it should move.
        assert!(problems_of(&doc, &Json::obj::<&str>([])).contains("no entry in layers.json"));
        // An extra top-level key, as ISSUE 11's `baseline` block would be.
        let mut pairs = doc.as_obj().unwrap().to_vec();
        pairs.push(("baseline".to_string(), Json::Null));
        assert!(problems_of(&Json::Obj(pairs), &layers_json()).contains("exactly"));
        // A bound above a quarter, a bad name, no setup_s; too few workloads,
        // a workload kbench does not have.
        let bad_e2e = Json::Arr(vec![Json::obj([
            ("name", Json::str("bad name")),
            ("unit", Json::str("ms")),
            ("better", Json::str("lower")),
            ("bound", Json::Num(0.5)),
        ])]);
        let text = problems_of(&replace(&doc, "end_to_end", bad_e2e), &layers_json());
        assert!(
            text.contains("bound must be in")
                && text.contains("must match")
                && text.contains("setup_s")
        );
        let one = Json::Arr(doc.get("workloads").unwrap().as_arr().unwrap()[..1].to_vec());
        assert!(problems_of(&replace(&doc, "workloads", one), &layers_json()).contains("2 to 8"));
        let stranger = Json::Arr(vec![
            Json::obj([
                ("name", Json::str("doe_cold")),
                ("why", Json::str("one line")),
            ]),
            Json::obj([("name", Json::str("tpc_h")), ("why", Json::str("one line"))]),
        ]);
        assert!(
            problems_of(&replace(&doc, "workloads", stranger), &layers_json())
                .contains("is not one kbench runs")
        );
        // A layer map pointing at a metric that is not gated.
        let stray = Json::obj([(
            "cpl.parse_us",
            Json::obj([
                ("moves", Json::Arr(vec![Json::str("latency")])),
                ("on", Json::Arr(vec![Json::str("nowhere")])),
            ]),
        )]);
        let text = problems_of(&doc, &stray);
        assert!(text.contains("not an end-to-end metric") && text.contains("not a workload"));
    }

    fn results(p50: f64, qps: f64, rules: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "doe_cold",
                Json::obj([(
                    "metrics",
                    Json::obj([
                        ("query_p50_ms", metric(p50)),
                        ("queries_per_s", metric(qps)),
                        ("opt.rules_fired", metric(rules)),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn compare_is_direction_aware_and_symmetric_on_request() {
        let gates = validate(&benchmark_json(), &layers_json()).unwrap();
        let base = results(20.0, 50.0, 36.0);
        // 5 % slower, 20 % more throughput: within bounds one-way...
        let v = compare(&base, &results(21.0, 60.0, 36.0), &gates, false).unwrap();
        assert!(v.iter().all(|v| v.ok), "{v:?}");
        // ...but two runs of the same code may not differ by 20 %.
        let v = compare(&base, &results(21.0, 60.0, 36.0), &gates, true).unwrap();
        assert!(v.iter().any(|v| v.metric == "queries_per_s" && !v.ok));
        // Worse by more than the bound fails either way.
        let v = compare(&base, &results(23.0, 50.0, 36.0), &gates, false).unwrap();
        assert!(v
            .iter()
            .any(|v| v.metric == "query_p50_ms" && !v.ok && v.worse_by > 0.14));
        let v = compare(&base, &results(20.0, 40.0, 36.0), &gates, false).unwrap();
        assert!(v.iter().any(|v| v.metric == "queries_per_s" && !v.ok));
        // An exact count that moved fails at any size.
        let v = compare(&base, &results(20.0, 50.0, 37.0), &gates, false).unwrap();
        assert!(v.iter().any(|v| v.metric == "opt.rules_fired" && !v.ok));
    }

    #[test]
    fn compare_refuses_smoke_files_and_disjoint_files() {
        let gates = validate(&benchmark_json(), &layers_json()).unwrap();
        let mut smoke = results(1.0, 1.0, 1.0).as_obj().unwrap().to_vec();
        smoke.push(("smoke".to_string(), Json::Bool(true)));
        assert!(compare(&Json::Obj(smoke), &results(1.0, 1.0, 1.0), &gates, false).is_err());
        let empty = Json::obj([("workloads", Json::obj::<&str>([]))]);
        assert!(compare(&empty, &results(1.0, 1.0, 1.0), &gates, false).is_err());
    }
}
