#!/usr/bin/env python3
"""Is the benchmark steady enough for its own bounds at this commit?

Runs the command of BENCHMARK.json ten times per workload, each time with
another seed, twice over, and writes benchmark/spreads.json: per set, workload
and end-to-end metric the ten values, their median and the distance between
their first and third quartile as a share of it, and per workload and metric
by how much the second set's median is worse than the first's. Exits non-zero
if a spread (setup_s apart) or a worsening exceeds the metric's bound: the
test the driver applies before it accepts the benchmark. About 17 minutes per
set.

    python3 benchmark/spread.py [first_seed]      (from the repository root)
"""
import json
import os
import statistics
import subprocess
import sys

SETS, SEEDS = 2, 10
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 100
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
bound_pct = {m["name"]: 100 * m["bound"] for m in bench["end_to_end"]}
sets = []
os.makedirs("benchmark/out", exist_ok=True)
log = open("benchmark/out/spread-stderr.log", "w")  # the per-epoch values of every run
workloads = [w["name"] for w in bench["workloads"]]
for s in range(SETS):
    values = {workload: {} for workload in workloads}
    # Seed by seed, every workload in turn: a workload's ten runs are then
    # spread over the whole set, as far apart as the machine's moods are
    # long, and each follows another workload's load.
    for seed in range(first_seed + s * SEEDS, first_seed + (s + 1) * SEEDS):
        for workload in workloads:
            run = subprocess.run(
                bench["command"]
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            log.write(f"seed {seed} {run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (workload, seed, run.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    per_workload = {}
    for workload in workloads:
        per_workload[workload] = {}
        for name, v in values[workload].items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            per_workload[workload][name] = {
                "median": median, "iqr_pct": round(100 * (q3 - q1) / median, 2), "values": v}
            print(f"set {s} {workload:14} {name:18} median {median:12.4f} iqr {100 * (q3 - q1) / median:5.2f} %",
                  flush=True)
    sets.append(per_workload)
worse = {}
for workload, metrics in sets[0].items():
    worse[workload] = {}
    for name, first in metrics.items():
        change = sets[-1][workload][name]["median"] / first["median"] - 1
        worse[workload][name] = round(100 * (change if better[name] == "lower" else -change), 2)
json.dump({"first_seed": first_seed, "seeds_per_set": SEEDS, "sets": sets, "second_median_worse_by_pct": worse},
          open("benchmark/spreads.json", "w"), indent=1)
beyond = [f"{workload} {name}: spread {m[name]['iqr_pct']} % of set {s} > {bound_pct[name]} %"
          for s, per_workload in enumerate(sets) for workload, m in per_workload.items()
          for name in better if name != "setup_s" and m[name]["iqr_pct"] > bound_pct[name]]
beyond += [f"{workload} {name}: second median worse by {w[name]} % > {bound_pct[name]} %"
           for workload, w in worse.items() for name in better if w[name] > bound_pct[name]]
print("\n".join(beyond) if beyond else "every spread and every set-to-set change is within its bound")
sys.exit(1 if beyond else 0)
