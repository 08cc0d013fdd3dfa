#!/usr/bin/env bash
# Parent against change, the way every perf claim here is judged (ROADMAP,
# "How a claim is made here"): alternating pairs of kbench runs of one
# workload, a fresh seed per pair, which side runs first alternating too.
#
#   scripts/kbench_pairs.sh PARENT_DIR WORKLOAD[,WORKLOAD...] [PAIRS=10] [SECONDS=30] [FIRST_SEED=100]
#
# A comma-separated list runs the whole protocol once per workload, in
# order — a claim must hold on every gated workload (BENCHMARK.json), so
# `doe_cold,row_stream` is the usual list.
# PARENT_DIR is a checkout of the parent commit (`git clone` or `git archive`
# into /root/scratch/parent); the change is the tree this script sits in.
# kbench is built once per side, in its own checkout. Prints, per end-to-end
# metric of BENCHMARK.json, each side's median and quartiles, in how many
# pairs the change read better (ties counting for neither), and each side's
# failed operations. Judging is the reader's: a gain is claimed when the
# change wins nine pairs in ten and the medians differ by more than the
# parent's own quartile distance. It ends with one traced run per side on
# the first seed and prints every exact-count layer metric that differs
# between them — "the counts moved as predicted and by nothing else" is
# that list — and, from the same two runs, the cache metrics a memory or
# sharing change moves, which depend on timing and are labelled
# "reported, not exact". Exits non-zero only when a run fails or answers
# wrongly. The raw result lines go to benchmark/out/pairs-WORKLOAD.jsonl
# (git-ignored). CI runs one 2 s pair of the tree against itself so that
# this script cannot rot; those numbers mean nothing, and no count may
# differ.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
IFS=, read -ra workloads <<<"$2"
pairs=${3:-10}
seconds=${4:-30}
first_seed=${5:-100}

for side in "$parent" "$change"; do
    cargo build --release --quiet --offline --manifest-path "$side/benchmark/Cargo.toml"
done

mkdir -p "$change/benchmark/out"

# run SIDE DIR PAIR SEED [TRACE=0]: one kbench run of $workload, its
# result line kept in $log under SIDE (a traced run's as pair -1).
run() {
    local result
    result=$(cd "$2" && benchmark/target/release/kbench \
        --workload "$workload" --seed "$4" --seconds "$seconds" --trace "${5:-0}" | tail -n 1)
    echo "{\"side\": \"$1\", \"pair\": $3, \"seed\": $4, \"result\": $result}" >> "$log"
}

for workload in "${workloads[@]}"; do
    log=$change/benchmark/out/pairs-$workload.jsonl
    : > "$log"
    for ((pair = 0; pair < pairs; pair++)); do
        seed=$((first_seed + pair))
        if ((pair % 2 == 0)); then
            run parent "$parent" "$pair" "$seed"
            run change "$change" "$pair" "$seed"
        else
            run change "$change" "$pair" "$seed"
            run parent "$parent" "$pair" "$seed"
        fi
        echo "pair $((pair + 1))/$pairs (seed $seed) done" >&2
    done
    run parent "$parent" -1 "$first_seed" 1
    run change "$change" -1 "$first_seed" 1

    python3 - "$log" "$change/BENCHMARK.json" "$workload" "$seconds" <<'EOF'
import json
import statistics
import sys

log, benchmark, workload, seconds = sys.argv[1:]
runs = [json.loads(line) for line in open(log)]
traced = {r["side"]: r["result"]["metrics"] for r in runs if r["pair"] < 0}
runs = [r for r in runs if r["pair"] >= 0]
metrics = json.load(open(benchmark))["end_to_end"]
# Counts the program makes, which repeat exactly from run to run. The last
# four are the resilience path's and the server's failures: 0 on healthy
# sources (benchmark/README.md), so any other value is a regression.
EXACT = ["drivers.wire_requests_per_query", "drivers.rows_shipped_per_query",
         "drivers.virtual_wire_ms_per_query", "opt.rules_fired", "nrc.plan_nodes",
         "exec.rows_out_per_query", "kleisli.plan_cache_evictions",
         "core.resilience.retries", "core.resilience.timeouts", "server.errors",
         "server.rejected"]
# Cache metrics, which follow the interleaving of connections and so may
# differ between two runs of one tree.
REPORTED = ["exec.result_cache_peak_mb", "exec.result_cache_hit_ratio",
            "server.served_cached_share"]
sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
         for side in ("parent", "change")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


print(f"{workload}: {len(sides['parent'])} pairs of {seconds} s runs, seeds "
      f"{sides['parent'][0]['seed']}..{sides['parent'][-1]['seed']}")
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["result"]["metrics"][name]["value"] for r in rs]
              for side, rs in sides.items()}
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
    print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
          f"change better in {wins}/{len(values['parent'])} pairs, {ties} ties")
    medians = {}
    for side in ("parent", "change"):
        q1, medians[side], q3 = quartiles(values[side])
        print(f"    {side}: median {medians[side]:.4f}  quartiles {q1:.4f}..{q3:.4f}  "
              f"(distance {q3 - q1:.4f})")
    if medians["parent"]:
        print(f"    change / parent: {medians['change'] / medians['parent']:.4f}")
moved = [(name, traced["parent"][name]["value"], traced["change"][name]["value"])
         for name in EXACT]
moved = [(name, p, c) for name, p, c in moved if p != c]
print(f"  exact counts that differ (one traced run a side, seed {sides['parent'][0]['seed']}): "
      f"{'none' if not moved else ''}")
for name, p, c in moved:
    print(f"    {name}: {p:.4f} -> {c:.4f}")
print("  reported, not exact (the same two traced runs):")
for name in REPORTED:
    p, c = (traced[side][name]["value"] for side in ("parent", "change"))
    print(f"    {name}: {p:.4f} -> {c:.4f}")
failed = False
for side, rs in sides.items():
    attempted = sum(r["result"]["attempted"] for r in rs)
    bad = sum(r["result"]["failed"] for r in rs)
    wrong = sum(not r["result"]["correct"] for r in rs)
    print(f"  {side}: {bad} of {attempted} operations failed, {wrong} runs incorrect")
    failed = failed or bad > 0 or wrong > 0
sys.exit(1 if failed else 0)
EOF
done
