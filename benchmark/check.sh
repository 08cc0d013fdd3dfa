#!/usr/bin/env bash
# Is the benchmark itself sound at this commit?
#
#   benchmark/check.sh            validate BENCHMARK.json; run every gated
#                                 workload ten times with ten seeds, twice
#                                 over, and require every end-to-end metric's
#                                 spread and set-to-set worsening to stay
#                                 within its own bound (spread.py, the
#                                 driver's acceptance test; it rewrites
#                                 spreads.json); then two traced runs of all
#                                 six workloads whose exact counts must be
#                                 identical (~45 min)
#   benchmark/check.sh --smoke    same code paths, each workload <= 2 s; the
#                                 numbers are marked "smoke": true, never
#                                 compared and never written to the baseline
#                                 (for a future CI step; ci.yml is not
#                                 edited by the issue that added this)
#
# Sets of ten, not two single runs: on the shared 2-core VM single runs of one
# commit differ by up to 6 % on the gated workloads (36 % on warm_hits, which
# is why the driver does not gate it; see README.md).
#
# Run from anywhere; everything else is written under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

kbench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

seed=1995
out=benchmark/out

kbench validate

if [[ "${1:-}" == "--smoke" ]]; then
    kbench run --smoke --seed "$seed" --out "$out/smoke-run.json"
    kbench trace --smoke --seed "$seed" --out "$out/smoke-trace.json"
    echo "smoke run complete: every workload correct"
    exit 0
fi

python3 benchmark/spread.py

# Counts that must not depend on timing: two traced runs, identical.
kbench trace --seed "$seed" --out "$out/check-trace-a.json"
kbench trace --seed "$seed" --out "$out/check-trace-b.json"
kbench compare "$out/check-trace-a.json" "$out/check-trace-b.json" --symmetric
echo "the benchmark is steady within its own bounds and its counts repeat"
