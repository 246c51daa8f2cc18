#!/usr/bin/env bash
# The steadiness check the bounds were derived from: ten untraced runs of
# each workload, each with another seed, and for every end-to-end metric
# the distance between the first and third quartile of its ten values as
# a share of their median. Takes about twenty minutes.
#
#   benchmark/spread.sh [first-seed]
set -euo pipefail
cd "$(dirname "$0")/.."
first="${1:-101}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out=benchmark/out/spread
mkdir -p "$out"

for workload in closed_loop sim_replay gateway_paced gateway_flood train_finetune; do
    : >"$out/$workload.jsonl"
    for seed in $(seq "$first" $((first + 9))); do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
            tail -n 1 >>"$out/$workload.jsonl"
    done
done

python3 - "$out" <<'PY'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
print(f"{'workload':<15} {'metric':<11} {'median':>14} {'unit':<4} {'spread':>7} {'bound':>6}")
for w in (w["name"] for w in spec["workloads"]):
    runs = [json.loads(line) for line in open(f"{out}/{w}.jsonl")]
    assert all(r["correct"] for r in runs), f"{w}: a run was incorrect"
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        print(f"{w:<15} {m['name']:<11} {median:>14.4f} {m['unit']:<4} {(q3 - q1) / median:7.2%} {m['bound']:6.0%}")
PY
