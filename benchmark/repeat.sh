#!/usr/bin/env bash
# Two full sets of runs of the same commit and seed, back to back, the
# second set in reverse workload order. Fails if any end-to-end metric of
# the second set differs from the first by more than the metric's bound
# in BENCHMARK.json, if a count or outcome that must repeat exactly (taken
# from a traced run of the three deterministic workloads) does not, or if
# any run is incorrect.
#
#   benchmark/repeat.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out=benchmark/out/repeat
mkdir -p "$out"

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed "$seed" --seconds "$seconds" "$@" | tail -n 1
}

run_set() {
    local set="$1"
    shift
    for workload in "$@"; do
        echo "== set $set: $workload"
        bench --workload "$workload" --trace 0 >"$out/$set-$workload.json"
        case "$workload" in
        gateway_*) ;; # live threads: their counts follow the wall clock
        *) bench --workload "$workload" --trace 1 >"$out/$set-$workload.traced.json" ;;
        esac
    done
}

run_set 1 closed_loop sim_replay gateway_paced gateway_flood train_finetune
run_set 2 train_finetune gateway_flood gateway_paced sim_replay closed_loop

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
# Per-pass counts and outcomes that are a pure function of the seed.
EXACT = [
    "core.decisions", "core.config_switches", "core.cost_per_req_uusd",
    "core.slo_violation_pct", "core.val_mape_pct",
    "sim.requests", "sim.batches", "sim.decode_steps",
]
failed = False
for w in (w["name"] for w in spec["workloads"]):
    first, second = (json.load(open(f"{out}/{s}-{w}.json")) for s in (1, 2))
    if not (first["correct"] and second["correct"]):
        print(f"{w}: a run was incorrect")
        failed = True
    for m in spec["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in (first, second))
        diff = abs(b - a) / a
        verdict = "ok" if diff <= m["bound"] else "DIFFERS"
        failed |= diff > m["bound"]
        print(f"{w:<15} {m['name']:<11} {a:>14.4f} {b:>14.4f} {m['unit']:<4} {diff:7.2%} (bound {m['bound']:.0%}) {verdict}")
    if w.startswith("gateway_"):
        continue
    first, second = (json.load(open(f"{out}/{s}-{w}.traced.json")) for s in (1, 2))
    for name in EXACT:
        a, b = (r["metrics"][name]["value"] for r in (first, second))
        if a != b:
            print(f"{w:<15} {name} must repeat exactly: {a!r} vs {b!r}")
            failed = True
sys.exit(1 if failed else 0)
PY
