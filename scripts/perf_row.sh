#!/usr/bin/env bash
# Append one row per workload to BENCH_perf.jsonl (ROADMAP 3b's trajectory):
# the end-to-end metrics from an untraced run of the BENCHMARK.json command
# and every per-layer metric BENCHMARK.json names from a traced one (a
# metric a workload does not set reads 0 there). Rows are comparable only between
# runs that alternated on the same box; never read one against a stale row.
#   scripts/perf_row.sh <label> [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - "${1:?usage: scripts/perf_row.sh <label> [seed]}" "${2:-1}" <<'PY'
import json, subprocess, sys
label, seed = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
commit = subprocess.check_output(["git", "describe", "--always", "--dirty"], text=True).strip()
def run(workload, trace):
    args = ["--workload", workload, "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", trace]
    result = json.loads(subprocess.check_output(spec["command"] + args, text=True).splitlines()[-1])
    assert result["correct"], f"{workload}: the run failed its checks"
    return {name: m["value"] for name, m in result["metrics"].items()}
with open("BENCH_perf.jsonl", "a") as rows:
    for workload in (w["name"] for w in spec["workloads"]):
        plain, traced = run(workload, "0"), run(workload, "1")
        row = {"commit": commit, "label": label, "workload": workload}
        row.update({m["name"]: plain[m["name"]] for m in spec["end_to_end"]})
        row.update({m["name"]: traced.get(m["name"], 0) for m in spec["per_layer"]})
        rows.write(json.dumps(row) + "\n")
        print(json.dumps(row))
PY
