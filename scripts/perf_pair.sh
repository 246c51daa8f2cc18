#!/usr/bin/env bash
# Measured pairs for BENCH_perf.jsonl: a parent revision against the
# working tree, `rounds` times, each workload of BENCHMARK.json untraced
# (its end-to-end metrics) and traced (every per-layer metric it names; one
# a workload does not set reads 0). The parent is built in a git worktree
# under target/ (or in PERF_PARENT_DIR, an existing checkout of it).
# closed_loop and train_finetune run both sides at the same time, one per
# vCPU (`taskset -c`), and swap CPUs each round, so both see the host's
# slow stretches; the other three alternate in sequence, the parent first
# on even rounds. Every row carries `side`, `cpu` (null when unpinned) and
# `round`; scripts/perf_verdict.py <label> summarises them.
#   scripts/perf_pair.sh <parent-rev> <label> [seed] [rounds]
# PERF_FIRST_ROUND=<n> numbers the rounds from n, to continue a label.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/perf_pair.sh <parent-rev> <label> [seed] [rounds]"
parent_rev=${1:?$usage}
label=${2:?$usage}
parent=${PERF_PARENT_DIR:-target/perf-parent}
if [ -z "${PERF_PARENT_DIR:-}" ]; then
    if [ -d "$parent" ]; then
        git -C "$parent" checkout -q --detach "$parent_rev"
    else
        git worktree add -q --detach "$parent" "$parent_rev"
    fi
fi
for side in "$parent" .; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done
python3 - "$parent" "$label" "${3:-1}" "${4:-10}" "${PERF_FIRST_ROUND:-0}" <<'PY'
import json, subprocess, sys
parent, label, seed = sys.argv[1], sys.argv[2], sys.argv[3]
rounds = range(int(sys.argv[5]), int(sys.argv[5]) + int(sys.argv[4]))
spec = json.load(open("BENCHMARK.json"))

def stamp(root):
    # The build rewrites benchmark/Cargo.lock and this script appends to
    # BENCH_perf.jsonl: neither makes a run's code dirty.
    git = ["git", "-C", root]
    sha = subprocess.check_output(git + ["rev-parse", "--short", "HEAD"], text=True).strip()
    dirty = subprocess.check_output(
        git + ["status", "--porcelain", "--", ".", ":!BENCH_perf.jsonl", ":!benchmark/Cargo.lock"],
        text=True).strip()
    return sha + ("-dirty" if dirty else "")

sides = {"parent": parent, "change": "."}
commits = {side: stamp(root) for side, root in sides.items()}

def start(side, workload, trace, cpu):
    args = ["--workload", workload, "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", trace]
    pin = [] if cpu is None else ["taskset", "-c", str(cpu)]
    return subprocess.Popen(pin + spec["command"] + args, cwd=sides[side], stdout=subprocess.PIPE, text=True)

def finish(proc, side, workload):
    out = proc.communicate()[0].splitlines()
    result = json.loads(out[-1])
    assert proc.returncode == 0 and result["correct"], f"{side} {workload} failed its checks: {out[-4:]}"
    return {name: m["value"] for name, m in result["metrics"].items()}

def row(side, workload, cpu, rnd, plain, traced):
    out = {"commit": commits[side], "label": label, "workload": workload, "side": side, "cpu": cpu, "round": rnd}
    out.update({m["name"]: plain[m["name"]] for m in spec["end_to_end"]})
    out.update({m["name"]: traced.get(m["name"], 0) for m in spec["per_layer"]})
    return out

pinned = ("closed_loop", "train_finetune")
with open("BENCH_perf.jsonl", "a") as rows:
    for rnd in rounds:
        cpus = {"parent": rnd % 2, "change": 1 - rnd % 2}
        done = []
        for workload in (w["name"] for w in spec["workloads"]):
            if workload in pinned:
                runs = {}
                for trace in ("0", "1"):
                    procs = {s: start(s, workload, trace, cpus[s]) for s in sides}
                    runs[trace] = {s: finish(p, s, workload) for s, p in procs.items()}
                done += [row(s, workload, cpus[s], rnd, runs["0"][s], runs["1"][s]) for s in sides]
            else:
                order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
                for s in order:
                    plain = finish(start(s, workload, "0", None), s, workload)
                    traced = finish(start(s, workload, "1", None), s, workload)
                    done.append(row(s, workload, None, rnd, plain, traced))
        for r in done:
            rows.write(json.dumps(r) + "\n")
            print(json.dumps({k: r[k] for k in ("workload", "side", "cpu", "round", "op_p50_us")}), flush=True)
        rows.flush()
PY
