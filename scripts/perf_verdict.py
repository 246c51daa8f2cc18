#!/usr/bin/env python3
"""Summarise one label's perf pairs in BENCH_perf.jsonl (scripts/perf_pair.sh).

For every workload and every metric BENCHMARK.json names, prints the
parent's and the change's median and interquartile range over the rounds,
and in how many rounds the change was better (the direction BENCHMARK.json
gives; a tie counts as not better). Rounds missing a side are skipped.

    scripts/perf_verdict.py <label>
"""
import json
import statistics
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: scripts/perf_verdict.py <label>")
    label = sys.argv[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = [json.loads(line) for line in (root / "BENCH_perf.jsonl").read_text().splitlines()]
    rows = [r for r in rows if r.get("label") == label and "round" in r]
    if not rows:
        sys.exit(f"no paired rows labelled {label!r}")
    pairs = {}
    for r in rows:
        pairs.setdefault((r["workload"], r["round"]), {})[r["side"]] = r
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<15} {'metric':<34} {'parent p50 (IQR)':>28} {'change p50 (IQR)':>28} better")
    for workload in workloads:
        rounds = [p for (w, _), p in sorted(pairs.items()) if w == workload and len(p) == 2]
        if not rounds:
            continue
        for name, direction in better.items():
            got = [(p["parent"].get(name), p["change"].get(name)) for p in rounds]
            got = [(a, b) for a, b in got if isinstance(a, (int, float)) and isinstance(b, (int, float))]
            if not got or all(a == 0 and b == 0 for a, b in got):
                continue
            a, b = zip(*got)
            wins = sum((y < x) if direction == "lower" else (y > x) for x, y in got)
            (pa1, pa2, pa3), (pb1, pb2, pb3) = quartiles(list(a)), quartiles(list(b))
            print(f"{workload:<15} {name:<34} {pa2:>12.6g} ({pa1:.6g}-{pa3:.6g}) "
                  f"{pb2:>12.6g} ({pb1:.6g}-{pb3:.6g}) {wins}/{len(got)}")


if __name__ == "__main__":
    main()
