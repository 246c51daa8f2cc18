#!/usr/bin/env bash
# Smoke test: every workload for one second with every check on, then the
# traced closed loop (which also checks that the layer self times
# reconcile). Fails on the first run that exits non-zero. Under a minute
# once built.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for workload in closed_loop sim_replay gateway_paced gateway_flood train_finetune; do
    echo "== $workload"
    bench --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1
done
echo "== closed_loop, traced"
bench --workload closed_loop --seed 1 --seconds 2 --trace 1 | tail -n 1
echo "smoke: all runs correct"
