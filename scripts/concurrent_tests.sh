#!/usr/bin/env bash
# Run the test binaries of every suite whose tests write files as two
# concurrent copies each. Each such test works in a directory of its own
# (pid + test name), so a copy that shares a fixed path with the other
# fails here.
#   scripts/concurrent_tests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

executables() {
    cargo test -q --no-run --message-format=json "$@" |
        python3 -c 'import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("executable") and m["profile"]["test"]:
        print(m["executable"])'
}

bins="$(executables -p dbat-bench -p dbat-core -p dbat-nn -p dbat-telemetry -p dbat-workload --lib)
$(executables --test integration_pipeline --test integration_controllers)"
for bin in $bins; do
    "$bin" -q &
    first=$!
    "$bin" -q &
    second=$!
    if ! wait "$first" || ! wait "$second"; then
        echo "failed with two concurrent copies: $bin" >&2
        exit 1
    fi
done
