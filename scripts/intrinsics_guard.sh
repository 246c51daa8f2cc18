#!/usr/bin/env bash
# Fails if a non-test line of crates/linalg/src names an x86-64 vector
# intrinsic (`_mm_`, `_mm256_`, `_mm512_`) outside the lane module, so each
# vector kernel stays one body written over `lanes::Lanes`. A file that
# keeps its own intrinsics must be listed in KEPT with its reason.
#   scripts/intrinsics_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

KEPT=(
    crates/linalg/src/lanes.rs # the lane module: every intrinsic lives here
)

status=0
for f in crates/linalg/src/*.rs; do
    [[ " ${KEPT[*]} " == *" $f "* ]] && continue
    # The file up to its `#[cfg(test)] mod`, as scripts/loc.sh counts it.
    hits=$(awk '
        held { held = 0; if ($0 ~ /^[ \t]*mod /) exit }
        /#\[cfg\(test\)\]/ { held = 1 }
        /(^|[^A-Za-z0-9_])_mm(256|512)?_/ { print FILENAME ":" FNR ": " $0 }' "$f")
    if [[ -n "$hits" ]]; then
        echo "$hits"
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "vector intrinsics outside crates/linalg/src/lanes.rs (see above)" >&2
fi
exit $status
