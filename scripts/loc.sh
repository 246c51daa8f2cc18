#!/usr/bin/env bash
# The three sizes every simplicity PR compares between parent and change,
# for the working tree:
#   1. .rs lines over crates src examples tests vendor
#   2. non-test lines (each file up to its first `#[cfg(test)]`) per crate's
#      src/, and for sim + serve (ROADMAP item 2's gate)
#   3. `pub` items (fn/struct/enum/trait/type/const/static/mod/use lines
#      outside tests) over crates src
# Prints only; run it on both commits and subtract.
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of each file before its first `#[cfg(test)]`, concatenated.
non_test() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 -r awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on'
}

echo "rs_lines $(find crates src examples tests vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
for crate in crates/*/; do
    echo "non_test_lines $(basename "$crate") $(non_test "$crate/src" | wc -l)"
done
echo "non_test_lines sim+serve $(non_test crates/sim/src crates/serve/src | wc -l)"
echo "pub_items $(non_test crates/*/src src |
    grep -cE '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) ')"
