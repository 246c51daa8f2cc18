#!/usr/bin/env bash
# The three sizes every simplicity PR compares between parent and change,
# for the working tree:
#   1. .rs lines over crates src examples tests vendor
#   2. non-test lines (each file up to its `#[cfg(test)] mod`) per crate's
#      src/, and for sim + serve (ROADMAP item 2's gate)
#   3. `pub` items (fn/struct/enum/trait/type/const/static/mod/use lines
#      outside tests) over crates src
#   4. per crate, non-test `#[target_feature]` functions and lines naming
#      an x86-64 vector intrinsic (`_mm_`, `_mm256_`, `_mm512_`)
# Prints only; run it on both commits and subtract.
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of each file before its first `#[cfg(test)]` module, concatenated.
# A `#[cfg(test)]` on any other item (a test-only reference kept in place)
# does not end the count.
non_test() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 -r awk '
            FNR == 1 { on = 1; held = 0 }
            held { held = 0; if ($0 ~ /^[ \t]*mod /) on = 0; else if (on) print prev }
            on && /#\[cfg\(test\)\]/ { held = 1; prev = $0; next }
            on'
}

echo "rs_lines $(find crates src examples tests vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
for crate in crates/*/; do
    echo "non_test_lines $(basename "$crate") $(non_test "$crate/src" | wc -l)"
done
echo "non_test_lines sim+serve $(non_test crates/sim/src crates/serve/src | wc -l)"
echo "pub_items $(non_test crates/*/src src |
    grep -cE '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use) ')"
for crate in crates/*/; do
    src=$(non_test "$crate/src")
    echo "target_feature_fns $(basename "$crate") $(grep -c '^[[:space:]]*#\[target_feature' <<<"$src" || true)"
    echo "intrinsic_lines $(basename "$crate") $(grep -cE '(^|[^A-Za-z0-9_])_mm(256|512)?_' <<<"$src" || true)"
done
