#!/usr/bin/env bash
# Line census of the two directories ROADMAP.md tracks: per file and per
# directory, total lines, non-test lines (those before the file's first
# `#[cfg(test)]`; the whole file when it has none) and the non-test lines
# that can panic (matching `panic!|\.expect\(|unwrap\(|unreachable!|assert!`).
#
#   scripts/census.sh [DIR...]     default: crates/qsim/src crates/core/src/backend
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

[ "$#" -gt 0 ] || set -- crates/qsim/src crates/core/src/backend

row() { printf '  %-42s %7s %9s %7s\n' "$@"; }

grand_total=0
grand_code=0
grand_panics=0
for dir in "$@"; do
    printf '%-44s %7s %9s %7s\n' "$dir" total non-test panics
    dir_total=0
    dir_code=0
    dir_panics=0
    for file in "$dir"/*.rs; do
        read -r total code panics < <(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ && !cut { cut = NR }
            !cut && /panic!|\.expect\(|unwrap\(|unreachable!|assert!/ { panics++ }
            END { print NR, (cut ? cut - 1 : NR), panics + 0 }' "$file")
        row "$(basename "$file")" "$total" "$code" "$panics"
        dir_total=$((dir_total + total))
        dir_code=$((dir_code + code))
        dir_panics=$((dir_panics + panics))
    done
    row "(directory)" "$dir_total" "$dir_code" "$dir_panics"
    echo
    grand_total=$((grand_total + dir_total))
    grand_code=$((grand_code + dir_code))
    grand_panics=$((grand_panics + dir_panics))
done
printf '%-44s %7d %9d %7d\n' "all listed directories" "$grand_total" "$grand_code" "$grand_panics"
