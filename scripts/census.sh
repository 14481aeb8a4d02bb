#!/usr/bin/env bash
# Line census of the two directories ROADMAP.md tracks: per file and per
# directory, total lines and non-test lines (those before the file's first
# `#[cfg(test)]`; the whole file when it has none).
#
#   scripts/census.sh [DIR...]     default: crates/qsim/src crates/core/src/backend
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

[ "$#" -gt 0 ] || set -- crates/qsim/src crates/core/src/backend

grand_total=0
grand_code=0
for dir in "$@"; do
    printf '%-44s %7s %9s\n' "$dir" total non-test
    dir_total=0
    dir_code=0
    for file in "$dir"/*.rs; do
        read -r total code < <(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ && !cut { cut = NR }
            END { print NR, (cut ? cut - 1 : NR) }' "$file")
        printf '  %-42s %7d %9d\n' "$(basename "$file")" "$total" "$code"
        dir_total=$((dir_total + total))
        dir_code=$((dir_code + code))
    done
    printf '  %-42s %7d %9d\n\n' "(directory)" "$dir_total" "$dir_code"
    grand_total=$((grand_total + dir_total))
    grand_code=$((grand_code + dir_code))
done
printf '%-44s %7d %9d\n' "all listed directories" "$grand_total" "$grand_code"
