#!/usr/bin/env bash
# Line census of the three directories ROADMAP.md tracks (the simulator,
# the backend and the classical substrate under it): per file (the
# directory's subdirectories included) and per directory, total lines,
# non-test lines (those before the file's first `#[cfg(test)]`; the whole
# file when it has none), the non-test lines that can panic (matching
# `panic!|\.expect\(|unwrap\(|unreachable!|assert!`), the non-test lines
# holding unsafe code (matching `unsafe \{|unsafe fn|unsafe impl`, so lint
# attributes naming `unsafe_code` do not count) and the non-test lines that
# declare a `pub` item (`pub fn`, `pub struct`, `pub use`, ...; `pub(crate)`
# and the like, and `pub` struct fields, do not count).
#
#   scripts/census.sh [DIR...]
#       default: crates/qsim/src crates/core/src/backend crates/cmpi/src
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

[ "$#" -gt 0 ] || set -- crates/qsim/src crates/core/src/backend crates/cmpi/src

row() { printf '  %-42s %7s %9s %7s %7s %5s\n' "$@"; }

grand_total=0
grand_code=0
grand_panics=0
grand_unsafe=0
grand_pub=0
for dir in "$@"; do
    printf '%-44s %7s %9s %7s %7s %5s\n' "$dir" total non-test panics unsafe pub
    dir_total=0
    dir_code=0
    dir_panics=0
    dir_unsafe=0
    dir_pub=0
    while read -r file; do
        read -r total code panics unsafe pubs < <(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ && !cut { cut = NR }
            !cut && /panic!|\.expect\(|unwrap\(|unreachable!|assert!/ { panics++ }
            !cut && /unsafe \{|unsafe fn|unsafe impl/ { unsafe++ }
            !cut && /^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod|use|union|macro)[[:space:]]/ { pubs++ }
            END { print NR, (cut ? cut - 1 : NR), panics + 0, unsafe + 0, pubs + 0 }' "$file")
        row "${file#"$dir"/}" "$total" "$code" "$panics" "$unsafe" "$pubs"
        dir_total=$((dir_total + total))
        dir_code=$((dir_code + code))
        dir_panics=$((dir_panics + panics))
        dir_unsafe=$((dir_unsafe + unsafe))
        dir_pub=$((dir_pub + pubs))
    done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
    row "(directory)" "$dir_total" "$dir_code" "$dir_panics" "$dir_unsafe" "$dir_pub"
    echo
    grand_total=$((grand_total + dir_total))
    grand_code=$((grand_code + dir_code))
    grand_panics=$((grand_panics + dir_panics))
    grand_unsafe=$((grand_unsafe + dir_unsafe))
    grand_pub=$((grand_pub + dir_pub))
done
printf '%-44s %7d %9d %7d %7d %5d\n' "all listed directories" "$grand_total" "$grand_code" "$grand_panics" "$grand_unsafe" "$grand_pub"
