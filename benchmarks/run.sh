#!/usr/bin/env bash
# The benchmark's one entry point: builds qperf (release, offline) and runs it.
#
#   benchmarks/run.sh [--seed N] [--workload W|all] [--traced] [--smoke]
#       every workload in its own process + the layer probes; prints every
#       metric and writes benchmarks/out/run-seed<N>-<time>.json
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one process; the last stdout line is the result object
#       (this is the form BENCHMARK.json's command is run in)
#   benchmarks/run.sh compare A.json B.json
#   benchmarks/run.sh layers [--probe-samples P]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

mkdir -p "$here/out/tmp"

# Everything the build and the run write stays inside the checkout, the
# compiler's temporary files included. Build chatter goes to stderr: stdout
# belongs to the result.
TMPDIR="$here/out/tmp" \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export QPERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export QPERF_GIT_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

mode=suite
for arg in "$@"; do
    case "$arg" in
        --trace) mode=run ;;
    esac
done
case "${1:-}" in
    compare | layers) mode="$1"; shift ;;
esac
if [ "$mode" = compare ]; then
    # The two documents are named relative to where the caller stands.
    exec "$target/release/qperf" compare "$@"
fi

# Unix sockets of the worker transport are created under TMPDIR; a path
# relative to the checkout keeps them inside it and under the 108-byte
# limit of a socket address however deep the checkout sits.
#
# One malloc arena: with glibc's per-thread arenas the resident set is
# mostly freed state vectors parked in whichever arenas the short-lived
# kernel threads happened to use (24-46 MiB from run to run on tfim_sv, 11
# with one arena, at the same speed). Memory numbers should measure the
# program, so the allocator is pinned, for this process and the workers.
cd "$root"
TMPDIR=benchmarks/out/tmp MALLOC_ARENA_MAX=1 exec "$target/release/qperf" "$mode" "$@"
