#!/usr/bin/env bash
# Builds the benchmark offline and runs it. See README.md beside this file.
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --repeat N            the whole set N times, with spreads
#   benchmark/run.sh --lint                cargo fmt --check + clippy -D warnings
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

# One target directory shared with the root workspace unless the caller
# names another; a relative one is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    exit 0
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$manifest" >&2

export CARIBOU_BENCH_DIR="$here"
CARIBOU_BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CARIBOU_BENCH_GIT_REV

# Traced runs use the binary with the counting allocator.
bin="$target/release/caribou-benchmark"
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin="$target/release/caribou-benchmark-traced"
    fi
    prev="$arg"
done
exec "$bin" "$@"
