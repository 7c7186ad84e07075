#!/usr/bin/env bash
# Regenerates the reproduction: builds caribou-bench in release, runs
# every figure/table binary at full resolution in a fixed order, and
# rewrites results/*.json and full_results.txt. The binaries are
# seed-fixed, so on unchanged code this rewrites every file with the
# bytes it already holds; scripts/check.sh runs it before its clean-tree
# gate, so a change that moves a published number must commit the move.
#
#   scripts/figures.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(fig2 table1 fig7 fig8 fig9 fig10 fig12 fig13 fig11
    ablation_solver ablation_signal ablation_warmpool global multicloud)

# A new binary must join the list (and so results/ and the gate).
listed=$(printf '%s\n' "${bins[@]}" | sort)
present=$(for f in crates/bench/src/bin/*.rs; do basename "$f" .rs; done | sort)
if [[ "$listed" != "$present" ]]; then
    echo "error: scripts/figures.sh and crates/bench/src/bin/ disagree:" >&2
    diff <(echo "$listed") <(echo "$present") >&2 || true
    exit 1
fi

cargo build -q --release -p caribou-bench

{
    for bin in "${bins[@]}"; do
        echo "=== $bin ==="
        "target/release/$bin" 2>&1
    done
} >full_results.txt
echo "wrote full_results.txt and results/*.json (${#bins[@]} binaries)"
