#!/usr/bin/env bash
# The pre-PR gate: formatting, clippy with warnings denied, the test
# suite (which replays goldens/ through the built CLI:
# crates/core/tests/cli.rs), the release-only timing test, seeded CLI
# smoke runs diffed across worker counts, the benchmark package's lint,
# the figure binaries (scripts/figures.sh), and the grep gates; a run must
# leave the working tree as it found it. Run before sending a PR.
# Performance is not measured here: see benchmark/README.md.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # fmt + clippy + grep and clean-tree gates
set -euo pipefail
cd "$(dirname "$0")/.."

tree_before=$(git status --porcelain)

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "--fast" ]]; then
    # --no-fail-fast: one red test binary must not hide the packages
    # after it.
    echo "==> cargo test"
    cargo test --workspace -q --no-fail-fast

    # The one perf contract no benchmark workload can see: the router's
    # healthy-path breaker + fallback check inside its 10 ns budget.
    echo "==> router happy-path budget (release, --ignored)"
    cargo test -q --release -p caribou-exec -- --ignored

    # Deterministic solver smoke: the 24-hour schedule printed by
    # `caribou plan --hourly` must be bit-identical whether the solver
    # evaluation engine fans candidates across 1 or 4 workers.
    echo "==> caribou solver smoke (1 vs 4 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan dna --hourly --workers 1 >/tmp/caribou-solve-1w.txt
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan dna --hourly --workers 4 >/tmp/caribou-solve-4w.txt
    diff /tmp/caribou-solve-1w.txt /tmp/caribou-solve-4w.txt
    rm -f /tmp/caribou-solve-1w.txt /tmp/caribou-solve-4w.txt

    # Deterministic adaptive-week smoke: a 5,460-invocation week (four
    # plan generations solved on learned models, Metrics Manager past its
    # 5,000-log cap) must print a bit-identical report whether the 24
    # hourly solves of a tick fan across 1 or 2 workers.
    echo "==> caribou adaptive-week smoke (7 days x 780/day, 1 vs 2 workers)"
    for w in 1 2; do
        cargo run -q --release -p caribou-core --bin caribou -- \
            simulate text2speech --days 7 --per-day 780 --workers "$w" \
            >"/tmp/caribou-week-${w}w.txt" 2>/dev/null
    done
    diff /tmp/caribou-week-1w.txt /tmp/caribou-week-2w.txt
    rm -f /tmp/caribou-week-[12]w.txt

    # Deterministic loadgen smoke: a 50k-invocation sustained-load run
    # (7 chunks on the persistent sharded path, so warm state crosses
    # chunk boundaries and exchange ticks) must print a bit-identical
    # summary whether the shards execute on 1 or 2 workers — and record
    # the same telemetry: the `counters` object of the journal's closing
    # summary line is diffed too (worker threads record into child
    # sessions the coordinator absorbs in chunk order).
    echo "==> caribou loadgen smoke (50k invocations, 1 vs 2 workers, traced)"
    for w in 1 2; do
        cargo run -q --release -p caribou-core --bin caribou -- \
            loadgen text2speech --invocations 50000 --seed 42 --workers "$w" \
            --telemetry "/tmp/caribou-loadgen-${w}w.jsonl" \
            >"/tmp/caribou-loadgen-${w}w.txt"
        tail -n 1 "/tmp/caribou-loadgen-${w}w.jsonl" |
            grep -o '"counters":{[^}]*}' >"/tmp/caribou-loadgen-${w}w.counters"
        test -s "/tmp/caribou-loadgen-${w}w.counters"
    done
    diff /tmp/caribou-loadgen-1w.txt /tmp/caribou-loadgen-2w.txt
    diff /tmp/caribou-loadgen-1w.counters /tmp/caribou-loadgen-2w.counters
    rm -f /tmp/caribou-loadgen-[12]w.txt /tmp/caribou-loadgen-[12]w.jsonl \
        /tmp/caribou-loadgen-[12]w.counters

    # Deterministic fleet smoke: a multi-tenant re-plan (full solve, then
    # incremental re-solve after a single-hour forecast revision, with
    # --verify diffing incremental against from-scratch) must print a
    # bit-identical summary at 1 and 4 workers.
    echo "==> caribou fleet smoke (32 apps x 6 hours, 1 vs 4 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        fleet --apps 32 --hours 6 --seed 42 --perturb 'h3:us-west-2*2' \
        --verify --workers 1 >/tmp/caribou-fleet-1w.txt
    cargo run -q --release -p caribou-core --bin caribou -- \
        fleet --apps 32 --hours 6 --seed 42 --perturb 'h3:us-west-2*2' \
        --verify --workers 4 >/tmp/caribou-fleet-4w.txt
    diff /tmp/caribou-fleet-1w.txt /tmp/caribou-fleet-4w.txt
    rm -f /tmp/caribou-fleet-1w.txt /tmp/caribou-fleet-4w.txt

    # Cross-provider plan smoke: widening the provider set must change
    # the schedule (at least one hour offloads to a gcp: region), and the
    # cross-provider solve must stay bit-identical at 1 vs 4 workers.
    echo "==> caribou cross-provider smoke (aws vs aws,gcp; 1 vs 4 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws \
        >/tmp/caribou-prov-aws.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws,gcp --workers 1 \
        >/tmp/caribou-prov-multi-1w.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        plan text2speech --hourly --providers aws,gcp --workers 4 \
        >/tmp/caribou-prov-multi-4w.txt 2>/dev/null
    if diff -q /tmp/caribou-prov-aws.txt /tmp/caribou-prov-multi-1w.txt >/dev/null; then
        echo "error: aws,gcp schedule identical to aws-only" >&2
        exit 1
    fi
    grep -q 'gcp:' /tmp/caribou-prov-multi-1w.txt || {
        echo "error: aws,gcp schedule never offloads to a gcp: region" >&2
        exit 1
    }
    diff /tmp/caribou-prov-multi-1w.txt /tmp/caribou-prov-multi-4w.txt
    rm -f /tmp/caribou-prov-aws.txt /tmp/caribou-prov-multi-1w.txt \
        /tmp/caribou-prov-multi-4w.txt

    # Correlated chaos smoke: a fixed-seed campaign under correlated
    # fault classes (provider-wide outage, shared failure domains,
    # carbon-data outage) with a 3-entry contingency table must uphold
    # every invariant and print a bit-identical report at 1 and 2 workers
    # (tier-1 diffs the 1-worker report against its golden).
    echo "==> caribou correlated chaos smoke (seed 42, contingency 3, 1 vs 2 workers)"
    cargo run -q --release -p caribou-core --bin caribou -- \
        chaos --correlated --contingency 3 --seed 42 --requests 200 \
        --duration-s 14400 --providers aws,gcp --workers 1 \
        >/tmp/caribou-corr-1w.txt 2>/dev/null
    cargo run -q --release -p caribou-core --bin caribou -- \
        chaos --correlated --contingency 3 --seed 42 --requests 200 \
        --duration-s 14400 --providers aws,gcp --workers 2 \
        >/tmp/caribou-corr-2w.txt 2>/dev/null
    diff /tmp/caribou-corr-1w.txt /tmp/caribou-corr-2w.txt
    rm -f /tmp/caribou-corr-1w.txt /tmp/caribou-corr-2w.txt

    # The benchmark is a package outside the workspace: nothing above
    # notices when a crate API it compiles against drifts.
    echo "==> benchmark/run.sh --lint (fmt + clippy of the benchmark package)"
    bash benchmark/run.sh --lint

    # The reproduction itself: every figure/table binary at full
    # resolution rewrites results/*.json and full_results.txt, and the
    # clean-tree gate below fails if a published number moved without
    # being committed.
    echo "==> scripts/figures.sh (results/ and full_results.txt)"
    scripts/figures.sh
fi

# Panic-free user-input surface: the formerly panicking resolution paths
# must stay panic!-free (they return typed ModelError/CarbonError now).
echo "==> panic grep gate"
for f in crates/simcloud/src/cloud.rs crates/carbon/src/source.rs crates/carbon/src/synth.rs; do
    if grep -n 'panic!' "$f"; then
        echo "error: panic! reintroduced in $f" >&2
        exit 1
    fi
done

# One invocation driver: the router feedback and the engine call each
# have exactly one call site under crates/core/src (driver.rs), so a
# fifth hand-written route -> invoke -> record loop cannot come back
# quietly.
echo "==> single-driver grep gate"
for call in 'record_outcome(' 'invoke_with_scratch('; do
    hits=$(grep -rnF "$call" crates/core/src | wc -l)
    if [[ "$hits" -ne 1 ]]; then
        echo "error: '$call' has $hits call sites under crates/core/src, want 1:" >&2
        grep -rnF "$call" crates/core/src >&2 || true
        exit 1
    fi
done

# One estimator, one HBSS entry: the scalar/lane-width paths and the
# engine-less solver entries must not come back.
echo "==> single-estimator grep gate"
if grep -rnE 'estimate_scalar|estimate_batched|sample_once|MAX_LANES|fn batchable' \
    crates tests examples; then
    echo "error: a second estimator path is back (see matches above)" >&2
    exit 1
fi
if grep -rnE 'pub fn solve(_hourly)?[<(]' crates/solver/src; then
    echo "error: an engine-less solver entry is back (see matches above)" >&2
    exit 1
fi

# One estimate path in two halves: the fold (and the constants it reads)
# never sees an hour or a carbon source, so a plan's record is valid at
# every hour; and the fold, the energy term of Eq. 7.1 and Lambda's
# millisecond billing are each written once, so the pricing pass cannot
# grow a fold of its own and a node's banked columns have one author
# (summary.rs keeps its two percentile-position ceils).
echo "==> hour-free fold grep gate"
if grep -nE 'hour|carbon_source|intensity' \
    crates/metrics/src/fold.rs crates/metrics/src/prep.rs; then
    echo "error: the hour-free fold names the hour or the grid (see matches above)" >&2
    exit 1
fi
for once in 'fn fold' 'energy::PUE' '1000.0).ceil()'; do
    hits=$(grep -rnF "$once" crates/metrics/src | wc -l)
    if [[ "$hits" -ne 1 ]]; then
        echo "error: '$once' occurs $hits times under crates/metrics/src, want 1:" >&2
        grep -rnF "$once" crates/metrics/src >&2 || true
        exit 1
    fi
done

# The estimator's sample loops are free functions over their columns: a
# `&mut [f64]` parameter is `noalias` to LLVM and vectorises, a struct field
# is not and stays scalar, so no struct of the fold or the pricing pass
# holds one; the carbon column is written by index; and the p95 has one
# author (summary::p95, selecting above mean + σ), so the copying
# percentile_select stays deleted and nothing else selects.
echo "==> sample-loop grep gates"
hits=$(grep -rlF 'select_nth_unstable' crates tests examples | tr '\n' ' ')
if [[ "$hits" != "crates/metrics/src/summary.rs " ]]; then
    echo "error: select_nth_unstable is called in: $hits(want crates/metrics/src/summary.rs only)" >&2
    exit 1
fi
if grep -rnw 'percentile_select' crates tests examples; then
    echo "error: percentile_select is back (see matches above)" >&2
    exit 1
fi
if ! awk '
    /^(pub(\([a-z]+\))? )?struct / { inside = 1 }
    inside && /&(\x27[a-z_]+ )?mut \[/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    inside && /^}/ { inside = 0 }
    END { exit bad }' crates/metrics/src/fold.rs crates/metrics/src/price.rs; then
    echo "error: a struct of the fold or the pricing pass holds a &mut slice (see above)" >&2
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/metrics/src/price.rs | grep -F '.push('; then
    echo "error: the pricing pass pushes (see above); write its columns by index" >&2
    exit 1
fi

# One substrate: service constants enter a SimCloud only through the
# provider table (simcloud/src/providers.rs) in SimCloud::with_catalog,
# so the table-built constructors, the per-service override maps, the
# aws-only constructor forks, the constant-getter backend traits and the
# inter-provider latency builder must not come back
# (RegionCatalog::aws_default(), the region rows themselves, stays; so
# does the typed error MissingInterProviderLatency, hence the \b).
echo "==> single-substrate grep gate"
if grep -rnE 'PricingCatalog::aws_default|LambdaRuntime::aws_default|from_catalog_with_providers|\b(cold_start|keep_alive|overhead)_override\b' \
    crates ||
    grep -rnE 'trait \w+Backend|dyn ProviderBackend|backend_for|\bInterProviderLatency' crates ||
    [[ -e crates/simcloud/src/providers ]]; then
    echo "error: a second way to build the substrate is back (see matches above)" >&2
    exit 1
fi
# is_aws_only() decides an output format, never a constructor: outside
# region.rs its one use is the first line of the CLI's region_label.
forks=$(grep -rn 'is_aws_only()' crates | grep -vc '^crates/model/src/region.rs:' || true)
labels=$(grep -A 1 '^fn region_label' crates/core/src/bin/caribou.rs | grep -c 'is_aws_only()' || true)
if [[ "$forks" -ne "$labels" ]]; then
    echo "error: is_aws_only() outside region.rs and the CLI's region_label:" >&2
    grep -rn 'is_aws_only()' crates | grep -v '^crates/model/src/region.rs:' >&2
    exit 1
fi

# One experiment assembly: the calibrated grid enters through
# scenario::grid alone, and the harness env, the CLI's cloud builder and
# the environment knob that coarsened the figures stay deleted (this
# gate's own lines are the only place the names survive).
echo "==> single-assembly grep gate"
hits=$(grep -rnF 'aws_calibrated(' crates/core/src crates/bench/src examples | wc -l)
if [[ "$hits" -ne 1 ]]; then
    echo "error: 'aws_calibrated(' has $hits call sites under crates/core/src, crates/bench/src, examples; want 1:" >&2
    grep -rnF 'aws_calibrated(' crates/core/src crates/bench/src examples >&2 || true
    exit 1
fi
if grep -rnE 'CARIBOU_FAST|ExpEnv|fn cloud_for|fn hour_step' \
    crates tests examples README.md EXPERIMENTS.md; then
    echo "error: a second experiment assembly is back (see matches above)" >&2
    exit 1
fi

# The figures on one engine: every strategy of a week is solved and scored
# through harness::Week's two engines on its one seed, so an estimator
# that draws a fresh bank per call stays out of the figure crate.
echo "==> one-engine figures grep gate"
if grep -rnE 'MonteCarloEstimator|\.estimator\(' crates/bench/src; then
    echo "error: a figure estimates off its week's engines (see matches above)" >&2
    exit 1
fi

# Everything has a user: the argument list is read in one place
# (Command::parse in caribou/flags.rs; main hands it over), the seed sweep
# and the second usage text stay deleted, and the eight never-assigned
# knobs (HBSS beta/gamma schedule, breaker thresholds, benchmarking share,
# framework region) stay constants, not struct fields.
echo "==> single-parser and no-unused-option grep gates"
if grep -rnE 'fn flag\(|fn has_flag\(|\.position\(\|a\| a ==|cmd_chaos_sweep|FLEET_USAGE' crates ||
    grep -rnE 'pub (beta|gamma|gamma_decay|mutation_scale|failure_threshold|cooldown_s|benchmark_every|framework_region):' \
        crates/solver crates/exec crates/core ||
    [[ "$(grep -rn 'env::args' crates/core/src | wc -l)" -ne 1 ]]; then
    echo "error: a deleted CLI path or option is back, or args are read outside main (see above)" >&2
    exit 1
fi

# One storage layout: the regional table names are spelled in
# caribou-exec's layout module and nowhere else.
echo "==> single-layout grep gate"
for table in 'caribou-data@' 'caribou-sync@'; do
    files=$(grep -rlF "$table" crates tests examples | tr '\n' ' ')
    if [[ "$files" != "crates/exec/src/layout.rs " ]]; then
        echo "error: '$table' is spelled in: $files(want crates/exec/src/layout.rs only)" >&2
        exit 1
    fi
done

# Addresses, not names, on the data plane: the engine reaches topics,
# tables and items through handles resolved once (layout::AddressBook),
# so the per-operation name writers and the stores' name buffers stay
# deleted, and the engine formats a string only to label telemetry.
echo "==> no-names-on-the-hot-path grep gate"
if grep -rnE 'fn set_(topic|data_table|sync_table|edge_key|sync_key)\b' crates ||
    grep -nE '^ +(lookup|free): ' crates/simcloud/src/kv.rs crates/simcloud/src/blob.rs; then
    echo "error: a per-operation name writer or a store's name buffer is back (see matches above)" >&2
    exit 1
fi
if ! awk '
    /^#\[cfg\(test\)\]/ { exit }
    {
        line = $0
        if (!guarded && line ~ /if (.*&& )?(caribou_telemetry::is_enabled\(\)|telemetry) \{/) guarded = 1
        if (guarded) {
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (depth <= 0) { guarded = 0; depth = 0 }
        } else if (line ~ /(format|write|writeln)!\(/) {
            print FILENAME ":" NR ": " $0
            bad = 1
        }
    }
    END { exit bad }' crates/exec/src/engine.rs; then
    echo "error: crates/exec/src/engine.rs formats a string outside an is_enabled() block (see above)" >&2
    exit 1
fi

# Nor SipHash nor a logarithm of a constant per operation: the maps an
# invocation hashes are declared through the fixed-hasher alias
# (caribou_model::hash::FixedMap), the warm pool's journal is a list of
# slots, not a tree, and a log-normal's location is taken where its median
# is fixed — one `ln` site at most per file (pubsub's per-region table, the
# orchestrator's), the engine drawing the profile's distributions through
# the address book's prepared sites. Test modules are exempt (oracles).
echo "==> fixed-hasher and logarithm-once grep gates"
before_tests() { awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"; }
for f in crates/simcloud/src/kv.rs crates/simcloud/src/blob.rs crates/simcloud/src/warm.rs \
    crates/metrics/src/logs.rs; do
    if before_tests "$f" | grep -E '\bHash(Map|Set)\b'; then
        echo "error: $f declares a std (SipHash) map; use caribou_model::hash::FixedMap" >&2
        exit 1
    fi
done
if before_tests crates/simcloud/src/warm.rs | grep -E '\bBTree(Map|Set)\b'; then
    echo "error: the warm pool journals into a tree again (see above)" >&2
    exit 1
fi
for f in crates/simcloud/src/pubsub.rs crates/simcloud/src/orchestration.rs \
    crates/simcloud/src/compute.rs crates/exec/src/engine.rs; do
    hits=$(before_tests "$f" | grep -cE '\.ln\(\)|f64::ln\b' || true)
    if [[ "$hits" -gt 1 ]]; then
        echo "error: $f takes a logarithm at $hits sites, want at most 1:" >&2
        before_tests "$f" | grep -E '\.ln\(\)|f64::ln\b' >&2
        exit 1
    fi
done
if before_tests crates/exec/src/engine.rs |
    grep -E '\.(exec_time|payload_bytes|input_bytes)\b|\.execute\('; then
    echo "error: the engine draws a profile distribution by its spec, a logarithm per draw" >&2
    exit 1
fi

# Each runtime rule of the invocation path written once: one dispatch
# (publish, fail over home if the message is lost) whose only other
# fail_over_home caller is the pick-up outage, one edge decision (state and
# log record), one route literal; and no outcome line nothing reads (the
# cross-provider subsets) or interner nothing calls. Test modules are exempt
# from the counts; the \b spares engine tests running "across clouds".
echo "==> each-rule-once grep gates"
for gate in \
    'crates/exec/src/engine.rs;EdgeRecord \{;^use ;1;1' \
    'crates/exec/src/engine.rs;EdgeState::Decided \{;if let |matches!\(;1;1' \
    'crates/exec/src/engine.rs;fail_over_home\(;fn fail_over_home\(;1;2' \
    'crates/exec/src/router.rs;RouteDecision \{;(struct |impl |-> )RouteDecision \{;1;1'; do
    IFS=';' read -r file pattern except least most <<<"$gate"
    hits=$(before_tests "$file" | grep -E "$pattern" | grep -cvE "$except" || true)
    if [[ "$hits" -lt "$least" || "$hits" -gt "$most" ]]; then
        echo "error: '$pattern' occurs $hits times in $file outside tests, want $least..$most:" >&2
        before_tests "$file" | grep -E "$pattern" | grep -vE "$except" >&2 || true
        exit 1
    fi
done
if grep -rnE '\bcross_cloud|cross_provider_egress_(bytes|cost)\b|StrInterner' crates; then
    echo "error: a deleted outcome line or the interner is back (see matches above)" >&2
    exit 1
fi

# The run harnesses fold once: one chaos report and one fault count for
# both campaigns, one pre-fault deployment and one constant carbon table in
# chaos.rs, loadgen chunks folded as LoadReports with PoolStats merging
# itself, run_trace borrowing its trace. And the public functions whose
# only caller was their own unit test stay deleted.
echo "==> fold-once harness and dead-surface grep gates"
if grep -rnE 'CorrelatedChaosReport|CorrelatedFaultCounts|FaultClassCounts|struct ChunkOut|fn accumulate_pool_stats' crates ||
    grep -nF 'trace.to_vec()' crates/core/src/framework.rs; then
    echo "error: a second campaign report, fault count or chunk fold is back (see matches above)" >&2
    exit 1
fi
for pattern in 'deploy_initial\(' 'CarbonSeries::new\('; do
    hits=$(before_tests crates/core/src/chaos.rs | grep -cE "$pattern" || true)
    if [[ "$hits" -ne 1 ]]; then
        echo "error: '$pattern' occurs $hits times in crates/core/src/chaos.rs outside tests, want 1:" >&2
        before_tests crates/core/src/chaos.rs | grep -E "$pattern" >&2 || true
        exit 1
    fi
done
if grep -rnE 'fn (generate|execution_carbon|execution_energy_kwh|supports_cross_region|supports_sync_nodes|check_due|edge_between|reachable_sync_nodes|to_dot)\b' crates; then
    echo "error: a deleted test-only public function is back (see matches above)" >&2
    exit 1
fi

# The solver's cache and walk off trees and SipHash: a species' plans sit in
# a fixed-hasher map (the ordered keys beside it are a set, for eviction),
# the walk's seen set is a FixedSet, and a fleet call takes each app's solve
# complexity once, not inside the per-cell cost closure. Test modules are
# exempt (engine.rs keeps the two-tree store there as the cache's oracle).
echo "==> solver plan-key and fleet per-app grep gates"
for f in crates/solver/src/*.rs; do
    if before_tests "$f" | grep -E 'BTreeMap<Vec<RegionId>|\bHash(Map|Set)\b'; then
        echo "error: $f keys plans by a tree or hashes with SipHash; use caribou_model::hash" >&2
        exit 1
    fi
done
cell_cost=$(awk '/let cell_cost = /,/^    };/' crates/core/src/fleet/mod.rs)
if [[ -z "$cell_cost" ]] || grep -F 'forecast_reads()' <<<"$cell_cost"; then
    echo "error: run_cells' per-cell cost closure is gone or calls forecast_reads() (take it per app)" >&2
    exit 1
fi

# One histogram type: the recorder holds QuantileSketch.
echo "==> single-histogram grep gate"
if grep -rn 'Histogram' crates/telemetry; then
    echo "error: a second histogram type is back in crates/telemetry" >&2
    exit 1
fi

# A check that rewrites what it checks hides the next regression: a run
# leaves `git status` exactly as it found it (empty on a clean checkout).
echo "==> clean-tree gate"
tree_after=$(git status --porcelain)
if [[ "$tree_after" != "$tree_before" ]]; then
    echo "error: the check changed the working tree:" >&2
    comm -13 <(sort <<<"$tree_before") <(sort <<<"$tree_after") >&2
    exit 1
fi

echo "OK"
