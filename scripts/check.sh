#!/usr/bin/env bash
# The pre-PR gate: formatting, clippy with warnings denied, the test
# suite (which replays goldens/ through the built CLI:
# crates/core/tests/cli.rs), the release-only timing test, the release
# run of the estimator's vector-level agreement tests, seeded CLI
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

    # The estimator's sample loops give the same bits at every vector level
    # the host runs; a debug build vectorises nothing, so the check that
    # means something is the optimised one.
    echo "==> estimator vector levels agree (release)"
    cargo test -q --release -p caribou-metrics --lib -- every_vector_level tail_p95

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

# A source file's lines up to its test module, each prefixed with its place.
before_tests() { awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"; }

# One estimate path in two halves: the fold (and the constants it reads)
# never sees an hour or a carbon source, so a plan's record is valid at
# every hour; and the fold and the energy term of Eq. 7.1 are each written
# once, so the pricing pass cannot grow a fold of its own and a node's
# banked columns have one author. Lambda's millisecond billing is one law
# in all non-test code: `billed_seconds` beside `lambda_cost`, which the
# meter, the catalog and the fold call (the meter's test oracle keeps its
# own copy).
echo "==> hour-free fold grep gate"
if grep -nE 'hour|carbon_source|intensity' \
    crates/metrics/src/fold.rs crates/metrics/src/prep.rs; then
    echo "error: the hour-free fold names the hour or the grid (see matches above)" >&2
    exit 1
fi
for once in 'fn fold' 'energy::PUE'; do
    hits=$(grep -rnF "$once" crates/metrics/src | wc -l)
    if [[ "$hits" -ne 1 ]]; then
        echo "error: '$once' occurs $hits times under crates/metrics/src, want 1:" >&2
        grep -rnF "$once" crates/metrics/src >&2 || true
        exit 1
    fi
done
ceils=$(find crates -path '*/src/*' -name '*.rs' | sort |
    while read -r f; do before_tests "$f"; done | grep -F '1000.0).ceil()' || true)
if [[ $(grep -c . <<<"$ceils" || true) -ne 1 ]]; then
    echo "error: the millisecond ceil occurs other than once in non-test code under crates/:" >&2
    echo "$ceils" >&2
    exit 1
fi

# A neighbour's fold pays for its arithmetic only: a modelled transfer's
# `bytes.max(0) / bw` is a banked quotient column (computed once per site
# and bandwidth, by prep::quotient), so the entry and arrival passes and
# model_seconds never divide; the bank finds a node's cold-start column by
# its region, not by comparing curves per column check; and a fold lists no
# columns up front — prep resolves a plan's sites as the fold reaches them,
# with no per-plan table or need list.
echo "==> fold-arithmetic grep gates"
if grep -nE '/ *bw\b|model_seconds\([^)]*\bbw\b' crates/metrics/src/fold.rs ||
    grep -A 3 'fn model_seconds' crates/metrics/src/prep.rs | grep -F '/'; then
    echo "error: the fold divides a transfer's bytes by its bandwidth per sample (see above)" >&2
    exit 1
fi
if grep -nE 'cold_position|c\.node == node' crates/metrics/src/bank.rs; then
    echo "error: the bank scans its cold-start columns comparing curves (see above)" >&2
    exit 1
fi
if grep -nE 'Vec<Need|\[Need<|fn build_prep|struct PlanPrep' crates/metrics/src/*.rs; then
    echo "error: a fold collects its plan's columns or constants per plan (see above)" >&2
    exit 1
fi

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

# The sample loops at the CPU's full vector width: one helper
# (crates/metrics/src/wide.rs) holds the per-level wrappers, the feature
# detection and the only `unsafe` under crates/; and no fused multiply-add
# is written into the fold, the pricing pass or the summaries, whose bits
# must not depend on the level (Rust never fuses `a * b + c` by itself).
echo "==> vector-level dispatch grep gates"
hits=$(grep -rlwE 'unsafe|target_feature|is_x86_feature_detected' crates | tr '\n' ' ')
if [[ "$hits" != "crates/metrics/src/wide.rs " ]]; then
    echo "error: unsafe, target_feature or is_x86_feature_detected in: $hits(want crates/metrics/src/wide.rs only)" >&2
    exit 1
fi
if grep -nF 'mul_add' crates/metrics/src/fold.rs crates/metrics/src/price.rs \
    crates/metrics/src/summary.rs; then
    echo "error: a fused multiply-add in the estimator's sample loops (see matches above)" >&2
    exit 1
fi

# One substrate: service constants enter a SimCloud only through the
# provider table (simcloud/src/providers.rs) in SimCloud::with_catalog,
# so the table-built constructors, the per-service override maps, the
# aws-only constructor forks, the constant-getter backend traits and the
# inter-provider latency builder must not come back
# (RegionCatalog::aws_default(), the region rows themselves, stays).
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
if grep -rnE 'fn (generate|execution_carbon|execution_energy_kwh|supports_cross_region|supports_sync_nodes|check_due|edge_between|reachable_sync_nodes|to_dot)\b' crates ||
    grep -rnE 'fn (successors|sinks|set_objective|set_tolerances|avg_utilization|allows|overlaps|is_cold|published_from|profile_for|topic_exists|zone_series|degradation_level)\b' crates; then
    echo "error: a deleted test-only public function is back (see matches above)" >&2
    exit 1
fi

# State nothing reads stays deleted: the solver's list of every feasible
# plan (a solve returns its best), the cloud-wide usage meter and the merge
# only it called (the framework's overhead is the run report's solve carbon
# and migration egress), the plan-expiry setting (expiry follows the check
# cadence), loadgen's warm-pool switch and keep-alive (each shard switches
# on its cloud's own pool, the provider table's window per region) and the
# load report's scratch-allocation count with the scratch's own counters
# behind it (growth is the `engine.scratch_allocs` telemetry counter).
# IStr is Arc<str>, no newtype.
echo "==> unread-state grep gates"
if grep -rnE '\.feasible\b|pub feasible\b' crates tests examples ||
    grep -nE '\bmeter:' crates/simcloud/src/cloud.rs ||
    grep -rnE '\bcloud\.meter\b' crates tests examples ||
    grep -nE 'fn merge\(' crates/simcloud/src/meter.rs ||
    grep -rnE '\bplan_expiry_s\b' crates tests examples ||
    grep -rnE '\b(warm_pool|keep_alive_s)\b|--no-warm-pool|--keep-alive-s' crates/core/src tests examples ||
    grep -nE '\bscratch_allocs\b' crates/core/src/loadgen.rs ||
    grep -nE 'fn (allocs|invocations)\(' crates/exec/src/engine.rs ||
    grep -rnE 'struct IStr\b' crates; then
    echo "error: deleted state nothing read is back (see matches above)" >&2
    exit 1
fi

# One copy of each thing: the engine drains its queue one event at a time
# (no same-tick batch: sampled latencies never share a tick), HBSS's hour
# row is a plain Vec filled when built, pub/sub reads the fault plan's drop
# probability, and an execution record, an invocation log and a route
# decision carry no field that echoes what the caller already has.
echo "==> second-copy grep gates"
if grep -rnE '\bpop_batch\b|scratch\.batch\b|\bdrop_probability\b|\bcold_start_s\b' crates tests examples ||
    grep -rnE '\bplan_expired\b' crates tests examples | grep -v '"migrator\.plan_expired"' ||
    grep -nE 'AtomicU64|\bUNREAD\b|Ordering::Relaxed' crates/solver/src/hourly.rs ||
    awk '/^pub struct (InvocationLog|ExecutionRecord) \{/ { inside = 1 }
        inside && /^ +pub (workflow|e2e_latency_s|cost_usd|memory_mb|cold_start):/ {
            print FILENAME ":" FNR ": " $0; bad = 1
        }
        inside && /^}/ { inside = 0 }
        END { exit !bad }' crates/metrics/src/logs.rs crates/simcloud/src/compute.rs; then
    echo "error: a deleted second copy is back (see matches above)" >&2
    exit 1
fi

# One fault plan and one fault clock: `SimCloud.faults` is the only plan,
# and the engine hands it to pub/sub and KV with the time to read it at,
# so neither service keeps a copy of the plan or a clock of its own.
echo "==> one-fault-plan grep gates"
plans=$(find crates/simcloud/src -name '*.rs' | sort |
    while read -r f; do before_tests "$f"; done | grep -E '\bfaults: FaultPlan,' || true)
if [[ $(grep -c . <<<"$plans" || true) -ne 1 ]]; then
    echo "error: want exactly one 'faults: FaultPlan' field in non-test crates/simcloud/src:" >&2
    echo "$plans" >&2
    exit 1
fi
if awk '/^pub struct (PubSub|KvStore) \{/ { inside = 1 }
    inside && / now_s:/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    inside && /^}/ { inside = 0 }
    END { exit !bad }' crates/simcloud/src/pubsub.rs crates/simcloud/src/kv.rs ||
    grep -rn 'set_fault_now' crates tests examples; then
    echo "error: a service's fault clock or SimCloud::set_fault_now is back (see matches above)" >&2
    exit 1
fi

# One nature per invocation: what an invocation does not choose, its
# draws and its fault verdicts, the engine asks of its `Nature`
# (crates/exec/src/nature.rs), whose default reads the cloud's fault plan
# and the invocation's generator. The engine's non-test code reads neither
# itself, and the invocation context holds no generator of its own.
echo "==> one-nature grep gate"
if before_tests crates/exec/src/engine.rs | grep -E '\bself\.rng\b|\.region_down\(|\.cold_storm\(' ||
    awk '/^struct InvocationCtx</ { inside = 1 }
        inside && /^ +rng:/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        inside && /^}/ { inside = 0 }
        END { exit !bad }' crates/exec/src/engine.rs; then
    echo "error: the engine draws or reads a fault verdict outside its Nature (see matches above)" >&2
    exit 1
fi

# The Holt-Winters grid is fitted in lockstep, a lane per smoothing point,
# so the smoothing recurrence is written once, in `HoltWinters::fit`: no
# per-point fit for the grid search to call again.
echo "==> lockstep-forecast grep gate"
if grep -nE 'Self::fit_params\(|fn fit_params\b' crates/carbon/src/forecast.rs; then
    echo "error: a per-point Holt-Winters fit is back in forecast.rs (see matches above)" >&2
    exit 1
fi

# One invocation's bill lives in its scratch as dense per-region rows: the
# inline sorted map the meter was built on is gone, an outcome carries the
# SNS count its readers read instead of a meter, and meter.rs stays within
# its 60 lines outside the test module.
echo "==> dense-meter grep gates"
if grep -rnE 'TinyMap|tinymap' crates || grep -nE '\bmeter *:[^:]' crates/exec/src/outcome.rs; then
    echo "error: the TinyMap meter or the outcome's meter field is back (see matches above)" >&2
    exit 1
fi
meter_lines=$(before_tests crates/simcloud/src/meter.rs | wc -l)
if ((meter_lines > 60)); then
    echo "error: crates/simcloud/src/meter.rs has $meter_lines lines outside its tests (at most 60)" >&2
    exit 1
fi

# The solver's cache and walk off trees and SipHash: a species' plans are
# keyed once, in a flat key buffer behind an open-addressed index (keys.rs;
# a heap of slots orders them for eviction, an hour index files their
# carbon), the walk's first-visit set is the same buffer, reset in place
# for each solve, and a fleet call takes each app's solve complexity once, not
# inside the per-cell cost closure. Test modules are exempt (engine.rs
# keeps the two-tree store there as the cache's oracle).
echo "==> solver plan-key and fleet per-app grep gates"
for f in crates/solver/src/*.rs; do
    if before_tests "$f" | grep -E 'BTreeMap<Vec<RegionId>|\bHash(Map|Set)\b'; then
        echo "error: $f keys plans by a tree or hashes with SipHash; use caribou_model::hash" >&2
        exit 1
    fi
done
# The solver's bookkeeping off the allocator: an estimator scratch per
# worker thread instead of a locked pool per engine, no boxed key per
# first visit, no per-plan list of touched regions (the key and the home
# are what an estimate read).
if grep -rnF 'Mutex<Vec<EstimateScratch>>' crates/solver/src ||
    before_tests crates/solver/src/hbss.rs | grep -F 'FixedSet<Box<[RegionId]>>' ||
    before_tests crates/solver/src/engine.rs | grep -F 'touched: Vec<RegionId>'; then
    echo "error: a per-engine scratch pool, a boxed first-visit key or a per-plan touched list is back (see matches above)" >&2
    exit 1
fi
# A walk keeps its buffers and a re-plan shares its cells: HBSS refills
# its thread's walk buffers (the hour row, the rankings, the first-visit
# set) instead of building them per solve, and a re-plan copies the prior
# schedule's cell handles, never the cells.
if before_tests crates/solver/src/hbss.rs | grep -E 'KeyArena::with_capacity|Rankings::new|HourRow::new\(' ||
    grep -nF 'prior.cells.clone()' crates/core/src/fleet/mod.rs; then
    echo "error: a per-solve walk buffer or a copy of the prior schedule's cells is back (see matches above)" >&2
    exit 1
fi
cell_cost=$(awk '/let cell_cost = /,/^    };/' crates/core/src/fleet/mod.rs)
if [[ -z "$cell_cost" ]] || grep -F 'forecast_reads()' <<<"$cell_cost"; then
    echo "error: run_cells' per-cell cost closure is gone or calls forecast_reads() (take it per app)" >&2
    exit 1
fi

# One configuration surface: a workflow's objective, tolerances and eligible
# regions live in Constraints, the manifest holds its name, version and home
# region only and is read by hand, so the manifest's ignored copies and the
# write-only IAM role store stay deleted, and no type is parsed by a
# Deserialize impl or steered by serde attributes (serde itself is gone:
# see the one-JSON-tree gates).
echo "==> one-configuration-surface grep gates"
if grep -rnE '\bmod iam\b|IamPolicy|put_role|ManifestRegions|region_filter|serde_unbounded' crates ||
    grep -rnF '#[serde(' crates ||
    grep -rnw 'Deserialize' crates; then
    echo "error: a deleted configuration copy, serde attribute or Deserialize derive is back (see matches above)" >&2
    exit 1
fi

# One histogram type: the recorder holds QuantileSketch.
echo "==> single-histogram grep gate"
if grep -rn 'Histogram' crates/telemetry; then
    echo "error: a second histogram type is back in crates/telemetry" >&2
    exit 1
fi

# One row per region, one block per provider: a region's columns are its
# RegionSpec row, providers.rs holds the blocks and the penalty (exhaustive
# matches, so there is no provider without both and no error for one), the
# cross-provider egress rate is the source's internet tier, the three
# region-down fault classes are one Outage, and the hour's plan is
# HourlyPlans::plan_at.
echo "==> one-row-per-region grep gates"
if grep -rnE 'Provider::Azure|MissingInterProviderLatency' crates tests examples; then
    echo "error: a provider without regions, or the error only it could raise, is back (see matches above)" >&2
    exit 1
fi
if grep -rnw 'default_row' crates ||
    grep -nE '\("[a-z0-9-]+", [0-9.]+, [0-9.]+\)' crates/simcloud/src/providers.rs; then
    echo "error: a per-region row or its default is back in the provider table (see matches above)" >&2
    exit 1
fi
if grep -rnw 'cross_provider_egress_per_gb' crates tests examples; then
    echo "error: the copied cross-provider egress rate is back (see matches above)" >&2
    exit 1
fi
if grep -rnwE 'RegionOutage|ProviderOutage|FailureDomain' crates tests examples; then
    echo "error: a second outage shape is back (see matches above)" >&2
    exit 1
fi
if grep -rnE 'fn hour_of_day\(' crates tests examples; then
    echo "error: a second hour-of-day rule is back (see matches above)" >&2
    exit 1
fi

# One JSON value tree: serde_json depends on nothing, Value is its only
# tree and the model types that reach it convert by hand, so the vendored
# serde (a second tree, Content, with one-implementor traits) and its
# derive macro (the workspace's only proc-macro crate) stay deleted.
echo "==> one-JSON-tree grep gates"
manifests=$(find . -name Cargo.toml -not -path '*/target/*')
if [[ -e vendor/serde || -e vendor/serde_derive ]] ||
    grep -nE '(^|[^_[:alnum:]])serde *[=.]|serde_derive' $manifests ||
    grep -rnE 'derive\([^)]*\bSerialize\b|serde::|Content::' crates vendor; then
    echo "error: the vendored serde, its derive or a use of either is back (see matches above)" >&2
    exit 1
fi
# One worker loop in the pool: one worker runs the loop the threads run,
# on the caller's thread, so no inline branch rewinds the session's clock.
if before_tests crates/solver/src/pool.rs | grep -F 'set_sim_now'; then
    echo "error: the pool's inline branch is back in crates/solver/src/pool.rs" >&2
    exit 1
fi

# A draw bank belongs to its context: the estimator scratch holds working
# columns only (no bank to swap in and out), an estimate that keeps draws
# across calls is handed its bank, and a bank is bound once, so there is no
# state left to warn about and nothing to reset.
echo "==> one-owner-per-bank grep gates"
if grep -rnE 'swap_bank|fn estimate_with\b' crates tests examples ||
    grep -rnE 'Nothing checks that contract|nothing checks it' crates tests examples; then
    echo "error: a scratch-held bank, its swap or its warning is back (see matches above)" >&2
    exit 1
fi
bind=$(awk '/fn bind\(/,/^    }/' crates/metrics/src/bank.rs)
if [[ -z "$bind" ]] || grep -F '.clear()' <<<"$bind"; then
    echo "error: DrawBank::bind is gone or resets a bound bank (bind it once)" >&2
    exit 1
fi

# A bank is named when it is made: `SharedBank::new(root)` makes every
# bank, a species is (solve seed, fingerprint, provider bits), and no caller
# passes a generator or an identity to name a bank, so there is nothing to
# compare on a read and no sharing contract to write down.
echo "==> bank-named-when-made grep gate"
if grep -rnE 'BankId|fn is_bound|SharedBank::default|must use the same|panic_at_a_miss' \
    crates tests examples; then
    echo "error: a bank named by its caller, or the one-seed sharing contract, is back (see matches above)" >&2
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
