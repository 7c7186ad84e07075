//! Solver regression suite for the deterministic parallel evaluation
//! engine: whatever the worker count, a solve is a pure function of its
//! seeds, and every cache hit is bit-equal to the fresh computation it
//! replaced.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_core::scenario::{default_tolerances, Case, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::{
    DefaultModels, EstimateScratch, EstimateSummary, MonteCarloConfig,
};
use caribou_model::builder::Workflow;
use caribou_model::constraints::Tolerances;
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::hourly::solve_hourly_with;
use caribou_workloads::benchmarks::{dna_visualization, InputSize};
use proptest::prelude::*;

/// Worker counts every invariant is checked across.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Builds a small diurnal two-node world and hands the solver context to
/// `f`. The context borrows a pile of locals, hence the closure shape.
fn with_ctx<R>(f: impl FnOnce(&SolverContext<'_, TableSource, DefaultModels<'_>>) -> R) -> R {
    let mut cloud = SimCloud::aws(0);
    cloud.compute.cold_start_prob = 0.0;
    let cat = &cloud.regions;
    let east = cat.id_of("us-east-1").unwrap();
    let west = cat.id_of("us-west-2").unwrap();
    let ca = cat.id_of("ca-central-1").unwrap();
    // Carbon with per-region diurnal structure so different hours pick
    // different winners and the solver has real work to do.
    let mut carbon = TableSource::new();
    for (id, _) in cat.iter() {
        let values: Vec<f64> = (0..24)
            .map(|h| {
                if id == west {
                    if h < 12 {
                        60.0
                    } else {
                        800.0
                    }
                } else if id == ca {
                    120.0 + 10.0 * (h % 6) as f64
                } else {
                    380.0
                }
            })
            .collect();
        carbon.insert(id, CarbonSeries::new(0, values));
    }
    let mut wf = Workflow::new("w", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 5.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Uniform { lo: 4.0, hi: 8.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 8_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    let permitted = vec![vec![east, west, ca], vec![east, west, ca]];
    let case = Case::on_default_models(
        &cloud,
        east,
        &dag,
        &profile,
        TransmissionScenario::BEST,
        MonteCarloConfig {
            batch: 60,
            max_samples: 120,
            cv_threshold: 0.1,
        },
    );
    let tolerances = Tolerances {
        latency: 0.5,
        cost: 0.5,
        carbon: f64::INFINITY,
    };
    let ctx = case.context(&permitted, tolerances, &carbon);
    f(&ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The HBSS-selected plan and its estimate summary are bit-identical
    /// at 1, 2 and 8 workers for any (engine seed, walk seed, hour).
    #[test]
    fn hbss_solve_is_worker_count_invariant(
        engine_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::new(engine_seed, workers);
                solver.solve_with(&engine, ctx, hour, &mut Pcg32::seed(walk_seed))
            };
            let base = solve_at(WORKER_COUNTS[0]);
            for &w in &WORKER_COUNTS[1..] {
                let other = solve_at(w);
                assert_eq!(base.best.assignment(), other.best.assignment());
                assert_eq!(base.best_estimate, other.best_estimate);
                assert_eq!(base.home_estimate, other.home_estimate);
                assert_eq!(base.evaluated, other.evaluated);
            }
        });
    }

    /// The full 24-hour schedule (the paper's per-solve unit, §5.1) is
    /// bit-identical at any worker count, and its shared cache is used.
    #[test]
    fn hourly_schedule_is_worker_count_invariant(
        engine_seed in any::<u64>(),
        walk_seed in any::<u64>(),
    ) {
        with_ctx(|ctx| {
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::new(engine_seed, workers);
                let plans = solve_hourly_with(
                    &engine, &solver, ctx, 0.0, 0.0, 86_400.0,
                    &mut Pcg32::seed(walk_seed),
                );
                (plans, engine.hit_count())
            };
            let (base, base_hits) = solve_at(WORKER_COUNTS[0]);
            assert!(base_hits > 0, "estimate cache never hit");
            for &w in &WORKER_COUNTS[1..] {
                let (other, other_hits) = solve_at(w);
                assert_eq!(&base, &other);
                assert_eq!(base_hits, other_hits, "cache traffic at {w} workers");
            }
        });
    }

    /// Cache soundness: a cached estimate is bit-equal to a fresh
    /// uncached evaluation on the same derived stream.
    #[test]
    fn cached_estimate_equals_fresh_run(
        engine_seed in any::<u64>(),
        region_picks in (0usize..3, 0usize..3),
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let assignment = vec![
                ctx.permitted[0][region_picks.0],
                ctx.permitted[1][region_picks.1],
            ];
            let plan = DeploymentPlan::new(assignment);
            let engine = EvalEngine::new(engine_seed, 1);
            let first = engine.evaluate(ctx, &plan, hour);
            let cached = engine.evaluate(ctx, &plan, hour);
            assert_eq!(engine.miss_count(), 1);
            assert_eq!(engine.hit_count(), 1);
            // Fresh run outside the engine, on the same derived stream.
            let fresh = ctx.evaluate(&plan, hour, &mut engine.eval_rng(&plan, hour));
            assert_eq!(first, cached);
            assert_eq!(first, fresh);
        });
    }

    /// An estimate is a pure function of (engine seed, context, plan,
    /// hour): not of the order evaluations arrive in, the worker count,
    /// or how far earlier estimates already extended the engine's bank.
    #[test]
    fn estimates_are_pure_under_order_workers_and_bank_extension(
        engine_seed in any::<u64>(),
        hour_idx in 0u8..23,
    ) {
        with_ctx(|ctx| {
            let hours = [hour_idx as f64 + 0.5, hour_idx as f64 + 1.5];
            let plans = all_plans(ctx.permitted);
            // Each on an engine of its own: the bank holds the one batch
            // that one estimate asked for.
            let alone: Vec<_> = hours
                .iter()
                .flat_map(|&h| plans.iter().map(move |p| (p, h)))
                .map(|(p, h)| EvalEngine::new(engine_seed, 1).evaluate(ctx, p, h))
                .collect();
            assert!(alone.iter().all(|e| e.samples == 60));
            for workers in WORKER_COUNTS {
                let engine = EvalEngine::new(engine_seed, workers);
                let fanned: Vec<_> = hours
                    .iter()
                    .flat_map(|&h| engine.evaluate_many(ctx, &plans, h))
                    .collect();
                assert_eq!(alone, fanned, "{workers} workers");
            }
            // Last plan of the last hour first, on a bank a stricter rule
            // (at an hour of its own: the cache keys by hour, the bank does
            // not) already took to 300 samples.
            let engine = EvalEngine::new(engine_seed, 1);
            let strict = SolverContext {
                cost_model: ctx.cost_model.clone(),
                mc_config: MonteCarloConfig { max_samples: 300, cv_threshold: 0.0, ..ctx.mc_config },
                ..*ctx
            };
            assert_eq!(engine.evaluate(&strict, &plans[5], 99.5).samples, 300);
            let mut backwards: Vec<_> = hours
                .iter()
                .rev()
                .flat_map(|&h| plans.iter().rev().map(move |p| (p, h)))
                .map(|(p, h)| engine.evaluate(ctx, p, h))
                .collect();
            backwards.reverse();
            assert_eq!(alone, backwards);
        });
    }

    /// Common random numbers, observed: two plans that agree on a node's
    /// region read the same draws there. With every other region on a
    /// zero-carbon grid, the execution carbon of a plan is the shared
    /// node's per-sample durations alone — and it is bit-equal.
    #[test]
    fn plans_agreeing_on_a_node_share_its_durations(
        engine_seed in any::<u64>(),
        shared in 1usize..3,
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let node_b = ctx.permitted[1][shared];
            let mut carbon = TableSource::new();
            for &r in &ctx.permitted[0] {
                let v = if r == node_b { 300.0 } else { 0.0 };
                carbon.insert(r, CarbonSeries::new(0, vec![v; 24]));
            }
            let ctx = SolverContext {
                carbon_source: &carbon,
                cost_model: ctx.cost_model.clone(),
                // A fixed sample count: the stopping rule must not cut the
                // two plans' columns at different lengths.
                mc_config: MonteCarloConfig { cv_threshold: 0.0, ..ctx.mc_config },
                ..*ctx
            };
            let engine = EvalEngine::new(engine_seed, 1);
            let [a, b] = [0usize, 3 - shared].map(|elsewhere| {
                let plan = DeploymentPlan::new(vec![ctx.permitted[0][elsewhere], node_b]);
                engine.evaluate(&ctx, &plan, hour)
            });
            assert!(a.exec_carbon_mean > 0.0);
            assert_eq!(a.exec_carbon_mean.to_bits(), b.exec_carbon_mean.to_bits());
            // The plans do differ: where node A runs moves the latency.
            assert_ne!(a.latency.mean, b.latency.mean);
        });
    }
}

/// Every assignment of the (small) permitted sets.
fn all_plans(permitted: &[Vec<RegionId>]) -> Vec<DeploymentPlan> {
    let mut plans = vec![Vec::new()];
    for set in permitted {
        plans = plans
            .iter()
            .flat_map(|p| set.iter().map(move |r| [p.as_slice(), &[*r]].concat()))
            .collect();
    }
    plans.into_iter().map(DeploymentPlan::new).collect()
}

/// What the bank is for: HBSS compares neighbours that differ in one
/// node's region, and on one bank they differ *only* there, so the
/// difference of their estimates is far less noisy than the difference of
/// two estimates on independent draws.
#[test]
fn neighbour_differences_have_less_variance_on_one_bank() {
    with_ctx(|ctx| {
        let [east, west, _] = ctx.permitted[0][..] else {
            panic!("three permitted regions")
        };
        let here = DeploymentPlan::new(vec![east, east]);
        let neighbour = DeploymentPlan::new(vec![east, west]);
        let variance = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
        };
        // Carbon gains least: the neighbour scales the same execution
        // noise by a six times cleaner grid, and only the common part of
        // the two scaled noises cancels.
        type Metric = fn(&EstimateSummary) -> f64;
        let metrics: [(Metric, f64); 3] = [
            (|e| e.carbon.mean, 1.0),
            (|e| e.latency.mean, 1_000.0),
            (|e| e.cost.mean, 1_000.0),
        ];
        for (metric, gain) in metrics {
            let (mut shared, mut independent) = (Vec::new(), Vec::new());
            for seed in 0..40 {
                let engine = EvalEngine::new(seed, 1);
                let other = EvalEngine::new(seed + 1_000, 1);
                let base = metric(&engine.evaluate(ctx, &here, 6.5));
                shared.push(metric(&engine.evaluate(ctx, &neighbour, 6.5)) - base);
                independent.push(metric(&other.evaluate(ctx, &neighbour, 6.5)) - base);
            }
            let (crn, ind) = (variance(&shared), variance(&independent));
            assert!(crn * gain < ind, "shared bank {crn:e}, independent {ind:e}");
        }
    });
}

/// Cache misses fold in their worker thread's estimator scratch instead
/// of allocating node-state columns per `estimate()` call: across many
/// misses on one worker (a fresh test thread), exactly one column set is
/// ever allocated.
#[test]
fn engine_scratch_pool_reuses_node_state_across_misses() {
    with_ctx(|ctx| {
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let engine = EvalEngine::new(7, 1);
        let mut misses = 0;
        for i in 0..3 {
            for j in 0..3 {
                let plan = DeploymentPlan::new(vec![ctx.permitted[0][i], ctx.permitted[1][j]]);
                engine.evaluate(ctx, &plan, 6.5);
                misses += 1;
            }
        }
        let session = caribou_telemetry::finish().unwrap();
        assert_eq!(engine.miss_count(), misses);
        let allocs = session.recorder.counter("montecarlo.node_state_allocs");
        // 3 counts = one column set, from the first miss only.
        assert_eq!(allocs, 3, "allocs {allocs} across {misses} misses");
        // And one bank: each column drawn once, to the 120 samples the
        // stopping rule can ask for at most.
        let columns = session.recorder.counter("montecarlo.bank.columns");
        let draws = session.recorder.counter("montecarlo.bank.draws");
        assert!(columns > 0 && draws <= columns * 120, "{draws} draws");
    });
}

/// A scratch carries nothing from one estimate to the next: DNA
/// Visualization with every execution median ×5, entered with the same
/// generator state on a scratch the original profile used first, returns
/// its own estimate, bit for bit the fresh one (30.82 s mean latency), not
/// the original's (6.25 s), which a scratch that kept its bank would serve
/// back with the original's draws and derived columns.
#[test]
fn a_scratch_another_profile_used_serves_this_profile_its_own_estimate() {
    let world = World::evaluation(9);
    let bench = dna_visualization(InputSize::Small);
    let mut slow = bench.clone();
    for node in &mut slow.profile.nodes {
        node.exec_time = node.exec_time.scaled(5.0);
    }
    let permitted = vec![world.regions.clone(); bench.dag.node_count()];
    let plan = DeploymentPlan::uniform(bench.dag.node_count(), world.region("ca-central-1"));
    let mc = MonteCarloConfig::default();
    let cases = [&bench, &slow].map(|b| world.case(b, TransmissionScenario::BEST, mc));
    let [original, scaled] = cases
        .each_ref()
        .map(|case| case.context(&permitted, default_tolerances(), &world.carbon));
    let fresh = scaled.evaluate(&plan, 0.5, &mut Pcg32::seed(9));
    let mut scratch = EstimateScratch::default();
    let first = original.evaluate_with_scratch(&plan, 0.5, &mut Pcg32::seed(9), &mut scratch);
    let reused = scaled.evaluate_with_scratch(&plan, 0.5, &mut Pcg32::seed(9), &mut scratch);
    assert!(
        (6.2..6.3).contains(&first.latency.mean),
        "{}",
        first.latency.mean
    );
    assert!(
        (30.8..30.85).contains(&fresh.latency.mean),
        "{}",
        fresh.latency.mean
    );
    assert_eq!(
        reused, fresh,
        "the scaled profile read {:.2} s on the used scratch, {:.2} s fresh",
        reused.latency.mean, fresh.latency.mean
    );
}

/// A 24-hour solve with plan records in play — each plan folded at the
/// first hour that visits it and re-priced at every other — leaves the
/// same schedule, the same cache and the same bank at 1, 2 and 8 workers;
/// and on one worker, where no two misses race, the estimator folded
/// exactly the distinct plans the solve visited.
#[test]
fn hourly_solve_with_records_in_play_is_worker_count_invariant() {
    with_ctx(|ctx| {
        let plans = all_plans(ctx.permitted);
        let hours = (0..24).map(|h| h as f64 + 0.5);
        let keys: Vec<_> = plans
            .iter()
            .flat_map(|p| hours.clone().map(move |h| (p, h)))
            .collect();
        let solve_at = |workers: usize| {
            caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
            let engine = EvalEngine::new(11, workers);
            let schedule = solve_hourly_with(
                &engine,
                &HbssSolver::new(),
                ctx,
                0.0,
                0.0,
                86_400.0,
                &mut Pcg32::seed(11),
            );
            let recorder = caribou_telemetry::finish().unwrap().recorder;
            // The cache's contents: which (plan, hour) it holds, and what.
            let len = engine.cache_len();
            let contents: Vec<_> = keys
                .iter()
                .map(|(plan, hour)| {
                    let misses = engine.miss_count();
                    let estimate = engine.evaluate(ctx, plan, *hour);
                    (engine.miss_count() == misses).then_some(estimate)
                })
                .collect();
            assert_eq!(contents.iter().flatten().count(), len);
            (schedule, contents, recorder)
        };
        let (schedule, contents, one) = solve_at(1);
        let visited = contents
            .chunks(24)
            .filter(|hours| hours.iter().any(Option::is_some));
        let (folds, repriced) = (
            one.counter("montecarlo.folds"),
            one.counter("montecarlo.repriced"),
        );
        assert_eq!(folds, visited.count() as u64, "one fold per plan visited");
        assert!(repriced > folds, "{folds} folds, {repriced} repricings");
        assert_eq!(folds + repriced, one.counter("solver.cache.miss"));
        assert_eq!(folds + repriced, one.counter("montecarlo.estimates"));
        assert!(one.counter("montecarlo.bank.derived") > 0);
        for workers in &WORKER_COUNTS[1..] {
            let (other_schedule, other_contents, many) = solve_at(*workers);
            assert_eq!(schedule, other_schedule, "{workers} workers");
            assert_eq!(contents, other_contents, "cache at {workers} workers");
            for key in [
                "montecarlo.bank.columns",
                "montecarlo.bank.draws",
                "montecarlo.bank.extensions",
                "montecarlo.bank.derived",
            ] {
                assert_eq!(one.counter(key), many.counter(key), "{key} at {workers}");
            }
        }
    });
}
