//! Solver micro-benchmarks and the HBSS-vs-baselines ablation (§5.1).
//!
//! Measures the wall-clock of one deployment solve for the three solver
//! strategies across DAG sizes. The paper reports HBSS as the only
//! tractable option at production scale: exhaustive enumeration is
//! exponential, coarse is fast but globally suboptimal.
//!
//! The `solver24` group benches the full 24-hour schedule solve through
//! the deterministic evaluation engine at 1 and 4 workers, and a
//! hand-rolled guard at the end verifies the engine's contract:
//! bit-identical schedules at any worker count, a warm estimate cache,
//! and (on machines with ≥4 cores) a ≥2× speedup.

use std::hint::black_box;
use std::time::Instant;

use caribou_bench::harness::{default_tolerances, mc_config, ExpEnv};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::DefaultModels;
use caribou_model::constraints::{Constraints, Objective};
use caribou_model::rng::Pcg32;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::hourly::solve_hourly_with;
use caribou_solver::{coarse, exhaustive};
use caribou_workloads::benchmarks::{
    dna_visualization, text2speech_censoring, video_analytics, Benchmark, InputSize,
};
use criterion::{criterion_group, BenchmarkId, Criterion};

fn bench_solvers(c: &mut Criterion) {
    let env = ExpEnv::new(77);
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);
    for bench in [
        dna_visualization(InputSize::Small),
        text2speech_censoring(InputSize::Small),
        video_analytics(InputSize::Small),
    ] {
        let mk_ctx = |b: &Benchmark, permitted: &[Vec<caribou_model::region::RegionId>]| {
            // Closure only exists to name the lifetime; contexts are
            // constructed inline below.
            let _ = (b, permitted);
        };
        let _ = mk_ctx;
        let mut constraints = Constraints::unconstrained(bench.dag.node_count());
        constraints.tolerances = default_tolerances();
        let permitted = constraints
            .permitted_regions(&bench.dag, &env.regions, &env.cloud.regions, env.home)
            .unwrap();
        let models = DefaultModels {
            profile: &bench.profile,
            runtime: &env.cloud.compute,
            latency: &env.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &bench.dag,
            profile: &bench.profile,
            permitted: &permitted,
            home: env.home,
            objective: Objective::Carbon,
            tolerances: default_tolerances(),
            carbon_source: &env.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            mc_config: mc_config(),
        };
        group.bench_with_input(BenchmarkId::new("hbss", bench.name), &ctx, |b, ctx| {
            let solver = HbssSolver::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                solver.solve_with(&EvalEngine::new(seed, 1), ctx, 12.5, &mut Pcg32::seed(seed))
            });
        });
        group.bench_with_input(BenchmarkId::new("coarse", bench.name), &ctx, |b, ctx| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                coarse::solve_with(&EvalEngine::new(seed, 1), ctx, 12.5)
            });
        });
        // Exhaustive only where the space is enumerable in reasonable time.
        if ctx.search_space_size() <= 1024 {
            group.bench_with_input(
                BenchmarkId::new("exhaustive", bench.name),
                &ctx,
                |b, ctx| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        exhaustive::solve_with(&EvalEngine::new(seed, 1), ctx, 12.5)
                    });
                },
            );
        }
    }
    group.finish();
}

/// Runs `f` with a text2speech solver context over the experiment
/// environment — the workload the 24-hour engine benches and guard share.
fn with_t2s_ctx<R>(
    f: impl FnOnce(&SolverContext<'_, caribou_carbon::source::RegionalSource, DefaultModels<'_>>) -> R,
) -> R {
    let env = ExpEnv::new(77);
    let bench = text2speech_censoring(InputSize::Small);
    let mut constraints = Constraints::unconstrained(bench.dag.node_count());
    constraints.tolerances = default_tolerances();
    let permitted = constraints
        .permitted_regions(&bench.dag, &env.regions, &env.cloud.regions, env.home)
        .unwrap();
    let models = DefaultModels {
        profile: &bench.profile,
        runtime: &env.cloud.compute,
        latency: &env.cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx = SolverContext {
        dag: &bench.dag,
        profile: &bench.profile,
        permitted: &permitted,
        home: env.home,
        objective: Objective::Carbon,
        tolerances: default_tolerances(),
        carbon_source: &env.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&env.cloud.pricing),
        models: &models,
        mc_config: mc_config(),
    };
    f(&ctx)
}

fn bench_solve_24h(c: &mut Criterion) {
    with_t2s_ctx(|ctx| {
        let solver = HbssSolver::new();
        let mut group = c.benchmark_group("solver24");
        group.sample_size(10);
        for workers in [1usize, 4] {
            group.bench_function(BenchmarkId::new("engine", format!("{workers}w")), |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    // A fresh engine per solve: the cache must earn its
                    // keep within one 24-hour schedule, not across
                    // repetitions.
                    let engine = EvalEngine::new(seed, workers);
                    solve_hourly_with(
                        &engine,
                        &solver,
                        ctx,
                        12.0,
                        0.0,
                        1e9,
                        &mut Pcg32::seed(seed),
                    )
                });
            });
        }
        group.finish();
    });
}

/// Best-of-batches wall-clock of one full 24-hour schedule solve.
fn time_solve(runs: usize, mut solve: impl FnMut(u64) -> caribou_model::plan::HourlyPlans) -> f64 {
    let mut best_s = f64::INFINITY;
    for i in 0..runs {
        let start = Instant::now();
        black_box(solve(1000 + i as u64));
        best_s = best_s.min(start.elapsed().as_secs_f64());
    }
    best_s
}

/// Hard guard on the evaluation engine's contract, reported against the
/// telemetry counters the engine flushes:
///
/// * the 24-hour schedule is bit-identical at 1 and 4 workers;
/// * `solver.cache.hit` is positive on a default HBSS schedule solve;
/// * with ≥4 cores available, the 4-worker solve is ≥2× faster than the
///   1-worker one (on smaller machines the speedup is printed but not
///   asserted — determinism makes the result identical either way).
fn guard_parallel_solve() {
    caribou_telemetry::enable(Box::new(caribou_telemetry::MemorySink::default()));
    let (speedup_4w, hits, misses) = with_t2s_ctx(|ctx| {
        let solver = HbssSolver::new();

        // Contract first: identical schedules, warm cache.
        let e1 = EvalEngine::new(7, 1);
        let e4 = EvalEngine::new(7, 4);
        let p1 = solve_hourly_with(&e1, &solver, ctx, 12.0, 0.0, 1e9, &mut Pcg32::seed(7));
        let p4 = solve_hourly_with(&e4, &solver, ctx, 12.0, 0.0, 1e9, &mut Pcg32::seed(7));
        assert_eq!(p1, p4, "24-hour schedule must not depend on worker count");
        assert!(e1.hit_count() > 0, "estimate cache never hit");
        assert_eq!(e1.hit_count(), e4.hit_count(), "cache traffic must match");

        let w1_s = time_solve(3, |seed| {
            let engine = EvalEngine::new(seed, 1);
            solve_hourly_with(
                &engine,
                &solver,
                ctx,
                12.0,
                0.0,
                1e9,
                &mut Pcg32::seed(seed),
            )
        });
        let w4_s = time_solve(3, |seed| {
            let engine = EvalEngine::new(seed, 4);
            solve_hourly_with(
                &engine,
                &solver,
                ctx,
                12.0,
                0.0,
                1e9,
                &mut Pcg32::seed(seed),
            )
        });
        println!("solver24/guard: engine 1w {w1_s:.3} s · engine 4w {w4_s:.3} s");
        (w1_s / w4_s, e1.hit_count(), e1.miss_count())
    });
    let counted_hits = caribou_telemetry::finish()
        .map(|f| f.recorder.counter("solver.cache.hit"))
        .unwrap_or(0);
    println!(
        "solver24/guard: cache {hits} hits / {misses} misses (telemetry counted {counted_hits}) · 4w speedup {speedup_4w:.2}x"
    );
    assert!(
        counted_hits > 0,
        "solver.cache.hit telemetry counter stayed zero"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup_4w >= 2.0,
            "4-worker 24-hour solve only {speedup_4w:.2}x faster than 1-worker (budget: 2x, cores: {cores})"
        );
    } else {
        println!("solver24/guard: speedup assertion skipped ({cores} core(s) available; needs 4)");
    }
    write_baseline(speedup_4w, hits, misses, cores);
}

/// Records the measured numbers so CI diffs have a committed baseline.
fn write_baseline(speedup_4w: f64, hits: u64, misses: u64, cores: usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let root = serde_json::json!({
        "cache_hits": hits,
        "cache_misses": misses,
        "cores": cores,
        "speedup_4w": (speedup_4w * 1000.0).round() / 1000.0,
    });
    match serde_json::to_string_pretty(&root) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("solver24/guard: could not write {path}: {e}");
            }
        }
        Err(e) => eprintln!("solver24/guard: could not serialize baseline: {e}"),
    }
}

criterion_group!(benches, bench_solvers, bench_solve_24h);

fn main() {
    benches();
    guard_parallel_solve();
}
