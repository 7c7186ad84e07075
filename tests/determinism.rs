//! Cross-component determinism: every experiment pipeline is a pure
//! function of its seeds, so published numbers are reproducible bit for
//! bit.

use caribou_bench::harness::{coarse_over_week, eval_over_week, FineSolver};
use caribou_core::scenario::{default_tolerances, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

/// Hours between evaluation points: the figures' pipelines at coarse
/// resolution.
const STEP: usize = 12;

#[test]
fn full_experiment_pipeline_is_bit_reproducible() {
    let run = || {
        let env = World::evaluation(600);
        let bench = text2speech_censoring(InputSize::Small);
        let base = coarse_over_week(&env, &bench, TransmissionScenario::BEST, STEP, env.home, 1);
        let mut solver = FineSolver::new(
            &env,
            &bench,
            &env.regions,
            TransmissionScenario::BEST,
            default_tolerances(),
            2,
        );
        let fine = eval_over_week(
            &env,
            &bench,
            TransmissionScenario::BEST,
            STEP,
            |h| solver.plan_at(h),
            3,
        );
        (
            base.carbon_g,
            fine.carbon_g,
            fine.latency_p95_s,
            fine.cost_usd,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must give identical numbers");
}

#[test]
fn different_seeds_change_noise_not_conclusions() {
    let norm_for = |seed: u64| -> f64 {
        let env = World::evaluation(seed);
        let bench = text2speech_censoring(InputSize::Small);
        let base = coarse_over_week(
            &env,
            &bench,
            TransmissionScenario::BEST,
            STEP,
            env.home,
            seed,
        );
        let mut solver = FineSolver::new(
            &env,
            &bench,
            &env.regions,
            TransmissionScenario::BEST,
            default_tolerances(),
            seed,
        );
        let fine = eval_over_week(
            &env,
            &bench,
            TransmissionScenario::BEST,
            STEP,
            |h| solver.plan_at(h),
            seed + 1,
        );
        fine.carbon_g / base.carbon_g
    };
    let a = norm_for(601);
    let b = norm_for(602);
    assert_ne!(a, b, "different seeds perturb the numbers");
    // ...but the headline conclusion (large best-case savings for the
    // compute-heavy workload) is seed-robust.
    assert!(a < 0.4 && b < 0.4, "a {a} b {b}");
}
