//! Property-based tests for the deployment solvers.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
use caribou_model::builder::Workflow;
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dist::DistSpec;
use caribou_model::region::{RegionCatalog, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::PricingCatalog;
use caribou_solver::coarse;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use proptest::prelude::*;

struct Fx {
    cat: RegionCatalog,
    pricing: PricingCatalog,
    runtime: LambdaRuntime,
    latency: LatencyModel,
    carbon: TableSource,
}

fn fixture(seed: u64) -> Fx {
    let cloud = SimCloud::aws(0);
    let (cat, pricing, mut runtime, latency) =
        (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
    runtime.cold_start_prob = 0.0;
    let mut rng = Pcg32::seed(seed);
    let mut carbon = TableSource::new();
    for (id, _) in cat.iter() {
        let base = rng.uniform(20.0, 600.0);
        carbon.insert(id, CarbonSeries::new(0, vec![base; 24]));
    }
    Fx {
        cat,
        pricing,
        runtime,
        latency,
        carbon,
    }
}

fn random_chain(
    seed: u64,
    n: usize,
) -> (caribou_model::WorkflowDag, caribou_model::WorkflowProfile) {
    let mut rng = Pcg32::seed(seed);
    let mut wf = Workflow::new("chain", "0.1");
    let mut prev = None;
    for i in 0..n {
        let h = wf
            .serverless_function(format!("s{i}"))
            .exec_time(DistSpec::Constant {
                value: rng.uniform(0.5, 8.0),
            })
            .memory_mb([512, 1024, 1769][rng.next_index(3)])
            .register();
        if let Some(p) = prev {
            wf.invoke(p, h, None).payload(DistSpec::Constant {
                value: rng.uniform(1e3, 1e6),
            });
        }
        prev = Some(h);
    }
    let (dag, profile, _) = wf.extract().unwrap();
    (dag, profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any random world and chain workflow: the HBSS best plan only
    /// uses permitted regions and never scores worse than the home plan.
    #[test]
    fn hbss_respects_feasibility_and_never_regresses(seed in any::<u64>(), n in 1usize..4) {
        let fx = fixture(seed);
        let (dag, profile) = random_chain(seed, n);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let mut rng = Pcg32::seed(seed ^ 0x11);
        // Random permitted subsets (home always included by construction).
        let universe = fx.cat.evaluation_regions();
        let permitted: Vec<Vec<RegionId>> = (0..n)
            .map(|_| {
                let mut set: Vec<RegionId> = universe
                    .iter()
                    .copied()
                    .filter(|_| rng.chance(0.7))
                    .collect();
                if !set.contains(&home) {
                    set.push(home);
                }
                set.sort_unstable();
                set
            })
            .collect();
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home,
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: 0.3,
                cost: 1.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 40,
                max_samples: 80,
                cv_threshold: 0.15,
            },
        };
        let engine = EvalEngine::new(seed, 1);
        let outcome = HbssSolver::new().solve_with(&engine, &ctx, 0.5, &mut Pcg32::seed(seed ^ 0x22));
        for node in dag.all_nodes() {
            prop_assert!(
                permitted[node.index()].contains(&outcome.best.region_of(node)),
                "node {node} placed outside its permitted set"
            );
        }
        // The home plan is always feasible, so the best metric never
        // exceeds the home metric (same-seed evaluation noise aside, the
        // best is selected as the minimum of a set containing home).
        prop_assert!(
            ctx.metric_of(&outcome.best_estimate) <= ctx.metric_of(&outcome.home_estimate) + 1e-12
        );
    }

    /// Coarse solving with a single permitted region returns the home plan.
    #[test]
    fn coarse_degenerate_region_set(seed in any::<u64>()) {
        let fx = fixture(seed);
        let (dag, profile) = random_chain(seed, 2);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let permitted = vec![vec![home]; 2];
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home,
            objective: Objective::Carbon,
            tolerances: Tolerances::default(),
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 40,
                max_samples: 80,
                cv_threshold: 0.15,
            },
        };
        let outcome = coarse::solve_with(&EvalEngine::new(seed, 1), &ctx, 0.5);
        prop_assert!(outcome.best.is_single_region());
        prop_assert_eq!(outcome.best.region_of(caribou_model::dag::NodeId(0)), home);
        prop_assert_eq!(outcome.evaluated, 1);
    }
}
