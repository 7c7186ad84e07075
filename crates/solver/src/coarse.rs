//! Coarse single-region solver — the `O(|R|)` baseline of §5.1.
//!
//! "A simple approach to tame the search space is to limit the deployment
//! of all DAG nodes to the same region, reducing the solver complexity to
//! `O(|R|)`. However, this approach can be globally suboptimal" — it
//! cannot offload off-critical-path nodes or navigate per-node compliance.
//! The Fig. 7 experiment uses this solver for the "Coarse" bars.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::plan::DeploymentPlan;

use crate::context::{SolveOutcome, SolverContext};
use crate::engine::EvalEngine;

/// Evaluates the single-region plan for every region permitted for *all*
/// nodes and returns the best feasible one (home when nothing qualifies).
/// The candidates are independent, so they fan across the engine's worker
/// pool — bit-identical at any worker count.
pub fn solve_with<S: CarbonDataSource + Sync, M: StageModels + Sync>(
    engine: &EvalEngine,
    ctx: &SolverContext<'_, S, M>,
    hour: f64,
) -> SolveOutcome {
    let home_plan = ctx.home_plan();
    let home_estimate = engine.evaluate(ctx, &home_plan, hour);
    let candidates: Vec<DeploymentPlan> = ctx.permitted[0]
        .iter()
        .copied()
        .filter(|r| *r != ctx.home && ctx.permitted.iter().all(|set| set.contains(r)))
        .map(|r| DeploymentPlan::uniform(ctx.dag.node_count(), r))
        .collect();
    let estimates = engine.evaluate_many(ctx, &candidates, hour);
    let evaluated = 1 + candidates.len();
    ctx.best_feasible(
        home_plan,
        home_estimate,
        candidates.into_iter().zip(estimates),
        evaluated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
    use caribou_metrics::costmodel::CostModel;
    use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
    use caribou_model::builder::Workflow;
    use caribou_model::constraints::{Objective, Tolerances};
    use caribou_model::dist::DistSpec;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::orchestration::Orchestrator;

    #[test]
    fn coarse_evaluates_one_plan_per_region() {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = if spec.name == "ca-central-1" {
                32.0
            } else {
                380.0
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }
        let mut wf = Workflow::new("w", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 5.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 5.0 })
            .register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let home = cat.id_of("us-east-1").unwrap();
        let universe = cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe.clone(); 2];
        let models = DefaultModels {
            profile: &profile,
            runtime: &runtime,
            latency: &latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home,
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: 1.0,
                cost: 1.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 300,
                cv_threshold: 0.05,
            },
        };
        // Bit-identical at any worker count.
        let c1 = solve_with(&EvalEngine::new(3, 1), &ctx, 0.5);
        let c8 = solve_with(&EvalEngine::new(3, 8), &ctx, 0.5);
        assert_eq!(c1.evaluated, 4); // |R| single-region plans
        assert!(c1.best.is_single_region());
        assert_eq!(c1.best.assignment(), c8.best.assignment());
        assert_eq!(c1.best_estimate, c8.best_estimate);
        // The clean region wins under a generous tolerance.
        assert_eq!(
            c1.best.region_of(caribou_model::dag::NodeId(0)),
            cat.id_of("ca-central-1").unwrap()
        );
    }

    #[test]
    fn per_node_constraint_shrinks_candidate_set() {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        let mut carbon = TableSource::new();
        for (id, _) in cat.iter() {
            carbon.insert(id, CarbonSeries::new(0, vec![100.0; 24]));
        }
        let mut wf = Workflow::new("w", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let home = cat.id_of("us-east-1").unwrap();
        let usw2 = cat.id_of("us-west-2").unwrap();
        let ca = cat.id_of("ca-central-1").unwrap();
        // Node 0 must stay in the US: ca-central-1 is not a common region.
        let permitted = vec![vec![home, usw2], vec![home, usw2, ca]];
        let models = DefaultModels {
            profile: &profile,
            runtime: &runtime,
            latency: &latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home,
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: 1.0,
                cost: 1.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let outcome = solve_with(&EvalEngine::new(1, 1), &ctx, 0.5);
        // Candidates: home (skipped as baseline duplicate) + us-west-2.
        assert_eq!(outcome.evaluated, 2);
        assert_ne!(
            outcome.best.region_of(caribou_model::dag::NodeId(0)),
            ca,
            "coarse must never use a region excluded for any node"
        );
    }
}
