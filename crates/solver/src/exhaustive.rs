//! Exhaustive deployment search — the intractable-in-general ground truth.
//!
//! The paper found BFS-style exhaustive solving "intractable and
//! resource-inefficient" at production scale (§5.1); it remains invaluable
//! for small instances: correctness tests compare HBSS against the true
//! optimum, and the solver ablation bench quantifies HBSS's optimality
//! gap.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;

use crate::context::{SolveOutcome, SolverContext};
use crate::engine::EvalEngine;

/// Upper bound on the search-space size exhaustive solving accepts.
pub const MAX_SPACE: usize = 100_000;

/// Enumerates the permitted assignments in odometer order.
fn enumerate_plans<S: CarbonDataSource, M: StageModels>(
    ctx: &SolverContext<'_, S, M>,
    space: usize,
) -> Vec<DeploymentPlan> {
    let n = ctx.dag.node_count();
    let mut idx = vec![0usize; n];
    let mut plans = Vec::with_capacity(space);
    loop {
        let assignment: Vec<RegionId> = (0..n).map(|i| ctx.permitted[i][idx[i]]).collect();
        plans.push(DeploymentPlan::new(assignment));
        let mut carry = true;
        for (i, slot) in idx.iter_mut().enumerate() {
            if !carry {
                break;
            }
            *slot += 1;
            if *slot < ctx.permitted[i].len() {
                carry = false;
            } else {
                *slot = 0;
            }
        }
        if carry {
            return plans;
        }
    }
}

/// Exhaustively evaluates all `|R|^|N|` deployments: the full space is
/// enumerated up front and fanned across the engine's worker pool, every
/// plan folding the engine's draw bank. Bit-identical at any worker
/// count. Returns `None` when the space exceeds [`MAX_SPACE`].
pub fn solve_with<S: CarbonDataSource + Sync, M: StageModels + Sync>(
    engine: &EvalEngine,
    ctx: &SolverContext<'_, S, M>,
    hour: f64,
) -> Option<SolveOutcome> {
    let space = ctx.search_space_size();
    if space > MAX_SPACE {
        return None;
    }
    let home_plan = ctx.home_plan();
    let home_estimate = engine.evaluate(ctx, &home_plan, hour);
    let plans = enumerate_plans(ctx, space);
    let estimates = engine.evaluate_many(ctx, &plans, hour);
    Some(ctx.best_feasible(
        home_plan,
        home_estimate,
        plans.into_iter().zip(estimates),
        space,
    ))
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
    use caribou_model::rng::Pcg32;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::orchestration::Orchestrator;

    use crate::hbss::HbssSolver;

    #[test]
    fn exhaustive_covers_space_and_hbss_matches_it() {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "ca-central-1" => 32.0,
                _ => 360.0,
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }

        let mut wf = Workflow::new("w", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 4.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 8.0 })
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 10_000.0 });
        let (dag, profile, _) = wf.extract().unwrap();

        let home = cat.id_of("us-east-1").unwrap();
        let universe = cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe; 2];
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
                latency: 0.5,
                cost: 0.5,
                carbon: f64::INFINITY,
            },
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 400,
                cv_threshold: 0.05,
            },
        };

        // The whole space, and an outcome that is bit-identical
        // regardless of worker count.
        let ex = solve_with(&EvalEngine::new(7, 1), &ctx, 0.5).unwrap();
        let ex8 = solve_with(&EvalEngine::new(7, 8), &ctx, 0.5).unwrap();
        assert_eq!(ex.evaluated, 16); // 4^2 assignments
        assert_eq!(ex.best.assignment(), ex8.best.assignment());
        assert_eq!(ex.best_estimate, ex8.best_estimate);

        let engine = EvalEngine::new(2, 1);
        let hb = HbssSolver::new().solve_with(&engine, &ctx, 0.5, &mut Pcg32::seed(2));
        // With a small space HBSS explores it fully; it must find a plan
        // within a small factor of the true optimum.
        let gap = ctx.metric_of(&hb.best_estimate) / ctx.metric_of(&ex.best_estimate);
        assert!(gap < 1.1, "optimality gap {gap}");
    }

    #[test]
    fn huge_space_rejected() {
        // 10 nodes × 10 regions = 10^10 — over the cap.
        let cloud = SimCloud::aws(0);
        let (cat, pricing, runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        let mut carbon = TableSource::new();
        for (id, _) in cat.iter() {
            carbon.insert(id, CarbonSeries::new(0, vec![100.0; 24]));
        }
        let mut wf = Workflow::new("big", "0.1");
        let mut prev = wf.serverless_function("n0").register();
        for i in 1..10 {
            let cur = wf.serverless_function(format!("n{i}")).register();
            wf.invoke(prev, cur, None);
            prev = cur;
        }
        let (dag, profile, _) = wf.extract().unwrap();
        let home = cat.id_of("us-east-1").unwrap();
        let permitted: Vec<Vec<_>> = vec![cat.all_ids(); 10];
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
            tolerances: Tolerances::default(),
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig::default(),
        };
        assert!(solve_with(&EvalEngine::new(1, 1), &ctx, 0.5).is_none());
    }
}
