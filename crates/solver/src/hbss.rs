//! Heuristic-Biased Stochastic Sampling (Alg. 1 of the paper).
//!
//! Starting from the home-region deployment, HBSS repeatedly generates
//! neighbour deployments by re-assigning a few nodes, biased toward
//! low-carbon regions; accepts improvements outright and worse candidates
//! with a probability that shrinks with the gap and a decaying temperature
//! γ (×0.99 per acceptance); and terminates after `α = |N| · |R| · 6`
//! iterations or once the whole search space has been enumerated.
//!
//! One adaptation versus the paper's pseudo-code: the acceptance gap
//! `Δ = γ · |CD.metric − ND.metric|` is computed on the *relative* metric
//! difference scaled by `MUTATION_SCALE`. The paper's
//! absolute form is unit-dependent (carbon per invocation is milligrams,
//! so `e^{-Δ} ≈ 1` and the walk would accept everything); the relative
//! form preserves the intended behaviour across metrics.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::dag::NodeId;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::context::{SolveOutcome, SolverContext};
use crate::engine::EvalEngine;
use crate::hourly::HourRow;
use crate::keys::KeyArena;

/// Rank-bias β of the region-selection heuristic (Alg. 1): rank `r` is
/// drawn with weight `β(1-β)^r`. §5.1 fixes β, γ and its decay
/// ("determined empirically"); no caller ever set another value.
const BETA: f64 = 0.2;
/// Initial temperature γ of the acceptance step (§5.1).
const GAMMA_INITIAL: f64 = 1.0;
/// Temperature decay per acceptance (§5.1: γ × 0.99).
const GAMMA_DECAY: f64 = 0.99;
/// Scale applied to the relative metric gap in the stochastic mutation
/// acceptance (the module docs' adaptation of Alg. 1's `MUT`).
const MUTATION_SCALE: f64 = 20.0;

/// The HBSS iteration budget (Alg. 1), the part of the search callers
/// size to their workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbssParams {
    /// Iteration budget multiplier: `α = |N| · |R| · alpha_factor`.
    pub alpha_factor: usize,
    /// Hard cap on iterations regardless of DAG/region count, mirroring
    /// the dynamic adjustment to AWS Lambda's 900 s limit (§5.1).
    pub max_iterations: usize,
}

impl Default for HbssParams {
    fn default() -> Self {
        HbssParams {
            alpha_factor: 6,
            max_iterations: 5_000,
        }
    }
}

/// The HBSS deployment solver.
#[derive(Debug, Clone, Default)]
pub struct HbssSolver {
    /// Hyper-parameters.
    pub params: HbssParams,
}

impl HbssSolver {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs HBSS for the deployment at a given hour, every candidate
    /// evaluated through `engine`: estimates fold the engine's draw bank
    /// instead of consuming the walk generator, and repeated candidates
    /// are cache lookups.
    ///
    /// Duplicate candidates re-enter the acceptance step (the paper's
    /// Alg. 1 has no dedup — affordable since re-evaluation is a
    /// lookup), and the result depends only on `(params, ctx, hour, rng
    /// seed, engine seed)` — never on the engine's worker count.
    pub fn solve_with<S: CarbonDataSource, M: StageModels>(
        &self,
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, M>,
        hour: f64,
        rng: &mut Pcg32,
    ) -> SolveOutcome {
        let telemetry = caribou_telemetry::is_enabled();
        let _solve_span = telemetry.then(|| caribou_telemetry::wall_span("solver", "hbss.solve"));
        let p = &self.params;
        let n_nodes = ctx.dag.node_count();
        // Every estimate of this solve reads the grid at this one hour:
        // the source is asked once per permitted region and home, here.
        let regions = ctx.permitted.iter().flatten().copied();
        let row = HourRow::new(ctx.carbon_source, hour, regions.chain([ctx.home]));
        let ctx = &ctx.with_source(&row);
        // The forecast carbon intensity at this hour of every permitted
        // region.
        let choices = ctx.permitted.iter().map(Vec::len).sum();
        let mut intensity: Vec<(RegionId, f64)> = Vec::with_capacity(choices);
        intensity.extend(ctx.permitted.iter().flatten().map(|r| (*r, 0.0)));
        intensity.sort_unstable_by_key(|(r, _)| *r);
        intensity.dedup_by_key(|(r, _)| *r);
        for (region, value) in &mut intensity {
            *value = ctx.carbon_source.intensity(*region, hour);
        }
        let n_regions = intensity.len();
        let alpha = (n_nodes * n_regions * p.alpha_factor).min(p.max_iterations);
        let space = ctx.search_space_size();

        // Region bias: rank permitted regions per node ascending by that
        // intensity; HBSS samples ranks with geometric weights w_r =
        // β(1-β)^r (the "heuristic bias", Bresina's bias-rank sampling).
        // A node with fewer choices reads a prefix of the one table.
        let ranked = Rankings::new(ctx.permitted, |r| {
            let found = intensity.binary_search_by_key(r, |(region, _)| *region);
            intensity[found.expect("a permitted region")].1
        });
        let most_choices = ctx.permitted.iter().map(Vec::len).max().unwrap_or(0);
        let weights: Vec<f64> = (0..most_choices)
            .map(|r| BETA * (1.0 - BETA).powi(r as i32))
            .collect();

        let home_plan = ctx.home_plan();
        let home_estimate = engine.evaluate(ctx, &home_plan, hour);
        let mut current_plan = home_plan.clone();
        let mut current_metric = ctx.metric_of(&home_estimate);
        let mut gamma = GAMMA_INITIAL;
        // The one candidate buffer of the solve: each iteration rewrites
        // it from the current plan, and an acceptance swaps the two.
        let mut nd = home_plan.clone();

        // The walk visits at most the home plan and one plan per iteration,
        // so the first-visit set is sized once and never grows.
        let mut seen = KeyArena::with_capacity(n_nodes, (alpha + 1).min(space));
        seen.insert(home_plan.assignment());
        let mut evaluated = 1usize;
        // Overwritten in place by each improvement.
        let mut best_plan = home_plan;
        let mut best_metric = current_metric;
        let mut best_estimate = home_estimate;

        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut i = 0usize;
        while i < alpha {
            self.gen_new_deployment(&current_plan, &mut nd, &ranked, &weights, rng);
            i += 1;
            let first_visit = seen.insert(nd.assignment()).1;
            if first_visit {
                evaluated += 1;
            }
            let estimate = engine.evaluate(ctx, &nd, hour);
            if ctx.violates_tolerance(&estimate, &home_estimate) {
                if telemetry && first_visit {
                    caribou_telemetry::count("solver.infeasible", 1);
                }
                continue;
            }
            let metric = ctx.metric_of(&estimate);
            if first_visit && metric < best_metric {
                best_metric = metric;
                best_plan.clone_from(&nd);
                best_estimate = estimate;
            }
            let accept = metric < current_metric
                || self.stochastic_mutation(gamma, current_metric, metric, rng);
            if accept {
                accepted += 1;
                std::mem::swap(&mut current_plan, &mut nd);
                current_metric = metric;
                gamma *= GAMMA_DECAY;
                if telemetry {
                    // The temperature trajectory: one point per acceptance.
                    caribou_telemetry::event("solver.accept", format!("h{}", hour as u64), gamma);
                }
            } else {
                rejected += 1;
            }
            if seen.len() >= space {
                break;
            }
        }
        if telemetry {
            caribou_telemetry::count("solver.iterations", i as u64);
            caribou_telemetry::count("solver.accepted", accepted);
            caribou_telemetry::count("solver.rejected", rejected);
            caribou_telemetry::count("solver.evaluated", evaluated as u64);
            caribou_telemetry::gauge("solver.gamma", gamma);
            caribou_telemetry::event("solver.solve", format!("h{}", hour as u64), i as f64);
        }
        SolveOutcome {
            best: best_plan,
            best_estimate,
            home_estimate,
            evaluated,
        }
    }

    /// `GenNewDeplWBias`: writes into `nd` the current plan with one or two
    /// nodes mutated, choosing replacement regions rank-biased toward low
    /// carbon.
    fn gen_new_deployment(
        &self,
        current: &DeploymentPlan,
        nd: &mut DeploymentPlan,
        ranked: &Rankings,
        weights: &[f64],
        rng: &mut Pcg32,
    ) {
        nd.clone_from(current);
        let n = current.len();
        let mutations = if n > 1 && rng.chance(0.3) { 2 } else { 1 };
        for _ in 0..mutations {
            let node = rng.next_index(n);
            let choices = ranked.of(node);
            if choices.len() <= 1 {
                continue;
            }
            let pick = rng
                .choose_weighted(&weights[..choices.len()])
                .expect("non-empty positive weights");
            nd.set(NodeId(node as u32), choices[pick]);
        }
    }

    /// `MUT`: accepts a worse candidate with probability `e^{-Δ}` where
    /// `Δ = γ · |rel gap| · MUTATION_SCALE`.
    fn stochastic_mutation(
        &self,
        gamma: f64,
        current: f64,
        candidate: f64,
        rng: &mut Pcg32,
    ) -> bool {
        let denom = current.abs().max(1e-30);
        let delta = gamma * ((current - candidate).abs() / denom) * MUTATION_SCALE;
        rng.next_f64() < (-delta).exp()
    }
}

/// Each node's permitted regions ascending by intensity, in one buffer.
struct Rankings {
    regions: Vec<RegionId>,
    /// Node `i`'s regions end at `ends[i]`.
    ends: Vec<usize>,
}

impl Rankings {
    /// Sorts each node's set by `intensity`, ties in permitted order.
    fn new(permitted: &[Vec<RegionId>], intensity: impl Fn(&RegionId) -> f64) -> Self {
        let mut regions = Vec::with_capacity(permitted.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(permitted.len());
        for set in permitted {
            let start = regions.len();
            regions.extend_from_slice(set);
            regions[start..].sort_by(|a, b| intensity(a).total_cmp(&intensity(b)));
            ends.push(regions.len());
        }
        Rankings { regions, ends }
    }

    fn of(&self, node: usize) -> &[RegionId] {
        let start = node.checked_sub(1).map_or(0, |prior| self.ends[prior]);
        &self.regions[start..self.ends[node]]
    }
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
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::compute::LambdaRuntime;
    use caribou_simcloud::latency::LatencyModel;
    use caribou_simcloud::orchestration::Orchestrator;
    use caribou_simcloud::pricing::PricingCatalog;

    struct Fx {
        cat: RegionCatalog,
        pricing: PricingCatalog,
        runtime: LambdaRuntime,
        latency: LatencyModel,
        carbon: TableSource,
    }

    fn fx() -> Fx {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "us-west-1" => 360.0,
                "us-west-2" => 370.0,
                "ca-central-1" => 32.0,
                _ => 400.0,
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }
        Fx {
            cat,
            pricing,
            runtime,
            latency,
            carbon,
        }
    }

    fn compute_heavy_workflow() -> (caribou_model::WorkflowDag, caribou_model::WorkflowProfile) {
        let mut wf = Workflow::new("heavy", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 5.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 10.0 })
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 50_000.0 });
        wf.set_input(DistSpec::Constant { value: 10_000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    #[test]
    fn hbss_offloads_compute_heavy_workflow_to_clean_region() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let ca = fx.cat.id_of("ca-central-1").unwrap();
        let universe = fx.cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe.clone(); 2];
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
                latency: 0.5, // generous: compute-heavy, latency-tolerant
                cost: 0.5,
                carbon: f64::INFINITY,
            },
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 400,
                cv_threshold: 0.05,
            },
        };
        let outcome =
            HbssSolver::new().solve_with(&EvalEngine::new(1, 1), &ctx, 0.5, &mut Pcg32::seed(1));
        // ca-central-1 is ~12x cleaner; a 15 s compute-heavy workflow with
        // tiny payloads must end up there.
        assert_eq!(outcome.best.region_of(NodeId(0)), ca);
        assert_eq!(outcome.best.region_of(NodeId(1)), ca);
        assert!(
            outcome.best_estimate.carbon.mean < outcome.home_estimate.carbon.mean * 0.3,
            "best {} home {}",
            outcome.best_estimate.carbon.mean,
            outcome.home_estimate.carbon.mean
        );
    }

    #[test]
    fn tight_latency_tolerance_keeps_home() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let universe = fx.cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe; 2];
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
                latency: 0.0,
                cost: 0.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 400,
                cv_threshold: 0.05,
            },
        };
        let outcome =
            HbssSolver::new().solve_with(&EvalEngine::new(2, 1), &ctx, 0.5, &mut Pcg32::seed(2));
        // Zero tolerance on latency and cost: nothing beats home (offload
        // adds cross-region latency and cost premium); the solver must
        // fall back to the home deployment.
        assert!(outcome.best.is_single_region());
        assert_eq!(outcome.best.region_of(NodeId(0)), home);
    }

    #[test]
    fn deterministic_given_seed() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let universe = fx.cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe; 2];
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let make_ctx = || SolverContext {
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
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let solve = |ctx: &SolverContext<'_, TableSource, DefaultModels<'_>>| {
            HbssSolver::new().solve_with(&EvalEngine::new(9, 1), ctx, 0.5, &mut Pcg32::seed(9))
        };
        let a = solve(&make_ctx());
        let b = solve(&make_ctx());
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn respects_permitted_regions() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let usw2 = fx.cat.id_of("us-west-2").unwrap();
        // Node 0 pinned to home; node 1 may go to us-west-2 only.
        let permitted = vec![vec![home], vec![home, usw2]];
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
                latency: 1.0,
                cost: 1.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let outcome =
            HbssSolver::new().solve_with(&EvalEngine::new(3, 1), &ctx, 0.5, &mut Pcg32::seed(3));
        assert_eq!(outcome.best.region_of(NodeId(0)), home);
        let r1 = outcome.best.region_of(NodeId(1));
        assert!(r1 == home || r1 == usw2);
        // Small search space (2 plans) is fully enumerated.
        assert!(outcome.evaluated <= 2);
    }

    #[test]
    fn best_is_the_least_feasible_plan_visited() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let universe = fx.cat.evaluation_regions();
        let permitted: Vec<Vec<_>> = vec![universe; 2];
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
                latency: 0.5,
                cost: 0.5,
                carbon: f64::INFINITY,
            },
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let engine = EvalEngine::new(4, 1);
        let outcome = HbssSolver::new().solve_with(&engine, &ctx, 0.5, &mut Pcg32::seed(4));
        // The walk's visits are the plans the engine holds; re-evaluating
        // one is a cache hit with the bits the walk saw.
        let best = ctx.metric_of(&outcome.best_estimate);
        let mut feasible = 0;
        for a in &permitted[0] {
            for b in &permitted[1] {
                let plan = DeploymentPlan::new(vec![*a, *b]);
                if !engine.is_cached(&plan, 0.5) {
                    continue;
                }
                let estimate = engine.evaluate(&ctx, &plan, 0.5);
                if !ctx.violates_tolerance(&estimate, &outcome.home_estimate) {
                    feasible += 1;
                    assert!(best <= ctx.metric_of(&estimate), "{plan:?} beats the best");
                }
            }
        }
        assert!(feasible >= 2, "{feasible} feasible plans visited");
    }
}
