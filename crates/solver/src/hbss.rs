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
//!
//! Alg. 1 has no dedup, and neither has this walk: a candidate drawn again
//! goes through the acceptance step again and draws what it drew before.
//! What a revisit skips is the estimate. Beside each slot of its
//! first-visit set the walk keeps its *verdict* on that plan, the metric
//! it is ordered by or `None` when it violates a tolerance (the home
//! plan's verdict is taken like any other's), and a revisit reads the
//! verdict instead of probing the cache. By cache soundness the probe
//! would have returned the bits the first visit read, so the walk is
//! unchanged; the revisits are tallied as the cache hits they replace, at
//! the end of the solve ([`EvalEngine::tally_hits`]).
//!
//! Every buffer the walk fills — the hour row, the intensity table, the
//! rankings, their weights and the weights' prefix sums, the first-visit
//! set and its verdicts, the current and candidate plans — belongs to its
//! thread and is refilled in place by the next solve there, so a solve on
//! a warm engine allocates only the plan it returns.

use std::cell::RefCell;

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::{EstimateSummary, StageModels};
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
    /// instead of consuming the walk generator, and a duplicate candidate
    /// re-enters the acceptance step on the verdict its first visit read
    /// (module docs). The result depends only on `(params, ctx, hour, rng
    /// seed, engine seed)` — never on the engine's worker count.
    pub fn solve_with<S: CarbonDataSource, M: StageModels>(
        &self,
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, M>,
        hour: f64,
        rng: &mut Pcg32,
    ) -> SolveOutcome {
        // Taken, not borrowed: a solve that ran inside this one would walk
        // in buffers of its own.
        let mut walk = WALK.take();
        let outcome = self.walk(engine, ctx, hour, rng, &mut walk);
        WALK.set(walk);
        outcome
    }

    /// [`Self::solve_with`] in `walk`'s buffers.
    fn walk<S: CarbonDataSource, M: StageModels>(
        &self,
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, M>,
        hour: f64,
        rng: &mut Pcg32,
        walk: &mut Walk,
    ) -> SolveOutcome {
        let telemetry = caribou_telemetry::is_enabled();
        let _solve_span = telemetry.then(|| caribou_telemetry::wall_span("solver", "hbss.solve"));
        let Walk {
            row,
            intensity,
            ranked,
            weights,
            totals,
            seen,
            verdicts,
            current: current_plan,
            candidate: nd,
        } = walk;
        let p = &self.params;
        let n_nodes = ctx.dag.node_count();
        // Every estimate of this solve reads the grid at this one hour:
        // the source is asked once per permitted region and home, here.
        let regions = ctx.permitted.iter().flatten().copied();
        let row = HourRow::fill(ctx.carbon_source, hour, regions.chain([ctx.home]), row);
        let ctx = &ctx.with_source(&row);
        // The forecast carbon intensity at this hour of every permitted
        // region.
        intensity.clear();
        intensity.extend(ctx.permitted.iter().flatten().map(|r| (*r, 0.0)));
        intensity.sort_unstable_by_key(|(r, _)| *r);
        intensity.dedup_by_key(|(r, _)| *r);
        for (region, value) in intensity.iter_mut() {
            *value = ctx.carbon_source.intensity(*region, hour);
        }
        let n_regions = intensity.len();
        let alpha = (n_nodes * n_regions * p.alpha_factor).min(p.max_iterations);
        let space = ctx.search_space_size();

        // Region bias: rank permitted regions per node ascending by that
        // intensity; HBSS samples ranks with geometric weights w_r =
        // β(1-β)^r (the "heuristic bias", Bresina's bias-rank sampling).
        // A node with fewer choices reads a prefix of the one table.
        ranked.fill(ctx.permitted, |r| {
            let found = intensity.binary_search_by_key(r, |(region, _)| *region);
            intensity[found.expect("a permitted region")].1
        });
        let most_choices = ctx.permitted.iter().map(Vec::len).max().unwrap_or(0);
        weights.clear();
        weights.extend((0..most_choices).map(|r| BETA * (1.0 - BETA).powi(r as i32)));
        // Each draw reads a prefix of the weights and its sum, taken here
        // once by the left fold a draw would take.
        totals.clear();
        totals.extend(weights.iter().scan(0.0, |sum, w| {
            *sum += w;
            Some(*sum)
        }));

        // The one allocation of the solve: the plan it returns, overwritten
        // in place by each improvement.
        let mut best_plan = ctx.home_plan();
        let home_estimate = engine.evaluate(ctx, &best_plan, hour);
        // What the walk read of a plan it visited: the metric it is ordered
        // by, or `None` when it violates a tolerance (home may, too).
        let verdict = |estimate: &EstimateSummary| {
            (!ctx.violates_tolerance(estimate, &home_estimate)).then(|| ctx.metric_of(estimate))
        };
        current_plan.clone_from(&best_plan);
        let mut current_metric = ctx.metric_of(&home_estimate);
        let mut gamma = GAMMA_INITIAL;

        // The walk visits at most the home plan and one plan per iteration,
        // so the first-visit set is sized once and never grows. Beside each
        // slot sits its plan's verdict: a revisit reads it there.
        seen.reset(n_nodes, (alpha + 1).min(space));
        seen.insert(best_plan.assignment());
        verdicts.clear();
        verdicts.push(verdict(&home_estimate));
        let mut evaluated = 1usize;
        let mut revisits = 0u64;
        let mut best_metric = current_metric;
        let mut best_estimate = home_estimate;

        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut i = 0usize;
        while i < alpha {
            // The candidate is rewritten in one buffer from the current
            // plan, and an acceptance swaps the two.
            self.gen_new_deployment(current_plan, nd, ranked, weights, totals, rng);
            i += 1;
            let (slot, first_visit) = seen.insert(nd.assignment());
            let read = if first_visit {
                evaluated += 1;
                let estimate = engine.evaluate(ctx, nd, hour);
                let read = verdict(&estimate);
                verdicts.push(read);
                match read {
                    None if telemetry => caribou_telemetry::count("solver.infeasible", 1),
                    Some(metric) if metric < best_metric => {
                        best_metric = metric;
                        best_plan.clone_from(nd);
                        best_estimate = estimate;
                    }
                    _ => {}
                }
                read
            } else {
                revisits += 1;
                verdicts[slot as usize]
            };
            let Some(metric) = read else {
                continue;
            };
            let accept = metric < current_metric
                || self.stochastic_mutation(gamma, current_metric, metric, rng);
            if accept {
                accepted += 1;
                std::mem::swap(current_plan, nd);
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
        engine.tally_hits(revisits);
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
        totals: &[f64],
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
            let k = choices.len();
            let pick = rng
                .choose_weighted_summed(&weights[..k], totals[k - 1])
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
#[derive(Default)]
struct Rankings {
    regions: Vec<RegionId>,
    /// Node `i`'s regions end at `ends[i]`.
    ends: Vec<usize>,
}

impl Rankings {
    /// Ranks each node's set by `intensity`, ties in permitted order, in
    /// place of what the buffers held.
    fn fill(&mut self, permitted: &[Vec<RegionId>], intensity: impl Fn(&RegionId) -> f64) {
        let Rankings { regions, ends } = self;
        regions.clear();
        ends.clear();
        for set in permitted {
            let start = regions.len();
            regions.extend_from_slice(set);
            regions[start..].sort_by(|a, b| intensity(a).total_cmp(&intensity(b)));
            ends.push(regions.len());
        }
    }

    fn of(&self, node: usize) -> &[RegionId] {
        let start = node.checked_sub(1).map_or(0, |prior| self.ends[prior]);
        &self.regions[start..self.ends[node]]
    }
}

/// A walk's buffers, kept between the solves of one thread at the size the
/// largest walk so far needed; each solve refills them from scratch.
#[derive(Default)]
struct Walk {
    /// The grid row at the solve's hour ([`HourRow`]).
    row: Vec<f64>,
    /// Each permitted region and its intensity at the solve's hour, by id.
    intensity: Vec<(RegionId, f64)>,
    ranked: Rankings,
    /// The rank weights `β(1-β)^r`.
    weights: Vec<f64>,
    /// `totals[k - 1]` is the sum of the first `k` rank weights.
    totals: Vec<f64>,
    /// The first-visit set: every plan the walk visited, a slot each.
    seen: KeyArena,
    /// By slot of `seen`, the metric of that plan's estimate, or `None`
    /// when the plan violates a tolerance.
    verdicts: Vec<Option<f64>>,
    /// The walk's current plan and the candidate drawn from it.
    current: DeploymentPlan,
    candidate: DeploymentPlan,
}

thread_local! {
    /// The walk buffers of this thread. Like the estimator's scratch they
    /// hold no result: a solve's outcome depends on nothing left in them.
    static WALK: RefCell<Walk> = RefCell::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EstimateCache, DEFAULT_CACHE_CAPACITY};
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

    /// A cache bounded at one entry evicts every plan the walk read but
    /// the last; a revisit reads the walk's own verdict, so the outcome is
    /// the unbounded engine's, and so are the hit and miss tallies.
    #[test]
    fn a_walk_on_a_one_entry_cache_solves_like_an_unbounded_one() {
        let fx = fx();
        let (dag, profile) = compute_heavy_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let permitted: Vec<Vec<_>> = vec![fx.cat.evaluation_regions(); 2];
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
        let solve = |capacity| {
            let cache = EstimateCache::shared(capacity);
            let engine = EvalEngine::with_cache_providers(5, 0, 0, 1, cache);
            let outcome = HbssSolver::new().solve_with(&engine, &ctx, 0.5, &mut Pcg32::seed(5));
            let cache = engine.cache();
            let tallies = (cache.hit_count(), cache.miss_count());
            (outcome, tallies, cache.eviction_count())
        };
        let (bounded, bounded_tallies, evicted) = solve(1);
        let (unbounded, tallies, none) = solve(DEFAULT_CACHE_CAPACITY);
        assert_eq!(bounded.best, unbounded.best);
        assert_eq!(bounded.best_estimate, unbounded.best_estimate);
        assert_eq!(bounded.home_estimate, unbounded.home_estimate);
        assert_eq!(bounded.evaluated, unbounded.evaluated);
        assert_eq!(bounded_tallies, tallies);
        assert!(tallies.0 > 0, "the walk revisited nothing");
        assert_eq!((evicted, none), (unbounded.evaluated as u64 - 1, 0));
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
