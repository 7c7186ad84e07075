//! Shared solver context: evaluation, feasibility, and result types.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::bank::SharedBank;
use caribou_metrics::carbonmodel::CarbonModel;
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::fold::PlanRecord;
use caribou_metrics::montecarlo::{
    EstimateScratch, EstimateSummary, MonteCarloConfig, MonteCarloEstimator, StageModels,
};
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dag::WorkflowDag;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

/// Everything a solver needs to evaluate candidate deployments.
pub struct SolverContext<'a, S: CarbonDataSource, M: StageModels> {
    /// Workflow DAG.
    pub dag: &'a WorkflowDag,
    /// Workload profile (possibly refreshed from logs).
    pub profile: &'a WorkflowProfile,
    /// Permitted regions per node, already narrowed by constraints (§8).
    pub permitted: &'a [Vec<RegionId>],
    /// Home region: baseline, fallback, and client/external-data anchor.
    pub home: RegionId,
    /// Optimization priority.
    pub objective: Objective,
    /// QoS tolerances versus the home-region deployment.
    pub tolerances: Tolerances,
    /// Carbon data (the solver receives *forecast* data in production).
    pub carbon_source: &'a S,
    /// Carbon model with the transmission scenario.
    pub carbon_model: CarbonModel,
    /// Cost model.
    pub cost_model: CostModel<'a>,
    /// Stage behaviour models (learned or model-based).
    pub models: &'a M,
    /// Monte Carlo stopping rule.
    pub mc_config: MonteCarloConfig,
}

/// A solver's result: the one plan it hands the Migrator (Alg. 1 returns
/// the best deployment plan, §5.1) and the two estimates it was chosen by.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best feasible plan found (the home plan when nothing beats it).
    pub best: DeploymentPlan,
    /// Estimate of the best plan.
    pub best_estimate: EstimateSummary,
    /// Estimate of the home-region baseline.
    pub home_estimate: EstimateSummary,
    /// Distinct candidate plans evaluated.
    pub evaluated: usize,
}

impl<S: CarbonDataSource, M: StageModels> SolverContext<'_, S, M> {
    /// This context over another per-node permitted set.
    pub fn with_permitted<'b>(&'b self, permitted: &'b [Vec<RegionId>]) -> SolverContext<'b, S, M> {
        SolverContext {
            permitted,
            ..self.with_source(self.carbon_source)
        }
    }

    /// This context reading another carbon source.
    pub fn with_source<'b, T: CarbonDataSource>(
        &'b self,
        source: &'b T,
    ) -> SolverContext<'b, T, M> {
        SolverContext {
            dag: self.dag,
            profile: self.profile,
            permitted: self.permitted,
            home: self.home,
            objective: self.objective,
            tolerances: self.tolerances,
            carbon_source: source,
            carbon_model: self.carbon_model,
            cost_model: self.cost_model.clone(),
            models: self.models,
            mc_config: self.mc_config,
        }
    }

    /// Evaluates a plan at an hour on a draw bank of its own, named by
    /// `rng`.
    pub fn evaluate(&self, plan: &DeploymentPlan, hour: f64, rng: &mut Pcg32) -> EstimateSummary {
        self.evaluate_with_scratch(plan, hour, rng, &mut EstimateScratch::default())
    }

    /// [`SolverContext::evaluate`] in caller-owned estimator scratch, whose
    /// columns keep their capacity and nothing else: the result is
    /// `evaluate`'s, bit for bit, whatever the scratch served before.
    pub fn evaluate_with_scratch(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
    ) -> EstimateSummary {
        let (bank, unfolded) = (SharedBank::default(), PlanRecord::default());
        self.evaluate_on(plan, hour, rng, &bank, scratch, &unfolded)
            .0
    }

    /// Evaluates a plan at an hour on `bank`, drawn for this context,
    /// given the `record` an earlier evaluation of this plan on it returned
    /// (see `MonteCarloEstimator::estimate_on`); the engine passes its
    /// species' bank.
    pub fn evaluate_on(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        bank: &SharedBank,
        scratch: &mut EstimateScratch,
        record: &PlanRecord,
    ) -> (EstimateSummary, Option<PlanRecord>) {
        let est = MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: self.carbon_source,
            carbon_model: self.carbon_model,
            cost_model: self.cost_model.clone(),
            models: self.models,
            home: self.home,
            config: self.mc_config,
        };
        est.estimate_on(plan, hour, rng, bank, scratch, record)
    }

    /// The home-region uniform plan.
    pub fn home_plan(&self) -> DeploymentPlan {
        DeploymentPlan::uniform(self.dag.node_count(), self.home)
    }

    /// Whether a candidate violates the QoS tolerances versus the home
    /// baseline: tail (p95) latency/cost/carbon must stay within
    /// `home × (1 + tolerance)` (§7.1: "the 95th percentile is the 'tail
    /// case' used to determine tolerance violations").
    pub fn violates_tolerance(&self, candidate: &EstimateSummary, home: &EstimateSummary) -> bool {
        let over = |cand: f64, base: f64, tol: f64| -> bool {
            tol.is_finite() && cand > base * (1.0 + tol) + 1e-12
        };
        over(
            candidate.latency.p95,
            home.latency.p95,
            self.tolerances.latency,
        ) || over(candidate.cost.p95, home.cost.p95, self.tolerances.cost)
            || over(
                candidate.carbon.p95,
                home.carbon.p95,
                self.tolerances.carbon,
            )
    }

    /// The scalar metric a plan is ordered by ("the mean represents the
    /// 'average case' used for DP ordering", §7.1).
    pub fn metric_of(&self, estimate: &EstimateSummary) -> f64 {
        estimate.mean_of(self.objective)
    }

    /// The outcome of a solve that evaluated `candidates` beside the home
    /// plan: the first candidate of least metric among those within
    /// tolerance of home, or home when none beats it.
    pub(crate) fn best_feasible(
        &self,
        home_plan: DeploymentPlan,
        home_estimate: EstimateSummary,
        candidates: impl IntoIterator<Item = (DeploymentPlan, EstimateSummary)>,
        evaluated: usize,
    ) -> SolveOutcome {
        let mut best = home_plan;
        let mut best_metric = self.metric_of(&home_estimate);
        let mut best_estimate = home_estimate;
        for (plan, estimate) in candidates {
            if self.violates_tolerance(&estimate, &home_estimate) {
                continue;
            }
            let metric = self.metric_of(&estimate);
            if metric < best_metric {
                best_metric = metric;
                best = plan;
                best_estimate = estimate;
            }
        }
        SolveOutcome {
            best,
            best_estimate,
            home_estimate,
            evaluated,
        }
    }

    /// Total size of the search space `|R|^|N|` (clamped to `usize::MAX`).
    pub fn search_space_size(&self) -> usize {
        let mut total: usize = 1;
        for set in self.permitted {
            total = total.saturating_mul(set.len().max(1));
        }
        total
    }
}
