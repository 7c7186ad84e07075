//! Shared experiment infrastructure for the figure/table binaries.
//!
//! The experiment pipeline mirrors the paper's methodology (§9.1):
//! deployment plans are solved on *forecast* carbon data (Holt-Winters on
//! the trailing week) and evaluated on *actual* data over the evaluation
//! week (2023-10-15 .. 2023-10-21 — simulation hours 0..168); carbon is
//! reported normalized to the coarse `us-east-1` deployment; both the
//! best-case and worst-case transmission-carbon scenarios are reported.
//! Every strategy of a figure row is solved and scored in one [`Week`].

use caribou_carbon::source::ForecastingSource;
use caribou_core::scenario::{Case, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::{DefaultModels, EstimateSummary, MonteCarloConfig};
use caribou_model::constraints::{Constraints, Tolerances};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::SeedSplitter;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_workloads::benchmarks::Benchmark;

/// Hours in the evaluation week.
pub const WEEK_HOURS: usize = 168;

/// Hours between evaluation points in the figure binaries.
pub const STEP_H: usize = 3;

/// Monte Carlo budget for experiment evaluation.
pub fn mc_config() -> MonteCarloConfig {
    MonteCarloConfig {
        batch: 100,
        max_samples: 400,
        cv_threshold: 0.08,
    }
}

/// HBSS parameters for experiment solving (slightly tightened iteration
/// cap to keep full-figure runs quick).
pub fn hbss_params() -> HbssParams {
    HbssParams {
        max_iterations: 150,
        ..HbssParams::default()
    }
}

/// Aggregated metrics of one deployment strategy over the week.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyResult {
    /// Mean carbon per invocation, gCO₂eq.
    pub carbon_g: f64,
    /// Execution-only component.
    pub exec_carbon_g: f64,
    /// Transmission-only component.
    pub trans_carbon_g: f64,
    /// Mean end-to-end latency, seconds.
    pub latency_mean_s: f64,
    /// Mean tail (p95) end-to-end latency, seconds.
    pub latency_p95_s: f64,
    /// Mean cost per invocation, USD.
    pub cost_usd: f64,
}

impl StrategyResult {
    fn accumulate(&mut self, e: &EstimateSummary) {
        self.carbon_g += e.carbon.mean;
        self.exec_carbon_g += e.exec_carbon_mean;
        self.trans_carbon_g += e.trans_carbon_mean;
        self.latency_mean_s += e.latency.mean;
        self.latency_p95_s += e.latency.p95;
        self.cost_usd += e.cost.mean;
    }

    fn scale(&mut self, f: f64) {
        self.carbon_g *= f;
        self.exec_carbon_g *= f;
        self.trans_carbon_g *= f;
        self.latency_mean_s *= f;
        self.latency_p95_s *= f;
        self.cost_usd *= f;
    }
}

/// One benchmark under one transmission scenario over the evaluation
/// week, sampled every `step` hours, on one seed. Its two engines hold the
/// same bank values, so a plan is solved and scored on the same draws, two
/// strategies that pick one plan at an hour read one cache entry, and a
/// strategy that stays home scores exactly what home does (DESIGN.md
/// "Scenario assembly": why two engines, and why one forecast side serves
/// every fine strategy).
pub struct Week<'w> {
    world: &'w World,
    bench: &'w Benchmark,
    case: Case<'w, DefaultModels<'w>>,
    step: usize,
    seed: u64,
    /// Solves on each day's forecast.
    forecast: EvalEngine,
    /// Scores on the actual carbon.
    actual: EvalEngine,
}

impl<'w> Week<'w> {
    /// The week of `bench` in `world` under `scenario`, on `seed`.
    pub fn new(
        world: &'w World,
        bench: &'w Benchmark,
        scenario: TransmissionScenario,
        step: usize,
        seed: u64,
    ) -> Self {
        Week {
            world,
            bench,
            case: world.case(bench, scenario, mc_config()),
            step,
            seed,
            forecast: EvalEngine::new(seed, 1),
            actual: EvalEngine::new(seed, 1),
        }
    }

    /// `plan` at `hour` on the actual carbon.
    pub fn score(&self, plan: &DeploymentPlan, hour: f64) -> EstimateSummary {
        let ctx = self
            .case
            .context(&[], Tolerances::default(), &self.world.carbon);
        self.actual.evaluate(&ctx, plan, hour)
    }

    /// Scores `plan_at(hour)` every `step` hours of the week and averages.
    pub fn eval(&self, mut plan_at: impl FnMut(f64) -> DeploymentPlan) -> StrategyResult {
        let mut total = StrategyResult::default();
        let mut n = 0usize;
        for hour in (0..WEEK_HOURS).step_by(self.step) {
            let h = hour as f64 + 0.5;
            total.accumulate(&self.score(&plan_at(h), h));
            n += 1;
        }
        total.scale(1.0 / n.max(1) as f64);
        total
    }

    /// The coarse single-region deployment to `region`; at the world's
    /// home it is every figure's baseline.
    pub fn coarse(&self, region: RegionId) -> StrategyResult {
        let plan = DeploymentPlan::uniform(self.bench.dag.node_count(), region);
        self.eval(|_| plan.clone())
    }

    /// Caribou's fine-grained deployment over `regions` under
    /// `constraints`, solved at every sampled hour.
    pub fn fine(&self, regions: &[RegionId], constraints: &Constraints) -> StrategyResult {
        self.eval(self.planner(regions, constraints))
    }

    /// No placement constraint on any node, and `tolerances` of home.
    pub fn tolerating(&self, tolerances: Tolerances) -> Constraints {
        let mut constraints = Constraints::unconstrained(self.bench.dag.node_count());
        constraints.tolerances = tolerances;
        constraints
    }

    /// The plan [`Week::fine`] deploys at an hour: HBSS on the forecast
    /// fitted at that day's start — the paper's solve-on-forecast /
    /// evaluate-on-actual split — walking a stream split from (seed, hour).
    pub fn planner(
        &self,
        regions: &[RegionId],
        constraints: &Constraints,
    ) -> impl Fn(f64) -> DeploymentPlan + '_ {
        let home = self.world.home;
        let permitted = constraints
            .permitted_regions(&self.bench.dag, regions, &self.world.cloud.regions, home)
            .expect("valid constraints");
        let mut fitted = regions.to_vec();
        if !fitted.contains(&home) {
            fitted.push(home);
        }
        let tolerances = constraints.tolerances;
        let solver = HbssSolver {
            params: hbss_params(),
        };
        move |hour| {
            let day_start = (hour / 24.0).floor() * 24.0;
            let forecast = ForecastingSource::fit(&self.world.carbon, &fitted, day_start, 48);
            let ctx = self.case.context(&permitted, tolerances, &forecast);
            let mut walk = SeedSplitter::new(self.seed).absorb(hour.to_bits()).rng();
            solver
                .solve_with(&self.forecast, &ctx, hour, &mut walk)
                .best
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Writes machine-readable experiment output under `results/`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("[wrote {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_core::scenario::default_tolerances;
    use caribou_workloads::benchmarks::{dna_visualization, InputSize};

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn week_produces_positive_metrics() {
        let env = World::evaluation(1);
        let bench = dna_visualization(InputSize::Small);
        let r = Week::new(&env, &bench, TransmissionScenario::BEST, 24, 1).coarse(env.home);
        assert!(r.carbon_g > 0.0);
        assert!(r.latency_mean_s > 0.0);
        assert!(r.latency_p95_s >= r.latency_mean_s);
        assert!(r.cost_usd > 0.0);
    }

    #[test]
    fn strategies_of_a_week_share_its_estimates() {
        let env = World::evaluation(2);
        let bench = dna_visualization(InputSize::Small);
        let week = Week::new(&env, &bench, TransmissionScenario::BEST, 24, 1);
        let within = week.tolerating(default_tolerances());
        assert_eq!(week.fine(&[env.home], &within), week.coarse(env.home));
        // Both strategies move the one node to ca-central-1 at every
        // sampled hour: the second reads the first's seven entries.
        let all = week.fine(&env.regions, &within);
        let (hits, misses) = (week.actual.hit_count(), week.actual.miss_count());
        let pair = [env.home, env.region("ca-central-1")];
        assert_eq!(week.fine(&pair, &within), all);
        assert_eq!(week.actual.hit_count() - hits, 7);
        assert_eq!(week.actual.miss_count(), misses);
    }

    #[test]
    fn solve_and_score_engines_hold_one_bank() {
        let env = World::evaluation(2);
        let bench = dna_visualization(InputSize::Small);
        let week = Week::new(&env, &bench, TransmissionScenario::BEST, 24, 1);
        let ctx = week.case.context(&[], Tolerances::default(), &env.carbon);
        for region in [env.home, env.region("ca-central-1")] {
            let plan = DeploymentPlan::uniform(1, region);
            assert_eq!(
                week.forecast.evaluate(&ctx, &plan, 0.5),
                week.score(&plan, 0.5)
            );
        }
    }
}
