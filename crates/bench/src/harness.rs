//! Shared experiment infrastructure for the figure/table binaries.
//!
//! The experiment pipeline mirrors the paper's methodology (§9.1):
//! deployment plans are solved on *forecast* carbon data (Holt-Winters on
//! the trailing week) and evaluated on *actual* data over the evaluation
//! week (2023-10-15 .. 2023-10-21 — simulation hours 0..168); carbon is
//! reported normalized to the coarse `us-east-1` deployment; both the
//! best-case and worst-case transmission-carbon scenarios are reported.

use std::collections::HashMap;

use caribou_carbon::source::ForecastingSource;
use caribou_core::scenario::World;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::{EstimateSummary, MonteCarloConfig};
use caribou_model::constraints::{Constraints, Tolerances};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
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
#[derive(Debug, Clone, Copy, Default)]
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

/// Evaluates `plan_at(hour)` with the *actual* carbon source every
/// `step` hours of the evaluation week and averages.
pub fn eval_over_week(
    env: &World,
    bench: &Benchmark,
    scenario: TransmissionScenario,
    step: usize,
    mut plan_at: impl FnMut(f64) -> DeploymentPlan,
    seed: u64,
) -> StrategyResult {
    let case = env.case(bench, scenario, mc_config());
    let est = case.estimator(&env.carbon);
    let mut total = StrategyResult::default();
    let mut rng = Pcg32::seed_stream(seed, 0xe7a1);
    let mut n = 0usize;
    for hour in (0..WEEK_HOURS).step_by(step) {
        let h = hour as f64 + 0.5;
        total.accumulate(&est.estimate(&plan_at(h), h, &mut rng));
        n += 1;
    }
    total.scale(1.0 / n.max(1) as f64);
    total
}

/// The coarse single-region deployment to `region` over the week; at
/// `env.home` it is every figure's baseline.
pub fn coarse_over_week(
    env: &World,
    bench: &Benchmark,
    scenario: TransmissionScenario,
    step: usize,
    region: RegionId,
    seed: u64,
) -> StrategyResult {
    let plan = DeploymentPlan::uniform(bench.dag.node_count(), region);
    eval_over_week(env, bench, scenario, step, |_| plan.clone(), seed)
}

/// Caches one solved plan per sampled hour so the solver runs once per
/// point, on forecast data fitted at that day's start — the paper's
/// solve-on-forecast / evaluate-on-actual split.
pub struct FineSolver<'e> {
    env: &'e World,
    bench: &'e Benchmark,
    region_set: Vec<RegionId>,
    permitted: Vec<Vec<RegionId>>,
    scenario: TransmissionScenario,
    tolerances: Tolerances,
    cache: HashMap<usize, DeploymentPlan>,
    seed: u64,
}

impl<'e> FineSolver<'e> {
    /// Creates a solver over an explicit region set.
    pub fn new(
        env: &'e World,
        bench: &'e Benchmark,
        region_set: &[RegionId],
        scenario: TransmissionScenario,
        tolerances: Tolerances,
        seed: u64,
    ) -> Self {
        let mut constraints = Constraints::unconstrained(bench.dag.node_count());
        constraints.tolerances = tolerances;
        Self::with_constraints(env, bench, region_set, &constraints, scenario, seed)
    }

    /// Creates a solver honoring explicit per-node constraints.
    pub fn with_constraints(
        env: &'e World,
        bench: &'e Benchmark,
        region_set: &[RegionId],
        constraints: &Constraints,
        scenario: TransmissionScenario,
        seed: u64,
    ) -> Self {
        let permitted = constraints
            .permitted_regions(&bench.dag, region_set, &env.cloud.regions, env.home)
            .expect("valid constraints");
        let mut region_set: Vec<RegionId> = region_set.to_vec();
        if !region_set.contains(&env.home) {
            region_set.push(env.home);
        }
        FineSolver {
            env,
            bench,
            region_set,
            permitted,
            scenario,
            tolerances: constraints.tolerances,
            cache: HashMap::new(),
            seed,
        }
    }

    /// The solved plan for the given absolute hour (forecast-based).
    pub fn plan_at(&mut self, hour: f64) -> DeploymentPlan {
        let key = hour as usize;
        if let Some(p) = self.cache.get(&key) {
            return p.clone();
        }
        let day_start = (hour / 24.0).floor() * 24.0;
        let forecast = ForecastingSource::fit(&self.env.carbon, &self.region_set, day_start, 48);
        let case = self.env.case(self.bench, self.scenario, mc_config());
        let ctx = case.context(&self.permitted, self.tolerances, &forecast);
        let solver = HbssSolver {
            params: hbss_params(),
        };
        // The forecast is refitted per day: one engine per solve.
        let engine = EvalEngine::new(self.seed ^ key as u64, 1);
        let mut rng = Pcg32::seed_stream(self.seed ^ key as u64, 0x501e);
        let plan = solver.solve_with(&engine, &ctx, hour, &mut rng).best;
        self.cache.insert(key, plan.clone());
        plan
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
    fn eval_over_week_produces_positive_metrics() {
        let env = World::evaluation(1);
        let bench = dna_visualization(InputSize::Small);
        let r = coarse_over_week(&env, &bench, TransmissionScenario::BEST, 12, env.home, 1);
        assert!(r.carbon_g > 0.0);
        assert!(r.latency_mean_s > 0.0);
        assert!(r.latency_p95_s >= r.latency_mean_s);
        assert!(r.cost_usd > 0.0);
    }

    #[test]
    fn fine_solver_caches_plans() {
        let env = World::evaluation(2);
        let bench = dna_visualization(InputSize::Small);
        let mut solver = FineSolver::new(
            &env,
            &bench,
            &env.regions,
            TransmissionScenario::BEST,
            default_tolerances(),
            1,
        );
        let a = solver.plan_at(10.5);
        let b = solver.plan_at(10.9);
        assert_eq!(a, b, "same hour bucket returns the cached plan");
    }
}
