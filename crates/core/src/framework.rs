//! The top-level Caribou runtime.
//!
//! Owns the simulated cloud and the control-plane state of every deployed
//! workflow, and drives invocation traces end-to-end: routing (including
//! the 10% benchmarking traffic and expiry fallback), execution, metric
//! learning, token-bucket-triggered solving on *forecast* carbon data,
//! migration, and emission accounting on *actual* carbon data — the same
//! separation the paper's evaluation relies on (§9.5).

use std::collections::BTreeMap;

use caribou_carbon::source::{CarbonDataSource, ForecastingSource};
use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::energy::expected_energy_kwh;
use caribou_metrics::manager::MetricsManager;
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::constraints::Constraints;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::{DeploymentPlan, HourlyPlans};
use caribou_model::region::RegionId;
use caribou_model::rng::{Pcg32, SeedSplitter};
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_solver::hourly::{solve_daily, solve_hourly_with};

use crate::driver;
use crate::error::CoreError;
use crate::manager::{CheckMetrics, DeploymentManager, ManagerConfig, SolveDecision};
use crate::migrator::{MigrationReport, Migrator};
use crate::scenario::Case;
use crate::utility::{DeployedWorkflow, DeploymentUtility};

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct CaribouConfig {
    /// Regions the solver may consider (before per-workflow constraints).
    pub candidate_regions: Vec<RegionId>,
    /// Transmission-carbon scenario used for decisions *and* accounting.
    pub scenario: TransmissionScenario,
    /// Monte Carlo stopping rule for the solver's estimates.
    pub mc: MonteCarloConfig,
    /// HBSS hyper-parameters.
    pub hbss: HbssParams,
    /// Deployment Manager configuration.
    pub manager: ManagerConfig,
    /// Lifetime of a generated plan set before it expires and traffic
    /// falls back home (§5.2), seconds.
    pub plan_expiry_s: f64,
    /// Master seed for all framework randomness.
    pub seed: u64,
    /// Worker threads the solver's evaluation engine fans candidates
    /// across. Solve results are bit-identical at any value; only
    /// wall-clock changes.
    pub workers: usize,
}

impl CaribouConfig {
    /// A reasonable default over the given candidate regions.
    pub fn new(candidate_regions: Vec<RegionId>, scenario: TransmissionScenario) -> Self {
        CaribouConfig {
            candidate_regions,
            scenario,
            mc: MonteCarloConfig {
                batch: 200,
                max_samples: 2000,
                cv_threshold: 0.05,
            },
            hbss: HbssParams::default(),
            manager: ManagerConfig::default(),
            plan_expiry_s: 2.0 * 86_400.0,
            seed: 7,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// One executed invocation in a run report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationSample {
    /// Invocation time, simulation seconds.
    pub at_s: f64,
    /// End-to-end service time, seconds.
    pub latency_s: f64,
    /// Cost, USD.
    pub cost_usd: f64,
    /// Execution carbon, gCO₂eq.
    pub exec_carbon_g: f64,
    /// Transmission carbon, gCO₂eq.
    pub trans_carbon_g: f64,
    /// Whether the invocation completed.
    pub completed: bool,
    /// Whether the invocation completed only by re-routing one or more
    /// nodes to the home deployment mid-flight (§6.1 fallback).
    pub fell_back_home: bool,
    /// Whether this was pinned-home benchmarking traffic.
    pub benchmark_traffic: bool,
    /// Region hosting the majority of the plan's nodes (Fig. 11's
    /// "where most workflow nodes are deployed").
    pub majority_region: RegionId,
}

impl InvocationSample {
    /// Total operational carbon of the invocation, gCO₂eq.
    pub fn carbon_g(&self) -> f64 {
        self.exec_carbon_g + self.trans_carbon_g
    }
}

/// The result of running a trace.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every executed invocation, in order.
    pub samples: Vec<InvocationSample>,
    /// Times a new plan set was generated.
    pub dp_generations: Vec<f64>,
    /// Modeled carbon of the framework's own solves, gCO₂eq.
    pub framework_carbon_g: f64,
    /// Egress bytes spent on migrations (crane copies).
    pub migration_egress_bytes: f64,
}

impl RunReport {
    /// Total workflow carbon, gCO₂eq.
    pub fn workflow_carbon_g(&self) -> f64 {
        self.samples.iter().map(|s| s.carbon_g()).sum()
    }

    /// Total carbon including framework overhead, gCO₂eq.
    pub fn total_carbon_g(&self) -> f64 {
        self.workflow_carbon_g() + self.framework_carbon_g
    }

    /// Total cost, USD.
    pub fn total_cost_usd(&self) -> f64 {
        self.samples.iter().map(|s| s.cost_usd).sum()
    }

    /// Mean end-to-end latency, seconds.
    pub fn mean_latency_s(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.latency_s).sum::<f64>() / self.samples.len() as f64
    }

    /// 95th-percentile end-to-end latency, seconds.
    pub fn p95_latency_s(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.latency_s).collect();
        v.sort_by(f64::total_cmp);
        caribou_metrics::summary::percentile_sorted(&v, 0.95)
    }

    /// Fraction of invocations that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().filter(|s| s.completed).count() as f64 / self.samples.len() as f64
    }

    /// Fraction of invocations that completed only via the mid-flight
    /// home-region fallback.
    pub fn fallback_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.fell_back_home).count() as f64 / self.samples.len() as f64
    }

    /// Books a rollout attempt's crane-copy egress. A failed attempt may
    /// have copied images to some regions before it stopped; its partial
    /// report keeps the account complete.
    fn book_rollout(&mut self, attempt: Result<MigrationReport, CoreError>) {
        self.migration_egress_bytes += match attempt {
            Ok(r) => r.egress_bytes,
            Err(CoreError::DeploymentFailed { partial, .. }) => partial.egress_bytes,
            Err(_) => 0.0,
        };
    }

    /// Machine-readable summary of the run (the per-sample detail stays in
    /// memory; this is the aggregate a dashboard or CI would record).
    pub fn summary_json(&self) -> serde_json::Value {
        serde_json::json!({
            "invocations": self.samples.len(),
            "completion_rate": self.completion_rate(),
            "fallback_rate": self.fallback_rate(),
            "workflow_carbon_g": self.workflow_carbon_g(),
            "framework_carbon_g": self.framework_carbon_g,
            "total_carbon_g": self.total_carbon_g(),
            "cost_usd": self.total_cost_usd(),
            "mean_latency_s": self.mean_latency_s(),
            "p95_latency_s": self.p95_latency_s(),
            "dp_generations_s": self.dp_generations,
            "migration_egress_bytes": self.migration_egress_bytes,
        })
    }
}

struct WorkflowState {
    dep: DeployedWorkflow,
    constraints: Constraints,
    metrics: MetricsManager,
    manager: DeploymentManager,
    last_check_s: f64,
    /// Per workflow, so the addresses its invocations resolved stay bound
    /// while `run_multi` alternates workflows.
    scratch: InvocationScratch,
}

/// The Caribou framework over a simulated cloud and a carbon data source.
pub struct Caribou<S: CarbonDataSource> {
    /// The simulated cloud substrate.
    pub cloud: SimCloud,
    /// The *actual* carbon source (the framework only ever sees its past
    /// when solving; accounting uses it directly).
    pub carbon: S,
    /// Configuration.
    pub config: CaribouConfig,
    workflows: Vec<WorkflowState>,
    rng: Pcg32,
    inv_counter: u64,
}

impl<S: CarbonDataSource + Sync> Caribou<S> {
    /// Creates the framework.
    pub fn new(cloud: SimCloud, carbon: S, config: CaribouConfig) -> Self {
        let rng = Pcg32::seed_stream(config.seed, 0xca51b0);
        Caribou {
            cloud,
            carbon,
            config,
            workflows: Vec::new(),
            rng,
            inv_counter: 0,
        }
    }

    /// Deploys a workflow (initial home deployment, §6.1) and registers it
    /// with the Deployment Manager. Returns its index.
    pub fn deploy(
        &mut self,
        app: WorkflowApp,
        manifest: &DeploymentManifest,
        constraints: Constraints,
    ) -> Result<usize, CoreError> {
        let dep = DeploymentUtility::deploy_initial(&mut self.cloud, app, manifest)?;
        let first_check = self.cloud.clock.now();
        self.workflows.push(WorkflowState {
            dep,
            constraints,
            metrics: MetricsManager::new(),
            manager: DeploymentManager::new(first_check, self.config.manager),
            last_check_s: first_check,
            scratch: InvocationScratch::new(),
        });
        Ok(self.workflows.len() - 1)
    }

    /// The deployed workflow state (for inspection in tests/examples).
    pub fn workflow(&self, idx: usize) -> &DeployedWorkflow {
        &self.workflows[idx].dep
    }

    /// The Deployment Manager of a workflow.
    pub fn manager(&self, idx: usize) -> &DeploymentManager {
        &self.workflows[idx].manager
    }

    /// Runs an invocation trace (ascending times, simulation seconds)
    /// against workflow `idx`, interleaving Deployment Manager ticks.
    pub fn run_trace(&mut self, idx: usize, trace: &[f64]) -> RunReport {
        let mut reports = self.run_multi(&[(idx, trace)]);
        reports.remove(&idx).unwrap_or_default()
    }

    /// Runs traces for several deployed workflows concurrently, with the
    /// Deployment Manager "regularly iterating over all deployed
    /// workflows" (§5.2): before each invocation is dispatched, every
    /// workflow whose token check is due gets its tick. Returns one report
    /// per workflow index.
    pub fn run_multi(&mut self, traces: &[(usize, &[f64])]) -> BTreeMap<usize, RunReport> {
        // Merge all arrivals into one ascending timeline.
        let mut events: Vec<(f64, usize)> = traces
            .iter()
            .flat_map(|(idx, t)| t.iter().map(move |at| (*at, *idx)))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut reports: BTreeMap<usize, RunReport> = traces
            .iter()
            .map(|(idx, _)| (*idx, RunReport::default()))
            .collect();

        for (at_s, idx) in events {
            // Manager pass over every deployed workflow in the run.
            for (&w, report) in reports.iter_mut() {
                while self.workflows[w].manager.next_check_s() <= at_s {
                    let check_at = self.workflows[w]
                        .manager
                        .next_check_s()
                        .max(self.workflows[w].last_check_s);
                    self.manager_tick(w, check_at, report);
                }
            }
            let sample = self.invoke_once(idx, at_s);
            reports
                .get_mut(&idx)
                .expect("report exists")
                .samples
                .push(sample);
        }
        for (&idx, report) in reports.iter_mut() {
            let st = &self.workflows[idx];
            report.dp_generations = st.manager.generations.clone();
            report.framework_carbon_g = st.manager.solve_carbon_g;
        }
        reports
    }

    /// Drives one invocation at `at_s` and hands its log to the Metrics
    /// Manager.
    fn invoke_once(&mut self, idx: usize, at_s: f64) -> InvocationSample {
        let state = &mut self.workflows[idx];
        self.inv_counter += 1;
        let inv_id = self.inv_counter;
        let engine = ExecutionEngine {
            carbon_source: &self.carbon,
            carbon_model: CarbonModel::new(self.config.scenario),
            orchestrator: Orchestrator::Caribou,
        };
        let mut rng = self.rng.fork(inv_id);
        let (decision, outcome) = driver::drive_routed(
            &engine,
            &mut self.cloud,
            &mut state.dep,
            &mut state.scratch,
            inv_id,
            at_s,
            &mut rng,
        );
        let sample = InvocationSample {
            at_s,
            latency_s: outcome.e2e_latency_s,
            cost_usd: outcome.cost_usd,
            exec_carbon_g: outcome.exec_carbon_g,
            trans_carbon_g: outcome.trans_carbon_g,
            completed: outcome.completed,
            fell_back_home: outcome.fell_back_home(),
            benchmark_traffic: decision.benchmark_traffic,
            majority_region: majority_region(&decision.plan),
        };
        state.metrics.record(outcome.log);
        sample
    }

    /// One Deployment Manager tick (Fig. 6): retry pending rollouts,
    /// collect metrics, earn/spend tokens, solve, and migrate.
    fn manager_tick(&mut self, idx: usize, now_s: f64, report: &mut RunReport) {
        // Retry a previously failed rollout first (§6.1).
        if let Some(attempt) =
            Migrator::retry_pending(&mut self.cloud, &mut self.workflows[idx].dep, now_s)
        {
            report.book_rollout(attempt);
        }

        let now_h = now_s / 3600.0;
        let (home, complexity, window_s, invocations, mean_exec_s, energy_per_s, profile) = {
            let state = &self.workflows[idx];
            let dag = &state.dep.app.dag;
            let profile = state.metrics.refreshed_profile(dag, &state.dep.app.profile);
            let window_s = (now_s - state.last_check_s).max(1.0);
            let invocations = state.metrics.invocations_between(state.last_check_s, now_s);
            let expected_exec = profile.expected_total_exec_seconds(dag);
            let mean_exec_s = state.metrics.mean_total_exec_s().unwrap_or(expected_exec);
            let probs = profile.node_invocation_probabilities(dag);
            let energy_per_inv: f64 = profile
                .nodes
                .iter()
                .zip(probs.iter())
                .map(|(n, p)| {
                    p * expected_energy_kwh(n.memory_mb, n.exec_time.mean(), n.cpu_utilization)
                })
                .sum();
            let energy_per_s = if expected_exec > 0.0 {
                energy_per_inv / expected_exec
            } else {
                0.0
            };
            (
                state.dep.app.home,
                dag.complexity(),
                window_s,
                invocations,
                mean_exec_s,
                energy_per_s,
                profile,
            )
        };

        // Carbon differential over the trailing day: home versus the
        // cleanest candidate region.
        let home_avg = self.carbon.average(home, now_h - 24.0, now_h);
        let cleanest = self
            .config
            .candidate_regions
            .iter()
            .map(|r| self.carbon.average(*r, now_h - 24.0, now_h))
            .fold(f64::INFINITY, f64::min);
        let differential = (home_avg - cleanest).max(0.0);
        // The framework's own components run in the workflow's home
        // region, so solve overhead is charged at home's intensity.
        let framework_intensity = self.carbon.intensity(home, now_h);

        let decision = self.workflows[idx].manager.check(
            now_s,
            CheckMetrics {
                invocations,
                mean_exec_s,
                energy_per_s_kwh: energy_per_s,
                intensity_differential: differential,
                framework_intensity,
                complexity,
                window_s,
            },
        );
        self.workflows[idx].last_check_s = now_s;
        if decision == SolveDecision::Skip {
            return;
        }

        // Solve on forecast data only (§7.2): the framework knows the past
        // and Holt-Winters-extrapolates the future.
        let _solve_span = caribou_telemetry::is_enabled()
            .then(|| caribou_telemetry::wall_span("core", "manager.solve_and_rollout"));
        let plans = {
            let state = &self.workflows[idx];
            let dag = &state.dep.app.dag;
            let permitted = state
                .constraints
                .permitted_regions(
                    dag,
                    &self.config.candidate_regions,
                    &self.cloud.regions,
                    home,
                )
                .expect("constraints validated at deploy time");
            let models = state.metrics.learned_models(
                &profile,
                &self.cloud.compute,
                &self.cloud.latency,
                Orchestrator::Caribou,
                home,
            );
            let forecast =
                ForecastingSource::fit(&self.carbon, &self.config.candidate_regions, now_h, 48);
            let case = Case::new(
                &self.cloud,
                home,
                dag,
                &profile,
                models,
                self.config.scenario,
                self.config.mc,
            )
            .minimizing(state.constraints.objective);
            let ctx = case.context(&permitted, state.constraints.tolerances, &forecast);
            let solver = HbssSolver {
                params: self.config.hbss,
            };
            let expires = now_s + self.config.plan_expiry_s;
            let mut srng = self.rng.fork(0x501e ^ now_s as u64);
            // One evaluation engine per solve: the forecast and learned
            // models are refreshed every tick, so cached estimates must not
            // outlive this block. The engine seed is derived from the
            // framework seed and the tick time so solves stay reproducible
            // while distinct ticks get distinct streams.
            let engine_seed = SeedSplitter::new(self.config.seed)
                .absorb(0x501e)
                .absorb(now_s.to_bits())
                .seed();
            match decision {
                SolveDecision::Hourly => {
                    let engine = EvalEngine::new(engine_seed, self.config.workers);
                    let by_step =
                        solve_hourly_with(&engine, &solver, &ctx, now_h, now_s, expires, &mut srng);
                    // The solve starts at `now_h`, not midnight: index by
                    // hour-of-day so the router's lookup finds the right
                    // plan.
                    let mut plans: Vec<DeploymentPlan> = by_step.iter().cloned().collect();
                    for (step, best) in by_step.iter().enumerate() {
                        plans[((now_h + step as f64) as usize) % 24] = best.clone();
                    }
                    HourlyPlans::hourly(plans, now_s, expires)
                }
                SolveDecision::Daily => {
                    // The day-averaged source answers the same hour keys
                    // differently from the forecast, so the daily solve
                    // gets its own engine rather than sharing a cache.
                    let day_engine = EvalEngine::new(
                        SeedSplitter::new(engine_seed).absorb(0xda11).seed(),
                        self.config.workers,
                    );
                    solve_daily(&day_engine, &solver, &ctx, now_h, now_s, expires, &mut srng)
                }
                SolveDecision::Skip => unreachable!(),
            }
        };

        // Compare against the previously active plans to drive the
        // check-cadence adaptation (§9.5): identical plan sets relax the
        // solve frequency, changed ones reset it to daily.
        let state = &mut self.workflows[idx];
        let plans_changed = state
            .dep
            .router
            .active_plans()
            .map(|prev| {
                // "Similar 24-hour DPs" count as stable (§9.5): only a
                // material difference (more than 4 of 24 hours reassigned)
                // resets the learning cadence.
                let differing = (0..24)
                    .filter(|h| prev.plan_for_hour(*h) != plans.plan_for_hour(*h))
                    .count();
                differing > 4
            })
            .unwrap_or(true);
        let interval = state.manager.note_solve_outcome(now_s, plans_changed);
        let mut plans = plans;
        plans.expires_at = (now_s + interval + 7200.0)
            .min(now_s + self.config.plan_expiry_s.max(interval + 7200.0));

        // Roll out: on failure the plan stays pending and traffic remains
        // home-routed.
        let attempt = Migrator::rollout(&mut self.cloud, &mut state.dep, plans, now_s);
        report.book_rollout(attempt);
    }
}

/// The region hosting the majority of a plan's nodes.
pub fn majority_region(plan: &DeploymentPlan) -> RegionId {
    let mut counts: Vec<(RegionId, usize)> = Vec::new();
    for r in plan.assignment() {
        match counts.iter_mut().find(|(id, _)| id == r) {
            Some((_, c)) => *c += 1,
            None => counts.push((*r, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|(id, c)| (*c, usize::MAX - id.index()))
        .map(|(id, _)| id)
        .expect("non-empty plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_model::builder::Workflow;
    use caribou_model::dist::DistSpec;

    fn flat_carbon(cloud: &SimCloud) -> TableSource {
        let mut t = TableSource::new();
        for (id, spec) in cloud.regions.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "ca-central-1" => 32.0,
                _ => 350.0,
            };
            t.insert(id, CarbonSeries::new(-400, vec![v; 24 * 100]));
        }
        t
    }

    fn compute_heavy_app(cloud: &SimCloud) -> WorkflowApp {
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
            .payload(DistSpec::Constant { value: 20_000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        WorkflowApp {
            name: "heavy".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        }
    }

    fn framework(seed: u64) -> Caribou<TableSource> {
        let mut cloud = SimCloud::aws(seed);
        cloud.compute.cold_start_prob = 0.0;
        let carbon = flat_carbon(&cloud);
        let regions = cloud.regions.evaluation_regions();
        let mut config = CaribouConfig::new(regions, TransmissionScenario::BEST);
        config.mc = MonteCarloConfig {
            batch: 60,
            max_samples: 120,
            cv_threshold: 0.1,
        };
        config.hbss.max_iterations = 60;
        config.seed = seed;
        Caribou::new(cloud, carbon, config)
    }

    fn tolerant_constraints(n: usize) -> Constraints {
        let mut c = Constraints::unconstrained(n);
        c.tolerances.latency = 0.5;
        c.tolerances.cost = 0.5;
        c
    }

    #[test]
    fn end_to_end_run_reduces_carbon_once_plan_activates() {
        let mut fw = framework(1);
        let app = compute_heavy_app(&fw.cloud);
        let manifest = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let idx = fw.deploy(app, &manifest, tolerant_constraints(2)).unwrap();

        // A busy trace: 2000/day over 3 days earns a solve quickly.
        let trace = caribou_workloads::traces::uniform_trace(10.0, 3.0 * 86_400.0, 2000.0);
        let report = fw.run_trace(idx, &trace);
        assert!(!report.dp_generations.is_empty(), "a plan was solved");
        assert!(report.completion_rate() > 0.999);

        // Carbon per invocation in the last day must be far below the
        // first hours (home-only) — the plan moved the workflow to
        // ca-central-1 (~12x cleaner).
        let early: Vec<&InvocationSample> = report
            .samples
            .iter()
            .filter(|s| s.at_s < 3600.0 && !s.benchmark_traffic)
            .collect();
        let late: Vec<&InvocationSample> = report
            .samples
            .iter()
            .filter(|s| s.at_s > 2.0 * 86_400.0 && !s.benchmark_traffic)
            .collect();
        let mean = |v: &[&InvocationSample]| -> f64 {
            v.iter().map(|s| s.carbon_g()).sum::<f64>() / v.len() as f64
        };
        let early_c = mean(&early);
        let late_c = mean(&late);
        assert!(late_c < early_c * 0.4, "early {early_c} g, late {late_c} g");
        // Framework overhead is accounted and small relative to savings.
        assert!(report.framework_carbon_g > 0.0);
        assert!(report.framework_carbon_g < report.workflow_carbon_g());
    }

    #[test]
    fn benchmark_traffic_stays_home() {
        let mut fw = framework(2);
        let app = compute_heavy_app(&fw.cloud);
        let home = app.home;
        let manifest = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let idx = fw.deploy(app, &manifest, tolerant_constraints(2)).unwrap();
        let trace = caribou_workloads::traces::uniform_trace(10.0, 2.0 * 86_400.0, 1500.0);
        let report = fw.run_trace(idx, &trace);
        let bench: Vec<&InvocationSample> = report
            .samples
            .iter()
            .filter(|s| s.benchmark_traffic)
            .collect();
        assert!(!bench.is_empty());
        let frac = bench.len() as f64 / report.samples.len() as f64;
        assert!((frac - 0.1).abs() < 0.01, "benchmark fraction {frac}");
        assert!(bench.iter().all(|s| s.majority_region == home));
    }

    #[test]
    fn no_carbon_differential_never_solves() {
        // A world where every region has identical intensity: no potential
        // savings, so the token bucket never earns and the framework never
        // spends overhead (§5.2: overhead must stay below savings).
        let mut cloud = SimCloud::aws(3);
        cloud.compute.cold_start_prob = 0.0;
        let mut carbon = TableSource::new();
        for (id, _) in cloud.regions.iter() {
            carbon.insert(id, CarbonSeries::new(-400, vec![380.0; 24 * 100]));
        }
        let regions = cloud.regions.evaluation_regions();
        let mut config = CaribouConfig::new(regions, TransmissionScenario::BEST);
        config.mc = MonteCarloConfig {
            batch: 60,
            max_samples: 120,
            cv_threshold: 0.1,
        };
        config.seed = 3;
        let app = compute_heavy_app(&cloud);
        let mut fw = Caribou::new(cloud, carbon, config);
        let manifest = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let idx = fw.deploy(app, &manifest, tolerant_constraints(2)).unwrap();
        let trace = caribou_workloads::traces::uniform_trace(10.0, 3.0 * 86_400.0, 2000.0);
        let report = fw.run_trace(idx, &trace);
        assert!(report.dp_generations.is_empty());
        assert_eq!(report.framework_carbon_g, 0.0);
        assert!(report
            .samples
            .iter()
            .all(|s| s.majority_region == fw.workflow(idx).app.home));
    }

    #[test]
    fn run_report_serializes_for_dashboards() {
        let mut fw = framework(8);
        let app = compute_heavy_app(&fw.cloud);
        let manifest = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let idx = fw.deploy(app, &manifest, tolerant_constraints(2)).unwrap();
        let trace = caribou_workloads::traces::uniform_trace(10.0, 7200.0, 400.0);
        let report = fw.run_trace(idx, &trace);

        let json = report.summary_json();
        assert_eq!(json["invocations"], report.samples.len());
        assert!(json["workflow_carbon_g"].as_f64().unwrap() > 0.0);
        assert!(json["completion_rate"].as_f64().unwrap() > 0.99);
    }

    #[test]
    fn multi_workflow_runs_share_the_cloud() {
        let mut fw = framework(7);
        let app_a = compute_heavy_app(&fw.cloud);
        let mut app_b = compute_heavy_app(&fw.cloud);
        app_b.name = "second".into();
        let manifest_a = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let manifest_b = DeploymentManifest::new("second", "0.1", "us-east-1");
        let a = fw
            .deploy(app_a, &manifest_a, tolerant_constraints(2))
            .unwrap();
        let b = fw
            .deploy(app_b, &manifest_b, tolerant_constraints(2))
            .unwrap();
        let trace_a = caribou_workloads::traces::uniform_trace(10.0, 86_400.0, 600.0);
        let trace_b = caribou_workloads::traces::uniform_trace(40.0, 86_400.0, 300.0);
        let reports = fw.run_multi(&[(a, &trace_a), (b, &trace_b)]);
        assert_eq!(reports[&a].samples.len(), trace_a.len());
        assert_eq!(reports[&b].samples.len(), trace_b.len());
        assert!(reports[&a].completion_rate() > 0.999);
        assert!(reports[&b].completion_rate() > 0.999);
        // The two workflows are isolated: benchmark-traffic fractions hold
        // for each independently.
        for (idx, trace) in [(a, &trace_a), (b, &trace_b)] {
            let bench = reports[&idx]
                .samples
                .iter()
                .filter(|s| s.benchmark_traffic)
                .count();
            let frac = bench as f64 / trace.len() as f64;
            assert!((frac - 0.1).abs() < 0.02, "wf {idx}: {frac}");
        }
    }

    #[test]
    fn outage_trips_breaker_and_traffic_falls_back_home() {
        use caribou_exec::router::BreakerState;
        use caribou_simcloud::faults::FaultPlan;

        let mut fw = framework(9);
        let app = compute_heavy_app(&fw.cloud);
        let manifest = DeploymentManifest::new("heavy", "0.1", "us-east-1");
        let idx = fw.deploy(app, &manifest, tolerant_constraints(2)).unwrap();
        let ca = fw.cloud.region("ca-central-1").unwrap();
        // Install an offload plan directly, then take the region down.
        let plans = HourlyPlans::daily(DeploymentPlan::uniform(2, ca), 0.0, 1e9);
        Migrator::rollout(&mut fw.cloud, &mut fw.workflows[idx].dep, plans, 0.0).unwrap();
        fw.cloud
            .set_faults(FaultPlan::none().with_outage(ca, 1000.0, 1e9));

        let trace: Vec<f64> = (0..60).map(|i| 2000.0 + i as f64 * 10.0).collect();
        let report = fw.run_trace(idx, &trace);

        // Nothing is lost: early invocations fail over mid-flight, and
        // once the breaker opens the router pre-routes home.
        assert!(report.completion_rate() > 0.999);
        assert!(report.fallback_rate() > 0.0, "some mid-flight failovers");
        assert_eq!(
            fw.workflows[idx].dep.router.breaker_state(ca),
            BreakerState::Open
        );
        // After the breaker opens, at most the occasional half-open probe
        // still pays the failover path.
        let late_fallbacks = report
            .samples
            .iter()
            .rev()
            .take(20)
            .filter(|s| s.fell_back_home)
            .count();
        assert!(late_fallbacks <= 1, "late fallbacks: {late_fallbacks}");
    }

    #[test]
    fn majority_region_picks_mode() {
        let plan = DeploymentPlan::new(vec![RegionId(1), RegionId(2), RegionId(2)]);
        assert_eq!(majority_region(&plan), RegionId(2));
        let single = DeploymentPlan::uniform(4, RegionId(5));
        assert_eq!(majority_region(&single), RegionId(5));
    }
}
