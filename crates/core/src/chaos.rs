//! Chaos harness: seeded randomized fault campaigns with run-level
//! invariant checking.
//!
//! The harness deploys a diamond workflow (fan-out, conditional edge, and
//! a synchronization node — every §4 mechanism), offloads it across the
//! evaluation regions, then replays a request trace under a
//! [`FaultPlan::randomized`] campaign: region outages, pairwise network
//! partitions, gray failures, KV throttling, cold-start storms, and
//! stochastic message drops. After every invocation it checks the
//! robustness invariants the design promises:
//!
//! 1. **No invocation lost** — every request lands in exactly one of
//!    {completed clean, fell back home, reported failed}, and the
//!    classification is consistent with the outcome's raw fields.
//! 2. **Routing stays deployable** — the router never hands out a plan
//!    referencing a region without an active deployment.
//! 3. **Metering is honest** — the SNS publishes billed to the invocation
//!    meter equal the messages the pub/sub service actually accepted, per
//!    invocation and campaign-wide (no double counting, no leaks).
//!
//! Everything is deterministic under the campaign seed: the same
//! [`ChaosConfig`] always produces the same [`ChaosReport`].

use std::collections::HashSet;

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::{CarbonDataSource, TableSource};
use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
use caribou_exec::outcome::{ExecutionOutcome, InvocationStatus};
use caribou_exec::router::RouteDecision;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_model::builder::Workflow;
use caribou_model::dag::NodeId;
use caribou_model::dist::DistSpec;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::{DeploymentPlan, HourlyPlans};
use caribou_model::region::{Provider, ProviderSet, RegionId, RegionSpec};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;

use crate::driver;
use crate::migrator::Migrator;
use crate::scenario::{Case, HOME};
use crate::utility::{DeployedWorkflow, DeploymentUtility};

/// Parameters of one chaos campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: the cloud, the fault plan, and every invocation derive
    /// from it deterministically.
    pub seed: u64,
    /// Number of requests replayed, evenly spaced over `duration_s`.
    pub requests: u32,
    /// Campaign length, simulation seconds.
    pub duration_s: f64,
    /// Whether the router's per-region circuit breaker participates.
    pub breaker_enabled: bool,
    /// Per-attempt stochastic message-drop probability.
    pub drop_prob: f64,
    /// Providers whose regions participate in the campaign: `aws,gcp`
    /// offloads across both substrates so faults can force cross-provider
    /// re-routes.
    pub providers: ProviderSet,
    /// Fallback plan sets precomputed alongside the primary in the
    /// correlated campaign (`0` = no contingency table: the baseline
    /// re-route-home behaviour). Ignored by [`run_campaign`].
    pub contingency: usize,
    /// Worker threads for the contingency solve in the correlated
    /// campaign; the report is bit-identical at any count. Ignored by
    /// [`run_campaign`].
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            requests: 500,
            duration_s: 6.0 * 3600.0,
            breaker_enabled: true,
            drop_prob: 0.02,
            providers: ProviderSet::aws_only(),
            contingency: 0,
            workers: 1,
        }
    }
}

/// Fault windows a campaign injected, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Full region outage windows.
    pub outages: usize,
    /// Pairwise network partition windows.
    pub partitions: usize,
    /// Gray-failure (latency inflation) windows.
    pub gray_failures: usize,
    /// KV throttling windows.
    pub kv_throttles: usize,
    /// Cold-start storm windows.
    pub cold_storms: usize,
    /// Provider-wide outage windows.
    pub provider_outages: usize,
    /// Shared failure-domain windows.
    pub failure_domains: usize,
    /// Carbon-data (forecast feed) outage windows.
    pub carbon_outages: usize,
}

impl FaultCounts {
    fn of(faults: &FaultPlan) -> Self {
        FaultCounts {
            outages: faults.outages.len(),
            partitions: faults.partitions.len(),
            gray_failures: faults.gray_failures.len(),
            kv_throttles: faults.kv_throttles.len(),
            cold_storms: faults.cold_storms.len(),
            provider_outages: faults.provider_outages.len(),
            failure_domains: faults.failure_domains.len(),
            carbon_outages: faults.carbon_outages.len(),
        }
    }
}

/// Result of one chaos campaign, base or correlated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosReport {
    /// Requests replayed.
    pub requests: u32,
    /// Requests that completed on the planned deployment.
    pub completed_clean: u32,
    /// Requests that completed via the mid-flight home fallback.
    pub fell_back_home: u32,
    /// Requests reported failed.
    pub failed: u32,
    /// Requests whose route was rewritten by an open circuit breaker.
    pub breaker_reroutes: u32,
    /// Requests served from a precomputed fallback plan.
    pub fallback_routed: u32,
    /// Requests a half-open breaker admitted as recovery probes: canary
    /// traffic, which the correlated campaign leaves out of its latency
    /// figures and the base campaign keeps in.
    pub probe_requests: u32,
    /// Median end-to-end latency over completed requests, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency over completed requests.
    pub p99_latency_s: f64,
    /// Mean end-to-end latency over completed requests.
    pub mean_latency_s: f64,
    /// Total operational carbon across every invocation, grams.
    pub total_carbon_g: f64,
    /// Fault windows the campaign injected.
    pub faults: FaultCounts,
    /// Contingency entries the solver precomputed (0 on the base campaign
    /// and the re-route-home baseline).
    pub contingency_entries: usize,
    /// Carbon queries answered fresh / last-known-good / yearly-average
    /// (0 on the base campaign, whose flat table never goes stale).
    pub stale_queries: (u64, u64, u64),
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the campaign upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The diamond chaos workload: A fans out to B (conditional) and C, which
/// join at synchronization node D.
fn chaos_app(home: RegionId) -> WorkflowApp {
    let mut wf = Workflow::new("chaos", "0.1");
    let mut stage = |name: &str, exec_s: f64| {
        wf.serverless_function(name)
            .exec_time(DistSpec::Constant { value: exec_s })
            .register()
    };
    let [a, b, c, d] = [("A", 0.4), ("B", 0.6), ("C", 0.8), ("D", 0.3)].map(|(n, s)| stage(n, s));
    wf.invoke(a, b, Some(0.7));
    wf.invoke(a, c, None);
    wf.invoke(b, d, None);
    wf.invoke(c, d, None);
    wf.get_predecessor_data(d);
    let (dag, profile, _) = wf.extract().expect("static chaos workflow is valid");
    WorkflowApp {
        name: "chaos".into(),
        dag,
        profile,
        home,
    }
}

/// The campaign's cloud, its home region and the regions it offloads
/// across. Not a `scenario::World`: campaigns meter carbon on a constant
/// per-zone table ([`constant_carbon`]), so no calibrated source is built.
fn world(config: &ChaosConfig) -> (SimCloud, RegionId, Vec<RegionId>) {
    let cloud = SimCloud::for_providers(config.providers, config.seed)
        .expect("chaos providers must have backends");
    let regions = cloud.evaluation_regions();
    let home = cloud
        .region(HOME)
        .expect("every chaos catalog includes the home region");
    (cloud, home, regions)
}

/// A carbon table holding each region's `intensity` (gCO2e/kWh) at every
/// hour: the campaigns study the runtime, not the carbon signal.
fn constant_carbon(cloud: &SimCloud, intensity: impl Fn(&RegionSpec) -> f64) -> TableSource {
    let mut table = TableSource::new();
    for (id, spec) in cloud.regions.iter() {
        table.insert(id, CarbonSeries::new(-400, vec![intensity(spec); 24 * 100]));
    }
    table
}

/// When a campaign's plans expire: long after it ends, so no request
/// falls back home for an expired plan.
fn plans_expire_at(config: &ChaosConfig) -> f64 {
    config.duration_s * 10.0 + 1e6
}

/// Deploys `app` home, then rolls out `rollouts` in order — all before
/// any fault is armed: the campaigns study the runtime, not the rollout —
/// and sets the router's breaker as configured.
fn deploy_before_faults(
    config: &ChaosConfig,
    cloud: &mut SimCloud,
    app: WorkflowApp,
    rollouts: impl IntoIterator<Item = HourlyPlans>,
) -> DeployedWorkflow {
    let manifest = DeploymentManifest::new("chaos", "0.1", HOME);
    let mut wf = DeploymentUtility::deploy_initial(cloud, app, &manifest).expect("initial deploy");
    let deployed_at = cloud.clock.now();
    for plans in rollouts {
        Migrator::rollout(cloud, &mut wf, plans, deployed_at)
            .expect("rollout before faults cannot fail");
    }
    wf.router.breaker_enabled = config.breaker_enabled;
    wf
}

/// What a campaign folds per request, and the owner of the three
/// invariant checks.
#[derive(Default)]
struct Tally {
    report: ChaosReport,
    /// End-to-end latency of every completed request, with whether a
    /// half-open breaker admitted it as a recovery probe: the base report
    /// counts probes in its percentiles, the correlated report treats
    /// them as canary traffic and leaves them out.
    latencies: Vec<(f64, bool)>,
    sns_billed: u64,
}

impl Tally {
    fn new(requests: u32, faults: FaultCounts) -> Self {
        Tally {
            report: ChaosReport {
                requests,
                faults,
                ..ChaosReport::default()
            },
            ..Tally::default()
        }
    }

    /// Folds request `i`: how it was routed, how it ended, which regions
    /// held a deployment when it was routed, and how many messages the
    /// pub/sub service accepted while it ran.
    fn observe(
        &mut self,
        i: u32,
        decision: &RouteDecision,
        outcome: &ExecutionOutcome,
        active_regions: &HashSet<RegionId>,
        sns_accepted: u64,
    ) {
        let report = &mut self.report;
        report.breaker_reroutes += u32::from(decision.breaker_rerouted);
        report.fallback_routed += u32::from(decision.fallback);
        report.probe_requests += u32::from(decision.probed);

        // Invariant 2: the routed plan references only active regions.
        for r in decision.plan.regions_used() {
            if !active_regions.contains(&r) {
                report.violations.push(format!(
                    "request {i}: routed plan references region {r:?} with no deployment"
                ));
            }
        }

        // Invariant 1: exactly-one-of classification, consistent with the
        // raw outcome fields.
        let status = outcome.status();
        let consistent = match status {
            InvocationStatus::Completed => {
                report.completed_clean += 1;
                outcome.completed && outcome.failovers == 0
            }
            InvocationStatus::FellBackHome => {
                report.fell_back_home += 1;
                if outcome.failed_region.is_none() {
                    report.violations.push(format!(
                        "request {i}: fell back home without a failed region"
                    ));
                }
                outcome.completed && outcome.failovers > 0
            }
            InvocationStatus::Failed => {
                report.failed += 1;
                !outcome.completed
            }
        };
        if !consistent {
            report.violations.push(format!(
                "request {i}: {status:?} status but inconsistent fields"
            ));
        }

        // Invariant 3 (per invocation): SNS publishes billed to the meter
        // equal the messages pub/sub accepted during this invocation.
        let billed: u64 = outcome.meter.sns_publishes.values().sum();
        if billed != sns_accepted {
            report.violations.push(format!(
                "request {i}: meter billed {billed} SNS publishes, pub/sub accepted {sns_accepted}"
            ));
        }
        self.sns_billed += billed;

        report.total_carbon_g += outcome.carbon_g();
        if outcome.completed {
            self.latencies
                .push((outcome.e2e_latency_s, decision.probed));
        }
    }

    /// Closes the campaign with the campaign-wide halves of invariants 1
    /// and 3: every request classified, no publish double-billed or lost.
    fn close(&mut self, sns_accepted_total: u64) {
        let report = &mut self.report;
        if self.sns_billed != sns_accepted_total {
            report.violations.push(format!(
                "campaign: meters billed {} SNS publishes, pub/sub accepted {sns_accepted_total}",
                self.sns_billed
            ));
        }
        let classified = report.completed_clean + report.fell_back_home + report.failed;
        if classified != report.requests {
            report.violations.push(format!(
                "campaign: {classified} classified of {} requests",
                report.requests
            ));
        }
    }

    /// The report, with the latency tail taken over completed requests —
    /// probe requests included or not, as the caller's report defines.
    fn report(self, include_probes: bool) -> ChaosReport {
        let mut report = self.report;
        let mut latencies: Vec<f64> = self
            .latencies
            .iter()
            .filter(|(_, probed)| include_probes || !probed)
            .map(|(latency, _)| *latency)
            .collect();
        latencies.sort_by(f64::total_cmp);
        if !latencies.is_empty() {
            report.p50_latency_s = caribou_metrics::summary::percentile_sorted(&latencies, 0.50);
            report.p99_latency_s = caribou_metrics::summary::percentile_sorted(&latencies, 0.99);
            report.mean_latency_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
        }
        report
    }
}

/// Replays `config.requests` evenly spaced requests against the deployed
/// workflow under `faults`, every one through the invocation driver, and
/// returns the closed tally.
fn replay<S: CarbonDataSource>(
    config: &ChaosConfig,
    cloud: &mut SimCloud,
    workflow: &mut DeployedWorkflow,
    carbon: &S,
    faults: FaultPlan,
) -> Tally {
    let mut tally = Tally::new(config.requests, FaultCounts::of(&faults));
    cloud.set_faults(faults);
    let engine = ExecutionEngine {
        carbon_source: carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    let mut scratch = InvocationScratch::new();
    let mut master = Pcg32::seed_stream(config.seed, 0xc4a0);
    let t0 = cloud.clock.now();
    let step = config.duration_s / config.requests.max(1) as f64;
    let sns_base = cloud.pubsub.total_published();
    for i in 0..config.requests {
        let at_s = t0 + i as f64 * step;
        let published_before = cloud.pubsub.total_published();
        let mut rng = master.fork(i as u64 + 1);
        let (decision, outcome) = driver::drive_routed(
            &engine,
            cloud,
            workflow,
            &mut scratch,
            i as u64 + 1,
            at_s,
            &mut rng,
        );
        let accepted = cloud.pubsub.total_published() - published_before;
        tally.observe(i, &decision, &outcome, &workflow.active_regions, accepted);
    }
    tally.close(cloud.pubsub.total_published() - sns_base);
    tally
}

/// Runs one seeded chaos campaign and returns its report.
pub fn run_campaign(config: &ChaosConfig) -> ChaosReport {
    let (mut cloud, home, regions) = world(config);
    let carbon = constant_carbon(&cloud, |_| 300.0);

    // Offload across the evaluation regions.
    let offload: Vec<RegionId> = regions.iter().copied().filter(|r| *r != home).collect();
    let mut plan = DeploymentPlan::uniform(4, offload[0]);
    plan.set(NodeId(1), offload[1 % offload.len()]);
    plan.set(NodeId(2), offload[2 % offload.len()]);
    plan.set(NodeId(3), offload[0]);
    let plans = HourlyPlans::daily(plan, 0.0, plans_expire_at(config));
    let mut wf = deploy_before_faults(config, &mut cloud, chaos_app(home), [plans]);

    // Arm the randomized campaign; its percentiles count probe requests.
    let mut faults = FaultPlan::randomized(config.seed, &regions, home, config.duration_s);
    faults.message_drop_prob = config.drop_prob;
    replay(config, &mut cloud, &mut wf, &carbon, faults).report(true)
}

/// Per-grid-zone carbon intensity for the correlated campaign, gCO2e/kWh.
///
/// Unlike [`run_campaign`]'s flat table, the correlated campaign studies
/// carbon under failover, so the zones need realistic spread: hydro
/// Québec and the Pacific Northwest are clean, PJM and MISO dirty.
fn grid_intensity(zone: &str) -> f64 {
    match zone {
        "CA-QC" => 30.0,
        "US-NW-PACW" => 90.0,
        "US-CAL-CISO" => 240.0,
        "US-MIDA-PJM" => 380.0,
        "US-MIDW-MISO" => 460.0,
        "CA-AB" => 520.0,
        _ => 350.0,
    }
}

/// Runs one seeded *correlated* chaos campaign: provider-wide outages,
/// shared failure domains, and carbon-data outages on top of the base
/// randomized classes — with precomputed contingency failover
/// (`config.contingency > 0`) or the baseline re-route-home behaviour
/// (`== 0`), and stale-forecast degradation on the carbon path.
///
/// Everything is deterministic under the seed and bit-identical at any
/// `config.workers` count.
pub fn run_correlated_campaign(config: &ChaosConfig) -> ChaosReport {
    correlated_campaign_with(config, |topology, home| {
        FaultPlan::randomized_correlated(config.seed, topology, home, config.duration_s)
    })
}

/// Runs the pinned provider-wide outage scenario: every region of the
/// victim provider (the first non-home provider in the topology) goes
/// dark over `[0.15, 0.85)` of the campaign, the carbon-data feed goes
/// dark over `[0.15, 0.80)`, and the home region suffers a gray failure
/// (transfer latency ×5 — it is absorbing everyone's failover traffic)
/// for the outage window. No other fault class fires, so the comparison
/// between `contingency > 0` and the re-route-home baseline isolates the
/// correlated-failure response.
pub fn run_provider_outage_scenario(config: &ChaosConfig) -> ChaosReport {
    use caribou_simcloud::faults::{CarbonOutage, GrayFailure, ProviderOutage, Window};

    correlated_campaign_with(config, |topology, home| {
        let provider_of = |region| topology.iter().find(|(r, _)| *r == region).map(|(_, p)| *p);
        let home_provider = provider_of(home).expect("home is an evaluation region");
        let victim = Provider::ALL
            .into_iter()
            .find(|p| *p != home_provider && topology.iter().any(|(_, q)| q == p))
            .unwrap_or(home_provider);
        let victims: Vec<RegionId> = topology
            .iter()
            .filter(|(r, p)| *p == victim && *r != home)
            .map(|(r, _)| *r)
            .collect();
        let window = Window::new(0.15 * config.duration_s, 0.85 * config.duration_s);
        let mut faults = FaultPlan::none();
        faults.provider_outages.push(ProviderOutage {
            provider: victim,
            regions: victims,
            window,
        });
        faults.carbon_outages.push(CarbonOutage {
            window: Window::new(0.15 * config.duration_s, 0.80 * config.duration_s),
        });
        faults.gray_failures.push(GrayFailure {
            region: home,
            window,
            latency_factor: 5.0,
        });
        faults
    })
}

/// Shared body of the correlated campaigns; `plan_faults` draws the fault
/// plan from the campaign's region topology and home region.
fn correlated_campaign_with(
    config: &ChaosConfig,
    plan_faults: impl FnOnce(&[(RegionId, Provider)], RegionId) -> FaultPlan,
) -> ChaosReport {
    use caribou_metrics::montecarlo::MonteCarloConfig;
    use caribou_model::constraints::Tolerances;

    let (mut cloud, home, regions) = world(config);
    let topology: Vec<(RegionId, Provider)> = regions
        .iter()
        .map(|&r| (r, cloud.regions.spec(r).provider))
        .collect();

    // Correlated fault plan first: its carbon-data outage windows feed
    // the stale-aware wrapper below.
    let mut faults = plan_faults(&topology, home);
    faults.message_drop_prob = config.drop_prob;

    // Per-grid-zone carbon with stale-forecast degradation over the
    // campaign's carbon-data outage windows (seconds → hours).
    let table = constant_carbon(&cloud, |spec| grid_intensity(&spec.grid_zone));
    let carbon_windows: Vec<(f64, f64)> = faults
        .carbon_outages
        .iter()
        .map(|o| (o.window.start / 3600.0, o.window.end / 3600.0))
        .collect();
    let stale = caribou_carbon::staleness::StaleAwareSource::new(
        table.clone(),
        &regions,
        carbon_windows,
        2.0,
    );

    // Solve the primary 24-hour schedule plus the contingency table over
    // the fresh table (the solve happens before the feed goes dark).
    let app = chaos_app(home);
    let permitted = vec![regions.clone(); app.dag.node_count()];
    let (primary, table_c) = {
        let case = Case::on_default_models(
            &cloud,
            home,
            &app.dag,
            &app.profile,
            TransmissionScenario::BEST,
            MonteCarloConfig {
                batch: 60,
                max_samples: 120,
                cv_threshold: 0.1,
            },
        );
        let tolerances = Tolerances {
            latency: 2.0,
            cost: 2.0,
            carbon: f64::INFINITY,
        };
        let ctx = case.context(&permitted, tolerances, &table);
        let engine = caribou_solver::EvalEngine::new(config.seed, config.workers.max(1));
        let solver = caribou_solver::HbssSolver::new();
        let mut solve_rng = Pcg32::seed_stream(config.seed, 0x501e);
        caribou_solver::contingency::solve_hourly_with_contingency(
            &engine,
            &solver,
            &ctx,
            &topology,
            0.0,
            0.0,
            plans_expire_at(config),
            &mut solve_rng,
            config.seed,
            config.contingency,
        )
    };

    // Every fallback's regions, then the primary.
    let fallbacks = table_c.entries.iter().map(|entry| entry.plans.clone());
    let mut wf = deploy_before_faults(config, &mut cloud, app, fallbacks.chain([primary]));
    let contingency_entries = table_c.len();
    if config.contingency > 0 {
        wf.router.set_contingency(table_c, topology);
    }

    // Probe requests are canary traffic: counted, kept out of the tail.
    let tally = replay(config, &mut cloud, &mut wf, &stale, faults);
    stale.flush_telemetry();
    ChaosReport {
        contingency_entries,
        stale_queries: stale.query_counts(),
        ..tally.report(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, breaker: bool) -> ChaosConfig {
        ChaosConfig {
            seed,
            requests: 120,
            duration_s: 2.0 * 3600.0,
            breaker_enabled: breaker,
            ..ChaosConfig::default()
        }
    }

    const HOME: RegionId = RegionId(0);
    const OFFLOAD: RegionId = RegionId(1);

    /// A hand-built outcome with `sns_billed` publishes on its meter.
    fn outcome(
        completed: bool,
        failovers: u32,
        failed_region: Option<RegionId>,
        sns_billed: u64,
    ) -> ExecutionOutcome {
        let mut meter = caribou_simcloud::meter::UsageMeter::new();
        for _ in 0..sns_billed {
            meter.record_sns(HOME);
        }
        ExecutionOutcome {
            log: caribou_metrics::logs::InvocationLog {
                workflow: "chaos".into(),
                at_s: 0.0,
                benchmark_traffic: false,
                nodes: Vec::new(),
                edges: Vec::new(),
                e2e_latency_s: 1.0,
                cost_usd: 0.0,
            },
            e2e_latency_s: 1.0,
            cost_usd: 0.0,
            exec_carbon_g: 0.0,
            trans_carbon_g: 0.0,
            meter,
            completed,
            failovers,
            cold_starts: 0,
            failed_region,
        }
    }

    /// One request folded into a one-request tally: routed on a uniform
    /// plan in `region` (optionally as a probe) while only `HOME` and
    /// `OFFLOAD` hold deployments.
    fn tally_of(
        region: RegionId,
        probed: bool,
        outcome: &ExecutionOutcome,
        sns_accepted: u64,
    ) -> Tally {
        let decision = RouteDecision {
            plan: DeploymentPlan::uniform(4, region),
            benchmark_traffic: false,
            plan_expired: false,
            breaker_rerouted: false,
            fallback: false,
            probed,
        };
        let mut tally = Tally::new(1, FaultCounts::default());
        let active = HashSet::from([HOME, OFFLOAD]);
        tally.observe(0, &decision, outcome, &active, sns_accepted);
        tally
    }

    #[test]
    fn tally_flags_each_broken_invariant_exactly_once() {
        // A healthy request is silent, per request and campaign-wide.
        let mut clean = tally_of(OFFLOAD, false, &outcome(true, 0, None, 3), 3);
        clean.close(3);
        assert!(clean.report.violations.is_empty());
        assert_eq!(clean.report.completed_clean, 1);

        // Invariant 1: a home fallback that names no failed region.
        let lost = tally_of(OFFLOAD, false, &outcome(true, 1, None, 3), 3);
        assert_eq!(lost.report.fell_back_home, 1);
        assert_eq!(lost.report.violations.len(), 1, "{:?}", lost.report);
        assert!(lost.report.violations[0].contains("without a failed region"));

        // Invariant 2: a routed plan naming a region with no deployment.
        let stray = tally_of(RegionId(7), false, &outcome(true, 0, None, 3), 3);
        assert_eq!(stray.report.violations.len(), 1, "{:?}", stray.report);
        assert!(stray.report.violations[0].contains("no deployment"));

        // Invariant 3: the meter billed a publish pub/sub never accepted —
        // once for the request, once more when the campaign closes.
        let mut leaky = tally_of(OFFLOAD, false, &outcome(true, 0, None, 4), 3);
        assert_eq!(leaky.report.violations.len(), 1, "{:?}", leaky.report);
        assert!(leaky.report.violations[0].contains("billed 4"));
        leaky.close(3);
        assert_eq!(leaky.report.violations.len(), 2);
        assert!(leaky.report.violations[1].starts_with("campaign: meters billed 4"));

        // Campaign-wide invariant 1: a request that was never folded.
        let mut short = Tally::new(1, FaultCounts::default());
        short.close(0);
        assert_eq!(
            short.report.violations,
            ["campaign: 0 classified of 1 requests"]
        );
    }

    #[test]
    fn probe_latencies_enter_the_tail_only_when_the_report_asks() {
        let fold = || {
            let mut tally = tally_of(OFFLOAD, false, &outcome(true, 0, None, 0), 0);
            let mut slow_probe = outcome(true, 1, Some(OFFLOAD), 0);
            slow_probe.e2e_latency_s = 9.0;
            let probe = tally_of(OFFLOAD, true, &slow_probe, 0);
            tally.latencies.extend(probe.latencies);
            // A failed request never enters the tail.
            let failed = tally_of(OFFLOAD, false, &outcome(false, 0, Some(OFFLOAD), 0), 0);
            tally.latencies.extend(failed.latencies);
            tally
        };
        let with_probes = fold().report(true);
        assert_eq!(with_probes.mean_latency_s, 5.0);
        assert!(with_probes.p99_latency_s > 8.9);
        let without = fold().report(false);
        assert_eq!(without.mean_latency_s, 1.0);
        assert_eq!(without.p99_latency_s, 1.0);
    }

    #[test]
    fn campaign_is_deterministic_under_a_seed() {
        let a = run_campaign(&quick(7, true));
        let b = run_campaign(&quick(7, true));
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_upholds_invariants_and_exercises_every_fault_class() {
        let report = run_campaign(&quick(42, true));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.faults.partitions > 0, "partitions injected");
        assert!(report.faults.gray_failures > 0, "gray failures injected");
        assert!(report.faults.kv_throttles > 0, "KV throttling injected");
        assert_eq!(
            report.completed_clean + report.fell_back_home + report.failed,
            report.requests
        );
        assert!(report.fell_back_home > 0, "faults forced some failovers");
    }

    #[test]
    fn multi_provider_campaign_upholds_invariants() {
        let mut cfg = quick(42, true);
        cfg.providers = ProviderSet::parse("aws,gcp").unwrap();
        let report = run_campaign(&cfg);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(
            report.completed_clean + report.fell_back_home + report.failed,
            report.requests,
            "no invocation lost across the provider boundary"
        );
        // Same seed, same config → same report; and the widened offload
        // universe genuinely changes the campaign relative to aws-only.
        assert_eq!(report, run_campaign(&cfg));
        assert_ne!(report, run_campaign(&quick(42, true)));
    }

    fn correlated(seed: u64, contingency: usize, workers: usize) -> ChaosConfig {
        ChaosConfig {
            seed,
            requests: 200,
            duration_s: 4.0 * 3600.0,
            providers: ProviderSet::parse("aws,gcp").unwrap(),
            contingency,
            workers,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn correlated_campaign_upholds_invariants_and_injects_every_class() {
        let report = run_correlated_campaign(&correlated(42, 3, 1));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.faults.provider_outages > 0);
        assert!(report.faults.failure_domains > 0);
        assert!(report.faults.carbon_outages > 0);
        assert!(report.contingency_entries > 0);
        let (fresh, lkg, yearly) = report.stale_queries;
        assert!(fresh > 0, "healthy hours answer fresh");
        assert!(
            lkg + yearly > 0,
            "the carbon outage pushed queries down the ladder"
        );
    }

    #[test]
    fn correlated_campaign_is_bit_identical_at_any_worker_count() {
        let w1 = run_correlated_campaign(&correlated(42, 3, 1));
        let w2 = run_correlated_campaign(&correlated(42, 3, 2));
        let w8 = run_correlated_campaign(&correlated(42, 3, 8));
        assert_eq!(w1, w2);
        assert_eq!(w1, w8);
        // And under the same seed the whole report reproduces.
        assert_eq!(w1, run_correlated_campaign(&correlated(42, 3, 1)));
    }

    fn headline(contingency: usize, workers: usize) -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            requests: 1500,
            duration_s: 6.0 * 3600.0,
            drop_prob: 0.0,
            providers: ProviderSet::parse("aws,gcp").unwrap(),
            contingency,
            workers,
            ..ChaosConfig::default()
        }
    }

    /// The pinned headline campaign (EXPERIMENTS.md "Contingency"): a
    /// seeded provider-wide `gcp` outage covering 70% of a 6 h campaign,
    /// with the home region absorbing gray congestion (transfer ×5) for
    /// the duration. Same faults in both runs — the only difference is
    /// the precomputed contingency table. Pinned at seed 42:
    /// p99 2.737 s vs 2.776 s, total carbon 0.213 g vs 0.526 g.
    #[test]
    fn contingency_failover_beats_reroute_home_on_p99_and_carbon() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::MemorySink::default()));
        let with = run_provider_outage_scenario(&headline(3, 1));
        let finished = caribou_telemetry::finish().expect("session active");
        let without = run_provider_outage_scenario(&headline(0, 1));

        assert!(with.ok(), "violations: {:?}", with.violations);
        assert!(without.ok(), "violations: {:?}", without.violations);
        assert_eq!(without.fallback_routed, 0);
        assert!(
            with.fallback_routed > 0,
            "failover engaged under the outage"
        );
        assert!(
            with.p99_latency_s < without.p99_latency_s,
            "contingency p99 {} !< baseline p99 {}",
            with.p99_latency_s,
            without.p99_latency_s
        );
        assert!(
            with.p50_latency_s < without.p50_latency_s,
            "contingency p50 {} !< baseline p50 {}",
            with.p50_latency_s,
            without.p50_latency_s
        );
        assert!(
            with.total_carbon_g < without.total_carbon_g,
            "contingency carbon {} !< baseline carbon {}",
            with.total_carbon_g,
            without.total_carbon_g
        );

        // The failover path and the degradation ladder both leave an
        // auditable telemetry trail in the contingency run.
        let rec = &finished.recorder;
        assert!(rec.counter("failover.engaged") >= 1, "engaged counter");
        assert!(rec.counter("failover.rerouted") > 0, "rerouted counter");
        assert!(rec.counter("failover.recovered") >= 1, "recovered counter");
        assert!(rec.counter("carbon.stale.fresh") > 0);
        assert!(rec.counter("carbon.stale.last_known_good") > 0);
        assert!(rec.counter("carbon.stale.yearly_average") > 0);
    }

    #[test]
    fn provider_outage_scenario_is_bit_identical_at_any_worker_count() {
        let cfg = |workers| ChaosConfig {
            seed: 7,
            requests: 200,
            duration_s: 4.0 * 3600.0,
            drop_prob: 0.0,
            providers: ProviderSet::parse("aws,gcp").unwrap(),
            contingency: 3,
            workers,
            ..ChaosConfig::default()
        };
        let w1 = run_provider_outage_scenario(&cfg(1));
        let w2 = run_provider_outage_scenario(&cfg(2));
        let w8 = run_provider_outage_scenario(&cfg(8));
        assert_eq!(w1, w2);
        assert_eq!(w1, w8);
    }

    #[test]
    fn disabling_the_breaker_is_visible_in_reroute_counts() {
        let with = run_campaign(&quick(42, true));
        let without = run_campaign(&quick(42, false));
        assert!(without.ok(), "violations: {:?}", without.violations);
        assert!(with.breaker_reroutes > 0, "breaker engaged under faults");
        assert_eq!(without.breaker_reroutes, 0);
    }
}
