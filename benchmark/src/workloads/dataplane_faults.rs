//! `dataplane_faults`: seeded fault campaigns through `run_campaign`.
//!
//! Outages, partitions, gray failures, KV throttling, cold storms and 2%
//! message drops, with the circuit breaker on. The same execution engine
//! and simulated cloud as `dataplane_home`, used differently: the breaker
//! re-routes, publishes retry with back-off, and nodes fall back home
//! mid-flight. A happy-path speed-up that taxes the failure path shows
//! here. One campaign draws one fault script, and both its host time and
//! its tail latency swing widely from script to script, so a lap replays
//! several campaigns and pools them.

use std::time::Instant;

use super::{Lap, PlaneCounts, Scale, Sim, Workload};
use crate::api::{
    self, CarbonModel, ChaosConfig, ChaosReport, DeploymentManifest, DeploymentPlan,
    DeploymentUtility, ExecutionEngine, FaultPlan, HourlyPlans, InvocationScratch,
    InvocationStatus, Migrator, NodeId, Orchestrator, Pcg32, ProviderSet, SeedSplitter,
    TransmissionScenario,
};
use crate::layers::Layers;

pub const WORKLOAD: Workload = Workload {
    name: "dataplane_faults",
    op: "request",
    lap,
    verify,
    traced,
};

/// Campaigns (fault scripts) per full lap.
pub const CAMPAIGNS: u64 = 64;
/// Requests per campaign, evenly spaced over the campaign's sim time.
pub const REQUESTS: u32 = 1_000;
const WARMUP_CAMPAIGNS: u64 = 8;
/// Six simulated hours per campaign, the length `caribou chaos` defaults
/// to (one request every 21.6 s keeps containers warm between requests).
pub const DURATION_S: f64 = 6.0 * 3_600.0;
pub const DROP_PROB: f64 = 0.02;

fn campaign(seed: u64, k: u64, requests: u32) -> ChaosConfig {
    ChaosConfig {
        seed: SeedSplitter::new(seed).absorb(0xFA17).absorb(k).seed(),
        requests,
        duration_s: DURATION_S,
        breaker_enabled: true,
        drop_prob: DROP_PROB,
        providers: ProviderSet::aws_only(),
        contingency: 0,
        workers: 1,
    }
}

fn sim_of(reports: &[ChaosReport]) -> Sim {
    let total = |f: fn(&ChaosReport) -> u32| reports.iter().map(|r| u64::from(f(r))).sum::<u64>();
    let requests = total(|r| r.requests);
    let served = total(|r| r.completed_clean) + total(|r| r.fell_back_home);
    // Mean over served requests; each campaign's mean is over its own.
    let latency_mean_s = reports
        .iter()
        .map(|r| r.mean_latency_s * f64::from(r.completed_clean + r.fell_back_home))
        .sum::<f64>()
        / served.max(1) as f64;
    // The report exposes p99 per campaign (10 requests beyond it); the
    // lap's tail is their mean over the fault scripts.
    let latency_tail_s =
        reports.iter().map(|r| r.p99_latency_s).sum::<f64>() / reports.len() as f64;
    Sim {
        latency_mean_s,
        latency_tail_s,
        tail: "mean over campaigns of p99",
        samples: served,
        extras: vec![
            (
                "clean_share",
                total(|r| r.completed_clean) as f64 / requests as f64,
            ),
            (
                "fallback_share",
                total(|r| r.fell_back_home) as f64 / requests as f64,
            ),
            (
                "reroute_share",
                total(|r| r.breaker_reroutes) as f64 / requests as f64,
            ),
            (
                "violations",
                reports.iter().map(|r| r.violations.len()).sum::<usize>() as f64,
            ),
        ],
    }
}

fn lap(seed: u64, scale: Scale) -> Lap {
    let campaigns = match scale {
        Scale::Full => CAMPAIGNS,
        Scale::Warmup => WARMUP_CAMPAIGNS,
    };
    // `run_campaign` builds its cloud, deployment, rollout and fault
    // script itself: the set-up cost is a campaign of one request.
    let t = Instant::now();
    api::run_campaign(&campaign(seed, 0, 1));
    let setup_s = t.elapsed().as_secs_f64();

    let mut segments_s = Vec::new();
    let reports: Vec<ChaosReport> = (0..campaigns)
        .map(|k| {
            let t = Instant::now();
            let report = api::run_campaign(&campaign(seed, k, REQUESTS));
            segments_s.push(t.elapsed().as_secs_f64());
            report
        })
        .collect();
    Lap {
        setup_s,
        segments_s,
        ops: reports.iter().map(|r| u64::from(r.requests)).sum(),
        failed: reports.iter().map(|r| u64::from(r.failed)).sum(),
        sim: sim_of(&reports),
    }
}

fn verify(_seed: u64, lap: &Lap) -> Vec<String> {
    let mut failures = Vec::new();
    let violations = lap.sim.extra("violations");
    if violations != 0.0 {
        failures.push(format!(
            "dataplane_faults: campaigns reported {violations} invariant violations (report.ok() is false)"
        ));
    }
    if lap.sim.extra("reroute_share") == 0.0 && lap.sim.extra("fallback_share") == 0.0 {
        failures
            .push("dataplane_faults: no request was re-routed or fell back; faults are off".into());
    }
    failures
}

/// The benchmark's own route -> invoke -> record loop under the same
/// fault scripts, deployment and diamond as `run_campaign`, with a span
/// at each layer boundary.
fn traced(seed: u64, layers: &mut Layers) {
    let t = Instant::now();
    let reference: Vec<ChaosReport> = (0..CAMPAIGNS)
        .map(|k| api::run_campaign(&campaign(seed, k, REQUESTS)))
        .collect();
    let reference_s = t.elapsed().as_secs_f64();
    let requests = CAMPAIGNS * u64::from(REQUESTS);
    let served: u64 = reference
        .iter()
        .map(|r| u64::from(r.completed_clean + r.fell_back_home))
        .sum();
    layers.set("sim.ok_share", served as f64 / requests as f64);

    let (mut fell_back, mut rerouted) = (0u64, 0u64);
    let mut counts = PlaneCounts::default();
    let mut traced_s = 0.0;
    let tracer = &mut layers.tracer;
    for k in 0..CAMPAIGNS {
        let cfg = campaign(seed, k, REQUESTS);
        let mut world = api::world(ProviderSet::aws_only(), cfg.seed);
        let home = world.home;
        let app = api::chaos_diamond(home);
        let manifest = DeploymentManifest::new("chaos", "0.1", api::HOME);
        let mut wf = DeploymentUtility::deploy_initial(&mut world.cloud, app, &manifest)
            .expect("initial deploy on a healthy cloud");
        let offload: Vec<_> = world
            .regions
            .iter()
            .copied()
            .filter(|r| *r != home)
            .collect();
        let mut plan = DeploymentPlan::uniform(4, offload[0]);
        plan.set(NodeId(1), offload[1 % offload.len()]);
        plan.set(NodeId(2), offload[2 % offload.len()]);
        let deployed_at = world.cloud.clock.now();
        Migrator::rollout(
            &mut world.cloud,
            &mut wf,
            HourlyPlans::daily(plan, 0.0, DURATION_S * 10.0 + 1e6),
            deployed_at,
        )
        .expect("rollout before faults cannot fail");
        let mut faults = FaultPlan::randomized(cfg.seed, &world.regions, home, DURATION_S);
        faults.message_drop_prob = DROP_PROB;
        world.cloud.set_faults(faults);
        let engine = ExecutionEngine {
            carbon_source: &world.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        let mut master = Pcg32::seed_stream(cfg.seed, 0xc4a0);
        let mut scratch = InvocationScratch::new();
        let t0 = world.cloud.clock.now();
        let step = DURATION_S / f64::from(REQUESTS);
        counts.open(&world.cloud);

        let t = Instant::now();
        for i in 0..u64::from(REQUESTS) {
            let at_s = t0 + i as f64 * step;
            tracer.set_op(k * u64::from(REQUESTS) + i);
            tracer.enter("op");
            tracer.enter("exec.router.route");
            let decision = wf.router.route(at_s);
            tracer.exit();
            let mut rng = master.fork(i + 1);
            tracer.enter("exec.engine.invoke");
            let o = engine.invoke_with_scratch(
                &mut world.cloud,
                &wf.app,
                &decision.plan,
                i + 1,
                at_s,
                &mut rng,
                &mut scratch,
            );
            tracer.exit();
            tracer.enter("exec.router.record_outcome");
            wf.router
                .record_outcome(&decision.plan, o.failed_region, at_s);
            tracer.exit();
            tracer.exit();
            rerouted += u64::from(decision.breaker_rerouted);
            fell_back += u64::from(o.status() == InvocationStatus::FellBackHome);
            counts.outcome(&o);
        }
        traced_s += t.elapsed().as_secs_f64();
        counts.close(&world.cloud);
    }
    counts.report(layers);

    let n = requests as f64;
    layers.set("exec.engine.fallback_share", fell_back as f64 / n);
    layers.set("exec.router.reroute_share", rerouted as f64 / n);
    layers.close_trace(
        "budget.dataplane.coverage",
        &[
            "exec.router.route",
            "exec.engine.invoke",
            "exec.router.record_outcome",
        ],
        reference_s,
        traced_s,
        requests,
    );
}
