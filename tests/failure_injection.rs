//! Fault-injection integration: region outages, deployment failures, and
//! message loss exercised through the full stack (§6.1's fallback and
//! retry behaviour).

use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::migrator::Migrator;
use caribou_core::scenario::{World, HOME};
use caribou_core::utility::DeploymentUtility;
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::builder::Workflow;
use caribou_model::dist::DistSpec;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::{DeploymentPlan, HourlyPlans};
use caribou_model::region::ProviderSet;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_workloads::traces::uniform_trace;

fn two_stage_app(cloud: &SimCloud) -> WorkflowApp {
    let mut wf = Workflow::new("wf", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 2.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Constant { value: 4.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 10_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    WorkflowApp {
        name: "wf".into(),
        dag,
        profile,
        home: cloud.region(HOME).unwrap(),
    }
}

#[test]
fn outage_during_migration_falls_back_home_then_retries() {
    let mut cloud = SimCloud::aws(200);
    let app = two_stage_app(&cloud);
    let manifest = DeploymentManifest::new("wf", "0.1", HOME);
    let mut dep = DeploymentUtility::deploy_initial(&mut cloud, app, &manifest).unwrap();
    let ca = cloud.region("ca-central-1").unwrap();
    cloud.set_faults(FaultPlan::none().with_outage(ca, 0.0, 5_000.0));

    let plans = HourlyPlans::hourly(
        (0..24).map(|_| DeploymentPlan::uniform(2, ca)).collect(),
        0.0,
        1e9,
    );
    // During the outage: rollout fails, traffic stays home, plan pending.
    assert!(Migrator::rollout(&mut cloud, &mut dep, plans, 100.0).is_err());
    assert!(!dep.router.has_active_plan(100.0));
    assert!(dep.pending.is_some());
    let d = dep.router.route(150.0);
    assert!(d.plan.is_single_region());
    assert_eq!(
        d.plan.region_of(caribou_model::dag::NodeId(0)),
        dep.app.home
    );

    // After the outage: the periodic retry activates the plan.
    let retry = Migrator::retry_pending(&mut cloud, &mut dep, 6_000.0).unwrap();
    assert!(retry.is_ok());
    assert!(dep.router.has_active_plan(6_000.0));
    let d = dep.router.route(6_100.0);
    assert_eq!(d.plan.region_of(caribou_model::dag::NodeId(1)), ca);
}

#[test]
fn message_loss_is_absorbed_by_retries() {
    let World {
        mut cloud, carbon, ..
    } = World::new(ProviderSet::aws_only(), 201, 201).unwrap();
    cloud.set_faults(FaultPlan {
        message_drop_prob: 0.10,
        ..FaultPlan::none()
    });
    let app = two_stage_app(&cloud);
    let plan = DeploymentPlan::uniform(2, app.home);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut cloud, &app, &plan);
    let mut rng = Pcg32::seed(201);
    let mut completed = 0;
    let mut retried = 0;
    let n = 300;
    for i in 0..n {
        let out = engine.invoke(&mut cloud, &app, &plan, i, 1000.0, &mut rng);
        if out.completed {
            completed += 1;
        }
        if out.e2e_latency_s > 6.8 {
            // A retry backoff (0.5 s) pushed the latency visibly.
            retried += 1;
        }
    }
    // At 10% drop probability with 5 attempts, nearly everything
    // completes; some invocations visibly paid retry latency.
    assert!(
        completed as f64 / n as f64 > 0.99,
        "completed {completed}/{n}"
    );
    assert!(retried > 0, "some retries should be visible in latency");
}

#[test]
fn framework_run_survives_transient_outage_of_offload_region() {
    let world = World::new(ProviderSet::aws_only(), 202, 202).unwrap();
    let mut config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    config.mc = MonteCarloConfig {
        batch: 60,
        max_samples: 120,
        cv_threshold: 0.1,
    };
    config.hbss.max_iterations = 60;
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);
    // The clean region is down for the first day and a half: the first
    // solve's rollout fails, traffic stays home, and the retry succeeds
    // once the region recovers.
    let ca = caribou.cloud.region("ca-central-1").unwrap();
    caribou
        .cloud
        .set_faults(FaultPlan::none().with_outage(ca, 0.0, 1.3 * 86_400.0));

    let app = two_stage_app(&caribou.cloud);
    let manifest = DeploymentManifest::new("wf", "0.1", HOME);
    let mut constraints = caribou_model::constraints::Constraints::unconstrained(2);
    constraints.tolerances.latency = 0.5;
    constraints.tolerances.cost = 1.0;
    let idx = caribou.deploy(app, &manifest, constraints).unwrap();
    let trace = uniform_trace(30.0, 3.0 * 86_400.0, 1500.0);
    let report = caribou.run_trace(idx, &trace);

    // No invocation was ever routed into the dead region while it was
    // down (fallback-to-home protected the traffic).
    let misrouted = report
        .samples
        .iter()
        .filter(|s| s.at_s < 1.3 * 86_400.0 && s.majority_region == ca)
        .count();
    assert_eq!(
        misrouted, 0,
        "no traffic into a region that never activated"
    );
    assert!(report.completion_rate() > 0.999);
    // After recovery the workflow eventually shifted.
    let shifted_late = report
        .samples
        .iter()
        .filter(|s| s.at_s > 2.5 * 86_400.0 && s.majority_region == ca)
        .count();
    assert!(
        shifted_late > 0,
        "the retry should activate the clean region"
    );
}

// ---------------------------------------------------------------------------
// Correlated fault classes + precomputed-contingency failover (property).
// ---------------------------------------------------------------------------

use caribou_core::chaos::{run_correlated_campaign, ChaosConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under arbitrary correlated fault plans (provider-wide outages,
    /// shared failure domains, carbon-data outages — all drawn from the
    /// campaign seed) with precomputed-contingency failover armed, no
    /// invocation is lost (every request classified exactly once), SNS
    /// request metering stays honest per-invocation and campaign-wide
    /// (checked inside the campaign's invariant sweep), and the full
    /// report is bit-identical at 1, 2 and 8 workers.
    #[test]
    fn correlated_faults_with_failover_lose_nothing(
        seed in 0u64..1_000_000,
        contingency in 0usize..4usize,
    ) {
        let cfg = |workers: usize| ChaosConfig {
            seed,
            requests: 40,
            duration_s: 2.0 * 3600.0,
            providers: ProviderSet::parse("aws,gcp").unwrap(),
            contingency,
            workers,
            ..ChaosConfig::default()
        };
        let r1 = run_correlated_campaign(&cfg(1));
        prop_assert!(r1.ok(), "violations: {:?}", r1.violations);
        prop_assert_eq!(
            r1.completed_clean + r1.fell_back_home + r1.failed,
            r1.requests,
            "every invocation classified exactly once"
        );
        let r2 = run_correlated_campaign(&cfg(2));
        let r8 = run_correlated_campaign(&cfg(8));
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(&r1, &r8);
    }
}
