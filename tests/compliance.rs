//! Compliance integration: data-residency constraints are honored across
//! the solver, migrator, and executor (§2.3, §8).

use caribou_carbon::source::RegionalSource;
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::scenario::{workflow_app, World, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::constraints::{Constraints, RegionFilter, Tolerances};
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};
use caribou_workloads::traces::uniform_trace;

fn run_with_constraints(constraints: Constraints, seed: u64) -> (Caribou<RegionalSource>, usize) {
    let world = World::new(ProviderSet::aws_only(), seed, seed).unwrap();
    let mut config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    config.mc = MonteCarloConfig {
        batch: 60,
        max_samples: 120,
        cv_threshold: 0.1,
    };
    config.hbss.max_iterations = 80;
    config.seed = seed;
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);
    let bench = text2speech_censoring(InputSize::Small);
    let app = workflow_app(&bench, world.home);
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    let idx = caribou.deploy(app, &manifest, constraints).unwrap();
    let trace = uniform_trace(30.0, 2.5 * 86_400.0, 1500.0);
    let report = caribou.run_trace(idx, &trace);
    assert!(report.completion_rate() > 0.999);
    (caribou, idx)
}

fn base_constraints() -> Constraints {
    let bench = text2speech_censoring(InputSize::Small);
    let mut c = Constraints::unconstrained(bench.dag.node_count());
    c.tolerances = Tolerances {
        latency: 0.15,
        cost: 1.0,
        carbon: f64::INFINITY,
    };
    c
}

/// Active plans never assign a constrained node outside its permitted
/// country, even after days of re-solving.
#[test]
fn per_node_residency_is_never_violated() {
    let bench = text2speech_censoring(InputSize::Small);
    let upload = bench.dag.node_by_name("Upload").unwrap();
    let mut constraints = base_constraints();
    constraints.per_node[upload.index()] = Some(RegionFilter::countries(["US"]));

    let (caribou, idx) = run_with_constraints(constraints, 300);
    let state = caribou.workflow(idx);
    if let Some(plans) = state.router.active_plans() {
        for h in 0..24 {
            let region = plans.plan_for_hour(h).region_of(upload);
            assert_eq!(
                caribou.cloud.regions.spec(region).country,
                "US",
                "hour {h}: Upload escaped the US"
            );
        }
    } else {
        panic!("a busy workflow should have an active plan by day 2.5");
    }
}

/// Workflow-level residency restricts every node; yet the framework still
/// deploys and operates (home fallback is always permitted).
#[test]
fn workflow_level_residency_restricts_all_nodes() {
    let mut constraints = base_constraints();
    constraints.workflow = RegionFilter::countries(["US"]);

    let (caribou, idx) = run_with_constraints(constraints, 301);
    let ca = caribou.cloud.region("ca-central-1").unwrap();
    let state = caribou.workflow(idx);
    if let Some(plans) = state.router.active_plans() {
        for h in 0..24 {
            for node in state.app.dag.all_nodes() {
                assert_ne!(
                    plans.plan_for_hour(h).region_of(node),
                    ca,
                    "node escaped to Canada despite US-only workflow policy"
                );
            }
        }
    }
}

/// Per-node constraints supersede workflow-level ones: a node explicitly
/// allowed into Canada may go there even under a US-only workflow filter
/// — and emission reductions remain possible (the paper's compliance
/// argument).
#[test]
fn node_filter_supersedes_workflow_filter_in_deployed_plans() {
    let bench = text2speech_censoring(InputSize::Small);
    let t2s = bench.dag.node_by_name("Text2Speech").unwrap();
    let mut constraints = base_constraints();
    constraints.workflow = RegionFilter::countries(["US"]);
    constraints.per_node[t2s.index()] = Some(RegionFilter::any());

    let (caribou, idx) = run_with_constraints(constraints, 302);
    let ca = caribou.cloud.region("ca-central-1").unwrap();
    let state = caribou.workflow(idx);
    let plans = state
        .router
        .active_plans()
        .expect("busy workflow has an active plan");
    // The liberated node reaches the hydro grid in at least one hour...
    let t2s_in_ca = (0..24).any(|h| plans.plan_for_hour(h).region_of(t2s) == ca);
    assert!(t2s_in_ca, "the unconstrained node should use ca-central-1");
    // ...while all other nodes respect the workflow-level US policy.
    for h in 0..24 {
        for node in state.app.dag.all_nodes() {
            if node != t2s {
                assert_ne!(plans.plan_for_hour(h).region_of(node), ca);
            }
        }
    }
}
