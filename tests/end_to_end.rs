//! End-to-end integration: every benchmark workload deployed and run
//! through the full framework on the simulated cloud.

use caribou_carbon::source::RegionalSource;
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::manager::ManagerConfig;
use caribou_core::scenario::{workflow_app, World, CARBON_EPOCH, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_model::rng::Pcg32;
use caribou_solver::hbss::HbssParams;
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};
use caribou_workloads::traces::{azure_trace, uniform_trace};

fn fast_config(regions: Vec<caribou_model::region::RegionId>) -> CaribouConfig {
    let mut config = CaribouConfig::new(regions, TransmissionScenario::BEST);
    config.mc = MonteCarloConfig {
        batch: 60,
        max_samples: 120,
        cv_threshold: 0.1,
    };
    config.hbss = HbssParams {
        max_iterations: 60,
        ..HbssParams::default()
    };
    config
}

/// The framework at the fast configuration over the AWS world whose
/// cloud and carbon data are both seeded `seed`.
fn framework(seed: u64) -> Caribou<RegionalSource> {
    let world = World::new(ProviderSet::aws_only(), seed, seed).unwrap();
    let config = fast_config(world.regions);
    Caribou::new(world.cloud, world.carbon, config)
}

fn deploy_benchmark(caribou: &mut Caribou<RegionalSource>, bench: &Benchmark) -> usize {
    deploy_with_latency_tolerance(caribou, bench, 0.15)
}

fn deploy_with_latency_tolerance(
    caribou: &mut Caribou<RegionalSource>,
    bench: &Benchmark,
    latency_tolerance: f64,
) -> usize {
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = latency_tolerance;
    constraints.tolerances.cost = 1.0;
    let app = workflow_app(bench, caribou.cloud.region(HOME).unwrap());
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    caribou
        .deploy(app, &manifest, constraints)
        .expect("deploys")
}

#[test]
fn every_benchmark_runs_through_the_framework() {
    for bench in all_benchmarks(InputSize::Small) {
        let mut caribou = framework(100);
        let idx = deploy_benchmark(&mut caribou, &bench);
        let trace = uniform_trace(30.0, 6.0 * 3600.0, 800.0);
        let report = caribou.run_trace(idx, &trace);
        assert_eq!(report.samples.len(), trace.len(), "{}", bench.name);
        assert!(
            report.completion_rate() > 0.999,
            "{}: completion {}",
            bench.name,
            report.completion_rate()
        );
        assert!(report.workflow_carbon_g() > 0.0, "{}", bench.name);
        assert!(report.total_cost_usd() > 0.0, "{}", bench.name);
        assert!(report.mean_latency_s() > 0.0, "{}", bench.name);
    }
}

#[test]
fn compute_heavy_benchmark_shifts_and_saves_carbon() {
    let bench = caribou_workloads::benchmarks::video_analytics(InputSize::Small);
    let mut caribou = framework(101);
    let idx = deploy_benchmark(&mut caribou, &bench);
    let trace = uniform_trace(30.0, 3.0 * 86_400.0, 1500.0);
    let report = caribou.run_trace(idx, &trace);
    assert!(!report.dp_generations.is_empty(), "plans were solved");

    let home = caribou.cloud.region(HOME).unwrap();
    let offloaded = report
        .samples
        .iter()
        .filter(|s| s.at_s > 2.0 * 86_400.0 && !s.benchmark_traffic)
        .filter(|s| s.majority_region != home)
        .count();
    assert!(offloaded > 0, "production traffic should shift regions");

    let early: Vec<f64> = report
        .samples
        .iter()
        .filter(|s| s.at_s < 6.0 * 3600.0 && !s.benchmark_traffic)
        .map(|s| s.carbon_g())
        .collect();
    let late: Vec<f64> = report
        .samples
        .iter()
        .filter(|s| s.at_s > 2.5 * 86_400.0 && !s.benchmark_traffic)
        .map(|s| s.carbon_g())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&late) < mean(&early) * 0.6,
        "early {} late {}",
        mean(&early),
        mean(&late)
    );
}

#[test]
fn migrations_copy_images_and_create_topics() {
    let bench = caribou_workloads::benchmarks::text2speech_censoring(InputSize::Small);
    let mut caribou = framework(102);
    let idx = deploy_benchmark(&mut caribou, &bench);
    let trace = uniform_trace(30.0, 2.0 * 86_400.0, 2000.0);
    let report = caribou.run_trace(idx, &trace);
    if report.dp_generations.is_empty() {
        panic!("expected at least one solve for a busy workflow");
    }
    // Some migration happened: image replicas exist beyond the home region.
    assert!(
        report.migration_egress_bytes > 0.0,
        "crane copies charged egress"
    );
    let ca = caribou.cloud.region("ca-central-1").unwrap();
    assert!(
        caribou
            .cloud
            .registry
            .has_replica("text2speech_censoring:1.0", ca),
        "image replicated to the clean region"
    );
    assert!(caribou.cloud.iam.role_exists("text2speech_censoring", ca));
}

#[test]
fn azure_trace_week_is_stable_for_large_inputs() {
    let bench = caribou_workloads::benchmarks::rag_data_ingestion(InputSize::Large);
    let mut caribou = framework(103);
    let idx = deploy_benchmark(&mut caribou, &bench);
    let trace = azure_trace(30.0, 2.5 * 86_400.0, 600.0, &mut Pcg32::seed(103));
    let report = caribou.run_trace(idx, &trace);
    assert!(report.completion_rate() > 0.999);
    // Framework overhead must remain a small fraction of workflow carbon
    // (§5.2: net gains require overhead below savings).
    assert!(report.framework_carbon_g < 0.1 * report.workflow_carbon_g());
}

#[test]
fn run_is_deterministic_per_seed() {
    let run = || {
        let bench = caribou_workloads::benchmarks::dna_visualization(InputSize::Small);
        let mut caribou = framework(104);
        let idx = deploy_benchmark(&mut caribou, &bench);
        let trace = uniform_trace(30.0, 86_400.0, 500.0);
        caribou.run_trace(idx, &trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.samples.len(), b.samples.len());
    assert_eq!(a.workflow_carbon_g(), b.workflow_carbon_g());
    assert_eq!(a.dp_generations, b.dp_generations);
}

#[test]
fn manager_cadence_relaxes_when_plans_stabilize() {
    let bench = caribou_workloads::benchmarks::text2speech_censoring(InputSize::Small);
    let mut caribou = framework(105);
    caribou.config.manager = ManagerConfig::default();
    let idx = deploy_benchmark(&mut caribou, &bench);
    let trace = uniform_trace(30.0, 7.0 * 86_400.0, 2000.0);
    let report = caribou.run_trace(idx, &trace);
    // The post-solve cadence is bounded below by one plan horizon (24 h):
    // no solve storms, regardless of how noisy the solved plans are. (The
    // stretch-on-stability behaviour is unit-tested on the manager and
    // visible in the full-resolution fig11 run.)
    let gens = &report.dp_generations;
    assert!(gens.len() >= 2, "at least the learning phase happened");
    assert!(gens.len() <= 8, "no more than daily solving: {gens:?}");
    for w in gens.windows(2) {
        assert!(
            w[1] - w[0] >= 86_400.0 - 1.0,
            "solves closer than the plan horizon: {gens:?}"
        );
    }
}

/// The whole loop across the Metrics Manager's 5,000-log cap, pinned to the
/// bit: `caribou simulate text2speech --days 7 --per-day 780` (5,460
/// invocations, four plan generations solved on learned models, retention
/// pruning from invocation 5,001 on). The constants were re-captured when
/// the estimator moved to the draw bank (the one re-golden of that round):
/// plan generations, framework carbon and migration egress kept their
/// bits; latency, workflow carbon and cost moved with the schedules.
#[test]
fn adaptive_week_across_the_log_cap_is_pinned() {
    let bench = caribou_workloads::benchmarks::text2speech_censoring(InputSize::Small);
    let world = World::new(ProviderSet::aws_only(), 7, CARBON_EPOCH).unwrap();
    let config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);
    let idx = deploy_with_latency_tolerance(&mut caribou, &bench, 0.10);
    let trace = uniform_trace(30.0, 7.0 * 86_400.0, 780.0);
    assert_eq!(trace.len(), 5_460);
    let report = caribou.run_trace(idx, &trace);

    let pinned = [
        (
            "mean latency",
            report.mean_latency_s(),
            0x402a578fccc60d30_u64,
        ),
        ("p95 latency", report.p95_latency_s(), 0x402df92001ec7cc4),
        (
            "workflow carbon",
            report.workflow_carbon_g(),
            0x402abc81af267519,
        ),
        (
            "framework carbon",
            report.framework_carbon_g,
            0x3fdd46f53540826d,
        ),
        ("cost", report.total_cost_usd(), 0x40029ce897a0f3c1),
        (
            "migration egress",
            report.migration_egress_bytes,
            0x41c0b07600000000,
        ),
    ];
    for (what, got, bits) in pinned {
        assert_eq!(
            got.to_bits(),
            bits,
            "{what}: {got:?} = {:#018x}",
            got.to_bits()
        );
    }
    let generations: Vec<u64> = report.dp_generations.iter().map(|t| t.to_bits()).collect();
    assert_eq!(
        generations,
        [
            0x40f4b0ec30e473ff,
            0x4104e47618723a00,
            0x4113693b0c391d00,
            0x4121535d861c8e80
        ],
        "plan generations {:?}",
        report.dp_generations
    );
}
