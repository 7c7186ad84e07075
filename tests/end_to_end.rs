//! End-to-end integration: every benchmark workload deployed and run
//! through the full framework on the simulated cloud.

use caribou_carbon::source::{CarbonDataSource, RegionalSource};
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::manager::ManagerConfig;
use caribou_core::scenario::{workflow_app, World, CARBON_EPOCH, HOME};
use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::builder::Workflow;
use caribou_model::dist::DistSpec;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{ProviderSet, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;
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

/// What a sweep of invocations reached, read off their logs.
#[derive(Default)]
struct Reach {
    /// Most regions one invocation ran functions in.
    regions: usize,
    /// Payload edges that crossed a provider boundary.
    cross_provider: u64,
    /// Nodes re-routed home, and invocations that failed.
    failovers: u64,
    failed: u64,
}

/// Runs twelve invocations of `app` under `plan` through one scratch and
/// folds each one's bill into `h` (FNV-1a over words): the cost's bits,
/// the SNS publishes billed and the bits of the inter-region bytes.
#[allow(clippy::too_many_arguments)]
fn fold_bills<S: CarbonDataSource>(
    h: &mut u64,
    reach: &mut Reach,
    cloud: &mut SimCloud,
    carbon: &S,
    orchestrator: Orchestrator,
    app: &WorkflowApp,
    plan: &DeploymentPlan,
    seed: u64,
    scratch: &mut InvocationScratch,
) {
    let engine = ExecutionEngine {
        carbon_source: carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator,
    };
    engine.provision(cloud, app, plan);
    let mut rng = Pcg32::seed(seed);
    for i in 0..12u64 {
        let at = 600.0 + 997.0 * i as f64;
        let out = engine.invoke_with_scratch(cloud, app, plan, i, at, &mut rng, scratch);
        let egress: f64 = scratch.meter().egress.iter().map(|(_, bytes)| bytes).sum();
        for w in [out.cost_usd.to_bits(), out.sns_publishes, egress.to_bits()] {
            *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut ran: Vec<RegionId> = out.log.nodes.iter().map(|r| r.region).collect();
        ran.sort();
        ran.dedup();
        reach.regions = reach.regions.max(ran.len());
        reach.cross_provider += out
            .log
            .edges
            .iter()
            .filter(|e| e.taken && cloud.pricing.is_cross_provider(e.from_region, e.to_region))
            .count() as u64;
        reach.failovers += u64::from(out.failovers);
        reach.failed += u64::from(!out.completed);
    }
}

/// Node `i` of an `n`-node workflow on `regions[(3i + 1) % len]`: every
/// node away from the first region, neighbours apart.
fn spread(n: usize, regions: &[RegionId]) -> DeploymentPlan {
    DeploymentPlan::new(
        (0..n)
            .map(|i| regions[(3 * i + 1) % regions.len()])
            .collect(),
    )
}

/// A fan-out of ten stages between an entry and a sync join, homed at
/// `home`: twelve nodes, so a spread plan touches more regions than one
/// invocation of a paper benchmark can.
fn fan_app(home: RegionId) -> WorkflowApp {
    let mut wf = Workflow::new("fan", "0.1");
    let constant = |value| DistSpec::Constant { value };
    let entry = wf
        .serverless_function("entry")
        .exec_time(constant(0.2))
        .register();
    let join = wf
        .serverless_function("join")
        .exec_time(constant(0.3))
        .register();
    for i in 0..10 {
        let stage = wf
            .serverless_function(format!("s{i}"))
            .exec_time(constant(0.1 + 0.05 * i as f64))
            .register();
        wf.invoke(entry, stage, None)
            .payload(constant(4_000.0 + 1_000.0 * i as f64));
        wf.invoke(stage, join, None).payload(constant(2_500.0));
    }
    wf.get_predecessor_data(join);
    wf.set_input(constant(20_000.0));
    let (dag, profile, _) = wf.extract().unwrap();
    WorkflowApp {
        name: "fan".into(),
        dag,
        profile,
        home,
    }
}

/// Every invocation's bill — cost, SNS publishes billed, inter-region
/// bytes — over a sweep the goldens and the loadgen and chaos pins do not
/// reach, captured before the usage meter changed representation: the
/// five Table 1 benchmarks at both input sizes (large ones go through the
/// blob store) on the home plan and a spread plan under every
/// orchestrator that supports the plan; an `aws,gcp` cloud where a
/// spread plan crosses providers and a twelve-node fan-out touches more
/// than eight regions in one invocation; and failover to home under
/// outages, a partition and message drops.
#[test]
fn every_bill_path_is_pinned() {
    const DIGEST: u64 = 0x748f_9ed6_3e55_eb9e;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut reach = Reach::default();
    let mut scratch = InvocationScratch::new();

    let mut world = World::evaluation(11);
    let (home, regions) = (world.home, world.regions.clone());
    for input in InputSize::ALL {
        for (b, bench) in all_benchmarks(input).iter().enumerate() {
            let app = workflow_app(bench, home);
            let n = app.dag.node_count();
            let (home_plan, spread_plan) = (DeploymentPlan::uniform(n, home), spread(n, &regions));
            let runs = [
                (Orchestrator::StepFunctions, &home_plan),
                (Orchestrator::Sns, &home_plan),
                (Orchestrator::Sns, &spread_plan),
                (Orchestrator::Caribou, &home_plan),
                (Orchestrator::Caribou, &spread_plan),
            ];
            for (k, (orchestrator, plan)) in runs.into_iter().enumerate() {
                let seed = 100 * b as u64 + k as u64;
                let carbon = &world.carbon;
                fold_bills(
                    &mut h,
                    &mut reach,
                    &mut world.cloud,
                    carbon,
                    orchestrator,
                    &app,
                    plan,
                    seed,
                    &mut scratch,
                );
            }
        }
    }

    let aws_gcp = ProviderSet::parse("aws,gcp").unwrap();
    let large_blobs: u64 = regions.iter().map(|r| world.cloud.blob.ops(*r).puts).sum();
    assert!(large_blobs > 0, "no payload went through the blob store");

    let mut multi = World::new(aws_gcp, 12, CARBON_EPOCH).unwrap();
    let everywhere = multi.cloud.regions.all_ids();
    let fan = fan_app(multi.home);
    let mut apps: Vec<WorkflowApp> = all_benchmarks(InputSize::Large)
        .iter()
        .map(|bench| workflow_app(bench, multi.home))
        .collect();
    apps.push(fan);
    for (a, app) in apps.iter().enumerate() {
        let n = app.dag.node_count();
        let wide = DeploymentPlan::new(
            (0..n)
                .map(|i| everywhere[(i + 2) % everywhere.len()])
                .collect(),
        );
        for (k, plan) in [
            DeploymentPlan::uniform(n, multi.home),
            spread(n, &multi.regions),
            wide,
        ]
        .iter()
        .enumerate()
        {
            let carbon = &multi.carbon;
            let seed = 7_000 + 10 * a as u64 + k as u64;
            fold_bills(
                &mut h,
                &mut reach,
                &mut multi.cloud,
                carbon,
                Orchestrator::Caribou,
                app,
                plan,
                seed,
                &mut scratch,
            );
        }
    }

    assert!(
        reach.regions > 8,
        "one invocation ran in {} regions",
        reach.regions
    );
    assert!(reach.cross_provider > 0, "no payload crossed providers");

    let mut faulty = World::evaluation(13);
    let (home, regions) = (faulty.home, faulty.regions.clone());
    let mut faults = FaultPlan::none()
        .with_outage(regions[1], 0.0, 4_000.0)
        .with_outage(regions[2], 3_000.0, 9_000.0)
        .with_partition(home, regions[3], 5_000.0, 12_000.0);
    faults.message_drop_prob = 0.08;
    faulty.cloud.set_faults(faults);
    for (b, bench) in all_benchmarks(InputSize::Small).iter().enumerate() {
        let app = workflow_app(bench, home);
        let n = app.dag.node_count();
        for (k, orchestrator) in [Orchestrator::Sns, Orchestrator::Caribou]
            .into_iter()
            .enumerate()
        {
            let carbon = &faulty.carbon;
            let seed = 9_000 + 10 * b as u64 + k as u64;
            let plan = spread(n, &regions);
            fold_bills(
                &mut h,
                &mut reach,
                &mut faulty.cloud,
                carbon,
                orchestrator,
                &app,
                &plan,
                seed,
                &mut scratch,
            );
        }
    }
    assert!(
        reach.failovers > 0 && reach.failed > 0,
        "failovers {}, failed {}",
        reach.failovers,
        reach.failed
    );
    assert_eq!(h, DIGEST, "bill digest {h:#018x}");
}
