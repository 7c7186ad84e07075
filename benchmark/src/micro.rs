//! Isolated-call timings of single layers: one public function called in
//! a tight loop on state prepared beforehand. They are what a per-layer
//! change should move first, and the unit costs the budgets multiply by
//! exact per-invocation counts. Every traced run takes them, on the
//! text-to-speech benchmark, whatever the workload.

use std::hint::black_box;
use std::time::Instant;

use crate::alloc_count;
use crate::api::{
    self, ArrivalGen, ArrivalProcess, Bytes, CarbonDataSource, CarbonModel, CheckMetrics,
    CostModel, DefaultModels, DeploymentManager, DeploymentManifest, DeploymentPlan,
    DeploymentUtility, DistSpec, EvalEngine, ExecutionEngine, ForecastingSource, HourlyPlans, IStr,
    InputSize, InvocationLog, InvocationRouter, InvocationScratch, ManagerConfig, MetricsManager,
    Migrator, MonteCarloConfig, MonteCarloEstimator, NodeId, Objective, Orchestrator, Pcg32,
    ProviderSet, QuantileSketch, RegionId, SolverContext, TopicKey, TransmissionScenario,
    UsageMeter, WarmPool,
};
use crate::layers::Layers;
use crate::stats;

/// Timed batches per measurement; the median batch is reported.
const BATCHES: usize = 9;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches.
fn ns_per_call(calls_per_batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls_per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls_per_batch as f64
        })
        .collect();
    stats::median(&per_call)
}

/// Takes every isolated-call measurement into `layers`.
pub fn run(seed: u64, layers: &mut Layers) {
    layers.set("host.nproc", api::nproc() as f64);
    draws(seed, layers);
    simcloud(seed, layers);
    exec(seed, layers);
    metrics_store(seed, layers);
    estimator_and_cache(seed, layers);
    control_plane(seed, layers);
    sketch(seed, layers);
}

fn draws(seed: u64, layers: &mut Layers) {
    let mut arrivals = ArrivalGen::new(
        ArrivalProcess::Poisson { rate_per_s: 100.0 },
        Pcg32::seed(seed),
    );
    layers.set(
        "workloads.arrivals.ns_per_draw",
        ns_per_call(50_000, || {
            black_box(arrivals.next_arrival());
        }),
    );
    let mut rng = Pcg32::seed(seed);
    layers.set(
        "model.rng.normal_ns",
        ns_per_call(50_000, || {
            black_box(rng.normal(0.0, 1.0));
        }),
    );
    let dist = DistSpec::LogNormal {
        median: 1.0,
        sigma: 0.1,
    };
    layers.set(
        "model.dist.sample_ns",
        ns_per_call(50_000, || {
            black_box(black_box(&dist).sample(&mut rng));
        }),
    );

    let world = api::world(ProviderSet::aws_only(), seed);
    let mut hour = 0.0;
    layers.set(
        "carbon.source.intensity_ns",
        ns_per_call(50_000, || {
            hour += 0.37;
            black_box(world.carbon.intensity(world.home, hour));
        }),
    );
    layers.set(
        "carbon.forecast.fit_ms",
        ns_per_call(1, || {
            black_box(ForecastingSource::fit(
                &world.carbon,
                &world.regions,
                24.0,
                48,
            ));
        }) / 1e6,
    );
}

fn simcloud(seed: u64, layers: &mut Layers) {
    let mut world = api::world(ProviderSet::aws_only(), seed);
    let home = world.home;
    let cloud = &mut world.cloud;
    let mut rng = Pcg32::seed(seed);

    let topic = TopicKey {
        workflow: "micro".into(),
        stage: "stage".into(),
        region: home,
    };
    cloud.pubsub.create_topic(topic.clone());
    layers.set(
        "simcloud.pubsub.publish_ns",
        ns_per_call(20_000, || {
            black_box(
                cloud
                    .pubsub
                    .publish(&topic, home, 1024.0, &cloud.latency, &mut rng),
            );
        }),
    );

    cloud.kv.create_table("micro", home);
    layers.set(
        "simcloud.kv.atomic_update_ns",
        ns_per_call(20_000, || {
            black_box(cloud.kv.atomic_update(
                "micro",
                "annotation",
                home,
                &cloud.latency,
                &mut rng,
                |_| Bytes::from("01"),
            ));
        }),
    );

    let mut warm = WarmPool::enabled(api::DEFAULT_KEEP_ALIVE_S);
    let workflow: IStr = "micro".into();
    let mut now = 0.0;
    layers.set(
        "simcloud.warm.check_and_touch_ns",
        ns_per_call(50_000, || {
            now += 0.01;
            black_box(warm.check_and_touch(&workflow, 0, home, now));
        }),
    );

    let exec_time = DistSpec::LogNormal {
        median: 1.0,
        sigma: 0.1,
    };
    layers.set(
        "simcloud.compute.execute_ns",
        ns_per_call(50_000, || {
            black_box(cloud.compute.execute(home, &exec_time, 1024, 0.7, &mut rng));
        }),
    );

    let mut meter = UsageMeter::new();
    layers.set(
        "simcloud.meter.record_ns",
        ns_per_call(50_000, || {
            black_box(&mut meter).record_lambda(home, 1.0, 1024);
        }),
    );
}

fn exec(seed: u64, layers: &mut Layers) {
    let bench = api::text2speech_censoring(InputSize::Small);
    let mut world = api::world(ProviderSet::aws_only(), seed);
    let home = world.home;
    let app = api::workflow_app(&bench, home);
    let nodes = app.dag.node_count();
    let home_plan = DeploymentPlan::uniform(nodes, home);
    let ca = world
        .cloud
        .region("ca-central-1")
        .expect("catalog includes ca-central-1");
    let mut xregion = DeploymentPlan::uniform(nodes, ca);
    xregion.set(NodeId(0), home);
    let engine = ExecutionEngine {
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut world.cloud, &app, &home_plan);
    engine.provision(&mut world.cloud, &app, &xregion);
    let mut scratch = InvocationScratch::new();
    let mut id = 0u64;
    let mut invoke = |plan: &DeploymentPlan| {
        id += 1;
        let mut rng = Pcg32::seed_stream(seed, id);
        black_box(engine.invoke_with_scratch(
            &mut world.cloud,
            &app,
            plan,
            id,
            id as f64 * 0.01,
            &mut rng,
            &mut scratch,
        ));
    };
    // Warm the scratch and the cloud's maps before counting allocations.
    for _ in 0..200 {
        invoke(&home_plan);
    }
    const CALLS: usize = 1_000;
    let allocs0 = alloc_count::allocations();
    layers.set(
        "exec.engine.invoke_ns",
        ns_per_call(CALLS, || invoke(&home_plan)),
    );
    if let (Some(a0), Some(a1)) = (allocs0, alloc_count::allocations()) {
        layers.set(
            "exec.engine.allocs_per_inv",
            (a1 - a0) as f64 / (BATCHES * CALLS) as f64,
        );
    }
    layers.set(
        "exec.engine.invoke_xregion_ns",
        ns_per_call(CALLS, || invoke(&xregion)),
    );

    let mut router = InvocationRouter::new(home, nodes);
    router.activate(HourlyPlans::daily(xregion.clone(), 0.0, 1e12));
    let mut at_s = 0.0;
    layers.set(
        "exec.router.route_ns",
        ns_per_call(50_000, || {
            at_s += 0.01;
            black_box(router.route(at_s));
        }),
    );
    layers.set(
        "exec.router.record_outcome_ns",
        ns_per_call(50_000, || {
            at_s += 0.01;
            router.record_outcome(black_box(&xregion), None, at_s);
        }),
    );
    // Three failures open ca-central-1's breaker; within its cool-down
    // every route substitutes home for the region's nodes.
    for _ in 0..3 {
        router.record_failure(ca, at_s);
    }
    let opened_at = at_s;
    let mut rerouted = 0u64;
    let mut routed = 0u64;
    layers.set(
        "exec.router.route_failover_ns",
        ns_per_call(10_000, || {
            at_s += 1e-4;
            let d = router.route(at_s);
            rerouted += u64::from(d.breaker_rerouted);
            routed += 1;
            black_box(d);
        }),
    );
    assert!(
        at_s - opened_at < 300.0 && rerouted * 10 >= routed * 8,
        "the failover timing must run with the breaker open"
    );
}

/// Invocation logs of real home-plan invocations, `spacing_s` apart.
fn sample_logs(seed: u64, n: usize, spacing_s: f64) -> Vec<InvocationLog> {
    let bench = api::text2speech_censoring(InputSize::Small);
    let mut world = api::world(ProviderSet::aws_only(), seed);
    let app = api::workflow_app(&bench, world.home);
    let plan = DeploymentPlan::uniform(app.dag.node_count(), world.home);
    let engine = ExecutionEngine {
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut world.cloud, &app, &plan);
    let mut scratch = InvocationScratch::new();
    (0..n as u64)
        .map(|i| {
            let mut rng = Pcg32::seed_stream(seed, i);
            engine
                .invoke_with_scratch(
                    &mut world.cloud,
                    &app,
                    &plan,
                    i,
                    i as f64 * spacing_s,
                    &mut rng,
                    &mut scratch,
                )
                .log
        })
        .collect()
}

fn metrics_store(seed: u64, layers: &mut Layers) {
    const CAP: usize = 5_000;
    const BELOW: usize = 1_000;
    const TIMED: usize = 200;
    let logs = sample_logs(seed, CAP + BATCHES * TIMED, 10.0);

    fn filled(logs: &[InvocationLog]) -> MetricsManager {
        let mut manager = MetricsManager::new();
        for log in logs {
            manager.record(log.clone());
        }
        manager
    }
    /// Nanoseconds per `record` of `batch` (cloned before the clock starts).
    fn record_ns(manager: &mut MetricsManager, batch: &[InvocationLog]) -> f64 {
        let batch = batch.to_vec();
        let t = Instant::now();
        for log in batch {
            manager.record(log);
        }
        t.elapsed().as_nanos() as f64 / TIMED as f64
    }
    let batches = || (0..BATCHES).map(|b| &logs[CAP + b * TIMED..][..TIMED]);

    // Below the cap: every batch lands on a store refilled to 1,000 logs.
    let below: Vec<f64> = batches()
        .map(|batch| record_ns(&mut filled(&logs[CAP - BELOW..CAP]), batch))
        .collect();
    layers.set(
        "metrics.logstore.record_ns_below_cap",
        stats::median(&below),
    );
    // At the cap: each record evicts, so the store stays full throughout.
    let mut full = filled(&logs[..CAP]);
    let at_cap: Vec<f64> = batches().map(|batch| record_ns(&mut full, batch)).collect();
    layers.set("metrics.logstore.record_ns_at_cap", stats::median(&at_cap));

    let bench = api::text2speech_censoring(InputSize::Small);
    let world = api::world(ProviderSet::aws_only(), seed);
    layers.set(
        "metrics.manager.refresh_ms",
        ns_per_call(1, || {
            let profile = full.refreshed_profile(&bench.dag, &bench.profile);
            black_box(full.learned_models(
                &profile,
                &world.cloud.compute,
                &world.cloud.latency,
                Orchestrator::Caribou,
                world.home,
            ));
        }) / 1e6,
    );
}

fn estimator_and_cache(seed: u64, layers: &mut Layers) {
    let bench = api::text2speech_censoring(InputSize::Small);
    let world = api::world(ProviderSet::aws_only(), seed);
    let home = world.home;
    let nodes = bench.dag.node_count();
    let constraints = api::cli_constraints(&bench);
    let permitted = constraints
        .permitted_regions(&bench.dag, &world.regions, &world.cloud.regions, home)
        .expect("benchmark constraints are valid");
    let models = DefaultModels {
        profile: &bench.profile,
        runtime: &world.cloud.compute,
        latency: &world.cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx_with = |mc_config: MonteCarloConfig| SolverContext {
        dag: &bench.dag,
        profile: &bench.profile,
        permitted: &permitted,
        home,
        objective: Objective::Carbon,
        tolerances: constraints.tolerances,
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&world.cloud.pricing),
        models: &models,
        mc_config,
    };
    // A plan that spreads nodes over the universe: transfers included.
    let spread = DeploymentPlan::new(
        (0..nodes)
            .map(|i| world.regions[i % world.regions.len()])
            .collect(),
    );

    // The estimator alone, at the framework's default stopping rule.
    let estimator = MonteCarloEstimator {
        dag: &bench.dag,
        profile: &bench.profile,
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&world.cloud.pricing),
        models: &models,
        home,
        config: api::framework_mc(),
    };
    let mut rng = Pcg32::seed(seed);
    let (mut samples, mut estimates) = (0u64, 0u64);
    let estimate_ns = ns_per_call(20, || {
        let e = estimator.estimate(&spread, 12.5, &mut rng);
        samples += e.samples as u64;
        estimates += 1;
        black_box(e);
    });
    let samples_per_estimate = samples as f64 / estimates as f64;
    layers.set(
        "metrics.montecarlo.samples_per_estimate",
        samples_per_estimate,
    );
    layers.set(
        "metrics.montecarlo.ns_per_sample",
        estimate_ns / samples_per_estimate,
    );
    layers.set("metrics.montecarlo.estimates_per_s", 1e9 / estimate_ns);

    // Cache paths, with a one-sample rule so the estimate inside a miss
    // is as small as it gets.
    let tiny = ctx_with(MonteCarloConfig {
        batch: 1,
        max_samples: 1,
        cv_threshold: 1.0,
    });
    let engine = EvalEngine::new(seed, 1);
    engine.evaluate(&tiny, &spread, 0.5);
    layers.set(
        "solver.cache.probe_hit_ns",
        ns_per_call(20_000, || {
            black_box(engine.evaluate(&tiny, black_box(&spread), 0.5));
        }),
    );
    // A miss is key build + probe + estimate + insert; the same estimate
    // run directly is the part that is not the cache's.
    let mut hour = 1.0;
    let miss_ns = ns_per_call(2_000, || {
        hour += 1.0;
        black_box(engine.evaluate(&tiny, &spread, hour));
    });
    let mut scratch = Default::default();
    let mut hour = 1.0;
    let direct_ns = ns_per_call(2_000, || {
        hour += 1.0;
        let mut rng = engine.eval_rng(&spread, hour);
        black_box(tiny.evaluate_with_scratch(&spread, hour, &mut rng, &mut scratch));
    });
    layers.set("solver.cache.insert_ns", (miss_ns - direct_ns).max(0.0));

    // The engine's cache now holds ~18k entries, one per hour touched;
    // invalidating an hour scans them all.
    let mut h = 1.0;
    layers.set(
        "solver.cache.invalidate_ms",
        ns_per_call(20, || {
            h += 1.0;
            black_box(engine.cache().invalidate_hour(h, &[home]));
        }) / 1e6,
    );
}

fn control_plane(seed: u64, layers: &mut Layers) {
    let mut manager = DeploymentManager::new(0.0, ManagerConfig::default());
    let mut now_s = 0.0;
    layers.set(
        "core.manager.check_ns",
        ns_per_call(20_000, || {
            now_s += 3_600.0;
            black_box(manager.check(
                now_s,
                CheckMetrics {
                    invocations: 40,
                    mean_exec_s: 12.0,
                    energy_per_s_kwh: 1e-6,
                    intensity_differential: 300.0,
                    framework_intensity: 380.0,
                    complexity: 11,
                    window_s: 3_600.0,
                },
            ));
        }),
    );

    let bench = api::text2speech_censoring(InputSize::Small);
    let rollouts: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut world = api::world(ProviderSet::aws_only(), seed);
            let app = api::workflow_app(&bench, world.home);
            let nodes = app.dag.node_count();
            let manifest = DeploymentManifest::new(bench.dag.name(), "1.0", api::HOME);
            let mut wf = DeploymentUtility::deploy_initial(&mut world.cloud, app, &manifest)
                .expect("the benchmark deploys to its home region");
            let ca: RegionId = world
                .cloud
                .region("ca-central-1")
                .expect("catalog includes ca-central-1");
            let plans = HourlyPlans::daily(DeploymentPlan::uniform(nodes, ca), 0.0, 1e12);
            let now = world.cloud.clock.now();
            let t = Instant::now();
            let report = Migrator::rollout(&mut world.cloud, &mut wf, plans, now);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.is_ok_and(|r| r.activated),
                "rollout on a healthy cloud"
            );
            ms
        })
        .collect();
    layers.set("core.migrator.rollout_ms", stats::median(&rollouts));
}

fn sketch(seed: u64, layers: &mut Layers) {
    let mut rng = Pcg32::seed(seed);
    let values: Vec<f64> = (0..4096).map(|_| rng.lognormal(2.5, 0.2)).collect();
    let mut sketch = QuantileSketch::new();
    let mut i = 0;
    layers.set(
        "telemetry.sketch.observe_ns",
        ns_per_call(100_000, || {
            i = (i + 1) % values.len();
            sketch.observe(values[i]);
        }),
    );
    let mut total = QuantileSketch::new();
    layers.set(
        "telemetry.sketch.merge_ns",
        ns_per_call(10_000, || {
            total.merge(black_box(&sketch));
        }),
    );
    black_box(total.count());
}
