//! `adaptive_week`: `Caribou::{new, deploy, run_trace}` over a simulated
//! week with shifting on.
//!
//! The paper's whole loop: arrivals -> router -> engine -> metrics manager
//! -> token check -> forecast fit -> solve -> migrate. It crosses the
//! metrics store's 5,000-log retention cap, as any real week does. This is
//! the throughput ROADMAP item 1 wants to become the headline.

use std::time::Instant;

use super::{Lap, PlaneCounts, Scale, Sim, Workload};
use crate::api::{
    self, Benchmark, CarbonDataSource, CarbonModel, Caribou, CaribouConfig, CheckMetrics,
    CostModel, DayAveragedSource, DeployedWorkflow, DeploymentManager, DeploymentManifest,
    DeploymentPlan, DeploymentUtility, EvalEngine, ExecutionEngine, ForecastingSource, HbssSolver,
    HourlyPlans, InputSize, InvocationScratch, ManagerConfig, MetricsManager, Migrator,
    Orchestrator, Pcg32, ProviderSet, RegionalSource, SeedSplitter, SolveDecision, SolverContext,
    TransmissionScenario, World,
};
use crate::layers::Layers;
use crate::span::Tracer;

pub const WORKLOAD: Workload = Workload {
    name: "adaptive_week",
    op: "invocation",
    lap,
    verify,
    traced,
};

/// Simulated days per full lap.
pub const DAYS: f64 = 7.0;
/// Mean invocations per simulated day (Azure-shaped diurnal trace).
pub const PER_DAY: f64 = 780.0;
/// A full lap replays the first `INVOCATIONS` arrivals of the week: 300
/// past the log store's 5,000-log cap. A `record` at the cap costs 2,000
/// times one below it, so letting the Poisson count (5,460 +- 75) decide
/// how many land there would move the lap by +-15% from seed to seed.
pub const INVOCATIONS: usize = 5_300;
const WARMUP_DAYS: f64 = 1.0;

fn bench() -> Benchmark {
    api::text2speech_censoring(InputSize::Small)
}

fn trace(seed: u64, days: f64) -> Vec<f64> {
    let mut rng = SeedSplitter::new(seed).absorb(0x7ACE).rng();
    let mut trace = api::azure_trace(0.0, days * 86_400.0, PER_DAY, &mut rng);
    trace.truncate(INVOCATIONS);
    trace
}

fn manifest(bench: &Benchmark) -> DeploymentManifest {
    DeploymentManifest::new(bench.dag.name(), "1.0", api::HOME)
}

fn days_of(scale: Scale) -> f64 {
    match scale {
        Scale::Full => DAYS,
        Scale::Warmup => WARMUP_DAYS,
    }
}

fn lap(seed: u64, scale: Scale) -> Lap {
    let t = Instant::now();
    let bench = bench();
    let world = api::world(ProviderSet::aws_only(), seed);
    let home = world.home;
    let mut config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    config.workers = 1;
    config.seed = seed;
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);
    let idx = caribou
        .deploy(
            api::workflow_app(&bench, home),
            &manifest(&bench),
            api::cli_constraints(&bench),
        )
        .expect("the benchmark deploys to its home region");
    let trace = trace(seed, days_of(scale));
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = caribou.run_trace(idx, &trace);
    let wall_s = t.elapsed().as_secs_f64();

    let n = trace.len() as u64;
    let completed = (report.completion_rate() * n as f64).round() as u64;
    let total_carbon_g = report.total_carbon_g();
    Lap {
        setup_s,
        segments_s: vec![wall_s],
        ops: n,
        failed: n - completed,
        sim: Sim {
            latency_mean_s: report.mean_latency_s(),
            // p95 is the highest percentile `RunReport` exposes without
            // reading `samples`; a lap leaves 265 invocations beyond it.
            latency_tail_s: report.p95_latency_s(),
            tail: "p95",
            samples: n,
            extras: vec![
                ("carbon_g_total", total_carbon_g),
                ("carbon_g_per_op", total_carbon_g / completed.max(1) as f64),
                (
                    "cost_usd_per_kop",
                    report.total_cost_usd() / completed.max(1) as f64 * 1000.0,
                ),
                ("framework_carbon_g", report.framework_carbon_g),
                ("plan_generations", report.dp_generations.len() as f64),
                ("migration_egress_bytes", report.migration_egress_bytes),
                (
                    "active_regions",
                    caribou.workflow(idx).active_regions.len() as f64,
                ),
                ("fallback_share", report.fallback_rate()),
            ],
        },
    }
}

/// Carbon of the same trace replayed on the home plan alone, through
/// `invoke_with_scratch`: what the week would have emitted unshifted.
fn home_replay_carbon_g(seed: u64, days: f64) -> f64 {
    let bench = bench();
    let mut world = api::world(ProviderSet::aws_only(), seed);
    let app = api::workflow_app(&bench, world.home);
    let plan = DeploymentPlan::uniform(app.dag.node_count(), world.home);
    let engine = ExecutionEngine {
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut world.cloud, &app, &plan);
    let mut master = Pcg32::seed_stream(seed, 0xca51b0);
    let mut scratch = InvocationScratch::new();
    let mut carbon_g = 0.0;
    for (i, &at_s) in trace(seed, days).iter().enumerate() {
        let id = i as u64 + 1;
        let mut rng = master.fork(id);
        let o = engine.invoke_with_scratch(
            &mut world.cloud,
            &app,
            &plan,
            id,
            at_s,
            &mut rng,
            &mut scratch,
        );
        carbon_g += o.carbon_g();
    }
    carbon_g
}

/// Carbon saved against the all-home replay, percent, framework
/// overhead included.
fn carbon_saving_pct(seed: u64, lap: &Lap) -> f64 {
    let home_g = home_replay_carbon_g(seed, DAYS);
    (1.0 - lap.sim.extra("carbon_g_total") / home_g) * 100.0
}

fn verify(seed: u64, lap: &Lap) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("adaptive_week: {what}"));
        }
    };
    let sim = &lap.sim;
    require(
        lap.failed == 0,
        format!("{} of {} invocations did not complete", lap.failed, lap.ops),
    );
    require(
        sim.extra("plan_generations") >= 1.0,
        "no plan generation: the solver never ran".into(),
    );
    require(
        sim.extra("migration_egress_bytes") > 0.0,
        "no migration egress: nothing was rolled out".into(),
    );
    require(
        sim.extra("active_regions") > 1.0,
        "the workflow is active in its home region only".into(),
    );
    let saving = carbon_saving_pct(seed, lap);
    require(
        saving > 0.0,
        format!("carbon saving against the all-home replay is {saving:.3}%: shifting is off"),
    );
    failures
}

/// Control-plane state of the re-enacted framework loop.
struct Plane {
    wf: DeployedWorkflow,
    metrics: MetricsManager,
    manager: DeploymentManager,
    last_check_s: f64,
    /// Hits and misses of the tick solves' estimate caches.
    cache_hits: u64,
    cache_misses: u64,
}

/// The benchmark's own route -> invoke -> record loop with a re-enacted
/// Deployment Manager tick (refreshed profile -> token check -> learned
/// models -> forecast fit -> hourly solve -> rollout), a span around each
/// public call. It follows `Caribou::run_trace` step for step but is not
/// bit-identical to it; end-to-end numbers never come from here.
fn traced(seed: u64, layers: &mut Layers) {
    let reference = lap(seed, Scale::Full);
    layers.set(
        "sim.carbon_g_per_op",
        reference.sim.extra("carbon_g_per_op"),
    );
    layers.set(
        "sim.cost_usd_per_kop",
        reference.sim.extra("cost_usd_per_kop"),
    );
    layers.set("sim.carbon_saving_pct", carbon_saving_pct(seed, &reference));
    layers.set(
        "sim.ok_share",
        (reference.ops - reference.failed) as f64 / reference.ops as f64,
    );
    layers.set(
        "sim.plan_generations",
        reference.sim.extra("plan_generations"),
    );

    let bench = bench();
    let mut world = api::world(ProviderSet::aws_only(), seed);
    let wf = DeploymentUtility::deploy_initial(
        &mut world.cloud,
        api::workflow_app(&bench, world.home),
        &manifest(&bench),
    )
    .expect("the benchmark deploys to its home region");
    let first_check = world.cloud.clock.now();
    let mut plane = Plane {
        wf,
        metrics: MetricsManager::new(),
        manager: DeploymentManager::new(first_check, ManagerConfig::default()),
        last_check_s: first_check,
        cache_hits: 0,
        cache_misses: 0,
    };
    let trace = trace(seed, DAYS);
    let mut master = Pcg32::seed_stream(seed, 0xca51b0);
    let mut scratch = InvocationScratch::new();
    let (mut fell_back, mut rerouted) = (0u64, 0u64);
    let mut counts = PlaneCounts::default();
    counts.open(&world.cloud);

    let tracer = &mut layers.tracer;
    let t = Instant::now();
    for (i, &at_s) in trace.iter().enumerate() {
        let id = i as u64 + 1;
        tracer.set_op(i as u64);
        tracer.enter("op");
        while plane.manager.next_check_s() <= at_s {
            let check_at = plane.manager.next_check_s().max(plane.last_check_s);
            tick(
                seed,
                &bench,
                &mut world,
                &mut plane,
                &mut master,
                check_at,
                tracer,
            );
        }
        if at_s > world.cloud.clock.now() {
            world.cloud.clock.advance_to(at_s);
        }
        tracer.enter("exec.router.route");
        let decision = plane.wf.router.route(at_s);
        tracer.exit();
        let engine = ExecutionEngine {
            carbon_source: &world.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        let mut rng = master.fork(id);
        tracer.enter("exec.engine.invoke");
        let mut o = engine.invoke_with_scratch(
            &mut world.cloud,
            &plane.wf.app,
            &decision.plan,
            id,
            at_s,
            &mut rng,
            &mut scratch,
        );
        tracer.exit();
        o.log.benchmark_traffic = decision.benchmark_traffic;
        rerouted += u64::from(decision.breaker_rerouted);
        fell_back += u64::from(o.fell_back_home());
        counts.outcome(&o);
        tracer.enter("metrics.manager.record");
        plane.metrics.record(o.log);
        tracer.exit();
        tracer.enter("exec.router.record_outcome");
        plane
            .wf
            .router
            .record_outcome(&decision.plan, o.failed_region, at_s);
        tracer.exit();
        tracer.exit();
    }
    let traced_s = t.elapsed().as_secs_f64();

    counts.close(&world.cloud);
    counts.report(layers);
    let n = trace.len() as f64;
    layers.set("exec.engine.fallback_share", fell_back as f64 / n);
    layers.set("exec.router.reroute_share", rerouted as f64 / n);
    let evals = plane.cache_hits + plane.cache_misses;
    layers.set(
        "solver.cache.hit_share",
        plane.cache_hits as f64 / evals.max(1) as f64,
    );
    let tick_ns = layers.tracer.total("core.tick").total_ns;
    layers.set("core.tick.share", tick_ns as f64 / (traced_s * 1e9));
    layers.close_trace(
        "budget.adaptive.coverage",
        &[
            "core.tick",
            "exec.router.route",
            "exec.engine.invoke",
            "metrics.manager.record",
            "exec.router.record_outcome",
        ],
        reference.wall_s(),
        traced_s,
        trace.len() as u64,
    );
}

/// One Deployment Manager tick, assembled from public calls the way
/// `Caribou::run_trace` (and `caribou plan`) assemble theirs.
fn tick(
    seed: u64,
    bench: &Benchmark,
    world: &mut World,
    plane: &mut Plane,
    master: &mut Pcg32,
    now_s: f64,
    tracer: &mut Tracer,
) {
    tracer.enter("core.tick");
    tracer.enter("core.migrator.retry_pending");
    // A failed retry keeps the plan pending; the next tick tries again.
    let _ = Migrator::retry_pending(&mut world.cloud, &mut plane.wf, now_s);
    tracer.exit();

    let home = world.home;
    let now_h = now_s / 3600.0;
    let carbon: &RegionalSource = &world.carbon;
    tracer.enter("metrics.manager.refreshed_profile");
    let profile = plane
        .metrics
        .refreshed_profile(&plane.wf.app.dag, &plane.wf.app.profile);
    tracer.exit();
    let dag = &plane.wf.app.dag;
    let expected_exec_s = profile.expected_total_exec_seconds(dag);
    let energy_per_inv: f64 = profile
        .nodes
        .iter()
        .zip(profile.node_invocation_probabilities(dag))
        .map(|(n, p)| {
            p * api::expected_energy_kwh(n.memory_mb, n.exec_time.mean(), n.cpu_utilization)
        })
        .sum();
    let home_avg = carbon.average(home, now_h - 24.0, now_h);
    let cleanest = world
        .regions
        .iter()
        .map(|r| carbon.average(*r, now_h - 24.0, now_h))
        .fold(f64::INFINITY, f64::min);
    let check = CheckMetrics {
        invocations: plane.metrics.invocations_between(plane.last_check_s, now_s),
        mean_exec_s: plane.metrics.mean_total_exec_s().unwrap_or(expected_exec_s),
        energy_per_s_kwh: if expected_exec_s > 0.0 {
            energy_per_inv / expected_exec_s
        } else {
            0.0
        },
        intensity_differential: (home_avg - cleanest).max(0.0),
        framework_intensity: carbon.intensity(home, now_h),
        complexity: dag.complexity(),
        window_s: (now_s - plane.last_check_s).max(1.0),
    };
    tracer.enter("core.manager.check");
    let decision = plane.manager.check(now_s, check);
    tracer.exit();
    plane.last_check_s = now_s;
    if decision == SolveDecision::Skip {
        tracer.exit();
        return;
    }

    let constraints = api::cli_constraints(bench);
    let permitted = constraints
        .permitted_regions(dag, &world.regions, &world.cloud.regions, home)
        .expect("the benchmark's constraints are valid");
    let runtime = world.cloud.compute.clone();
    let latency = world.cloud.latency.clone();
    tracer.enter("metrics.manager.learned_models");
    let models =
        plane
            .metrics
            .learned_models(&profile, &runtime, &latency, Orchestrator::Caribou, home);
    tracer.exit();
    tracer.enter("carbon.forecast.fit");
    let forecast = ForecastingSource::fit(carbon, &world.regions, now_h, 48);
    tracer.exit();
    let solver = HbssSolver::new();
    let engine_seed = SeedSplitter::new(seed)
        .absorb(0x501e)
        .absorb(now_s.to_bits())
        .seed();
    let engine = EvalEngine::new(engine_seed, 1);
    let mut srng = master.fork(0x501e ^ now_s as u64);
    let expires = now_s + 2.0 * 86_400.0;
    let plans = match decision {
        SolveDecision::Hourly => {
            let ctx = SolverContext {
                dag,
                profile: &profile,
                permitted: &permitted,
                home,
                objective: constraints.objective,
                tolerances: constraints.tolerances,
                carbon_source: &forecast,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                cost_model: CostModel::new(&world.cloud.pricing),
                models: &models,
                mc_config: api::framework_mc(),
            };
            tracer.enter("solver.solve_hourly_with");
            let solved =
                api::solve_hourly_with(&engine, &solver, &ctx, now_h, now_s, expires, &mut srng);
            tracer.exit();
            // Step `s` was solved for absolute hour `now_h + s`; the
            // router looks plans up by hour of day.
            let mut by_hour_of_day: Vec<DeploymentPlan> = solved.iter().cloned().collect();
            for step in 0..24 {
                by_hour_of_day[(now_h as usize + step) % 24] = solved.plan_for_hour(step).clone();
            }
            HourlyPlans::hourly(by_hour_of_day, now_s, expires)
        }
        SolveDecision::Daily => {
            let averaged = DayAveragedSource::new(&forecast, now_h);
            let ctx = SolverContext {
                dag,
                profile: &profile,
                permitted: &permitted,
                home,
                objective: constraints.objective,
                tolerances: constraints.tolerances,
                carbon_source: &averaged,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                cost_model: CostModel::new(&world.cloud.pricing),
                models: &models,
                mc_config: api::framework_mc(),
            };
            tracer.enter("solver.solve_with");
            let outcome = solver.solve_with(&engine, &ctx, now_h + 12.0, &mut srng);
            tracer.exit();
            HourlyPlans::daily(outcome.best, now_s, expires)
        }
        SolveDecision::Skip => unreachable!("skips returned above"),
    };
    plane.cache_hits += engine.hit_count();
    plane.cache_misses += engine.miss_count();

    let plans_changed = plane.wf.router.active_plans().is_none_or(|prev| {
        (0..24)
            .filter(|h| prev.plan_for_hour(*h) != plans.plan_for_hour(*h))
            .count()
            > 4
    });
    let interval = plane.manager.note_solve_outcome(now_s, plans_changed);
    let mut plans = plans;
    plans.expires_at =
        (now_s + interval + 7200.0).min(now_s + (interval + 7200.0).max(2.0 * 86_400.0));
    tracer.enter("core.migrator.rollout");
    // A failed rollout leaves the plan pending and traffic at home.
    let _ = Migrator::rollout(&mut world.cloud, &mut plane.wf, plans, now_s);
    tracer.exit();
    tracer.exit();
}
