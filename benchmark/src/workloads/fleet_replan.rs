//! `fleet_replan`: a fleet solved cold, then re-planned hour by hour.
//!
//! `generate_fleet` x 24 h, `solve_fleet` on a cold shared
//! `EstimateCache`, then 24 successive single-hour single-region forecast
//! revisions through `replan_incremental`. The same solver layer as
//! `plan_cold` used the other way: a tiny stopping rule (batch 40, max
//! 80), mostly cache hits, invalidations. Cache probe, insert and
//! invalidate and the HBSS walk dominate; the estimator does little. A
//! change that speeds cold estimates at the cost of probes (or the
//! reverse) moves the two workloads in opposite directions.

use std::sync::Arc;
use std::time::Instant;

use super::{Lap, Scale, Sim, Workload};
use crate::api::{
    self, CarbonModel, CostModel, DefaultModels, DependencyIndex, EstimateCache, FleetApp,
    FleetConfig, FleetEnv, FleetSchedule, MonteCarloEstimator, Orchestrator, PerturbOp,
    Perturbation, SeedSplitter, TransmissionScenario,
};
use crate::layers::Layers;

pub const WORKLOAD: Workload = Workload {
    name: "fleet_replan",
    op: "cell",
    lap,
    verify,
    traced,
};

/// Applications per full lap.
pub const APPS: usize = 200;
const WARMUP_APPS: usize = 24;
pub const HOURS: usize = 24;
/// Seed of the fleet's composition (which DAG shapes, homes and permitted
/// regions), the one `caribou fleet` defaults to. It is part of the
/// workload's definition, like the benchmark DAG of the other workloads:
/// `--seed` drives the forecast, the cloud and every solve stream. Drawn
/// per seed, 200 apps differ enough to move throughput and the latency
/// figures by 10% from one seed to the next.
pub const FLEET_SEED: u64 = 7;
/// Every `LATENCY_STRIDE`-th cell of the final schedule is re-estimated
/// for the latency figures (the fleet report carries carbon only).
const LATENCY_STRIDE: usize = 8;

fn config(seed: u64, apps: usize, workers: usize) -> FleetConfig {
    FleetConfig {
        apps,
        hours: HOURS,
        workers,
        seed,
        ..Default::default()
    }
}

/// Revision `h`: hour `h`, one region, intensity x1.5 or x0.67 in turn.
fn revision(env: &FleetEnv, h: usize) -> Perturbation {
    Perturbation {
        hour: h,
        region: Some(env.universe[h % env.universe.len()]),
        op: PerturbOp::Scale(if h.is_multiple_of(2) { 1.5 } else { 0.67 }),
    }
}

struct Solved {
    schedule: FleetSchedule,
    full_cells: u64,
    full_s: f64,
    replan_cells: u64,
    reused_cells: u64,
    /// Host seconds of each revision (forecast update and re-plan).
    replans_s: Vec<f64>,
    hits: u64,
    misses: u64,
}

/// The timed work: the full solve, then the 24 revisions.
fn solve_and_replan(apps: &[FleetApp], env: &mut FleetEnv, cfg: &FleetConfig) -> Solved {
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let t = Instant::now();
    let full = api::solve_fleet(apps, env, cfg, &cache);
    let full_s = t.elapsed().as_secs_f64();

    let mut schedule = full.schedule;
    let (mut replan_cells, mut reused_cells) = (0u64, 0u64);
    let mut replans_s = Vec::new();
    for h in 0..HOURS {
        let t = Instant::now();
        let revisions = [revision(env, h)];
        env.apply_perturbations(&revisions);
        let inc = api::replan_incremental(apps, env, cfg, &cache, &schedule, &revisions);
        replans_s.push(t.elapsed().as_secs_f64());
        replan_cells += inc.solved_cells as u64;
        reused_cells += inc.reused_cells as u64;
        schedule = inc.schedule;
    }
    Solved {
        schedule,
        full_cells: full.solved_cells as u64,
        full_s,
        replan_cells,
        reused_cells,
        replans_s,
        hits: cache.hit_count(),
        misses: cache.miss_count(),
    }
}

/// The planner's latency estimate of the chosen plans, on a stride of the
/// schedule: `(mean of means, mean of p95s, cells estimated)`.
fn estimate_latency(
    apps: &[FleetApp],
    env: &FleetEnv,
    cfg: &FleetConfig,
    schedule: &FleetSchedule,
) -> (f64, f64, u64) {
    let table = env.table();
    let (mut mean, mut p95, mut n) = (0.0, 0.0, 0u64);
    for (a, app) in apps.iter().enumerate() {
        let models = DefaultModels {
            profile: &app.profile,
            runtime: &env.cloud.compute,
            latency: &env.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let estimator = MonteCarloEstimator {
            dag: &app.dag,
            profile: &app.profile,
            carbon_source: &table,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            home: app.home,
            config: cfg.mc,
        };
        for h in (0..HOURS).filter(|h| (a * HOURS + h).is_multiple_of(LATENCY_STRIDE)) {
            let mut rng = SeedSplitter::new(cfg.seed)
                .absorb(0x1A7)
                .absorb(a as u64)
                .absorb(h as u64)
                .rng();
            let e = estimator.estimate(&schedule.cell(a, h).plan, h as f64 + 0.5, &mut rng);
            mean += e.latency.mean;
            p95 += e.latency.p95;
            n += 1;
        }
    }
    (mean / n as f64, p95 / n as f64, n)
}

fn apps_of(scale: Scale) -> usize {
    match scale {
        Scale::Full => APPS,
        Scale::Warmup => WARMUP_APPS,
    }
}

fn lap(seed: u64, scale: Scale) -> Lap {
    let n = apps_of(scale);
    let t = Instant::now();
    let mut env = FleetEnv::new(seed, HOURS);
    let apps = api::generate_fleet(FLEET_SEED, n, &env.universe);
    let cfg = config(seed, n, 1);
    let setup_s = t.elapsed().as_secs_f64();

    let solved = solve_and_replan(&apps, &mut env, &cfg);
    let (latency_mean_s, latency_tail_s, samples) =
        estimate_latency(&apps, &env, &cfg, &solved.schedule);
    let evals = solved.hits + solved.misses;
    let mut segments_s = vec![solved.full_s];
    segments_s.extend(&solved.replans_s);
    Lap {
        setup_s,
        segments_s,
        ops: solved.full_cells + solved.replan_cells,
        // Incremental-vs-scratch mismatches are found by `verify`.
        failed: 0,
        sim: Sim {
            latency_mean_s,
            latency_tail_s,
            tail: "mean over cells of estimator p95",
            samples,
            extras: vec![
                (
                    "carbon_g_per_op",
                    solved.schedule.total_carbon_mean() / n as f64,
                ),
                ("replan_cells", solved.replan_cells as f64),
                (
                    "reuse_share",
                    solved.reused_cells as f64
                        / (solved.reused_cells + solved.replan_cells).max(1) as f64,
                ),
                ("hit_share", solved.hits as f64 / evals.max(1) as f64),
                ("schedule_digest", (solved.schedule.digest() >> 12) as f64),
            ],
        },
    }
}

/// One from-scratch solve of the fully revised forecast, on a cold cache
/// and every thread the host has: the incremental result must equal it to
/// the bit, which checks incremental == scratch and 1 == nproc workers at
/// once.
fn verify(seed: u64, lap: &Lap) -> Vec<String> {
    let mut env = FleetEnv::new(seed, HOURS);
    let apps = api::generate_fleet(FLEET_SEED, APPS, &env.universe);
    for h in 0..HOURS {
        let revisions = [revision(&env, h)];
        env.apply_perturbations(&revisions);
    }
    let workers = api::nproc();
    let cfg = config(seed, APPS, workers);
    let cache: Arc<EstimateCache> = EstimateCache::shared(cfg.cache_capacity);
    let scratch = api::solve_fleet(&apps, &env, &cfg, &cache);
    let mut failures = Vec::new();
    if (scratch.schedule.digest() >> 12) as f64 != lap.sim.extra("schedule_digest") {
        failures.push(format!(
            "fleet_replan: incremental schedule (1 worker) differs from a from-scratch solve ({workers} workers)"
        ));
    }
    if lap.sim.extra("replan_cells") == 0.0 {
        failures.push("fleet_replan: no cell was re-solved; revisions had no effect".into());
    }
    failures
}

/// The same full solve and revisions, a span around each public call,
/// with the dependency-index walk timed on its own.
fn traced(seed: u64, layers: &mut Layers) {
    let mut env = FleetEnv::new(seed, HOURS);
    let apps = api::generate_fleet(FLEET_SEED, APPS, &env.universe);
    let cfg = config(seed, APPS, 1);
    let reference = solve_and_replan(&apps, &mut env, &cfg);
    let replan_s: f64 = reference.replans_s.iter().sum();
    let reference_s = reference.full_s + replan_s;
    let evals = reference.hits + reference.misses;
    layers.set(
        "sim.carbon_g_per_op",
        reference.schedule.total_carbon_mean() / APPS as f64,
    );
    layers.set("sim.ok_share", 1.0);
    layers.set(
        "solver.cache.hit_share",
        reference.hits as f64 / evals.max(1) as f64,
    );
    layers.set(
        "core.fleet.reuse_share",
        reference.reused_cells as f64
            / (reference.reused_cells + reference.replan_cells).max(1) as f64,
    );
    layers.set(
        "core.fleet.full_cells_per_s",
        reference.full_cells as f64 / reference.full_s,
    );
    layers.set(
        "core.fleet.replan_cells_per_s",
        reference.replan_cells as f64 / replan_s,
    );

    let mut env = FleetEnv::new(seed, HOURS);
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let tracer = &mut layers.tracer;
    let t = Instant::now();
    tracer.set_op(0);
    tracer.enter("core.fleet.solve_fleet");
    let full = api::solve_fleet(&apps, &env, &cfg, &cache);
    tracer.exit();
    let mut schedule = full.schedule;
    for h in 0..HOURS {
        tracer.set_op(h as u64 + 1);
        tracer.enter("op");
        let revisions = [revision(&env, h)];
        env.apply_perturbations(&revisions);
        // `replan_incremental` builds the index and walks it again
        // inside; this span only sizes that share of it.
        tracer.enter("core.fleet.dirty_cells");
        let dirty = DependencyIndex::build(&apps).dirty_cells(&env.universe, &revisions);
        tracer.exit();
        std::hint::black_box(dirty);
        tracer.enter("core.fleet.replan_incremental");
        let inc = api::replan_incremental(&apps, &env, &cfg, &cache, &schedule, &revisions);
        tracer.exit();
        schedule = inc.schedule;
        tracer.exit();
    }
    let traced_s = t.elapsed().as_secs_f64();
    let dirty = layers.tracer.total("core.fleet.dirty_cells");
    layers.set(
        "core.fleet.dirty_cells_ms",
        dirty.total_ns as f64 / dirty.count.max(1) as f64 / 1e6,
    );
    layers.close_trace(
        "budget.solve.coverage",
        &["core.fleet.solve_fleet", "core.fleet.replan_incremental"],
        reference_s,
        traced_s,
        HOURS as u64 + 1,
    );
}
