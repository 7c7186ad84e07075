//! `plan_cold`: 24-hour schedules from cold estimate caches.
//!
//! For each paper benchmark and provider set, `solve_hourly_with` over 24
//! hours on a fresh `EvalEngine` with the framework's default stopping
//! rule (batch 200, max 2000, cv 0.05). Miss-heavy: the Monte Carlo
//! estimator does most of the work and the data plane none.

use std::time::Instant;

use super::{Lap, Scale, Sim, Workload};
use crate::api::{
    self, Benchmark, CarbonModel, CostModel, DefaultModels, DeploymentPlan, EvalEngine,
    ForecastingSource, HbssSolver, HourlyPlans, InputSize, Objective, Orchestrator, Pcg32,
    RegionId, RegionalSource, SeedSplitter, SolverContext, TransmissionScenario, World,
};
use crate::layers::Layers;
use crate::stats;

pub const WORKLOAD: Workload = Workload {
    name: "plan_cold",
    op: "cell",
    lap,
    verify,
    traced,
};

/// First hour of the solved day, as `caribou plan` defaults to.
const DAY_START_H: f64 = 0.0;
const HOURS: usize = 24;
/// The benchmark that is also scheduled across providers.
const CROSS_PROVIDER_BENCH: &str = "Text2Speech Censoring";

/// One (benchmark, provider set) pair to schedule.
struct Case<'w> {
    bench: Benchmark,
    world: &'w World,
    forecast: &'w ForecastingSource<'w, RegionalSource>,
    permitted: Vec<Vec<RegionId>>,
    seed: u64,
}

impl Case<'_> {
    fn with_ctx<R>(
        &self,
        f: impl FnOnce(
            &SolverContext<'_, ForecastingSource<'_, RegionalSource>, DefaultModels<'_>>,
        ) -> R,
    ) -> R {
        let constraints = api::cli_constraints(&self.bench);
        let models = DefaultModels {
            profile: &self.bench.profile,
            runtime: &self.world.cloud.compute,
            latency: &self.world.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        f(&SolverContext {
            dag: &self.bench.dag,
            profile: &self.bench.profile,
            permitted: &self.permitted,
            home: self.world.home,
            objective: Objective::Carbon,
            tolerances: constraints.tolerances,
            carbon_source: self.forecast,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&self.world.cloud.pricing),
            models: &models,
            mc_config: api::framework_mc(),
        })
    }
}

fn worlds(seed: u64) -> Vec<World> {
    api::provider_sets()
        .into_iter()
        .map(|set| api::world(set, seed))
        .collect()
}

fn forecasts(worlds: &[World]) -> Vec<ForecastingSource<'_, RegionalSource>> {
    worlds
        .iter()
        .map(|w| ForecastingSource::fit(&w.carbon, &w.regions, DAY_START_H, 48))
        .collect()
}

/// Every paper benchmark on aws, and the text-to-speech benchmark (the
/// one the other workloads run) on aws+gcp as well: 144 cells. The four
/// other cross-provider schedules would double the lap for the same
/// layers. A warm-up lap takes the first two cases only.
fn cases<'w>(
    seed: u64,
    scale: Scale,
    worlds: &'w [World],
    forecasts: &'w [ForecastingSource<'w, RegionalSource>],
) -> Vec<Case<'w>> {
    let benches = api::all_benchmarks(InputSize::Small);
    let mut out = Vec::new();
    for (w, (world, forecast)) in worlds.iter().zip(forecasts).enumerate() {
        for (b, bench) in benches.iter().enumerate() {
            if w > 0 && bench.name != CROSS_PROVIDER_BENCH {
                continue;
            }
            let permitted = api::cli_constraints(bench)
                .permitted_regions(&bench.dag, &world.regions, &world.cloud.regions, world.home)
                .expect("benchmark constraints are valid");
            out.push(Case {
                bench: bench.clone(),
                world,
                forecast,
                permitted,
                seed: SeedSplitter::new(seed)
                    .absorb(0xC01D)
                    .absorb(w as u64)
                    .absorb(b as u64)
                    .seed(),
            });
        }
    }
    if scale == Scale::Warmup {
        out.truncate(2);
    }
    out
}

/// Per-cell readout of a solved schedule, through the engine's cache.
#[derive(Default)]
struct Readout {
    cells: u64,
    violating: u64,
    latency_mean: f64,
    latency_p95: f64,
    carbon: f64,
    home_carbon: f64,
    cost: f64,
    hits: u64,
    misses: u64,
    digest: u64,
}

impl Readout {
    fn absorb(&mut self, case: &Case<'_>, engine: &EvalEngine, plans: &HourlyPlans) {
        // Tallies first: the look-ups below are hits and must not count.
        self.hits += engine.hit_count();
        self.misses += engine.miss_count();
        case.with_ctx(|ctx| {
            let home_plan = ctx.home_plan();
            for h in 0..HOURS {
                let hour = DAY_START_H + h as f64 + 0.5;
                let plan = plans.plan_for_hour(h);
                let best = engine.evaluate(ctx, plan, hour);
                let home = engine.evaluate(ctx, &home_plan, hour);
                self.cells += 1;
                self.violating += u64::from(ctx.violates_tolerance(&best, &home));
                self.latency_mean += best.latency.mean;
                self.latency_p95 += best.latency.p95;
                self.carbon += best.carbon.mean;
                self.home_carbon += home.carbon.mean;
                self.cost += best.cost.mean;
                self.digest = digest_plan(self.digest, plan);
            }
        });
    }

    fn sim(&self) -> Sim {
        let n = self.cells as f64;
        Sim {
            // The planner's estimate of the schedule it chose, averaged
            // over cells: mean latency, and the estimator's own p95 (it
            // draws 200-2000 samples per estimate).
            latency_mean_s: self.latency_mean / n,
            latency_tail_s: self.latency_p95 / n,
            tail: "mean over cells of estimator p95",
            samples: self.cells,
            extras: vec![
                ("carbon_g_per_op", self.carbon / n),
                ("home_carbon_g_per_op", self.home_carbon / n),
                ("cost_usd_per_kop", self.cost / n * 1000.0),
                ("evals_per_cell", (self.hits + self.misses) as f64 / n),
                (
                    "hit_share",
                    self.hits as f64 / (self.hits + self.misses).max(1) as f64,
                ),
                // 52 bits of the digest survive the trip through f64.
                ("schedule_digest", (self.digest >> 12) as f64),
            ],
        }
    }
}

fn digest_plan(mut d: u64, plan: &DeploymentPlan) -> u64 {
    for r in plan.assignment() {
        d = (d ^ r.index() as u64)
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(17);
    }
    d
}

/// Solves every case on a cold engine; returns the readout and the host
/// seconds each case spent inside `solve_hourly_with`.
fn solve_all(cases: &[Case<'_>], workers: usize) -> (Readout, Vec<f64>) {
    let solver = HbssSolver::new();
    let mut readout = Readout::default();
    let mut segments_s = Vec::new();
    for case in cases {
        let engine = EvalEngine::new(case.seed, workers);
        let mut rng = Pcg32::seed(case.seed);
        let t = Instant::now();
        let plans = case.with_ctx(|ctx| {
            api::solve_hourly_with(&engine, &solver, ctx, DAY_START_H, 0.0, 86_400.0, &mut rng)
        });
        segments_s.push(t.elapsed().as_secs_f64());
        readout.absorb(case, &engine, &plans);
    }
    (readout, segments_s)
}

fn lap(seed: u64, scale: Scale) -> Lap {
    let t = Instant::now();
    let worlds = worlds(seed);
    let forecasts = forecasts(&worlds);
    let cases = cases(seed, scale, &worlds, &forecasts);
    let setup_s = t.elapsed().as_secs_f64();

    let (readout, segments_s) = solve_all(&cases, 1);
    Lap {
        setup_s,
        segments_s,
        ops: readout.cells,
        failed: readout.violating,
        sim: readout.sim(),
    }
}

fn verify(seed: u64, lap: &Lap) -> Vec<String> {
    let mut failures = Vec::new();
    if lap.failed != 0 {
        failures.push(format!(
            "plan_cold: {} of {} cells chose a plan outside its tolerances",
            lap.failed, lap.ops
        ));
    }
    if lap.sim.extra("carbon_g_per_op") > lap.sim.extra("home_carbon_g_per_op") {
        failures.push("plan_cold: the schedule emits more than staying home".into());
    }
    let workers = api::nproc();
    if workers > 1 {
        let worlds = worlds(seed);
        let forecasts = forecasts(&worlds);
        let cases = cases(seed, Scale::Full, &worlds, &forecasts);
        let (parallel, _) = solve_all(&cases, workers);
        if parallel.sim().extra("schedule_digest") != lap.sim.extra("schedule_digest") {
            failures.push(format!(
                "plan_cold: schedule at {workers} workers differs from 1 worker"
            ));
        }
    }
    failures
}

/// The benchmark's own hour loop: `HbssSolver::solve_with` per cell, with
/// the walk generators forked exactly as `solve_hourly_with` forks them,
/// one span per cell.
fn traced(seed: u64, layers: &mut Layers) {
    let worlds = worlds(seed);
    let forecasts = forecasts(&worlds);
    let cases = cases(seed, Scale::Full, &worlds, &forecasts);

    let (reference, segments_s) = solve_all(&cases, 1);
    let reference_s: f64 = segments_s.iter().sum();
    let sim = reference.sim();
    layers.set("sim.carbon_g_per_op", sim.extra("carbon_g_per_op"));
    layers.set("sim.cost_usd_per_kop", sim.extra("cost_usd_per_kop"));
    layers.set(
        "sim.carbon_saving_pct",
        (1.0 - sim.extra("carbon_g_per_op") / sim.extra("home_carbon_g_per_op")) * 100.0,
    );
    layers.set(
        "sim.ok_share",
        (reference.cells - reference.violating) as f64 / reference.cells as f64,
    );
    layers.set("solver.hbss.evals_per_cell", sim.extra("evals_per_cell"));
    layers.set("solver.cache.hit_share", sim.extra("hit_share"));

    let solver = HbssSolver::new();
    let mut cell_ms = Vec::new();
    let mut op = 0u64;
    let t = Instant::now();
    for case in &cases {
        let engine = EvalEngine::new(case.seed, 1);
        let mut rng = Pcg32::seed(case.seed);
        let mut hrngs: Vec<Pcg32> = (0..HOURS).map(|h| rng.fork(h as u64)).collect();
        case.with_ctx(|ctx| {
            for (h, hrng) in hrngs.iter_mut().enumerate() {
                layers.tracer.set_op(op);
                op += 1;
                let t = Instant::now();
                layers.tracer.enter("solver.hbss.solve_with");
                let outcome = solver.solve_with(&engine, ctx, DAY_START_H + h as f64 + 0.5, hrng);
                layers.tracer.exit();
                cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(outcome);
            }
        });
    }
    let traced_s = t.elapsed().as_secs_f64();
    cell_ms.sort_by(f64::total_cmp);
    layers.set(
        "solver.hbss.cell_ms_p50",
        stats::percentile_sorted(&cell_ms, 0.50),
    );
    // 144 cells leave 14 beyond p90; p95 would leave seven.
    let (tail_q, _) = stats::tail_percentile(cell_ms.len() as u64, &stats::TAIL_CANDIDATES)
        .expect("a lap has more than twenty cells");
    assert_eq!(
        tail_q, 0.90,
        "cell_ms_p90 is named after the highest percentile with ten cells beyond it"
    );
    layers.set(
        "solver.hbss.cell_ms_p90",
        stats::percentile_sorted(&cell_ms, 0.90),
    );
    layers.close_trace(
        "budget.solve.coverage",
        &["solver.hbss.solve_with"],
        reference_s,
        traced_s,
        op,
    );

    // The 24 hours of each case fanned over every thread the host has.
    let workers = api::nproc();
    if workers > 1 {
        let (mut wall_s, mut busy_s) = (0.0, 0.0);
        for case in &cases {
            let engine = EvalEngine::new(case.seed, workers);
            let mut rng = Pcg32::seed(case.seed);
            let hrngs: Vec<Pcg32> = (0..HOURS).map(|h| rng.fork(h as u64)).collect();
            case.with_ctx(|ctx| {
                let (plans, pool) = api::map_indexed(workers, HOURS, |h| {
                    let mut hrng = hrngs[h].clone();
                    solver
                        .solve_with(&engine, ctx, DAY_START_H + h as f64 + 0.5, &mut hrng)
                        .best
                });
                std::hint::black_box(plans);
                wall_s += pool.wall_s;
                busy_s += pool.busy_s.iter().sum::<f64>();
            });
        }
        layers.set("solver.pool.speedup_nproc", reference_s / wall_s);
        layers.set(
            "solver.pool.utilization",
            busy_s / (wall_s * workers as f64),
        );
    }
}
