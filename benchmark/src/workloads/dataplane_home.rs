//! `dataplane_home`: `run_loadgen` on the uniform home plan.
//!
//! Arrivals, the execution engine, the simulated cloud and the latency
//! sketch do all the work; the router, the metrics manager and the solver
//! do none. It is the repository's long-standing headline number and the
//! control on which a planner-side change must show no move.

use std::time::Instant;

use super::{sim_mismatch, Lap, PlaneCounts, Scale, Sim, Workload};
use crate::api::{
    self, ArrivalGen, ArrivalProcess, Benchmark, CarbonModel, DeploymentPlan, ExecutionEngine,
    InputSize, InvocationScratch, LoadReport, LoadgenConfig, MemorySink, Orchestrator, ProviderSet,
    QuantileSketch, SeedSplitter, TransmissionScenario, WarmPool,
};
use crate::layers::Layers;
use crate::stats;

pub const WORKLOAD: Workload = Workload {
    name: "dataplane_home",
    op: "invocation",
    lap,
    verify,
    traced,
};

/// Invocations per full lap (about a second on the defining host).
pub const INVOCATIONS: usize = 50_000;
const WARMUP_INVOCATIONS: usize = 10_000;
/// Two loadgen chunks: what the memory-sink comparison runs.
const SINK_INVOCATIONS: usize = 16_384;
/// Open-loop Poisson arrivals in *sim* time; the driver itself is closed
/// loop, one client.
pub const RATE_PER_S: f64 = 100.0;

fn bench() -> Benchmark {
    api::text2speech_censoring(InputSize::Small)
}

fn config(seed: u64, invocations: usize, workers: usize) -> LoadgenConfig {
    LoadgenConfig {
        invocations,
        seed,
        workers,
        arrivals: ArrivalProcess::Poisson {
            rate_per_s: RATE_PER_S,
        },
        ..Default::default()
    }
}

fn sim_of(report: &LoadReport) -> Sim {
    let n = report.invocations();
    // The sketch answers with bucket midpoints, 6% apart, so a single
    // percentile reads the same on every seed. The mean of the quantiles
    // from p99 to p99.9 in steps of 0.01% weighs the buckets by the mass
    // they hold there; p99.9 is the highest level used.
    assert!(
        stats::beyond(n, 0.999) >= 10,
        "p99.9 needs ten samples beyond it"
    );
    let levels = (0..=90).map(|i| 0.99 + f64::from(i) * 1e-4);
    Sim {
        latency_mean_s: report.mean_latency_s(),
        latency_tail_s: levels.map(|q| report.latency_quantile(q)).sum::<f64>() / 91.0,
        tail: "mean of sketch p99..p99.9",
        samples: n,
        extras: vec![
            (
                "carbon_g_per_op",
                (report.exec_carbon_g + report.trans_carbon_g) / report.completed.max(1) as f64,
            ),
            (
                "cost_usd_per_kop",
                report.cost_usd / report.completed.max(1) as f64 * 1000.0,
            ),
            ("cold_start_share", report.cold_start_rate()),
            ("failovers", report.failovers as f64),
        ],
    }
}

fn lap(seed: u64, scale: Scale) -> Lap {
    let n = match scale {
        Scale::Full => INVOCATIONS,
        Scale::Warmup => WARMUP_INVOCATIONS,
    };
    // `run_loadgen` builds its clouds, carbon source and shards itself, so
    // the set-up cost is what the entry point takes before its first
    // invocation returns: a run of one.
    let t = Instant::now();
    let bench = bench();
    run_loadgen_checked(&bench, &config(seed, 1, 1));
    let setup_s = t.elapsed().as_secs_f64();

    let cfg = config(seed, n, 1);
    let t = Instant::now();
    let report = run_loadgen_checked(&bench, &cfg);
    let wall_s = t.elapsed().as_secs_f64();
    Lap {
        setup_s,
        segments_s: vec![wall_s],
        ops: n as u64,
        failed: n as u64 - report.completed,
        sim: sim_of(&report),
    }
}

fn run_loadgen_checked(bench: &Benchmark, cfg: &LoadgenConfig) -> LoadReport {
    api::run_loadgen(bench, cfg).expect("the default catalog is fully carbon-calibrated")
}

fn verify(seed: u64, lap: &Lap) -> Vec<String> {
    let mut failures = Vec::new();
    if lap.failed != 0 {
        failures.push(format!(
            "dataplane_home: {} of {} invocations did not complete",
            lap.failed, lap.ops
        ));
    }
    let workers = api::nproc();
    if workers > 1 {
        let report = run_loadgen_checked(&bench(), &config(seed, INVOCATIONS, workers));
        failures.extend(sim_mismatch(
            &format!("dataplane_home at {workers} workers vs 1"),
            &lap.sim,
            &sim_of(&report),
        ));
    }
    failures
}

/// The benchmark's own arrivals -> invoke -> sketch loop over one cloud,
/// with a span at each layer boundary, plus the loadgen-only layer
/// figures (pool speed-up, memory-sink slow-down).
fn traced(seed: u64, layers: &mut Layers) {
    let bench = bench();

    // Untraced reference: the real entry point, same size.
    let t = Instant::now();
    let reference = run_loadgen_checked(&bench, &config(seed, INVOCATIONS, 1));
    let reference_s = t.elapsed().as_secs_f64();
    let sim = sim_of(&reference);
    layers.set("sim.carbon_g_per_op", sim.extra("carbon_g_per_op"));
    layers.set("sim.cost_usd_per_kop", sim.extra("cost_usd_per_kop"));
    layers.set(
        "sim.ok_share",
        reference.completed as f64 / INVOCATIONS as f64,
    );

    let mut world = api::world(ProviderSet::aws_only(), seed);
    let app = api::workflow_app(&bench, world.home);
    let plan = DeploymentPlan::uniform(app.dag.node_count(), world.home);
    let engine = ExecutionEngine {
        carbon_source: &world.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut world.cloud, &app, &plan);
    world.cloud.warm = WarmPool::enabled(api::DEFAULT_KEEP_ALIVE_S);
    let mut arrivals = ArrivalGen::new(
        ArrivalProcess::Poisson {
            rate_per_s: RATE_PER_S,
        },
        SeedSplitter::new(seed).absorb(0xA11).rng(),
    );
    let mut scratch = InvocationScratch::new();
    let mut sketch = QuantileSketch::new();
    let mut counts = PlaneCounts::default();
    counts.open(&world.cloud);

    let tracer = &mut layers.tracer;
    let t = Instant::now();
    for g in 0..INVOCATIONS as u64 {
        tracer.set_op(g);
        tracer.enter("op");
        tracer.enter("workloads.arrivals");
        let at_s = arrivals.next_arrival();
        tracer.exit();
        let mut rng = SeedSplitter::new(seed).absorb(0x117).absorb(g).rng();
        tracer.enter("exec.engine.invoke");
        let o = engine.invoke_with_scratch(
            &mut world.cloud,
            &app,
            &plan,
            g,
            at_s,
            &mut rng,
            &mut scratch,
        );
        tracer.exit();
        tracer.enter("telemetry.sketch");
        sketch.observe(o.e2e_latency_s);
        tracer.exit();
        tracer.exit();
        counts.outcome(&o);
    }
    let traced_s = t.elapsed().as_secs_f64();
    counts.close(&world.cloud);
    counts.report(layers);

    layers.close_trace(
        "budget.dataplane.coverage",
        &[
            "workloads.arrivals",
            "exec.engine.invoke",
            "telemetry.sketch",
        ],
        reference_s,
        traced_s,
        INVOCATIONS as u64,
    );

    // Loadgen at every thread the host has: same schedule, less wall.
    let workers = api::nproc();
    if workers > 1 {
        let t = Instant::now();
        let parallel = run_loadgen_checked(&bench, &config(seed, INVOCATIONS, workers));
        let parallel_s = t.elapsed().as_secs_f64();
        layers.set("core.loadgen.speedup_nproc", reference_s / parallel_s);
        layers.set("core.loadgen.pool_utilization", parallel.pool.utilization());
    }

    // A shorter lap with and without an in-memory telemetry session open
    // (the sink buffers every event, so a full lap would not fit). End-to-
    // end runs never open a session; this is the price of leaving one on.
    let t = Instant::now();
    run_loadgen_checked(&bench, &config(seed, SINK_INVOCATIONS, 1));
    let without_sink_s = t.elapsed().as_secs_f64();
    api::telemetry_enable(Box::new(MemorySink::default()));
    let t = Instant::now();
    run_loadgen_checked(&bench, &config(seed, SINK_INVOCATIONS, 1));
    let with_sink_s = t.elapsed().as_secs_f64();
    api::telemetry_finish();
    layers.set(
        "telemetry.memory_sink.slowdown",
        with_sink_s / without_sink_s,
    );
}
