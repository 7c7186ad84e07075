//! Integration tests for the telemetry subsystem threaded through the
//! framework: a quickstart-scale run must emit pub/sub, KV and solver
//! events, spans must export as parseable Chrome trace JSON, and the
//! NullSink must keep instrumentation overhead negligible.

use caribou_bench::harness::mc_config;
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::loadgen::{run_loadgen, LoadgenConfig};
use caribou_core::scenario::{default_tolerances, workflow_app, World, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::constraints::Constraints;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_model::rng::Pcg32;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_solver::hourly::solve_hourly_with;
use caribou_telemetry::{MemorySink, NullSink};
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{text2speech_censoring, Benchmark, InputSize};
use caribou_workloads::traces::uniform_trace;

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

fn quickstart_run(seed: u64, horizon_s: f64) -> caribou_core::framework::RunReport {
    quickstart_run_at(seed, horizon_s, None)
}

/// The quickstart run with the solver fan-out pinned to `workers`
/// threads, or left at the `available_parallelism()` default.
fn quickstart_run_at(
    seed: u64,
    horizon_s: f64,
    workers: Option<usize>,
) -> caribou_core::framework::RunReport {
    let bench: Benchmark = text2speech_censoring(InputSize::Small);
    let world = World::new(ProviderSet::aws_only(), seed, seed).unwrap();
    let mut config = fast_config(world.regions);
    if let Some(workers) = workers {
        config.workers = workers;
    }
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = 0.15;
    constraints.tolerances.cost = 1.0;
    let app = workflow_app(&bench, world.home);
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    let idx = caribou
        .deploy(app, &manifest, constraints)
        .expect("deploys");
    let trace = uniform_trace(30.0, horizon_s, 600.0);
    caribou.run_trace(idx, &trace)
}

#[test]
fn quickstart_run_emits_pubsub_kv_and_solver_events() {
    caribou_telemetry::enable(Box::new(MemorySink::default()));
    quickstart_run(200, 86_400.0);
    let finished = caribou_telemetry::finish().expect("session active");
    let rec = &finished.recorder;
    assert!(rec.counter("pubsub.publish") > 0, "pub/sub publishes");
    assert!(rec.counter("pubsub.ack") > 0, "pub/sub acks");
    assert!(rec.counter("kv.read") > 0, "KV reads");
    assert!(rec.counter("kv.write") > 0, "KV writes");
    assert!(rec.counter("solver.iterations") > 0, "solver iterated");
    // Every estimate of a tick's 24-hour solve folds the tick's one draw
    // bank: what was drawn is a small fraction (under a twentieth) of the
    // samples × sites the estimates read — every sample reads at least
    // one column for each of the DAG's five nodes and five edges.
    const SITES: u64 = 10;
    let estimates = rec.counter("montecarlo.estimates");
    let samples = rec.counter("montecarlo.samples");
    let draws = rec.counter("montecarlo.bank.draws");
    assert!(estimates > 100, "estimates ran: {estimates}");
    assert!(draws > 0 && rec.counter("montecarlo.bank.extensions") > 0);
    assert!(
        draws * 20 < samples * SITES,
        "{draws} draws for {samples} samples over {estimates} estimates"
    );
    assert!(rec.counter("exec.invocation") > 0, "invocations recorded");
    assert!(rec.counter("clock.advance") > 0, "clock advances recorded");
    assert!(!rec.journal.is_empty(), "journal has events");
    // Journal is ordered by virtual sim time (monotone clock feed).
    let times: Vec<f64> = rec.journal.iter().map(|e| e.t_s).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1] + 1e6),
        "journal roughly time-ordered"
    );
}

/// What the solver's pool tasks and the data plane record must not depend
/// on how many threads the 24 hourly solves fanned across: every task
/// records into a child of the coordinator's session, absorbed in task
/// order at the join.
#[test]
fn quickstart_counters_are_equal_at_1_2_and_8_workers() {
    let traced = |workers: usize| {
        caribou_telemetry::enable(Box::new(NullSink));
        quickstart_run_at(200, 86_400.0, Some(workers));
        caribou_telemetry::finish()
            .expect("session active")
            .recorder
    };
    let one = traced(1);
    assert!(one.counter("solver.iterations") > 0, "a solve ran");
    for workers in [2, 8] {
        let many = traced(workers);
        for key in [
            "solver.iterations",
            "solver.accepted",
            "solver.rejected",
            "solver.evaluated",
            "solver.accept",
            "solver.solve",
            "exec.invocation",
            // One bank per engine whatever the fan-out: each column is
            // drawn once, in whole batches.
            "montecarlo.bank.columns",
            "montecarlo.bank.draws",
            "montecarlo.bank.extensions",
        ] {
            assert_eq!(one.counter(key), many.counter(key), "{key} at {workers}");
        }
        let substrate = |r: &caribou_telemetry::Recorder| -> Vec<(&'static str, u64)> {
            r.counters
                .iter()
                .filter(|(k, _)| k.starts_with("pubsub.") || k.starts_with("kv."))
                .map(|(k, v)| (*k, *v))
                .collect()
        };
        assert!(!substrate(&one).is_empty());
        assert_eq!(substrate(&one), substrate(&many), "at {workers} workers");
        // Sim-valued histograms agree bucket by bucket; wall-clock ones
        // (`hbss.solve`) in how many observations they took.
        for key in ["exec.node_duration_s", "pubsub.delivery_latency_s"] {
            assert_eq!(
                one.histograms[key].buckets(),
                many.histograms[key].buckets(),
                "{key} at {workers} workers"
            );
        }
        assert_eq!(
            one.histograms["hbss.solve"].count(),
            many.histograms["hbss.solve"].count()
        );
    }
}

/// The estimate cache counts its traffic into the session of whichever
/// thread probed it: after a 24-hour schedule solve the `solver.cache.*`
/// counters are the engine's own tally, however many workers the hours
/// fanned across, and the cache did hit.
#[test]
fn hourly_solve_counts_its_cache_traffic() {
    let env = World::evaluation(77);
    let bench = text2speech_censoring(InputSize::Small);
    let mut constraints = Constraints::unconstrained(bench.dag.node_count());
    constraints.tolerances = default_tolerances();
    let permitted = constraints
        .permitted_regions(&bench.dag, &env.regions, &env.cloud.regions, env.home)
        .unwrap();
    let case = env.case(&bench, TransmissionScenario::BEST, mc_config());
    let ctx = case.context(&permitted, constraints.tolerances, &env.carbon);
    for workers in [1, 2] {
        caribou_telemetry::enable(Box::new(MemorySink::default()));
        let engine = EvalEngine::new(7, workers);
        let solver = HbssSolver::new();
        solve_hourly_with(&engine, &solver, &ctx, 12.0, 0.0, 1e9, &mut Pcg32::seed(7));
        let finished = caribou_telemetry::finish().expect("session active");
        let rec = &finished.recorder;
        assert!(
            rec.counter("solver.cache.hit") > 0,
            "estimate cache never hit"
        );
        assert_eq!(rec.counter("solver.cache.hit"), engine.hit_count());
        assert_eq!(rec.counter("solver.cache.miss"), engine.miss_count());
    }
}

/// The invocation driver advances each shard's clock to the arrival, so
/// substrate events are stamped in sim time, not `t_s: 0`.
#[test]
fn loadgen_journal_events_carry_sim_time() {
    let bench = text2speech_censoring(InputSize::Small);
    for workers in [1, 2] {
        caribou_telemetry::enable(Box::new(MemorySink::default()));
        let config = LoadgenConfig {
            invocations: 300,
            seed: 42,
            workers,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 5.0 },
            ..LoadgenConfig::default()
        };
        run_loadgen(&bench, &config).expect("calibrated catalog");
        let finished = caribou_telemetry::finish().expect("session active");
        let sink = finished
            .sink
            .as_any()
            .downcast_ref::<MemorySink>()
            .expect("MemorySink");
        assert!(
            sink.events
                .iter()
                .any(|e| e.kind != "exec.invocation" && e.t_s > 0.0),
            "no substrate event past t_s 0 at {workers} worker(s)"
        );
    }
}

#[test]
fn chrome_trace_export_round_trips_with_a_span_per_node() {
    let bench = text2speech_censoring(InputSize::Small);
    let node_count = bench.dag.node_count();

    caribou_telemetry::enable(Box::new(MemorySink::default()));
    quickstart_run(201, 6.0 * 3600.0);
    let finished = caribou_telemetry::finish().expect("session active");
    let sink = finished
        .sink
        .as_any()
        .downcast_ref::<MemorySink>()
        .expect("MemorySink");
    assert!(!sink.spans.is_empty(), "spans were streamed");

    // Every workflow node produced at least one "exec" span named after it.
    for i in 0..node_count {
        let name = bench
            .dag
            .node(caribou_model::dag::NodeId(i as u32))
            .name
            .clone();
        let n = sink
            .spans
            .iter()
            .filter(|s| s.cat == "exec" && s.name == name)
            .count();
        assert!(n >= 1, "no exec span for node {name}");
    }

    // The export is well-formed Chrome trace JSON: serialize, parse back.
    let doc = caribou_telemetry::chrome_trace(&sink.spans);
    let text = serde_json::to_string(&doc).expect("serializes");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("parses back");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), sink.spans.len());
    for e in events {
        assert_eq!(e["ph"], "X");
        assert!(e["name"].as_str().is_some());
        assert!(e["ts"].as_f64().is_some());
        assert!(e["dur"].as_f64().is_some());
    }
}

#[test]
fn null_sink_overhead_is_negligible() {
    // Warm up caches and JIT-ish effects, then compare an uninstrumented
    // run against one with telemetry enabled through the NullSink. The
    // bound is deliberately loose (3x) so a noisy CI machine can't flake
    // it; the real budget is the benchmark's `telemetry.memory_sink.slowdown`
    // (benchmark/README.md).
    quickstart_run(202, 6.0 * 3600.0);

    let t0 = std::time::Instant::now();
    let base = quickstart_run(202, 6.0 * 3600.0);
    let uninstrumented = t0.elapsed();

    caribou_telemetry::enable(Box::new(NullSink));
    let t1 = std::time::Instant::now();
    let instrumented_report = quickstart_run(202, 6.0 * 3600.0);
    let instrumented = t1.elapsed();
    caribou_telemetry::finish();

    // Same seed, same results: telemetry must not perturb the simulation.
    assert_eq!(base.samples.len(), instrumented_report.samples.len());
    assert_eq!(
        base.workflow_carbon_g(),
        instrumented_report.workflow_carbon_g()
    );

    assert!(
        instrumented.as_secs_f64() < uninstrumented.as_secs_f64() * 3.0 + 0.05,
        "NullSink run {:?} vs uninstrumented {:?}",
        instrumented,
        uninstrumented
    );
}
