//! Integration tests for the `caribou loadgen` sustained-load harness:
//! the merged report, and a traced run's summary, must be bit-identical
//! at any worker count (1/2/8), including across chunk boundaries in the
//! persistent sharded mode; the
//! streaming sketch must track exact sorted-vector quantiles to within
//! one bucket's relative error; and the persistent shards must pay cold
//! starts exactly once per container, not once per chunk.

use caribou_core::loadgen::{run_loadgen, LoadReport, LoadgenConfig, CHUNK_INVOCATIONS};
use caribou_telemetry::{self as telemetry, MemorySink, NullSink, QuantileSketch, SUB_BUCKETS};
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{image_processing, text2speech_censoring, InputSize};
use proptest::prelude::*;

fn config(n: usize, seed: u64, workers: usize, arrivals: ArrivalProcess) -> LoadgenConfig {
    LoadgenConfig {
        invocations: n,
        seed,
        workers,
        arrivals,
        ..LoadgenConfig::default()
    }
}

fn run(n: usize, seed: u64, workers: usize, arrivals: ArrivalProcess) -> LoadReport {
    let bench = text2speech_censoring(InputSize::Small);
    run_loadgen(&bench, &config(n, seed, workers, arrivals)).expect("calibrated catalog")
}

fn assert_identical(a: &LoadReport, b: &LoadReport) {
    assert_eq!(a.invocations(), b.invocations());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            a.latency_quantile(q).to_bits(),
            b.latency_quantile(q).to_bits(),
            "quantile {q} diverged"
        );
    }
    assert_eq!(a.mean_latency_s().to_bits(), b.mean_latency_s().to_bits());
    assert_eq!(a.latency.min().to_bits(), b.latency.min().to_bits());
    assert_eq!(a.latency.max().to_bits(), b.latency.max().to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.cold_starts, b.cold_starts);
    assert_eq!(a.warm_starts, b.warm_starts);
    assert_eq!(a.exec_carbon_g.to_bits(), b.exec_carbon_g.to_bits());
    assert_eq!(a.trans_carbon_g.to_bits(), b.trans_carbon_g.to_bits());
    assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
}

/// The sketches merged into an empty one, in iteration order.
fn merged<'a>(parts: impl Iterator<Item = &'a QuantileSketch>) -> QuantileSketch {
    let mut acc = QuantileSketch::new();
    parts.for_each(|p| acc.merge(p));
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharding across any worker count merges to exactly the 1-worker
    /// report.
    #[test]
    fn shard_merge_preserves_outcomes(
        n in 1usize..400,
        seed in any::<u64>(),
        workers in 2usize..9,
        arrival_idx in 0usize..3,
    ) {
        let arrivals = match arrival_idx {
            0 => ArrivalProcess::Poisson { rate_per_s: 20.0 },
            1 => ArrivalProcess::Diurnal { rate_per_s: 20.0 },
            _ => ArrivalProcess::Bursty { rate_per_s: 20.0 },
        };
        let sequential = run(n, seed, 1, arrivals);
        let sharded = run(n, seed, workers, arrivals);
        assert_identical(&sequential, &sharded);
    }

    /// Histogram merge: bucket counts, count, min and max are exactly
    /// order-insensitive; identical fold order is bit-reproducible.
    #[test]
    fn histogram_merge_is_order_insensitive(
        values in collection::vec(1e-6f64..1e4, 1..300),
        split in 1usize..10,
    ) {
        let mut parts: Vec<QuantileSketch> = (0..split).map(|_| QuantileSketch::new()).collect();
        let mut whole = QuantileSketch::new();
        for (i, v) in values.iter().enumerate() {
            parts[i % split].observe(*v);
            whole.observe(*v);
        }
        let fwd = merged(parts.iter());
        let rev = merged(parts.iter().rev());
        prop_assert_eq!(fwd.buckets(), whole.buckets());
        prop_assert_eq!(fwd.count(), whole.count());
        prop_assert_eq!(fwd.min().to_bits(), whole.min().to_bits());
        prop_assert_eq!(fwd.max().to_bits(), whole.max().to_bits());
        prop_assert_eq!(fwd.buckets(), rev.buckets());
        prop_assert_eq!(fwd.min().to_bits(), rev.min().to_bits());
        prop_assert_eq!(fwd.max().to_bits(), rev.max().to_bits());
        // Same fold order twice is bit-identical including the f64 moments.
        let again = merged(parts.iter());
        prop_assert_eq!(fwd.moments, again.moments);
    }

    /// Sketch quantiles stay within one bucket's relative width of the
    /// exact nearest-rank quantiles of the same values.
    #[test]
    fn sketch_tracks_exact_quantiles(
        values in collection::vec(1e-4f64..1e3, 10..500),
    ) {
        let mut sketch = QuantileSketch::new();
        let mut exact = values.clone();
        for v in &values {
            sketch.observe(*v);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = sketch.quantile(q);
            let rel = (est - truth).abs() / truth;
            prop_assert!(
                rel <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "q={} est={} truth={} rel={}", q, est, truth, rel
            );
        }
    }
}

/// Persistent sharding stays bit-identical at 1/2/8 workers when the run
/// spans multiple chunks (and therefore multiple shards and exchange
/// ticks).
#[test]
fn multi_chunk_run_is_identical_at_1_2_8_workers() {
    let n = CHUNK_INVOCATIONS * 2 + 123;
    let arrivals = ArrivalProcess::Diurnal { rate_per_s: 120.0 };
    let a = run(n, 9, 1, arrivals);
    let b = run(n, 9, 2, arrivals);
    let c = run(n, 9, 8, arrivals);
    assert_eq!(a.invocations(), n as u64);
    assert_eq!(a.chunks, 3);
    assert_eq!(a.shards, 3, "shard count caps at the chunk count");
    assert_identical(&a, &b);
    assert_identical(&a, &c);
}

/// The fan-out benchmark crosses a chunk boundary without disturbing the
/// merge order.
#[test]
fn chunk_boundary_is_seamless() {
    let bench = image_processing(InputSize::Small);
    let n = CHUNK_INVOCATIONS + 37;
    let mk = |workers| config(n, 7, workers, ArrivalProcess::Poisson { rate_per_s: 50.0 });
    let a = run_loadgen(&bench, &mk(1)).unwrap();
    let b = run_loadgen(&bench, &mk(4)).unwrap();
    assert_eq!(a.invocations(), n as u64);
    assert_identical(&a, &b);
    assert_eq!(a.completed, n as u64);
}

/// The sketch in a real report tracks the exact per-invocation latency
/// vector (read off the run's `exec.invocation` journal events) to within
/// one bucket's relative error.
#[test]
fn report_sketch_matches_captured_latencies() {
    let bench = text2speech_censoring(InputSize::Small);
    let cfg = config(1500, 3, 2, ArrivalProcess::Poisson { rate_per_s: 50.0 });
    telemetry::enable(Box::new(MemorySink::default()));
    let report = run_loadgen(&bench, &cfg).unwrap();
    let done = telemetry::finish().expect("session active");
    let sink = done.sink.as_any().downcast_ref::<MemorySink>().unwrap();
    let mut exact: Vec<f64> = sink
        .events
        .iter()
        .filter(|e| e.kind == "exec.invocation")
        .map(|e| e.value)
        .collect();
    assert_eq!(exact.len(), 1500);
    // Tracing moves no result bit.
    assert_identical(&report, &run_loadgen(&bench, &cfg).unwrap());
    exact.sort_by(f64::total_cmp);
    for q in [0.5, 0.95, 0.99] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let truth = exact[rank - 1];
        let est = report.latency_quantile(q);
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
            "q={q} est={est} truth={truth} rel={rel}"
        );
    }
    // The running moments are exact, not sketched.
    let mean = exact.iter().sum::<f64>() / exact.len() as f64;
    assert!((report.mean_latency_s() - mean).abs() < 1e-9);
}

/// What a traced run reports about itself is as worker-count-invariant
/// as its results: every summary counter, and every histogram's count,
/// mean and variance to the bit, at 1, 2 and 8 workers. The pool's own
/// keys (`solver.pool.*`) and wall-clock timings (`*_ns`) describe the
/// host and are left out.
#[test]
fn traced_summary_is_identical_at_1_2_8_workers() {
    let bench = text2speech_censoring(InputSize::Small);
    let host = |key: &str| key.starts_with("solver.pool.") || key.ends_with("_ns");
    let summary = |workers| {
        let cfg = config(
            CHUNK_INVOCATIONS + 37,
            11,
            workers,
            ArrivalProcess::Poisson { rate_per_s: 50.0 },
        );
        telemetry::enable(Box::new(NullSink));
        run_loadgen(&bench, &cfg).unwrap();
        let recorder = telemetry::finish().expect("session active").recorder;
        let counters: Vec<(&str, u64)> = recorder
            .counters
            .into_iter()
            .filter(|(key, _)| !host(key))
            .collect();
        let moments: Vec<(&str, u64, u64, u64)> = recorder
            .histograms
            .iter()
            .filter(|(key, _)| !host(key))
            .map(|(key, h)| {
                let m = h.moments;
                (*key, m.count, m.mean().to_bits(), m.variance().to_bits())
            })
            .collect();
        (counters, moments)
    };
    let one = summary(1);
    assert!(!one.0.is_empty());
    assert!(
        one.1.iter().any(|m| m.0 == "exec.node_duration_s"),
        "{:?}",
        one.1
    );
    assert_eq!(one, summary(2));
    assert_eq!(one, summary(8));
}

/// Hand-computed cold-start schedule: at 200 arrivals/s no container
/// idles past the 600 s keep-alive in a run of ~80 simulated seconds, so
/// every container goes cold exactly once per simulation state that has
/// to rebuild it: `shards × nodes` cold starts for the whole run,
/// however many chunks it spans.
#[test]
fn persistent_shards_pay_cold_starts_once_not_per_chunk() {
    let bench = text2speech_censoring(InputSize::Small);
    let nodes = bench.dag.node_count() as u64;
    let n = CHUNK_INVOCATIONS * 2; // exactly 2 chunks
    let arrivals = ArrivalProcess::Poisson { rate_per_s: 200.0 };
    let base = config(n, 11, 2, arrivals);

    // One persistent shard: both chunks share one warm pool — each
    // container is cold exactly once in the whole run.
    let one = run_loadgen(
        &bench,
        &LoadgenConfig {
            shards: 1,
            ..base.clone()
        },
    )
    .unwrap();
    assert_eq!(one.cold_starts, nodes);

    // Two persistent shards: each shard's round-0 chunk warms its own
    // pool before the first exchange, so each pays `nodes` once.
    let two = run_loadgen(&bench, &LoadgenConfig { shards: 2, ..base }).unwrap();
    assert_eq!(two.cold_starts, 2 * nodes);
    // Every node of every invocation executed.
    assert_eq!(one.cold_starts + one.warm_starts, n as u64 * nodes);
    assert_eq!(two.cold_starts + two.warm_starts, n as u64 * nodes);
}

/// With more chunks than shards, the one shard's warm pool survives every
/// chunk boundary (no container idles past the keep-alive at 200
/// arrivals/s): one cold-start bill for the whole run (a fresh cloud per
/// chunk paid three — EXPERIMENTS.md).
#[test]
fn one_shard_pays_cold_starts_once_across_three_chunks() {
    let bench = text2speech_censoring(InputSize::Small);
    let nodes = bench.dag.node_count() as u64;
    let n = CHUNK_INVOCATIONS * 3;
    let cfg = LoadgenConfig {
        shards: 1,
        ..config(n, 13, 2, ArrivalProcess::Poisson { rate_per_s: 200.0 })
    };
    let report = run_loadgen(&bench, &cfg).unwrap();
    assert_eq!(report.chunks, 3);
    assert_eq!(report.cold_starts, nodes);
}

/// Loadgen's golden: the bits of a multi-round run (3 chunks dealt over
/// 2 shards, so one warm-touch exchange and a second round on shard 0),
/// captured at 44b5dc4 before the invocation driver replaced the loop.
#[test]
fn multi_round_report_bits_are_pinned() {
    let bench = text2speech_censoring(InputSize::Small);
    let cfg = LoadgenConfig {
        shards: 2,
        ..config(
            CHUNK_INVOCATIONS * 2 + 123,
            9,
            2,
            ArrivalProcess::Diurnal { rate_per_s: 120.0 },
        )
    };
    let r = run_loadgen(&bench, &cfg).unwrap();
    assert_eq!((r.chunks, r.shards), (3, 2));
    assert_eq!(r.invocations(), 16_507);
    assert_eq!(r.completed, 16_507);
    assert_eq!(r.cold_starts, 10);
    assert_eq!(r.warm_starts, 82_525);
    let bits = [
        ("mean_latency_s", r.mean_latency_s(), 0x4029aa238685ae02u64),
        (
            "p99_latency_s",
            r.latency_quantile(0.99),
            0x402e9a0535852e3a,
        ),
        ("exec_carbon_g", r.exec_carbon_g, 0x4055a377ef55589e),
        ("trans_carbon_g", r.trans_carbon_g, 0x40402f753f680f30),
        ("cost_usd", r.cost_usd, 0x401862771d162ea1),
        ("span_s", r.span_s, 0x406c565392fae82a),
    ];
    for (name, value, pinned) in bits {
        assert_eq!(value.to_bits(), pinned, "{name} moved: {value}");
    }
}

/// Arrival times are part of the contract: a different seed must change
/// the report (sanity check that determinism is not degeneracy).
#[test]
fn different_seeds_differ() {
    let a = run(200, 1, 1, ArrivalProcess::Poisson { rate_per_s: 20.0 });
    let b = run(200, 2, 1, ArrivalProcess::Poisson { rate_per_s: 20.0 });
    assert_ne!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
    assert_ne!(a.mean_latency_s().to_bits(), b.mean_latency_s().to_bits());
}
