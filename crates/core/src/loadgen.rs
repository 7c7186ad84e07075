//! The sustained-load harness behind `caribou loadgen`.
//!
//! Drives a benchmark DAG with N open-loop invocations end-to-end through
//! the simulated cloud and the execution engine, on a fixed set of
//! [`LoadgenConfig::shards`] long-lived simulation shards — each a full
//! [`SimCloud`] keeping its warm pools, KV/blob contents and meters for
//! the whole run. Chunks of [`CHUNK_INVOCATIONS`] arrivals are dealt to
//! shards round-robin; one round of chunks is a *tick*. At every tick
//! boundary the shards exchange their journaled warm-pool touches in
//! fixed shard order ([`caribou_simcloud::warm::WarmPool::drain_touches`]
//! sorts by deployment key) and max-merge them, so container state
//! converges across shards with at most one tick of visibility lag.
//! (A fresh cloud per chunk, the pre-shard behaviour, re-paid every cold
//! start at every chunk boundary; EXPERIMENTS.md keeps the measurement.)
//!
//! Results are bit-identical at any worker count:
//!
//! * arrival times are generated once, up front, from the seeded
//!   [`ArrivalProcess`] — they are data, not per-worker state;
//! * chunk boundaries and the chunk→shard assignment depend only on N
//!   and the shard count, never on the worker count;
//! * every seed is derived from the run seed through
//!   [`SeedSplitter`] label chains (salt + index), so no two streams
//!   collide and no derivation depends on execution order;
//! * within a round each shard is touched by exactly one pool task, and
//!   chunk results are folded in chunk order (f64 summation order is
//!   part of the contract), as are the tick-boundary touch exchanges.
//!
//! Latencies are folded into a mergeable [`QuantileSketch`] — memory is
//! O(buckets), independent of N — instead of an exact per-invocation
//! vector; [`LoadgenConfig::capture_latencies`] re-enables the exact
//! vector for tests that validate the sketch against sorted-vector
//! quantiles.
//!
//! Each shard reuses one [`InvocationScratch`] across its invocations
//! and drives them under the one home plan, so the steady-state data
//! plane allocates only the per-invocation log records (see
//! `engine.alloc_per_invocation`).

use std::sync::Mutex;

use caribou_carbon::source::RegionalSource;
use caribou_carbon::CarbonError;
use caribou_exec::engine::{ExecutionEngine, InvocationScratch};
use caribou_exec::outcome::ExecutionOutcome;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::SeedSplitter;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::warm::{WarmPool, WarmTouch, DEFAULT_KEEP_ALIVE_S};
use caribou_solver::pool::{self, PoolStats};
use caribou_telemetry::QuantileSketch;
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::Benchmark;

use crate::driver;
use crate::scenario::{grid, workflow_app, CARBON_EPOCH, HOME};

/// Fixed chunk size: chunk boundaries (and therefore results) depend only
/// on the invocation count, never on the worker count. One round of
/// chunks across the shards is the exchange tick.
pub const CHUNK_INVOCATIONS: usize = 8192;

/// Default number of persistent simulation shards. The shard count is
/// part of the result contract (it fixes the chunk→shard assignment and
/// per-shard seeds), so it defaults to a constant rather than the
/// machine's core count.
pub const DEFAULT_SHARDS: usize = 8;

/// Seed-derivation salts: every RNG stream hangs off the run seed via
/// `SeedSplitter::new(seed).absorb(SALT).absorb(index)`, so streams can
/// never collide the way the old `seed ^ chunk * constant` xor mix could.
const SALT_ARRIVALS: u64 = 0xA11;
const SALT_INVOCATION: u64 = 0x117;
const SALT_SHARD_CLOUD: u64 = 0x54A2D;

/// Configuration for one sustained-load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Number of invocations to run.
    pub invocations: usize,
    /// Root seed: arrivals, shard clouds, and per-invocation RNG streams
    /// all derive from it via [`SeedSplitter`].
    pub seed: u64,
    /// Worker threads for chunk execution (1 = inline).
    pub workers: usize,
    /// Persistent shard count (capped at the chunk count). Changing it
    /// changes the result — it is simulation structure, not parallelism.
    pub shards: usize,
    /// Open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Transmission scenario for carbon accounting.
    pub scenario: TransmissionScenario,
    /// Drive cold starts from the stateful warm pool (`true`, default)
    /// or the compute model's probabilistic rate (`false`).
    pub warm_pool: bool,
    /// Warm-container keep-alive window, seconds.
    pub keep_alive_s: f64,
    /// Also collect the exact per-invocation latency vector (O(N)
    /// memory) — for tests validating the sketch, not for big runs.
    pub capture_latencies: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            invocations: 0,
            seed: 0,
            workers: 1,
            shards: DEFAULT_SHARDS,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 100.0 },
            scenario: TransmissionScenario::BEST,
            warm_pool: true,
            keep_alive_s: DEFAULT_KEEP_ALIVE_S,
            capture_latencies: false,
        }
    }
}

/// Per-run results: streaming latency aggregates (O(buckets) memory)
/// plus folded totals.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Mergeable latency sketch: quantiles to one bucket's relative
    /// error (~6%), exact count/mean/variance via running moments.
    pub latency: QuantileSketch,
    /// Exact per-invocation latencies in arrival order, only when
    /// [`LoadgenConfig::capture_latencies`] was set.
    pub exact_latencies_s: Option<Vec<f64>>,
    /// Invocations that completed every live node.
    pub completed: u64,
    /// Total mid-flight failovers.
    pub failovers: u64,
    /// Function executions that paid a cold start.
    pub cold_starts: u64,
    /// Function executions served by a warm container.
    pub warm_starts: u64,
    /// Total execution carbon, grams.
    pub exec_carbon_g: f64,
    /// Total transmission carbon, grams.
    pub trans_carbon_g: f64,
    /// Total request cost, USD.
    pub cost_usd: f64,
    /// Sim-time span of the arrival sequence, seconds.
    pub span_s: f64,
    /// Pooled-buffer growth events summed over all shards (steady-state
    /// allocation telemetry; one small constant per shard).
    pub scratch_allocs: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Persistent shards used.
    pub shards: u64,
    /// Worker-pool statistics accumulated over all rounds.
    pub pool: PoolStats,
}

impl LoadReport {
    /// Nearest-rank quantile of the latency distribution, `q` in [0, 1].
    ///
    /// Finite `q` outside the range is clamped; a non-finite `q` returns
    /// NaN instead of silently mapping to an extreme rank. An empty
    /// report returns 0.0, consistent with [`LoadReport::mean_latency_s`].
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q)
    }

    /// Mean end-to-end latency, seconds (0.0 on an empty report).
    pub fn mean_latency_s(&self) -> f64 {
        self.latency.mean()
    }

    /// Invocations observed.
    pub fn invocations(&self) -> u64 {
        self.latency.count()
    }

    /// Fraction of function executions that paid a cold start.
    pub fn cold_start_rate(&self) -> f64 {
        let total = self.cold_starts + self.warm_starts;
        if total == 0 {
            0.0
        } else {
            self.cold_starts as f64 / total as f64
        }
    }

    /// Folds one invocation's outcome.
    fn observe(&mut self, o: &ExecutionOutcome) {
        self.latency.observe(o.e2e_latency_s);
        if let Some(exact) = self.exact_latencies_s.as_mut() {
            exact.push(o.e2e_latency_s);
        }
        self.completed += u64::from(o.completed);
        self.failovers += u64::from(o.failovers);
        self.cold_starts += u64::from(o.cold_starts);
        self.warm_starts += o.log.nodes.len() as u64 - u64::from(o.cold_starts);
        self.exec_carbon_g += o.exec_carbon_g;
        self.trans_carbon_g += o.trans_carbon_g;
        self.cost_usd += o.cost_usd;
    }

    /// Folds the invocations `other` observed after this report's own.
    /// The run-level fields (span, allocations, chunk, shard and pool
    /// counts) are the run's to set, not a fold's.
    fn merge(&mut self, other: &LoadReport) {
        self.latency.merge(&other.latency);
        if let (Some(exact), Some(more)) = (
            self.exact_latencies_s.as_mut(),
            other.exact_latencies_s.as_ref(),
        ) {
            exact.extend_from_slice(more);
        }
        self.completed += other.completed;
        self.failovers += other.failovers;
        self.cold_starts += other.cold_starts;
        self.warm_starts += other.warm_starts;
        self.exec_carbon_g += other.exec_carbon_g;
        self.trans_carbon_g += other.trans_carbon_g;
        self.cost_usd += other.cost_usd;
    }
}

/// A long-lived simulation shard: one full cloud plus its reusable
/// invocation scratch. Wrapped in a `Mutex` only so the worker pool can
/// reach it through a shared reference — within a round each shard index
/// is handed to exactly one task, so the lock is never contended.
struct Shard {
    cloud: SimCloud,
    scratch: InvocationScratch,
}

/// Runs the sustained-load harness and returns the merged report: rounds
/// of chunks over long-lived shards with a deterministic warm-touch
/// exchange at every round (tick) boundary.
///
/// The report is a pure function of everything in `config` except
/// `workers` — the worker count changes only wall-clock time, never a
/// single bit of the result.
pub fn run_loadgen(bench: &Benchmark, config: &LoadgenConfig) -> Result<LoadReport, CarbonError> {
    // One template cloud resolves the home region and validates the
    // carbon calibration once; shard clouds share its catalog shape.
    // `scenario::World::evaluation` minus the evaluation-region pass this
    // path never reads.
    let template = SimCloud::aws(config.seed);
    let home = template
        .region(HOME)
        .expect("the default catalog includes the home region");
    let carbon = RegionalSource::new(&template.regions, grid(CARBON_EPOCH))?;
    let app = workflow_app(bench, home);
    let plan = DeploymentPlan::uniform(app.dag.node_count(), home);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(config.scenario),
        orchestrator: Orchestrator::Caribou,
    };

    let n = config.invocations;
    let chunks = n.div_ceil(CHUNK_INVOCATIONS);
    let shard_count = config.shards.max(1).min(chunks.max(1));
    let mut report = LoadReport {
        exact_latencies_s: config.capture_latencies.then(|| Vec::with_capacity(n)),
        chunks: chunks as u64,
        shards: shard_count as u64,
        ..LoadReport::default()
    };
    let shards: Vec<Mutex<Shard>> = (0..shard_count)
        .map(|s| {
            let seed = SeedSplitter::new(config.seed)
                .absorb(SALT_SHARD_CLOUD)
                .absorb(s as u64)
                .seed();
            let mut cloud = SimCloud::aws(seed);
            engine.provision(&mut cloud, &app, &plan);
            if config.warm_pool {
                cloud.warm = WarmPool::enabled(config.keep_alive_s);
                cloud.warm.set_journaling(true);
            }
            Mutex::new(Shard {
                cloud,
                scratch: InvocationScratch::new(),
            })
        })
        .collect();

    // Arrivals stream from one seeded generator: data, not per-worker
    // state. One round's arrivals at a time: the buffer is reused, so
    // arrival storage is O(shards × CHUNK_INVOCATIONS) no matter how
    // large N is.
    let mut gen = config
        .arrivals
        .stream(SeedSplitter::new(config.seed).absorb(SALT_ARRIVALS).rng());
    let rounds = chunks.div_ceil(shard_count);
    let mut round_arrivals: Vec<f64> = Vec::with_capacity(shard_count * CHUNK_INVOCATIONS);
    for round in 0..rounds {
        let base = round * shard_count;
        let round_len = shard_count.min(chunks - base);
        let round_lo = base * CHUNK_INVOCATIONS;
        let round_hi = (round_lo + round_len * CHUNK_INVOCATIONS).min(n);
        round_arrivals.clear();
        gen.fill(&mut round_arrivals, round_hi - round_lo);
        report.span_s = round_arrivals.last().copied().unwrap_or(report.span_s);
        let round_arrivals = &round_arrivals;
        let (outs, stats) = pool::map_indexed(config.workers, round_len, |i| {
            let lo = i * CHUNK_INVOCATIONS;
            let hi = (lo + CHUNK_INVOCATIONS).min(round_arrivals.len());
            // Each shard index appears exactly once per round, so this
            // lock is uncontended — it exists to satisfy the pool's
            // shared-reference closure bound.
            let mut shard = shards[i].lock().expect("shard lock");
            let Shard { cloud, scratch } = &mut *shard;
            let mut chunk = LoadReport {
                exact_latencies_s: config
                    .capture_latencies
                    .then(|| Vec::with_capacity(hi - lo)),
                ..LoadReport::default()
            };
            for (k, &arrival) in round_arrivals[lo..hi].iter().enumerate() {
                // The invocation stream is keyed by the *global* invocation
                // index, independent of chunking and sharding.
                let g = (round_lo + lo + k) as u64;
                let mut rng = SeedSplitter::new(config.seed)
                    .absorb(SALT_INVOCATION)
                    .absorb(g)
                    .rng();
                let o = driver::drive(&engine, cloud, &app, &plan, scratch, g, arrival, &mut rng);
                chunk.observe(&o);
            }
            // Drain this tick's touches while the shard is held so the
            // exchange below needs no second locking pass.
            (chunk, cloud.warm.drain_touches())
        });
        report.pool.merge(&stats);

        // Tick boundary: broadcast every shard's touches to every shard,
        // in fixed (shard, key) order. absorb_touch max-merges, so
        // re-absorbing a shard's own touches is a no-op and the fold
        // order only matters for determinism, which the fixed iteration
        // order provides.
        if config.warm_pool && round + 1 < rounds {
            let all_touches: Vec<&WarmTouch> = outs.iter().flat_map(|(_, t)| t.iter()).collect();
            for shard in &shards {
                let mut shard = shard.lock().expect("shard lock");
                for touch in &all_touches {
                    shard.cloud.warm.absorb_touch(touch);
                }
            }
        }

        // Fold in chunk order: f64 summation order is part of the
        // bit-reproducibility contract.
        for (chunk, _) in &outs {
            report.merge(chunk);
        }
    }

    for shard in shards {
        let shard = shard.into_inner().expect("shard lock");
        report.scratch_allocs += shard.scratch.allocs();
    }
    if caribou_telemetry::is_enabled() {
        caribou_telemetry::count("loadgen.invocations", report.invocations());
        caribou_telemetry::count("loadgen.chunks", chunks as u64);
        caribou_telemetry::count("loadgen.shards", report.shards);
        caribou_telemetry::count("loadgen.rounds", rounds as u64);
        caribou_telemetry::count("loadgen.cold_starts", report.cold_starts);
        caribou_telemetry::count("loadgen.warm_starts", report.warm_starts);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

    fn config(n: usize, workers: usize) -> LoadgenConfig {
        LoadgenConfig {
            invocations: n,
            seed: 42,
            workers,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 5.0 },
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn report_is_worker_count_invariant() {
        let bench = text2speech_censoring(InputSize::Small);
        let a = run_loadgen(&bench, &config(300, 1)).unwrap();
        let b = run_loadgen(&bench, &config(300, 3)).unwrap();
        assert_eq!(a.invocations(), 300);
        assert_eq!(
            a.latency.quantile(0.99).to_bits(),
            b.latency.quantile(0.99).to_bits()
        );
        assert_eq!(a.mean_latency_s().to_bits(), b.mean_latency_s().to_bits());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.failovers, b.failovers);
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.warm_starts, b.warm_starts);
        assert_eq!(a.exec_carbon_g.to_bits(), b.exec_carbon_g.to_bits());
        assert_eq!(a.trans_carbon_g.to_bits(), b.trans_carbon_g.to_bits());
        assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
    }

    #[test]
    fn quantiles_reject_bad_q_and_empty_reports_are_zero() {
        let bench = text2speech_censoring(InputSize::Small);
        let r = run_loadgen(&bench, &config(40, 1)).unwrap();
        assert!(r.latency_quantile(f64::NAN).is_nan());
        assert!(r.latency_quantile(f64::INFINITY).is_nan());
        assert_eq!(
            r.latency_quantile(-1.0).to_bits(),
            r.latency_quantile(0.0).to_bits()
        );
        assert_eq!(
            r.latency_quantile(2.0).to_bits(),
            r.latency_quantile(1.0).to_bits()
        );
        let empty = run_loadgen(&bench, &config(0, 1)).unwrap();
        assert_eq!(empty.latency_quantile(0.5), 0.0);
        assert_eq!(empty.mean_latency_s(), 0.0);
        assert_eq!(empty.invocations(), 0);
    }

    #[test]
    fn loadgen_counts_invocations_in_telemetry() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let bench = text2speech_censoring(InputSize::Small);
        run_loadgen(&bench, &config(50, 1)).unwrap();
        let finished = caribou_telemetry::finish().expect("session active");
        assert_eq!(finished.recorder.counter("loadgen.invocations"), 50);
        assert_eq!(finished.recorder.counter("loadgen.chunks"), 1);
        assert_eq!(finished.recorder.counter("loadgen.shards"), 1);
        // The pooled engine path ran: warm steady state allocates only the
        // caller-owned log records.
        assert_eq!(finished.recorder.gauges["engine.alloc_per_invocation"], 2.0);
    }
}
