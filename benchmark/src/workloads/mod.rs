//! The five workloads, from the data plane alone to the whole adaptive
//! loop. Each is a lap function over fresh state (timed), a set of output
//! checks (untimed) and a traced variant (see [`crate::layers`]).

pub mod adaptive_week;
pub mod dataplane_faults;
pub mod dataplane_home;
pub mod fleet_replan;
pub mod plan_cold;

use crate::api::{ExecutionOutcome, SimCloud};
use crate::layers::Layers;

/// How much work one lap does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size recorded in `BENCHMARK.json`.
    Full,
    /// A small lap of the same shape: warms caches, allocator and lazy
    /// statics before timing starts. Never reported.
    Warmup,
}

/// What the modelled cloud (or the planner's model of it) did in a lap.
/// A pure function of the seed: laps of one run must agree to the bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Mean end-to-end latency of an operation, simulated seconds.
    pub latency_mean_s: f64,
    /// Tail end-to-end latency, simulated seconds.
    pub latency_tail_s: f64,
    /// Which tail `latency_tail_s` is, for the run's summary line.
    pub tail: &'static str,
    /// Samples behind the latency figures.
    pub samples: u64,
    /// Further simulated figures, by name, in a fixed order.
    pub extras: Vec<(&'static str, f64)>,
}

impl Sim {
    /// A named extra; panics when the workload does not report it.
    pub fn extra(&self, name: &str) -> f64 {
        self.extras
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("sim figure `{name}` not reported"))
    }

    /// Names and bit patterns of every simulated figure, for the
    /// lap-to-lap determinism check.
    pub fn bits(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("latency_mean_s", self.latency_mean_s.to_bits()),
            ("latency_tail_s", self.latency_tail_s.to_bits()),
            ("samples", (self.samples as f64).to_bits()),
        ];
        out.extend(self.extras.iter().map(|(n, v)| (*n, v.to_bits())));
        out
    }
}

/// One lap: fresh state built, then the workload run on it.
#[derive(Debug, Clone)]
pub struct Lap {
    /// Host seconds to build the lap's fresh state.
    pub setup_s: f64,
    /// Host seconds of each timed call into the repository, in a fixed
    /// order: one for a lap that is a single call, one per campaign,
    /// benchmark or revision otherwise. Their sum is the lap's wall time.
    pub segments_s: Vec<f64>,
    /// Operations attempted (invocations or solve cells).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    pub sim: Sim,
}

impl Lap {
    /// Host seconds of the lap's timed work.
    pub fn wall_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }
}

/// A workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// What one operation is, for the printed tables.
    pub op: &'static str,
    /// Runs one lap on fresh state.
    pub lap: fn(seed: u64, scale: Scale) -> Lap,
    /// Untimed output checks on a full lap; returns what failed.
    pub verify: fn(seed: u64, lap: &Lap) -> Vec<String>,
    /// The traced lap: the benchmark's own loop around the same layers.
    pub traced: fn(seed: u64, layers: &mut Layers),
}

/// Every workload, in the order they are listed in `BENCHMARK.json`.
pub const ALL: [Workload; 5] = [
    dataplane_home::WORKLOAD,
    dataplane_faults::WORKLOAD,
    adaptive_week::WORKLOAD,
    plan_cold::WORKLOAD,
    fleet_replan::WORKLOAD,
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Compares two laps' simulated figures bit for bit.
pub fn sim_mismatch(what: &str, a: &Sim, b: &Sim) -> Vec<String> {
    a.bits()
        .into_iter()
        .zip(b.bits())
        .filter(|(x, y)| x != y)
        .map(|((name, x), (_, y))| {
            format!(
                "{what}: sim figure `{name}` differs: {} vs {}",
                f64::from_bits(x),
                f64::from_bits(y)
            )
        })
        .collect()
}

/// Exact data-plane counts of a traced invocation loop: messages and KV
/// operations the cloud served, and how many executions started cold.
#[derive(Debug, Default)]
pub struct PlaneCounts {
    invocations: u64,
    published: u64,
    kv_ops: u64,
    cold: u64,
    executions: u64,
    /// The open cloud's `(published, kv_ops)` totals when counting began.
    base: (u64, u64),
}

impl PlaneCounts {
    fn cloud_totals(cloud: &SimCloud) -> (u64, u64) {
        let kv = cloud.kv.total_ops();
        (cloud.pubsub.total_published(), kv.reads + kv.writes)
    }

    /// Starts counting what `cloud` serves.
    pub fn open(&mut self, cloud: &SimCloud) {
        self.base = Self::cloud_totals(cloud);
    }

    /// Adds what `cloud` served since [`PlaneCounts::open`].
    pub fn close(&mut self, cloud: &SimCloud) {
        let (published, kv_ops) = Self::cloud_totals(cloud);
        self.published += published - self.base.0;
        self.kv_ops += kv_ops - self.base.1;
    }

    /// Counts one invocation's outcome.
    pub fn outcome(&mut self, o: &ExecutionOutcome) {
        self.invocations += 1;
        self.cold += u64::from(o.cold_starts);
        self.executions += o.log.nodes.len() as u64;
    }

    pub fn report(&self, layers: &mut Layers) {
        let n = self.invocations.max(1) as f64;
        layers.set("simcloud.msgs_per_inv", self.published as f64 / n);
        layers.set("simcloud.kv_ops_per_inv", self.kv_ops as f64 / n);
        layers.set(
            "simcloud.cold_start_share",
            self.cold as f64 / self.executions.max(1) as f64,
        );
    }
}
