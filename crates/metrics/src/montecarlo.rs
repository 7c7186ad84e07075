//! End-to-end Monte Carlo metric estimation (§7.1).
//!
//! Estimating latency, cost, and carbon of conditional DAGs analytically is
//! intractable; following the paper (and the prior work it cites), the
//! estimator samples complete workflow executions: each sample draws the
//! conditional-edge outcomes, per-stage execution times, and transmission
//! latencies, then computes the critical path ("the moment the request is
//! first received by the first function to the end time of the last
//! function", §9.1), the invocation cost, and the operational carbon.
//!
//! Samples are drawn in batches of 200 until the relative standard error
//! of every metric's mean drops below 0.05 or 2,000 samples are reached.
//!
//! Two paths produce the same result:
//!
//! * [`MonteCarloEstimator::estimate_scalar`] — the reference path: one
//!   straight-line sample at a time, convergence via
//!   [`DistSummary::from_samples`] on the growing prefix. Slow, obviously
//!   correct.
//! * [`MonteCarloEstimator::estimate_batched`] — the fast path: all
//!   per-(plan, hour) invariants (grid intensities, route averages, KV and
//!   SNS constants, log-normal log-space locations, energy and billing
//!   coefficients) are computed once per call, samples are drawn into
//!   fixed-width lanes over structure-of-arrays node-state columns, and
//!   convergence uses running sums instead of per-batch sort passes.
//!   Because lanes are filled and folded in ascending lane order — which
//!   is exactly sample order on the single Pcg32 stream — every draw, every
//!   floating-point operation, and therefore every output bit matches the
//!   scalar path at *any* lane width.
//!
//! [`MonteCarloEstimator::estimate`] dispatches to the batched path when
//! the stage models expose concrete model handles (see
//! [`StageModels::batchable`]). That covers the Metrics Manager's learned
//! models too: per (plan, hour) every execution and transfer site is
//! resolved once to either its model draw or an empirical draw from logged
//! history ([`StageModels::learned_exec`], [`StageModels::learned_transfer`]).
//! Only stage models with opaque sampling — none outside tests — fall back
//! to the scalar path, which otherwise serves as the tests' reference.

use caribou_model::dag::WorkflowDag;
use caribou_model::dist::PreparedDist;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::{vcpus, LambdaRuntime};
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::{Orchestrator, OVERHEAD_SIGMA};
use serde::{Deserialize, Serialize};

use caribou_carbon::route::endpoint_average;
use caribou_carbon::source::CarbonDataSource;

use crate::carbonmodel::CarbonModel;
use crate::costmodel::CostModel;
use crate::energy;
use crate::summary::{percentile_sorted, DistSummary};

/// Maximum lane width of the batched path.
pub const MAX_LANES: usize = 16;
/// Lane width used when the caller does not pick one.
pub const DEFAULT_LANES: usize = 8;

/// Sampling interfaces the estimator draws stage behaviour from.
///
/// The default implementation combines the workload profile with the
/// simulator's runtime and latency models; the Metrics Manager substitutes
/// learned empirical distributions where history exists (§7.1).
pub trait StageModels {
    /// Samples the execution duration (seconds) of `node` in `region`.
    fn sample_exec(&self, node: usize, region: RegionId, rng: &mut Pcg32) -> f64;
    /// Samples a one-way transfer latency (seconds) for `bytes` between
    /// regions.
    fn sample_transfer(&self, from: RegionId, to: RegionId, bytes: f64, rng: &mut Pcg32) -> f64;
    /// Samples the per-transition orchestration overhead (seconds).
    fn sample_transition(&self, rng: &mut Pcg32) -> f64;
    /// Samples the per-invocation setup overhead (seconds).
    fn sample_setup(&self, rng: &mut Pcg32) -> f64;
    /// Concrete model handles for the batched fast path, when every draw of
    /// this implementation is either the profile-plus-simulator draw of the
    /// returned handles or a uniform pick from the history
    /// [`StageModels::learned_exec`] / [`StageModels::learned_transfer`]
    /// report, which the prepared sampler reproduces draw-for-draw. Models
    /// with opaque sampling keep the default `None` and estimate through
    /// the scalar path.
    fn batchable(&self) -> Option<DefaultModels<'_>> {
        None
    }
    /// Logged execution durations that replace the model for `node` in
    /// `region`: `sample_exec` is one uniform pick from the (non-empty)
    /// slice times the factor. `None` draws from the model.
    fn learned_exec(&self, _node: usize, _region: RegionId) -> Option<(&[f64], f64)> {
        None
    }
    /// Logged one-way latencies that replace the model for the region
    /// pair: `sample_transfer` is one uniform pick from the (non-empty)
    /// slice, whatever the byte count. `None` draws from the model.
    fn learned_transfer(&self, _from: RegionId, _to: RegionId) -> Option<&[f64]> {
        None
    }
}

/// Model-based sampling from the workload profile plus simulator models.
#[derive(Debug, Clone)]
pub struct DefaultModels<'a> {
    /// Workload profile providing reference execution distributions.
    pub profile: &'a WorkflowProfile,
    /// Region performance factors and execution noise.
    pub runtime: &'a LambdaRuntime,
    /// Transmission latency model (the CloudPing fallback of §7.1).
    pub latency: &'a LatencyModel,
    /// Orchestration mechanism in use.
    pub orchestrator: Orchestrator,
}

impl StageModels for DefaultModels<'_> {
    fn sample_exec(&self, node: usize, region: RegionId, rng: &mut Pcg32) -> f64 {
        let p = &self.profile.nodes[node];
        self.runtime
            .execute(region, &p.exec_time, p.memory_mb, p.cpu_utilization, rng)
            .duration_s
    }

    fn sample_transfer(&self, from: RegionId, to: RegionId, bytes: f64, rng: &mut Pcg32) -> f64 {
        self.latency.sample_transfer_seconds(from, to, bytes, rng)
    }

    fn sample_transition(&self, rng: &mut Pcg32) -> f64 {
        self.orchestrator.sample_transition_s(rng)
    }

    fn sample_setup(&self, rng: &mut Pcg32) -> f64 {
        self.orchestrator.sample_setup_s(rng)
    }

    fn batchable(&self) -> Option<DefaultModels<'_>> {
        Some(self.clone())
    }
}

/// Stopping-rule configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Samples per batch (paper: 200).
    pub batch: usize,
    /// Maximum total samples (paper: 2,000).
    pub max_samples: usize,
    /// Relative-standard-error threshold (paper: 0.05).
    pub cv_threshold: f64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            batch: 200,
            max_samples: 2000,
            cv_threshold: 0.05,
        }
    }
}

/// Estimation result: one summary per metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimateSummary {
    /// End-to-end service time, seconds.
    pub latency: DistSummary,
    /// Cost per invocation, USD.
    pub cost: DistSummary,
    /// Operational carbon per invocation, gCO₂eq.
    pub carbon: DistSummary,
    /// Execution-only carbon component (mean), gCO₂eq; with the
    /// transmission component this gives the Fig. 8 ratio.
    pub exec_carbon_mean: f64,
    /// Transmission-only carbon component (mean), gCO₂eq.
    pub trans_carbon_mean: f64,
    /// Samples drawn.
    pub samples: usize,
}

impl EstimateSummary {
    /// Metric mean by objective, for deployment ordering.
    pub fn mean_of(&self, objective: caribou_model::constraints::Objective) -> f64 {
        use caribou_model::constraints::Objective;
        match objective {
            Objective::Carbon => self.carbon.mean,
            Objective::Cost => self.cost.mean,
            Objective::Latency => self.latency.mean,
        }
    }
}

/// The Monte Carlo end-to-end estimator.
pub struct MonteCarloEstimator<'a, S: CarbonDataSource, M: StageModels> {
    /// Workflow DAG.
    pub dag: &'a WorkflowDag,
    /// Workload profile.
    pub profile: &'a WorkflowProfile,
    /// Carbon data (actual or forecast).
    pub carbon_source: &'a S,
    /// Carbon model with the transmission scenario.
    pub carbon_model: CarbonModel,
    /// Cost model.
    pub cost_model: CostModel<'a>,
    /// Stage behaviour models.
    pub models: &'a M,
    /// Home region (client location and external-data anchor).
    pub home: RegionId,
    /// Stopping rule.
    pub config: MonteCarloConfig,
}

/// One sampled end-to-end execution.
#[derive(Debug, Clone, Copy)]
struct SamplePoint {
    latency: f64,
    cost: f64,
    carbon: f64,
    exec_carbon: f64,
    trans_carbon: f64,
}

/// Reusable estimator scratch: structure-of-arrays node-state columns plus
/// the per-metric sample columns and the sort buffer of the final summary.
///
/// An estimate draws up to `max_samples` (2,000 by default) executions;
/// allocating node state inside the sample loop dominated the allocator
/// profile of a solve, and allocating it per `estimate` call still
/// dominates a cache-miss-heavy solve. Long-lived callers (the solver's
/// `EvalEngine`) keep one `EstimateScratch` per worker and pass it to
/// [`MonteCarloEstimator::estimate_with`]; the columns then persist across
/// candidate evaluations. The `montecarlo.node_state_allocs` telemetry
/// counter increments by 3 (one per node-state column) only when the
/// columns actually (re)grow.
#[derive(Debug, Default)]
pub struct EstimateScratch {
    // Node state, `node_count × lanes` slots, lane-minor.
    executed: Vec<bool>,
    finish: Vec<f64>,
    start: Vec<f64>,
    // Per-sample metric columns, in sample order.
    lat: Vec<f64>,
    cost: Vec<f64>,
    carb: Vec<f64>,
    // Sort buffer for the final percentile pass.
    sort: Vec<f64>,
}

impl EstimateScratch {
    /// An empty scratch; columns are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the node-state columns hold `slots` entries, counting the
    /// (re)allocation in telemetry so reuse is observable.
    fn ensure_state(&mut self, slots: usize) {
        if self.executed.len() < slots {
            if caribou_telemetry::is_enabled() {
                // One increment per backing column, comparable with the old
                // 3-allocations-per-call SampleBuffers behaviour.
                caribou_telemetry::count("montecarlo.node_state_allocs", 3);
            }
            self.executed.resize(slots, false);
            self.finish.resize(slots, 0.0);
            self.start.resize(slots, f64::NEG_INFINITY);
        }
    }

    fn clear_columns(&mut self) {
        self.lat.clear();
        self.cost.clear();
        self.carb.clear();
    }

    fn reset_state(&mut self, slots: usize) {
        self.executed[..slots].fill(false);
        self.finish[..slots].fill(0.0);
        self.start[..slots].fill(f64::NEG_INFINITY);
    }
}

/// One transfer site of a (plan, hour), resolved to what its draw reads.
enum TransferPrep<'a> {
    /// `LatencyModel::sample_transfer_seconds` with the pair's one-way
    /// latency and bandwidth looked up once.
    Model { ow: f64, bw: f64 },
    /// A uniform pick from the pair's logged latencies.
    Learned(&'a [f64]),
}

impl TransferPrep<'_> {
    #[inline]
    fn sample(&self, bytes: f64, jitter: f64, rng: &mut Pcg32) -> f64 {
        match *self {
            TransferPrep::Model { ow, bw } => {
                (ow + bytes.max(0.0) / bw) * rng.lognormal(0.0, jitter)
            }
            TransferPrep::Learned(samples) => *rng.choose(samples).expect("non-empty history"),
        }
    }
}

/// Entry (client → start node) invariants of one (plan, hour).
struct EntryPrep<'a> {
    input: PreparedDist<'a>,
    /// `(mu, sigma)` of the setup overhead; `None` draws nothing, exactly
    /// like [`Orchestrator::sample_setup_s`] with a zero median.
    setup: Option<(f64, f64)>,
    transfer: TransferPrep<'a>,
    /// Route intensity × scenario factor; multiplied by GB per sample.
    trans_k: f64,
    same: bool,
    egress_rate: f64,
    kv: f64,
}

/// Per-edge invariants of one (plan, hour).
struct EdgePrep<'a> {
    from: usize,
    prob: f64,
    payload: PreparedDist<'a>,
    transfer: TransferPrep<'a>,
    trans_k: f64,
    sns: f64,
    same: bool,
    egress_rate: f64,
    kv_from_w: f64,
    kv_to_r: f64,
    kv_sync: f64,
}

/// One node's execution site, resolved to what its draw reads.
enum ExecPrep<'a> {
    /// `LambdaRuntime::execute` on the profile's reference distribution.
    Model {
        cold_prob: f64,
        pf: f64,
        sigma: f64,
        base: PreparedDist<'a>,
        cold: PreparedDist<'a>,
    },
    /// A uniform pick from logged durations, times `scale`.
    Learned { samples: &'a [f64], scale: f64 },
}

/// External-data round-trip invariants (only present when the node runs
/// away from home with a positive external byte count).
struct ExtPrep<'a> {
    half: f64,
    out: TransferPrep<'a>,
    back: TransferPrep<'a>,
    trans_c: f64,
    cost: f64,
}

/// Per-node invariants of one (plan, hour).
struct NodePrep<'a> {
    exec: ExecPrep<'a>,
    ext: Option<ExtPrep<'a>>,
    /// `memory_mb / 1024`, the GB factor of Lambda billing.
    mem_gb: f64,
    gb_second: f64,
    per_request: f64,
    /// `vcpu_power_kw(util) × vcpus(mem)` (Eq. 7.3 × 7.4 coefficients).
    vpvc: f64,
    /// `P_MEM_KW_PER_GB × mem_gb` (Eq. 7.2 coefficient).
    pmem: f64,
    intensity: f64,
    sync: bool,
}

/// All per-(plan, hour) invariant tables of the batched path. Built once
/// per estimate call; every entry is produced by the same model functions
/// and learned-history lookups the scalar path calls per sample, so
/// reusing them changes no bits.
struct PlanPrep<'a> {
    entry: EntryPrep<'a>,
    edges: Vec<EdgePrep<'a>>,
    nodes: Vec<NodePrep<'a>>,
    jitter: f64,
    transition_mu: f64,
}

impl<S: CarbonDataSource, M: StageModels> MonteCarloEstimator<'_, S, M> {
    /// Runs the estimator for a deployment plan at a given hour.
    ///
    /// Dispatches to the batched fast path when the stage models are
    /// batchable and to the scalar reference path otherwise; the two are
    /// bit-identical, so callers never observe the difference.
    pub fn estimate(&self, plan: &DeploymentPlan, hour: f64, rng: &mut Pcg32) -> EstimateSummary {
        let mut scratch = EstimateScratch::new();
        self.estimate_with(plan, hour, rng, &mut scratch)
    }

    /// Like [`MonteCarloEstimator::estimate`], reusing caller-owned
    /// scratch so repeated estimates allocate nothing for node state or
    /// sample columns.
    pub fn estimate_with(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
    ) -> EstimateSummary {
        match self.models.batchable() {
            Some(m) => self.estimate_batched_impl(&m, plan, hour, rng, scratch, DEFAULT_LANES),
            None => self.estimate_scalar_with(plan, hour, rng, scratch),
        }
    }

    /// The scalar reference path: today's stream-per-candidate semantics,
    /// one sample at a time, convergence via full [`DistSummary`] passes.
    pub fn estimate_scalar(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
    ) -> EstimateSummary {
        let mut scratch = EstimateScratch::new();
        self.estimate_scalar_with(plan, hour, rng, &mut scratch)
    }

    /// The batched fast path at an explicit lane width (clamped to
    /// `1..=MAX_LANES`). Falls back to the scalar path when the models are
    /// not batchable. Bit-identical to [`MonteCarloEstimator::estimate_scalar`]
    /// at every width.
    pub fn estimate_batched(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        lanes: usize,
    ) -> EstimateSummary {
        let mut scratch = EstimateScratch::new();
        match self.models.batchable() {
            Some(m) => self.estimate_batched_impl(&m, plan, hour, rng, &mut scratch, lanes),
            None => self.estimate_scalar_with(plan, hour, rng, &mut scratch),
        }
    }

    fn estimate_scalar_with(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
    ) -> EstimateSummary {
        let n_nodes = self.dag.node_count();
        scratch.ensure_state(n_nodes);
        scratch.clear_columns();
        let mut exec_sum = 0.0;
        let mut trans_sum = 0.0;

        loop {
            for _ in 0..self.config.batch {
                let s = self.sample_once(plan, hour, rng, scratch);
                scratch.lat.push(s.latency);
                scratch.cost.push(s.cost);
                scratch.carb.push(s.carbon);
                exec_sum += s.exec_carbon;
                trans_sum += s.trans_carbon;
            }
            let latency = DistSummary::from_samples(&scratch.lat);
            let cost = DistSummary::from_samples(&scratch.cost);
            let carbon = DistSummary::from_samples(&scratch.carb);
            let converged = latency.rel_std_error() < self.config.cv_threshold
                && cost.rel_std_error() < self.config.cv_threshold
                && carbon.rel_std_error() < self.config.cv_threshold;
            if converged || scratch.lat.len() >= self.config.max_samples {
                let n = scratch.lat.len();
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::count("montecarlo.estimates.scalar", 1);
                    caribou_telemetry::count("montecarlo.batches", (n / self.config.batch) as u64);
                    caribou_telemetry::count("montecarlo.samples", n as u64);
                    let cv_at_stop = latency
                        .rel_std_error()
                        .max(cost.rel_std_error())
                        .max(carbon.rel_std_error());
                    caribou_telemetry::observe("montecarlo.cv_at_stop", cv_at_stop);
                    if !converged {
                        caribou_telemetry::count("montecarlo.sample_cap_hit", 1);
                    }
                }
                return EstimateSummary {
                    latency,
                    cost,
                    carbon,
                    exec_carbon_mean: exec_sum / n as f64,
                    trans_carbon_mean: trans_sum / n as f64,
                    samples: n,
                };
            }
        }
    }

    /// Simulates one complete workflow execution (scalar path).
    fn sample_once(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        bufs: &mut EstimateScratch,
    ) -> SamplePoint {
        let dag = self.dag;
        let n_nodes = dag.node_count();
        bufs.reset_state(n_nodes);
        let EstimateScratch {
            executed,
            finish,
            start: start_time,
            ..
        } = bufs;
        let mut cost = 0.0;
        let mut exec_carbon = 0.0;
        let mut trans_carbon = 0.0;

        // Client delivers the input to the start node from the home region.
        let start_node = dag.start();
        let start_region = plan.region_of(start_node);
        let input_bytes = self.profile.input_bytes.sample(rng);
        let mut t0 = self.models.sample_setup(rng);
        t0 += self
            .models
            .sample_transfer(self.home, start_region, input_bytes, rng);
        trans_carbon += self.carbon_model.transmission_carbon(
            input_bytes,
            endpoint_average(self.carbon_source, self.home, start_region, hour),
            self.home == start_region,
        );
        cost += self
            .cost_model
            .pricing()
            .egress_cost(self.home, start_region, input_bytes);
        // Entry wrapper fetches the deployment plan once.
        cost += self.cost_model.kv_cost(start_region, 1, 0);

        start_time[start_node.index()] = t0;
        executed[start_node.index()] = true;

        for &node in dag.topo_order() {
            let ni = node.index();
            if node != start_node {
                // Determine whether and when this node starts.
                let mut any_taken = false;
                let mut ready_at: f64 = 0.0;
                for &eid in dag.in_edges(node) {
                    let e = dag.edge(eid);
                    if !executed[e.from.index()] {
                        continue;
                    }
                    let taken = rng.chance(self.profile.edges[eid.index()].probability);
                    if !taken {
                        // Skip propagation: the predecessor writes the
                        // C=0 annotation; for sync nodes this is one
                        // atomic KV update.
                        if dag.is_sync_node(node) {
                            cost += self.cost_model.kv_cost(plan.region_of(e.from), 1, 1);
                        }
                        continue;
                    }
                    any_taken = true;
                    let payload = self.profile.edges[eid.index()].payload_bytes.sample(rng);
                    let from_r = plan.region_of(e.from);
                    let to_r = plan.region_of(node);
                    let arrive = finish[e.from.index()]
                        + self.models.sample_transition(rng)
                        + self.models.sample_transfer(from_r, to_r, payload, rng);
                    ready_at = ready_at.max(arrive);
                    // Invocation cost: SNS publish + payload egress.
                    cost += self.cost_model.invocation_cost(from_r, to_r, payload);
                    // Intermediate data passes through the KV store: one
                    // write by the predecessor, one read by the successor;
                    // sync nodes add the atomic annotation update.
                    cost += self.cost_model.kv_cost(from_r, 0, 1);
                    cost += self.cost_model.kv_cost(to_r, 1, 0);
                    if dag.is_sync_node(node) {
                        cost += self.cost_model.kv_cost(from_r, 1, 1);
                    }
                    trans_carbon += self.carbon_model.transmission_carbon(
                        payload,
                        endpoint_average(self.carbon_source, from_r, to_r, hour),
                        from_r == to_r,
                    );
                }
                if !any_taken {
                    continue;
                }
                start_time[ni] = ready_at;
                executed[ni] = true;
            }

            // Execute the node.
            let region = plan.region_of(node);
            let p = &self.profile.nodes[ni];
            let mut duration = self.models.sample_exec(ni, region, rng);
            // External data stays at the home region; offloaded stages pay
            // the round trip (§9.1).
            if region != self.home && p.external_data_bytes > 0.0 {
                let half = p.external_data_bytes / 2.0;
                duration += self.models.sample_transfer(region, self.home, half, rng)
                    + self.models.sample_transfer(self.home, region, half, rng);
                trans_carbon += self.carbon_model.transmission_carbon(
                    p.external_data_bytes,
                    endpoint_average(self.carbon_source, region, self.home, hour),
                    false,
                );
                cost +=
                    self.cost_model
                        .external_data_cost(region, self.home, p.external_data_bytes);
            }
            finish[ni] = start_time[ni] + duration;
            cost += self
                .cost_model
                .execution_cost(region, duration, p.memory_mb);
            exec_carbon += self.carbon_model.execution_carbon_params(
                p.memory_mb,
                duration,
                p.cpu_utilization,
                self.carbon_source.intensity(region, hour),
            );
        }

        let latency = dag
            .all_nodes()
            .filter(|nd| executed[nd.index()])
            .map(|nd| finish[nd.index()])
            .fold(0.0f64, f64::max);
        SamplePoint {
            latency,
            cost,
            carbon: exec_carbon + trans_carbon,
            exec_carbon,
            trans_carbon,
        }
    }

    /// Builds the per-(plan, hour) invariant tables. Every constant is
    /// produced by the same pure model functions the scalar path calls
    /// inside the sample loop, evaluated once.
    fn build_prep<'p>(
        &'p self,
        m: &DefaultModels<'p>,
        plan: &DeploymentPlan,
        hour: f64,
    ) -> PlanPrep<'p> {
        let dag = self.dag;
        let pricing = self.cost_model.pricing();
        let scenario = self.carbon_model.scenario;

        // The model-or-history choice is the stage models' own
        // (`learned_*`); this only records it per site.
        let transfer = |from: RegionId, to: RegionId| match self.models.learned_transfer(from, to) {
            Some(samples) => TransferPrep::Learned(samples),
            None => TransferPrep::Model {
                ow: m.latency.one_way(from, to),
                bw: m.latency.bandwidth_bps(from, to),
            },
        };

        let start_node = dag.start();
        let start_region = plan.region_of(start_node);
        let setup_median = m.orchestrator.invocation_setup_median_s();
        let entry = EntryPrep {
            input: self.profile.input_bytes.prepare(),
            setup: if setup_median == 0.0 {
                None
            } else {
                Some((setup_median.ln(), OVERHEAD_SIGMA))
            },
            transfer: transfer(self.home, start_region),
            trans_k: endpoint_average(self.carbon_source, self.home, start_region, hour)
                * scenario.factor(self.home == start_region),
            same: self.home == start_region,
            egress_rate: pricing.egress_rate_per_gb(self.home, start_region),
            kv: self.cost_model.kv_cost(start_region, 1, 0),
        };

        let edges = (0..dag.edge_count())
            .map(|ei| {
                let eid = caribou_model::dag::EdgeId(ei as u32);
                let e = dag.edge(eid);
                let from_r = plan.region_of(e.from);
                let to_r = plan.region_of(e.to);
                let pe = &self.profile.edges[ei];
                EdgePrep {
                    from: e.from.index(),
                    prob: pe.probability,
                    payload: pe.payload_bytes.prepare(),
                    transfer: transfer(from_r, to_r),
                    trans_k: endpoint_average(self.carbon_source, from_r, to_r, hour)
                        * scenario.factor(from_r == to_r),
                    sns: pricing.sns_cost(from_r, 1),
                    same: from_r == to_r,
                    egress_rate: pricing.egress_rate_per_gb(from_r, to_r),
                    kv_from_w: self.cost_model.kv_cost(from_r, 0, 1),
                    kv_to_r: self.cost_model.kv_cost(to_r, 1, 0),
                    kv_sync: self.cost_model.kv_cost(from_r, 1, 1),
                }
            })
            .collect();

        let nodes = dag
            .all_nodes()
            .map(|node| {
                let ni = node.index();
                let region = plan.region_of(node);
                let p = &self.profile.nodes[ni];
                let mp = &m.profile.nodes[ni];
                let ext = if region != self.home && p.external_data_bytes > 0.0 {
                    let half = p.external_data_bytes / 2.0;
                    Some(ExtPrep {
                        half,
                        out: transfer(region, self.home),
                        back: transfer(self.home, region),
                        trans_c: self.carbon_model.transmission_carbon(
                            p.external_data_bytes,
                            endpoint_average(self.carbon_source, region, self.home, hour),
                            false,
                        ),
                        cost: self.cost_model.external_data_cost(
                            region,
                            self.home,
                            p.external_data_bytes,
                        ),
                    })
                } else {
                    None
                };
                let rp = pricing.region(region);
                NodePrep {
                    exec: match self.models.learned_exec(ni, region) {
                        Some((samples, scale)) => ExecPrep::Learned { samples, scale },
                        None => ExecPrep::Model {
                            cold_prob: m.runtime.cold_start_prob,
                            pf: m.runtime.perf_factor(region),
                            sigma: m.runtime.exec_sigma,
                            base: mp.exec_time.prepare(),
                            cold: m.runtime.cold_start_for(region).prepare(),
                        },
                    },
                    ext,
                    mem_gb: p.memory_mb as f64 / 1024.0,
                    gb_second: rp.lambda_gb_second,
                    per_request: rp.lambda_per_request,
                    vpvc: energy::vcpu_power_kw(p.cpu_utilization) * vcpus(p.memory_mb),
                    pmem: energy::P_MEM_KW_PER_GB * (p.memory_mb as f64 / 1024.0),
                    intensity: self.carbon_source.intensity(region, hour),
                    sync: dag.is_sync_node(node),
                }
            })
            .collect();

        PlanPrep {
            entry,
            edges,
            nodes,
            jitter: m.latency.jitter_sigma,
            transition_mu: m.orchestrator.transition_overhead_median_s().ln(),
        }
    }

    fn estimate_batched_impl(
        &self,
        m: &DefaultModels<'_>,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
        lanes: usize,
    ) -> EstimateSummary {
        let lanes = lanes.clamp(1, MAX_LANES);
        let n_nodes = self.dag.node_count();
        scratch.ensure_state(n_nodes * lanes);
        scratch.clear_columns();
        let prep = self.build_prep(m, plan, hour);

        // Running left-fold sums; adding each sample in push order yields
        // exactly `samples.iter().sum::<f64>()` over any prefix.
        let mut lat_sum = 0.0;
        let mut cost_sum = 0.0;
        let mut carb_sum = 0.0;
        let mut exec_sum = 0.0;
        let mut trans_sum = 0.0;
        let mut lane_cost = [0.0f64; MAX_LANES];
        let mut lane_exec = [0.0f64; MAX_LANES];
        let mut lane_trans = [0.0f64; MAX_LANES];

        loop {
            let mut drawn = 0;
            while drawn < self.config.batch {
                let group = lanes.min(self.config.batch - drawn);
                scratch.reset_state(n_nodes * lanes);
                // Lane l of this group is sample `n + l`: lanes are filled
                // in ascending order on the single rng stream…
                for lane in 0..group {
                    let (c, ec, tc) = self.sample_lane(&prep, rng, scratch, lane, lanes);
                    lane_cost[lane] = c;
                    lane_exec[lane] = ec;
                    lane_trans[lane] = tc;
                }
                // …and folded in the same ascending order, so the metric
                // columns are in exact sample order at any lane width.
                for lane in 0..group {
                    let mut lat = 0.0f64;
                    for ni in 0..n_nodes {
                        let slot = ni * lanes + lane;
                        if scratch.executed[slot] {
                            lat = f64::max(lat, scratch.finish[slot]);
                        }
                    }
                    let cost = lane_cost[lane];
                    let exec_c = lane_exec[lane];
                    let trans_c = lane_trans[lane];
                    let carb = exec_c + trans_c;
                    scratch.lat.push(lat);
                    scratch.cost.push(cost);
                    scratch.carb.push(carb);
                    lat_sum += lat;
                    cost_sum += cost;
                    carb_sum += carb;
                    exec_sum += exec_c;
                    trans_sum += trans_c;
                }
                drawn += group;
            }

            let n = scratch.lat.len();
            let nf = n as f64;
            // Mean and variance exactly as DistSummary::from_samples
            // computes them, without the per-batch clone + sort.
            let stat = |col: &[f64], sum: f64| -> (f64, f64) {
                let mean = sum / nf;
                let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / nf;
                (mean, var)
            };
            let (lat_mean, lat_var) = stat(&scratch.lat, lat_sum);
            let (cost_mean, cost_var) = stat(&scratch.cost, cost_sum);
            let (carb_mean, carb_var) = stat(&scratch.carb, carb_sum);
            let rse = |mean: f64, var: f64| -> f64 {
                if mean.abs() < 1e-30 {
                    0.0
                } else {
                    var.sqrt() / (mean.abs() * nf.sqrt())
                }
            };
            let lat_rse = rse(lat_mean, lat_var);
            let cost_rse = rse(cost_mean, cost_var);
            let carb_rse = rse(carb_mean, carb_var);
            let converged = lat_rse < self.config.cv_threshold
                && cost_rse < self.config.cv_threshold
                && carb_rse < self.config.cv_threshold;
            if converged || n >= self.config.max_samples {
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::count("montecarlo.estimates.batched", 1);
                    caribou_telemetry::count("montecarlo.batches", (n / self.config.batch) as u64);
                    caribou_telemetry::count("montecarlo.samples", n as u64);
                    caribou_telemetry::observe(
                        "montecarlo.cv_at_stop",
                        lat_rse.max(cost_rse).max(carb_rse),
                    );
                    if !converged {
                        caribou_telemetry::count("montecarlo.sample_cap_hit", 1);
                    }
                }
                let mut summarize = |col: &[f64], mean: f64, var: f64| -> DistSummary {
                    scratch.sort.clear();
                    scratch.sort.extend_from_slice(col);
                    scratch.sort.sort_by(f64::total_cmp);
                    DistSummary {
                        mean,
                        p95: percentile_sorted(&scratch.sort, 0.95),
                        std_dev: var.sqrt(),
                        n,
                    }
                };
                // The columns live in `scratch` next to `sort`; split the
                // borrows manually.
                let (lat_col, cost_col, carb_col) = (
                    std::mem::take(&mut scratch.lat),
                    std::mem::take(&mut scratch.cost),
                    std::mem::take(&mut scratch.carb),
                );
                let latency = summarize(&lat_col, lat_mean, lat_var);
                let cost = summarize(&cost_col, cost_mean, cost_var);
                let carbon = summarize(&carb_col, carb_mean, carb_var);
                scratch.lat = lat_col;
                scratch.cost = cost_col;
                scratch.carb = carb_col;
                return EstimateSummary {
                    latency,
                    cost,
                    carbon,
                    exec_carbon_mean: exec_sum / nf,
                    trans_carbon_mean: trans_sum / nf,
                    samples: n,
                };
            }
        }
    }

    /// Draws one complete execution into lane `lane` of the SoA node-state
    /// columns, mirroring [`MonteCarloEstimator::sample_once`] operation
    /// for operation (same draws, same arithmetic, same order) with the
    /// per-(plan, hour) invariants read from `prep`. Returns
    /// `(cost, exec_carbon, trans_carbon)`; the latency fold happens in the
    /// group fold loop.
    fn sample_lane(
        &self,
        prep: &PlanPrep<'_>,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
        lane: usize,
        lanes: usize,
    ) -> (f64, f64, f64) {
        let dag = self.dag;
        let EstimateScratch {
            executed,
            finish,
            start: start_time,
            ..
        } = scratch;
        let mut cost = 0.0;
        let mut exec_carbon = 0.0;
        let mut trans_carbon = 0.0;

        let start_node = dag.start();
        let e = &prep.entry;
        let input_bytes = e.input.sample(rng);
        let mut t0 = match e.setup {
            None => 0.0,
            Some((mu, sigma)) => rng.lognormal(mu, sigma),
        };
        t0 += e.transfer.sample(input_bytes, prep.jitter, rng);
        trans_carbon += e.trans_k * (input_bytes.max(0.0) / 1.0e9);
        cost += if e.same {
            0.0
        } else {
            (input_bytes.max(0.0) / 1.0e9) * e.egress_rate
        };
        cost += e.kv;

        start_time[start_node.index() * lanes + lane] = t0;
        executed[start_node.index() * lanes + lane] = true;

        for &node in dag.topo_order() {
            let ni = node.index();
            let np = &prep.nodes[ni];
            if node != start_node {
                let mut any_taken = false;
                let mut ready_at: f64 = 0.0;
                for &eid in dag.in_edges(node) {
                    let ep = &prep.edges[eid.index()];
                    if !executed[ep.from * lanes + lane] {
                        continue;
                    }
                    let taken = rng.chance(ep.prob);
                    if !taken {
                        if np.sync {
                            cost += ep.kv_sync;
                        }
                        continue;
                    }
                    any_taken = true;
                    let payload = ep.payload.sample(rng);
                    let arrive = finish[ep.from * lanes + lane]
                        + rng.lognormal(prep.transition_mu, OVERHEAD_SIGMA)
                        + ep.transfer.sample(payload, prep.jitter, rng);
                    ready_at = ready_at.max(arrive);
                    cost += ep.sns
                        + if ep.same {
                            0.0
                        } else {
                            (payload.max(0.0) / 1.0e9) * ep.egress_rate
                        };
                    cost += ep.kv_from_w;
                    cost += ep.kv_to_r;
                    if np.sync {
                        cost += ep.kv_sync;
                    }
                    trans_carbon += ep.trans_k * (payload.max(0.0) / 1.0e9);
                }
                if !any_taken {
                    continue;
                }
                start_time[ni * lanes + lane] = ready_at;
                executed[ni * lanes + lane] = true;
            }

            // Execute the node: same draw order as LambdaRuntime::execute,
            // or the one pick a learned distribution takes.
            let mut duration = match &np.exec {
                ExecPrep::Model {
                    cold_prob,
                    pf,
                    sigma,
                    base,
                    cold,
                } => {
                    let is_cold = rng.chance(*cold_prob);
                    let base = base.sample(rng).max(0.0);
                    let noise = rng.lognormal(0.0, *sigma);
                    let compute_s = base * pf * noise;
                    let cold_s = if is_cold {
                        cold.sample(rng).max(0.0)
                    } else {
                        0.0
                    };
                    compute_s + cold_s
                }
                ExecPrep::Learned { samples, scale } => {
                    *rng.choose(samples).expect("non-empty history") * scale
                }
            };
            if let Some(ext) = &np.ext {
                duration += ext.out.sample(ext.half, prep.jitter, rng)
                    + ext.back.sample(ext.half, prep.jitter, rng);
                trans_carbon += ext.trans_c;
                cost += ext.cost;
            }
            finish[ni * lanes + lane] = start_time[ni * lanes + lane] + duration;
            // Lambda billing, ceil to the next millisecond (lambda_cost).
            let billed = (duration * 1000.0).ceil() / 1000.0;
            cost += billed * np.mem_gb * np.gb_second + np.per_request;
            // Execution carbon (Eqs. 7.1–7.4 with per-draw-invariant
            // coefficients hoisted).
            let proc = np.vpvc * duration / 3600.0;
            let memv = np.pmem * duration / 3600.0;
            exec_carbon += np.intensity * ((proc + memv) * energy::PUE);
        }

        (cost, exec_carbon, trans_carbon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carbonmodel::TransmissionScenario;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_model::builder::Workflow;
    use caribou_model::dist::DistSpec;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::pricing::PricingCatalog;

    struct Fixture {
        cat: RegionCatalog,
        pricing: PricingCatalog,
        runtime: LambdaRuntime,
        latency: LatencyModel,
        carbon: TableSource,
    }

    fn fixture() -> Fixture {
        let cat = RegionCatalog::aws_default();
        let pricing = PricingCatalog::aws_default(&cat);
        let mut runtime = LambdaRuntime::aws_default(&cat);
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        let latency = LatencyModel::from_catalog(&cat);
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "ca-central-1" => 32.0,
                _ => 300.0,
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }
        Fixture {
            cat,
            pricing,
            runtime,
            latency,
            carbon,
        }
    }

    /// A fixture with the stochastic execution knobs left on, so the
    /// batched path must reproduce cold starts and execution noise too.
    fn noisy_fixture() -> Fixture {
        let mut fx = fixture();
        fx.runtime = LambdaRuntime::aws_default(&fx.cat);
        fx
    }

    fn chain_workflow(exec_s: f64) -> (caribou_model::WorkflowDag, WorkflowProfile) {
        let mut wf = Workflow::new("chain", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: exec_s })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: exec_s })
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 10_000.0 });
        wf.set_input(DistSpec::Constant { value: 1000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    fn estimate(
        fx: &Fixture,
        dag: &caribou_model::WorkflowDag,
        profile: &WorkflowProfile,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> EstimateSummary {
        let models = DefaultModels {
            profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let est = MonteCarloEstimator {
            dag,
            profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            home: fx.cat.id_of("us-east-1").unwrap(),
            config: MonteCarloConfig::default(),
        };
        est.estimate(plan, 0.5, &mut Pcg32::seed(seed))
    }

    fn assert_bits_eq(a: &EstimateSummary, b: &EstimateSummary) {
        let d = |x: &DistSummary, y: &DistSummary| {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "mean");
            assert_eq!(x.p95.to_bits(), y.p95.to_bits(), "p95");
            assert_eq!(x.std_dev.to_bits(), y.std_dev.to_bits(), "std_dev");
            assert_eq!(x.n, y.n, "n");
        };
        d(&a.latency, &b.latency);
        d(&a.cost, &b.cost);
        d(&a.carbon, &b.carbon);
        assert_eq!(a.exec_carbon_mean.to_bits(), b.exec_carbon_mean.to_bits());
        assert_eq!(a.trans_carbon_mean.to_bits(), b.trans_carbon_mean.to_bits());
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn chain_latency_close_to_sum_of_stages() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(2.0);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(2, home);
        let s = estimate(&fx, &dag, &profile, &plan, 1);
        // Two 2 s stages plus small overheads.
        assert!(
            (4.0..4.6).contains(&s.latency.mean),
            "latency {}",
            s.latency.mean
        );
        assert!(s.samples >= 200);
    }

    #[test]
    fn offloading_to_clean_region_cuts_carbon() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(5.0);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let ca = fx.cat.id_of("ca-central-1").unwrap();
        let home_plan = DeploymentPlan::uniform(2, home);
        let ca_plan = DeploymentPlan::uniform(2, ca);
        let s_home = estimate(&fx, &dag, &profile, &home_plan, 2);
        let s_ca = estimate(&fx, &dag, &profile, &ca_plan, 3);
        assert!(
            s_ca.carbon.mean < s_home.carbon.mean * 0.3,
            "home {} ca {}",
            s_home.carbon.mean,
            s_ca.carbon.mean
        );
        // But latency grows (cross-region hops).
        assert!(s_ca.latency.mean > s_home.latency.mean);
    }

    #[test]
    fn conditional_edge_reduces_mean_latency() {
        let fx = fixture();
        let build = |prob: Option<f64>| {
            let mut wf = Workflow::new("cond", "0.1");
            let a = wf
                .serverless_function("A")
                .exec_time(DistSpec::Constant { value: 1.0 })
                .register();
            let b = wf
                .serverless_function("B")
                .exec_time(DistSpec::Constant { value: 4.0 })
                .register();
            wf.invoke(a, b, prob);
            let (dag, profile, _) = wf.extract().unwrap();
            (dag, profile)
        };
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(2, home);
        let (dag_always, prof_always) = build(None);
        let (dag_rare, prof_rare) = build(Some(0.1));
        let s_always = estimate(&fx, &dag_always, &prof_always, &plan, 4);
        let s_rare = estimate(&fx, &dag_rare, &prof_rare, &plan, 5);
        assert!(
            s_rare.latency.mean < s_always.latency.mean - 2.0,
            "rare {} always {}",
            s_rare.latency.mean,
            s_always.latency.mean
        );
        assert!(s_rare.cost.mean < s_always.cost.mean);
    }

    #[test]
    fn sync_node_waits_for_slowest_branch() {
        let fx = fixture();
        let mut wf = Workflow::new("join", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 0.5 })
            .register();
        let fast = wf
            .serverless_function("Fast")
            .exec_time(DistSpec::Constant { value: 0.5 })
            .register();
        let slow = wf
            .serverless_function("Slow")
            .exec_time(DistSpec::Constant { value: 5.0 })
            .register();
        let join = wf
            .serverless_function("Join")
            .exec_time(DistSpec::Constant { value: 0.5 })
            .register();
        wf.invoke(a, fast, None);
        wf.invoke(a, slow, None);
        wf.invoke(fast, join, None);
        wf.invoke(slow, join, None);
        wf.get_predecessor_data(join);
        let (dag, profile, _) = wf.extract().unwrap();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(4, home);
        let s = estimate(&fx, &dag, &profile, &plan, 6);
        // Critical path = 0.5 + 5.0 + 0.5 plus overheads; the fast branch
        // must not shorten it.
        assert!(s.latency.mean > 5.9, "latency {}", s.latency.mean);
        assert!(s.latency.mean < 6.8, "latency {}", s.latency.mean);
    }

    #[test]
    fn transmission_carbon_separated_from_execution() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let west = fx.cat.id_of("us-west-2").unwrap();
        let mut plan = DeploymentPlan::uniform(2, home);
        plan.set(caribou_model::dag::NodeId(1), west);
        let s = estimate(&fx, &dag, &profile, &plan, 7);
        assert!(s.exec_carbon_mean > 0.0);
        assert!(s.trans_carbon_mean > 0.0);
        assert!(
            (s.exec_carbon_mean + s.trans_carbon_mean - s.carbon.mean).abs() / s.carbon.mean < 0.05
        );
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let plan = DeploymentPlan::uniform(2, fx.cat.id_of("us-east-1").unwrap());
        let a = estimate(&fx, &dag, &profile, &plan, 42);
        let b = estimate(&fx, &dag, &profile, &plan, 42);
        assert_eq!(a.latency.mean, b.latency.mean);
        assert_eq!(a.carbon.mean, b.carbon.mean);
    }

    #[test]
    fn stopping_rule_caps_at_max_samples() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let plan = DeploymentPlan::uniform(2, fx.cat.id_of("us-east-1").unwrap());
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let est = MonteCarloEstimator {
            dag: &dag,
            profile: &profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            home: fx.cat.id_of("us-east-1").unwrap(),
            config: MonteCarloConfig {
                batch: 100,
                max_samples: 300,
                cv_threshold: 0.0, // never converges
            },
        };
        let s = est.estimate(&plan, 0.5, &mut Pcg32::seed(1));
        assert_eq!(s.samples, 300);
    }

    #[test]
    fn node_state_buffers_reused_across_samples() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let plan = DeploymentPlan::uniform(2, fx.cat.id_of("us-east-1").unwrap());
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let s = estimate(&fx, &dag, &profile, &plan, 8);
        let session = caribou_telemetry::finish().unwrap();
        let allocs = session.recorder.counter("montecarlo.node_state_allocs");
        let samples = session.recorder.counter("montecarlo.samples");
        assert!(samples >= 200, "samples {samples}");
        assert_eq!(s.samples as u64, samples);
        // One buffer set per estimate call — not 3 allocations per sample
        // as before the hoist.
        assert_eq!(allocs, 3, "allocs {allocs} for {samples} samples");
    }

    #[test]
    fn buffer_reuse_preserves_per_seed_results() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.5);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let west = fx.cat.id_of("us-west-2").unwrap();
        let mut plan = DeploymentPlan::uniform(2, home);
        plan.set(caribou_model::dag::NodeId(1), west);
        // Conditional skips leave stale state in naive buffer reuse; two
        // runs from the same seed must still agree bit for bit.
        let a = estimate(&fx, &dag, &profile, &plan, 21);
        let b = estimate(&fx, &dag, &profile, &plan, 21);
        assert_eq!(a, b);
    }

    /// Builds a branchy workflow exercising conditional edges, sync nodes,
    /// external data, empirical and log-normal distributions — every code
    /// path the prepared sampler must reproduce.
    fn gnarly_workflow() -> (caribou_model::WorkflowDag, WorkflowProfile) {
        let mut wf = Workflow::new("gnarly", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::LogNormal {
                median: 0.4,
                sigma: 0.3,
            })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Empirical {
                samples: vec![0.2, 0.5, 0.9, 1.4],
            })
            .external_data_bytes(2.0e6)
            .register();
        let c = wf
            .serverless_function("C")
            .exec_time(DistSpec::Uniform { lo: 0.1, hi: 0.6 })
            .register();
        let join = wf
            .serverless_function("Join")
            .exec_time(DistSpec::Normal {
                mean: 0.3,
                std_dev: 0.2,
            })
            .register();
        wf.invoke(a, b, Some(0.7)).payload(DistSpec::LogNormal {
            median: 40_000.0,
            sigma: 0.5,
        });
        wf.invoke(a, c, Some(0.8));
        wf.invoke(b, join, None);
        wf.invoke(c, join, None);
        wf.get_predecessor_data(join);
        wf.set_input(DistSpec::Uniform {
            lo: 500.0,
            hi: 5_000.0,
        });
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    #[test]
    fn batched_bit_identical_to_scalar_at_every_lane_width() {
        let fx = noisy_fixture();
        let (dag, profile) = gnarly_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let west = fx.cat.id_of("us-west-2").unwrap();
        let ca = fx.cat.id_of("ca-central-1").unwrap();
        let mut plan = DeploymentPlan::uniform(dag.node_count(), home);
        plan.set(caribou_model::dag::NodeId(1), west);
        plan.set(caribou_model::dag::NodeId(2), ca);
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let est = MonteCarloEstimator {
            dag: &dag,
            profile: &profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::WORST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            home,
            config: MonteCarloConfig::default(),
        };
        for seed in [1u64, 7, 42] {
            let scalar = est.estimate_scalar(&plan, 12.5, &mut Pcg32::seed(seed));
            for lanes in [1usize, 4, 8, 16] {
                let batched = est.estimate_batched(&plan, 12.5, &mut Pcg32::seed(seed), lanes);
                assert_bits_eq(&scalar, &batched);
            }
            // The dispatching entry point takes the batched path here and
            // must agree too.
            let dispatched = est.estimate(&plan, 12.5, &mut Pcg32::seed(seed));
            assert_bits_eq(&scalar, &dispatched);
        }
    }

    #[test]
    fn batched_handles_ragged_tail_batches() {
        let fx = noisy_fixture();
        let (dag, profile) = gnarly_workflow();
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(dag.node_count(), home);
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        // 50 % 16 = 2: the final lane group of every batch is ragged.
        let est = MonteCarloEstimator {
            dag: &dag,
            profile: &profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            home,
            config: MonteCarloConfig {
                batch: 50,
                max_samples: 250,
                cv_threshold: 0.0,
            },
        };
        let scalar = est.estimate_scalar(&plan, 3.25, &mut Pcg32::seed(9));
        assert_eq!(scalar.samples, 250);
        for lanes in [4usize, 8, 16] {
            let batched = est.estimate_batched(&plan, 3.25, &mut Pcg32::seed(9), lanes);
            assert_bits_eq(&scalar, &batched);
        }
    }

    #[test]
    fn scratch_reuse_allocates_node_state_once() {
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(2, home);
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let est = MonteCarloEstimator {
            dag: &dag,
            profile: &profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            home,
            config: MonteCarloConfig::default(),
        };
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let mut scratch = EstimateScratch::new();
        let mut fresh = est.estimate(&plan, 0.5, &mut Pcg32::seed(11));
        for _ in 0..5 {
            let reused = est.estimate_with(&plan, 0.5, &mut Pcg32::seed(11), &mut scratch);
            assert_bits_eq(&fresh, &reused);
            fresh = reused;
        }
        let session = caribou_telemetry::finish().unwrap();
        let allocs = session.recorder.counter("montecarlo.node_state_allocs");
        // One set for the fresh call, one for the reused scratch's first
        // use; the five reuses add nothing.
        assert_eq!(allocs, 6, "allocs {allocs}");
    }

    #[test]
    fn non_batchable_models_fall_back_to_scalar() {
        struct Flat;
        impl StageModels for Flat {
            fn sample_exec(&self, _: usize, _: RegionId, rng: &mut Pcg32) -> f64 {
                rng.uniform(0.5, 1.5)
            }
            fn sample_transfer(&self, _: RegionId, _: RegionId, _: f64, rng: &mut Pcg32) -> f64 {
                rng.uniform(0.001, 0.01)
            }
            fn sample_transition(&self, rng: &mut Pcg32) -> f64 {
                rng.uniform(0.0, 0.001)
            }
            fn sample_setup(&self, _: &mut Pcg32) -> f64 {
                0.0
            }
        }
        let fx = fixture();
        let (dag, profile) = chain_workflow(1.0);
        let home = fx.cat.id_of("us-east-1").unwrap();
        let plan = DeploymentPlan::uniform(2, home);
        let est = MonteCarloEstimator {
            dag: &dag,
            profile: &profile,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &Flat,
            home,
            config: MonteCarloConfig::default(),
        };
        let scalar = est.estimate_scalar(&plan, 0.5, &mut Pcg32::seed(3));
        let dispatched = est.estimate(&plan, 0.5, &mut Pcg32::seed(3));
        let batched = est.estimate_batched(&plan, 0.5, &mut Pcg32::seed(3), 8);
        assert_bits_eq(&scalar, &dispatched);
        assert_bits_eq(&scalar, &batched);
    }
}
