//! The per-invocation execution engine.
//!
//! Executes one workflow invocation end-to-end against the simulated
//! cloud: pub/sub hops between stages, KV-store intermediate data,
//! synchronization-node annotations with condition (4.1), conditional-edge
//! skip propagation, external-data anchoring at the home region, and full
//! usage metering. The engine is also used for the orchestration baselines
//! of §9.6 (Step Functions and raw SNS), which differ only in transition
//! mechanics.

use caribou_carbon::route::endpoint_mean;
use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::carbonmodel::CarbonModel;
use caribou_metrics::logs::{EdgeRecord, InvocationLog, NodeRecord};
use caribou_model::dag::{EdgeId, NodeId, WorkflowDag};
use caribou_model::intern::IStr;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::blob::ObjectKey;
use caribou_simcloud::clock::EventQueue;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::kv::ItemAddr;
use caribou_simcloud::meter::UsageMeter;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::Usage;
use caribou_simcloud::pubsub::{Delivery, DeliveryStatus};

use crate::layout::{self, AddressBook, SyncLabel};
use crate::outcome::ExecutionOutcome;

/// A deployable workflow application: DAG, profile, and home region.
#[derive(Debug, Clone)]
pub struct WorkflowApp {
    /// Workflow name (topic and table namespace). Interned: stamping it
    /// onto per-invocation logs is a refcount bump, not an allocation.
    pub name: IStr,
    /// The workflow DAG.
    pub dag: WorkflowDag,
    /// The workload resource profile.
    pub profile: WorkflowProfile,
    /// Home region.
    pub home: RegionId,
}

/// The execution engine, parameterized by the carbon data source used for
/// emission accounting.
#[derive(Debug, Clone)]
pub struct ExecutionEngine<'a, S: CarbonDataSource> {
    /// Carbon data used to account (not to decide) emissions.
    pub carbon_source: &'a S,
    /// Carbon model with the transmission scenario.
    pub carbon_model: CarbonModel,
    /// Orchestration mechanism.
    pub orchestrator: Orchestrator,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EdgeState {
    Undecided,
    /// The edge's condition is decided: whether it fired, the simulation
    /// time the decision (annotation) completed, and the writer's region.
    Decided {
        taken: bool,
        at: f64,
        writer: RegionId,
    },
}

impl EdgeState {
    fn is_decided(&self) -> bool {
        !matches!(self, EdgeState::Undecided)
    }

    fn is_taken(&self) -> bool {
        matches!(self, EdgeState::Decided { taken: true, .. })
    }
}

/// Zero bytes backing simulated small-payload KV items: the engine only
/// models payload *sizes*, so every invocation can share one static
/// buffer instead of allocating a fresh `Vec` per intermediate write.
static ZERO_PAYLOAD: [u8; 4096] = [0u8; 4096];

/// Sync nodes with at most this many predecessors use pre-built static
/// annotation strings (beyond it the atomic update allocates as before).
const ANN_MAX: usize = 8;

/// Byte offset of the length-`len` block in [`ANN_TABLE`].
const fn ann_offset(len: usize) -> usize {
    let mut off = 0;
    let mut l = 1;
    while l < len {
        off += l * (1 << l);
        l += 1;
    }
    off
}

/// Every `'0'`/`'1'` string of length 1..=[`ANN_MAX`], flattened. The
/// synchronization-node annotation of §4 is such a string (one character
/// per decided in-edge), so the atomic read-modify-write can return a
/// `Bytes::from_static` slice into this table instead of allocating — the
/// value bytes are identical to the formerly heap-built string, which
/// matters because the value *length* feeds the KV operation's modeled
/// transfer latency.
static ANN_TABLE: [u8; ann_offset(ANN_MAX + 1)] = {
    let mut t = [0u8; ann_offset(ANN_MAX + 1)];
    let mut len = 1;
    while len <= ANN_MAX {
        let base = ann_offset(len);
        let mut bits = 0usize;
        while bits < (1 << len) {
            let mut i = 0;
            while i < len {
                // The first-written annotation is the most significant bit.
                t[base + bits * len + i] = b'0' + ((bits >> (len - 1 - i)) & 1) as u8;
                i += 1;
            }
            bits += 1;
        }
        len += 1;
    }
    t
};

/// The static annotation string for `bits` (MSB-first) of length `len`.
fn ann_static(len: usize, bits: usize) -> &'static [u8] {
    let base = ann_offset(len) + bits * len;
    &ANN_TABLE[base..base + len]
}

/// Reusable per-invocation buffers.
///
/// One invocation needs a handful of DAG-sized vectors, an event queue,
/// the addresses of the topics, tables and warm containers it touches, the
/// app's distributions prepared for drawing, and each region's carbon
/// intensity at its hour. Allocating and resolving them fresh for
/// every invocation dominates the profile under sustained load (`caribou
/// loadgen`), so callers that execute many invocations hold one
/// `InvocationScratch` and pass it to
/// [`ExecutionEngine::invoke_with_scratch`]; buffers are cleared, not
/// dropped, between invocations, and the address book outlives them (it
/// rebinds itself when the cloud, the workflow or its profile changes).
/// [`ExecutionEngine::invoke`] builds a throwaway scratch to keep the
/// one-shot API unchanged.
#[derive(Debug, Default)]
pub struct InvocationScratch {
    overrides: Vec<Option<RegionId>>,
    edge_state: Vec<EdgeState>,
    node_started: Vec<bool>,
    node_dead: Vec<bool>,
    queue: EventQueue<NodeId>,
    book: AddressBook,
    /// Per region, the grid's intensity at this invocation's hour; NaN
    /// until first asked for.
    intensity: Vec<f64>,
    /// The invocation's bill, reset at every invocation.
    meter: UsageMeter,
}

impl InvocationScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The usage the last invocation run on this scratch billed.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// Resets the buffers for a workflow of `nodes`/`edges` size on a
    /// catalog of `regions` regions and returns how many of the pooled
    /// vectors had to (re)allocate — zero once the scratch is warm for a
    /// workflow shape.
    fn prepare(&mut self, nodes: usize, edges: usize, regions: usize) -> u64 {
        fn refill<T: Clone>(v: &mut Vec<T>, len: usize, val: T, grew: &mut u64) {
            let cap = v.capacity();
            v.clear();
            v.resize(len, val);
            if v.capacity() != cap {
                *grew += 1;
            }
        }
        let mut grew = 0u64;
        refill(&mut self.overrides, nodes, None, &mut grew);
        refill(&mut self.edge_state, edges, EdgeState::Undecided, &mut grew);
        refill(&mut self.node_started, nodes, false, &mut grew);
        refill(&mut self.node_dead, nodes, false, &mut grew);
        refill(&mut self.intensity, regions, f64::NAN, &mut grew);
        self.queue.clear();
        self.meter.reset();
        grew
    }
}

struct InvocationCtx<'c, 'a, S: CarbonDataSource> {
    engine: &'c ExecutionEngine<'a, S>,
    cloud: &'c mut SimCloud,
    app: &'c WorkflowApp,
    plan: &'c DeploymentPlan,
    inv_id: u64,
    hour: f64,
    at_s: f64,
    rng: &'c mut Pcg32,
    exec_carbon: f64,
    trans_carbon: f64,
    completed: bool,
    /// Number of nodes re-routed to the home deployment this invocation.
    failovers: u32,
    /// Number of nodes that executed with a cold start this invocation.
    cold_starts: u32,
    /// First region observed failing (outage, partition, or dead-letter
    /// target); feeds the router's per-region circuit breaker.
    failed_region: Option<RegionId>,
    /// Pooled buffers (region overrides, edge/node state, event queue,
    /// address book, intensity memo), prepared by the caller.
    scratch: &'c mut InvocationScratch,
    node_records: Vec<NodeRecord>,
    edge_records: Vec<EdgeRecord>,
}

impl<S: CarbonDataSource> ExecutionEngine<'_, S> {
    /// Ensures topics and tables exist for the regions a plan uses. The
    /// Deployment Utility/Migrator normally guarantees this (§6.1); tests
    /// and single-shot runs call it directly.
    pub fn provision(&self, cloud: &mut SimCloud, app: &WorkflowApp, plan: &DeploymentPlan) {
        // The home deployment always exists (§6.1): mid-flight failover
        // publishes to the home topic, so it is deployed alongside the
        // plan's regions even when the plan never uses home.
        layout::deploy_region(cloud, app, app.home);
        for region in plan.regions_used() {
            if region != app.home {
                layout::deploy_region(cloud, app, region);
            }
        }
        cloud.kv.create_table(layout::META_TABLE, app.home);
    }

    /// Executes one invocation under `plan` starting at simulation time
    /// `at_s`, returning the outcome and its log.
    ///
    /// Builds throwaway scratch buffers; callers running many invocations
    /// should hold an [`InvocationScratch`] and use
    /// [`ExecutionEngine::invoke_with_scratch`] instead.
    pub fn invoke(
        &self,
        cloud: &mut SimCloud,
        app: &WorkflowApp,
        plan: &DeploymentPlan,
        inv_id: u64,
        at_s: f64,
        rng: &mut Pcg32,
    ) -> ExecutionOutcome {
        let mut scratch = InvocationScratch::new();
        self.invoke_with_scratch(cloud, app, plan, inv_id, at_s, rng, &mut scratch)
    }

    /// [`ExecutionEngine::invoke`] with caller-pooled buffers: identical
    /// results, but the per-invocation vectors and event queue are reused
    /// across calls instead of reallocated, topics, tables and warm slots
    /// are resolved once instead of named per operation, and the app's
    /// distributions are prepared once instead of per draw.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke_with_scratch(
        &self,
        cloud: &mut SimCloud,
        app: &WorkflowApp,
        plan: &DeploymentPlan,
        inv_id: u64,
        at_s: f64,
        rng: &mut Pcg32,
        scratch: &mut InvocationScratch,
    ) -> ExecutionOutcome {
        assert_eq!(
            plan.len(),
            app.dag.node_count(),
            "plan does not cover the workflow"
        );
        let hour = at_s / 3600.0;
        let n = app.dag.node_count();
        let grew = scratch.prepare(n, app.dag.edge_count(), cloud.regions.len());
        scratch.book.bind(cloud, app);
        // Windowed faults (partitions, gray failures, throttles) are
        // evaluated at the invocation's start time.
        cloud.set_fault_now(at_s);
        let mut ctx = InvocationCtx {
            engine: self,
            cloud,
            app,
            plan,
            inv_id,
            hour,
            at_s,
            rng,
            exec_carbon: 0.0,
            trans_carbon: 0.0,
            completed: true,
            failovers: 0,
            cold_starts: 0,
            failed_region: None,
            scratch,
            node_records: Vec::with_capacity(n),
            edge_records: Vec::with_capacity(app.dag.edge_count()),
        };
        ctx.run();
        let e2e = ctx
            .node_records
            .iter()
            .map(|r| r.start_s + r.duration_s)
            .fold(0.0f64, f64::max);
        let meter = &ctx.scratch.meter;
        let cost = meter.cost(&ctx.cloud.pricing);
        let sns: f64 = meter
            .usage
            .iter()
            .map(|row| row[Usage::SnsPublishes as usize])
            .sum();
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::event_at(at_s, "exec.invocation", &app.name, e2e);
            caribou_telemetry::span_at("invocation", &app.name, at_s, e2e, inv_id, "invocation");
            // The two log-record vectors are handed to the caller, so they
            // are inherently fresh; everything else comes from the scratch.
            caribou_telemetry::count("engine.scratch_allocs", grew);
            caribou_telemetry::gauge("engine.alloc_per_invocation", (grew + 2) as f64);
            // Per-phase breakdown of the same budget: the two log-record
            // vectors handed to the caller, plus pooled-buffer growth.
            caribou_telemetry::gauge("engine.alloc_per_invocation.log_records", 2.0);
            caribou_telemetry::gauge("engine.alloc_per_invocation.scratch", grew as f64);
            if !ctx.completed {
                caribou_telemetry::count("exec.incomplete", 1);
            }
            if ctx.failovers > 0 {
                caribou_telemetry::count("failover.invocations", 1);
            }
        }
        ExecutionOutcome {
            log: InvocationLog {
                at_s,
                benchmark_traffic: false,
                nodes: ctx.node_records,
                edges: ctx.edge_records,
            },
            e2e_latency_s: e2e,
            cost_usd: cost,
            exec_carbon_g: ctx.exec_carbon,
            trans_carbon_g: ctx.trans_carbon,
            sns_publishes: sns as u64,
            completed: ctx.completed,
            failovers: ctx.failovers,
            cold_starts: ctx.cold_starts,
            failed_region: ctx.failed_region,
        }
    }
}

impl<S: CarbonDataSource> InvocationCtx<'_, '_, S> {
    /// Effective region of a node: the failover override when one was
    /// installed, otherwise the plan's assignment.
    fn region_of(&self, node: NodeId) -> RegionId {
        self.scratch.overrides[node.index()].unwrap_or_else(|| self.plan.region_of(node))
    }

    /// Publishes the invocation message for `node` from `from`, metering
    /// the publish (rejected topic-missing calls are not billed).
    fn publish_to(&mut self, node: NodeId, from: RegionId, payload_bytes: f64) -> Delivery {
        let region = self.region_of(node);
        let (pubsub, lm) = (&mut self.cloud.pubsub, &self.cloud.latency);
        let delivery = match self.scratch.book.topic(pubsub, self.app, node, region) {
            Ok(topic) => pubsub.publish_to(topic, from, payload_bytes, lm, self.rng),
            // Never deployed there: the by-name call rejects it.
            Err(name) => pubsub.publish(&name, from, payload_bytes, lm, self.rng),
        };
        if delivery.status != DeliveryStatus::TopicMissing {
            self.scratch.meter.record(from, Usage::SnsPublishes, 1.0);
        }
        delivery
    }

    /// §6.1 graceful degradation: re-routes `node` to the home deployment
    /// (which always exists) after the region it was to run in failed, and
    /// re-publishes the invocation message to the home topic. Returns the
    /// failover publish's latency; `None` when the node already runs at
    /// home, home is down, or the failover publish itself is lost — the
    /// invocation has then failed. Always records the failed region so
    /// the router's circuit breaker hears about it either way.
    fn fail_over_home(&mut self, node: NodeId, from: RegionId, bytes: f64, t: f64) -> Option<f64> {
        let failed = self.region_of(node);
        self.failed_region.get_or_insert(failed);
        let home = self.app.home;
        if failed != home && !self.cloud.faults.region_down(home, self.at_s + t) {
            self.scratch.overrides[node.index()] = Some(home);
            let delivery = self.publish_to(node, from, bytes);
            if delivery.delivered() {
                self.failovers += 1;
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event_at(
                        self.at_s + t,
                        "failover.reroute",
                        format!("n{} r{}->r{}", node.0, failed.0, home.0),
                        delivery.latency_s,
                    );
                }
                return Some(delivery.latency_s);
            }
        }
        self.completed = false;
        None
    }

    /// Publishes `node`'s invocation message from `from` at `t` and, when
    /// it is lost (outage, partition, dead letter), fails over home.
    /// Returns the first publish's latency (delivered, or spent retrying)
    /// and the failover publish's (0 when the first was delivered); `None`
    /// when the failover is refused or lost too; the intermediate data
    /// stored for `node` is then discarded, since nothing will read it.
    fn dispatch(&mut self, node: NodeId, from: RegionId, bytes: f64, t: f64) -> Option<(f64, f64)> {
        let first = self.publish_to(node, from, bytes);
        if first.delivered() {
            return Some((first.latency_s, 0.0));
        }
        if let Some(failover) = self.fail_over_home(node, from, bytes, t) {
            return Some((first.latency_s, failover));
        }
        // The payloads sit in the node's planned region (§4, Fig. 5).
        let (app, planned) = (self.app, self.plan.region_of(node));
        for &e in app.dag.in_edges(node) {
            self.discard_intermediate(e, planned);
        }
        None
    }

    /// The grid's intensity in `region` at this invocation's hour, asked
    /// of the source once per region unless the source counts its queries.
    fn intensity(&mut self, region: RegionId) -> f64 {
        let source = self.engine.carbon_source;
        if source.counts_queries() {
            return source.intensity(region, self.hour);
        }
        let memo = &mut self.scratch.intensity[region.index()];
        if memo.is_nan() {
            *memo = source.intensity(region, self.hour);
        }
        *memo
    }

    fn account_transfer(&mut self, from: RegionId, to: RegionId, bytes: f64) {
        self.scratch.meter.record_transfer(from, to, bytes);
        let intensity = endpoint_mean(self.intensity(from), self.intensity(to));
        self.trans_carbon +=
            self.engine
                .carbon_model
                .transmission_carbon(bytes, intensity, from == to);
    }

    fn run(&mut self) {
        // Client → entry function: wrapper setup, deployment-plan fetch
        // (Caribou only), and the input payload's journey from the client
        // (anchored at the home region, §9.1).
        let start = self.app.dag.start();
        let input_bytes = self.scratch.book.input().sample(self.rng);
        let mut t0 = self.engine.orchestrator.sample_setup_s(self.rng);

        // An unreachable entry region re-routes the entry to the home
        // deployment — the client's payload is already at home.
        self.account_transfer(self.app.home, self.plan.region_of(start), input_bytes);
        match self.dispatch(start, self.app.home, input_bytes, t0) {
            Some((first, failover)) => t0 += first + failover,
            None => return,
        }
        let start_region = self.region_of(start);

        if self.engine.orchestrator == Orchestrator::Caribou {
            // Entry wrapper fetches the active deployment plan from the
            // home-region metadata table (§6.2: "the initial node ...
            // fetches the current DP from the distributed key-value
            // store"); downstream nodes receive it piggybacked.
            let plan = self.scratch.book.plan_item(&mut self.cloud.kv, self.app);
            let access = self
                .cloud
                .kv
                .get_at(plan, start_region, &self.cloud.latency, self.rng);
            self.scratch.meter.record(start_region, Usage::KvReads, 1.0);
            t0 += access.latency_s;
        }

        self.scratch.queue.push(t0, start);
        // A node scheduled during the drain lands no earlier than the one
        // that scheduled it, so nodes run in time order, ties in the order
        // they were scheduled.
        while let Some((t, node)) = self.scratch.queue.pop() {
            self.execute_node(node, t);
        }
    }

    fn execute_node(&mut self, node: NodeId, mut t: f64) {
        if std::mem::replace(&mut self.scratch.node_started[node.index()], true) {
            return;
        }
        let mut region = self.region_of(node);
        if self.cloud.faults.region_down(region, self.at_s + t) {
            // Region outage mid-flight: the function never picks the
            // message up. The dead-letter redrive re-routes the node to
            // the home deployment (§6.1) — published from home, where the
            // framework's control plane lives.
            match self.fail_over_home(node, self.app.home, 2048.0, t) {
                Some(failover) => {
                    t += failover;
                    region = self.region_of(node);
                }
                None => {
                    self.mark_node_dead_downstream(node, t);
                    return;
                }
            }
        }
        let p = &self.app.profile.nodes[node.index()];
        // Cold starts: a cold-start storm forces cold; otherwise stateful
        // when the warm pool is enabled (a freshly offloaded region starts
        // cold until traffic warms it), or the compute model's
        // probabilistic rate applies.
        let storm = self.cloud.faults.cold_storm(region, self.at_s + t);
        let cold = if self.cloud.warm.enabled {
            let warm = &mut self.cloud.warm;
            let slot = self.scratch.book.warm_slot(warm, self.app, node, region);
            warm.check_and_touch_at(slot, self.at_s + t) || storm
        } else {
            let cold = storm || self.rng.chance(self.cloud.compute.cold_start_prob);
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::count(
                    if cold {
                        "compute.cold_start"
                    } else {
                        "compute.warm_start"
                    },
                    1,
                );
            }
            cold
        };
        if cold {
            self.cold_starts += 1;
        }
        if storm && caribou_telemetry::is_enabled() {
            caribou_telemetry::count("fault.cold_storm", 1);
        }
        let record = self.cloud.compute.execute_forced(
            region,
            self.scratch.book.exec(node),
            p.memory_mb,
            p.cpu_utilization,
            cold,
            self.rng,
        );
        let mut duration = record.duration_s;

        // External data stays at (or close to) the home region; offloaded
        // stages pay the round trip in latency, egress, and carbon (§9.1).
        if region != self.app.home && p.external_data_bytes > 0.0 {
            let half = p.external_data_bytes / 2.0;
            let lm = &self.cloud.latency;
            duration += lm.sample_transfer_seconds(region, self.app.home, half, self.rng)
                + lm.sample_transfer_seconds(self.app.home, region, half, self.rng);
            self.account_transfer(region, self.app.home, half);
            self.account_transfer(self.app.home, region, half);
        }

        self.scratch
            .meter
            .record_lambda(region, duration, p.memory_mb);
        let intensity = self.intensity(region);
        self.exec_carbon += self.engine.carbon_model.execution_carbon_params(
            p.memory_mb,
            duration,
            p.cpu_utilization,
            intensity,
        );
        self.node_records.push(NodeRecord {
            node: node.0,
            region,
            duration_s: duration,
            cpu_total_time_s: record.cpu_total_time_s,
            memory_mb: p.memory_mb,
            start_s: t,
        });
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::span_at(
                "exec",
                &self.app.dag.node(node).name,
                self.at_s + t,
                duration,
                self.inv_id,
                format!("node:{}@r{}", node.0, region.0),
            );
            caribou_telemetry::observe("exec.node_duration_s", duration);
        }

        // Decide and dispatch every outgoing edge.
        let app = self.app;
        for &eid in app.dag.out_edges(node) {
            let taken = !app.dag.edge(eid).conditional
                || self.rng.chance(app.profile.edges[eid.index()].probability);
            self.decide_edge(eid, taken, t + duration);
        }
    }

    /// Decides an edge, dispatching the successor invocation or the skip
    /// propagation of §4.
    fn decide_edge(&mut self, eid: EdgeId, taken: bool, t: f64) {
        if self.scratch.edge_state[eid.index()].is_decided() {
            return;
        }
        let edge = *self.app.dag.edge(eid);
        let succ = edge.to;
        let succ_region = self.region_of(succ);
        let from_region = self.region_of(edge.from);
        let is_sync = self.app.dag.is_sync_node(succ);

        if !taken {
            let decision_t = if is_sync {
                self.sync_annotate(succ, false, t, from_region)
            } else {
                t
            };
            self.decide(eid, false, decision_t, 0.0, 0.0);
            if is_sync {
                self.check_sync(succ);
            } else {
                // The successor has a single predecessor; it is dead.
                self.mark_node_dead_downstream(succ, t);
            }
            return;
        }

        let payload = self.scratch.book.payload(eid).sample(self.rng);
        // Intermediate data goes to the successor region's storage: the
        // KV table for small payloads, the blob store (with a KV
        // reference) above the DynamoDB item limit (§4, Fig. 5).
        let write_latency = self.store_intermediate(eid, payload, from_region, succ_region);
        self.account_transfer(from_region, succ_region, payload);
        let transition = self.engine.orchestrator.sample_transition_s(self.rng);
        let after_write = t + transition + write_latency;

        if is_sync {
            // The annotation is the atomic read-modify-write of §4; the
            // invocation message is sent by whichever writer's annotation
            // lands last (handled in `check_sync`).
            let decision_t = self.sync_annotate(succ, true, after_write, from_region);
            self.decide(eid, true, decision_t, payload, decision_t - t);
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::span_at(
                    "sync",
                    format!("annotate n{}", succ.0),
                    self.at_s + t,
                    decision_t - t,
                    self.inv_id,
                    format!("edge:{}", eid.0),
                );
            }
            self.check_sync(succ);
            return;
        }

        let arrival = if self.engine.orchestrator == Orchestrator::StepFunctions {
            // First-party orchestration: direct state transition, no SNS
            // hop.
            after_write
                + self.cloud.latency.sample_transfer_seconds(
                    from_region,
                    succ_region,
                    payload,
                    self.rng,
                )
        } else {
            // The invocation message itself is small: the data went
            // through the KV store; the message carries the DP and
            // location header (§6.2 Traffic Routing).
            match self.dispatch(succ, from_region, 2048.0, after_write) {
                Some((first, failover)) => after_write + first + failover,
                None => {
                    self.decide(eid, false, t, payload, 0.0);
                    self.mark_node_dead_downstream(succ, t);
                    return;
                }
            }
        };

        self.decide(eid, true, arrival, payload, arrival - t);
        let to_region = self.region_of(succ);
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::span_at(
                "hop",
                format!("e{} r{}->r{}", eid.0, from_region.0, to_region.0),
                self.at_s + t,
                arrival - t,
                self.inv_id,
                format!("edge:{}", eid.0),
            );
        }
        // The successor's wrapper reads the intermediate data (stored at
        // the originally planned region even after a failover).
        let read_latency = self.load_intermediate(eid, succ_region, to_region);
        self.scratch.queue.push(arrival + read_latency, succ);
    }

    /// Writes an edge's decision: its state — whether it fired, when the
    /// decision landed and the region that wrote it (the edge source's,
    /// a dead source's included), which a sync successor's condition
    /// reads — and its log record, whose destination is where the
    /// successor runs when the edge fired (home after a failover) and
    /// where it was planned when it did not.
    fn decide(&mut self, eid: EdgeId, taken: bool, at: f64, bytes: f64, latency_s: f64) {
        let edge = *self.app.dag.edge(eid);
        let from_region = self.region_of(edge.from);
        let to_region = if taken {
            self.region_of(edge.to)
        } else {
            self.plan.region_of(edge.to)
        };
        self.scratch.edge_state[eid.index()] = EdgeState::Decided {
            taken,
            at,
            writer: from_region,
        };
        self.edge_records.push(EdgeRecord {
            edge: eid.0,
            taken,
            from_region,
            to_region,
            bytes,
            latency_s,
        });
    }

    /// Stores one edge's intermediate payload of `size` bytes in the
    /// successor region `to`: small payloads as a KV item, large ones in
    /// the blob store with a KV reference (DynamoDB's item cap). Returns
    /// the write latency.
    fn store_intermediate(&mut self, eid: EdgeId, size: f64, from: RegionId, to: RegionId) -> f64 {
        let item = self.edge_item(eid, to);
        let object = self.edge_object(eid);
        let (kv, lm) = (&mut self.cloud.kv, &self.cloud.latency);
        if size > caribou_simcloud::blob::BLOB_THRESHOLD_BYTES {
            let blob = self.cloud.blob.put(to, object, size, from, lm, self.rng);
            self.scratch.meter.record(to, Usage::BlobPuts, 1.0);
            let reference = bytes::Bytes::from_static(b"blobref");
            let reference = kv.put_at(item, reference, from, lm, self.rng);
            self.scratch.meter.record(to, Usage::KvWrites, 1.0);
            blob.latency_s.max(reference.latency_s)
        } else {
            let value = bytes::Bytes::from_static(&ZERO_PAYLOAD[..size.min(4096.0) as usize]);
            let write = kv.put_at(item, value, from, lm, self.rng);
            self.scratch.meter.record(to, Usage::KvWrites, 1.0);
            write.latency_s
        }
    }

    /// The data-table item of this invocation's payload on `eid`, in
    /// `storage`'s table.
    fn edge_item(&mut self, eid: EdgeId, storage: RegionId) -> ItemAddr {
        let tables = self.scratch.book.tables(&mut self.cloud.kv, storage);
        ItemAddr::new(tables.data, self.inv_id, eid.0)
    }

    /// The blob key of this invocation's payload on `eid`.
    fn edge_object(&self, eid: EdgeId) -> ObjectKey {
        ObjectKey {
            invocation: self.inv_id,
            slot: eid.0,
        }
    }

    /// The sync-table item of this invocation's annotations on `node`.
    fn sync_item(&mut self, node: NodeId) -> ItemAddr {
        let region = self.region_of(node);
        let tables = self.scratch.book.tables(&mut self.cloud.kv, region);
        ItemAddr::new(tables.sync, self.inv_id, node.0)
    }

    /// Loads one edge's intermediate payload, following the blob reference
    /// when present. `storage` is the region whose table/bucket holds the
    /// data (the successor's planned region); `reader` is where the
    /// successor actually runs — they differ after a failover, which then
    /// pays the cross-region read. Returns the read latency.
    fn load_intermediate(&mut self, eid: EdgeId, storage: RegionId, reader: RegionId) -> f64 {
        let item = self.edge_item(eid, storage);
        let object = self.edge_object(eid);
        let lm = &self.cloud.latency;
        // Each intermediate is read exactly once; garbage-collect it
        // (TTL-style, unbilled) so the stores stay bounded under
        // sustained load.
        let latency_s = match self.cloud.blob.get(storage, object, reader, lm, self.rng) {
            Some(blob) => {
                self.scratch.meter.record(storage, Usage::BlobGets, 1.0);
                self.cloud.blob.delete(storage, object);
                blob.latency_s
            }
            None => self.cloud.kv.get_at(item, reader, lm, self.rng).latency_s,
        };
        // Either way the wrapper read the KV item: the payload itself or
        // the reference to the blob.
        self.scratch.meter.record(storage, Usage::KvReads, 1.0);
        self.cloud.kv.reclaim_at(item);
        latency_s
    }

    /// Garbage-collects an edge's intermediate payload that will never be
    /// read (its successor's dispatch failed): the KV item and, when there
    /// is one, the blob, unbilled like every collection.
    fn discard_intermediate(&mut self, eid: EdgeId, storage: RegionId) {
        let item = self.edge_item(eid, storage);
        self.cloud.kv.reclaim_at(item);
        self.cloud.blob.delete(storage, self.edge_object(eid));
    }

    /// Performs the atomic annotation update of §4 against the sync
    /// node's regional table, returning the simulation time the update
    /// completed.
    fn sync_annotate(&mut self, succ: NodeId, taken: bool, t: f64, writer_region: RegionId) -> f64 {
        let succ_region = self.region_of(succ);
        let item = self.sync_item(succ);
        let label = SyncLabel {
            inv_id: self.inv_id,
            node: succ,
        };
        let update = self.cloud.kv.atomic_update_at(
            item,
            &label,
            writer_region,
            &self.cloud.latency,
            self.rng,
            |prev| {
                // Append this edge's '0'/'1' to the annotation string.
                // Small fan-ins return a slice of the static table —
                // byte-identical to the heap-built string, no allocation.
                let (len, bits) = match prev {
                    Some(b) => {
                        let mut bits = 0usize;
                        for &c in b.iter() {
                            bits = (bits << 1) | usize::from(c == b'1');
                        }
                        (b.len(), bits)
                    }
                    None => (0, 0),
                };
                if len < ANN_MAX {
                    let bits = (bits << 1) | usize::from(taken);
                    bytes::Bytes::from_static(ann_static(len + 1, bits))
                } else {
                    let mut s = prev
                        .map(|b| String::from_utf8_lossy(b).into_owned())
                        .unwrap_or_default();
                    s.push(if taken { '1' } else { '0' });
                    bytes::Bytes::from(s)
                }
            },
        );
        self.scratch.meter.record(succ_region, Usage::KvReads, 1.0);
        self.scratch.meter.record(succ_region, Usage::KvWrites, 1.0);
        t + update.latency_s
    }

    /// Evaluates condition (4.1) for a synchronization node: once every
    /// incoming edge is annotated, the node fires if at least one
    /// annotation is `taken`. The writer whose annotation landed last (in
    /// simulation time) performs the invocation — regardless of the order
    /// the engine processed the branches in.
    fn check_sync(&mut self, succ: NodeId) {
        let telemetry = caribou_telemetry::is_enabled();
        if telemetry {
            caribou_telemetry::count("sync.condition_eval", 1);
        }
        let in_edges = self.app.dag.in_edges(succ);
        if !in_edges
            .iter()
            .all(|e| self.scratch.edge_state[e.index()].is_decided())
        {
            if telemetry {
                caribou_telemetry::count("sync.condition_pending", 1);
            }
            return;
        }
        // Every annotation is in. The decision below reads only the
        // engine-side `edge_state` (the KV record is write-only past this
        // point), so the annotation item can be garbage-collected now.
        let item = self.sync_item(succ);
        self.cloud.kv.reclaim_at(item);
        let mut any_taken = false;
        let mut last_at = 0.0f64;
        let mut last_writer = self.region_of(succ);
        for e in in_edges {
            if let EdgeState::Decided { taken, at, writer } = self.scratch.edge_state[e.index()] {
                any_taken |= taken;
                if at >= last_at {
                    last_at = at;
                    last_writer = writer;
                }
            }
        }
        if !any_taken {
            if telemetry {
                caribou_telemetry::event("sync.not_fired", format!("n{}", succ.0), last_at);
            }
            self.mark_node_dead_downstream(succ, last_at);
            return;
        }
        if telemetry {
            caribou_telemetry::event("sync.fired", format!("n{}", succ.0), last_at);
        }
        let succ_region = self.region_of(succ);
        // The completing writer invokes the synchronization node with a
        // small message; the node then loads the intermediate data of
        // every taken predecessor from the KV store (§4, Fig. 5).
        let start_t = if self.engine.orchestrator == Orchestrator::StepFunctions {
            last_at + self.engine.orchestrator.sample_transition_s(self.rng)
        } else {
            match self.dispatch(succ, last_writer, 1024.0, last_at) {
                Some((first, failover)) => last_at + first + failover,
                None => {
                    self.mark_node_dead_downstream(succ, last_at);
                    return;
                }
            }
        };
        // Parallel reads of predecessors' intermediate data: latency is
        // the max of the sampled reads. Data sits in the planned region's
        // storage; after a failover the reads cross regions.
        let reader = self.region_of(succ);
        let mut read_latency: f64 = 0.0;
        for &e in in_edges {
            if self.scratch.edge_state[e.index()].is_taken() {
                read_latency = read_latency.max(self.load_intermediate(e, succ_region, reader));
            }
        }
        self.scratch.queue.push(start_t + read_latency, succ);
    }

    /// Cascades death: a node none of whose incoming edges fired marks all
    /// of its outgoing edges as not taken (the §4 skip-propagation rule),
    /// which may complete downstream synchronization conditions.
    fn mark_node_dead_downstream(&mut self, node: NodeId, t: f64) {
        if std::mem::replace(&mut self.scratch.node_dead[node.index()], true) {
            return;
        }
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::count("exec.skip_propagation", 1);
        }
        let app = self.app;
        for &eid in app.dag.out_edges(node) {
            self.decide_edge(eid, false, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_metrics::carbonmodel::TransmissionScenario;
    use caribou_model::builder::Workflow;
    use caribou_model::dist::DistSpec;

    fn carbon_table(cloud: &SimCloud) -> TableSource {
        let mut t = TableSource::new();
        for (id, spec) in cloud.regions.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "ca-central-1" => 32.0,
                _ => 350.0,
            };
            t.insert(id, CarbonSeries::new(0, vec![v; 24 * 8]));
        }
        t
    }

    fn chain_app(cloud: &SimCloud) -> WorkflowApp {
        let mut wf = Workflow::new("chain", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 1.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 2.0 })
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 10_000.0 });
        wf.set_input(DistSpec::Constant { value: 1000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        WorkflowApp {
            name: "chain".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        }
    }

    fn sync_app(cloud: &SimCloud, cond_prob: Option<f64>) -> WorkflowApp {
        sync_app_with_stages(cloud, cond_prob, ["A", "B", "C", "D"])
    }

    fn sync_app_with_stages(
        cloud: &SimCloud,
        cond_prob: Option<f64>,
        stages: [&str; 4],
    ) -> WorkflowApp {
        let mut wf = Workflow::new("join", "0.1");
        let [a, b, c, d] = [0.5, 0.5, 3.0, 0.5].map(|value| DistSpec::Constant { value });
        let a = wf.serverless_function(stages[0]).exec_time(a).register();
        let b = wf.serverless_function(stages[1]).exec_time(b).register();
        let c = wf.serverless_function(stages[2]).exec_time(c).register();
        let d = wf.serverless_function(stages[3]).exec_time(d).register();
        wf.invoke(a, b, cond_prob);
        wf.invoke(a, c, None);
        wf.invoke(b, d, None);
        wf.invoke(c, d, None);
        wf.get_predecessor_data(d);
        let (dag, profile, _) = wf.extract().unwrap();
        WorkflowApp {
            name: "join".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        }
    }

    fn run(
        cloud: &mut SimCloud,
        app: &WorkflowApp,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> ExecutionOutcome {
        let carbon = carbon_table(cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(cloud, app, plan);
        engine.invoke(cloud, app, plan, seed, 100.0, &mut Pcg32::seed(seed))
    }

    /// [`run`] through a scratch, returned with the bill on its meter.
    fn run_metered(
        cloud: &mut SimCloud,
        app: &WorkflowApp,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> (ExecutionOutcome, UsageMeter) {
        let carbon = carbon_table(cloud);
        let engine = engine_over(&carbon);
        engine.provision(cloud, app, plan);
        let mut scratch = InvocationScratch::new();
        let mut rng = Pcg32::seed(seed);
        let out = engine.invoke_with_scratch(cloud, app, plan, seed, 100.0, &mut rng, &mut scratch);
        (out, scratch.meter().clone())
    }

    /// Total inter-region bytes a meter billed.
    fn egress_bytes(meter: &UsageMeter) -> f64 {
        meter.egress.iter().map(|(_, bytes)| bytes).sum()
    }

    #[test]
    fn chain_executes_both_stages() {
        let mut cloud = SimCloud::aws(1);
        cloud.compute.cold_start_prob = 0.0;
        cloud.compute.exec_sigma = 0.0;
        let app = chain_app(&cloud);
        let plan = DeploymentPlan::uniform(2, app.home);
        let out = run(&mut cloud, &app, &plan, 1);
        assert!(out.completed);
        assert_eq!(out.log.nodes.len(), 2);
        // ~3 s of compute plus hops.
        assert!(
            (3.0..3.8).contains(&out.e2e_latency_s),
            "{}",
            out.e2e_latency_s
        );
        assert!(out.cost_usd > 0.0);
        assert!(out.exec_carbon_g > 0.0);
    }

    #[test]
    fn offloaded_stage_runs_in_its_plan_region() {
        let mut cloud = SimCloud::aws(2);
        let app = chain_app(&cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        let mut plan = DeploymentPlan::uniform(2, app.home);
        plan.set(NodeId(1), ca);
        let (out, meter) = run_metered(&mut cloud, &app, &plan, 2);
        assert!(out.completed);
        let rec = out.log.nodes.iter().find(|r| r.node == 1).unwrap();
        assert_eq!(rec.region, ca);
        // Cross-region hop: latency exceeds the single-region case.
        assert!(out.e2e_latency_s > 3.0);
        assert!(egress_bytes(&meter) > 0.0);
    }

    #[test]
    fn sync_node_fires_once_after_both_branches() {
        let mut cloud = SimCloud::aws(3);
        cloud.compute.cold_start_prob = 0.0;
        cloud.compute.exec_sigma = 0.0;
        let app = sync_app(&cloud, None);
        let plan = DeploymentPlan::uniform(4, app.home);
        let out = run(&mut cloud, &app, &plan, 3);
        assert!(out.completed);
        assert_eq!(out.log.nodes.len(), 4);
        let d = out.log.nodes.iter().find(|r| r.node == 3).unwrap();
        let c = out.log.nodes.iter().find(|r| r.node == 2).unwrap();
        // D starts only after the slow branch C finishes.
        assert!(d.start_s >= c.start_s + c.duration_s);
    }

    #[test]
    fn conditional_branch_skip_still_fires_sync() {
        let mut cloud = SimCloud::aws(4);
        cloud.compute.cold_start_prob = 0.0;
        // Probability 0: branch B never runs; D must still fire via C
        // thanks to the skip-propagation annotation.
        let app = sync_app(&cloud, Some(0.0));
        let plan = DeploymentPlan::uniform(4, app.home);
        let out = run(&mut cloud, &app, &plan, 4);
        assert!(out.completed);
        let executed: Vec<u32> = out.log.nodes.iter().map(|r| r.node).collect();
        assert!(!executed.contains(&1), "skipped branch must not run");
        assert!(executed.contains(&3), "sync node must still fire");
    }

    #[test]
    fn dead_cascade_kills_whole_subtree() {
        let mut cloud = SimCloud::aws(5);
        // A -> (cond 0) B -> C; B and C must both be skipped.
        let mut wf = Workflow::new("cascade", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        let c = wf.serverless_function("C").register();
        wf.invoke(a, b, Some(0.0));
        wf.invoke(b, c, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let app = WorkflowApp {
            name: "cascade".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        };
        let plan = DeploymentPlan::uniform(3, app.home);
        let out = run(&mut cloud, &app, &plan, 5);
        assert!(out.completed);
        let executed: Vec<u32> = out.log.nodes.iter().map(|r| r.node).collect();
        assert_eq!(executed, vec![0]);
    }

    #[test]
    fn region_outage_fails_over_to_home() {
        let mut cloud = SimCloud::aws(6);
        let app = chain_app(&cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(caribou_simcloud::faults::FaultPlan::none().with_outage(ca, 0.0, 1e9));
        let mut plan = DeploymentPlan::uniform(2, app.home);
        plan.set(NodeId(1), ca);
        let out = run(&mut cloud, &app, &plan, 6);
        // §6.1 degradation: the offloaded stage re-routes to the home
        // deployment instead of killing the invocation.
        assert!(out.completed);
        assert!(out.failovers >= 1);
        assert_eq!(out.failed_region, Some(ca));
        assert_eq!(out.log.nodes.len(), 2, "both stages ran");
        let rec = out.log.nodes.iter().find(|r| r.node == 1).unwrap();
        assert_eq!(rec.region, app.home, "stage 1 fell back home");
    }

    #[test]
    fn home_outage_marks_invocation_failed() {
        let mut cloud = SimCloud::aws(24);
        let app = chain_app(&cloud);
        let home = app.home;
        cloud.set_faults(caribou_simcloud::faults::FaultPlan::none().with_outage(home, 0.0, 1e9));
        let plan = DeploymentPlan::uniform(2, app.home);
        let out = run(&mut cloud, &app, &plan, 24);
        // No fallback target exists: the invocation is reported failed,
        // with the failing region attributed.
        assert!(!out.completed);
        assert_eq!(out.failed_region, Some(home));
        assert_eq!(out.failovers, 0);
    }

    #[test]
    fn partition_mid_workflow_fails_over_to_home() {
        let mut cloud = SimCloud::aws(25);
        let app = chain_app(&cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        let home = app.home;
        // Home and ca cannot talk; ca itself is healthy. The A→B hop
        // dead-letters and B re-routes home.
        cloud.set_faults(
            caribou_simcloud::faults::FaultPlan::none().with_partition(home, ca, 0.0, 1e9),
        );
        let mut plan = DeploymentPlan::uniform(2, app.home);
        plan.set(NodeId(1), ca);
        let out = run(&mut cloud, &app, &plan, 25);
        assert!(out.completed);
        assert!(out.failovers >= 1);
        assert_eq!(out.failed_region, Some(ca));
        let rec = out.log.nodes.iter().find(|r| r.node == 1).unwrap();
        assert_eq!(rec.region, home);
        // The dead-letter retry tax is visible in the end-to-end latency:
        // five attempts with backoffs before the redrive.
        assert!(out.e2e_latency_s > 5.0, "{}", out.e2e_latency_s);
    }

    #[test]
    fn sync_node_fails_over_when_its_region_dies() {
        let mut cloud = SimCloud::aws(26);
        cloud.compute.cold_start_prob = 0.0;
        let app = sync_app(&cloud, None);
        let ca = cloud.region("ca-central-1").unwrap();
        cloud.set_faults(caribou_simcloud::faults::FaultPlan::none().with_outage(ca, 0.0, 1e9));
        let mut plan = DeploymentPlan::uniform(4, app.home);
        plan.set(NodeId(3), ca);
        let out = run(&mut cloud, &app, &plan, 26);
        assert!(out.completed);
        assert!(out.failovers >= 1);
        let d = out.log.nodes.iter().find(|r| r.node == 3).unwrap();
        assert_eq!(d.region, app.home, "sync node fell back home");
    }

    #[test]
    fn cold_storm_forces_cold_starts() {
        let mut cloud = SimCloud::aws(27);
        cloud.compute.cold_start_prob = 0.0;
        cloud.compute.exec_sigma = 0.0;
        let app = chain_app(&cloud);
        let plan = DeploymentPlan::uniform(2, app.home);
        let calm = run(&mut cloud, &app, &plan, 27);
        let mut stormy_cloud = SimCloud::aws(27);
        stormy_cloud.compute.cold_start_prob = 0.0;
        stormy_cloud.compute.exec_sigma = 0.0;
        stormy_cloud.set_faults(
            caribou_simcloud::faults::FaultPlan::none().with_cold_storm(app.home, 0.0, 1e9),
        );
        let stormy = run(&mut stormy_cloud, &app, &plan, 27);
        assert!(
            stormy.e2e_latency_s > calm.e2e_latency_s + 0.3,
            "calm {} stormy {}",
            calm.e2e_latency_s,
            stormy.e2e_latency_s
        );
    }

    #[test]
    fn caribou_slightly_slower_than_sns_much_less_than_step_functions_gap() {
        let mut cloud = SimCloud::aws(7);
        cloud.compute.cold_start_prob = 0.0;
        cloud.compute.exec_sigma = 0.0;
        let app = chain_app(&cloud);
        let plan = DeploymentPlan::uniform(2, app.home);
        let carbon = carbon_table(&cloud);
        let mut mean_latency = |orch: Orchestrator, seed: u64| -> f64 {
            let engine = ExecutionEngine {
                carbon_source: &carbon,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                orchestrator: orch,
            };
            engine.provision(&mut cloud, &app, &plan);
            let mut rng = Pcg32::seed(seed);
            let n = 200;
            (0..n)
                .map(|i| {
                    engine
                        .invoke(&mut cloud, &app, &plan, i, 100.0, &mut rng)
                        .e2e_latency_s
                })
                .sum::<f64>()
                / n as f64
        };
        let sf = mean_latency(Orchestrator::StepFunctions, 1);
        let sns = mean_latency(Orchestrator::Sns, 1);
        let cb = mean_latency(Orchestrator::Caribou, 1);
        assert!(sf < sns, "sf {sf} sns {sns}");
        assert!(cb > sns, "cb {cb} sns {sns}");
        // Caribou's overhead over SNS is small relative to SNS's overhead
        // over Step Functions (§9.6).
        assert!((cb - sns) < (sns - sf), "cb {cb} sns {sns} sf {sf}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut c1 = SimCloud::aws(8);
        let mut c2 = SimCloud::aws(8);
        let app1 = sync_app(&c1, Some(0.5));
        let app2 = sync_app(&c2, Some(0.5));
        let plan = DeploymentPlan::uniform(4, app1.home);
        let a = run(&mut c1, &app1, &plan, 11);
        let b = run(&mut c2, &app2, &plan, 11);
        assert_eq!(a.e2e_latency_s, b.e2e_latency_s);
        assert_eq!(a.cost_usd, b.cost_usd);
        assert_eq!(a.carbon_g(), b.carbon_g());
    }

    #[test]
    fn sns_orchestrator_supports_sync_via_the_kv_protocol() {
        // The "similar implementations in SNS" of §9.6 use the same
        // annotation trick; the engine must complete sync workflows under
        // the raw-SNS orchestrator too.
        let mut cloud = SimCloud::aws(19);
        let app = sync_app(&cloud, Some(0.5));
        let plan = DeploymentPlan::uniform(4, app.home);
        let carbon = carbon_table(&cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Sns,
        };
        engine.provision(&mut cloud, &app, &plan);
        let mut rng = Pcg32::seed(19);
        for i in 0..50 {
            let out = engine.invoke(&mut cloud, &app, &plan, i, 100.0, &mut rng);
            assert!(out.completed, "invocation {i}");
            assert!(out.log.nodes.iter().any(|n| n.node == 3), "sync node ran");
        }
    }

    #[test]
    fn step_functions_orchestrator_runs_sync_without_sns() {
        let mut cloud = SimCloud::aws(23);
        let app = sync_app(&cloud, None);
        let plan = DeploymentPlan::uniform(4, app.home);
        let carbon = carbon_table(&cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::StepFunctions,
        };
        engine.provision(&mut cloud, &app, &plan);
        let before = cloud.pubsub.total_published();
        let out = engine.invoke(&mut cloud, &app, &plan, 1, 100.0, &mut Pcg32::seed(23));
        assert!(out.completed);
        assert_eq!(out.log.nodes.len(), 4);
        // Step Functions performs direct transitions after the client's
        // entry publish: no further SNS messages.
        assert_eq!(cloud.pubsub.total_published() - before, 1);
    }

    #[test]
    fn large_payloads_go_through_the_blob_store() {
        let mut cloud = SimCloud::aws(20);
        let mut wf = Workflow::new("big", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        // 5 MB payload: far above the DynamoDB item limit.
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 5e6 });
        let (dag, profile, _) = wf.extract().unwrap();
        let app = WorkflowApp {
            name: "big".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        };
        let plan = DeploymentPlan::uniform(2, app.home);
        let (out, meter) = run_metered(&mut cloud, &app, &plan, 20);
        assert!(out.completed);
        let home = app.home;
        assert_eq!(cloud.blob.ops(home).puts, 1, "payload stored as a blob");
        assert_eq!(cloud.blob.ops(home).gets, 1, "successor fetched it");
        let billed = meter.usage[home.index()];
        assert_eq!(billed[Usage::BlobPuts as usize], 1.0);
        assert_eq!(billed[Usage::BlobGets as usize], 1.0);
    }

    #[test]
    fn small_payloads_stay_on_the_kv_path() {
        let mut cloud = SimCloud::aws(21);
        let app = chain_app(&cloud); // 10 KB payload
        let plan = DeploymentPlan::uniform(2, app.home);
        let (out, meter) = run_metered(&mut cloud, &app, &plan, 21);
        assert!(out.completed);
        assert_eq!(cloud.blob.ops(app.home).puts, 0);
        let blob = [Usage::BlobGets, Usage::BlobPuts];
        assert!(meter
            .usage
            .iter()
            .all(|row| blob.iter().all(|u| row[*u as usize] == 0.0)));
    }

    #[test]
    fn warm_pool_makes_first_invocation_cold_then_warm() {
        let mut cloud = SimCloud::aws(22);
        cloud.compute.exec_sigma = 0.0;
        cloud.warm = caribou_simcloud::warm::WarmPool::enabled(600.0);
        let app = chain_app(&cloud);
        let plan = DeploymentPlan::uniform(2, app.home);
        let carbon = carbon_table(&cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut cloud, &app, &plan);
        let mut rng = Pcg32::seed(22);
        let first = engine.invoke(&mut cloud, &app, &plan, 1, 100.0, &mut rng);
        let second = engine.invoke(&mut cloud, &app, &plan, 2, 160.0, &mut rng);
        // The cold-start penalty shows in the first run only.
        assert!(
            first.e2e_latency_s > second.e2e_latency_s + 0.3,
            "first {} second {}",
            first.e2e_latency_s,
            second.e2e_latency_s
        );
        // After idling past the keep-alive, cold again.
        let third = engine.invoke(&mut cloud, &app, &plan, 3, 160.0 + 3600.0, &mut rng);
        assert!(
            third.e2e_latency_s > second.e2e_latency_s + 0.3,
            "second {} third {}",
            second.e2e_latency_s,
            third.e2e_latency_s
        );
    }

    #[test]
    fn single_provider_runs_never_cross_a_provider_boundary() {
        let mut cloud = SimCloud::aws(30);
        let app = chain_app(&cloud);
        let ca = cloud.region("ca-central-1").unwrap();
        let mut plan = DeploymentPlan::uniform(2, app.home);
        plan.set(NodeId(1), ca);
        let (out, meter) = run_metered(&mut cloud, &app, &plan, 30);
        assert!(out.completed);
        assert!(egress_bytes(&meter) > 0.0);
        assert!(meter
            .egress
            .iter()
            .all(|((from, to), _)| !cloud.pricing.is_cross_provider(*from, *to)));
    }

    #[test]
    fn cross_provider_hop_meters_its_own_egress_line() {
        use caribou_model::region::{Provider, ProviderSet};
        let mut cloud =
            SimCloud::for_providers(ProviderSet::of(&[Provider::Aws, Provider::Gcp]), 31).unwrap();
        let app = chain_app(&cloud);
        let gcp_west = cloud.region("gcp:us-west1").unwrap();
        let mut plan = DeploymentPlan::uniform(2, app.home);
        plan.set(NodeId(1), gcp_west);
        let (out, meter) = run_metered(&mut cloud, &app, &plan, 31);
        assert!(out.completed);
        assert!(out.trans_carbon_g > 0.0);
        // The A→B payload crossed the provider boundary on its own route,
        // billed at the internet-tier rate, which is strictly pricier than
        // the intra-provider inter-region rate.
        let route = meter
            .egress
            .iter()
            .find(|(route, _)| *route == (app.home, gcp_west));
        let crossed = route.unwrap().1;
        assert!(crossed >= 10_000.0, "{crossed}");
        let cost = cloud.pricing.egress_cost(app.home, gcp_west, crossed);
        assert!(cost > 0.0 && cost < out.cost_usd);
        let intra = cloud.pricing.region(app.home).egress_inter_region_per_gb;
        let cross_rate = cost / (crossed / 1e9);
        assert!(cross_rate > intra, "cross {cross_rate} intra {intra}");
    }

    #[test]
    fn kv_annotations_written_for_sync_node() {
        let mut cloud = SimCloud::aws(9);
        let app = sync_app(&cloud, None);
        let plan = DeploymentPlan::uniform(4, app.home);
        let before = cloud.kv.total_ops();
        let out = run(&mut cloud, &app, &plan, 12);
        assert!(out.completed);
        let after = cloud.kv.total_ops();
        // Two predecessors each perform an atomic annotation update (a
        // read+write), plus data writes/reads and the plan fetch.
        assert!(after.writes - before.writes >= 2 + 3);
        assert!(after.reads - before.reads > 2);
    }

    #[test]
    fn pooled_scratch_matches_one_shot_invoke() {
        // Same seeds through the pooled and the one-shot entry points must
        // produce bit-identical outcomes: the loadgen's determinism (and
        // its 1-vs-N-worker diff) rests on this.
        let mut fresh_cloud = SimCloud::aws(11);
        let mut pooled_cloud = SimCloud::aws(11);
        let app = sync_app(&fresh_cloud, Some(0.5));
        let plan = DeploymentPlan::uniform(4, app.home);
        let carbon = carbon_table(&fresh_cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut fresh_cloud, &app, &plan);
        engine.provision(&mut pooled_cloud, &app, &plan);
        let mut scratch = InvocationScratch::new();
        for inv in 0..20u64 {
            let at = 50.0 + inv as f64 * 30.0;
            let a = engine.invoke(
                &mut fresh_cloud,
                &app,
                &plan,
                inv,
                at,
                &mut Pcg32::seed(inv ^ 0xC0FFEE),
            );
            let b = engine.invoke_with_scratch(
                &mut pooled_cloud,
                &app,
                &plan,
                inv,
                at,
                &mut Pcg32::seed(inv ^ 0xC0FFEE),
                &mut scratch,
            );
            assert_eq!(a.e2e_latency_s.to_bits(), b.e2e_latency_s.to_bits());
            assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
            assert_eq!(a.exec_carbon_g.to_bits(), b.exec_carbon_g.to_bits());
            assert_eq!(a.trans_carbon_g.to_bits(), b.trans_carbon_g.to_bits());
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.log.nodes, b.log.nodes);
            assert_eq!(a.log.edges, b.log.edges);
        }
    }

    /// The one-shot entry point resolves every address afresh, so it is
    /// the reference a pooled address book is held to, bit for bit.
    fn assert_bit_equal(fresh: &ExecutionOutcome, pooled: &ExecutionOutcome) {
        assert_eq!(format!("{fresh:?}"), format!("{pooled:?}"));
    }

    fn engine_over(carbon: &TableSource) -> ExecutionEngine<'_, TableSource> {
        ExecutionEngine {
            carbon_source: carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        }
    }

    #[test]
    fn one_scratch_across_clouds_and_apps_never_serves_a_stale_address() {
        // Two clouds and three same-shaped apps whose deployments differ:
        // "join" is offloaded to ca-central-1 on cloud 0 only; "twin" and
        // a second "join" with other stage names are deployed nowhere but
        // home. An address carried over from the other cloud or another
        // app would publish where the one-shot path finds no topic (or
        // the reverse) and the outcomes would part.
        let mut fresh = [SimCloud::aws(40), SimCloud::aws(41)];
        let mut pooled = [SimCloud::aws(40), SimCloud::aws(41)];
        let join = sync_app(&fresh[0], Some(0.5));
        let twin = WorkflowApp {
            name: "twin".into(),
            ..join.clone()
        };
        let restaged = sync_app_with_stages(&fresh[0], Some(0.5), ["A2", "B2", "C2", "D2"]);
        assert_eq!(restaged.name, join.name);
        let ca = fresh[0].region("ca-central-1").unwrap();
        let home_plan = DeploymentPlan::uniform(4, join.home);
        let mut offloaded = home_plan.clone();
        offloaded.set(NodeId(1), ca);
        offloaded.set(NodeId(3), ca);
        let carbon = carbon_table(&fresh[0]);
        let engine = engine_over(&carbon);
        for clouds in [&mut fresh, &mut pooled] {
            engine.provision(&mut clouds[0], &join, &offloaded);
            engine.provision(&mut clouds[1], &join, &home_plan);
            for cloud in clouds.iter_mut() {
                engine.provision(cloud, &twin, &home_plan);
                engine.provision(cloud, &restaged, &home_plan);
            }
        }
        // Consecutive steps differ in the stage names only, the workflow
        // name only, or the cloud only.
        let steps = [
            (0, &join),
            (0, &restaged),
            (0, &join),
            (0, &twin),
            (0, &join),
            (1, &join),
        ];
        let mut scratch = InvocationScratch::new();
        for inv in 0..60u64 {
            let (which, app) = steps[inv as usize % steps.len()];
            let at = 10.0 + inv as f64 * 25.0;
            let a = engine.invoke(
                &mut fresh[which],
                app,
                &offloaded,
                inv,
                at,
                &mut Pcg32::seed(inv),
            );
            let b = engine.invoke_with_scratch(
                &mut pooled[which],
                app,
                &offloaded,
                inv,
                at,
                &mut Pcg32::seed(inv),
                &mut scratch,
            );
            assert_bit_equal(&a, &b);
            // Only "join" on cloud 0 has topics in ca-central-1.
            let deployed = which == 0 && std::ptr::eq(app, &join);
            assert_eq!(b.failed_region, (!deployed).then_some(ca), "inv {inv}");
            assert_eq!(b.failovers == 0, deployed, "inv {inv}");
        }
    }

    #[test]
    fn one_scratch_across_medians_and_warm_pools_never_draws_a_stale_binding() {
        // Apps alike in name, stages and deployment that differ in one
        // median each — a node's execution time, an edge's payload, the
        // input — and a warm pool replaced mid-run, as `cloud.warm =
        // WarmPool::enabled(k)` callers do. None of it changes an address
        // name, so a book that kept its prepared distributions or its warm
        // slots across them would draw other durations and sizes, or ask
        // the new pool for the old one's containers.
        let lognormal = |median: f64| DistSpec::LogNormal { median, sigma: 0.3 };
        let mut fresh = SimCloud::aws(45);
        let mut pooled = SimCloud::aws(45);
        let mut base = sync_app(&fresh, Some(0.5));
        for (i, node) in base.profile.nodes.iter_mut().enumerate() {
            node.exec_time = lognormal(0.5 + i as f64);
        }
        for edge in &mut base.profile.edges {
            edge.payload_bytes = lognormal(20_000.0);
        }
        base.profile.input_bytes = lognormal(5_000.0);
        let mut exec = base.clone();
        exec.profile.nodes[2].exec_time = lognormal(7.0);
        let mut payload = base.clone();
        payload.profile.edges[1].payload_bytes = lognormal(90_000.0);
        let mut input = base.clone();
        input.profile.input_bytes = lognormal(60_000.0);
        let steps = [&base, &exec, &base, &payload, &input, &base];

        let ca = fresh.region("ca-central-1").unwrap();
        let mut plan = DeploymentPlan::uniform(4, base.home);
        plan.set(NodeId(2), ca);
        let carbon = carbon_table(&fresh);
        let engine = engine_over(&carbon);
        for cloud in [&mut fresh, &mut pooled] {
            engine.provision(cloud, &base, &plan);
            cloud.warm = caribou_simcloud::warm::WarmPool::enabled(600.0);
        }
        let mut scratch = InvocationScratch::new();
        for inv in 0..60u64 {
            if inv == 30 {
                for cloud in [&mut fresh, &mut pooled] {
                    cloud.warm = caribou_simcloud::warm::WarmPool::enabled(120.0);
                }
            }
            let app = steps[inv as usize % steps.len()];
            let at = 10.0 + inv as f64 * 45.0;
            let a = engine.invoke(&mut fresh, app, &plan, inv, at, &mut Pcg32::seed(inv));
            let b = engine.invoke_with_scratch(
                &mut pooled,
                app,
                &plan,
                inv,
                at,
                &mut Pcg32::seed(inv),
                &mut scratch,
            );
            assert_bit_equal(&a, &b);
        }
    }

    #[test]
    fn a_region_deployed_mid_run_is_found_and_an_undeployed_one_fails_over_home() {
        let mut fresh = SimCloud::aws(42);
        let mut pooled = SimCloud::aws(42);
        let app = chain_app(&fresh);
        let ca = fresh.region("ca-central-1").unwrap();
        let home_plan = DeploymentPlan::uniform(2, app.home);
        let mut offloaded = home_plan.clone();
        offloaded.set(NodeId(1), ca);
        let carbon = carbon_table(&fresh);
        let engine = engine_over(&carbon);
        engine.provision(&mut fresh, &app, &home_plan);
        engine.provision(&mut pooled, &app, &home_plan);
        let mut scratch = InvocationScratch::new();
        for inv in 0..20u64 {
            if inv == 10 {
                // The Migrator's rollout reaches ca-central-1.
                layout::deploy_region(&mut fresh, &app, ca);
                layout::deploy_region(&mut pooled, &app, ca);
            }
            let at = 10.0 + inv as f64 * 25.0;
            let a = engine.invoke(&mut fresh, &app, &offloaded, inv, at, &mut Pcg32::seed(inv));
            let b = engine.invoke_with_scratch(
                &mut pooled,
                &app,
                &offloaded,
                inv,
                at,
                &mut Pcg32::seed(inv),
                &mut scratch,
            );
            assert_bit_equal(&a, &b);
            assert!(b.completed);
            let ran_in = b.log.nodes.iter().find(|r| r.node == 1).unwrap().region;
            if inv < 10 {
                // The plan names a region nothing was deployed to: the
                // publish is rejected and the stage falls back home.
                assert_eq!((b.failed_region, b.failovers), (Some(ca), 1), "inv {inv}");
                assert_eq!(ran_in, app.home);
            } else {
                assert_eq!((b.failed_region, b.failovers), (None, 0), "inv {inv}");
                assert_eq!(ran_in, ca);
            }
        }
    }

    #[test]
    fn stores_hold_nothing_of_an_invocation_once_it_is_over() {
        // A blob-sized edge and a KV-sized one into a sync node, so every
        // kind of per-invocation item is written: payload, blob reference,
        // blob, annotation.
        let mut cloud = SimCloud::aws(43);
        let mut wf = Workflow::new("mixed", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        let c = wf.serverless_function("C").register();
        let d = wf.serverless_function("D").register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 5e6 });
        wf.invoke(a, c, None)
            .payload(DistSpec::Constant { value: 2e3 });
        wf.invoke(b, d, None)
            .payload(DistSpec::Constant { value: 1e6 });
        wf.invoke(c, d, None);
        wf.get_predecessor_data(d);
        let (dag, profile, _) = wf.extract().unwrap();
        let app = WorkflowApp {
            name: "mixed".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        };
        let ca = cloud.region("ca-central-1").unwrap();
        let home_plan = DeploymentPlan::uniform(4, app.home);
        let mut offloaded = home_plan.clone();
        offloaded.set(NodeId(1), ca);
        offloaded.set(NodeId(3), ca);
        let carbon = carbon_table(&cloud);
        let engine = engine_over(&carbon);
        engine.provision(&mut cloud, &app, &offloaded);
        let (kv_items, blobs) = (cloud.kv.len(), cloud.blob.len());
        let mut scratch = InvocationScratch::new();
        let mut rng = Pcg32::seed(43);
        for plan in [&home_plan, &offloaded] {
            let puts = cloud.blob.ops(app.home).puts + cloud.blob.ops(ca).puts;
            for inv in 0..10_000u64 {
                let at = inv as f64 * 5.0;
                let out = engine.invoke_with_scratch(
                    &mut cloud,
                    &app,
                    plan,
                    inv,
                    at,
                    &mut rng,
                    &mut scratch,
                );
                assert!(out.completed);
            }
            let put_now = cloud.blob.ops(app.home).puts + cloud.blob.ops(ca).puts;
            assert_eq!(put_now - puts, 20_000, "two blob-sized edges a run");
            assert_eq!(cloud.kv.len(), kv_items);
            assert_eq!(cloud.blob.len(), blobs);
        }

        // Nor once it has failed: with most deliveries dropped on the home
        // plan, hops and sync fires dead-letter and their failover is
        // refused (the node already runs at home), so nothing ever reads
        // what was stored for them.
        cloud.set_faults(caribou_simcloud::faults::FaultPlan {
            message_drop_prob: 0.6,
            ..Default::default()
        });
        let into_d = app.dag.in_edges(NodeId(3));
        let (mut lost_hops, mut lost_fires) = (0, 0);
        for inv in 20_000..22_000u64 {
            let at = inv as f64 * 5.0;
            let out = engine.invoke_with_scratch(
                &mut cloud,
                &app,
                &home_plan,
                inv,
                at,
                &mut rng,
                &mut scratch,
            );
            let edges = &out.log.edges;
            lost_hops += edges.iter().filter(|e| !e.taken && e.bytes > 0.0).count();
            let fed_d = edges
                .iter()
                .any(|e| e.taken && into_d.iter().any(|d| d.0 == e.edge));
            lost_fires += usize::from(fed_d && !out.log.nodes.iter().any(|n| n.node == 3));
        }
        assert!(lost_hops > 0 && lost_fires > 0, "{lost_hops} {lost_fires}");
        assert_eq!(cloud.kv.len(), kv_items);
        assert_eq!(cloud.blob.len(), blobs);
    }

    /// Folds every bit one invocation hands back into `h` (FNV-1a over
    /// words): the four scalars, failovers, failed region, completion and
    /// every node and edge record, in log order.
    fn fold_outcome(h: &mut u64, out: &ExecutionOutcome) {
        let mut words = vec![
            out.e2e_latency_s.to_bits(),
            out.cost_usd.to_bits(),
            out.exec_carbon_g.to_bits(),
            out.trans_carbon_g.to_bits(),
            u64::from(out.failovers),
            out.failed_region.map_or(u64::MAX, |r| u64::from(r.0)),
            u64::from(out.completed),
        ];
        for n in &out.log.nodes {
            words.extend([
                u64::from(n.node),
                u64::from(n.region.0),
                n.duration_s.to_bits(),
                n.cpu_total_time_s.to_bits(),
                u64::from(n.memory_mb),
                n.start_s.to_bits(),
            ]);
        }
        for e in &out.log.edges {
            words.extend([
                u64::from(e.edge),
                u64::from(e.taken),
                u64::from(e.from_region.0),
                u64::from(e.to_region.0),
                e.bytes.to_bits(),
                e.latency_s.to_bits(),
            ]);
        }
        for w in words {
            *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A–B blob-sized, A–C conditional, B and C joined at sync node D,
    /// D–E a plain hop after the join.
    fn pin_app(cloud: &SimCloud) -> WorkflowApp {
        let mut wf = Workflow::new("pin", "0.1");
        let [a, b, c, d, e] =
            ["A", "B", "C", "D", "E"].map(|name| wf.serverless_function(name).register());
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 5e6 });
        wf.invoke(a, c, Some(0.5))
            .payload(DistSpec::Constant { value: 2e3 });
        wf.invoke(b, d, None)
            .payload(DistSpec::Constant { value: 1e6 });
        wf.invoke(c, d, None);
        wf.invoke(d, e, None)
            .payload(DistSpec::Constant { value: 2e3 });
        wf.get_predecessor_data(d);
        let (dag, profile, _) = wf.extract().unwrap();
        WorkflowApp {
            name: "pin".into(),
            dag,
            profile,
            home: cloud.region("us-east-1").unwrap(),
        }
    }

    /// The engine's bits on every dispatch and edge-decision path,
    /// captured at 57d3d36 before dispatch and edge decisions were each
    /// written once: entry dead-letters (failover refused under drops,
    /// accepted under an entry-region outage), pick-up outages, hop and
    /// sync-fire dead-letters with the failover accepted and refused,
    /// skipped edges into the sync node, the Step Functions and raw-SNS
    /// paths and the blob path. Each row: scenario, completed and
    /// failed-over invocations of 200, digest of every outcome.
    #[test]
    fn every_dispatch_and_edge_decision_path_is_pinned() {
        const SPACING_S: f64 = 60.0;
        let mut cloud = SimCloud::aws(50);
        let app = pin_app(&cloud);
        let (home, ca) = (app.home, cloud.region("ca-central-1").unwrap());
        let at_home = DeploymentPlan::uniform(5, home);
        let mut offloaded = at_home.clone();
        for n in [1, 3, 4] {
            offloaded.set(NodeId(n), ca);
        }
        let mut entry_away = at_home.clone();
        entry_away.set(NodeId(0), ca);
        let drops = FaultPlan {
            message_drop_prob: 0.6,
            ..FaultPlan::none()
        };
        // ca goes down 0.2 s into every invocation: each publish towards
        // it (evaluated at the invocation's start) is delivered, and the
        // function is down when the message is to be picked up.
        let mut pick_up = FaultPlan::none();
        for i in 0..200 {
            let at = i as f64 * SPACING_S;
            pick_up = pick_up.with_outage(ca, at + 0.2, at + SPACING_S / 2.0);
        }
        let entry_down = FaultPlan::none().with_outage(ca, 0.0, 1e9);
        use caribou_simcloud::faults::FaultPlan;
        use Orchestrator::{Caribou, Sns, StepFunctions};
        let rows = [
            (
                "drops at home",
                Caribou,
                &at_home,
                &drops,
                140,
                0,
                0x57b9b9d4bf7940e3u64,
            ),
            (
                "drops offloaded",
                Caribou,
                &offloaded,
                &drops,
                167,
                26,
                0xa2e9d915abc84176,
            ),
            (
                "entry outage",
                Caribou,
                &entry_away,
                &entry_down,
                200,
                200,
                0x8e7537c9721afe1,
            ),
            (
                "pick-up outage",
                Caribou,
                &offloaded,
                &pick_up,
                200,
                200,
                0x1314f5d8ae5c524f,
            ),
            (
                "sns drops",
                Sns,
                &offloaded,
                &drops,
                177,
                39,
                0x2a6bfe5ef3b8411b,
            ),
            (
                "step functions",
                StepFunctions,
                &offloaded,
                &pick_up,
                200,
                200,
                0x32578dd275f37653,
            ),
        ];
        let carbon = carbon_table(&cloud);
        let mut moved = Vec::new();
        for (seed, (label, orchestrator, plan, faults, completed, failed_over, digest)) in
            rows.into_iter().enumerate()
        {
            let engine = ExecutionEngine {
                carbon_source: &carbon,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                orchestrator,
            };
            cloud = SimCloud::aws(50);
            cloud.set_faults(faults.clone());
            engine.provision(&mut cloud, &app, plan);
            let mut rng = Pcg32::seed(seed as u64);
            let mut scratch = InvocationScratch::new();
            let (mut ok, mut fell_back, mut h) = (0, 0, 0xcbf2_9ce4_8422_2325u64);
            for inv in 0..200u64 {
                let at = inv as f64 * SPACING_S;
                let out = engine.invoke_with_scratch(
                    &mut cloud,
                    &app,
                    plan,
                    inv,
                    at,
                    &mut rng,
                    &mut scratch,
                );
                ok += u32::from(out.completed);
                fell_back += u32::from(out.failovers > 0);
                fold_outcome(&mut h, &out);
            }
            if (ok, fell_back, h) != (completed, failed_over, digest) {
                moved.push(format!("{label}: ({ok}, {fell_back}, {h:#x})"));
            }
        }
        assert!(moved.is_empty(), "moved: {moved:#?}");
    }

    /// A flat grid that counts how often it is asked.
    struct AskedSource {
        asked: std::sync::atomic::AtomicU64,
        counts_queries: bool,
    }

    impl CarbonDataSource for AskedSource {
        fn intensity(&self, _region: RegionId, _hour: f64) -> f64 {
            self.asked
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            300.0
        }

        fn counts_queries(&self) -> bool {
            self.counts_queries
        }
    }

    #[test]
    fn the_grid_is_asked_once_per_region_unless_it_counts_its_queries() {
        let asked = |counts_queries: bool| {
            let mut cloud = SimCloud::aws(44);
            let app = chain_app(&cloud);
            let ca = cloud.region("ca-central-1").unwrap();
            let mut plan = DeploymentPlan::uniform(2, app.home);
            plan.set(NodeId(1), ca);
            let carbon = AskedSource {
                asked: 0.into(),
                counts_queries,
            };
            let engine = ExecutionEngine {
                carbon_source: &carbon,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                orchestrator: Orchestrator::Caribou,
            };
            engine.provision(&mut cloud, &app, &plan);
            let out = engine.invoke(&mut cloud, &app, &plan, 1, 100.0, &mut Pcg32::seed(44));
            (carbon.asked.into_inner(), out.carbon_g().to_bits())
        };
        let (memoized, carbon_memoized) = asked(false);
        let (every_time, carbon_every_time) = asked(true);
        // Two regions; two executions plus two transfers' endpoints.
        assert_eq!(memoized, 2);
        assert_eq!(every_time, 6);
        assert_eq!(carbon_memoized, carbon_every_time);
    }

    #[test]
    fn warm_scratch_stops_growing_buffers() {
        let mut cloud = SimCloud::aws(12);
        let app = sync_app(&cloud, None);
        let plan = DeploymentPlan::uniform(4, app.home);
        let carbon = carbon_table(&cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut cloud, &app, &plan);
        let mut rng = Pcg32::seed(99);
        let mut scratch = InvocationScratch::new();
        // Pooled-buffer growth is counted per telemetry session.
        let growth = || {
            let finished = caribou_telemetry::finish().expect("session active");
            finished.recorder.counter("engine.scratch_allocs")
        };
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        engine.invoke_with_scratch(&mut cloud, &app, &plan, 0, 10.0, &mut rng, &mut scratch);
        assert!(growth() >= 1, "first invocation must size the buffers");
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        for inv in 1..50u64 {
            engine.invoke_with_scratch(
                &mut cloud,
                &app,
                &plan,
                inv,
                10.0 + inv as f64 * 20.0,
                &mut rng,
                &mut scratch,
            );
        }
        // Warm steady state reuses every pooled buffer.
        assert_eq!(growth(), 0);
    }

    #[test]
    fn alloc_gauge_reports_warm_steady_state() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let mut cloud = SimCloud::aws(13);
        let app = chain_app(&cloud);
        let plan = DeploymentPlan::uniform(2, app.home);
        let carbon = carbon_table(&cloud);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut cloud, &app, &plan);
        let mut rng = Pcg32::seed(7);
        let mut scratch = InvocationScratch::new();
        for inv in 0..10u64 {
            engine.invoke_with_scratch(
                &mut cloud,
                &app,
                &plan,
                inv,
                5.0 + inv as f64 * 15.0,
                &mut rng,
                &mut scratch,
            );
        }
        let finished = caribou_telemetry::finish().expect("session active");
        let rec = &finished.recorder;
        // The gauge holds the last invocation's value: warm steady state
        // allocates only the two caller-owned log-record vectors.
        assert_eq!(rec.gauges["engine.alloc_per_invocation"], 2.0);
        // Pooled-buffer growth all happened on the first invocation; the
        // counter stops moving once the scratch is warm.
        let cold_growth = rec.counter("engine.scratch_allocs");
        assert!(cold_growth >= 1, "first invocation must size the buffers");
        assert!(
            cold_growth <= 7,
            "warm invocations must not grow pooled buffers (saw {cold_growth})"
        );
    }
}
