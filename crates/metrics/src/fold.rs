//! The fold: the half of an estimate that does not move with the clock.
//!
//! A plan's sampled executions — which conditional edges fire, when each
//! node starts and finishes, what each invocation bills — are the same at
//! noon and at midnight: time enters an estimate only through the grid,
//! and the grid only multiplies energy and bytes that are fixed once the
//! plan is. So a plan is folded once. [`extend`] runs the bank's columns
//! through the DAG node by node (critical path by max/plus, billing,
//! cost), keeps per-sample latency and cost, and writes down at every
//! stopping-rule boundary what the rule tests and the summary reports —
//! the plan's [`PlanRecord`]. On its way it computes, per sample, the
//! energy each node drew and the GB each transfer moved, and publishes
//! them as the bank's [`Derived`] columns; `crate::price` multiplies those
//! by the grid, which is all that is left to do for another time of day.

use caribou_model::dag::WorkflowDag;

use crate::bank::{BankId, Derived, DrawBank, Prim, SharedBank, Site};
use crate::energy;
use crate::prep::{pick, ExecPrep, PlanPrep, TransferPrep};
use crate::summary::{percentile_select, DistSummary, Moments};

/// Latency and cost of a plan's first `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Boundary {
    pub(crate) n: usize,
    pub(crate) lat: Moments,
    pub(crate) cost: Moments,
    lat_p95: f64,
    cost_p95: f64,
}

impl Boundary {
    /// The (latency, cost) summaries reported at this boundary.
    pub(crate) fn summaries(&self) -> (DistSummary, DistSummary) {
        (
            self.lat.summary(self.lat_p95, self.n),
            self.cost.summary(self.cost_p95, self.n),
        )
    }
}

/// What folding a plan leaves behind: its latency and cost at each
/// stopping-rule boundary the fold reached.
///
/// A record belongs to one (frozen context, bank, plan); whoever keeps it
/// — the solver's estimate cache — hands it back with that plan only. An
/// estimate that stops inside the record folds nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRecord {
    bounds: Vec<Boundary>,
}

impl PlanRecord {
    pub(crate) fn boundary(&self, n: usize) -> Option<&Boundary> {
        self.bounds.iter().find(|b| b.n == n)
    }

    /// The (latency, cost) summaries of the first `n` samples, when `n` is
    /// a boundary the fold reached.
    pub fn at(&self, n: usize) -> Option<(DistSummary, DistSummary)> {
        self.boundary(n).map(Boundary::summaries)
    }

    /// Boundaries recorded; a longer record of a plan covers a shorter.
    pub fn boundaries(&self) -> usize {
        self.bounds.len()
    }
}

/// The columns a fold works in, reused from one estimate to the next.
#[derive(Debug, Default)]
pub(crate) struct FoldState {
    /// Finish times, `node_count × batch`, node-major; `NEG_INFINITY`
    /// where the sample skipped the node.
    finish: Vec<f64>,
    /// Per sample of the batch: start time and duration of the node being
    /// folded.
    batch: [Vec<f64>; 2],
    /// The batch's derived columns, `batch` samples each: the entry's GB,
    /// every edge's, every node's energy.
    derived: Vec<f64>,
    // Per-sample metric columns of the plan, in sample order, and their
    // left-fold sums: the same additions whatever the batch size.
    lat: Vec<f64>,
    cost: Vec<f64>,
    lat_sum: f64,
    cost_sum: f64,
    /// Where a boundary's percentile is selected; `lat` and `cost` keep
    /// their order for the next boundary's variance.
    select: Vec<f64>,
}

impl FoldState {
    /// Sizes the working columns for a DAG and `batch`, counting a
    /// (re)allocation as 3 in `montecarlo.node_state_allocs` (one per
    /// kind of column) so reuse is observable, and forgets the samples of
    /// the plan folded before.
    pub(crate) fn reset(&mut self, dag: &WorkflowDag, batch: usize) {
        let (nodes, sites) = (dag.node_count(), 1 + dag.edge_count() + dag.node_count());
        if self.finish.len() < nodes * batch
            || self.batch[0].len() < batch
            || self.derived.len() < sites * batch
        {
            caribou_telemetry::count("montecarlo.node_state_allocs", 3);
            self.finish.resize(nodes * batch, f64::NEG_INFINITY);
            for col in &mut self.batch {
                col.resize(batch, 0.0);
            }
            self.derived.resize(sites * batch, 0.0);
        }
        self.lat.clear();
        self.cost.clear();
        (self.lat_sum, self.cost_sum) = (0.0, 0.0);
    }
}

/// The derived column each `batch`-sample stretch of `FoldState::derived`
/// holds after a fold of `prep`'s plan.
fn derived_columns<'p>(prep: &'p PlanPrep<'_>) -> impl Iterator<Item = Derived> + 'p {
    let transfers = (0..prep.edges.len()).map(Derived::EdgeGb);
    let nodes = prep.nodes.iter().enumerate();
    std::iter::once(Derived::EntryGb)
        .chain(transfers)
        .chain(nodes.map(|(ni, np)| Derived::Energy(ni, np.region)))
}

/// Folds whole batches of `prep`'s plan, from where `s` stands, until `n`
/// samples are folded: publishes each batch's derived columns to the bank
/// and appends each boundary to `record`.
pub(crate) fn extend(
    dag: &WorkflowDag,
    prep: &PlanPrep<'_>,
    (bank, id): (&SharedBank, &BankId),
    s: &mut FoldState,
    record: &mut PlanRecord,
    batch: usize,
    n: usize,
) {
    while s.lat.len() < n {
        let lo = s.lat.len();
        let hi = lo + batch;
        let unpublished = {
            let bank = bank.covering(id, &prep.needs, hi);
            fold(dag, prep, &bank, s, lo, hi);
            derived_columns(prep).any(|col| bank.derived(col, hi).is_none())
        };
        if unpublished {
            let batches = s.derived.chunks_exact(batch);
            bank.publish(id, lo, derived_columns(prep).zip(batches));
        }
        s.lat_sum = s.lat[lo..].iter().fold(s.lat_sum, |sum, x| sum + x);
        s.cost_sum = s.cost[lo..].iter().fold(s.cost_sum, |sum, x| sum + x);
        let mut p95 = |col: &[f64]| {
            s.select.clear();
            s.select.extend_from_slice(col);
            percentile_select(&mut s.select, 0.95)
        };
        record.bounds.push(Boundary {
            n: hi,
            lat: Moments::of(&s.lat, s.lat_sum),
            cost: Moments::of(&s.cost, s.cost_sum),
            lat_p95: p95(&s.lat),
            cost_p95: p95(&s.cost),
        });
    }
}

/// Folds samples `lo..hi` of the bank's columns through the DAG, node by
/// node: a pass per in-edge accumulates each sample's start time and
/// cost; a pass per node bills, meters energy, finishes.
fn fold(
    dag: &WorkflowDag,
    prep: &PlanPrep<'_>,
    bank: &DrawBank,
    s: &mut FoldState,
    lo: usize,
    hi: usize,
) {
    let m = hi - lo;
    let column = |site, prim| &bank.column(site, prim)[lo..hi];
    let draws = |t: &TransferPrep<'_>, site| column(site, t.prim());
    s.lat.resize(hi, 0.0);
    s.cost.resize(hi, 0.0);
    let (lat, cost) = (&mut s.lat[lo..], &mut s.cost[lo..]);
    let [ready, dur] = s.batch.each_mut().map(|col| &mut col[..m]);
    let (entry_gb, derived) = s.derived.split_at_mut(m);
    let (edge_gb, node_kwh) = derived.split_at_mut(prep.edges.len() * m);

    // The client delivers the input to the start node from home.
    let e = &prep.entry;
    let input = column(Site::Entry, Prim::Value);
    let setup = e.setup.then(|| column(Site::Entry, Prim::Overhead));
    let xfer = draws(&e.transfer, Site::Entry);
    for i in 0..m {
        let gb = input[i].max(0.0) / 1.0e9;
        ready[i] = setup.map_or(0.0, |s| s[i]) + e.transfer.seconds(input[i], xfer[i]);
        entry_gb[i] = gb;
        cost[i] = gb * e.egress_rate + e.kv;
    }

    for &node in dag.topo_order() {
        let ni = node.index();
        let np = &prep.nodes[ni];
        if node != dag.start() {
            // Whether and when each sample starts this node: when the
            // last taken in-edge delivers.
            ready.fill(f64::NEG_INFINITY);
            for &eid in dag.in_edges(node) {
                let ep = &prep.edges[eid.index()];
                let site = Site::Edge(eid.index());
                let from = &s.finish[ep.from * m..][..m];
                let gate = ep.gated().then(|| column(site, Prim::Taken));
                let payload = column(site, Prim::Value);
                let overhead = column(site, Prim::Overhead);
                let xfer = draws(&ep.transfer, site);
                let carried = &mut edge_gb[eid.index() * m..][..m];
                for i in 0..m {
                    carried[i] = f64::NAN;
                    if from[i] == f64::NEG_INFINITY {
                        continue;
                    }
                    if !gate.map_or(ep.prob >= 1.0, |u| u[i] < ep.prob) {
                        cost[i] += ep.skipped_cost;
                        continue;
                    }
                    let gb = payload[i].max(0.0) / 1.0e9;
                    let arrive = from[i] + overhead[i] + ep.transfer.seconds(payload[i], xfer[i]);
                    ready[i] = ready[i].max(arrive);
                    cost[i] += ep.taken_cost + gb * ep.egress_rate;
                    carried[i] = gb;
                }
            }
        }

        match np.exec {
            ExecPrep::Model { pf, cold } => {
                let factor = column(Site::Node(ni), Prim::Value);
                for i in 0..m {
                    dur[i] = factor[i] * pf;
                }
                if let Some(curve) = cold {
                    for &(i, penalty) in bank.cold_starts(ni, curve, lo, hi) {
                        dur[i - lo] += penalty;
                    }
                }
            }
            ExecPrep::Learned { samples, scale } => {
                let picks = column(Site::Node(ni), Prim::Pick);
                for i in 0..m {
                    dur[i] = samples[pick(picks[i], samples.len())] * scale;
                }
            }
        }
        let finish = &mut s.finish[ni * m..][..m];
        let kwh = &mut node_kwh[ni * m..][..m];
        let ext = np.ext.as_ref().map(|ext| {
            let out = draws(&ext.out, Site::ExtOut(ni));
            let back = draws(&ext.back, Site::ExtBack(ni));
            (ext, out, back)
        });
        for i in 0..m {
            if ready[i] == f64::NEG_INFINITY {
                finish[i] = f64::NEG_INFINITY;
                kwh[i] = f64::NAN;
                continue;
            }
            let mut d = dur[i];
            if let Some((ext, out, back)) = ext {
                d += ext.out.seconds(ext.half, out[i]) + ext.back.seconds(ext.half, back[i]);
                cost[i] += ext.cost;
            }
            finish[i] = ready[i] + d;
            lat[i] = lat[i].max(finish[i]);
            // Lambda bills whole milliseconds (`lambda_cost`).
            cost[i] += (d * 1000.0).ceil() / 1000.0 * np.per_second + np.per_request;
            // The energy of Eq. 7.1 (kWh × PUE); the grid multiplies it.
            kwh[i] = np.kw * d / 3600.0 * energy::PUE;
        }
    }
}
