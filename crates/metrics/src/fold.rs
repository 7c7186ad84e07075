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
//! the plan's [`PlanRecord`]. On its way it computes, per sample, the GB
//! each transfer moved and — where the bank does not hold them yet — the
//! seconds each node took in its region, their bill and their energy, and
//! publishes them as the bank's [`Derived`] columns. A neighbour of a
//! folded plan differs from it in a node or two, so its fold reads every
//! other node's columns back; `crate::price` multiplies the energy and the
//! GB by the grid, which is all that is left to do for another time of
//! day.

use caribou_model::dag::WorkflowDag;

use crate::bank::{BankId, Derived, DrawBank, Prim, SharedBank, Site};
use crate::energy;
use crate::prep::{self, pick, EdgePrep, ExecPrep, NodePrep, PlanPrep, TransferPrep};
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
    /// Per sample of the batch: start time of the node being folded.
    ready: Vec<f64>,
    /// The batch's derived columns, `batch` samples each, in
    /// [`derived_columns`] order; stale where the bank already held the
    /// column and the fold read it there.
    derived: Vec<f64>,
    /// Node sites (a node in its region, per batch) whose columns the
    /// bank served, and those computed, since the last reset.
    pub(crate) sites_read: u64,
    pub(crate) sites_folded: u64,
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
        let nodes = dag.node_count();
        let columns = 1 + dag.edge_count() + 3 * nodes;
        if self.finish.len() < nodes * batch
            || self.ready.len() < batch
            || self.derived.len() < columns * batch
        {
            caribou_telemetry::count("montecarlo.node_state_allocs", 3);
            self.finish.resize(nodes * batch, f64::NEG_INFINITY);
            self.ready.resize(batch, 0.0);
            self.derived.resize(columns * batch, 0.0);
        }
        self.lat.clear();
        self.cost.clear();
        (self.lat_sum, self.cost_sum) = (0.0, 0.0);
        (self.sites_read, self.sites_folded) = (0, 0);
    }
}

/// The derived column each `batch`-sample stretch of `FoldState::derived`
/// holds after a fold of `prep`'s plan.
fn derived_columns<'p>(prep: &'p PlanPrep<'_>) -> impl Iterator<Item = Derived> + 'p {
    let transfers = (0..prep.edges.len()).map(Derived::EdgeGb);
    let nodes = prep.nodes.iter().enumerate();
    std::iter::once(Derived::EntryGb)
        .chain(transfers)
        .chain(nodes.flat_map(|(ni, np)| Derived::site(ni, np.region)))
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
        let unpublished = fold(dag, prep, &bank.covering(id, &prep.needs, hi), s, lo, hi);
        if unpublished {
            // A stale stretch is a column the bank holds to `hi`:
            // publishing appends nothing of it.
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
/// cost; a pass per node adds the node's seconds and bill. A derived
/// column the bank holds to `hi` is read, any other computed first into
/// `s.derived` — `true` if any was, for the caller to publish. The passes
/// are straight lines over the batch: a sample that never gets somewhere
/// carries `NEG_INFINITY` there and selects its old cost.
fn fold(
    dag: &WorkflowDag,
    prep: &PlanPrep<'_>,
    bank: &DrawBank,
    s: &mut FoldState,
    lo: usize,
    hi: usize,
) -> bool {
    let m = hi - lo;
    let column = |site, prim| &bank.column(site, prim)[lo..hi];
    let banked = |col| bank.derived(col, hi).map(|vals| &vals[lo..hi]);
    s.lat.resize(hi, 0.0);
    s.cost.resize(hi, 0.0);
    let (lat, cost) = (&mut s.lat[lo..], &mut s.cost[lo..]);
    let ready = &mut s.ready[..m];
    let (entry_gb, derived) = s.derived.split_at_mut(m);
    let (edge_gb, node_sites) = derived.split_at_mut(prep.edges.len() * m);
    let mut computed = false;

    // The client delivers the input to the start node from home.
    let e = &prep.entry;
    let input = column(Site::Entry, Prim::Value);
    let setup = e.setup.then(|| column(Site::Entry, Prim::Overhead));
    let xfer = column(Site::Entry, e.transfer.prim());
    let gb = banked(Derived::EntryGb).unwrap_or_else(|| {
        computed = true;
        for i in 0..m {
            entry_gb[i] = input[i].max(0.0) / 1.0e9;
        }
        entry_gb
    });
    for i in 0..m {
        ready[i] = setup.map_or(0.0, |s| s[i]) + e.transfer.seconds(input[i], xfer[i]);
        cost[i] = gb[i] * e.egress_rate + e.kv;
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
                let pass = EdgePass {
                    ep,
                    gate: ep.gated().then(|| column(site, Prim::Taken)),
                    from: &s.finish[ep.from * m..][..m],
                    payload: column(site, Prim::Value),
                    overhead: column(site, Prim::Overhead),
                    xfer: column(site, ep.transfer.prim()),
                    ready: &mut *ready,
                    cost: &mut *cost,
                };
                let gb = &mut edge_gb[eid.index() * m..][..m];
                let gb = banked(Derived::EdgeGb(eid.index())).unwrap_or_else(|| {
                    computed = true;
                    pass.carried(gb);
                    gb
                });
                match ep.transfer {
                    TransferPrep::Model { ow, bw } => pass.deliver(gb, |bytes, jitter| {
                        prep::model_seconds(ow, bw, bytes, jitter)
                    }),
                    TransferPrep::Learned(samples) => {
                        pass.deliver(gb, |_, u| prep::learned_seconds(samples, u))
                    }
                }
            }
        }

        let site = &mut node_sites[3 * ni * m..][..3 * m];
        let [seconds, bill, _] = Derived::site(ni, np.region);
        let (seconds, bill) = match banked(seconds).zip(banked(bill)) {
            Some(read) => {
                s.sites_read += 1;
                read
            }
            None => {
                s.sites_folded += 1;
                computed = true;
                node_site(np, ni, bank, ready, site, lo, hi);
                let (seconds, rest) = site.split_at(m);
                (seconds, &rest[..m])
            }
        };
        let finish = &mut s.finish[ni * m..][..m];
        // No fetch adds `0.0`, which moves no bit: `cost` is never `-0.0`
        // (the entry wrote `x + kv`).
        let ext_cost = np.ext.as_ref().map_or(0.0, |ext| ext.cost);
        for i in 0..m {
            finish[i] = ready[i] + seconds[i];
            lat[i] = lat[i].max(finish[i]);
            let billed = cost[i] + ext_cost + bill[i];
            cost[i] = if ready[i] == f64::NEG_INFINITY {
                cost[i]
            } else {
                billed
            };
        }
    }
    computed
}

/// One in-edge's columns over a batch.
struct EdgePass<'a> {
    ep: &'a EdgePrep<'a>,
    /// The conditional uniform, where the edge reads one.
    gate: Option<&'a [f64]>,
    /// When the edge's source finished.
    from: &'a [f64],
    payload: &'a [f64],
    overhead: &'a [f64],
    /// The transfer's jitter or pick.
    xfer: &'a [f64],
    ready: &'a mut [f64],
    cost: &'a mut [f64],
}

impl EdgePass<'_> {
    /// The GB the edge carries, into `gb`: `NaN` where its source never
    /// ran or it was not taken. The gate is matched outside the loop.
    fn carried(&self, gb: &mut [f64]) {
        let prob = self.ep.prob;
        match self.gate {
            Some(uniform) => self.carried_if(gb, uniform, |u| u < prob),
            // Certain either way; any column stands in for the uniform.
            None => self.carried_if(gb, self.from, |_| prob >= 1.0),
        }
    }

    fn carried_if(&self, gb: &mut [f64], uniform: &[f64], taken: impl Fn(f64) -> bool) {
        // One length for every column: no bounds check in the loop.
        let m = gb.len();
        let (from, uniform, payload) = (&self.from[..m], &uniform[..m], &self.payload[..m]);
        for i in 0..m {
            let go = (from[i] != f64::NEG_INFINITY) & taken(uniform[i]);
            gb[i] = if go {
                payload[i].max(0.0) / 1.0e9
            } else {
                f64::NAN
            };
        }
    }

    /// Delivers the edge wherever it carried something (`gb`):
    /// `seconds(bytes, draw)` is the transfer's, its arm matched by the
    /// caller, outside the loops — two short ones, a store each, which
    /// vectorise where one long one does not.
    fn deliver(self, gb: &[f64], seconds: impl Fn(f64, f64) -> f64) {
        let ep = self.ep;
        let m = gb.len();
        let (from, xfer) = (&self.from[..m], &self.xfer[..m]);
        let (payload, overhead) = (&self.payload[..m], &self.overhead[..m]);
        let (ready, cost) = (&mut self.ready[..m], &mut self.cost[..m]);
        // When it arrives: a source that never ran would keep the sum at
        // −∞ by itself, a skipped edge is put there.
        for i in 0..m {
            let arrive = from[i] + overhead[i] + seconds(payload[i], xfer[i]);
            let arrive = if gb[i].is_nan() {
                f64::NEG_INFINITY
            } else {
                arrive
            };
            ready[i] = ready[i].max(arrive);
        }
        // What it costs, taken or skipped.
        for i in 0..m {
            let fee = if gb[i].is_nan() {
                ep.skipped_cost
            } else {
                ep.taken_cost + gb[i] * ep.egress_rate
            };
            cost[i] = if from[i] == f64::NEG_INFINITY {
                cost[i]
            } else {
                cost[i] + fee
            };
        }
    }
}

/// Computes samples `lo..hi` of the three columns of node `ni` run where
/// `np` has it — [`Derived::site`] order, `hi - lo` samples each, into
/// `site`. Seconds and bill are held for every sample; the energy is `NaN`
/// where the sample skipped the node (`ready` at −∞), which the bank's
/// uniforms and the profile decide alone, not the plan.
fn node_site(
    np: &NodePrep<'_>,
    ni: usize,
    bank: &DrawBank,
    ready: &[f64],
    site: &mut [f64],
    lo: usize,
    hi: usize,
) {
    let m = hi - lo;
    let column = |site, prim| &bank.column(site, prim)[lo..hi];
    let (seconds, rest) = site.split_at_mut(m);
    let (bill, kwh) = rest.split_at_mut(m);
    match np.exec {
        ExecPrep::Model { pf, cold } => {
            let factor = column(Site::Node(ni), Prim::Value);
            for i in 0..m {
                seconds[i] = factor[i] * pf;
            }
            if let Some(curve) = cold {
                for &(i, penalty) in bank.cold_starts(ni, curve, lo, hi) {
                    seconds[i - lo] += penalty;
                }
            }
        }
        ExecPrep::Learned { samples, scale } => {
            let picks = column(Site::Node(ni), Prim::Pick);
            for i in 0..m {
                seconds[i] = samples[pick(picks[i], samples.len())] * scale;
            }
        }
    }
    if let Some(ext) = &np.ext {
        let out = column(Site::ExtOut(ni), ext.out.prim());
        let back = column(Site::ExtBack(ni), ext.back.prim());
        for i in 0..m {
            seconds[i] += ext.out.seconds(ext.half, out[i]) + ext.back.seconds(ext.half, back[i]);
        }
    }
    for i in 0..m {
        let d = seconds[i];
        // Lambda bills whole milliseconds (`lambda_cost`).
        bill[i] = (d * 1000.0).ceil() / 1000.0 * np.per_second + np.per_request;
        // The energy of Eq. 7.1 (kWh × PUE); the grid multiplies it.
        let drawn = np.kw * d / 3600.0 * energy::PUE;
        kwh[i] = if ready[i] == f64::NEG_INFINITY {
            f64::NAN
        } else {
            drawn
        };
    }
}
