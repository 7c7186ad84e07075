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
//! the plan's [`PlanRecord`]. On its way — where the bank does not hold
//! them yet — it computes, per sample, the GB each transfer moved, each
//! modelled transfer's bytes over its bandwidth, and the seconds each node
//! took in its region, their bill and their energy, and publishes them as
//! the bank's [`Derived`] columns. A neighbour of a folded plan differs
//! from it in a node or two, so its fold reads every other site's columns
//! back and is left with its arithmetic: no division, no table of
//! constants, no allocation; `crate::price` multiplies the energy and the
//! GB by the grid, which is all that is left to do for another time of
//! day.

use caribou_model::dag::WorkflowDag;
use caribou_model::plan::DeploymentPlan;
use caribou_simcloud::pricing::billed_seconds;

use crate::bank::{Derived, DrawBank, Prim, SharedBank, Site};
use crate::energy;
use crate::prep::{self, pick, EdgePrep, ExecPrep, NodePrep, Prep, TransferPrep};
use crate::summary::{p95, DistSummary, Moments};
use crate::wide;

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
/// estimate that stops inside the record folds nothing. A fold writes its
/// boundaries in the fold's scratch ([`FoldState`]) and the record is
/// copied out of it once the estimate stops, at exactly its length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRecord {
    bounds: Box<[Boundary]>,
}

/// The boundary of `n` samples among `bounds`.
fn boundary(bounds: &[Boundary], n: usize) -> Option<&Boundary> {
    bounds.iter().find(|b| b.n == n)
}

impl PlanRecord {
    pub(crate) fn boundary(&self, n: usize) -> Option<&Boundary> {
        boundary(&self.bounds, n)
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
    /// The batch's derived columns, `batch` samples each: the entry's GB,
    /// each edge's, the entry's quotient, each edge's, then each node's
    /// three; stale where the bank already held the column and the fold
    /// read it there.
    derived: Vec<f64>,
    /// The columns of `derived` the batch computed, and their stretch:
    /// what the fold publishes.
    computed: Vec<(Derived, usize)>,
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
    /// Where a boundary's percentile is selected (`summary::p95`); `lat`
    /// and `cost` keep their order for the next boundary's variance.
    keys: Vec<i64>,
    /// The boundaries folded since the last reset: the plan's record.
    bounds: Vec<Boundary>,
}

impl FoldState {
    /// The latency and cost of every sample folded since the last reset.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> (&[f64], &[f64]) {
        (&self.lat, &self.cost)
    }

    /// Sizes the working columns for a DAG and `batch`, counting a
    /// (re)allocation as 3 in `montecarlo.node_state_allocs` (one per
    /// kind of column) so reuse is observable, and forgets the samples of
    /// the plan folded before.
    pub(crate) fn reset(&mut self, dag: &WorkflowDag, batch: usize) {
        let nodes = dag.node_count();
        let columns = 2 * (1 + dag.edge_count()) + 3 * nodes;
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
        self.bounds.clear();
    }

    /// The boundary of `n` samples, when the fold since the last reset
    /// reached it.
    pub(crate) fn boundary(&self, n: usize) -> Option<&Boundary> {
        boundary(&self.bounds, n)
    }

    /// The record of the plan folded since the last reset, in one
    /// allocation of its length.
    pub(crate) fn record(&self) -> PlanRecord {
        PlanRecord {
            bounds: self.bounds.as_slice().into(),
        }
    }
}

/// Folds whole batches of `plan`, from where `s` stands, until `n` samples
/// are folded: publishes what each batch computed of the bank's derived
/// columns and appends each boundary to `s`'s record.
pub(crate) fn extend(
    prep: &Prep<'_>,
    plan: &DeploymentPlan,
    bank: &SharedBank,
    s: &mut FoldState,
    batch: usize,
    n: usize,
) {
    while s.lat.len() < n {
        let lo = s.lat.len();
        let hi = lo + batch;
        let counts = (s.sites_read, s.sites_folded);
        let folded = bank.bound().is_some_and(|bank| {
            wide::run(Batch {
                prep,
                plan,
                bank: &bank,
                s,
                lo,
                hi,
            })
        });
        if !folded {
            // A column was short, or the bank not yet shaped: draw what
            // the plan reads, then fold the batch again.
            s.lat.truncate(lo);
            s.cost.truncate(lo);
            (s.sites_read, s.sites_folded) = counts;
            let shape = (prep.dag.node_count(), prep.dag.edge_count());
            bank.fill(shape, |bank| prep.walk(plan, bank, hi));
            continue;
        }
        if !s.computed.is_empty() {
            let derived = &s.derived;
            let computed = s.computed.iter();
            bank.publish(
                lo,
                computed.map(|&(col, at)| (col, &derived[at * batch..][..batch])),
            );
        }
        (s.lat_sum, s.cost_sum) = sums(&s.lat[lo..], &s.cost[lo..], (s.lat_sum, s.cost_sum));
        let (lat, cost) = Moments::of_pair((&s.lat, s.lat_sum), (&s.cost, s.cost_sum));
        s.bounds.push(Boundary {
            n: hi,
            lat,
            cost,
            lat_p95: p95(&s.lat, &lat, &mut s.keys),
            cost_p95: p95(&s.cost, &cost, &mut s.keys),
        });
    }
}

/// The left-fold sums of two columns of one length, carried on from
/// `(a, b)`, in one loop.
fn sums(xs: &[f64], ys: &[f64], (mut a, mut b): (f64, f64)) -> (f64, f64) {
    let ys = &ys[..xs.len()];
    for i in 0..xs.len() {
        a += xs[i];
        b += ys[i];
    }
    (a, b)
}

/// One batch of a fold's operands; [`fold`] is its body, inlined with
/// every loop it calls into each vector level's wrapper (`crate::wide`).
struct Batch<'a, 'p> {
    prep: &'a Prep<'p>,
    plan: &'a DeploymentPlan,
    bank: &'a DrawBank,
    s: &'a mut FoldState,
    lo: usize,
    hi: usize,
}

impl wide::Kernel for Batch<'_, '_> {
    type Out = bool;

    #[inline(always)]
    fn call(self) -> bool {
        fold(self.prep, self.plan, self.bank, self.s, self.lo, self.hi).is_some()
    }
}

/// Folds samples `lo..hi` of the bank's columns through the DAG, node by
/// node: a pass per in-edge accumulates each sample's start time and
/// cost; a pass per node adds the node's seconds and bill. A derived
/// column the bank holds to `hi` is read, any other computed first into
/// `s.derived` and listed in `s.computed`, for the caller to publish;
/// `None` as soon as a primitive column it reads is short. The passes are
/// straight lines over the batch: a sample that never gets somewhere
/// carries `NEG_INFINITY` there and selects its old cost. Each is a free
/// function of its columns (see "Sample loops" in DESIGN.md), its arms
/// matched here, outside the loop.
#[inline(always)]
fn fold(
    prep: &Prep<'_>,
    plan: &DeploymentPlan,
    bank: &DrawBank,
    s: &mut FoldState,
    lo: usize,
    hi: usize,
) -> Option<()> {
    let dag = prep.dag;
    let (m, edges) = (hi - lo, dag.edge_count());
    let column = |site, prim| bank.column(site, prim, lo, hi);
    let banked = |col| bank.derived(col, hi).map(|vals| &vals[lo..hi]);
    s.lat.resize(hi, 0.0);
    s.cost.resize(hi, 0.0);
    let FoldState {
        finish,
        ready,
        derived,
        computed,
        sites_read,
        sites_folded,
        lat,
        cost,
        ..
    } = s;
    let (lat, cost) = (&mut lat[lo..], &mut cost[lo..]);
    let ready = &mut ready[..m];
    let (entry_gb, derived) = derived.split_at_mut(m);
    let (edge_gb, derived) = derived.split_at_mut(edges * m);
    let (entry_q, derived) = derived.split_at_mut(m);
    let (edge_q, node_sites) = derived.split_at_mut(edges * m);
    computed.clear();

    // The client delivers the input to the start node from home.
    let e = prep.entry(plan);
    let setup = if e.setup {
        Some(column(Site::Entry, Prim::Overhead)?)
    } else {
        None
    };
    let xfer = column(Site::Entry, e.transfer.prim())?;
    // A loop stays out of closures, which are not inlined into a level's
    // wrapper at every size (see `crate::wide`).
    let gb = match banked(Derived::EntryGb) {
        Some(gb) => gb,
        None => {
            to_gb(entry_gb, column(Site::Entry, Prim::Value)?);
            computed.push((Derived::EntryGb, 0));
            entry_gb
        }
    };
    match e.transfer {
        TransferPrep::Model { ow, bw } => {
            let col = Derived::quotient(Site::Entry, bw);
            let q = match banked(col) {
                Some(q) => q,
                None => {
                    quotients(entry_q, column(Site::Entry, Prim::Value)?, bw);
                    computed.push((col, 1 + edges));
                    entry_q
                }
            };
            entry(ready, setup, q, xfer, |q, jitter| {
                prep::model_seconds(ow, q, jitter)
            })
        }
        // The pick reads no quotient; the draws stand in for it.
        TransferPrep::Learned(samples) => entry(ready, setup, xfer, xfer, |_, u| {
            prep::learned_seconds(samples, u)
        }),
    }
    entry_cost(cost, gb, e.egress_rate, e.kv);

    for &node in dag.topo_order() {
        let ni = node.index();
        let region = plan.region_of(node);
        if node != dag.start() {
            // Whether and when each sample starts this node: when the
            // last taken in-edge delivers.
            ready.fill(f64::NEG_INFINITY);
            for &eid in dag.in_edges(node) {
                let ei = eid.index();
                let ep = prep.edge(plan, ei);
                let site = Site::Edge(ei);
                let from = &finish[ep.from * m..][..m];
                let gb = &mut edge_gb[ei * m..][..m];
                let gb = match banked(Derived::EdgeGb(ei)) {
                    Some(gb) => gb,
                    None => {
                        let payload = column(site, Prim::Value)?;
                        let prob = ep.prob;
                        if prep::gated(prob) {
                            let uniform = column(site, Prim::Taken)?;
                            carried_if(gb, from, uniform, payload, |u| u < prob);
                        } else {
                            // Certain either way; any column stands in for
                            // the uniform.
                            carried_if(gb, from, from, payload, |_| prob >= 1.0);
                        }
                        computed.push((Derived::EdgeGb(ei), 1 + ei));
                        gb
                    }
                };
                let overhead = column(site, Prim::Overhead)?;
                let xfer = column(site, ep.transfer.prim())?;
                match ep.transfer {
                    TransferPrep::Model { ow, bw } => {
                        let col = Derived::quotient(site, bw);
                        let q = &mut edge_q[ei * m..][..m];
                        let q = match banked(col) {
                            Some(q) => q,
                            None => {
                                quotients(q, column(site, Prim::Value)?, bw);
                                computed.push((col, 2 + edges + ei));
                                q
                            }
                        };
                        arrive(ready, gb, from, overhead, q, xfer, |q, jitter| {
                            prep::model_seconds(ow, q, jitter)
                        })
                    }
                    TransferPrep::Learned(samples) => {
                        arrive(ready, gb, from, overhead, xfer, xfer, |_, u| {
                            prep::learned_seconds(samples, u)
                        })
                    }
                }
                fees(cost, gb, from, &ep);
            }
        }

        let site = &mut node_sites[3 * ni * m..][..3 * m];
        let [seconds, bill, energy] = Derived::site(ni, region);
        let (seconds, bill) = match banked(seconds).zip(banked(bill)) {
            Some(read) => {
                *sites_read += 1;
                read
            }
            None => {
                *sites_folded += 1;
                node_site(&prep.node(ni, region), ni, bank, ready, site, lo, hi)?;
                let first = 2 + 2 * edges + 3 * ni;
                computed.extend([(seconds, first), (bill, first + 1), (energy, first + 2)]);
                let (seconds, rest) = site.split_at(m);
                (seconds, &rest[..m])
            }
        };
        let finish = &mut finish[ni * m..][..m];
        // No fetch adds `0.0`, which moves no bit: `cost` is never `-0.0`
        // (the entry wrote `x + kv`).
        let ext_cost = prep.ext_cost(ni, region);
        node_finish(finish, lat, cost, ready, seconds, bill, ext_cost);
    }
    Some(())
}

/// The GB each sample's `bytes` are.
#[inline(always)]
fn to_gb(gb: &mut [f64], bytes: &[f64]) {
    let bytes = &bytes[..gb.len()];
    for i in 0..gb.len() {
        gb[i] = bytes[i].max(0.0) / 1.0e9;
    }
}

/// Each sample's [`prep::quotient`] of `bytes` over `bw`.
#[inline(always)]
fn quotients(q: &mut [f64], bytes: &[f64], bw: f64) {
    let bytes = &bytes[..q.len()];
    for i in 0..q.len() {
        q[i] = prep::quotient(bytes[i], bw);
    }
}

/// When each sample starts the start node: the setup draw, where the
/// orchestrator has one, plus the input's `seconds(q, draw)` (`q` its
/// quotient, or any column a pick ignores). Without a setup the sum keeps
/// its `0.0 +`, which turns a `-0.0` into `0.0` as a sampler adding the
/// seconds to a zero setup does.
#[inline(always)]
fn entry(
    ready: &mut [f64],
    setup: Option<&[f64]>,
    q: &[f64],
    xfer: &[f64],
    seconds: impl Fn(f64, f64) -> f64,
) {
    let m = ready.len();
    let (q, xfer) = (&q[..m], &xfer[..m]);
    match setup {
        Some(setup) => {
            let setup = &setup[..m];
            for i in 0..m {
                ready[i] = setup[i] + seconds(q[i], xfer[i]);
            }
        }
        None => {
            for i in 0..m {
                ready[i] = 0.0 + seconds(q[i], xfer[i]);
            }
        }
    }
}

/// What each sample pays on entry: the input's egress and the plan fetch.
#[inline(always)]
fn entry_cost(cost: &mut [f64], gb: &[f64], egress_rate: f64, kv: f64) {
    let gb = &gb[..cost.len()];
    for i in 0..cost.len() {
        cost[i] = gb[i] * egress_rate + kv;
    }
}

/// The GB an edge carries, into `gb`: `NaN` where its source never ran
/// (`from` at −∞) or it was not taken (`taken(uniform)` false).
#[inline(always)]
fn carried_if(
    gb: &mut [f64],
    from: &[f64],
    uniform: &[f64],
    payload: &[f64],
    taken: impl Fn(f64) -> bool,
) {
    let m = gb.len();
    let (from, uniform, payload) = (&from[..m], &uniform[..m], &payload[..m]);
    for i in 0..m {
        let carried = payload[i].max(0.0) / 1.0e9;
        let go = (from[i] != f64::NEG_INFINITY) & taken(uniform[i]);
        gb[i] = if go { carried } else { f64::NAN };
    }
}

/// Moves each sample's start to the edge's arrival where that is later:
/// `seconds(q, draw)` after the source finished and the transition
/// overhead (`q` the payload's quotient, or any column a pick ignores). A
/// source that never ran keeps the sum at −∞ by itself; a skipped edge
/// (`gb` NaN) is put there.
#[inline(always)]
fn arrive(
    ready: &mut [f64],
    gb: &[f64],
    from: &[f64],
    overhead: &[f64],
    q: &[f64],
    xfer: &[f64],
    seconds: impl Fn(f64, f64) -> f64,
) {
    let m = ready.len();
    let (gb, from, overhead) = (&gb[..m], &from[..m], &overhead[..m]);
    let (q, xfer) = (&q[..m], &xfer[..m]);
    for i in 0..m {
        let arrive = from[i] + overhead[i] + seconds(q[i], xfer[i]);
        let arrive = if gb[i].is_nan() {
            f64::NEG_INFINITY
        } else {
            arrive
        };
        ready[i] = ready[i].max(arrive);
    }
}

/// Adds what edge `ep` costs each sample whose source ran, taken (`gb`
/// holds what it carried) or skipped (`gb` NaN). The fee and the sum are
/// taken for every sample and selected after: with the addition inside
/// the select's arm the loop compiles to a branch per sample.
#[inline(always)]
fn fees(cost: &mut [f64], gb: &[f64], from: &[f64], ep: &EdgePrep<'_>) {
    let (taken, rate, skipped) = (ep.taken_cost, ep.egress_rate, ep.skipped_cost);
    let m = cost.len();
    let (gb, from) = (&gb[..m], &from[..m]);
    for i in 0..m {
        let carried = taken + gb[i] * rate;
        let fee = if gb[i].is_nan() { skipped } else { carried };
        let paid = cost[i] + fee;
        cost[i] = if from[i] == f64::NEG_INFINITY {
            cost[i]
        } else {
            paid
        };
    }
}

/// A node's finish times, the latency running max and the cost with the
/// node's bill and fetch, for the samples that reached it.
#[inline(always)]
fn node_finish(
    finish: &mut [f64],
    lat: &mut [f64],
    cost: &mut [f64],
    ready: &[f64],
    seconds: &[f64],
    bill: &[f64],
    ext_cost: f64,
) {
    let m = finish.len();
    let (lat, cost) = (&mut lat[..m], &mut cost[..m]);
    let (ready, seconds, bill) = (&ready[..m], &seconds[..m], &bill[..m]);
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

/// Computes samples `lo..hi` of the three columns of node `ni` run where
/// `np` has it — [`Derived::site`] order, `hi - lo` samples each, into
/// `site`. Seconds and bill are held for every sample; the energy is `NaN`
/// where the sample skipped the node (`ready` at −∞), which the bank's
/// uniforms and the profile decide alone, not the plan. `None` if a
/// column it reads is short.
#[inline(always)]
fn node_site(
    np: &NodePrep<'_>,
    ni: usize,
    bank: &DrawBank,
    ready: &[f64],
    site: &mut [f64],
    lo: usize,
    hi: usize,
) -> Option<()> {
    let m = hi - lo;
    let column = |site, prim| bank.column(site, prim, lo, hi);
    let (seconds, rest) = site.split_at_mut(m);
    let (bill, kwh) = rest.split_at_mut(m);
    match np.exec {
        ExecPrep::Model { pf, cold } => {
            scaled(seconds, column(Site::Node(ni), Prim::Value)?, pf);
            if cold {
                for &(i, penalty) in bank.cold_starts(ni, np.region, lo, hi)? {
                    seconds[i - lo] += penalty;
                }
            }
        }
        ExecPrep::Learned { samples, scale } => {
            picked(seconds, column(Site::Node(ni), Prim::Pick)?, samples, scale);
        }
    }
    if let Some(ext) = &np.ext {
        let out = column(Site::ExtOut(ni), ext.out.prim())?;
        let back = column(Site::ExtBack(ni), ext.back.prim())?;
        let half = ext.half;
        let model = |ow, bw| {
            let q = prep::quotient(half, bw);
            move |jitter| prep::model_seconds(ow, q, jitter)
        };
        let learned = |samples| move |u| prep::learned_seconds(samples, u);
        use TransferPrep::{Learned, Model};
        match (&ext.out, &ext.back) {
            (&Model { ow, bw }, &Model { ow: ow2, bw: bw2 }) => {
                fetch(seconds, out, back, model(ow, bw), model(ow2, bw2))
            }
            (&Model { ow, bw }, &Learned(b)) => {
                fetch(seconds, out, back, model(ow, bw), learned(b))
            }
            (&Learned(o), &Model { ow, bw }) => {
                fetch(seconds, out, back, learned(o), model(ow, bw))
            }
            (&Learned(o), &Learned(b)) => fetch(seconds, out, back, learned(o), learned(b)),
        }
    }
    bill_energy(bill, kwh, seconds, ready, np);
    Some(())
}

/// Each sample's draw times a constant.
#[inline(always)]
fn scaled(out: &mut [f64], xs: &[f64], k: f64) {
    let xs = &xs[..out.len()];
    for i in 0..out.len() {
        out[i] = xs[i] * k;
    }
}

/// Each sample's pick from a learned history, times `scale`.
#[inline(always)]
fn picked(out: &mut [f64], picks: &[f64], samples: &[f64], scale: f64) {
    let picks = &picks[..out.len()];
    for i in 0..out.len() {
        out[i] = samples[pick(picks[i], samples.len())] * scale;
    }
}

/// Adds the external-data round trip, `out(draw) + back(draw)`, to each
/// sample's seconds.
#[inline(always)]
fn fetch(
    seconds: &mut [f64],
    out: &[f64],
    back: &[f64],
    out_s: impl Fn(f64) -> f64,
    back_s: impl Fn(f64) -> f64,
) {
    let m = seconds.len();
    let (out, back) = (&out[..m], &back[..m]);
    for i in 0..m {
        seconds[i] += out_s(out[i]) + back_s(back[i]);
    }
}

/// What Lambda bills for each sample's seconds, and the energy they drew
/// where the sample ran the node.
#[inline(always)]
fn bill_energy(bill: &mut [f64], kwh: &mut [f64], seconds: &[f64], ready: &[f64], np: &NodePrep) {
    let (per_second, per_request, kw) = (np.per_second, np.per_request, np.kw);
    let m = bill.len();
    let (kwh, seconds, ready) = (&mut kwh[..m], &seconds[..m], &ready[..m]);
    for i in 0..m {
        let d = seconds[i];
        bill[i] = billed_seconds(d) * per_second + per_request;
        // The energy of Eq. 7.1 (kWh × PUE); the grid multiplies it.
        let drawn = kw * d / 3600.0 * energy::PUE;
        kwh[i] = if ready[i] == f64::NEG_INFINITY {
            f64::NAN
        } else {
            drawn
        };
    }
}
