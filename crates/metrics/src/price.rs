//! The pricing pass: the carbon of a folded plan at one hour.
//!
//! Every estimate takes this pass. The hour reaches an estimate only
//! here: [`PriceState::rates`] reads the grid once per (plan, hour) — each
//! node's intensity, each transfer's route average × scenario factor, the
//! external-data round trips — and [`PriceState::extend`] multiplies the
//! bank's [`Derived`] columns by them, replaying per sample the additions
//! a straight-line sampler makes: transmission carbon over the entry,
//! then per node in topological order its taken in-edges and its
//! external-data fetch (Eq. 7.5); execution carbon per executed node in
//! the same order (Eq. 7.1). Nothing is folded here: a plan whose record
//! covers the boundary needs only this to be estimated at another hour.

use caribou_carbon::route::endpoint_average;
use caribou_carbon::source::CarbonDataSource;
use caribou_model::dag::{EdgeId, WorkflowDag};
use caribou_model::plan::DeploymentPlan;

use crate::bank::{Derived, DrawBank};
use crate::montecarlo::{MonteCarloEstimator, StageModels};
use crate::prep;
use crate::summary::{self, Moments};
use crate::wide;

/// The grid constants of one (plan, hour) and the carbon columns priced
/// with them, reused from one estimate to the next.
#[derive(Debug, Default)]
pub(crate) struct PriceState {
    /// Route intensity × scenario factor of the entry and of each edge;
    /// multiplied by GB per sample.
    entry_k: f64,
    edge_k: Vec<f64>,
    /// Grid intensity where each node runs.
    node_k: Vec<f64>,
    /// Transmission carbon of each node's external-data round trip.
    ext_c: Vec<Option<f64>>,
    /// Execution and transmission carbon of the batch being priced.
    batch: [Vec<f64>; 2],
    /// Carbon per sample of the whole estimate, in sample order, and the
    /// left-fold sums of it and of its two components.
    pub(crate) carb: Vec<f64>,
    /// Where the carbon's percentile is selected (`summary::p95`).
    keys: Vec<i64>,
    carb_sum: f64,
    exec_sum: f64,
    trans_sum: f64,
}

impl PriceState {
    /// Reads the grid for `plan` at `hour`, and forgets the samples
    /// priced before.
    pub(crate) fn rates<S: CarbonDataSource, M: StageModels>(
        &mut self,
        est: &MonteCarloEstimator<'_, S, M>,
        plan: &DeploymentPlan,
        hour: f64,
    ) {
        let (dag, source, scenario) = (est.dag, est.carbon_source, est.carbon_model.scenario);
        let route =
            |from, to| endpoint_average(source, from, to, hour) * scenario.factor(from == to);
        self.entry_k = route(est.home, plan.region_of(dag.start()));
        self.edge_k.clear();
        self.edge_k.extend((0..dag.edge_count()).map(|ei| {
            let e = dag.edge(EdgeId(ei as u32));
            route(plan.region_of(e.from), plan.region_of(e.to))
        }));
        self.node_k.clear();
        self.node_k.extend(
            dag.all_nodes()
                .map(|node| source.intensity(plan.region_of(node), hour)),
        );
        self.ext_c.clear();
        self.ext_c.extend(dag.all_nodes().map(|node| {
            let region = plan.region_of(node);
            prep::external_bytes(est.profile, est.home, node.index(), region).map(|bytes| {
                let via = endpoint_average(source, region, est.home, hour);
                est.carbon_model.transmission_carbon(bytes, via, false)
            })
        }));
        self.carb.clear();
        (self.carb_sum, self.exec_sum, self.trans_sum) = (0.0, 0.0, 0.0);
    }

    /// Prices the samples from where the carbon column stands up to `hi`
    /// off the bank's derived columns. `false`, with nothing changed, when
    /// a column of the plan does not reach `hi`: the plan (or this much
    /// of it) was never folded on this bank.
    pub(crate) fn extend(
        &mut self,
        dag: &WorkflowDag,
        plan: &DeploymentPlan,
        bank: &DrawBank,
        hi: usize,
    ) -> bool {
        wide::run(Pricing {
            s: self,
            dag,
            plan,
            bank,
            hi,
        })
    }

    /// The moments of the carbon priced so far.
    pub(crate) fn moments(&self) -> Moments {
        Moments::of(&self.carb, self.carb_sum)
    }

    /// The 95th percentile of the carbon priced so far, whose moments are
    /// `m`.
    pub(crate) fn p95(&mut self, m: &Moments) -> f64 {
        summary::p95(&self.carb, m, &mut self.keys)
    }

    /// Mean execution and transmission carbon of the samples priced.
    pub(crate) fn component_means(&self) -> (f64, f64) {
        let n = self.carb.len() as f64;
        (self.exec_sum / n, self.trans_sum / n)
    }
}

/// [`PriceState::extend`]'s operands; [`Pricing::call`] is its body,
/// inlined with every loop it calls into each vector level's wrapper
/// (`crate::wide`).
struct Pricing<'a> {
    s: &'a mut PriceState,
    dag: &'a WorkflowDag,
    plan: &'a DeploymentPlan,
    bank: &'a DrawBank,
    hi: usize,
}

impl wide::Kernel for Pricing<'_> {
    type Out = bool;

    #[inline(always)]
    fn call(self) -> bool {
        let Pricing {
            s,
            dag,
            plan,
            bank,
            hi,
        } = self;
        let lo = s.carb.len();
        for col in &mut s.batch {
            col.resize(hi - lo, 0.0);
        }
        let [exec_c, trans_c] = &mut s.batch;
        let column = |col| bank.derived(col, hi).map(|vals| &vals[lo..]);

        let Some(gb) = column(Derived::EntryGb) else {
            return false;
        };
        scaled(trans_c, s.entry_k, gb);
        exec_c.fill(0.0);
        for &node in dag.topo_order() {
            let ni = node.index();
            if node != dag.start() {
                for &eid in dag.in_edges(node) {
                    let Some(gb) = column(Derived::EdgeGb(eid.index())) else {
                        return false;
                    };
                    add(trans_c, s.edge_k[eid.index()], gb);
                }
            }
            let Some(kwh) = column(Derived::Energy(ni, plan.region_of(node))) else {
                return false;
            };
            if let Some(ext_c) = s.ext_c[ni] {
                fetched(trans_c, ext_c, kwh);
            }
            // Eq. 7.1: energy (kWh) × PUE × grid intensity.
            add(exec_c, s.node_k[ni], kwh);
        }
        s.carb.resize(hi, 0.0);
        let sums = (s.carb_sum, s.exec_sum, s.trans_sum);
        (s.carb_sum, s.exec_sum, s.trans_sum) = total(&mut s.carb[lo..], exec_c, trans_c, sums);
        true
    }
}

/// `k × x` of each sample.
#[inline(always)]
fn scaled(out: &mut [f64], k: f64, xs: &[f64]) {
    let xs = &xs[..out.len()];
    for i in 0..out.len() {
        out[i] = k * xs[i];
    }
}

/// `acc += k × x` wherever the sample got there (`x` is not NaN): a
/// select, not a branch, so the loop stays a straight line.
#[inline(always)]
fn add(acc: &mut [f64], k: f64, xs: &[f64]) {
    let xs = &xs[..acc.len()];
    for i in 0..acc.len() {
        let priced = acc[i] + k * xs[i];
        acc[i] = if xs[i].is_nan() { acc[i] } else { priced };
    }
}

/// Adds the external-data round trip's carbon where the sample ran the
/// node (its energy is not NaN).
#[inline(always)]
fn fetched(trans_c: &mut [f64], ext_c: f64, kwh: &[f64]) {
    let kwh = &kwh[..trans_c.len()];
    for i in 0..trans_c.len() {
        let fetched = trans_c[i] + ext_c;
        trans_c[i] = if kwh[i].is_nan() { trans_c[i] } else { fetched };
    }
}

/// Writes each sample's carbon, execution plus transmission, and carries
/// on the left-fold sums of it and of its two components.
#[inline(always)]
fn total(
    carb: &mut [f64],
    exec_c: &[f64],
    trans_c: &[f64],
    (mut carb_sum, mut exec_sum, mut trans_sum): (f64, f64, f64),
) -> (f64, f64, f64) {
    let m = carb.len();
    let (exec_c, trans_c) = (&exec_c[..m], &trans_c[..m]);
    for i in 0..m {
        carb[i] = exec_c[i] + trans_c[i];
        carb_sum += exec_c[i] + trans_c[i];
        exec_sum += exec_c[i];
        trans_sum += trans_c[i];
    }
    (carb_sum, exec_sum, trans_sum)
}
