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
use crate::summary::Moments;

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
        self.ext_c.clear();
        for node in dag.all_nodes() {
            let region = plan.region_of(node);
            self.node_k.push(source.intensity(region, hour));
            self.ext_c
                .push(est.external_bytes(node.index(), region).map(|bytes| {
                    let via = endpoint_average(source, region, est.home, hour);
                    est.carbon_model.transmission_carbon(bytes, via, false)
                }));
        }
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
        let lo = self.carb.len();
        for col in &mut self.batch {
            col.resize(hi - lo, 0.0);
        }
        let [exec_c, trans_c] = &mut self.batch;
        let column = |col| bank.derived(col, hi).map(|vals| &vals[lo..]);
        // `acc += k × x` wherever the sample got there (`x` is not NaN):
        // a select, not a branch, so the loop stays a straight line.
        let add = |acc: &mut [f64], k: f64, xs: &[f64]| {
            for (acc, x) in acc.iter_mut().zip(xs) {
                let priced = *acc + k * x;
                *acc = if x.is_nan() { *acc } else { priced };
            }
        };

        let Some(gb) = column(Derived::EntryGb) else {
            return false;
        };
        for (trans_c, gb) in trans_c.iter_mut().zip(gb) {
            *trans_c = self.entry_k * gb;
        }
        exec_c.fill(0.0);
        for &node in dag.topo_order() {
            let ni = node.index();
            if node != dag.start() {
                for &eid in dag.in_edges(node) {
                    let Some(gb) = column(Derived::EdgeGb(eid.index())) else {
                        return false;
                    };
                    add(trans_c, self.edge_k[eid.index()], gb);
                }
            }
            let Some(kwh) = column(Derived::Energy(ni, plan.region_of(node))) else {
                return false;
            };
            if let Some(ext_c) = self.ext_c[ni] {
                for (trans_c, kwh) in trans_c.iter_mut().zip(kwh) {
                    let fetched = *trans_c + ext_c;
                    *trans_c = if kwh.is_nan() { *trans_c } else { fetched };
                }
            }
            // Eq. 7.1: energy (kWh) × PUE × grid intensity.
            add(exec_c, self.node_k[ni], kwh);
        }
        for (exec_c, trans_c) in exec_c.iter().zip(&*trans_c) {
            self.carb.push(exec_c + trans_c);
            self.carb_sum += exec_c + trans_c;
            self.exec_sum += exec_c;
            self.trans_sum += trans_c;
        }
        true
    }

    /// The moments of the carbon priced so far.
    pub(crate) fn moments(&self) -> Moments {
        Moments::of(&self.carb, self.carb_sum)
    }

    /// Mean execution and transmission carbon of the samples priced.
    pub(crate) fn component_means(&self) -> (f64, f64) {
        let n = self.carb.len() as f64;
        (self.exec_sum / n, self.trans_sum / n)
    }
}
