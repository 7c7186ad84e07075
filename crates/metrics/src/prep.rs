//! Per-site preparation: everything the fold of a plan reads besides the
//! draw bank.
//!
//! Regions enter a sampled execution only as constants. [`Prep`] resolves
//! them site by site, as the fold reaches a site — KV and SNS prices,
//! egress rates, one-way latencies and bandwidths, and, per site, whether
//! the draw is the model's or a pick from logged history — and a node's
//! billing and energy coefficients, execution arm and external-data legs
//! only when the fold computes the node's columns rather than reading them
//! from the bank. Nothing is collected per plan: no table, no list of
//! columns, no allocation. When a fold finds a column short, [`Prep::walk`]
//! hands the bank, site by site, the primitive columns a fold of the plan
//! reads — none behind a derived column the bank already holds — and the
//! bank draws them, preparing a profile distribution only then. Every
//! entry comes from the same pure model functions and learned-history
//! lookups a straight-line sampler would call per sample. Nothing here
//! depends on the time of day: the grid enters an estimate in
//! `crate::price` alone.

use caribou_carbon::source::CarbonDataSource;
use caribou_model::dag::{EdgeId, WorkflowDag};
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_simcloud::compute::vcpus;
use caribou_simcloud::orchestration::OVERHEAD_SIGMA;

use crate::bank::{Derived, Draw, DrawBank, Need, Prim, Site};
use crate::costmodel::CostModel;
use crate::energy;
use crate::montecarlo::{DefaultModels, MonteCarloEstimator, StageModels};

/// Index into a learned history of `len` entries for a uniform `u`.
#[inline(always)]
pub(crate) fn pick(u: f64, len: usize) -> usize {
    ((u * len as f64) as usize).min(len - 1)
}

/// One transfer site of a plan, resolved to what its draw reads.
pub(crate) enum TransferPrep<'a> {
    /// `LatencyModel::sample_transfer_seconds` with the pair's one-way
    /// latency and bandwidth looked up once.
    Model { ow: f64, bw: f64 },
    /// A uniform pick from the pair's logged latencies.
    Learned(&'a [f64]),
}

impl TransferPrep<'_> {
    /// The primitive this site reads from the bank.
    pub(crate) fn prim(&self) -> Prim {
        match self {
            TransferPrep::Model { .. } => Prim::Jitter,
            TransferPrep::Learned(_) => Prim::Pick,
        }
    }

    /// The column this site reads, and how the bank fills it.
    pub(crate) fn need(&self, site: Site, jitter_sigma: f64) -> Need<'static> {
        let draw = match self {
            TransferPrep::Model { .. } => Draw::LogNormal {
                mu: 0.0,
                sigma: jitter_sigma,
            },
            TransferPrep::Learned(_) => Draw::Uniform,
        };
        Need::new(site, self.prim(), draw)
    }

    /// The quotient column the model arm reads at `site`; none for a pick.
    pub(crate) fn quotient(&self, site: Site) -> Option<Derived> {
        match *self {
            TransferPrep::Model { bw, .. } => Some(Derived::quotient(site, bw)),
            TransferPrep::Learned(_) => None,
        }
    }
}

/// What `bytes` add to a transfer over `bw`, the [`Derived::Quotient`] a
/// bank keeps per (site, bandwidth).
#[inline(always)]
pub(crate) fn quotient(bytes: f64, bw: f64) -> f64 {
    bytes.max(0.0) / bw
}

/// [`TransferPrep::Model`]'s seconds for the [`quotient`] `q` under
/// `jitter`: bit for bit `(ow + bytes.max(0) / bw) × jitter`. A sample
/// loop matches the arm once, outside, and calls this or
/// [`learned_seconds`] inside.
#[inline(always)]
pub(crate) fn model_seconds(ow: f64, q: f64, jitter: f64) -> f64 {
    (ow + q) * jitter
}

/// [`TransferPrep::Learned`]'s seconds for the uniform `u`.
#[inline(always)]
pub(crate) fn learned_seconds(samples: &[f64], u: f64) -> f64 {
    samples[pick(u, samples.len())]
}

/// Entry (client → start node) invariants of one plan.
pub(crate) struct EntryPrep<'a> {
    pub(crate) setup: bool,
    pub(crate) transfer: TransferPrep<'a>,
    /// USD per GB; zero inside one region.
    pub(crate) egress_rate: f64,
    pub(crate) kv: f64,
}

/// One edge's invariants in a plan.
pub(crate) struct EdgePrep<'a> {
    pub(crate) from: usize,
    pub(crate) prob: f64,
    pub(crate) transfer: TransferPrep<'a>,
    pub(crate) egress_rate: f64,
    /// SNS publish, KV write and read, and the sync annotation if any.
    pub(crate) taken_cost: f64,
    /// The `C = 0` annotation a skipped edge into a sync node writes.
    pub(crate) skipped_cost: f64,
}

/// Whether an edge taken with `prob` reads its conditional uniform:
/// `Pcg32::chance` draws nothing for a certain outcome, and neither does
/// the bank.
pub(crate) fn gated(prob: f64) -> bool {
    prob > 0.0 && prob < 1.0
}

/// One node's execution site, resolved to what its draw reads.
pub(crate) enum ExecPrep<'a> {
    /// `LambdaRuntime::execute` on the profile's reference distribution,
    /// plus the bank's cold starts of the node in its region if `cold`.
    Model { pf: f64, cold: bool },
    /// A uniform pick from logged durations, times `scale`.
    Learned { samples: &'a [f64], scale: f64 },
}

/// External-data round-trip invariants (only present when the node runs
/// away from home with a positive external byte count).
pub(crate) struct ExtPrep<'a> {
    pub(crate) half: f64,
    pub(crate) out: TransferPrep<'a>,
    pub(crate) back: TransferPrep<'a>,
}

/// What computing a node's columns in a region reads besides the bank.
pub(crate) struct NodePrep<'a> {
    pub(crate) region: RegionId,
    pub(crate) exec: ExecPrep<'a>,
    pub(crate) ext: Option<ExtPrep<'a>>,
    /// USD per billed second: `memory_mb / 1024 × lambda_gb_second`.
    pub(crate) per_second: f64,
    pub(crate) per_request: f64,
    /// Energy per second, kW: Eq. 7.2 memory plus Eq. 7.3 × 7.4 vCPU.
    pub(crate) kw: f64,
}

/// The bytes `node` fetches from `home`'s external data when it runs in
/// `region`: external data stays home, so offloaded stages pay the round
/// trip (§9.1) and stages at home fetch nothing.
pub(crate) fn external_bytes(
    profile: &WorkflowProfile,
    home: RegionId,
    node: usize,
    region: RegionId,
) -> Option<f64> {
    let bytes = profile.nodes[node].external_data_bytes;
    (region != home && bytes > 0.0).then_some(bytes)
}

/// The estimator's models and prices, resolved for one site at a time:
/// what a fold of any plan reads besides the bank.
pub(crate) struct Prep<'p> {
    pub(crate) dag: &'p WorkflowDag,
    profile: &'p WorkflowProfile,
    cost_model: &'p CostModel<'p>,
    models: &'p dyn StageModels,
    m: DefaultModels<'p>,
    home: RegionId,
}

impl<S: CarbonDataSource, M: StageModels> MonteCarloEstimator<'_, S, M> {
    /// The per-site resolution of this estimator's constants.
    pub(crate) fn prep(&self) -> Prep<'_> {
        Prep {
            dag: self.dag,
            profile: self.profile,
            cost_model: &self.cost_model,
            models: self.models,
            m: self.models.base(),
            home: self.home,
        }
    }
}

impl<'p> Prep<'p> {
    /// The transfer from `from` to `to`. The model-or-history choice is
    /// the stage models' own (`learned_*`); this only records it.
    fn transfer(&self, from: RegionId, to: RegionId) -> TransferPrep<'p> {
        match self.models.learned_transfer(from, to) {
            Some(samples) => TransferPrep::Learned(samples),
            None => TransferPrep::Model {
                ow: self.m.latency.one_way(from, to),
                bw: self.m.latency.bandwidth_bps(from, to),
            },
        }
    }

    /// The egress price per GB.
    fn egress(&self, from: RegionId, to: RegionId) -> f64 {
        if from == to {
            0.0
        } else {
            self.cost_model.pricing().egress_rate_per_gb(from, to)
        }
    }

    /// The entry's invariants in `plan`.
    pub(crate) fn entry(&self, plan: &DeploymentPlan) -> EntryPrep<'p> {
        let start = plan.region_of(self.dag.start());
        EntryPrep {
            setup: self.m.orchestrator.invocation_setup_median_s() != 0.0,
            transfer: self.transfer(self.home, start),
            egress_rate: self.egress(self.home, start),
            // The entry wrapper fetches the deployment plan once.
            kv: self.cost_model.kv_cost(start, 1, 0),
        }
    }

    /// Edge `ei`'s invariants in `plan`.
    pub(crate) fn edge(&self, plan: &DeploymentPlan, ei: usize) -> EdgePrep<'p> {
        let (dag, cost) = (self.dag, self.cost_model);
        let e = dag.edge(EdgeId(ei as u32));
        let from_r = plan.region_of(e.from);
        let to_r = plan.region_of(e.to);
        // Sync nodes add the atomic annotation update, taken or not.
        let annotate = if dag.is_sync_node(e.to) {
            cost.kv_cost(from_r, 1, 1)
        } else {
            0.0
        };
        EdgePrep {
            from: e.from.index(),
            prob: self.profile.edges[ei].probability,
            transfer: self.transfer(from_r, to_r),
            egress_rate: self.egress(from_r, to_r),
            // Intermediate data passes through the KV store: one write by
            // the predecessor, one read by the successor.
            taken_cost: cost.pricing().sns_cost(from_r, 1)
                + cost.kv_cost(from_r, 0, 1)
                + cost.kv_cost(to_r, 1, 0)
                + annotate,
            skipped_cost: annotate,
        }
    }

    /// What node `ni`'s external-data round trip costs in `region`; no
    /// fetch costs `0.0`.
    pub(crate) fn ext_cost(&self, ni: usize, region: RegionId) -> f64 {
        let bytes = external_bytes(self.profile, self.home, ni, region);
        bytes.map_or(0.0, |bytes| {
            self.cost_model.external_data_cost(region, self.home, bytes)
        })
    }

    /// What computing node `ni`'s columns in `region` reads.
    pub(crate) fn node(&self, ni: usize, region: RegionId) -> NodePrep<'p> {
        let (m, home) = (&self.m, self.home);
        let p = &self.profile.nodes[ni];
        let ext = external_bytes(self.profile, home, ni, region).map(|bytes| ExtPrep {
            half: bytes / 2.0,
            out: self.transfer(region, home),
            back: self.transfer(home, region),
        });
        let exec = match self.models.learned_exec(ni, region) {
            Some((samples, scale)) => ExecPrep::Learned { samples, scale },
            None => ExecPrep::Model {
                pf: m.runtime.perf_factor(region),
                cold: m.runtime.cold_start_prob > 0.0,
            },
        };
        let mem_gb = p.memory_mb as f64 / 1024.0;
        let rp = self.cost_model.pricing().region(region);
        NodePrep {
            region,
            exec,
            ext,
            per_second: mem_gb * rp.lambda_gb_second,
            per_request: rp.lambda_per_request,
            kw: energy::vcpu_power_kw(p.cpu_utilization) * vcpus(p.memory_mb)
                + energy::P_MEM_KW_PER_GB * mem_gb,
        }
    }

    /// Extends every primitive column a fold of `plan` to `n` samples
    /// reads, site by site. A derived column the bank holds that deep is
    /// read, not computed, and so are the primitives behind it: a GB
    /// column stands for its bytes (and uniform), a quotient for its
    /// bytes, a node's columns for its execution, cold-start and
    /// external-data draws. They were drawn at least as deep when it was
    /// computed.
    pub(crate) fn walk(&self, plan: &DeploymentPlan, bank: &mut DrawBank, n: usize) {
        let (dag, m) = (self.dag, &self.m);
        let jitter = m.latency.jitter_sigma;
        let holds = |bank: &DrawBank, col| bank.derived(col, n).is_some();
        // Whether a transfer's bytes are read: for its GB or its quotient.
        let reads_bytes = |bank: &DrawBank, gb, quotient: Option<Derived>| {
            !holds(bank, gb) || quotient.is_some_and(|q| !holds(bank, q))
        };

        let entry = self.entry(plan);
        if entry.setup {
            let setup = Draw::LogNormal {
                mu: m.orchestrator.setup_mu(),
                sigma: OVERHEAD_SIGMA,
            };
            bank.ensure(&Need::new(Site::Entry, Prim::Overhead, setup), n);
        }
        let transfer = entry.transfer;
        bank.ensure(&transfer.need(Site::Entry, jitter), n);
        if reads_bytes(bank, Derived::EntryGb, transfer.quotient(Site::Entry)) {
            let input = Draw::Dist(&self.profile.input_bytes);
            bank.ensure(&Need::new(Site::Entry, Prim::Value, input), n);
        }

        let transition = Draw::LogNormal {
            mu: m.orchestrator.transition_mu(),
            sigma: OVERHEAD_SIGMA,
        };
        for ei in 0..dag.edge_count() {
            let site = Site::Edge(ei);
            let EdgePrep { prob, transfer, .. } = self.edge(plan, ei);
            bank.ensure(&Need::new(site, Prim::Overhead, transition), n);
            bank.ensure(&transfer.need(site, jitter), n);
            if !holds(bank, Derived::EdgeGb(ei)) && gated(prob) {
                bank.ensure(&Need::new(site, Prim::Taken, Draw::Uniform), n);
            }
            if reads_bytes(bank, Derived::EdgeGb(ei), transfer.quotient(site)) {
                let payload = Draw::Dist(&self.profile.edges[ei].payload_bytes);
                bank.ensure(&Need::new(site, Prim::Value, payload), n);
            }
        }

        for node in dag.all_nodes() {
            let (ni, region) = (node.index(), plan.region_of(node));
            // A node's three columns are published together.
            if holds(bank, Derived::site(ni, region)[0]) {
                continue;
            }
            if external_bytes(self.profile, self.home, ni, region).is_some() {
                let out = self.transfer(region, self.home);
                bank.ensure(&out.need(Site::ExtOut(ni), jitter), n);
                let back = self.transfer(self.home, region);
                bank.ensure(&back.need(Site::ExtBack(ni), jitter), n);
            }
            let site = Site::Node(ni);
            if self.models.learned_exec(ni, region).is_some() {
                bank.ensure(&Need::new(site, Prim::Pick, Draw::Uniform), n);
                continue;
            }
            let factor = Draw::ExecFactor {
                base: &m.profile.nodes[ni].exec_time,
                sigma: m.runtime.exec_sigma,
            };
            bank.ensure(&Need::new(site, Prim::Value, factor), n);
            let prob = m.runtime.cold_start_prob;
            if prob > 0.0 {
                let curve = m.runtime.cold_start_for(region);
                let cold = Draw::Cold {
                    prob,
                    curve,
                    region,
                };
                bank.ensure(&Need::new(site, Prim::Cold, cold), n);
            }
        }
    }
}
