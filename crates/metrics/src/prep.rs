//! Per-plan preparation: everything the fold of a plan reads besides the
//! draw bank.
//!
//! Regions enter a sampled execution only as constants. This module
//! resolves them once per fold — KV and SNS prices, egress rates, one-way
//! latencies and bandwidths, billing and energy coefficients, and, per
//! site, whether the draw is the model's or a pick from logged history —
//! and lists the bank columns the fold will read. Every entry comes from
//! the same pure model functions and learned-history lookups a
//! straight-line sampler would call per sample. Nothing here depends on
//! the time of day: the grid enters an estimate in `crate::price` alone.

use caribou_carbon::source::CarbonDataSource;
use caribou_model::dag::EdgeId;
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_simcloud::compute::vcpus;
use caribou_simcloud::orchestration::OVERHEAD_SIGMA;

use crate::bank::{Draw, Need, Prim, Site};
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
}

/// [`TransferPrep::Model`]'s seconds for `bytes` under `jitter`: a sample
/// loop matches the arm once, outside, and calls this or
/// [`learned_seconds`] inside.
#[inline(always)]
pub(crate) fn model_seconds(ow: f64, bw: f64, bytes: f64, jitter: f64) -> f64 {
    (ow + bytes.max(0.0) / bw) * jitter
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

/// Per-edge invariants of one plan.
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

impl EdgePrep<'_> {
    /// Whether the edge reads its conditional uniform: `Pcg32::chance`
    /// draws nothing for a certain outcome, and neither does the bank.
    pub(crate) fn gated(&self) -> bool {
        self.prob > 0.0 && self.prob < 1.0
    }
}

/// One node's execution site, resolved to what its draw reads.
pub(crate) enum ExecPrep<'a> {
    /// `LambdaRuntime::execute` on the profile's reference distribution.
    Model { pf: f64, cold: Option<&'a DistSpec> },
    /// A uniform pick from logged durations, times `scale`.
    Learned { samples: &'a [f64], scale: f64 },
}

/// External-data round-trip invariants (only present when the node runs
/// away from home with a positive external byte count).
pub(crate) struct ExtPrep<'a> {
    pub(crate) half: f64,
    pub(crate) out: TransferPrep<'a>,
    pub(crate) back: TransferPrep<'a>,
    pub(crate) cost: f64,
}

/// Per-node invariants of one plan.
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

/// Everything the fold of one plan reads besides the bank: the invariant
/// tables, and the bank columns they refer to.
pub(crate) struct PlanPrep<'a> {
    pub(crate) entry: EntryPrep<'a>,
    pub(crate) edges: Vec<EdgePrep<'a>>,
    pub(crate) nodes: Vec<NodePrep<'a>>,
    pub(crate) needs: Vec<Need<'a>>,
}

impl<S: CarbonDataSource, M: StageModels> MonteCarloEstimator<'_, S, M> {
    /// The bytes `node` fetches from the home region's external data
    /// when it runs in `region`: external data stays home, so offloaded
    /// stages pay the round trip (§9.1) and stages at home fetch nothing.
    pub(crate) fn external_bytes(&self, node: usize, region: RegionId) -> Option<f64> {
        let bytes = self.profile.nodes[node].external_data_bytes;
        (region != self.home && bytes > 0.0).then_some(bytes)
    }

    /// Builds the invariant tables of one plan on the model handles `m`,
    /// and lists the bank columns the fold reads.
    pub(crate) fn build_prep<'p>(
        &'p self,
        m: &DefaultModels<'p>,
        plan: &DeploymentPlan,
    ) -> PlanPrep<'p> {
        let dag = self.dag;
        let pricing = self.cost_model.pricing();
        let jitter = m.latency.jitter_sigma;
        let mut needs = Vec::new();

        // The model-or-history choice is the stage models' own
        // (`learned_*`); this only records it per site.
        let transfer = |from: RegionId, to: RegionId| match self.models.learned_transfer(from, to) {
            Some(samples) => TransferPrep::Learned(samples),
            None => TransferPrep::Model {
                ow: m.latency.one_way(from, to),
                bw: m.latency.bandwidth_bps(from, to),
            },
        };
        // The egress price per GB.
        let egress = |from: RegionId, to: RegionId| {
            if from == to {
                0.0
            } else {
                pricing.egress_rate_per_gb(from, to)
            }
        };

        let start_region = plan.region_of(dag.start());
        let entry = EntryPrep {
            setup: m.orchestrator.invocation_setup_median_s() != 0.0,
            transfer: transfer(self.home, start_region),
            egress_rate: egress(self.home, start_region),
            // The entry wrapper fetches the deployment plan once.
            kv: self.cost_model.kv_cost(start_region, 1, 0),
        };
        needs.push(Need::new(
            Site::Entry,
            Prim::Value,
            Draw::Dist(self.profile.input_bytes.prepare()),
        ));
        if entry.setup {
            needs.push(Need::new(
                Site::Entry,
                Prim::Overhead,
                Draw::LogNormal {
                    mu: m.orchestrator.setup_mu(),
                    sigma: OVERHEAD_SIGMA,
                },
            ));
        }
        needs.push(entry.transfer.need(Site::Entry, jitter));

        let transition = Draw::LogNormal {
            mu: m.orchestrator.transition_mu(),
            sigma: OVERHEAD_SIGMA,
        };
        let edges = (0..dag.edge_count())
            .map(|ei| {
                let e = dag.edge(EdgeId(ei as u32));
                let from_r = plan.region_of(e.from);
                let to_r = plan.region_of(e.to);
                let pe = &self.profile.edges[ei];
                // Sync nodes add the atomic annotation update, taken or not.
                let annotate = if dag.is_sync_node(e.to) {
                    self.cost_model.kv_cost(from_r, 1, 1)
                } else {
                    0.0
                };
                let ep = EdgePrep {
                    from: e.from.index(),
                    prob: pe.probability,
                    transfer: transfer(from_r, to_r),
                    egress_rate: egress(from_r, to_r),
                    // Intermediate data passes through the KV store: one
                    // write by the predecessor, one read by the successor.
                    taken_cost: pricing.sns_cost(from_r, 1)
                        + self.cost_model.kv_cost(from_r, 0, 1)
                        + self.cost_model.kv_cost(to_r, 1, 0)
                        + annotate,
                    skipped_cost: annotate,
                };
                let site = Site::Edge(ei);
                let payload = Draw::Dist(pe.payload_bytes.prepare());
                if ep.gated() {
                    needs.push(Need::new(site, Prim::Taken, Draw::Uniform));
                }
                needs.push(Need::new(site, Prim::Value, payload));
                needs.push(Need::new(site, Prim::Overhead, transition));
                needs.push(ep.transfer.need(site, jitter));
                ep
            })
            .collect();

        let nodes = dag
            .all_nodes()
            .map(|node| {
                let ni = node.index();
                let site = Site::Node(ni);
                let region = plan.region_of(node);
                let p = &self.profile.nodes[ni];
                let ext = self.external_bytes(ni, region).map(|bytes| ExtPrep {
                    half: bytes / 2.0,
                    out: transfer(region, self.home),
                    back: transfer(self.home, region),
                    cost: self.cost_model.external_data_cost(region, self.home, bytes),
                });
                if let Some(ext) = &ext {
                    needs.push(ext.out.need(Site::ExtOut(ni), jitter));
                    needs.push(ext.back.need(Site::ExtBack(ni), jitter));
                }
                let exec = match self.models.learned_exec(ni, region) {
                    Some((samples, scale)) => {
                        needs.push(Need::new(site, Prim::Pick, Draw::Uniform));
                        ExecPrep::Learned { samples, scale }
                    }
                    None => {
                        needs.push(Need::new(
                            site,
                            Prim::Value,
                            Draw::ExecFactor {
                                base: m.profile.nodes[ni].exec_time.prepare(),
                                sigma: m.runtime.exec_sigma,
                            },
                        ));
                        let prob = m.runtime.cold_start_prob;
                        let curve = m.runtime.cold_start_for(region);
                        if prob > 0.0 {
                            needs.push(Need::new(site, Prim::Cold, Draw::Cold { prob, curve }));
                        }
                        ExecPrep::Model {
                            pf: m.runtime.perf_factor(region),
                            cold: (prob > 0.0).then_some(curve),
                        }
                    }
                };
                let mem_gb = p.memory_mb as f64 / 1024.0;
                let rp = pricing.region(region);
                NodePrep {
                    region,
                    exec,
                    ext,
                    per_second: mem_gb * rp.lambda_gb_second,
                    per_request: rp.lambda_per_request,
                    kw: energy::vcpu_power_kw(p.cpu_utilization) * vcpus(p.memory_mb)
                        + energy::P_MEM_KW_PER_GB * mem_gb,
                }
            })
            .collect();

        PlanPrep {
            entry,
            edges,
            nodes,
            needs,
        }
    }
}
