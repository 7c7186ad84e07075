//! Differential harness pinning the batched structure-of-arrays Monte
//! Carlo estimator to the scalar reference path: for *arbitrary*
//! (workload, plan, hour, seed, stopping rule), `estimate_batched` must
//! be the same function as `estimate_scalar` — every `f64` in the
//! returned [`EstimateSummary`] equal bit for bit, at every lane width.
//!
//! The generator grows random layered DAGs (2–7 nodes, random extra
//! edges, conditional probabilities, payload/exec distributions of every
//! `DistSpec` kind, external data, sync join nodes) and random
//! multi-region plans, so the batched path's invariant hoisting and
//! lane-ordered folds are exercised across workflow shapes no hand-written
//! case covers. Every case is checked twice: on the profile-plus-simulator
//! models, and on the Metrics Manager's learned models over a seeded log
//! history (exact-region, home-only and absent execution history; logged
//! and unlogged region pairs), where the batched path must resolve each
//! site to the same draw the scalar path's `LearnedModels` makes.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::logs::{EdgeRecord, InvocationLog, NodeRecord};
use caribou_metrics::manager::MetricsManager;
use caribou_metrics::montecarlo::{
    DefaultModels, EstimateSummary, MonteCarloConfig, MonteCarloEstimator, StageModels, MAX_LANES,
};
use caribou_model::builder::Workflow;
use caribou_model::dag::{EdgeId, NodeId, WorkflowDag};
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::{RegionCatalog, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::PricingCatalog;
use proptest::prelude::*;

/// Lane widths every case is checked at (1 = degenerate batch, 4/8 =
/// partial, 16 = [`MAX_LANES`]).
const WIDTHS: [usize; 4] = [1, 4, 8, MAX_LANES];

/// Exact bit-for-bit comparison of every field of two summaries.
fn assert_bits_eq(scalar: &EstimateSummary, batched: &EstimateSummary, what: &str) {
    let pairs = [
        ("latency.mean", scalar.latency.mean, batched.latency.mean),
        ("latency.p95", scalar.latency.p95, batched.latency.p95),
        (
            "latency.std_dev",
            scalar.latency.std_dev,
            batched.latency.std_dev,
        ),
        ("cost.mean", scalar.cost.mean, batched.cost.mean),
        ("cost.p95", scalar.cost.p95, batched.cost.p95),
        ("cost.std_dev", scalar.cost.std_dev, batched.cost.std_dev),
        ("carbon.mean", scalar.carbon.mean, batched.carbon.mean),
        ("carbon.p95", scalar.carbon.p95, batched.carbon.p95),
        (
            "carbon.std_dev",
            scalar.carbon.std_dev,
            batched.carbon.std_dev,
        ),
        (
            "exec_carbon_mean",
            scalar.exec_carbon_mean,
            batched.exec_carbon_mean,
        ),
        (
            "trans_carbon_mean",
            scalar.trans_carbon_mean,
            batched.trans_carbon_mean,
        ),
    ];
    for (name, s, b) in pairs {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{what}: {name} diverged (scalar {s:?} vs batched {b:?})"
        );
    }
    assert_eq!(scalar.latency.n, batched.latency.n, "{what}: latency.n");
    assert_eq!(scalar.cost.n, batched.cost.n, "{what}: cost.n");
    assert_eq!(scalar.carbon.n, batched.carbon.n, "{what}: carbon.n");
    assert_eq!(scalar.samples, batched.samples, "{what}: samples");
}

struct World {
    pricing: PricingCatalog,
    runtime: LambdaRuntime,
    latency: LatencyModel,
    carbon: TableSource,
    regions: Vec<RegionId>,
}

/// A world with the stochastic knobs ON (cold starts, execution noise):
/// the batched sampler must reproduce every draw, not just the easy ones.
fn world() -> World {
    let cat = RegionCatalog::aws_default();
    let pricing = PricingCatalog::aws_default(&cat);
    let runtime = LambdaRuntime::aws_default(&cat);
    let latency = LatencyModel::from_catalog(&cat);
    let mut carbon = TableSource::new();
    for (id, spec) in cat.iter() {
        // Distinct diurnal shapes per region so carbon depends on both the
        // placement and the hour.
        let base = 40.0 + 37.0 * (id.0 % 11) as f64;
        let values: Vec<f64> = (0..24)
            .map(|h| base + 25.0 * ((h + id.0 as usize) % 7) as f64)
            .collect();
        carbon.insert(id, CarbonSeries::new(0, values));
        let _ = spec;
    }
    let regions = ["us-east-1", "us-east-2", "us-west-2", "ca-central-1"]
        .iter()
        .map(|n| cat.id_of(n).unwrap())
        .collect();
    World {
        pricing,
        runtime,
        latency,
        carbon,
        regions,
    }
}

/// One node's genome: (dist kind, shape parameter, memory selector,
/// external-data selector).
type NodeGene = (u8, f64, u8, u8);
/// One potential extra edge's genome: (endpoint word, conditional
/// selector, probability).
type EdgeGene = (u64, u8, f64);

fn exec_dist(kind: u8, p: f64) -> DistSpec {
    match kind % 5 {
        0 => DistSpec::Constant { value: 0.2 + p },
        1 => DistSpec::Uniform {
            lo: 0.1,
            hi: 0.3 + p,
        },
        2 => DistSpec::Normal {
            mean: 0.4 + p,
            std_dev: 0.1 + p / 4.0,
        },
        3 => DistSpec::LogNormal {
            median: 0.3 + p,
            sigma: 0.2 + p / 2.0,
        },
        _ => DistSpec::Empirical {
            samples: vec![0.2, 0.3 + p, 0.6, 0.9 + p],
        },
    }
}

fn payload_dist(kind: u8, p: f64) -> DistSpec {
    match kind % 4 {
        0 => DistSpec::Constant {
            value: 2_000.0 + 60_000.0 * p,
        },
        1 => DistSpec::Uniform {
            lo: 1_000.0,
            hi: 20_000.0 + 80_000.0 * p,
        },
        2 => DistSpec::LogNormal {
            median: 30_000.0 * (0.2 + p),
            sigma: 0.4,
        },
        _ => DistSpec::Empirical {
            samples: vec![500.0, 8_000.0, 45_000.0 * (0.5 + p)],
        },
    }
}

/// Builds the workflow and plan a genome describes. Node 0 is the root;
/// every later node is invoked by an earlier one, so the DAG is connected
/// and acyclic by construction. Nodes that end up with several in-edges
/// become sync joins.
fn build_case(
    w: &World,
    nodes: &[NodeGene],
    extra_edges: &[EdgeGene],
    plan_picks: &[u64],
) -> (
    caribou_model::WorkflowDag,
    caribou_model::profile::WorkflowProfile,
    DeploymentPlan,
) {
    let n = nodes.len();
    let mut wf = Workflow::new("diff", "0.1");
    let mut handles = Vec::with_capacity(n);
    for (i, &(kind, p, mem, ext)) in nodes.iter().enumerate() {
        let mut f = wf
            .serverless_function(format!("F{i}"))
            .exec_time(exec_dist(kind, p))
            .memory_mb(512 * (1 + (mem % 4) as u32))
            .cpu_utilization(0.3 + 0.15 * (mem % 4) as f64);
        if ext % 3 == 0 {
            f = f.external_data_bytes(1.0e6 + 2.0e6 * p);
        }
        handles.push(f.register());
    }
    // Spanning edges: parent of node i drawn from its genome word.
    let mut in_degree = vec![0usize; n];
    let mut present = std::collections::HashSet::new();
    for i in 1..n {
        let parent = (nodes[i].0 as usize * 31 + i * 17) % i;
        let (kind, _, _, ext) = nodes[i];
        let cond = if ext % 2 == 0 {
            None
        } else {
            Some(0.3 + 0.6 * nodes[i].1)
        };
        wf.invoke(handles[parent], handles[i], cond)
            .payload(payload_dist(kind, nodes[i].1));
        in_degree[i] += 1;
        present.insert((parent, i));
    }
    // Extra edges from the edge genomes, duplicates and self-loops skipped.
    for &(word, kind, p) in extra_edges {
        if n < 3 {
            break;
        }
        let to = 2 + (word as usize) % (n - 2);
        let from = (word as usize >> 16) % to;
        if present.contains(&(from, to)) {
            continue;
        }
        let cond = if kind % 2 == 0 {
            None
        } else {
            Some(0.2 + 0.7 * p)
        };
        wf.invoke(handles[from], handles[to], cond)
            .payload(payload_dist(kind, p));
        in_degree[to] += 1;
        present.insert((from, to));
    }
    for (i, &d) in in_degree.iter().enumerate() {
        if d > 1 {
            wf.get_predecessor_data(handles[i]);
        }
    }
    wf.set_input(DistSpec::Uniform {
        lo: 400.0,
        hi: 6_000.0,
    });
    let (dag, profile, _) = wf.extract().unwrap();
    let assignment: Vec<RegionId> = (0..n)
        .map(|i| w.regions[plan_picks[i % plan_picks.len()] as usize % w.regions.len()])
        .collect();
    (dag, profile, DeploymentPlan::new(assignment))
}

/// One estimation problem; the stage models vary per check.
struct Case<'a> {
    w: &'a World,
    dag: &'a WorkflowDag,
    profile: &'a WorkflowProfile,
    plan: &'a DeploymentPlan,
    scenario: TransmissionScenario,
    hour: f64,
    seed: u64,
    config: MonteCarloConfig,
}

impl Case<'_> {
    /// `estimate_batched` at every width, and the dispatching `estimate`,
    /// against `estimate_scalar` on `models`. Returns the scalar summary.
    fn assert_paths_agree<M: StageModels>(&self, models: &M, what: &str) -> EstimateSummary {
        let est = MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: &self.w.carbon,
            carbon_model: CarbonModel::new(self.scenario),
            cost_model: CostModel::new(&self.w.pricing),
            models,
            home: self.w.regions[0],
            config: self.config,
        };
        let seed = self.seed;
        let scalar = est.estimate_scalar(self.plan, self.hour, &mut Pcg32::seed(seed));
        for lanes in WIDTHS {
            let batched = est.estimate_batched(self.plan, self.hour, &mut Pcg32::seed(seed), lanes);
            assert_bits_eq(
                &scalar,
                &batched,
                &format!("{what} lanes={lanes} seed={seed}"),
            );
        }
        let dispatched = est.estimate(self.plan, self.hour, &mut Pcg32::seed(seed));
        assert_bits_eq(
            &scalar,
            &dispatched,
            &format!("{what} dispatching estimate()"),
        );
        scalar
    }

    fn default_models(&self) -> DefaultModels<'_> {
        DefaultModels {
            profile: self.profile,
            runtime: &self.w.runtime,
            latency: &self.w.latency,
            orchestrator: Orchestrator::Caribou,
        }
    }

    /// The learned-models check over [`seeded_history`], after asserting
    /// the history has the shape the learned arms need.
    fn assert_paths_agree_on_learned_models(&self) {
        let home = self.w.regions[0];
        let (history, unlogged) = seeded_history(self.w, self.dag, self.plan, self.seed);
        let learned = history.learned_models(
            self.profile,
            &self.w.runtime,
            &self.w.latency,
            Orchestrator::Caribou,
            home,
        );
        for node in self.dag.all_nodes() {
            let region = self.plan.region_of(node);
            let logged = learned.has_exec_data(node.index(), region)
                || learned.has_exec_data(node.index(), home);
            assert_eq!(logged, node != unlogged, "history of {node:?}");
        }
        if let Some(away) = self.plan.assignment().iter().find(|r| **r != home) {
            assert!(learned.has_transfer_data(*away, home));
            assert!(learned.has_transfer_data(home, *away));
        }
        self.assert_paths_agree(&learned, "learned");
    }
}

/// Six logs (past the manager's five-observation floor) in which every
/// node but one has execution history — in the region the plan runs it in,
/// or only at home, so the estimate scales it — and some region pairs have
/// transfer history: every other edge's pair, the entry pair on every
/// third seed, and both directions between home and the first offloaded
/// region, which the external-data round trip of a node there reads.
fn seeded_history(
    w: &World,
    dag: &WorkflowDag,
    plan: &DeploymentPlan,
    seed: u64,
) -> (MetricsManager, NodeId) {
    let home = w.regions[0];
    let n = dag.node_count();
    let unlogged = NodeId((seed % n as u64) as u32);
    let mut pairs: Vec<(RegionId, RegionId)> = (0..dag.edge_count())
        .filter(|ei| (*ei as u64 + seed).is_multiple_of(2))
        .map(|ei| {
            let e = dag.edge(EdgeId(ei as u32));
            (plan.region_of(e.from), plan.region_of(e.to))
        })
        .collect();
    if seed.is_multiple_of(3) {
        pairs.push((home, plan.region_of(dag.start())));
    }
    if let Some(away) = plan.assignment().iter().find(|r| **r != home) {
        pairs.push((*away, home));
        pairs.push((home, *away));
    }
    let mut history = MetricsManager::new();
    for k in 0..6 {
        let nodes = dag
            .all_nodes()
            .filter(|node| *node != unlogged)
            .map(|node| {
                let exact = (node.index() as u64 + seed / 7).is_multiple_of(2);
                let duration_s = 0.25 + 0.11 * k as f64 + 0.07 * node.index() as f64;
                NodeRecord {
                    node: node.index() as u32,
                    region: if exact { plan.region_of(node) } else { home },
                    duration_s,
                    cpu_total_time_s: duration_s * 0.6,
                    memory_mb: 1024,
                    start_s: 0.0,
                }
            })
            .collect();
        let edges = pairs
            .iter()
            .enumerate()
            .map(|(i, &(from_region, to_region))| EdgeRecord {
                edge: 0,
                taken: true,
                from_region,
                to_region,
                bytes: 1_000.0,
                latency_s: 0.004 + 0.003 * k as f64 + 0.002 * i as f64,
            })
            .collect();
        history.record(InvocationLog {
            workflow: "diff".into(),
            at_s: k as f64,
            benchmark_traffic: false,
            nodes,
            edges,
            e2e_latency_s: 1.0,
            cost_usd: 1e-5,
        });
    }
    (history, unlogged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary (workload, plan, hour, seed) → the batched path is
    /// bit-identical to the scalar path at widths 1/4/8/16, and the
    /// dispatching `estimate` entry point agrees too.
    #[test]
    fn batched_estimator_is_the_same_function_as_scalar(
        nodes in collection::vec((any::<u8>(), 0f64..1.0, any::<u8>(), any::<u8>()), 2..8),
        extra_edges in collection::vec((any::<u64>(), any::<u8>(), 0f64..1.0), 0..4),
        plan_picks in collection::vec(any::<u64>(), 1..8),
        rest in (0f64..24.0, any::<u64>(), 10usize..80),
    ) {
        let (hour, seed, batch) = rest;
        let w = world();
        let (dag, profile, plan) = build_case(&w, &nodes, &extra_edges, &plan_picks);
        let case = Case {
            w: &w,
            dag: &dag,
            profile: &profile,
            plan: &plan,
            scenario: TransmissionScenario::WORST,
            hour,
            seed,
            config: MonteCarloConfig {
                batch,
                max_samples: batch * 4,
                cv_threshold: 0.05,
            },
        };
        case.assert_paths_agree(&case.default_models(), "model");
        case.assert_paths_agree_on_learned_models();
    }
}

/// The ragged tail, pinned deterministically: a batch size that is a
/// multiple of no lane width (and caps mid-batch at `max_samples`), so the
/// final lane group of every batch — and the final batch itself — is
/// partial at every width.
#[test]
fn ragged_tail_batches_stay_bit_identical() {
    let w = world();
    let nodes: Vec<NodeGene> = vec![
        (3, 0.6, 1, 3),
        (4, 0.3, 2, 0),
        (1, 0.8, 0, 1),
        (2, 0.2, 3, 0),
        (0, 0.5, 1, 2),
    ];
    let extra: Vec<EdgeGene> = vec![(7, 1, 0.4), (9_000_077, 0, 0.9)];
    let picks = vec![0u64, 2, 3, 1, 2];
    let (dag, profile, plan) = build_case(&w, &nodes, &extra, &picks);
    let case = Case {
        w: &w,
        dag: &dag,
        profile: &profile,
        plan: &plan,
        scenario: TransmissionScenario::BEST,
        hour: 17.25,
        seed: 4242,
        // 53 % {4, 8, 16} != 0 and 200 % 53 != 0: ragged everywhere.
        config: MonteCarloConfig {
            batch: 53,
            max_samples: 200,
            cv_threshold: 0.0,
        },
    };
    let scalar = case.assert_paths_agree(&case.default_models(), "ragged");
    // Whole batches are drawn until the cap is met: 4 × 53 = 212.
    assert_eq!(scalar.samples, 212);
    // Seed 4242 leaves node 2 unlogged, gives nodes 0 and 4 history where
    // they run, nodes 1 and 3 home-only history, and node 1 (external
    // data, offloaded) both legs of its round trip from the log.
    case.assert_paths_agree_on_learned_models();
}
