//! Statistical-equivalence harness for the Monte Carlo estimator.
//!
//! The estimator folds a bank of shared draws; nothing in `crates/` still
//! samples one execution at a time. This file keeps that sampler as a
//! test-only reference — straight-line, every draw taken from one
//! generator when the execution reaches it, no draw shared with anything —
//! and asserts, over random DAGs × plans × hours × stage models, that the
//! two agree in distribution on latency, cost and carbon:
//!
//! * **means** within [`Z_BOUND`] standard errors of their difference;
//! * **p95** inside the reference's own 92.5–97.5% quantile band, widened
//!   by [`P95_REL_TOL`] (a rank band, because learned histories make the
//!   distributions atomic and a relative tolerance alone would straddle
//!   gaps between atoms);
//! * **standard deviations** within [`STD_REL_TOL`] of each other — what
//!   catches two sites reading one column, which moves no mean.
//!
//! Each random case also runs as a *quiet twin* — noise, cold starts,
//! jitter and conditional skips off — where cost and carbon are the same
//! number in every sample and the two paths must agree to rounding.
//!
//! The DAGs come from `workflows::random_workflow` (conditional edges,
//! sync joins, external data) with every `DistSpec` kind dealt over the
//! nodes and edges; the stage models are the profile-plus-simulator
//! `DefaultModels` and the Metrics Manager's `LearnedModels` over a seeded
//! log history (exact-region, home-only and absent execution history;
//! logged and unlogged region pairs).
//!
//! An estimate has two halves — the hour-free fold, whose latency and cost
//! a plan's `PlanRecord` keeps, and the pricing pass that turns the bank's
//! derived energy and byte columns into carbon at one hour. The second
//! part of this file pins that an estimate served from a record plus
//! pricing is **bit for bit** the estimate a fresh scratch folds in full:
//! over the same random DAGs, several plans on one bank, six hours, both
//! kinds of stage models; with conditional skips into sync nodes and
//! external-data legs; where one hour's carbon needs more batches than
//! the hour that wrote the record; and across a ragged batch.
//!
//! The third part pins the bank's node columns. A (node, region)'s
//! seconds, bill and energy are computed by the first plan that runs the
//! node there and read back by every later one, so along a walk of
//! neighbouring plans — in either direction — each plan's estimate and
//! `PlanRecord` on the bank its predecessors filled must be, bit for bit,
//! what a bank of its own gives.
//!
//! The fourth part pins the estimator's bits: a digest of every estimate
//! over a seeded sweep of paths (models, setup, rules, hours), captured
//! before its sample loops were rewritten.
//!
//! Mutation-checked when written: a fold that takes the *last* in-edge's
//! arrival instead of the latest, one that skips the `ceil` in Lambda
//! billing, and a bank whose node sites collide on one column each fail
//! this file — and so do a fold that meters energy for a node the sample
//! skipped, a bank that answers one region's energy column with
//! another's, and a pricing pass without the external-data term. The
//! third part fails on a bank that keys a node's columns by the node
//! without its region, and on a fold that reads a banked bill from the
//! column's first sample instead of the batch's.

use caribou_carbon::route::endpoint_average;
use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::{CarbonDataSource, TableSource};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::fold::PlanRecord;
use caribou_metrics::logs::{EdgeRecord, InvocationLog, NodeRecord};
use caribou_metrics::manager::MetricsManager;
use caribou_metrics::montecarlo::{
    DefaultModels, EstimateScratch, EstimateSummary, MonteCarloConfig, MonteCarloEstimator,
    StageModels,
};
use caribou_metrics::summary::{percentile_sorted, DistSummary};
use caribou_model::dag::{EdgeId, NodeId, WorkflowDag};
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::PricingCatalog;
use proptest::prelude::*;

mod workflows;
use workflows::{random_plan, random_workflow};

/// Samples the fold takes per estimate, and the reference per comparison.
const FOLD_SAMPLES: usize = 3_000;
const REFERENCE_SAMPLES: usize = 6_000;
/// Bound on `|mean difference| / standard error of the difference`.
const Z_BOUND: f64 = 4.5;
/// Relative slack around the reference's 92.5%–97.5% quantile band.
const P95_REL_TOL: f64 = 0.01;
/// Relative tolerance between the two standard deviations.
const STD_REL_TOL: f64 = 0.2;
/// What two computations of one deterministic number may differ by.
const ROUNDING: f64 = 1e-9;

struct World {
    pricing: PricingCatalog,
    runtime: LambdaRuntime,
    latency: LatencyModel,
    carbon: TableSource,
    regions: Vec<RegionId>,
}

/// A world with the stochastic knobs ON (cold starts, execution noise,
/// transfer jitter), or — `quiet` — with all of them off.
fn world(quiet: bool) -> World {
    let cloud = SimCloud::aws(0);
    let (cat, pricing, mut runtime, mut latency) =
        (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
    if quiet {
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        latency.jitter_sigma = 0.0;
    }
    let mut carbon = TableSource::new();
    for (id, _) in cat.iter() {
        // Distinct diurnal shapes per region so carbon depends on both the
        // placement and the hour.
        let base = 40.0 + 37.0 * (id.0 % 11) as f64;
        let values: Vec<f64> = (0..24)
            .map(|h| base + 25.0 * ((h + id.0 as usize) % 7) as f64)
            .collect();
        carbon.insert(id, CarbonSeries::new(0, values));
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

/// Deals every `DistSpec` kind over the profile's nodes, edges and input,
/// keeping each distribution's scale (the constant `random_workflow` put
/// there).
fn vary_distributions(profile: &mut WorkflowProfile, seed: u64) {
    let vary = |spec: &mut DistSpec, kind: u64| {
        let DistSpec::Constant { value } = *spec else {
            return;
        };
        *spec = match kind % 5 {
            0 => return,
            1 => DistSpec::Uniform {
                lo: 0.5 * value,
                hi: 1.5 * value,
            },
            2 => DistSpec::Normal {
                mean: value,
                std_dev: 0.3 * value,
            },
            3 => DistSpec::LogNormal {
                median: value,
                sigma: 0.4,
            },
            _ => DistSpec::Empirical {
                samples: vec![0.4 * value, 0.8 * value, value, 1.9 * value],
            },
        };
    };
    for (i, node) in profile.nodes.iter_mut().enumerate() {
        vary(&mut node.exec_time, seed / 3 + i as u64);
    }
    for (i, edge) in profile.edges.iter_mut().enumerate() {
        vary(&mut edge.payload_bytes, seed / 5 + 2 * i as u64);
    }
    vary(&mut profile.input_bytes, seed / 7);
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
}

impl Case<'_> {
    fn home(&self) -> RegionId {
        self.w.regions[0]
    }

    fn default_models(&self) -> DefaultModels<'_> {
        DefaultModels {
            profile: self.profile,
            runtime: &self.w.runtime,
            latency: &self.w.latency,
            orchestrator: Orchestrator::Caribou,
        }
    }

    /// The estimator's fold against the reference sampler on `models`.
    fn assert_equivalent<M: StageModels>(&self, models: &M, what: &str) {
        let est = MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: &self.w.carbon,
            carbon_model: CarbonModel::new(self.scenario),
            cost_model: CostModel::new(&self.w.pricing),
            models,
            home: self.home(),
            config: MonteCarloConfig {
                batch: FOLD_SAMPLES,
                max_samples: FOLD_SAMPLES,
                cv_threshold: 0.0,
            },
        };
        let fold = est.estimate(self.plan, self.hour, &mut Pcg32::seed(self.seed));
        assert_eq!(fold.samples, FOLD_SAMPLES);

        let mut rng = Pcg32::seed(self.seed ^ 0x5eed_7e57);
        let mut columns = [Vec::new(), Vec::new(), Vec::new()];
        let (mut exec_sum, mut trans_sum) = (0.0, 0.0);
        for _ in 0..REFERENCE_SAMPLES {
            let s = reference_sample(&est, self.plan, self.hour, &mut rng);
            columns[0].push(s.latency);
            columns[1].push(s.cost);
            columns[2].push(s.exec_carbon + s.trans_carbon);
            exec_sum += s.exec_carbon;
            trans_sum += s.trans_carbon;
        }
        let metrics = [
            ("latency", fold.latency),
            ("cost", fold.cost),
            ("carbon", fold.carbon),
        ];
        for ((metric, folded), column) in metrics.into_iter().zip(&mut columns) {
            let what = format!("{what}, seed {}: {metric}", self.seed);
            assert_same_distribution(&folded, column, &what);
        }
        // The two carbon components are means of their own.
        let n = REFERENCE_SAMPLES as f64;
        let carbon_se = fold.carbon.std_dev * (1.0 / FOLD_SAMPLES as f64 + 1.0 / n).sqrt();
        for (part, folded, reference) in [
            ("exec", fold.exec_carbon_mean, exec_sum / n),
            ("trans", fold.trans_carbon_mean, trans_sum / n),
        ] {
            assert!(
                (folded - reference).abs() <= Z_BOUND * carbon_se + ROUNDING * reference.abs(),
                "{what}, seed {}: {part} carbon {folded:e} vs reference {reference:e}",
                self.seed
            );
        }
    }

    /// The learned-models check over [`seeded_history`], after asserting
    /// the history has the shape the learned arms need.
    fn assert_equivalent_on_learned_models(&self) {
        let home = self.home();
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
        self.assert_equivalent(&learned, "learned");
    }
}

/// `folded` (the estimator's summary of one metric) against the
/// reference's raw samples of it.
fn assert_same_distribution(folded: &DistSummary, reference: &mut [f64], what: &str) {
    let r = DistSummary::from_samples(reference);
    let se = (folded.std_dev.powi(2) / folded.n as f64 + r.std_dev.powi(2) / r.n as f64).sqrt();
    let slack = ROUNDING * r.mean.abs();
    assert!(
        (folded.mean - r.mean).abs() <= Z_BOUND * se + slack,
        "{what}: mean {:e} vs reference {:e} is {:.1} standard errors",
        folded.mean,
        r.mean,
        (folded.mean - r.mean).abs() / se
    );
    reference.sort_by(f64::total_cmp);
    let lo = percentile_sorted(reference, 0.925) * (1.0 - P95_REL_TOL) - slack;
    let hi = percentile_sorted(reference, 0.975) * (1.0 + P95_REL_TOL) + slack;
    assert!(
        (lo..=hi).contains(&folded.p95),
        "{what}: p95 {:e} outside the reference's band {lo:e}..{hi:e}",
        folded.p95
    );
    assert!(
        (folded.std_dev - r.std_dev).abs() <= STD_REL_TOL * r.std_dev + slack,
        "{what}: std dev {:e} vs reference {:e}",
        folded.std_dev,
        r.std_dev
    );
}

/// One sampled end-to-end execution.
struct SamplePoint {
    latency: f64,
    cost: f64,
    exec_carbon: f64,
    trans_carbon: f64,
}

/// The independent-draws reference: simulates one complete workflow
/// execution, drawing from `rng` as the execution reaches each site. This
/// is the sampler `crates/metrics` had before the draw bank, on the public
/// model functions.
fn reference_sample<S: CarbonDataSource, M: StageModels>(
    est: &MonteCarloEstimator<'_, S, M>,
    plan: &DeploymentPlan,
    hour: f64,
    rng: &mut Pcg32,
) -> SamplePoint {
    let (dag, home) = (est.dag, est.home);
    let m = est.models.base();
    let exec = |node: usize, region: RegionId, rng: &mut Pcg32| match est
        .models
        .learned_exec(node, region)
    {
        Some((samples, scale)) => *rng.choose(samples).unwrap() * scale,
        None => {
            let p = &m.profile.nodes[node];
            m.runtime
                .execute(region, &p.exec_time, p.memory_mb, p.cpu_utilization, rng)
                .duration_s
        }
    };
    let transfer = |from: RegionId, to: RegionId, bytes: f64, rng: &mut Pcg32| match est
        .models
        .learned_transfer(from, to)
    {
        Some(samples) => *rng.choose(samples).unwrap(),
        None => m.latency.sample_transfer_seconds(from, to, bytes, rng),
    };
    let route = |from, to| endpoint_average(est.carbon_source, from, to, hour);

    let n = dag.node_count();
    let mut executed = vec![false; n];
    let mut finish = vec![0.0f64; n];
    let mut start_time = vec![f64::NEG_INFINITY; n];
    let (mut cost, mut exec_carbon, mut trans_carbon) = (0.0, 0.0, 0.0);

    // Client delivers the input to the start node from the home region.
    let start_node = dag.start();
    let start_region = plan.region_of(start_node);
    let input_bytes = est.profile.input_bytes.sample(rng);
    let mut t0 = m.orchestrator.sample_setup_s(rng);
    t0 += transfer(home, start_region, input_bytes, rng);
    trans_carbon += est.carbon_model.transmission_carbon(
        input_bytes,
        route(home, start_region),
        home == start_region,
    );
    cost += est
        .cost_model
        .pricing()
        .egress_cost(home, start_region, input_bytes);
    // Entry wrapper fetches the deployment plan once.
    cost += est.cost_model.kv_cost(start_region, 1, 0);
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
                let from_r = plan.region_of(e.from);
                let to_r = plan.region_of(node);
                if !rng.chance(est.profile.edges[eid.index()].probability) {
                    // Skip propagation: the predecessor writes the C=0
                    // annotation; for sync nodes this is one atomic KV
                    // update.
                    if dag.is_sync_node(node) {
                        cost += est.cost_model.kv_cost(from_r, 1, 1);
                    }
                    continue;
                }
                any_taken = true;
                let payload = est.profile.edges[eid.index()].payload_bytes.sample(rng);
                let arrive = finish[e.from.index()]
                    + m.orchestrator.sample_transition_s(rng)
                    + transfer(from_r, to_r, payload, rng);
                ready_at = ready_at.max(arrive);
                // Invocation cost: SNS publish + payload egress.
                cost += est.cost_model.invocation_cost(from_r, to_r, payload);
                // Intermediate data passes through the KV store: one write
                // by the predecessor, one read by the successor; sync nodes
                // add the atomic annotation update.
                cost += est.cost_model.kv_cost(from_r, 0, 1);
                cost += est.cost_model.kv_cost(to_r, 1, 0);
                if dag.is_sync_node(node) {
                    cost += est.cost_model.kv_cost(from_r, 1, 1);
                }
                trans_carbon += est.carbon_model.transmission_carbon(
                    payload,
                    route(from_r, to_r),
                    from_r == to_r,
                );
            }
            if !any_taken {
                continue;
            }
            start_time[ni] = ready_at;
            executed[ni] = true;
        }

        let region = plan.region_of(node);
        let p = &est.profile.nodes[ni];
        let mut duration = exec(ni, region, rng);
        // External data stays at the home region; offloaded stages pay the
        // round trip (§9.1).
        if region != home && p.external_data_bytes > 0.0 {
            let half = p.external_data_bytes / 2.0;
            duration += transfer(region, home, half, rng) + transfer(home, region, half, rng);
            trans_carbon += est.carbon_model.transmission_carbon(
                p.external_data_bytes,
                route(region, home),
                false,
            );
            cost += est
                .cost_model
                .external_data_cost(region, home, p.external_data_bytes);
        }
        finish[ni] = start_time[ni] + duration;
        cost += est.cost_model.execution_cost(region, duration, p.memory_mb);
        exec_carbon += est.carbon_model.execution_carbon_params(
            p.memory_mb,
            duration,
            p.cpu_utilization,
            est.carbon_source.intensity(region, hour),
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
        exec_carbon,
        trans_carbon,
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

    /// Arbitrary (workload, plan, hour, seed) → the fold over shared draws
    /// has the distribution of the independent-draws reference, on model
    /// and on learned stage models, and matches it to rounding where
    /// nothing is random.
    #[test]
    fn bank_fold_is_statistically_equivalent_to_independent_draws(
        wf in random_workflow(),
        hour in 0f64..24.0,
        seed in any::<u64>(),
    ) {
        let mut profile = wf.profile.clone();
        vary_distributions(&mut profile, seed);
        let w = world(false);
        let plan = random_plan(&wf.dag, &w.regions, seed);
        let case = Case {
            w: &w,
            dag: &wf.dag,
            profile: &profile,
            plan: &plan,
            scenario: TransmissionScenario::WORST,
            hour,
            seed,
        };
        case.assert_equivalent(&case.default_models(), "model");
        case.assert_equivalent_on_learned_models();

        // The quiet twin: constant distributions, every edge taken.
        let mut quiet_profile = wf.profile.clone();
        for edge in &mut quiet_profile.edges {
            edge.probability = 1.0;
        }
        let quiet = Case { w: &world(true), profile: &quiet_profile, ..case };
        quiet.assert_equivalent(&quiet.default_models(), "quiet");
    }
}

/// The ragged tail, pinned deterministically: an estimate is the same
/// function of its samples however the stopping rule batches them — 212
/// samples as four batches of 53 or one of 212, on a fresh bank or on one
/// another rule left mid-batch at 100.
#[test]
fn ragged_tail_batches_stay_bit_identical() {
    let w = world(false);
    let wf = random_workflow().generate(&mut TestRng::new(4242));
    let mut profile = wf.profile.clone();
    vary_distributions(&mut profile, 4242);
    let plan = random_plan(&wf.dag, &w.regions, 4242);
    let (history, _) = seeded_history(&w, &wf.dag, &plan, 4242);
    let learned = history.learned_models(
        &profile,
        &w.runtime,
        &w.latency,
        Orchestrator::Caribou,
        w.regions[0],
    );
    let estimate = |batch: usize, scratch: Option<&mut _>| -> EstimateSummary {
        let est = MonteCarloEstimator {
            dag: &wf.dag,
            profile: &profile,
            carbon_source: &w.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&w.pricing),
            models: &learned,
            home: w.regions[0],
            config: MonteCarloConfig {
                batch,
                max_samples: 200,
                cv_threshold: 0.0,
            },
        };
        let mut rng = Pcg32::seed(4242);
        match scratch {
            Some(scratch) => est.estimate_with(&plan, 17.25, &mut rng, scratch),
            None => est.estimate(&plan, 17.25, &mut rng),
        }
    };
    // Whole batches are drawn until the cap is met: 4 × 53 = 212.
    let ragged = estimate(53, None);
    assert_eq!(ragged.samples, 212);
    assert_eq!(ragged, estimate(212, None));
    let mut scratch = Default::default();
    assert_eq!(estimate(100, Some(&mut scratch)).samples, 200);
    assert_eq!(ragged, estimate(53, Some(&mut scratch)));
}

/// Every field of an estimate as its bit pattern: `==` on floats would
/// let `-0.0` pass for `0.0`.
fn bits(e: &EstimateSummary) -> [u64; 12] {
    let [l, c, g] = [e.latency, e.cost, e.carbon].map(|d| [d.mean, d.p95, d.std_dev]);
    let floats = [l, c, g].concat();
    let mut out = [e.samples as u64; 12];
    for (slot, x) in out.iter_mut().zip(floats) {
        *slot = x.to_bits();
    }
    out[9] = e.exec_carbon_mean.to_bits();
    out[10] = e.trans_carbon_mean.to_bits();
    out
}

/// One bank and the records of the plans estimated on it — what the
/// solver's engine and cache keep between estimates.
#[derive(Default)]
struct Kept {
    scratch: EstimateScratch,
    records: Vec<(DeploymentPlan, PlanRecord)>,
    folded: usize,
    repriced: usize,
}

impl Kept {
    /// Estimates through the plan's kept record, keeps the longer one if
    /// the estimate folded, and checks the result against a fresh scratch
    /// folding in full.
    fn estimate<M: StageModels>(
        &mut self,
        est: &MonteCarloEstimator<'_, TableSource, M>,
        plan: &DeploymentPlan,
        hour: f64,
        seed: u64,
        what: &str,
    ) -> EstimateSummary {
        let at = self.records.iter().position(|(p, _)| p == plan);
        let at = at.unwrap_or_else(|| {
            self.records.push((plan.clone(), PlanRecord::default()));
            self.records.len() - 1
        });
        let record = &mut self.records[at].1;
        let mut rng = Pcg32::seed(seed);
        let (served, grown) = est.estimate_on(plan, hour, &mut rng, &mut self.scratch, record);
        match grown {
            Some(grown) => {
                *record = grown;
                self.folded += 1;
            }
            None => self.repriced += 1,
        }
        let fresh = est.estimate(plan, hour, &mut Pcg32::seed(seed));
        assert_eq!(bits(&served), bits(&fresh), "{what}, hour {hour}");
        served
    }
}

impl Case<'_> {
    /// Serves every (hour, plan) off one bank and the records it leaves,
    /// then two more hours under a ragged rule; `stops` collects where
    /// the first rule's estimates stopped.
    fn serve_every_hour<M: StageModels>(
        &self,
        models: &M,
        plans: &[DeploymentPlan],
        what: &str,
        stops: &mut Vec<usize>,
    ) -> Kept {
        const HOURS: [f64; 6] = [0.5, 3.25, 7.5, 12.0, 17.75, 23.5];
        let rule = |batch, max_samples, cv_threshold| MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: &self.w.carbon,
            carbon_model: CarbonModel::new(self.scenario),
            cost_model: CostModel::new(&self.w.pricing),
            models,
            home: self.home(),
            config: MonteCarloConfig {
                batch,
                max_samples,
                cv_threshold,
            },
        };
        let what = format!("{what}, seed {}", self.seed);
        let mut kept = Kept::default();
        let est = rule(40, 160, 0.03);
        for hour in HOURS {
            for plan in plans {
                stops.push(kept.estimate(&est, plan, hour, self.seed, &what).samples);
            }
        }
        // A ragged batch: the same bank and records under a rule whose
        // boundaries fall between the ones recorded.
        let ragged = rule(53, 106, 0.0);
        for plan in plans {
            for hour in [3.25, 17.75] {
                let e = kept.estimate(&ragged, plan, hour, self.seed, &what);
                assert_eq!(e.samples, 106);
            }
        }
        kept
    }
}

/// Whether some conditional edge of the workflow enters a sync node.
fn skips_into_sync_node(dag: &WorkflowDag, profile: &WorkflowProfile) -> bool {
    dag.all_edges()
        .any(|e| profile.edges[e.index()].probability < 1.0 && dag.is_sync_node(dag.edge(e).to))
}

/// Whether one of `plans` runs a node with external data away from `home`.
fn fetches_from_afar(
    dag: &WorkflowDag,
    profile: &WorkflowProfile,
    plans: &[DeploymentPlan],
    home: RegionId,
) -> bool {
    plans.iter().any(|plan| {
        dag.all_nodes().any(|n| {
            profile.nodes[n.index()].external_data_bytes > 0.0 && plan.region_of(n) != home
        })
    })
}

/// Record + pricing against a full fold, over random DAGs × plans × hours
/// × stage models, every plan of a case on one bank.
#[test]
fn estimates_served_from_a_record_equal_full_folds_bit_for_bit() {
    let w = world(false);
    let home = w.regions[0];
    let (mut skips_into_sync, mut external_legs, mut stops) = (0, 0, Vec::new());
    let (mut folded, mut repriced) = (0, 0);
    for seed in 0..24u64 {
        let wf = random_workflow().generate(&mut TestRng::new(seed));
        let mut profile = wf.profile.clone();
        vary_distributions(&mut profile, seed);
        // Plans that share sites with each other, so the bank answers a
        // plan with columns another published.
        let plans: Vec<DeploymentPlan> = (0..3)
            .map(|k| random_plan(&wf.dag, &w.regions, seed * 3 + k))
            .chain([DeploymentPlan::uniform(wf.dag.node_count(), home)])
            .collect();
        skips_into_sync += usize::from(skips_into_sync_node(&wf.dag, &profile));
        external_legs += usize::from(fetches_from_afar(&wf.dag, &profile, &plans[..1], home));
        let (history, _) = seeded_history(&w, &wf.dag, &plans[0], seed);
        let learned = history.learned_models(
            &profile,
            &w.runtime,
            &w.latency,
            Orchestrator::Caribou,
            home,
        );
        let default = DefaultModels {
            profile: &profile,
            runtime: &w.runtime,
            latency: &w.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let case = Case {
            w: &w,
            dag: &wf.dag,
            profile: &profile,
            plan: &plans[0],
            scenario: TransmissionScenario::WORST,
            hour: 0.0,
            seed,
        };
        for kept in [
            case.serve_every_hour(&default, &plans, "model", &mut stops),
            case.serve_every_hour(&learned, &plans, "learned", &mut stops),
        ] {
            folded += kept.folded;
            repriced += kept.repriced;
        }
    }
    // The cases covered what they are here to cover.
    assert!(
        skips_into_sync >= 3,
        "{skips_into_sync} cases skip into a sync node"
    );
    assert!(
        external_legs >= 3,
        "{external_legs} cases fetch external data from afar"
    );
    stops.sort_unstable();
    assert!(
        stops[0] < stops[stops.len() - 1],
        "every estimate stopped at {}",
        stops[0]
    );
    assert!(
        repriced > 2 * folded,
        "{folded} folds, {repriced} repricings"
    );
}

/// One hour's carbon needs more batches than the hour that wrote the
/// record: the fold runs again, further, and every hour — the earlier one
/// included — is served from the longer record with unchanged bits.
#[test]
fn an_hour_that_needs_more_batches_extends_the_record() {
    let w = world(false);
    let [home, away] = [w.regions[0], w.regions[2]];
    // A steady stage at home and a noisy one away.
    let wf = random_workflow().generate(&mut TestRng::new(1));
    let mut profile = wf.profile.clone();
    for (i, node) in profile.nodes.iter_mut().enumerate() {
        node.external_data_bytes = 0.0;
        node.exec_time = match i {
            1 => DistSpec::LogNormal {
                median: 2.0,
                sigma: 0.6,
            },
            _ => DistSpec::Constant { value: 4.0 },
        };
    }
    let mut plan = DeploymentPlan::uniform(wf.dag.node_count(), home);
    plan.set(NodeId(1), away);
    // At hour 0 the grid is dirty at home and clean away — carbon is the
    // steady stages' — and at hour 1 the other way round.
    let mut carbon = TableSource::new();
    for (region, values) in [(home, [900.0, 1.0]), (away, [1.0, 900.0])] {
        carbon.insert(region, CarbonSeries::new(0, values.to_vec()));
    }
    let models = DefaultModels {
        profile: &profile,
        runtime: &w.runtime,
        latency: &w.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let est = MonteCarloEstimator {
        dag: &wf.dag,
        profile: &profile,
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&w.pricing),
        models: &models,
        home,
        config: MonteCarloConfig {
            batch: 50,
            max_samples: 400,
            cv_threshold: 0.04,
        },
    };
    let mut kept = Kept::default();
    let steady = kept.estimate(&est, &plan, 0.5, 7, "steady hour");
    assert_eq!((kept.folded, kept.repriced), (1, 0));
    let noisy = kept.estimate(&est, &plan, 1.5, 7, "noisy hour");
    assert!(
        noisy.samples > steady.samples,
        "{} then {}",
        steady.samples,
        noisy.samples
    );
    assert_eq!(
        (kept.folded, kept.repriced),
        (2, 0),
        "the record fell short"
    );
    for (hour, first) in [(0.5, steady), (1.5, noisy)] {
        let again = kept.estimate(&est, &plan, hour, 7, "on the longer record");
        assert_eq!(bits(&again), bits(&first));
    }
    assert_eq!((kept.folded, kept.repriced), (2, 2));
}

/// Every boundary of a record as bit patterns, at a rule's `batch`.
fn record_bits(record: &PlanRecord, batch: usize) -> Vec<[u64; 6]> {
    (1..=record.boundaries())
        .map(|k| {
            let (lat, cost) = record.at(k * batch).expect("a boundary per batch");
            [lat, cost]
                .map(|d| [d.mean, d.p95, d.std_dev].map(f64::to_bits))
                .concat()
                .try_into()
                .unwrap()
        })
        .collect()
}

/// `steps` plans, each the one before with one or two nodes moved: what an
/// HBSS walk visits, so a plan finds most of its node sites banked.
fn neighbouring_plans(
    dag: &WorkflowDag,
    regions: &[RegionId],
    seed: u64,
    steps: usize,
) -> Vec<DeploymentPlan> {
    let mut rng = Pcg32::seed(seed ^ 0x51de);
    let mut plans = vec![random_plan(dag, regions, seed)];
    for _ in 1..steps {
        let mut next = plans[plans.len() - 1].clone();
        for _ in 0..1 + rng.next_index(2) {
            let node = NodeId(rng.next_index(dag.node_count()) as u32);
            next.set(node, regions[rng.next_index(regions.len())]);
        }
        plans.push(next);
    }
    plans
}

/// Samples per batch along the walks below.
const WALK_BATCH: usize = 40;

/// Estimates `plans` each on a bank of its own, then forwards and
/// backwards on one bank; returns how many needed a second batch.
fn walk_both_ways<M: StageModels>(
    w: &World,
    dag: &WorkflowDag,
    profile: &WorkflowProfile,
    models: &M,
    plans: &[DeploymentPlan],
    hour: f64,
    seed: u64,
) -> usize {
    let est = MonteCarloEstimator {
        dag,
        profile,
        carbon_source: &w.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::WORST),
        cost_model: CostModel::new(&w.pricing),
        models,
        home: w.regions[0],
        config: MonteCarloConfig {
            batch: WALK_BATCH,
            max_samples: 4 * WALK_BATCH,
            cv_threshold: 0.03,
        },
    };
    let on = |scratch: &mut EstimateScratch, plan| {
        let unfolded = PlanRecord::default();
        let (estimate, record) =
            est.estimate_on(plan, hour, &mut Pcg32::seed(seed), scratch, &unfolded);
        let record = record.expect("no record to go by: folded");
        (bits(&estimate), record_bits(&record, WALK_BATCH))
    };
    let fresh: Vec<_> = plans
        .iter()
        .map(|plan| on(&mut EstimateScratch::default(), plan))
        .collect();
    let forwards: Vec<usize> = (0..plans.len()).collect();
    let backwards: Vec<usize> = forwards.iter().rev().copied().collect();
    for order in [forwards, backwards] {
        let mut shared = EstimateScratch::default();
        for &k in &order {
            let banked = on(&mut shared, &plans[k]);
            assert_eq!(banked, fresh[k], "seed {seed}, plan {k} of {order:?}");
        }
    }
    fresh.iter().filter(|(_, record)| record.len() > 1).count()
}

/// Node columns read from the bank against a fresh fold: random DAGs ×
/// walks of neighbouring plans × both visiting orders × stage models, cold
/// starts and noise on, under a rule some plans need a second batch of.
#[test]
fn plans_on_a_bank_their_predecessors_filled_equal_fresh_banks_bit_for_bit() {
    let w = world(false);
    let home = w.regions[0];
    let (mut skips_into_sync, mut external_legs, mut second_batches) = (0, 0, 0);
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    for seed in 0..24u64 {
        let wf = random_workflow().generate(&mut TestRng::new(seed));
        let mut profile = wf.profile.clone();
        vary_distributions(&mut profile, seed);
        let plans = neighbouring_plans(&wf.dag, &w.regions, seed, 6);
        skips_into_sync += usize::from(skips_into_sync_node(&wf.dag, &profile));
        external_legs += usize::from(fetches_from_afar(&wf.dag, &profile, &plans, home));
        let (history, _) = seeded_history(&w, &wf.dag, &plans[0], seed);
        let learned = history.learned_models(
            &profile,
            &w.runtime,
            &w.latency,
            Orchestrator::Caribou,
            home,
        );
        let default = DefaultModels {
            profile: &profile,
            runtime: &w.runtime,
            latency: &w.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let hour = (seed % 24) as f64 + 0.5;
        second_batches += walk_both_ways(&w, &wf.dag, &profile, &default, &plans, hour, seed);
        second_batches += walk_both_ways(&w, &wf.dag, &profile, &learned, &plans, hour, seed);
    }
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    let read = recorder.counter("montecarlo.sites.read");
    let folded = recorder.counter("montecarlo.sites.folded");
    // The cases covered what they are here to cover: half the sites are
    // folded by the fresh banks alone, so the shared ones mostly read.
    assert!(
        2 * read > folded,
        "{read} node sites read from a bank, {folded} folded"
    );
    assert!(second_batches >= 24, "{second_batches} second batches");
    assert!(
        skips_into_sync >= 3,
        "{skips_into_sync} cases skip into a sync node"
    );
    assert!(
        external_legs >= 3,
        "{external_legs} cases fetch external data from afar"
    );
}

/// Folds an estimate's bits into `h` (FNV-1a over words).
fn fold_bits(h: &mut u64, e: &EstimateSummary) {
    for w in bits(e) {
        *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The estimator's bits on every fold and pricing path, captured at
/// 14ac3f2 before its per-sample loops became free functions over their
/// columns and its p95 a selection above mean + σ: random DAGs (gated and
/// certain edges, sync joins, skips into them, offloaded external-data
/// nodes) × three plans × model and learned stage models (exec picks at
/// the plan's region and scaled from home, logged and unlogged transfer
/// pairs) × setup on (Caribou) and off (raw SNS) × the paper's 200/2000
/// rule at its 5% threshold and at 1% (which stops between its bounds), a
/// 40/80 rule and ragged 50-sample batches to 250 × four hours per plan,
/// the later hours priced off the kept record. The digest folds every
/// `EstimateSummary` in that order.
#[test]
fn every_estimator_path_is_pinned() {
    const DIGEST: u64 = 0x181c_ff49_39c2_f585;
    const HOURS: [f64; 4] = [0.5, 7.25, 13.0, 19.75];
    let rules = [
        (200, 2000, 0.05),
        (200, 2000, 0.01),
        (40, 80, 0.2),
        (50, 250, 0.0),
    ];
    let w = world(false);
    let home = w.regions[0];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut gated, mut certain, mut skips_into_sync, mut external_legs) = (0, 0, 0, 0);
    let (mut folded, mut repriced, mut capped, mut extended) = (0, 0, 0, 0);
    for seed in 0..10u64 {
        let wf = random_workflow().generate(&mut TestRng::new(7_000 + seed));
        let mut profile = wf.profile.clone();
        vary_distributions(&mut profile, seed);
        let plans = [
            random_plan(&wf.dag, &w.regions, seed),
            random_plan(&wf.dag, &w.regions, seed + 100),
            DeploymentPlan::uniform(wf.dag.node_count(), home),
        ];
        let probs = profile.edges.iter().map(|e| e.probability);
        gated += probs.clone().filter(|p| *p > 0.0 && *p < 1.0).count();
        certain += probs.filter(|p| *p >= 1.0).count();
        skips_into_sync += usize::from(skips_into_sync_node(&wf.dag, &profile));
        external_legs += usize::from(fetches_from_afar(&wf.dag, &profile, &plans, home));
        let (history, _) = seeded_history(&w, &wf.dag, &plans[0], seed);
        for orchestrator in [Orchestrator::Caribou, Orchestrator::Sns] {
            let default = DefaultModels {
                profile: &profile,
                runtime: &w.runtime,
                latency: &w.latency,
                orchestrator,
            };
            let learned =
                history.learned_models(&profile, &w.runtime, &w.latency, orchestrator, home);
            for (batch, max_samples, cv_threshold) in rules {
                let config = MonteCarloConfig {
                    batch,
                    max_samples,
                    cv_threshold,
                };
                let kept = [
                    pin_hours(&mut h, &w, &wf.dag, &profile, &default, config, &plans),
                    pin_hours(&mut h, &w, &wf.dag, &profile, &learned, config, &plans),
                ];
                for (kept, stops) in kept {
                    folded += kept.folded;
                    repriced += kept.repriced;
                    capped += stops.iter().filter(|n| **n == max_samples).count();
                    extended += stops
                        .iter()
                        .filter(|n| **n > batch && **n < max_samples)
                        .count();
                }
            }
        }
    }
    // The sweep covered what it is here to cover.
    assert!(
        gated >= 5 && certain >= 5,
        "{gated} gated, {certain} certain edges"
    );
    assert!(
        skips_into_sync >= 2,
        "{skips_into_sync} skip into a sync node"
    );
    assert!(
        external_legs >= 2,
        "{external_legs} fetch external data from afar"
    );
    assert!(
        repriced >= 2 * folded,
        "{folded} folds, {repriced} repricings"
    );
    assert!(
        capped > 0 && extended > 0,
        "{capped} capped, {extended} stopped between"
    );
    assert_eq!(h, DIGEST, "the estimator's bits moved: {h:#x}");

    /// Every plan at every hour of [`HOURS`] on one bank, under `config`,
    /// folded into `h`; the bank's bookkeeping and where each one stopped.
    fn pin_hours<M: StageModels>(
        h: &mut u64,
        w: &World,
        dag: &WorkflowDag,
        profile: &WorkflowProfile,
        models: &M,
        config: MonteCarloConfig,
        plans: &[DeploymentPlan],
    ) -> (Kept, Vec<usize>) {
        let est = MonteCarloEstimator {
            dag,
            profile,
            carbon_source: &w.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::WORST),
            cost_model: CostModel::new(&w.pricing),
            models,
            home: w.regions[0],
            config,
        };
        let (mut kept, mut stops) = (Kept::default(), Vec::new());
        for plan in plans {
            for hour in HOURS {
                let e = kept.estimate(&est, plan, hour, 31, "pin");
                fold_bits(h, &e);
                stops.push(e.samples);
            }
        }
        (kept, stops)
    }
}
