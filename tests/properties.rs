//! Property-based integration tests (proptest) over randomly generated
//! workflows, plans, and traces.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_core::scenario::Case;
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::logs::{InvocationLog, LogStore, NodeRecord};
use caribou_metrics::montecarlo::MonteCarloConfig;
use caribou_model::dag::NodeId;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use proptest::prelude::*;

mod workflows;
use workflows::{random_plan, random_workflow};

fn flat_carbon(cloud: &SimCloud) -> TableSource {
    let mut t = TableSource::new();
    for (id, _) in cloud.regions.iter() {
        t.insert(id, CarbonSeries::new(0, vec![200.0; 24]));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The execution engine respects causality on every random workflow
    /// and random deployment plan: a node starts only after each taken
    /// predecessor finished, every node executes at most once, and the
    /// end-to-end latency equals the last finish time.
    #[test]
    fn engine_respects_causality(wf in random_workflow(), seed in any::<u64>()) {
        let mut cloud = SimCloud::aws(seed);
        cloud.compute.cold_start_prob = 0.0;
        let carbon = flat_carbon(&cloud);
        let regions = cloud.regions.evaluation_regions();
        let app = WorkflowApp {
            name: "random".into(),
            dag: wf.dag.clone(),
            profile: wf.profile.clone(),
            home: cloud.region("us-east-1").unwrap(),
        };
        let plan = random_plan(&wf.dag, &regions, seed);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut cloud, &app, &plan);
        let out = engine.invoke(&mut cloud, &app, &plan, 1, 100.0, &mut Pcg32::seed(seed));
        prop_assert!(out.completed);

        // Each node at most once.
        let mut seen = std::collections::HashSet::new();
        for n in &out.log.nodes {
            prop_assert!(seen.insert(n.node), "node {} executed twice", n.node);
        }
        // Start node always executes.
        prop_assert!(seen.contains(&wf.dag.start().0));

        // Causality along taken edges.
        let rec = |id: u32| out.log.nodes.iter().find(|n| n.node == id);
        for e in &out.log.edges {
            if !e.taken {
                continue;
            }
            let from = wf.dag.edge(caribou_model::dag::EdgeId(e.edge)).from.0;
            let to = wf.dag.edge(caribou_model::dag::EdgeId(e.edge)).to.0;
            if let (Some(f), Some(t)) = (rec(from), rec(to)) {
                prop_assert!(
                    t.start_s >= f.start_s + f.duration_s - 1e-9,
                    "edge {}->{} violates causality", from, to
                );
            }
        }
        // e2e = last finish.
        let last_finish = out
            .log
            .nodes
            .iter()
            .map(|n| n.start_s + n.duration_s)
            .fold(0.0f64, f64::max);
        prop_assert!((out.e2e_latency_s - last_finish).abs() < 1e-9);
        // A node with no taken incoming edge must not execute.
        for n in &out.log.nodes {
            if NodeId(n.node) == wf.dag.start() {
                continue;
            }
            let any_taken = out.log.edges.iter().any(|e| {
                e.taken && wf.dag.edge(caribou_model::dag::EdgeId(e.edge)).to.0 == n.node
            });
            prop_assert!(any_taken, "node {} ran without a taken in-edge", n.node);
        }
    }

    /// The Monte Carlo estimator is finite, positive, and internally
    /// consistent on random workflows.
    #[test]
    fn monte_carlo_estimates_are_sane(wf in random_workflow(), seed in any::<u64>()) {
        let mut cloud = SimCloud::aws(seed);
        cloud.compute.cold_start_prob = 0.0;
        let carbon = flat_carbon(&cloud);
        let regions = cloud.regions.evaluation_regions();
        let home = cloud.region("us-east-1").unwrap();
        let plan = random_plan(&wf.dag, &regions, seed.wrapping_add(1));
        let case = Case::on_default_models(
            &cloud,
            home,
            &wf.dag,
            &wf.profile,
            TransmissionScenario::BEST,
            MonteCarloConfig {
                batch: 50,
                max_samples: 100,
                cv_threshold: 0.1,
            },
        );
        let est = case.estimator(&carbon);
        let s = est.estimate(&plan, 0.5, &mut Pcg32::seed(seed));
        prop_assert!(s.latency.mean.is_finite() && s.latency.mean > 0.0);
        prop_assert!(s.cost.mean > 0.0);
        prop_assert!(s.carbon.mean > 0.0);
        prop_assert!(s.latency.p95 >= s.latency.mean * 0.5);
        // Carbon decomposes into execution + transmission.
        prop_assert!(
            (s.exec_carbon_mean + s.trans_carbon_mean - s.carbon.mean).abs()
                / s.carbon.mean < 0.05
        );
        // The critical path is at least the start node's execution time.
        let start_exec = wf.profile.nodes[wf.dag.start().index()].exec_time.mean();
        prop_assert!(s.latency.mean >= start_exec * 0.9);
    }

    /// Log retention never exceeds its cap nor its window.
    #[test]
    fn log_retention_invariants(cap in 1usize..50, count in 1usize..200, seed in any::<u64>()) {
        let mut store = LogStore::with_cap(cap);
        let mut rng = Pcg32::seed(seed);
        for i in 0..count {
            let at = i as f64 * rng.uniform(10.0, 100_000.0);
            store.record(InvocationLog {
                at_s: at,
                benchmark_traffic: false,
                nodes: vec![NodeRecord {
                    node: 0,
                    region: RegionId(rng.next_bounded(5) as u16),
                    duration_s: 1.0,
                    cpu_total_time_s: 0.5,
                    memory_mb: 1024,
                    start_s: 0.0,
                }],
                edges: vec![],
            });
            prop_assert!(store.len() <= cap.max(1));
        }
        let first = store.logs().next().map(|l| l.at_s);
        let last = store.logs().last().map(|l| l.at_s);
        if let (Some(first), Some(last)) = (first, last) {
            prop_assert!(last - first <= 30.0 * 86_400.0 + 1e-6);
        }
    }

    /// Deployment-plan diff/set round trips.
    #[test]
    fn plan_diff_set_round_trip(n in 1usize..12, seed in any::<u64>()) {
        let mut rng = Pcg32::seed(seed);
        let a = DeploymentPlan::new(
            (0..n).map(|_| RegionId(rng.next_bounded(6) as u16)).collect(),
        );
        let b = DeploymentPlan::new(
            (0..n).map(|_| RegionId(rng.next_bounded(6) as u16)).collect(),
        );
        let diff = a.diff(&b);
        // Applying b's assignments at the diff indices turns a into b.
        let mut c = a.clone();
        for node in &diff {
            c.set(*node, b.region_of(*node));
        }
        prop_assert_eq!(c, b.clone());
        // Diff is symmetric in size.
        prop_assert_eq!(diff.len(), b.diff(&a).len());
    }

    /// The synthetic carbon source is strictly positive and deterministic
    /// over arbitrary query times, including negative (pre-epoch) hours.
    #[test]
    fn synthetic_carbon_positive_everywhere(hour in -5000.0f64..5000.0, seed in any::<u64>()) {
        use caribou_carbon::synth::SyntheticCarbonSource;
        let s = SyntheticCarbonSource::aws_calibrated(seed);
        for zone in ["US-MIDA-PJM", "US-CAL-CISO", "US-NW-PACW", "CA-QC"] {
            let v = s.zone_intensity(zone, hour).unwrap();
            prop_assert!(v > 0.0 && v.is_finite());
            prop_assert_eq!(v, s.zone_intensity(zone, hour).unwrap());
        }
    }

    /// Holt-Winters forecasts have the requested horizon and stay finite
    /// and non-negative on arbitrary positive series.
    #[test]
    fn forecast_shape_invariants(seed in any::<u64>(), horizon in 1usize..200) {
        use caribou_carbon::forecast::HoltWinters;
        let mut rng = Pcg32::seed(seed);
        let data: Vec<f64> = (0..96)
            .map(|h| {
                200.0
                    + 50.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).cos()
                    + rng.normal(0.0, 10.0)
            })
            .collect();
        let hw = HoltWinters::fit(&data, 24);
        let f = hw.forecast(horizon);
        prop_assert_eq!(f.len(), horizon);
        prop_assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
