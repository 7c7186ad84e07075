//! The Metrics Manager (§7.1, §7.2).
//!
//! Retrieves/models per-node and per-edge metrics and combines them into
//! workflow-level metrics for the solver. Learned data takes priority:
//! execution times come from logged executions in the target region,
//! falling back to the home region's observed distribution, falling back
//! to the profile model; transmission latencies come from logged
//! region-pair observations, falling back to the CloudPing-style latency
//! model. Conditional-edge probabilities are re-estimated from logs.

use std::collections::HashMap;

use caribou_model::dag::WorkflowDag;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;

use crate::logs::{InvocationLog, LogStore};
use crate::montecarlo::{DefaultModels, StageModels};

/// Minimum observations before a learned distribution replaces the model.
const MIN_SAMPLES: usize = 5;

/// The Metrics Manager for one workflow.
#[derive(Debug, Default)]
pub struct MetricsManager {
    store: LogStore,
}

impl MetricsManager {
    /// Creates a manager with the default retention policy.
    pub fn new() -> Self {
        MetricsManager {
            store: LogStore::new(),
        }
    }

    /// Records one invocation log.
    pub fn record(&mut self, log: InvocationLog) {
        self.store.record(log);
    }

    /// Read access to the retained logs.
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// Invocation count over the window `[from_s, to_s)` — the signal the
    /// token-bucket controller budgets from (§5.2).
    pub fn invocations_between(&self, from_s: f64, to_s: f64) -> usize {
        self.store.count_between(from_s, to_s)
    }

    /// Mean observed per-invocation total execution seconds (all stages).
    pub fn mean_total_exec_s(&self) -> Option<f64> {
        if self.store.is_empty() {
            return None;
        }
        let total: f64 = self
            .store
            .logs()
            .map(|l| l.nodes.iter().map(|n| n.duration_s).sum::<f64>())
            .sum();
        Some(total / self.store.len() as f64)
    }

    /// Learned edge probabilities: fraction of taken among observed, per
    /// edge; `None` where too few observations exist.
    pub fn edge_probabilities(&self, dag: &WorkflowDag) -> Vec<Option<f64>> {
        let mut taken = vec![0usize; dag.edge_count()];
        let mut seen = vec![0usize; dag.edge_count()];
        for log in self.store.logs() {
            for e in &log.edges {
                let i = e.edge as usize;
                if i < seen.len() {
                    seen[i] += 1;
                    if e.taken {
                        taken[i] += 1;
                    }
                }
            }
        }
        (0..dag.edge_count())
            .map(|i| {
                if seen[i] >= MIN_SAMPLES {
                    Some(taken[i] as f64 / seen[i] as f64)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Returns a profile with edge probabilities refreshed from logs —
    /// how the framework "captures distribution shifts by learning from
    /// the most recent invocations" (§9.1).
    pub fn refreshed_profile(&self, dag: &WorkflowDag, base: &WorkflowProfile) -> WorkflowProfile {
        let mut profile = base.clone();
        for (i, p) in self.edge_probabilities(dag).into_iter().enumerate() {
            if let Some(p) = p {
                if dag.edge(caribou_model::dag::EdgeId(i as u32)).conditional {
                    profile.edges[i].probability = p;
                }
            }
        }
        profile
    }

    /// Builds learned stage models over the model-based fallbacks.
    pub fn learned_models<'a>(
        &self,
        profile: &'a WorkflowProfile,
        runtime: &'a LambdaRuntime,
        latency: &'a LatencyModel,
        orchestrator: Orchestrator,
        home: RegionId,
    ) -> LearnedModels<'a> {
        let mut exec: HashMap<(usize, RegionId), Vec<f64>> = HashMap::new();
        let mut transfer: HashMap<(RegionId, RegionId), Vec<f64>> = HashMap::new();
        for log in self.store.logs() {
            for n in &log.nodes {
                exec.entry((n.node as usize, n.region))
                    .or_default()
                    .push(n.duration_s);
            }
            for e in &log.edges {
                if e.taken && e.latency_s > 0.0 {
                    transfer
                        .entry((e.from_region, e.to_region))
                        .or_default()
                        .push(e.latency_s);
                }
            }
        }
        exec.retain(|_, v| v.len() >= MIN_SAMPLES);
        transfer.retain(|_, v| v.len() >= MIN_SAMPLES);
        LearnedModels {
            exec,
            transfer,
            profile,
            runtime,
            latency,
            orchestrator,
            home,
        }
    }
}

/// Stage models combining learned empirical data with model fallbacks
/// (§7.1 Latency: home-region fallback for execution, CloudPing fallback
/// for transmission).
#[derive(Debug)]
pub struct LearnedModels<'a> {
    exec: HashMap<(usize, RegionId), Vec<f64>>,
    transfer: HashMap<(RegionId, RegionId), Vec<f64>>,
    profile: &'a WorkflowProfile,
    runtime: &'a LambdaRuntime,
    latency: &'a LatencyModel,
    orchestrator: Orchestrator,
    home: RegionId,
}

impl LearnedModels<'_> {
    /// Whether a learned execution distribution exists for `(node, region)`.
    pub fn has_exec_data(&self, node: usize, region: RegionId) -> bool {
        self.exec.contains_key(&(node, region))
    }

    /// Whether a learned transmission distribution exists for the pair.
    pub fn has_transfer_data(&self, from: RegionId, to: RegionId) -> bool {
        self.transfer.contains_key(&(from, to))
    }
}

impl StageModels for LearnedModels<'_> {
    fn base(&self) -> DefaultModels<'_> {
        DefaultModels {
            profile: self.profile,
            runtime: self.runtime,
            latency: self.latency,
            orchestrator: self.orchestrator,
        }
    }

    /// The priority rule of §7.1.
    fn learned_exec(&self, node: usize, region: RegionId) -> Option<(&[f64], f64)> {
        // Learned distribution for the exact region first.
        if let Some(samples) = self.exec.get(&(node, region)) {
            return Some((samples, 1.0));
        }
        // Fall back to the home region's learned distribution, scaled by
        // the relative performance factor (§7.1: "MM defaults to using the
        // home region's execution time distribution"). Finally the
        // profile model.
        let samples = self.exec.get(&(node, self.home))?;
        let scale = self.runtime.perf_factor(region) / self.runtime.perf_factor(self.home);
        Some((samples, scale))
    }

    fn learned_transfer(&self, from: RegionId, to: RegionId) -> Option<&[f64]> {
        self.transfer.get(&(from, to)).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::{EdgeRecord, NodeRecord};
    use caribou_model::builder::Workflow;
    use caribou_model::dist::DistSpec;
    use caribou_simcloud::cloud::SimCloud;

    fn dag_and_profile() -> (WorkflowDag, WorkflowProfile) {
        let mut wf = Workflow::new("wf", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 1.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 1.0 })
            .register();
        wf.invoke(a, b, Some(0.5));
        let (dag, profile, _) = wf.extract().unwrap();
        (dag, profile)
    }

    fn make_log(at: f64, node_dur: f64, region: RegionId, taken: bool) -> InvocationLog {
        InvocationLog {
            at_s: at,
            benchmark_traffic: false,
            nodes: vec![NodeRecord {
                node: 0,
                region,
                duration_s: node_dur,
                cpu_total_time_s: node_dur * 0.7,
                memory_mb: 1769,
                start_s: 0.0,
            }],
            edges: vec![EdgeRecord {
                edge: 0,
                taken,
                from_region: region,
                to_region: region,
                bytes: 100.0,
                latency_s: if taken { 0.05 } else { 0.0 },
            }],
        }
    }

    #[test]
    fn edge_probability_learned_from_logs() {
        let (dag, _) = dag_and_profile();
        let mut mm = MetricsManager::new();
        for i in 0..20 {
            mm.record(make_log(i as f64, 1.0, RegionId(0), i % 4 == 0));
        }
        let probs = mm.edge_probabilities(&dag);
        assert!((probs[0].unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn too_few_observations_gives_none() {
        let (dag, _) = dag_and_profile();
        let mut mm = MetricsManager::new();
        mm.record(make_log(0.0, 1.0, RegionId(0), true));
        assert_eq!(mm.edge_probabilities(&dag)[0], None);
    }

    #[test]
    fn refreshed_profile_updates_conditional_probability() {
        let (dag, profile) = dag_and_profile();
        let mut mm = MetricsManager::new();
        for i in 0..20 {
            mm.record(make_log(i as f64, 1.0, RegionId(0), i % 2 == 0));
        }
        let refreshed = mm.refreshed_profile(&dag, &profile);
        assert!((refreshed.edges[0].probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn learned_exec_distribution_overrides_model() {
        let cloud = SimCloud::aws(0);
        let (cat, runtime, latency) = (cloud.regions, cloud.compute, cloud.latency);
        let (_, profile) = dag_and_profile();
        let home = cat.id_of("us-east-1").unwrap();
        let mut mm = MetricsManager::new();
        // Log node 0 running 9 s in the home region, far from the 1 s
        // profile model.
        for i in 0..10 {
            mm.record(make_log(i as f64, 9.0, home, true));
        }
        let lm = mm.learned_models(&profile, &runtime, &latency, Orchestrator::Caribou, home);
        assert!(lm.has_exec_data(0, home));
        let (samples, scale) = lm.learned_exec(0, home).expect("home history");
        assert_eq!(scale, 1.0);
        assert!(samples.iter().all(|s| (s - 9.0).abs() < 1e-9));
    }

    #[test]
    fn home_fallback_scales_by_perf_factor() {
        let cloud = SimCloud::aws(0);
        let (cat, mut runtime, latency) = (cloud.regions, cloud.compute, cloud.latency);
        let (_, profile) = dag_and_profile();
        let home = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        runtime.set_perf_factor(west, 2.0);
        runtime.set_perf_factor(home, 1.0);
        let mut mm = MetricsManager::new();
        for i in 0..10 {
            mm.record(make_log(i as f64, 4.0, home, true));
        }
        let lm = mm.learned_models(&profile, &runtime, &latency, Orchestrator::Caribou, home);
        assert!(!lm.has_exec_data(0, west));
        let (samples, scale) = lm.learned_exec(0, west).expect("home history, scaled");
        assert!(samples.iter().all(|s| (s * scale - 8.0).abs() < 1e-9));
    }

    #[test]
    fn transfer_fallback_uses_latency_model() {
        let cloud = SimCloud::aws(0);
        let (cat, runtime, latency) = (cloud.regions, cloud.compute, cloud.latency);
        let (_, profile) = dag_and_profile();
        let home = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        let mm = MetricsManager::new();
        let lm = mm.learned_models(&profile, &runtime, &latency, Orchestrator::Caribou, home);
        assert!(!lm.has_transfer_data(home, west));
        assert!(lm.learned_transfer(home, west).is_none());
        assert!(lm.base().latency.one_way(home, west) > 0.0);
    }

    #[test]
    fn learned_transfer_distribution_is_sampled() {
        let cloud = SimCloud::aws(0);
        let (cat, runtime, latency) = (cloud.regions, cloud.compute, cloud.latency);
        let (_, profile) = dag_and_profile();
        let home = cat.id_of("us-east-1").unwrap();
        let mut mm = MetricsManager::new();
        for i in 0..10 {
            let mut log = make_log(i as f64, 1.0, home, true);
            log.edges[0].latency_s = 0.125; // a fixed observed latency
            mm.record(log);
        }
        let lm = mm.learned_models(&profile, &runtime, &latency, Orchestrator::Caribou, home);
        assert!(lm.has_transfer_data(home, home));
        let samples = lm.learned_transfer(home, home).expect("pair history");
        assert!(samples.iter().all(|s| (s - 0.125).abs() < 1e-12));
    }

    #[test]
    fn mean_total_exec_reflects_logs() {
        let mut mm = MetricsManager::new();
        assert_eq!(mm.mean_total_exec_s(), None);
        mm.record(make_log(0.0, 2.0, RegionId(0), true));
        mm.record(make_log(1.0, 4.0, RegionId(0), true));
        assert!((mm.mean_total_exec_s().unwrap() - 3.0).abs() < 1e-12);
    }
}
