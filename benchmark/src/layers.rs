//! The per-layer side of a traced run: the span tracer plus the named
//! per-layer values, and the catalog of every metric the benchmark prints.
//!
//! Layers are the repository's crates. A traced run prints *every*
//! per-layer metric; one a workload does not exercise reads 0 (the
//! router routes nothing on `dataplane_home`, and says so).

use std::collections::BTreeMap;

use crate::span::Tracer;

/// A metric of `BENCHMARK.json`. `kind` says whether it is *host* time
/// (wall time of the simulator, noisy) or *sim* (what the modelled cloud
/// did: bit-exact for a fixed seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
        }
    }
}

const fn metric(name: &'static str, unit: &'static str, kind: Kind, better: Better) -> Metric {
    Metric {
        name,
        unit,
        kind,
        better,
        bound: 0.0,
    }
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Kind::Host, Better::Lower)
}

const fn sim(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Kind::Sim, Better::Lower)
}

const fn higher(m: Metric) -> Metric {
    Metric {
        better: Better::Higher,
        ..m
    }
}

const fn bounded(m: Metric, bound: f64) -> Metric {
    Metric { bound, ..m }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// `sim_s` is simulated seconds, as opposed to host seconds `s`.
pub const END_TO_END: [Metric; 5] = [
    bounded(host("setup_s", "s"), 0.25),
    bounded(higher(host("ops_per_s", "1/s")), 0.25),
    bounded(host("peak_rss_mb", "MB"), 0.25),
    bounded(sim("sim_latency_mean_s", "sim_s"), 0.20),
    bounded(sim("sim_latency_tail_s", "sim_s"), 0.25),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: [Metric; 60] = [
    // workloads
    host("workloads.arrivals.ns_per_draw", "ns"),
    // model
    host("model.rng.normal_ns", "ns"),
    host("model.dist.sample_ns", "ns"),
    // carbon
    host("carbon.source.intensity_ns", "ns"),
    host("carbon.forecast.fit_ms", "ms"),
    // simcloud
    host("simcloud.pubsub.publish_ns", "ns"),
    host("simcloud.kv.atomic_update_ns", "ns"),
    host("simcloud.warm.check_and_touch_ns", "ns"),
    host("simcloud.compute.execute_ns", "ns"),
    host("simcloud.meter.record_ns", "ns"),
    sim("simcloud.msgs_per_inv", "count"),
    sim("simcloud.kv_ops_per_inv", "count"),
    sim("simcloud.cold_start_share", "share"),
    // exec
    host("exec.engine.invoke_ns", "ns"),
    host("exec.engine.invoke_xregion_ns", "ns"),
    host("exec.router.route_ns", "ns"),
    host("exec.router.record_outcome_ns", "ns"),
    host("exec.router.route_failover_ns", "ns"),
    sim("exec.engine.fallback_share", "share"),
    sim("exec.router.reroute_share", "share"),
    sim("exec.engine.allocs_per_inv", "count"),
    // metrics
    host("metrics.logstore.record_ns_below_cap", "ns"),
    host("metrics.logstore.record_ns_at_cap", "ns"),
    host("metrics.manager.refresh_ms", "ms"),
    host("metrics.montecarlo.ns_per_sample", "ns"),
    sim("metrics.montecarlo.samples_per_estimate", "count"),
    higher(host("metrics.montecarlo.estimates_per_s", "1/s")),
    // solver
    host("solver.hbss.cell_ms_p50", "ms"),
    host("solver.hbss.cell_ms_p90", "ms"),
    sim("solver.hbss.evals_per_cell", "count"),
    higher(sim("solver.cache.hit_share", "share")),
    host("solver.cache.probe_hit_ns", "ns"),
    host("solver.cache.insert_ns", "ns"),
    host("solver.cache.invalidate_ms", "ms"),
    higher(host("solver.pool.speedup_nproc", "ratio")),
    higher(host("solver.pool.utilization", "share")),
    // core
    host("core.manager.check_ns", "ns"),
    host("core.migrator.rollout_ms", "ms"),
    host("core.tick.share", "share"),
    host("core.fleet.dirty_cells_ms", "ms"),
    higher(sim("core.fleet.reuse_share", "share")),
    higher(host("core.fleet.full_cells_per_s", "1/s")),
    higher(host("core.fleet.replan_cells_per_s", "1/s")),
    higher(host("core.loadgen.speedup_nproc", "ratio")),
    higher(host("core.loadgen.pool_utilization", "share")),
    // telemetry
    host("telemetry.sketch.observe_ns", "ns"),
    host("telemetry.sketch.merge_ns", "ns"),
    host("telemetry.memory_sink.slowdown", "ratio"),
    // what the modelled cloud did, per workload (no uniform definition
    // across the five workloads, so not end-to-end metrics)
    sim("sim.carbon_g_per_op", "g"),
    sim("sim.cost_usd_per_kop", "USD"),
    higher(sim("sim.carbon_saving_pct", "%")),
    higher(sim("sim.ok_share", "share")),
    sim("sim.plan_generations", "count"),
    // cross-layer
    host("budget.dataplane.coverage", "ratio"),
    host("budget.adaptive.coverage", "ratio"),
    host("budget.solve.coverage", "ratio"),
    host("trace.overhead_ratio", "ratio"),
    host("trace.ops", "count"),
    host("host.lap_spread", "ratio"),
    host("host.nproc", "count"),
];

/// State of one traced run.
pub struct Layers {
    pub tracer: Tracer,
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            tracer: Tracer::new(),
            values: BTreeMap::new(),
        }
    }

    /// Records a per-layer value. The name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric of the catalog"
        );
        self.values.insert(name, value);
    }

    /// The recorded value, or 0 for a layer this run did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Closes a traced lap of `ops` operations that took `traced_s`
    /// against an untraced one that took `reference_s`: how much of the
    /// untraced lap the `layer_spans` add up to (`budget`), what the
    /// spans cost, and the operation count.
    pub fn close_trace(
        &mut self,
        budget: &'static str,
        layer_spans: &[&str],
        reference_s: f64,
        traced_s: f64,
        ops: u64,
    ) {
        let layer_ns: u64 = layer_spans
            .iter()
            .map(|name| self.tracer.total(name).total_ns)
            .sum();
        self.set(budget, layer_ns as f64 / (reference_s * 1e9));
        self.set("trace.overhead_ratio", traced_s / reference_s);
        self.set("trace.ops", ops as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
    }

    /// `(name, unit, better, bound)` of each entry of a metric list.
    fn declared(list: &Value) -> Vec<(String, String, String, Option<f64>)> {
        list.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                    m["better"].as_str().expect("better").to_string(),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn printed(catalog: &[Metric], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        catalog
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    bounded.then_some(m.bound),
                )
            })
            .collect()
    }

    // A run prints exactly its catalog (`run::end_to_end_run` zips
    // END_TO_END, `run::traced_run` maps PER_LAYER), so catalog ==
    // BENCHMARK.json means every declared name is printed and vice versa.
    #[test]
    fn every_declared_metric_is_printed_and_vice_versa() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc["end_to_end"]), printed(&END_TO_END, true));
        assert_eq!(declared(&doc["per_layer"]), printed(&PER_LAYER, false));
    }

    #[test]
    fn workloads_command_and_run_length_match() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::run::RUN_SECONDS));
        assert_eq!(doc["command"][1], "benchmark/run.sh");
        assert_eq!(doc["paths"][0], "benchmark");
        let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let workload_names = workloads::ALL.iter().map(|w| w.name);
        for name in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(workload_names)
        {
            assert!(seen.insert(name), "`{name}` is used twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn a_layer_not_exercised_reads_zero() {
        let mut layers = Layers::new();
        layers.set("exec.router.route_ns", 12.5);
        assert_eq!(layers.get("exec.router.route_ns"), 12.5);
        assert_eq!(layers.get("solver.hbss.cell_ms_p50"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn a_name_outside_the_catalog_is_refused() {
        Layers::new().set("made.up", 1.0);
    }
}
