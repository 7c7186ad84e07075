//! Ablation: cold-start transients after a migration.
//!
//! With the stateful warm-container pool enabled, a freshly activated
//! offload region starts with no warm containers: the first invocations
//! after a migration pay cold starts until traffic warms the deployment —
//! an operational cost of geospatial shifting the paper's latency model
//! folds into its execution-time distributions. This ablation runs the
//! same migration moment with the probabilistic and the stateful models
//! and reports the latency around the switch.

use caribou_bench::harness::write_json;
use caribou_core::scenario::{workflow_app, World};
use caribou_exec::engine::ExecutionEngine;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::warm::WarmPool;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

const BEFORE: usize = 60;
const AFTER: usize = 60;

fn run(warm_pool: bool) -> (f64, f64, f64) {
    let mut env = World::evaluation(66);
    // Deterministic execution times isolate the cold-start transient from
    // workload noise.
    env.cloud.compute.exec_sigma = 0.0;
    if warm_pool {
        env.cloud.warm = WarmPool::enabled(600.0);
        env.cloud.compute.cold_start_prob = 0.0; // unused when pool drives
    } else {
        env.cloud.compute.cold_start_prob = 0.02;
    }
    let mut bench = text2speech_censoring(InputSize::Small);
    for n in &mut bench.profile.nodes {
        n.exec_time = caribou_model::dist::DistSpec::Constant {
            value: n.exec_time.mean(),
        };
    }
    let app = workflow_app(&bench, env.home);
    let home_plan = DeploymentPlan::uniform(bench.dag.node_count(), env.home);
    let ca = env.region("ca-central-1");
    let ca_plan = DeploymentPlan::uniform(bench.dag.node_count(), ca);
    let carbon = env.carbon.clone();
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut env.cloud, &app, &home_plan);
    engine.provision(&mut env.cloud, &app, &ca_plan);

    let mut rng = Pcg32::seed(66);
    let mut inv = 0u64;
    // Steady traffic at home (one invocation per 30 s keeps it warm)...
    let mut before = 0.0;
    for i in 0..BEFORE {
        inv += 1;
        let t = 1000.0 + i as f64 * 30.0;
        before += engine
            .invoke(&mut env.cloud, &app, &home_plan, inv, t, &mut rng)
            .e2e_latency_s;
    }
    // ...then the migration switches traffic to ca-central-1.
    let t_switch = 1000.0 + BEFORE as f64 * 30.0;
    let mut first = 0.0;
    let mut after_rest = 0.0;
    for i in 0..AFTER {
        inv += 1;
        let t = t_switch + i as f64 * 30.0;
        let lat = engine
            .invoke(&mut env.cloud, &app, &ca_plan, inv, t, &mut rng)
            .e2e_latency_s;
        if i == 0 {
            first = lat;
        } else {
            after_rest += lat;
        }
    }
    (
        before / BEFORE as f64,
        first,
        after_rest / (AFTER - 1) as f64,
    )
}

fn main() {
    println!("Warm-pool ablation — mean latency (s) around a migration to ca-central-1");
    println!(
        "{:<16}{:>14}{:>18}{:>16}",
        "cold model", "before switch", "1st after", "steady after"
    );
    let mut rows = Vec::new();
    for (label, warm) in [("probabilistic", false), ("warm pool", true)] {
        let (before, first, steady) = run(warm);
        println!("{label:<16}{before:>14.3}{first:>18.3}{steady:>16.3}");
        rows.push(serde_json::json!({
            "model": label,
            "before_s": before,
            "first_after_s": first,
            "steady_after_s": steady,
            "transient_pct": (first / steady - 1.0) * 100.0,
        }));
    }
    println!("\n(the stateful pool shows a cold-start spike right after the switch that the");
    println!(" probabilistic model spreads uniformly — the migration transient of offloading)");
    write_json("ablation_warmpool", &serde_json::Value::Array(rows));
}
