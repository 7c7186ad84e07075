//! Fig. 12 — Orchestration overhead: AWS Step Functions vs SNS vs Caribou
//! (§9.6).
//!
//! Executes every benchmark × input size 200 times in the home region
//! under each orchestrator and reports the mean workflow execution time.
//! Paper reference points (geometric means): Step Functions is 12.8%
//! (small) / 2.17% (large) faster than SNS; Caribou adds <1% over SNS and
//! 5.72% (small) / 2.71% (large) over Step Functions; overhead shrinks as
//! execution duration grows and grows with DAG complexity.

use caribou_bench::harness::{geomean, write_json};
use caribou_core::scenario::{workflow_app, World};
use caribou_exec::engine::ExecutionEngine;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};

const RUNS: usize = 600;

fn main() {
    println!("Fig. 12 — workflow execution time by orchestrator (seconds)");
    println!(
        "{:<24}{:<7}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "benchmark", "input", "stepfn", "sns", "caribou", "cb vs sns", "cb vs sf"
    );
    let mut rows = Vec::new();
    let mut ratios: Vec<(InputSize, f64, f64, f64)> = Vec::new();
    for input in InputSize::ALL {
        for bench in all_benchmarks(input) {
            let mut means = Vec::new();
            for orch in [
                Orchestrator::StepFunctions,
                Orchestrator::Sns,
                Orchestrator::Caribou,
            ] {
                let mut env = World::evaluation(12);
                env.cloud.compute.cold_start_prob = 0.0;
                let app = workflow_app(&bench, env.home);
                let plan = DeploymentPlan::uniform(bench.dag.node_count(), env.home);
                let engine = ExecutionEngine {
                    carbon_source: &env.carbon,
                    carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                    orchestrator: orch,
                };
                engine.provision(&mut env.cloud, &app, &plan);
                let mut rng = Pcg32::seed_stream(12, orch as u64 + 1);
                let mut total = 0.0;
                for i in 0..RUNS {
                    let out = engine.invoke(&mut env.cloud, &app, &plan, i as u64, 100.0, &mut rng);
                    total += out.e2e_latency_s;
                }
                means.push(total / RUNS as f64);
            }
            let (sf, sns, cb) = (means[0], means[1], means[2]);
            println!(
                "{:<24}{:<7}{:>10.3}{:>10.3}{:>10.3}{:>11.2}%{:>11.2}%",
                bench.name,
                input.label(),
                sf,
                sns,
                cb,
                (cb / sns - 1.0) * 100.0,
                (cb / sf - 1.0) * 100.0
            );
            rows.push(serde_json::json!({
                "benchmark": bench.name,
                "input": input.label(),
                "step_functions_s": sf,
                "sns_s": sns,
                "caribou_s": cb,
            }));
            ratios.push((input, sns / sf, cb / sns, cb / sf));
        }
    }

    for input in InputSize::ALL {
        let of = |f: fn(&(InputSize, f64, f64, f64)) -> f64| -> f64 {
            geomean(
                &ratios
                    .iter()
                    .filter(|r| r.0 == input)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        let sns_vs_sf = of(|r| r.1);
        let cb_vs_sns = of(|r| r.2);
        let cb_vs_sf = of(|r| r.3);
        let paper = match input {
            InputSize::Small => "(paper: SNS +12.8% over SF; Caribou <1% over SNS, +5.72% over SF)",
            InputSize::Large => "(paper: SNS +2.17% over SF; Caribou <1% over SNS, +2.71% over SF)",
        };
        println!(
            "\nGeomean, {} inputs: SNS vs SF +{:.2}%; Caribou vs SNS +{:.2}%; Caribou vs SF +{:.2}%",
            input.label(),
            (sns_vs_sf - 1.0) * 100.0,
            (cb_vs_sns - 1.0) * 100.0,
            (cb_vs_sf - 1.0) * 100.0
        );
        println!("{paper}");
        rows.push(serde_json::json!({
            "summary": input.label(),
            "sns_vs_stepfn_pct": (sns_vs_sf - 1.0) * 100.0,
            "caribou_vs_sns_pct": (cb_vs_sns - 1.0) * 100.0,
            "caribou_vs_stepfn_pct": (cb_vs_sf - 1.0) * 100.0,
        }));
    }
    write_json("fig12", &serde_json::Value::Array(rows));
}
