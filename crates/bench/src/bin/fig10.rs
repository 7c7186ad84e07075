//! Fig. 10 — Carbon efficiency versus latency tolerance (§9.4).
//!
//! For DNA Visualization and Image Processing, sweeps the runtime
//! tolerance from 0% to 10% and reports, per transmission scenario, the
//! relative carbon and the relative tail time (p95 of the chosen
//! deployment over the QoS bound = home p95 × (1 + tolerance); > 1.0
//! signifies a violation). Paper shape: more tolerance → more offloading
//! freedom → lower carbon, with QoS respected; under the worst case the
//! solver mostly stays home and incurs no runtime overhead.

use caribou_bench::harness::{coarse_over_week, eval_over_week, write_json, FineSolver, STEP_H};
use caribou_core::scenario::World;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::constraints::Tolerances;
use caribou_workloads::benchmarks::{dna_visualization, image_processing, InputSize};

fn main() {
    let env = World::evaluation(10);
    let tolerances = [0.0, 0.025, 0.05, 0.075, 0.10];
    let scenarios = [
        ("best", TransmissionScenario::BEST),
        ("worst", TransmissionScenario::WORST),
    ];

    println!("Fig. 10 — relative carbon / relative tail time vs runtime tolerance");
    println!(
        "{:<24}{:<7}{:<7}{:>7}{:>12}{:>12}{:>10}",
        "benchmark", "input", "txn", "tol%", "rel carbon", "rel time", "QoS"
    );
    let mut rows = Vec::new();
    for bench in [
        dna_visualization(InputSize::Small),
        image_processing(InputSize::Small),
    ] {
        for (scen_name, scenario) in scenarios {
            let base = coarse_over_week(&env, &bench, scenario, STEP_H, env.home, 1);
            for tol in tolerances {
                let t = Tolerances {
                    latency: tol,
                    cost: 1.0,
                    carbon: f64::INFINITY,
                };
                let mut solver = FineSolver::new(&env, &bench, &env.regions, scenario, t, 10);
                let fine = eval_over_week(&env, &bench, scenario, STEP_H, |h| solver.plan_at(h), 2);
                let rel_carbon = fine.carbon_g / base.carbon_g;
                // Relative time: chosen deployment's p95 over the QoS
                // bound (home p95 augmented by the tolerance).
                let qos_bound = base.latency_p95_s * (1.0 + tol);
                let rel_time = fine.latency_p95_s / qos_bound;
                println!(
                    "{:<24}{:<7}{:<7}{:>7.1}{:>12.3}{:>12.3}{:>10}",
                    bench.name,
                    bench.input.label(),
                    scen_name,
                    tol * 100.0,
                    rel_carbon,
                    rel_time,
                    // A small slack absorbs Monte Carlo noise between the
                    // solve-time and evaluation-time estimates.
                    if rel_time <= 1.02 { "met" } else { "VIOLATED" }
                );
                rows.push(serde_json::json!({
                    "benchmark": bench.name,
                    "scenario": scen_name,
                    "tolerance": tol,
                    "relative_carbon": rel_carbon,
                    "relative_time": rel_time,
                }));
            }
        }
    }
    write_json("fig10", &serde_json::Value::Array(rows));
}
