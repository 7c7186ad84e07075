//! Fig. 9 — Sensitivity of carbon savings to the transmission energy
//! factor.
//!
//! Sweeps `EF_trans` over 1e-5..1e-1 kWh/GB in two scenarios — equal
//! intra/inter factors (left sub-figure) and free intra-region transfer
//! (right sub-figure) — and reports the geometric-mean normalized carbon
//! across all benchmarks/inputs. Paper reference points: at the best-case
//! factor (0.001, equal) the geomean saving is ~66.6%; as the factor
//! approaches zero the saving approaches 91.2%, limited by the residual
//! execution-time differences between regions.

use caribou_bench::harness::{
    coarse_over_week, eval_over_week, geomean, write_json, FineSolver, STEP_H,
};
use caribou_core::scenario::{default_tolerances, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};

fn main() {
    let env = World::evaluation(9);
    let factors = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

    println!("Fig. 9 — geomean normalized carbon vs transmission energy factor");
    println!(
        "{:<22}{:<10}{:>12}{:>12}",
        "scenario", "factor", "geo(small)", "geo(large)"
    );
    let mut rows = Vec::new();
    for (scen_name, make) in [
        (
            "equal intra/inter",
            TransmissionScenario::equal as fn(f64) -> TransmissionScenario,
        ),
        ("free intra", TransmissionScenario::free_intra),
    ] {
        for factor in factors {
            let scenario = make(factor);
            let mut norms: Vec<(InputSize, f64)> = Vec::new();
            for input in InputSize::ALL {
                for bench in all_benchmarks(input) {
                    let base = coarse_over_week(&env, &bench, scenario, STEP_H, env.home, 1);
                    let tolerances = default_tolerances();
                    let mut solver =
                        FineSolver::new(&env, &bench, &env.regions, scenario, tolerances, 9);
                    let fine =
                        eval_over_week(&env, &bench, scenario, STEP_H, |h| solver.plan_at(h), 2);
                    norms.push((input, fine.carbon_g / base.carbon_g));
                }
            }
            let gm = |sz: InputSize| -> f64 {
                geomean(
                    &norms
                        .iter()
                        .filter(|(i, _)| *i == sz)
                        .map(|(_, v)| *v)
                        .collect::<Vec<_>>(),
                )
            };
            let gs = gm(InputSize::Small);
            let gl = gm(InputSize::Large);
            println!("{scen_name:<22}{factor:<10.0e}{gs:>12.3}{gl:>12.3}");
            rows.push(serde_json::json!({
                "scenario": scen_name,
                "factor_kwh_per_gb": factor,
                "geomean_small": gs,
                "geomean_large": gl,
            }));
        }
    }
    println!("\n(paper: saving approaches 91.2% as the factor approaches zero)");
    write_json("fig9", &serde_json::Value::Array(rows));
}
