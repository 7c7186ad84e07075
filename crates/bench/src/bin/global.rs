//! Extension experiment: global region sets (§2.1's closing observation).
//!
//! "These observations are even more pronounced globally, due to the
//! increased diversity of energy sources, full daily lag for solar
//! generation, and opposite seasons" — this experiment extends the §9
//! setup beyond North America with the catalog's European, Australian,
//! and South American regions and compares the achievable savings (and the
//! latency price of chasing them) against the NA-only set.

use caribou_bench::harness::{
    coarse_over_week, eval_over_week, geomean, write_json, FineSolver, STEP_H,
};
use caribou_core::scenario::World;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::constraints::Tolerances;
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};

fn main() {
    let env = World::evaluation(44);
    let na = &env.regions;
    let global: Vec<_> = [
        "us-east-1",
        "us-west-1",
        "us-west-2",
        "ca-central-1",
        "eu-west-1",
        "eu-central-1",
        "ap-southeast-2",
        "sa-east-1",
    ]
    .iter()
    .map(|n| env.region(n))
    .collect();
    // Intercontinental shifting needs slack on the latency tolerance; this
    // is exactly the QoS trade-off of §9.4 at a larger scale.
    let tolerances = Tolerances {
        latency: 0.30,
        cost: 1.0,
        carbon: f64::INFINITY,
    };

    println!("Global extension — Fine(NA) vs Fine(global), best-case scenario");
    println!(
        "{:<24}{:<7}{:>10}{:>10}{:>12}{:>12}",
        "benchmark", "input", "NA norm", "glob norm", "NA p95 s", "glob p95 s"
    );
    let mut rows = Vec::new();
    let mut na_norms = Vec::new();
    let mut global_norms = Vec::new();
    for input in InputSize::ALL {
        for bench in all_benchmarks(input) {
            let scenario = TransmissionScenario::BEST;
            let base = coarse_over_week(&env, &bench, scenario, STEP_H, env.home, 1);
            let mut na_solver = FineSolver::new(&env, &bench, na, scenario, tolerances, 2);
            let na_res =
                eval_over_week(&env, &bench, scenario, STEP_H, |h| na_solver.plan_at(h), 3);
            let mut gl_solver = FineSolver::new(&env, &bench, &global, scenario, tolerances, 4);
            let gl_res =
                eval_over_week(&env, &bench, scenario, STEP_H, |h| gl_solver.plan_at(h), 5);
            let na_norm = na_res.carbon_g / base.carbon_g;
            let gl_norm = gl_res.carbon_g / base.carbon_g;
            println!(
                "{:<24}{:<7}{:>10.3}{:>10.3}{:>12.2}{:>12.2}",
                bench.name,
                input.label(),
                na_norm,
                gl_norm,
                na_res.latency_p95_s,
                gl_res.latency_p95_s
            );
            rows.push(serde_json::json!({
                "benchmark": bench.name,
                "input": input.label(),
                "na_norm": na_norm,
                "global_norm": gl_norm,
                "na_p95_s": na_res.latency_p95_s,
                "global_p95_s": gl_res.latency_p95_s,
            }));
            na_norms.push(na_norm);
            global_norms.push(gl_norm);
        }
    }
    let na_gm = geomean(&na_norms);
    let gl_gm = geomean(&global_norms);
    println!(
        "\nGeomean reduction: NA set {:.1}%, global set {:.1}%",
        (1.0 - na_gm) * 100.0,
        (1.0 - gl_gm) * 100.0
    );
    println!("(the global set should never do worse: it is a superset of the NA options)");
    write_json("global", &serde_json::Value::Array(rows));
}
