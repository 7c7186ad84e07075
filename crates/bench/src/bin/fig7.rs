//! Fig. 7 — Carbon normalized to `us-east-1` for coarse single-region
//! deployments and Caribou fine-grained deployments over different region
//! sets, for all five benchmarks × {small, large} inputs × {best, worst}
//! transmission-carbon scenarios.
//!
//! Paper reference points: fine-grained shifting over all available
//! regions reduces carbon by a geometric-mean 66.6% (best case) and 22.9%
//! (worst case); coarse deployment to a nearby region can *worsen*
//! emissions for transmission-heavy workloads (I1); Caribou avoids
//! offloading those (I2).
//!
//! Configurations are independent, so they run on all available cores.

use caribou_bench::harness::{geomean, write_json, StrategyResult, Week, STEP_H};
use caribou_core::scenario::{default_tolerances, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};

/// The cloud's seed and every week's.
const SEED: u64 = 7;

struct ConfigResult {
    benchmark: &'static str,
    input: InputSize,
    scenario: &'static str,
    rows: Vec<(String, StrategyResult, f64)>,
    fine_all_norm: f64,
}

fn run_config(
    env: &World,
    bench: &Benchmark,
    scen_name: &'static str,
    scenario: TransmissionScenario,
) -> ConfigResult {
    let use1 = env.home;
    let usw1 = env.region("us-west-1");
    let usw2 = env.region("us-west-2");
    let ca = env.region("ca-central-1");
    let coarse = [
        ("Coarse(us-east-1)", use1),
        ("Coarse(us-west-1)", usw1),
        ("Coarse(us-west-2)", usw2),
        ("Coarse(ca-central-1)", ca),
    ];
    let fine_sets: Vec<(&str, Vec<_>)> = vec![
        ("Fine(e1,w1)", vec![use1, usw1]),
        ("Fine(e1,w2)", vec![use1, usw2]),
        ("Fine(e1,w1,w2)", vec![use1, usw1, usw2]),
        ("Fine(e1,ca)", vec![use1, ca]),
        ("Fine(all)", vec![use1, usw1, usw2, ca]),
    ];

    let week = Week::new(env, bench, scenario, STEP_H, SEED);
    let base = week.coarse(use1);
    let within = week.tolerating(default_tolerances());
    let fine = fine_sets
        .iter()
        .map(|(name, set)| (*name, week.fine(set, &within)));
    let rows: Vec<_> = coarse
        .map(|(name, region)| (name, week.coarse(region)))
        .into_iter()
        .chain(fine)
        .map(|(name, r)| (name.to_string(), r, r.carbon_g / base.carbon_g))
        .collect();
    ConfigResult {
        benchmark: bench.name,
        input: bench.input,
        scenario: scen_name,
        fine_all_norm: rows.last().expect("Fine(all) comes last").2,
        rows,
    }
}

fn main() {
    let env = World::evaluation(SEED);
    let scenarios = [
        ("best", TransmissionScenario::BEST),
        ("worst", TransmissionScenario::WORST),
    ];
    let configs: Vec<(Benchmark, &'static str, TransmissionScenario)> = InputSize::ALL
        .into_iter()
        .flat_map(all_benchmarks)
        .flat_map(|b| scenarios.into_iter().map(move |(n, s)| (b.clone(), n, s)))
        .collect();

    // Fan the independent configurations out over the available cores.
    let results: Vec<ConfigResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|(bench, scen_name, scenario)| {
                let env = &env;
                scope.spawn(move || run_config(env, bench, scen_name, *scenario))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    println!("Fig. 7 — carbon normalized to Coarse(us-east-1)");
    println!(
        "{:<24}{:<7}{:<7}{:<24}{:>10}{:>12}",
        "benchmark", "input", "txn", "strategy", "norm", "gCO2eq/inv"
    );
    let mut json_rows = Vec::new();
    let mut fine_all: Vec<(&str, f64)> = Vec::new();
    for c in &results {
        for (strategy, r, norm) in &c.rows {
            println!(
                "{:<24}{:<7}{:<7}{:<24}{:>10.3}{:>12.4e}",
                c.benchmark,
                c.input.label(),
                c.scenario,
                strategy,
                norm,
                r.carbon_g
            );
            json_rows.push(serde_json::json!({
                "benchmark": c.benchmark,
                "input": c.input.label(),
                "scenario": c.scenario,
                "strategy": strategy,
                "normalized_carbon": norm,
                "carbon_g": r.carbon_g,
                "exec_carbon_g": r.exec_carbon_g,
                "trans_carbon_g": r.trans_carbon_g,
                "latency_mean_s": r.latency_mean_s,
                "cost_usd": r.cost_usd,
            }));
        }
        fine_all.push((c.scenario, c.fine_all_norm));
    }

    for scen in ["best", "worst"] {
        let vals: Vec<f64> = fine_all
            .iter()
            .filter(|(s, _)| *s == scen)
            .map(|(_, v)| *v)
            .collect();
        let gm = geomean(&vals);
        let target = if scen == "best" { "66.6%" } else { "22.9%" };
        println!(
            "\nGeomean reduction, Fine(all), {scen}-case: {:.1}% (paper: {target})",
            (1.0 - gm) * 100.0
        );
        json_rows.push(serde_json::json!({
            "summary": format!("geomean_reduction_{scen}"),
            "value_pct": (1.0 - gm) * 100.0,
        }));
    }
    write_json("fig7", &serde_json::Value::Array(json_rows));
}
