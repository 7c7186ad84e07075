//! Fig. 13 — Adaptive learning and solving period (§9.7).
//!
//! (a) Disables the dynamic triggering policy and sweeps the fixed solve
//! frequency from once to seven times per week on Text2Speech Censoring
//! (small input, ~1.6K invocations/day), reporting the total carbon per
//! invocation split into workflow execution and framework (solver)
//! overhead, for both transmission scenarios. Paper shape: more frequent
//! solves add no significant overhead relative to savings but also no
//! significant extra savings; the break-even of one 24-hour-granularity
//! solve is ~91 invocations in the worst case.
//!
//! (b) Forecast quality versus horizon: Holt-Winters MAPE for horizons of
//! 1..7 days (the forecast a once-per-`k`-days solver relies on). Paper
//! shape: quality does not degrade linearly with the window.

use caribou_bench::harness::{hbss_params, mc_config, write_json};
use caribou_carbon::source::{CarbonDataSource, ForecastingSource};
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::manager::ManagerConfig;
use caribou_core::scenario::{cli_constraints, workflow_app, World, HOME};
use caribou_core::tokens::solve_carbon_g;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::rng::Pcg32;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};
use caribou_workloads::traces::azure_trace;

fn main() {
    let mut out = serde_json::Map::new();

    // (a) fixed solve-frequency sweep.
    println!("Fig. 13(a) — carbon per invocation vs solves per week");
    println!(
        "{:<7}{:>8}{:>16}{:>16}{:>12}",
        "txn", "solves", "workflow g/inv", "framework g/inv", "total g/inv"
    );
    let mut part_a = Vec::new();
    for (scen_name, scenario) in [
        ("best", TransmissionScenario::BEST),
        ("worst", TransmissionScenario::WORST),
    ] {
        for solves_per_week in 1..=7usize {
            let env = World::evaluation(13);
            let bench = text2speech_censoring(InputSize::Small);
            let app = workflow_app(&bench, env.home);
            let mut config = CaribouConfig::new(env.regions, scenario);
            config.mc = mc_config();
            config.hbss = hbss_params();
            config.seed = 13;
            config.manager = ManagerConfig {
                go_runtime: false,
                dynamic_triggering: false,
                fixed_interval_s: 7.0 * 86_400.0 / solves_per_week as f64,
            };
            let mut fw = Caribou::new(env.cloud, env.carbon, config);
            let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
            let idx = fw.deploy(app, &manifest, cli_constraints(&bench)).unwrap();
            let trace = azure_trace(
                10.0,
                7.0 * 86_400.0,
                1600.0,
                &mut Pcg32::seed_stream(13, 0x7ace),
            );
            let report = fw.run_trace(idx, &trace);
            let n = report.samples.len() as f64;
            let wf = report.workflow_carbon_g() / n;
            let fwk = report.framework_carbon_g / n;
            println!(
                "{scen_name:<7}{solves_per_week:>8}{wf:>16.4e}{fwk:>16.4e}{:>12.4e}",
                wf + fwk
            );
            part_a.push(serde_json::json!({
                "scenario": scen_name,
                "solves_per_week": solves_per_week,
                "workflow_g_per_inv": wf,
                "framework_g_per_inv": fwk,
            }));
        }
    }
    out.insert("a".into(), serde_json::Value::Array(part_a));

    // Break-even: one 24-hour-granularity solve (complexity 10) in
    // ca-central-1 versus the worst-case per-invocation saving.
    {
        let env = World::evaluation(13);
        let ca = env.region("ca-central-1");
        let solve_g = solve_carbon_g(10, 24, false, env.carbon.average(ca, 0.0, 24.0));
        // Per-invocation worst-case saving measured above (scenario worst,
        // any frequency): recompute quickly from the JSON rows.
        println!(
            "\nOne Python 24-solve DP generation in ca-central-1: {solve_g:.3e} g (paper ~1.98e-2 g)"
        );
        out.insert("solve_carbon_g".into(), serde_json::json!(solve_g));
    }

    // (b) forecast quality vs horizon.
    println!("\nFig. 13(b) — Holt-Winters forecast MAPE vs horizon");
    println!(
        "{:<16}{}",
        "region",
        (1..=7).map(|d| format!("{d:>8}d")).collect::<String>()
    );
    let env = World::evaluation(13);
    let mut part_b = Vec::new();
    for name in ["us-east-1", "us-west-1", "us-west-2", "ca-central-1"] {
        let r = env.region(name);
        let fit_at = 0.0;
        let f = ForecastingSource::fit(&env.carbon, &[r], fit_at, 7 * 24);
        let mut line = format!("{name:<16}");
        let mut mapes = Vec::new();
        for day in 1..=7usize {
            let mut mape = 0.0;
            for h in ((day - 1) * 24)..(day * 24) {
                let t = fit_at + h as f64 + 0.5;
                let actual = env.carbon.intensity(r, t);
                let predicted = f.intensity(r, t);
                mape += ((predicted - actual) / actual).abs();
            }
            mape /= 24.0;
            line.push_str(&format!("{:>8.1}%", mape * 100.0));
            mapes.push(mape);
        }
        println!("{line}");
        part_b.push(serde_json::json!({ "region": name, "mape_by_day": mapes }));
    }
    println!("(paper: forecast quality does not worsen linearly with the window)");
    out.insert("b".into(), serde_json::Value::Array(part_b));
    write_json("fig13", &serde_json::Value::Object(out));
}
