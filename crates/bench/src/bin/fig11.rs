//! Fig. 11 — Week-long self-adaptive operation (§9.5).
//!
//! Runs the full framework (token-bucket manager, forecast-based solver,
//! migrator, executor) on Text2Speech Censoring with the large input and
//! an Azure-shaped invocation trace for the evaluation week, under both
//! transmission scenarios. Reports, per hour: the region hosting the
//! majority of workflow nodes, Caribou's realized carbon normalized to
//! the coarse us-east-1 deployment, and the coarse single-region
//! baselines; plus the deployment-plan generation times (the learning
//! phase solves often, then the cadence relaxes).

use caribou_bench::harness::{hbss_params, mc_config, write_json, Week};
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::scenario::{cli_constraints, workflow_app, World, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};
use caribou_workloads::traces::azure_trace;

fn main() {
    let scenarios = [
        ("worst", TransmissionScenario::WORST),
        ("best", TransmissionScenario::BEST),
    ];
    let mut out = serde_json::Map::new();

    for (scen_name, scenario) in scenarios {
        let env = World::evaluation(11);
        let bench = text2speech_censoring(InputSize::Large);
        let app = workflow_app(&bench, env.home);

        // Coarse baselines scored every hour on the actual carbon.
        let coarse_hourly: Vec<Vec<f64>> = {
            let week = Week::new(&env, &bench, scenario, 1, 11);
            [HOME, "us-west-1", "us-west-2"]
                .map(|name| {
                    let plan = DeploymentPlan::uniform(bench.dag.node_count(), env.region(name));
                    (0..168)
                        .map(|hour| week.score(&plan, hour as f64 + 0.5).carbon.mean)
                        .collect()
                })
                .into()
        };

        // Full framework run.
        let mut config = CaribouConfig::new(env.regions, scenario);
        config.mc = mc_config();
        config.hbss = hbss_params();
        config.seed = 11;
        let mut fw = Caribou::new(env.cloud, env.carbon, config);
        let manifest = DeploymentManifest::new(app.name.clone(), "1.0", HOME);
        let idx = fw.deploy(app, &manifest, cli_constraints(&bench)).unwrap();
        let trace = azure_trace(
            10.0,
            7.0 * 86_400.0,
            1600.0,
            &mut Pcg32::seed_stream(11, 0x7ace),
        );
        let report = fw.run_trace(idx, &trace);

        // Aggregate Caribou's realized carbon per hour (production traffic
        // only) and the hourly majority region.
        let mut hourly_carbon = vec![0.0f64; 168];
        let mut hourly_count = vec![0usize; 168];
        let mut hourly_region: Vec<String> = vec![String::new(); 168];
        for s in report.samples.iter().filter(|s| !s.benchmark_traffic) {
            let h = ((s.at_s / 3600.0) as usize).min(167);
            hourly_carbon[h] += s.carbon_g();
            hourly_count[h] += 1;
            hourly_region[h] = fw.cloud.regions.name(s.majority_region).to_string();
        }

        println!("\nFig. 11 — {scen_name}-case scenario (Text2Speech Censoring, large)");
        println!(
            "DP generations at hours: {:?}",
            report
                .dp_generations
                .iter()
                .map(|t| (t / 3600.0).round() as i64)
                .collect::<Vec<_>>()
        );
        println!(
            "{:>5}{:>16}{:>10}{:>10}{:>10}{:>10}",
            "hour", "majority", "caribou", "e1", "w1", "w2"
        );
        let mut series = Vec::new();
        for h in (0..168).step_by(6) {
            if hourly_count[h] == 0 {
                continue;
            }
            let caribou = hourly_carbon[h] / hourly_count[h] as f64;
            let e1 = coarse_hourly[0][h];
            let norm = caribou / e1;
            println!(
                "{h:>5}{:>16}{norm:>10.3}{:>10.3}{:>10.3}{:>10.3}",
                hourly_region[h],
                1.0,
                coarse_hourly[1][h] / e1,
                coarse_hourly[2][h] / e1
            );
            series.push(serde_json::json!({
                "hour": h,
                "majority_region": hourly_region[h],
                "caribou_norm": norm,
                "us_west_1_norm": coarse_hourly[1][h] / e1,
                "us_west_2_norm": coarse_hourly[2][h] / e1,
            }));
        }

        // Weekly summary.
        let produced: Vec<&caribou_core::framework::InvocationSample> = report
            .samples
            .iter()
            .filter(|s| !s.benchmark_traffic)
            .collect();
        let caribou_total: f64 = produced.iter().map(|s| s.carbon_g()).sum();
        let baseline_total: f64 = produced
            .iter()
            .map(|s| coarse_hourly[0][((s.at_s / 3600.0) as usize).min(167)])
            .sum();
        println!(
            "Week total: caribou/coarse(us-east-1) = {:.3}; framework overhead {:.2e} g ({:.3}% of workflow)",
            caribou_total / baseline_total,
            report.framework_carbon_g,
            100.0 * report.framework_carbon_g / caribou_total
        );
        out.insert(
            scen_name.to_string(),
            serde_json::json!({
                "dp_generation_hours": report
                    .dp_generations
                    .iter()
                    .map(|t| t / 3600.0)
                    .collect::<Vec<_>>(),
                "weekly_normalized": caribou_total / baseline_total,
                "framework_carbon_g": report.framework_carbon_g,
                "series": series,
            }),
        );
    }
    write_json("fig11", &serde_json::Value::Object(out));
}
