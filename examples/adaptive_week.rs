//! A week of self-adaptive operation (§9.5) on the Video Analytics
//! benchmark under an Azure-shaped diurnal trace.
//!
//! Shows the full control loop end to end: the token bucket gates plan
//! generation by earned carbon budget, plans are solved on Holt-Winters
//! forecasts, the migrator crane-copies images to new regions, traffic
//! follows the hourly plans (with 10% benchmarking traffic pinned home),
//! and the emission accounting uses the actual grid data.
//!
//! Run with: `cargo run --release -p caribou-core --example adaptive_week`

use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::scenario::{workflow_app, World, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_model::rng::Pcg32;
use caribou_workloads::benchmarks::{video_analytics, InputSize};
use caribou_workloads::traces::azure_trace;

fn main() {
    let world = World::new(ProviderSet::aws_only(), 21, 21).expect("the AWS backend exists");
    let mut config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    config.seed = 21;
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);

    let bench = video_analytics(InputSize::Small);
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = 0.15;
    constraints.tolerances.cost = 1.0;
    let app = workflow_app(&bench, world.home);
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    let idx = caribou.deploy(app, &manifest, constraints).unwrap();

    let trace = azure_trace(
        30.0,
        7.0 * 86_400.0,
        1600.0,
        &mut Pcg32::seed_stream(21, 0x7ace),
    );
    println!("running {} invocations over 7 days...", trace.len());
    let report = caribou.run_trace(idx, &trace);

    println!(
        "plan generations at hours: {:?}",
        report
            .dp_generations
            .iter()
            .map(|t| (t / 3600.0).round())
            .collect::<Vec<_>>()
    );
    println!(
        "migration egress: {:.1} MB",
        report.migration_egress_bytes / 1e6
    );

    // Daily carbon-per-invocation trajectory.
    println!("\nday  invocations  gCO2eq/invocation  majority region (last sample)");
    for day in 0..7 {
        let lo = day as f64 * 86_400.0;
        let hi = lo + 86_400.0;
        let samples: Vec<_> = report
            .samples
            .iter()
            .filter(|s| s.at_s >= lo && s.at_s < hi && !s.benchmark_traffic)
            .collect();
        if samples.is_empty() {
            continue;
        }
        let mean = samples.iter().map(|s| s.carbon_g()).sum::<f64>() / samples.len() as f64;
        let region = caribou
            .cloud
            .regions
            .name(samples.last().unwrap().majority_region)
            .to_string();
        println!("{day:>3}  {:>11}  {mean:>17.4e}  {region}", samples.len());
    }

    let total = report.workflow_carbon_g();
    println!(
        "\nweek total: {total:.2} g workflow + {:.3} g framework ({:.2}% overhead)",
        report.framework_carbon_g,
        100.0 * report.framework_carbon_g / total
    );
    println!(
        "completion {:.3}%, mean latency {:.2} s",
        report.completion_rate() * 100.0,
        report.mean_latency_s()
    );
}
