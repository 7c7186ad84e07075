//! Bring your own data: run Caribou on carbon CSVs and a trace CSV.
//!
//! The synthetic carbon generator is only a stand-in for Electricity Maps
//! extracts; this example shows the drop-in path: per-region
//! `<region>.csv` files (hour, gCO₂eq/kWh) loaded with
//! `TableSource::from_csv_dir`, and an arrival-time trace loaded with
//! `trace_from_csv`. For the demo the files are generated first — replace
//! the directory with real exports and nothing else changes.
//!
//! Run with: `cargo run --release -p caribou-core --example real_data`

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::scenario::{workflow_app, HOME};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::manifest::DeploymentManifest;
use caribou_simcloud::cloud::SimCloud;
use caribou_workloads::benchmarks::{rag_data_ingestion, InputSize};
use caribou_workloads::traces::{trace_from_csv, trace_to_csv, uniform_trace};

fn main() {
    let dir = std::env::temp_dir().join(format!("caribou_real_data_{}", std::process::id()));
    let carbon_dir = dir.join("carbon");
    std::fs::create_dir_all(&carbon_dir).expect("temp dir");

    // --- In real use these files come from Electricity Maps / your logs.
    // A day-night pattern for four regions, three days long, plus a
    // pre-history so forecasting has something to train on.
    let hours = 10 * 24;
    let start_hour = -7 * 24;
    let series = |base: f64, amp: f64| -> CarbonSeries {
        let values = (0..hours)
            .map(|h| {
                let hod = ((start_hour + h as i64).rem_euclid(24)) as f64;
                base + amp * (std::f64::consts::TAU * (hod - 19.0) / 24.0).cos()
            })
            .collect();
        CarbonSeries::new(start_hour, values)
    };
    std::fs::write(
        carbon_dir.join("us-east-1.csv"),
        series(380.0, 30.0).to_csv(),
    )
    .unwrap();
    std::fs::write(
        carbon_dir.join("us-west-1.csv"),
        series(355.0, 90.0).to_csv(),
    )
    .unwrap();
    std::fs::write(
        carbon_dir.join("us-west-2.csv"),
        series(370.0, 40.0).to_csv(),
    )
    .unwrap();
    std::fs::write(
        carbon_dir.join("ca-central-1.csv"),
        series(32.0, 2.0).to_csv(),
    )
    .unwrap();
    let demo_trace = uniform_trace(30.0, 2.0 * 86_400.0, 900.0);
    std::fs::write(dir.join("trace.csv"), trace_to_csv(&demo_trace)).unwrap();
    // ---

    // Load the data back exactly as a user with real exports would.
    let cloud = SimCloud::aws(99);
    let carbon = TableSource::from_csv_dir(&carbon_dir, &cloud.regions).expect("carbon CSVs load");
    let trace_csv = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
    let trace = trace_from_csv(&trace_csv).expect("trace CSV loads");
    println!(
        "loaded carbon for {} regions and {} trace arrivals from {}",
        carbon.regions().len(),
        trace.len(),
        dir.display()
    );

    let regions = carbon.regions();
    let mut config = CaribouConfig::new(regions, TransmissionScenario::BEST);
    config.seed = 99;
    let mut caribou = Caribou::new(cloud, carbon, config);

    let bench = rag_data_ingestion(InputSize::Small);
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = 0.15;
    constraints.tolerances.cost = 1.0;
    let app = workflow_app(&bench, caribou.cloud.region(HOME).unwrap());
    let manifest = DeploymentManifest::new(&*app.name, "1.0", HOME);
    let idx = caribou.deploy(app, &manifest, constraints).unwrap();
    let report = caribou.run_trace(idx, &trace);

    println!("invocations: {}", report.samples.len());
    println!(
        "plan generations at hours: {:?}",
        report
            .dp_generations
            .iter()
            .map(|t| (t / 3600.0).round())
            .collect::<Vec<_>>()
    );
    let mean = |lo: f64, hi: f64| -> f64 {
        let v: Vec<f64> = report
            .samples
            .iter()
            .filter(|s| s.at_s >= lo && s.at_s < hi && !s.benchmark_traffic)
            .map(|s| s.carbon_g())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "carbon/invocation: {:.3e} g (day 1 start) -> {:.3e} g (day 2 end)",
        mean(0.0, 6.0 * 3600.0),
        mean(1.75 * 86_400.0, 2.0 * 86_400.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}
