//! Quickstart: declare a workflow, deploy it, and let Caribou shift it.
//!
//! Builds a two-stage serverless workflow with the builder API (the
//! paper's Listing 1), deploys it to the simulated AWS cloud with
//! `us-east-1` as the home region, and runs two days of traffic. Caribou
//! learns from the invocations, solves a carbon-optimal deployment plan on
//! forecast grid data, migrates the functions, and the carbon per
//! invocation drops.
//!
//! Run with: `cargo run --release -p caribou-core --example quickstart`

use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::scenario::{World, HOME};
use caribou_exec::engine::WorkflowApp;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::builder::Workflow;
use caribou_model::dist::DistSpec;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::region::ProviderSet;
use caribou_workloads::traces::uniform_trace;

fn main() {
    // 1. Declare the workflow (one class, three operations — §8).
    let mut wf = Workflow::new("thumbnailer", "1.0");
    let resize = wf
        .serverless_function("Resize")
        .memory_mb(1024)
        .exec_time(DistSpec::LogNormal {
            median: 3.0,
            sigma: 0.1,
        })
        .register();
    let publish = wf
        .serverless_function("Publish")
        .memory_mb(1769)
        .exec_time(DistSpec::LogNormal {
            median: 6.0,
            sigma: 0.1,
        })
        .register();
    wf.invoke(resize, publish, None)
        .payload(DistSpec::Constant { value: 250e3 });
    wf.set_input(DistSpec::Constant { value: 500e3 });

    // 2. Stand up the simulated cloud and calibrated carbon data.
    let world = World::new(ProviderSet::aws_only(), 42, 42).expect("the AWS backend exists");
    let config = CaribouConfig::new(world.regions, TransmissionScenario::BEST);
    let mut caribou = Caribou::new(world.cloud, world.carbon, config);

    // 3. Initial deployment to the home region (§6.1).
    let (dag, profile, mut constraints) = wf.extract().expect("valid workflow");
    constraints.tolerances.latency = 0.25;
    let app = WorkflowApp {
        name: dag.name().into(),
        home: world.home,
        dag,
        profile,
    };
    let manifest = DeploymentManifest::new("thumbnailer", "1.0", HOME);
    let idx = caribou
        .deploy(app, &manifest, constraints)
        .expect("deployment succeeds");
    println!("deployed `thumbnailer` to us-east-1");

    // 4. Two days of steady traffic.
    let trace = uniform_trace(60.0, 2.0 * 86_400.0, 1200.0);
    let report = caribou.run_trace(idx, &trace);

    // 5. What happened?
    println!("invocations:        {}", report.samples.len());
    println!(
        "completed:          {:.2}%",
        report.completion_rate() * 100.0
    );
    println!(
        "plans generated at: {:?} h",
        report
            .dp_generations
            .iter()
            .map(|t| (t / 3600.0).round())
            .collect::<Vec<_>>()
    );
    let day = 86_400.0;
    let mean_carbon = |lo: f64, hi: f64| -> f64 {
        let v: Vec<f64> = report
            .samples
            .iter()
            .filter(|s| s.at_s >= lo && s.at_s < hi && !s.benchmark_traffic)
            .map(|s| s.carbon_g())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let before = mean_carbon(0.0, 0.25 * day);
    let after = mean_carbon(1.5 * day, 2.0 * day);
    println!("carbon/invocation:  {before:.3e} g (first hours) -> {after:.3e} g (day 2)");
    println!("reduction:          {:.1}%", (1.0 - after / before) * 100.0);
    println!(
        "framework overhead: {:.3e} g total",
        report.framework_carbon_g
    );
    println!(
        "mean latency:       {:.2} s (p95 {:.2} s)",
        report.mean_latency_s(),
        report.p95_latency_s()
    );
    assert!(after < before, "carbon should drop once the plan activates");
}
