//! Learning-loop integration: the Metrics Manager learns distributions and
//! probabilities from real engine executions, closing the §7.2 loop
//! ("Learning from Past Invocations").

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::manager::MetricsManager;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::builder::Workflow;
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;

fn flat_carbon(cloud: &SimCloud) -> TableSource {
    let mut t = TableSource::new();
    for (id, _) in cloud.regions.iter() {
        t.insert(id, CarbonSeries::new(0, vec![250.0; 24]));
    }
    t
}

/// Conditional-edge probabilities learned from executed logs converge to
/// the true branch rate and flow into the refreshed profile.
#[test]
fn conditional_probabilities_are_learned_from_executions() {
    let mut cloud = SimCloud::aws(500);
    let mut wf = Workflow::new("wf", "0.1");
    let a = wf.serverless_function("A").register();
    let b = wf.serverless_function("B").register();
    // Declared at 0.9 — but we will *execute* with the profile's 0.3 and
    // verify the logs recover it.
    wf.invoke(a, b, Some(0.3));
    let (dag, profile, _) = wf.extract().unwrap();
    let app = WorkflowApp {
        name: "wf".into(),
        dag: dag.clone(),
        profile: profile.clone(),
        home: cloud.region("us-east-1").unwrap(),
    };
    let plan = DeploymentPlan::uniform(2, app.home);
    let carbon = flat_carbon(&cloud);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut cloud, &app, &plan);

    let mut mm = MetricsManager::new();
    let mut rng = Pcg32::seed(500);
    for i in 0..400 {
        let out = engine.invoke(&mut cloud, &app, &plan, i, 50.0 + i as f64, &mut rng);
        mm.record(out.log);
    }
    let probs = mm.edge_probabilities(&dag);
    let learned = probs[0].expect("enough observations");
    assert!((learned - 0.3).abs() < 0.07, "learned {learned}");

    // A stale declared probability is corrected by the refresh.
    let mut stale = profile.clone();
    stale.edges[0].probability = 0.9;
    let refreshed = mm.refreshed_profile(&dag, &stale);
    assert!((refreshed.edges[0].probability - learned).abs() < 1e-12);
}

/// Learned execution distributions from engine logs override the profile
/// model in the solver's stage models, and transmission observations feed
/// the learned transfer distributions.
#[test]
fn execution_distributions_are_learned_from_executions() {
    let mut cloud = SimCloud::aws(501);
    cloud.compute.cold_start_prob = 0.0;
    let mut wf = Workflow::new("wf", "0.1");
    let a = wf
        .serverless_function("A")
        // The *declared* model says 1 s...
        .exec_time(DistSpec::Constant { value: 1.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Constant { value: 1.0 })
        .register();
    wf.invoke(a, b, None);
    let (dag, profile, _) = wf.extract().unwrap();
    // ...but the app actually runs 5 s per stage.
    let mut real_profile = profile.clone();
    for n in &mut real_profile.nodes {
        n.exec_time = DistSpec::Constant { value: 5.0 };
    }
    let app = WorkflowApp {
        name: "wf".into(),
        dag: dag.clone(),
        profile: real_profile,
        home: cloud.region("us-east-1").unwrap(),
    };
    let plan = DeploymentPlan::uniform(2, app.home);
    let carbon = flat_carbon(&cloud);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut cloud, &app, &plan);
    let mut mm = MetricsManager::new();
    let mut rng = Pcg32::seed(501);
    for i in 0..50 {
        let out = engine.invoke(&mut cloud, &app, &plan, i, 100.0 + i as f64, &mut rng);
        mm.record(out.log);
    }
    // The learned models should reflect the observed ~5 s, not the
    // declared 1 s.
    let runtime = cloud.compute.clone();
    let latency = cloud.latency.clone();
    let lm = mm.learned_models(
        &profile,
        &runtime,
        &latency,
        Orchestrator::Caribou,
        app.home,
    );
    assert!(lm.has_exec_data(0, app.home));
    let (learned, scale) = lm.learned_exec(0, app.home).expect("home history");
    let mean = learned.iter().sum::<f64>() * scale / learned.len() as f64;
    assert!((4.0..6.5).contains(&mean), "learned mean {mean}");
    assert!(
        lm.has_transfer_data(app.home, app.home),
        "edge transmission observations recorded"
    );
}

/// Extensibility: a brand-new region added to the catalog participates in
/// carbon data, latency, pricing, execution, and solving.
#[test]
fn custom_region_is_first_class() {
    use caribou_carbon::synth::{GridProfile, SyntheticCarbonSource};
    use caribou_model::region::{Provider, RegionCatalog, RegionSpec};

    let mut catalog = RegionCatalog::aws_default();
    let new_region = catalog.push(RegionSpec {
        name: "eu-north-1".into(),
        provider: Provider::Aws,
        country: "SE".into(),
        grid_zone: "SE".into(),
        latitude: 59.3,
        longitude: 18.1,
        price_premium: 1.05,
        perf_factor: 1.05,
    });
    // Give the new grid a profile (Sweden: hydro/nuclear, very clean).
    let mut profiles = std::collections::HashMap::new();
    profiles.insert(
        "SE".to_string(),
        GridProfile {
            mean: 25.0,
            diurnal_amp: 0.05,
            diurnal_peak_hour: 18.0,
            solar_depth: 0.0,
            weekly_amp: 0.02,
            noise_sigma: 0.05,
            utc_offset: 1.0,
        },
    );
    let synth = SyntheticCarbonSource::new(profiles, 1);
    assert!(synth.zone_intensity("SE", 12.0).unwrap() > 0.0);

    let cloud = SimCloud::with_catalog(catalog, 502);
    // Latency and pricing cover the new region out of the box.
    let east = cloud.region("us-east-1").unwrap();
    assert!(
        cloud.latency.rtt(east, new_region) > 0.05,
        "transatlantic RTT"
    );
    assert!(cloud.pricing.region(new_region).lambda_gb_second > 0.0);
    assert!(cloud.compute.perf_factor(new_region) > 0.0);
}
