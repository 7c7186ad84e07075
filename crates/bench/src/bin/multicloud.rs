//! Extension experiment: multi-cloud region sets (the Sky-computing
//! motivation of §1; the paper's Table 2 lists Caribou as AWS-only and
//! flags "future portability" via pub/sub's cross-provider availability).
//!
//! Compares fine-grained shifting over the AWS-only NA evaluation set
//! against an AWS+GCP multi-cloud set, with and without a
//! same-provider compliance constraint (`allowed_providers = [Aws]`). A
//! GCP region on the same grid as an AWS one (us-west1 / us-west-2)
//! demonstrates that the carbon differential is a property of the grid,
//! not the provider.

use caribou_bench::harness::{geomean, write_json, StrategyResult};
use caribou_carbon::source::{ForecastingSource, RegionalSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig, MonteCarloEstimator};
use caribou_model::constraints::{Constraints, Objective, Tolerances};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{Provider, ProviderSet, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_workloads::benchmarks::{all_benchmarks, Benchmark, InputSize};

fn hour_points() -> Vec<f64> {
    let step = if std::env::var("CARIBOU_FAST").is_ok_and(|v| v == "1") {
        12
    } else {
        6
    };
    (0..168).step_by(step).map(|h| h as f64 + 0.5).collect()
}

struct Env {
    cloud: SimCloud,
    carbon: RegionalSource,
    home: RegionId,
}

fn env() -> Env {
    let cloud = SimCloud::for_providers(ProviderSet::of(&[Provider::Aws, Provider::Gcp]), 77)
        .expect("aws and gcp have backends");
    let carbon = RegionalSource::new(
        &cloud.regions,
        SyntheticCarbonSource::aws_calibrated(20231015),
    )
    .expect("the multi-cloud catalog's grid zones are all calibrated");
    let home = cloud.region("us-east-1").unwrap();
    Env {
        cloud,
        carbon,
        home,
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_strategy(
    env: &Env,
    bench: &Benchmark,
    region_set: &[RegionId],
    constraints: &Constraints,
    seed: u64,
) -> StrategyResult {
    let permitted = constraints
        .permitted_regions(&bench.dag, region_set, &env.cloud.regions, env.home)
        .expect("valid constraints");
    let models = DefaultModels {
        profile: &bench.profile,
        runtime: &env.cloud.compute,
        latency: &env.cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let mc = MonteCarloConfig {
        batch: 100,
        max_samples: 400,
        cv_threshold: 0.08,
    };
    let mut total = StrategyResult::default();
    let points = hour_points();
    let mut rng = Pcg32::seed_stream(seed, 0x3c1d);
    for &h in &points {
        let day_start = (h / 24.0).floor() * 24.0;
        let forecast = ForecastingSource::fit(&env.carbon, region_set, day_start, 48);
        let ctx = SolverContext {
            dag: &bench.dag,
            profile: &bench.profile,
            permitted: &permitted,
            home: env.home,
            objective: Objective::Carbon,
            tolerances: constraints.tolerances,
            carbon_source: &forecast,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            mc_config: mc,
        };
        let engine = EvalEngine::new(seed ^ h as u64, 1);
        let plan = HbssSolver::new()
            .solve_with(&engine, &ctx, h, &mut rng.fork(h as u64))
            .best;
        let est = MonteCarloEstimator {
            dag: &bench.dag,
            profile: &bench.profile,
            carbon_source: &env.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            home: env.home,
            config: mc,
        };
        let s = est.estimate(&plan, h, &mut rng.fork(h as u64 ^ 0xe));
        total.carbon_g += s.carbon.mean;
        total.latency_p95_s += s.latency.p95;
    }
    total.carbon_g /= points.len() as f64;
    total.latency_p95_s /= points.len() as f64;
    total
}

fn main() {
    let env = env();
    let aws_na = env.cloud.regions.evaluation_regions();
    let multi = env.cloud.evaluation_regions();

    let tolerances = Tolerances {
        latency: 0.10,
        cost: 1.0,
        carbon: f64::INFINITY,
    };
    println!("Multi-cloud extension — best-case scenario, NA region sets");
    println!(
        "{:<24}{:<7}{:>12}{:>14}{:>16}",
        "benchmark", "input", "AWS-only", "AWS+GCP", "AWS+GCP (aws!)"
    );
    let mut rows = Vec::new();
    let mut norms = (Vec::new(), Vec::new(), Vec::new());
    for input in InputSize::ALL {
        for bench in all_benchmarks(input) {
            let mut c = Constraints::unconstrained(bench.dag.node_count());
            c.tolerances = tolerances;
            // Baseline for normalization.
            let baseline = {
                let models = DefaultModels {
                    profile: &bench.profile,
                    runtime: &env.cloud.compute,
                    latency: &env.cloud.latency,
                    orchestrator: Orchestrator::Caribou,
                };
                let est = MonteCarloEstimator {
                    dag: &bench.dag,
                    profile: &bench.profile,
                    carbon_source: &env.carbon,
                    carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                    cost_model: CostModel::new(&env.cloud.pricing),
                    models: &models,
                    home: env.home,
                    config: MonteCarloConfig {
                        batch: 100,
                        max_samples: 400,
                        cv_threshold: 0.08,
                    },
                };
                let plan = DeploymentPlan::uniform(bench.dag.node_count(), env.home);
                let mut rng = Pcg32::seed(9);
                hour_points()
                    .iter()
                    .map(|h| est.estimate(&plan, *h, &mut rng).carbon.mean)
                    .sum::<f64>()
                    / hour_points().len() as f64
            };
            let aws_only = eval_strategy(&env, &bench, &aws_na, &c, 1);
            let multi_free = eval_strategy(&env, &bench, &multi, &c, 2);
            // Same set but compliance pins the workflow to AWS.
            let mut aws_pinned = c.clone();
            aws_pinned.workflow.allowed_providers = vec![Provider::Aws];
            let multi_pinned = eval_strategy(&env, &bench, &multi, &aws_pinned, 3);

            let n1 = aws_only.carbon_g / baseline;
            let n2 = multi_free.carbon_g / baseline;
            let n3 = multi_pinned.carbon_g / baseline;
            println!(
                "{:<24}{:<7}{:>12.3}{:>14.3}{:>16.3}",
                bench.name,
                input.label(),
                n1,
                n2,
                n3
            );
            rows.push(serde_json::json!({
                "benchmark": bench.name,
                "input": input.label(),
                "aws_only_norm": n1,
                "multicloud_norm": n2,
                "multicloud_aws_pinned_norm": n3,
            }));
            norms.0.push(n1);
            norms.1.push(n2);
            norms.2.push(n3);
        }
    }
    println!(
        "\nGeomeans: AWS-only {:.3}; AWS+GCP {:.3}; AWS+GCP with aws-only compliance {:.3}",
        geomean(&norms.0),
        geomean(&norms.1),
        geomean(&norms.2)
    );
    println!("(provider compliance must recover the AWS-only result; the free multi-cloud");
    println!(" set may gain from GCP's Québec/Pacific-Northwest presence)");
    write_json("multicloud", &serde_json::Value::Array(rows));
}
