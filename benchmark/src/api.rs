//! The one adapter between the benchmark and the repository's crates.
//!
//! Every other module of this package names repository items only through
//! `crate::api`, so the set of entry points the benchmark depends on is
//! this file. It is restricted to the ones ROADMAP items 1-4 keep:
//! `run_loadgen` + `LoadgenConfig { .., ..Default::default() }`,
//! `Caribou::{new, deploy, run_trace}` + `RunReport` methods,
//! `run_campaign`, `HbssSolver::solve_with` / `solve_hourly_with` /
//! `EvalEngine` / `EstimateCache`, `solve_fleet` / `replan_incremental`,
//! `MonteCarloEstimator::estimate`, `invoke_with_scratch` and
//! `QuantileSketch`. It never names `estimate_scalar*`,
//! `HbssSolver::solve`, `solve_hourly`, `LoadgenMode`, `Histogram` or
//! `RunReport.samples`, all of which the roadmap deletes.
//!
//! Worker counts are always passed explicitly: the
//! `available_parallelism()` default of `CaribouConfig` is what makes
//! tier-1 red on multi-core hosts.

pub use bytes::Bytes;
pub use caribou_carbon::source::{CarbonDataSource, ForecastingSource, RegionalSource};
pub use caribou_core::chaos::{run_campaign, ChaosConfig, ChaosReport};
pub use caribou_core::fleet::{
    replan_incremental, solve_fleet, DependencyIndex, FleetConfig, FleetEnv, FleetSchedule,
    PerturbOp, Perturbation,
};
pub use caribou_core::framework::{Caribou, CaribouConfig};
pub use caribou_core::loadgen::{run_loadgen, LoadReport, LoadgenConfig};
pub use caribou_core::manager::{CheckMetrics, DeploymentManager, ManagerConfig, SolveDecision};
pub use caribou_core::migrator::Migrator;
pub use caribou_core::utility::{DeployedWorkflow, DeploymentUtility};
pub use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
pub use caribou_exec::outcome::{ExecutionOutcome, InvocationStatus};
pub use caribou_exec::router::InvocationRouter;
pub use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
pub use caribou_metrics::costmodel::CostModel;
pub use caribou_metrics::energy::expected_energy_kwh;
pub use caribou_metrics::logs::InvocationLog;
pub use caribou_metrics::manager::MetricsManager;
pub use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig, MonteCarloEstimator};
pub use caribou_model::constraints::Objective;
pub use caribou_model::dag::NodeId;
pub use caribou_model::dist::DistSpec;
pub use caribou_model::intern::IStr;
pub use caribou_model::manifest::DeploymentManifest;
pub use caribou_model::plan::{DeploymentPlan, HourlyPlans};
pub use caribou_model::region::{ProviderSet, RegionId};
pub use caribou_model::rng::{Pcg32, SeedSplitter};
pub use caribou_simcloud::cloud::SimCloud;
pub use caribou_simcloud::faults::FaultPlan;
pub use caribou_simcloud::meter::UsageMeter;
pub use caribou_simcloud::orchestration::Orchestrator;
pub use caribou_simcloud::pubsub::TopicKey;
pub use caribou_simcloud::warm::{WarmPool, DEFAULT_KEEP_ALIVE_S};
pub use caribou_solver::context::SolverContext;
pub use caribou_solver::engine::{EstimateCache, EvalEngine};
pub use caribou_solver::hbss::HbssSolver;
pub use caribou_solver::hourly::{solve_hourly_with, DayAveragedSource};
pub use caribou_solver::pool::map_indexed;
pub use caribou_telemetry::sink::MemorySink;
pub use caribou_telemetry::QuantileSketch;
pub use caribou_telemetry::{enable as telemetry_enable, finish as telemetry_finish};
pub use caribou_workloads::arrivals::{ArrivalGen, ArrivalProcess};
pub use caribou_workloads::benchmarks::{
    all_benchmarks, text2speech_censoring, Benchmark, InputSize,
};
pub use caribou_workloads::fleet::{generate_fleet, FleetApp};
pub use caribou_workloads::traces::azure_trace;

use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_model::builder::Workflow;
use caribou_model::constraints::Constraints;

/// Home region of every workload, as in the paper's evaluation.
pub const HOME: &str = "us-east-1";

/// Carbon calibration date the CLI uses for every run.
const CARBON_EPOCH: u64 = 20231015;

/// A simulated cloud, its candidate-region universe and the *actual*
/// carbon source over it, assembled the way the `caribou` CLI does.
pub struct World {
    pub cloud: SimCloud,
    pub regions: Vec<RegionId>,
    pub carbon: RegionalSource,
    pub home: RegionId,
}

/// Builds the world for a provider set. The aws-only set goes through
/// the legacy constructor, like every CLI command.
pub fn world(providers: ProviderSet, seed: u64) -> World {
    let (cloud, regions) = if providers.is_aws_only() {
        let cloud = SimCloud::aws(seed);
        let regions = cloud.regions.evaluation_regions();
        (cloud, regions)
    } else {
        let cloud = SimCloud::for_providers(providers, seed).expect("provider backends exist");
        let regions = SimCloud::evaluation_universe(providers)
            .iter()
            .map(|n| cloud.regions.resolve(n).expect("backend region present"))
            .collect();
        (cloud, regions)
    };
    let carbon = RegionalSource::new(
        &cloud.regions,
        SyntheticCarbonSource::aws_calibrated(CARBON_EPOCH),
    )
    .expect("every catalog grid zone is calibrated");
    let home = cloud
        .region(HOME)
        .expect("catalog includes the home region");
    World {
        cloud,
        regions,
        carbon,
        home,
    }
}

/// `aws` and `aws,gcp`, the two provider sets the CLI accepts.
pub fn provider_sets() -> [ProviderSet; 2] {
    [
        ProviderSet::aws_only(),
        ProviderSet::parse("aws,gcp").expect("aws,gcp is a valid provider list"),
    ]
}

/// A paper benchmark as a deployable application homed at `home`.
pub fn workflow_app(bench: &Benchmark, home: RegionId) -> WorkflowApp {
    WorkflowApp {
        name: bench.dag.name().into(),
        dag: bench.dag.clone(),
        profile: bench.profile.clone(),
        home,
    }
}

/// The constraints `caribou simulate` and `caribou plan` attach: 10%
/// latency tolerance, cost unconstrained within 100%.
pub fn cli_constraints(bench: &Benchmark) -> Constraints {
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = 0.10;
    constraints.tolerances.cost = 1.0;
    constraints
}

/// The framework's default Monte Carlo stopping rule
/// (`CaribouConfig::new`): batch 200, max 2000, cv 0.05.
pub fn framework_mc() -> MonteCarloConfig {
    MonteCarloConfig {
        batch: 200,
        max_samples: 2000,
        cv_threshold: 0.05,
    }
}

/// Threads this host offers; no run uses more.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The diamond `run_campaign` replays: A fans out to B (conditional) and
/// C, which join at synchronization node D. Its own copy is private to
/// the chaos harness; the traced fault loop needs the same shape so that
/// its per-request cost is comparable.
pub fn chaos_diamond(home: RegionId) -> WorkflowApp {
    let mut wf = Workflow::new("chaos", "0.1");
    let mut stage = |name: &str, exec_s: f64| {
        wf.serverless_function(name)
            .exec_time(DistSpec::Constant { value: exec_s })
            .register()
    };
    let a = stage("A", 0.4);
    let b = stage("B", 0.6);
    let c = stage("C", 0.8);
    let d = stage("D", 0.3);
    wf.invoke(a, b, Some(0.7));
    wf.invoke(a, c, None);
    wf.invoke(b, d, None);
    wf.invoke(c, d, None);
    wf.get_predecessor_data(d);
    let (dag, profile, _) = wf.extract().expect("the diamond is a valid workflow");
    WorkflowApp {
        name: "chaos".into(),
        dag,
        profile,
        home,
    }
}
