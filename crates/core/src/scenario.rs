//! The one place that knows how an evaluation world and a planning case
//! are put together.
//!
//! A [`World`] is the paper's testbed (§9.1): a simulated cloud over a
//! provider set, that cloud's evaluation regions, the calibrated grid
//! carbon data over its catalog, and the `us-east-1` home region. A
//! [`Case`] is one workflow priced in that cloud — the
//! [`MonteCarloEstimator`] and the [`SolverContext`] it denotes differ
//! only in the carbon data they read (actual versus forecast) and in the
//! search bounds a solve adds. The CLI, the figure harness, the fleet,
//! the framework's tick, the examples and the integration tests all
//! assemble through here; DESIGN.md "Scenario assembly" says what each
//! passes.

use std::fmt;

use caribou_carbon::error::CarbonError;
use caribou_carbon::source::{CarbonDataSource, RegionalSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_exec::engine::WorkflowApp;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{
    DefaultModels, MonteCarloConfig, MonteCarloEstimator, StageModels,
};
use caribou_model::constraints::{Constraints, Objective, Tolerances};
use caribou_model::dag::WorkflowDag;
use caribou_model::error::ModelError;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::{ProviderSet, RegionId};
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_workloads::benchmarks::Benchmark;

/// Home region of every workload, as in the paper's evaluation.
pub const HOME: &str = "us-east-1";

/// Calibration seed of the evaluation week's grid data (simulation hour
/// 0 is 2023-10-15).
pub const CARBON_EPOCH: u64 = 20231015;

/// The Electricity-Maps-calibrated synthetic grid for a calibration
/// seed, by grid zone.
pub fn grid(carbon_seed: u64) -> SyntheticCarbonSource {
    SyntheticCarbonSource::aws_calibrated(carbon_seed)
}

/// Why a [`World`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// The provider set has no backend, or its catalog has no [`HOME`].
    Cloud(ModelError),
    /// A region's grid zone has no carbon calibration.
    Carbon(CarbonError),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Cloud(e) => e.fmt(f),
            WorldError::Carbon(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<ModelError> for WorldError {
    fn from(e: ModelError) -> Self {
        WorldError::Cloud(e)
    }
}

impl From<CarbonError> for WorldError {
    fn from(e: CarbonError) -> Self {
        WorldError::Carbon(e)
    }
}

/// A simulated cloud, its candidate regions, the *actual* carbon data
/// over its catalog, and the home region.
pub struct World {
    /// Simulated cloud (latency, pricing, compute models).
    pub cloud: SimCloud,
    /// The cloud's evaluation regions (§9.1's four on `aws`).
    pub regions: Vec<RegionId>,
    /// Actual grid carbon intensity per region.
    pub carbon: RegionalSource,
    /// [`HOME`] in this cloud's catalog.
    pub home: RegionId,
}

impl World {
    /// Builds the world of a provider set. The cloud's service noise and
    /// the grid's weather are seeded separately: the figures and the CLI
    /// vary the cloud under the one [`CARBON_EPOCH`] week, the examples
    /// and the framework tests derive both from their one seed.
    ///
    /// Every workload in a world is homed at [`HOME`], so a provider set
    /// whose catalog lacks it (`gcp` alone) is an error here; the fleet,
    /// which draws its apps' homes from the universe, assembles the same
    /// three calls without a home (`FleetEnv::for_providers`).
    pub fn new(
        providers: ProviderSet,
        cloud_seed: u64,
        carbon_seed: u64,
    ) -> Result<World, WorldError> {
        let cloud = SimCloud::for_providers(providers, cloud_seed)?;
        let regions = cloud.evaluation_regions();
        let carbon = RegionalSource::new(&cloud.regions, grid(carbon_seed))?;
        let home = cloud.region(HOME)?;
        Ok(World {
            cloud,
            regions,
            carbon,
            home,
        })
    }

    /// The paper's testbed: AWS over the [`CARBON_EPOCH`] week.
    pub fn evaluation(cloud_seed: u64) -> World {
        World::new(ProviderSet::aws_only(), cloud_seed, CARBON_EPOCH)
            .expect("the AWS backend always exists")
    }

    /// Region id by name; experiment setup uses fixed catalog names.
    pub fn region(&self, name: &str) -> RegionId {
        self.cloud
            .region(name)
            .expect("experiment regions come from the world's catalog")
    }

    /// `bench` priced in this world on the model-based stage models.
    pub fn case<'a>(
        &'a self,
        bench: &'a Benchmark,
        scenario: TransmissionScenario,
        mc: MonteCarloConfig,
    ) -> Case<'a, DefaultModels<'a>> {
        Case::on_default_models(
            &self.cloud,
            self.home,
            &bench.dag,
            &bench.profile,
            scenario,
            mc,
        )
    }
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

/// The experiments' tolerances: 10% on tail latency, generous on cost
/// (the paper's QoS studies vary only the runtime tolerance, §9.4),
/// unbounded carbon (the solver minimizes it).
pub fn default_tolerances() -> Tolerances {
    Tolerances {
        latency: 0.10,
        cost: 1.0,
        carbon: f64::INFINITY,
    }
}

/// The constraints `caribou plan` and `caribou simulate` attach: the
/// benchmark's own, with the 10% latency / 100% cost tolerances.
pub fn cli_constraints(bench: &Benchmark) -> Constraints {
    let Tolerances { latency, cost, .. } = default_tolerances();
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = latency;
    constraints.tolerances.cost = cost;
    constraints
}

/// One workflow priced in one cloud: everything an estimate needs except
/// the carbon data it reads.
pub struct Case<'a, M: StageModels> {
    dag: &'a WorkflowDag,
    profile: &'a WorkflowProfile,
    home: RegionId,
    objective: Objective,
    models: M,
    carbon_model: CarbonModel,
    cost_model: CostModel<'a>,
    mc: MonteCarloConfig,
}

impl<'a> Case<'a, DefaultModels<'a>> {
    /// [`Case::new`] on the model-based stage models over `cloud`'s
    /// runtime and latency models.
    pub fn on_default_models(
        cloud: &'a SimCloud,
        home: RegionId,
        dag: &'a WorkflowDag,
        profile: &'a WorkflowProfile,
        scenario: TransmissionScenario,
        mc: MonteCarloConfig,
    ) -> Self {
        let models = DefaultModels {
            profile,
            runtime: &cloud.compute,
            latency: &cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        Case::new(cloud, home, dag, profile, models, scenario, mc)
    }
}

impl<'a, M: StageModels> Case<'a, M> {
    /// Prices `dag` homed at `home` on `cloud`'s price sheet; its solves
    /// minimize carbon.
    pub fn new(
        cloud: &'a SimCloud,
        home: RegionId,
        dag: &'a WorkflowDag,
        profile: &'a WorkflowProfile,
        models: M,
        scenario: TransmissionScenario,
        mc: MonteCarloConfig,
    ) -> Self {
        Case {
            dag,
            profile,
            home,
            objective: Objective::Carbon,
            models,
            carbon_model: CarbonModel::new(scenario),
            cost_model: CostModel::new(&cloud.pricing),
            mc,
        }
    }

    /// The same case minimizing `objective` instead of carbon.
    pub fn minimizing(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The estimator reading `source`.
    pub fn estimator<'c, S: CarbonDataSource>(
        &'c self,
        source: &'c S,
    ) -> MonteCarloEstimator<'c, S, M> {
        MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: source,
            carbon_model: self.carbon_model,
            cost_model: self.cost_model.clone(),
            models: &self.models,
            home: self.home,
            config: self.mc,
        }
    }

    /// The solve minimizing the case's objective over `permitted` within
    /// `tolerances` of home, reading `source` (forecast data in
    /// production).
    pub fn context<'c, S: CarbonDataSource>(
        &'c self,
        permitted: &'c [Vec<RegionId>],
        tolerances: Tolerances,
        source: &'c S,
    ) -> SolverContext<'c, S, M> {
        SolverContext {
            dag: self.dag,
            profile: self.profile,
            permitted,
            home: self.home,
            objective: self.objective,
            tolerances,
            carbon_source: source,
            carbon_model: self.carbon_model,
            cost_model: self.cost_model.clone(),
            models: &self.models,
            mc_config: self.mc,
        }
    }
}
