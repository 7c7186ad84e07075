//! The fleet subsystem: multi-tenant solving with a cross-app estimate
//! cache and incremental hourly re-solve.
//!
//! Where the rest of the framework plans one workflow at a time (the
//! paper's setting), this module owns a *fleet* of N heterogeneous DAG
//! apps and re-plans every app for every simulated hour through one
//! shared [`EstimateCache`]:
//!
//! * **Generation** — [`caribou_workloads::fleet`] draws seeded apps
//!   from a discrete palette, so large fleets contain structurally
//!   identical apps with distinct constraints.
//! * **Cross-app sharing** — each app gets an [`EvalEngine`] carrying
//!   its structural fingerprint over the shared cache; two apps of the
//!   same species hit each other's `(plan, hour)` estimates because key
//!   and Monte Carlo stream both derive from the fingerprint, never
//!   from app identity.
//! * **Determinism** — every `(app, hour)` solve cell is a pure function
//!   of the fleet seed and its labels: walk RNGs split per cell, results
//!   fold back at cell index. Schedules are bit-identical at any
//!   [`FleetConfig::workers`].
//! * **Incremental re-solve** — [`DependencyIndex`] records which
//!   forecast inputs each app's solves read; after a forecast revision,
//!   [`replan_incremental`] drops exactly the invalidated cache entries
//!   ([`EstimateCache::invalidate_hour`]) and re-runs exactly the dirty
//!   cells, reusing every other cell's plan verbatim — bit-identical to
//!   a from-scratch solve against the revised forecast.
//!
//! The modeled solver footprint (§9.7's solve-carbon accounting via
//! [`crate::tokens::solve_carbon_g`]) is reported per run, so the carbon
//! *saved* by incremental re-solve is a first-class result.

pub mod index;
pub mod perturb;

use std::collections::BTreeMap;
use std::sync::Arc;

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::{CarbonDataSource, RegionalSource, TableSource};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{ProviderSet, RegionId};
use caribou_model::rng::{mix64, SeedSplitter};
use caribou_simcloud::cloud::SimCloud;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::{EstimateCache, EvalEngine, DEFAULT_CACHE_CAPACITY};
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_solver::pool;
use caribou_workloads::fleet::FleetApp;

use crate::scenario::{grid, Case};

pub use index::{DependencyIndex, DirtySet};
pub use perturb::{parse_perturb, PerturbOp, Perturbation};

/// Domain-separation label for per-cell HBSS walk streams.
const FLEET_WALK_DOMAIN: u64 = 0xca1b_f1ee_7a44_0003;

/// Fleet run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Applications in the fleet.
    pub apps: usize,
    /// Simulated hours each app is re-planned for.
    pub hours: usize,
    /// Worker threads the solve cells fan across (results identical at
    /// any value).
    pub workers: usize,
    /// Master seed: generation, evaluation streams, and walks all derive
    /// from it.
    pub seed: u64,
    /// Shared estimate-cache capacity.
    pub cache_capacity: usize,
    /// Monte Carlo stopping rule (fleet default trades sample count for
    /// throughput; estimates stay deterministic).
    pub mc: MonteCarloConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            apps: 24,
            hours: 24,
            workers: 1,
            seed: 7,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            mc: MonteCarloConfig {
                batch: 40,
                max_samples: 80,
                cv_threshold: 0.2,
            },
        }
    }
}

/// HBSS parameters for fleet solves: a tighter iteration budget than the
/// single-app default — fleets amortize exploration across thousands of
/// solves sharing one estimate cache.
fn fleet_hbss_params() -> HbssParams {
    HbssParams {
        alpha_factor: 3,
        ..HbssParams::default()
    }
}

/// The frozen world a fleet run solves against: simulated cloud models
/// plus a materialized hourly carbon forecast.
pub struct FleetEnv {
    /// Simulated cloud (latency, pricing, compute).
    pub cloud: SimCloud,
    /// Candidate regions (the §9.1 evaluation set).
    pub universe: Vec<RegionId>,
    /// Hourly forecast values per universe region, hours `0..hours`.
    pub forecast: BTreeMap<RegionId, Vec<f64>>,
    seed: u64,
    hours: usize,
    provider_bits: u64,
}

impl FleetEnv {
    /// Builds the environment: an AWS-only cloud and a synthetic
    /// Electricity-Maps-calibrated forecast materialized at hourly
    /// resolution. Pure function of `(seed, hours)`.
    pub fn new(seed: u64, hours: usize) -> Self {
        Self::for_providers(seed, hours, ProviderSet::aws_only())
            .expect("the AWS backend always exists")
    }

    /// [`FleetEnv::new`] over an explicit provider set: the candidate
    /// universe unions every member backend's evaluation regions, and the
    /// env carries the universe's provider bits so fleet evaluation
    /// streams and cache keys separate from the AWS-only ones.
    pub fn for_providers(
        seed: u64,
        hours: usize,
        providers: ProviderSet,
    ) -> Result<Self, caribou_model::error::ModelError> {
        // `scenario::World::new`'s three calls without its home: fleet
        // apps draw their homes from the universe, so a provider set
        // whose catalog lacks `us-east-1` (`gcp` alone) is a valid fleet.
        let cloud = SimCloud::for_providers(providers, seed)?;
        let universe = cloud.evaluation_regions();
        let carbon = RegionalSource::new(&cloud.regions, grid(seed))
            .expect("the catalog's grid zones are all calibrated");
        let provider_bits = cloud.regions.provider_bits(&universe);
        let forecast = universe
            .iter()
            .map(|&r| {
                let mut values = vec![0.0; hours];
                carbon.hourly(r, 0.0, &mut values);
                (r, values)
            })
            .collect();
        Ok(FleetEnv {
            cloud,
            universe,
            forecast,
            seed,
            hours,
            provider_bits,
        })
    }

    /// Cache/stream discriminator bits of the universe's non-AWS
    /// providers (0 on the default AWS-only environment).
    pub fn provider_bits(&self) -> u64 {
        self.provider_bits
    }

    /// The fleet seed the environment derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Simulated hours covered by the forecast.
    pub fn hours(&self) -> usize {
        self.hours
    }

    /// Applies forecast revisions in place.
    pub fn apply_perturbations(&mut self, perturbs: &[Perturbation]) {
        for p in perturbs {
            for r in p.touched(&self.universe) {
                let values = self
                    .forecast
                    .get_mut(r)
                    .expect("universe regions all have forecast series");
                values[p.hour] = p.apply(values[p.hour]);
            }
        }
    }

    /// Materializes the forecast as a [`TableSource`] for the solver.
    pub fn table(&self) -> TableSource {
        let mut table = TableSource::new();
        for (&r, values) in &self.forecast {
            table.insert(r, CarbonSeries::new(0, values.clone()));
        }
        table
    }
}

/// One solved `(app, hour)` cell: the chosen plan and its estimated
/// carbon per invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCell {
    /// The HBSS-selected deployment.
    pub plan: DeploymentPlan,
    /// Mean carbon of the selected plan, gCO₂eq per invocation.
    pub carbon_mean: f64,
}

/// The fleet's full schedule: one cell per `(app, hour)`, app-major.
///
/// A cell is shared, not owned: a re-plan's schedule holds the very cells
/// of the prior one it did not re-solve, so assembling it copies a handle
/// per cell and allocates only for the cells it solved.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    /// Applications covered.
    pub apps: usize,
    /// Hours covered per app.
    pub hours: usize,
    cells: Vec<Arc<FleetCell>>,
}

impl FleetSchedule {
    /// The cell for `(app, hour)`.
    pub fn cell(&self, app: usize, hour: usize) -> &FleetCell {
        &self.cells[app * self.hours + hour]
    }

    /// Order-sensitive digest over every plan and estimate — two
    /// schedules are bit-identical iff their digests match (up to hash
    /// collision), which the determinism smokes diff across worker
    /// counts.
    pub fn digest(&self) -> u64 {
        let mut d = 0xca1b_f1ee_7a44_d167u64;
        for cell in &self.cells {
            for r in cell.plan.assignment() {
                d = mix64(d ^ (r.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15));
            }
            d = mix64(d ^ cell.carbon_mean.to_bits());
        }
        d
    }

    /// Mean carbon of the whole schedule, gCO₂eq per invocation summed
    /// over apps and averaged over hours.
    pub fn total_carbon_mean(&self) -> f64 {
        if self.hours == 0 {
            return 0.0;
        }
        self.cells.iter().map(|c| c.carbon_mean).sum::<f64>() / self.hours as f64
    }
}

/// Result of one fleet (re-)plan run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Cells actually solved this run.
    pub solved_cells: usize,
    /// Cells reused verbatim from the prior schedule.
    pub reused_cells: usize,
    /// Distinct apps that re-entered HBSS.
    pub dirty_apps: usize,
    /// Estimate-cache entries dropped by forecast invalidation.
    pub cache_entries_invalidated: u64,
    /// Modeled carbon spent running this run's solves, gCO₂eq (§9.7
    /// solve-footprint accounting).
    pub solve_carbon_g: f64,
    /// Modeled solve carbon avoided by reusing prior cells, gCO₂eq.
    pub saved_solve_carbon_g: f64,
    /// The resulting schedule.
    pub schedule: FleetSchedule,
}

/// Solves the full `apps × hours` grid from scratch.
///
/// The cache may be cold or warm: cached estimates are bit-equal to
/// fresh computation, so the schedule is identical either way.
pub fn solve_fleet(
    apps: &[FleetApp],
    env: &FleetEnv,
    cfg: &FleetConfig,
    cache: &Arc<EstimateCache>,
) -> FleetReport {
    let all: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|a| (0..cfg.hours).map(move |h| (a, h)))
        .collect();
    let index = DependencyIndex::build(apps);
    run_cells(apps, env, cfg, cache, &index, None, &all, apps.len(), 0)
}

/// Incrementally re-plans after forecast revisions.
///
/// Drops the cache entries whose inputs `perturbs` touched, re-solves
/// exactly the dirty `(app, hour)` cells per the [`DependencyIndex`],
/// and shares every other cell of `prior`, handle for handle. The result is
/// bit-identical to [`solve_fleet`] against the revised environment.
///
/// `env` must already have the revisions applied
/// ([`FleetEnv::apply_perturbations`]), and `cache`/`prior` must come
/// from the pre-revision run.
pub fn replan_incremental(
    apps: &[FleetApp],
    env: &FleetEnv,
    cfg: &FleetConfig,
    cache: &Arc<EstimateCache>,
    prior: &FleetSchedule,
    perturbs: &[Perturbation],
) -> FleetReport {
    let index = DependencyIndex::build(apps);
    let dirty = index.dirty_cells(&env.universe, perturbs);

    // Invalidate stale estimates: per revised hour, the union of touched
    // regions. Surviving entries provably read only unrevised inputs.
    let mut by_hour: BTreeMap<usize, Vec<RegionId>> = BTreeMap::new();
    for p in perturbs {
        by_hour
            .entry(p.hour)
            .or_default()
            .extend_from_slice(p.touched(&env.universe));
    }
    let mut invalidated = 0u64;
    for (h, mut regions) in by_hour {
        regions.sort_unstable();
        regions.dedup();
        invalidated += cache.invalidate_hour(h as f64 + 0.5, &regions);
    }

    if caribou_telemetry::is_enabled() {
        caribou_telemetry::count("fleet.cache.invalidated", invalidated);
        for (h, n) in &dirty.per_hour {
            caribou_telemetry::event("fleet.invalidate", format!("h{h}"), *n as f64);
        }
    }
    run_cells(
        apps,
        env,
        cfg,
        cache,
        &index,
        Some(prior),
        &dirty.cells,
        dirty.apps,
        invalidated,
    )
}

/// Solves `cells` (fanned across the worker pool, folded at cell index)
/// and fills the remaining grid from `base`.
#[allow(clippy::too_many_arguments)]
fn run_cells(
    apps: &[FleetApp],
    env: &FleetEnv,
    cfg: &FleetConfig,
    cache: &Arc<EstimateCache>,
    index: &DependencyIndex,
    base: Option<&FleetSchedule>,
    cells: &[(usize, usize)],
    dirty_apps: usize,
    cache_entries_invalidated: u64,
) -> FleetReport {
    let table = env.table();
    let cases: Vec<Case<'_, DefaultModels<'_>>> = apps
        .iter()
        .map(|a| {
            Case::on_default_models(
                &env.cloud,
                a.home,
                &a.dag,
                &a.profile,
                TransmissionScenario::BEST,
                cfg.mc,
            )
        })
        .collect();
    let ctxs: Vec<SolverContext<'_, TableSource, DefaultModels<'_>>> = apps
        .iter()
        .zip(&cases)
        .map(|(a, case)| case.context(&a.permitted, a.tolerances, &table))
        .collect();
    // One engine per app: same solve seed, per-app fingerprint, the
    // env's provider bits, shared cache — the cross-app sharing contract
    // of `EvalEngine::with_cache_providers`.
    let engines: Vec<EvalEngine> = apps
        .iter()
        .map(|a| {
            EvalEngine::with_cache_providers(
                cfg.seed,
                a.fingerprint,
                env.provider_bits,
                1,
                Arc::clone(cache),
            )
        })
        .collect();
    let solver = HbssSolver {
        params: fleet_hbss_params(),
    };

    // Every cell is a pure function of (fleet seed, app, hour): the walk
    // RNG splits off those labels, so the pool may run cells in any
    // order on any worker and the fold below stays bit-identical.
    let (solved, stats) = pool::map_indexed(cfg.workers, cells.len(), |i| {
        let (a, h) = cells[i];
        let mut walk = SeedSplitter::new(cfg.seed)
            .absorb(FLEET_WALK_DOMAIN)
            .absorb(a as u64)
            .absorb(h as u64)
            .rng();
        let outcome = solver.solve_with(&engines[a], &ctxs[a], h as f64 + 0.5, &mut walk);
        Arc::new(FleetCell {
            plan: outcome.best,
            carbon_mean: outcome.best_estimate.carbon.mean,
        })
    });
    stats.emit();

    let grid = apps.len() * cfg.hours;
    let cells_out = match base {
        Some(prior) => {
            assert_eq!(prior.apps, apps.len());
            assert_eq!(prior.hours, cfg.hours);
            // The prior's cells by handle; the solved ones replace theirs.
            let mut out: Vec<Arc<FleetCell>> = prior.cells.iter().map(Arc::clone).collect();
            for (cell, &(a, h)) in solved.into_iter().zip(cells) {
                out[a * cfg.hours + h] = cell;
            }
            out
        }
        None => {
            // A from-scratch run solves the whole grid, app-major.
            assert_eq!(cells.len(), grid, "solve cells cover the grid");
            solved
        }
    };
    let schedule = FleetSchedule {
        apps: apps.len(),
        hours: cfg.hours,
        cells: cells_out,
    };

    // Modeled solve footprint (§9.7): one solve runs a vCPU for a
    // complexity-proportional time in the app's home region. The
    // complexity and the home's forecast row are the app's, so they are
    // taken once per app, the complexity from the read sets the index
    // already holds.
    let per_app: Vec<(usize, &[f64])> = apps
        .iter()
        .enumerate()
        .map(|(a, app)| {
            let complexity = app.dag.node_count() * index.reads(a).len();
            (complexity, env.forecast[&app.home].as_slice())
        })
        .collect();
    let cell_cost = |a: usize, h: usize| {
        let (complexity, home) = per_app[a];
        crate::tokens::solve_carbon_g(complexity, 1, true, home[h])
    };
    let solve_carbon_g: f64 = cells.iter().map(|&(a, h)| cell_cost(a, h)).sum();
    let full_carbon_g: f64 = (0..apps.len())
        .flat_map(|a| (0..cfg.hours).map(move |h| (a, h)))
        .map(|(a, h)| cell_cost(a, h))
        .sum();

    let report = FleetReport {
        solved_cells: cells.len(),
        reused_cells: grid - cells.len(),
        dirty_apps,
        cache_entries_invalidated,
        solve_carbon_g,
        saved_solve_carbon_g: full_carbon_g - solve_carbon_g,
        schedule,
    };
    if caribou_telemetry::is_enabled() {
        caribou_telemetry::count("fleet.cells.solved", report.solved_cells as u64);
        caribou_telemetry::count("fleet.cells.reused", report.reused_cells as u64);
        caribou_telemetry::count("fleet.apps.dirty", report.dirty_apps as u64);
        caribou_telemetry::gauge("fleet.solve_carbon_g", report.solve_carbon_g);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_workloads::fleet::generate_fleet;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            apps: 6,
            hours: 4,
            workers: 1,
            seed: 42,
            ..FleetConfig::default()
        }
    }

    /// Every value of a fleet's materialized forecast, pinned to the bit at
    /// three seeds: a change to how the grid's series is read must leave
    /// the digest alone.
    #[test]
    fn every_fleet_forecast_value_is_pinned() {
        let (mut values, mut digest) = (0u64, 0u64);
        for seed in [7, 42, 20231015] {
            let env = FleetEnv::new(seed, 24);
            for (r, series) in &env.forecast {
                digest = mix64(digest ^ (r.index() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15));
                for v in series {
                    digest = mix64(digest ^ v.to_bits());
                    values += 1;
                }
            }
        }
        assert_eq!(
            (values, digest),
            (288, 0x389c_7e1f_37d6_b258),
            "{values} values, digest {digest:#018x}"
        );
    }

    #[test]
    fn full_solve_is_worker_count_invariant_and_shares_estimates() {
        let cfg = small_cfg();
        let env = FleetEnv::new(cfg.seed, cfg.hours);
        let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
        let solve = |workers: usize| {
            let cache = EstimateCache::shared(cfg.cache_capacity);
            let cfg = FleetConfig { workers, ..cfg };
            let report = solve_fleet(&apps, &env, &cfg, &cache);
            (report, cache)
        };
        let (r1, c1) = solve(1);
        let (r4, _) = solve(4);
        assert_eq!(r1.schedule, r4.schedule);
        assert_eq!(r1.schedule.digest(), r4.schedule.digest());
        assert_eq!(r1.solved_cells, cfg.apps * cfg.hours);
        assert_eq!(r1.reused_cells, 0);
        assert!(
            c1.hit_count() > 0,
            "shared cache must hit across HBSS revisits and same-species apps"
        );
    }

    #[test]
    fn incremental_replan_matches_from_scratch_and_solves_fewer_cells() {
        let cfg = small_cfg();
        let env = FleetEnv::new(cfg.seed, cfg.hours);
        let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
        let cache = EstimateCache::shared(cfg.cache_capacity);
        let before = solve_fleet(&apps, &env, &cfg, &cache);

        // Revise one region at one hour.
        let target = env.universe[2];
        let perturbs = vec![Perturbation {
            hour: 1,
            region: Some(target),
            op: PerturbOp::Scale(3.0),
        }];
        let mut revised = FleetEnv::new(cfg.seed, cfg.hours);
        revised.apply_perturbations(&perturbs);

        let incremental =
            replan_incremental(&apps, &revised, &cfg, &cache, &before.schedule, &perturbs);
        let scratch = solve_fleet(
            &apps,
            &revised,
            &cfg,
            &EstimateCache::shared(cfg.cache_capacity),
        );
        assert_eq!(
            incremental.schedule, scratch.schedule,
            "incremental re-solve must be bit-identical to from-scratch"
        );
        assert!(
            incremental.solved_cells < before.solved_cells,
            "only dirty cells re-enter HBSS"
        );
        assert_eq!(
            incremental.solved_cells + incremental.reused_cells,
            cfg.apps * cfg.hours
        );
        assert!(incremental.saved_solve_carbon_g > 0.0);
        // Unperturbed cells are reused verbatim.
        for a in 0..cfg.apps {
            for h in 0..cfg.hours {
                if h != 1 {
                    assert_eq!(
                        incremental.schedule.cell(a, h),
                        before.schedule.cell(a, h),
                        "cell ({a},{h}) should be untouched"
                    );
                }
            }
        }
    }

    /// The re-plan pattern of the `fleet_replan` benchmark: 24 successive
    /// single-hour, single-region revisions, ×1.5 and ×0.67 in turn, each
    /// through `replan_incremental` at 1 and at 4 workers. Every schedule
    /// equals a from-scratch solve of the revised forecast, and every call
    /// drops the cache entries pinned here, captured on the cache that
    /// scanned every plan of every species per invalidation.
    #[test]
    fn hourly_revisions_replan_like_scratch_and_drop_the_pinned_entries() {
        const DROPPED: [u64; 24] = [
            57, 74, 81, 92, 47, 75, 77, 104, 60, 83, 72, 96, 64, 74, 84, 98, 47, 81, 83, 101, 48,
            77, 75, 88,
        ];
        let cfg = FleetConfig {
            apps: 16,
            hours: 24,
            seed: 42,
            ..FleetConfig::default()
        };
        let apps = generate_fleet(7, cfg.apps, &FleetEnv::new(cfg.seed, cfg.hours).universe);
        let revision = |env: &FleetEnv, h: usize| Perturbation {
            hour: h,
            region: Some(env.universe[h % env.universe.len()]),
            op: PerturbOp::Scale(if h.is_multiple_of(2) { 1.5 } else { 0.67 }),
        };
        let mut env = FleetEnv::new(cfg.seed, cfg.hours);
        let scratch: Vec<u64> = (0..cfg.hours)
            .map(|h| {
                env.apply_perturbations(&[revision(&env, h)]);
                let cache = EstimateCache::shared(cfg.cache_capacity);
                solve_fleet(&apps, &env, &cfg, &cache).schedule.digest()
            })
            .collect();
        for workers in [1, 4] {
            let cfg = FleetConfig { workers, ..cfg };
            let mut env = FleetEnv::new(cfg.seed, cfg.hours);
            let cache = EstimateCache::shared(cfg.cache_capacity);
            let mut schedule = solve_fleet(&apps, &env, &cfg, &cache).schedule;
            let mut dropped = Vec::new();
            for (h, &digest) in scratch.iter().enumerate() {
                let revisions = [revision(&env, h)];
                env.apply_perturbations(&revisions);
                let report = replan_incremental(&apps, &env, &cfg, &cache, &schedule, &revisions);
                assert_eq!(
                    report.schedule.digest(),
                    digest,
                    "revision {h}, {workers} workers"
                );
                dropped.push(report.cache_entries_invalidated);
                schedule = report.schedule;
            }
            assert_eq!(dropped, DROPPED, "{workers} workers");
        }
    }

    #[test]
    fn multi_provider_env_widens_the_universe_and_separates_streams() {
        let aws = FleetEnv::new(42, 4);
        assert_eq!(aws.provider_bits(), 0, "aws-only reserves bits 0");
        let both = FleetEnv::for_providers(42, 4, ProviderSet::parse("aws,gcp").unwrap()).unwrap();
        assert!(both.universe.len() > aws.universe.len());
        assert_ne!(both.provider_bits(), 0);
        // The AWS prefix of the universe is unchanged (same ids, same
        // forecast values), so aws-only fleets are untouched.
        assert_eq!(&both.universe[..aws.universe.len()], &aws.universe[..]);
        for &r in &aws.universe {
            assert_eq!(aws.forecast[&r], both.forecast[&r]);
        }
        // A cross-provider fleet solve stays worker-count invariant.
        let cfg = FleetConfig {
            apps: 4,
            hours: 2,
            seed: 42,
            ..FleetConfig::default()
        };
        let apps = generate_fleet(cfg.seed, cfg.apps, &both.universe);
        let solve = |workers: usize| {
            let cache = EstimateCache::shared(cfg.cache_capacity);
            let cfg = FleetConfig { workers, ..cfg };
            solve_fleet(&apps, &both, &cfg, &cache).schedule
        };
        assert_eq!(solve(1), solve(4));
    }

    #[test]
    fn env_perturbation_only_moves_the_targeted_value() {
        let mut env = FleetEnv::new(3, 6);
        let base = FleetEnv::new(3, 6);
        let r = env.universe[0];
        env.apply_perturbations(&[Perturbation {
            hour: 2,
            region: Some(r),
            op: PerturbOp::Shift(55.0),
        }]);
        for &u in &env.universe.clone() {
            for h in 0..6 {
                let (a, b) = (env.forecast[&u][h], base.forecast[&u][h]);
                if u == r && h == 2 {
                    assert_eq!(a, b + 55.0);
                } else {
                    assert_eq!(a, b);
                }
            }
        }
    }
}
