//! Hourly plan-set generation (§5.1, §5.2).
//!
//! To capture diurnal carbon patterns, one solve produces 24 plans — one
//! per hour of the coming day — using forecast carbon data. When the
//! carbon budget only affords a daily granularity, a single plan is solved
//! against the day's average intensity and replicated.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::plan::HourlyPlans;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::context::SolverContext;
use crate::engine::EvalEngine;
use crate::hbss::HbssSolver;
use crate::pool;

/// A carbon source that answers every query with the day-average of an
/// underlying source — the signal a daily-granularity solve sees.
pub struct DayAveragedSource<'a, S: CarbonDataSource> {
    inner: &'a S,
    day_start_hour: f64,
}

impl<'a, S: CarbonDataSource> DayAveragedSource<'a, S> {
    /// Wraps `inner`, averaging over the day starting at `day_start_hour`.
    pub fn new(inner: &'a S, day_start_hour: f64) -> Self {
        DayAveragedSource {
            inner,
            day_start_hour,
        }
    }
}

impl<S: CarbonDataSource> CarbonDataSource for DayAveragedSource<'_, S> {
    fn intensity(&self, region: RegionId, _hour: f64) -> f64 {
        self.inner
            .average(region, self.day_start_hour, self.day_start_hour + 24.0)
    }

    fn counts_queries(&self) -> bool {
        self.inner.counts_queries()
    }
}

/// A carbon source that keeps, for one solve, what the grid reads at the
/// solve's hour: the underlying source is asked once per region there,
/// when the row is built, and every other query passes through.
///
/// Its values live for one [`HbssSolver::solve_with`] and no longer: an
/// engine reused after a forecast revision then sees the revised
/// forecast, which a memo kept beside the engine's scratch would not. Only
/// the buffer outlives the solve, in the walk's scratch, and every row is
/// filled afresh. A source that counts its queries is never answered for.
pub(crate) struct HourRow<'a, S: CarbonDataSource> {
    inner: &'a S,
    hour: f64,
    /// By region index, the intensity at `hour`; `NaN` for a region the
    /// row was not built over, which passes through.
    row: &'a [f64],
}

impl<'a, S: CarbonDataSource> HourRow<'a, S> {
    /// The row of `inner` at `hour` over `regions`, each read once, in
    /// `row`, whatever it held before.
    pub(crate) fn fill(
        inner: &'a S,
        hour: f64,
        regions: impl Iterator<Item = RegionId> + Clone,
        row: &'a mut Vec<f64>,
    ) -> Self {
        row.clear();
        if !inner.counts_queries() {
            let len = regions.clone().map(|r| r.index() + 1).max();
            row.resize(len.unwrap_or(0), f64::NAN);
            for r in regions {
                if row[r.index()].is_nan() {
                    row[r.index()] = inner.intensity(r, hour);
                }
            }
        }
        HourRow { inner, hour, row }
    }
}

impl<S: CarbonDataSource> CarbonDataSource for HourRow<'_, S> {
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        match self.row.get(region.index()) {
            Some(&value) if hour == self.hour && !value.is_nan() => value,
            _ => self.inner.intensity(region, hour),
        }
    }

    fn counts_queries(&self) -> bool {
        self.inner.counts_queries()
    }
}

/// Solves 24 hourly plans starting at `day_start_hour` (hours since the
/// epoch) with HBSS, fanning the hours across the engine's worker pool.
///
/// The per-hour walk generators are pre-forked from `rng` in hour order —
/// exactly the forks a sequential loop would draw — and every candidate
/// evaluation folds the engine's draw bank, so the returned schedule is
/// bit-identical at any worker count. The engine's estimate cache and
/// bank are shared across all 24 solves.
pub fn solve_hourly_with<S: CarbonDataSource + Sync, M: StageModels + Sync>(
    engine: &EvalEngine,
    solver: &HbssSolver,
    ctx: &SolverContext<'_, S, M>,
    day_start_hour: f64,
    generated_at_s: f64,
    expires_at_s: f64,
    rng: &mut Pcg32,
) -> HourlyPlans {
    let hrngs: Vec<Pcg32> = (0..24).map(|h| rng.fork(h as u64)).collect();
    let (plans, stats) = pool::map_indexed(engine.workers(), 24, |h| {
        let mut hrng = hrngs[h].clone();
        solver
            .solve_with(engine, ctx, day_start_hour + h as f64 + 0.5, &mut hrng)
            .best
    });
    stats.emit();
    HourlyPlans::hourly(plans, generated_at_s, expires_at_s)
}

/// Solves one daily plan against day-averaged carbon and replicates it.
///
/// The averaged source answers the same hour keys differently from `ctx`'s
/// own, so `engine` must not also serve an hourly solve of `ctx`.
pub fn solve_daily<S: CarbonDataSource, M: StageModels>(
    engine: &EvalEngine,
    solver: &HbssSolver,
    ctx: &SolverContext<'_, S, M>,
    day_start_hour: f64,
    generated_at_s: f64,
    expires_at_s: f64,
    rng: &mut Pcg32,
) -> HourlyPlans {
    let averaged = DayAveragedSource::new(ctx.carbon_source, day_start_hour);
    let day_ctx = ctx.with_source(&averaged);
    let best = solver
        .solve_with(engine, &day_ctx, day_start_hour + 12.0, rng)
        .best;
    HourlyPlans::daily(best, generated_at_s, expires_at_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SolveOutcome;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
    use caribou_metrics::costmodel::CostModel;
    use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
    use caribou_model::builder::Workflow;
    use caribou_model::constraints::{Objective, Tolerances};
    use caribou_model::dag::NodeId;
    use caribou_model::dist::DistSpec;
    use caribou_model::plan::{DeploymentPlan, PlanGranularity};
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::orchestration::Orchestrator;
    use std::sync::Mutex;

    #[test]
    fn hourly_plans_follow_diurnal_carbon() {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        // Two-region world: us-east-1 flat at 380; us-west-2 is cleaner at
        // night (hours 0-11) and dirtier during the day (hours 12-23).
        let mut carbon = TableSource::new();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        for (id, _) in cat.iter() {
            let values: Vec<f64> = (0..24)
                .map(|h| {
                    if id == west {
                        if h < 12 {
                            50.0
                        } else {
                            900.0
                        }
                    } else {
                        380.0
                    }
                })
                .collect();
            carbon.insert(id, CarbonSeries::new(0, values));
        }

        let mut wf = Workflow::new("w", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 6.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 6.0 })
            .register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let permitted = vec![vec![east, west], vec![east, west]];
        let models = DefaultModels {
            profile: &profile,
            runtime: &runtime,
            latency: &latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home: east,
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: 0.8,
                cost: 0.8,
                carbon: f64::INFINITY,
            },
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let solver = HbssSolver::new();
        // Night hours offload to the clean west, day hours stay east, and
        // the schedule is bit-identical no matter how many workers fan it
        // out.
        let schedule_at = |workers: usize| {
            let engine = EvalEngine::new(99, workers);
            let plans = solve_hourly_with(
                &engine,
                &solver,
                &ctx,
                0.0,
                0.0,
                86_400.0,
                &mut Pcg32::seed(1),
            );
            assert!(engine.hit_count() > 0, "cache never hit");
            plans
        };
        let w1 = schedule_at(1);
        let w4 = schedule_at(4);
        assert_eq!(w1, w4);
        assert_eq!(w1.granularity, PlanGranularity::Hourly);
        assert_eq!(w1.plan_for_hour(3).region_of(NodeId(0)), west);
        assert_eq!(w1.plan_for_hour(15).region_of(NodeId(0)), east);
    }

    #[test]
    fn daily_plan_replicates_single_solution() {
        let cloud = SimCloud::aws(0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        let mut carbon = TableSource::new();
        for (id, _) in cat.iter() {
            carbon.insert(id, CarbonSeries::new(0, vec![200.0; 24]));
        }
        let mut wf = Workflow::new("w", "0.1");
        wf.serverless_function("A").register();
        let (dag, profile, _) = wf.extract().unwrap();
        let east = cat.id_of("us-east-1").unwrap();
        let permitted = vec![cat.evaluation_regions()];
        let models = DefaultModels {
            profile: &profile,
            runtime: &runtime,
            latency: &latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home: east,
            objective: Objective::Carbon,
            tolerances: Tolerances::default(),
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let solver = HbssSolver::new();
        let engine = EvalEngine::new(1, 1);
        let plans = solve_daily(&engine, &solver, &ctx, 0.0, 5.0, 10.0, &mut Pcg32::seed(1));
        assert_eq!(plans.granularity, PlanGranularity::Daily);
        let first = plans.plan_for_hour(0).clone();
        for h in 1..24 {
            assert_eq!(*plans.plan_for_hour(h), first);
        }
        assert_eq!(plans.generated_at, 5.0);
        assert_eq!(plans.expires_at, 10.0);
    }

    /// A table that tallies how often each region is asked, and says
    /// whether that tally is an output.
    struct Asked {
        table: TableSource,
        counts_queries: bool,
        asked: Mutex<Vec<u64>>,
    }

    impl Asked {
        fn of(table: TableSource, counts_queries: bool) -> Self {
            Asked {
                table,
                counts_queries,
                asked: Mutex::new(vec![0; 64]),
            }
        }

        fn tally(&self) -> Vec<u64> {
            self.asked.lock().unwrap().clone()
        }
    }

    impl CarbonDataSource for Asked {
        fn intensity(&self, region: RegionId, hour: f64) -> f64 {
            self.asked.lock().unwrap()[region.index()] += 1;
            self.table.intensity(region, hour)
        }

        fn counts_queries(&self) -> bool {
            self.counts_queries
        }
    }

    /// Two days of a grid where every region has its own level and its
    /// own hours; `revised` swaps the levels end for end.
    fn grid(cloud: &SimCloud, revised: bool) -> TableSource {
        let n = cloud.regions.iter().count();
        let mut carbon = TableSource::new();
        for (k, (id, _)) in cloud.regions.iter().enumerate() {
            let level = if revised { n - 1 - k } else { k };
            let values = (0..48).map(|h| 60.0 + 45.0 * level as f64 + 9.0 * ((h + k) % 5) as f64);
            carbon.insert(id, CarbonSeries::new(0, values.collect()));
        }
        carbon
    }

    /// Runs `f` on a two-stage workflow (the second stage fetches external
    /// data) homed in us-east-1, free to go anywhere at any price, reading
    /// `carbon`.
    fn with_ctx<S: CarbonDataSource, R>(
        cloud: &SimCloud,
        carbon: &S,
        f: impl FnOnce(&SolverContext<'_, S, DefaultModels<'_>>) -> R,
    ) -> R {
        let mut wf = Workflow::new("w", "0.1");
        let stage = DistSpec::Uniform { lo: 3.0, hi: 6.0 };
        let a = wf
            .serverless_function("A")
            .exec_time(stage.clone())
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(stage)
            .external_data_bytes(2.0e5)
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 20_000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        let permitted = vec![cloud.regions.iter().map(|(id, _)| id).collect(); 2];
        let models = DefaultModels {
            profile: &profile,
            runtime: &cloud.compute,
            latency: &cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        f(&SolverContext {
            dag: &dag,
            profile: &profile,
            permitted: &permitted,
            home: cloud.regions.id_of("us-east-1").unwrap(),
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: f64::INFINITY,
                cost: f64::INFINITY,
                carbon: f64::INFINITY,
            },
            carbon_source: carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&cloud.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 50,
                max_samples: 100,
                cv_threshold: 0.05,
            },
        })
    }

    /// What a solve returns, with the floats comparable.
    fn told(outcome: &SolveOutcome) -> impl PartialEq + std::fmt::Debug {
        (
            outcome.best.clone(),
            outcome.best_estimate,
            outcome.home_estimate,
            outcome.evaluated,
        )
    }

    /// The plans of the two-node space `engine` holds an estimate of at
    /// `hour`: the ones a solve on it visited.
    fn visited<S: CarbonDataSource>(
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, DefaultModels<'_>>,
        hour: f64,
    ) -> Vec<DeploymentPlan> {
        let mut plans = Vec::new();
        for a in &ctx.permitted[0] {
            for b in &ctx.permitted[1] {
                let plan = DeploymentPlan::new(vec![*a, *b]);
                if engine.is_cached(&plan, hour) {
                    plans.push(plan);
                }
            }
        }
        plans
    }

    const HOUR: f64 = 7.5;

    fn solve<S: CarbonDataSource>(
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, DefaultModels<'_>>,
    ) -> SolveOutcome {
        HbssSolver::new().solve_with(engine, ctx, HOUR, &mut Pcg32::seed(5))
    }

    #[test]
    fn a_solve_asks_a_plain_source_once_per_region() {
        let cloud = SimCloud::aws(0);
        let plain = with_ctx(&cloud, &grid(&cloud, false), |ctx| {
            told(&solve(&EvalEngine::new(3, 1), ctx))
        });
        let asked = Asked::of(grid(&cloud, false), false);
        with_ctx(&cloud, &asked, |ctx| {
            let engine = EvalEngine::new(3, 1);
            assert_eq!(told(&solve(&engine, ctx)), plain);
            assert!(engine.miss_count() > 20, "{} misses", engine.miss_count());
        });
        let tally = asked.tally();
        let regions = cloud.regions.iter().count();
        assert!(tally[..regions].iter().all(|n| *n == 1), "{tally:?}");
        assert_eq!(tally.iter().sum::<u64>(), regions as u64);
    }

    #[test]
    fn a_source_that_counts_its_queries_is_asked_every_time() {
        let cloud = SimCloud::aws(0);
        let plain = with_ctx(&cloud, &grid(&cloud, false), |ctx| {
            told(&solve(&EvalEngine::new(3, 1), ctx))
        });
        let asked = Asked::of(grid(&cloud, false), true);
        let (misses, away) = with_ctx(&cloud, &asked, |ctx| {
            let engine = EvalEngine::new(3, 1);
            let outcome = solve(&engine, ctx);
            assert_eq!(told(&outcome), plain);
            // Every plan visited was a miss once.
            let visited = visited(&engine, ctx, HOUR);
            assert_eq!(engine.miss_count(), outcome.evaluated as u64);
            assert_eq!(visited.len(), outcome.evaluated);
            let away = visited
                .iter()
                .filter(|plan| plan.region_of(NodeId(1)) != ctx.home)
                .count();
            (engine.miss_count(), away as u64)
        });
        // What a solve with no row asks: the ranking's read per permitted
        // region, then per estimate both ends of the entry and of the edge,
        // both nodes, and both ends of an offloaded stage's fetch.
        let regions = cloud.regions.iter().count() as u64;
        let total: u64 = asked.tally().iter().sum();
        assert_eq!(total, regions + 6 * misses + 2 * away);
    }

    #[test]
    fn a_forecast_revised_between_two_solves_on_one_engine_is_seen() {
        let cloud = SimCloud::aws(0);
        let (before, after) = (grid(&cloud, false), grid(&cloud, true));
        let engine = EvalEngine::new(3, 1);
        let first = with_ctx(&cloud, &before, |ctx| told(&solve(&engine, ctx)));
        let all: Vec<RegionId> = cloud.regions.iter().map(|(id, _)| id).collect();
        assert!(engine.cache().invalidate_hour(HOUR, &all) > 0);
        with_ctx(&cloud, &after, |ctx| {
            let again = told(&solve(&engine, ctx));
            assert_eq!(again, told(&solve(&EvalEngine::new(3, 1), ctx)));
            assert_ne!(again, first, "the revision moved nothing");
        });
    }

    #[test]
    fn a_daily_solve_averages_each_region_once_and_moves_no_bit() {
        let cloud = SimCloud::aws(0);
        let asked = Asked::of(grid(&cloud, false), false);
        with_ctx(&cloud, &asked, |ctx| {
            let solver = HbssSolver::new();
            let plans = solve_daily(
                &EvalEngine::new(3, 1),
                &solver,
                ctx,
                0.0,
                0.0,
                86_400.0,
                &mut Pcg32::seed(5),
            );
            let tally = asked.tally();
            assert!(tally.iter().all(|n| *n == 0 || *n == 24), "{tally:?}");
            // The same solve, its estimates recomputed with no row in
            // between: every average taken anew, the same bits.
            let averaged = DayAveragedSource::new(ctx.carbon_source, 0.0);
            let day_ctx = ctx.with_source(&averaged);
            let engine = EvalEngine::new(3, 1);
            let outcome = solver.solve_with(&engine, &day_ctx, 12.0, &mut Pcg32::seed(5));
            assert_eq!(*plans.plan_for_hour(0), outcome.best);
            let direct = EvalEngine::new(3, 1);
            let anew = |plan: &DeploymentPlan| direct.evaluate(&day_ctx, plan, 12.0);
            assert_eq!(outcome.best_estimate, anew(&outcome.best));
            assert_eq!(outcome.home_estimate, anew(&day_ctx.home_plan()));
            for plan in visited(&engine, &day_ctx, 12.0) {
                assert_eq!(engine.evaluate(&day_ctx, &plan, 12.0), anew(&plan));
            }
        });
    }
}
