//! Multi-cloud integration: GCP regions participate fully, same-grid
//! regions share intensity across providers, provider compliance
//! constraints hold, provider-asymmetric faults never alias colocated
//! regions, and cross-provider solves are worker-count invariant.

use std::sync::Arc;

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::{CarbonDataSource, ForecastingSource, RegionalSource, TableSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_core::scenario::{cli_constraints, Case, World, CARBON_EPOCH};
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
use caribou_model::builder::Workflow;
use caribou_model::constraints::{Constraints, RegionFilter};
use caribou_model::dag::NodeId;
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{Provider, ProviderSet, RegionCatalog};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::{EstimateCache, EvalEngine};
use caribou_solver::hbss::HbssSolver;
use caribou_solver::hourly::solve_hourly_with;
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};
use proptest::prelude::*;

#[test]
fn multi_cloud_catalog_is_complete() {
    let cat = RegionCatalog::multi_cloud();
    assert!(cat.len() >= 15);
    let gcp: Vec<_> = cat
        .iter()
        .filter(|(_, s)| s.provider == Provider::Gcp)
        .collect();
    assert_eq!(gcp.len(), 5);
    // Every region's grid zone has a calibrated carbon profile.
    let synth = SyntheticCarbonSource::aws_calibrated(1);
    for (_, spec) in cat.iter() {
        assert!(
            synth.has_zone(&spec.grid_zone),
            "missing {}",
            spec.grid_zone
        );
    }
    // Latency, pricing, and compute cover the new regions.
    let cloud = SimCloud::with_catalog(cat, 1);
    let gcp_qc = cloud.region("northamerica-northeast1").unwrap();
    let aws_east = cloud.region("us-east-1").unwrap();
    assert!(cloud.latency.rtt(aws_east, gcp_qc) > 0.005);
    assert!(cloud.pricing.region(gcp_qc).lambda_gb_second > 0.0);
}

#[test]
fn same_grid_regions_share_intensity_across_providers() {
    let cat = RegionCatalog::multi_cloud();
    let src = RegionalSource::new(&cat, SyntheticCarbonSource::aws_calibrated(2)).unwrap();
    // AWS us-west-2 and GCP us-west1 both sit on the Pacific Northwest
    // grid; AWS ca-central-1 and GCP northamerica-northeast1 on Québec's.
    let pairs = [
        ("us-west-2", "us-west1"),
        ("ca-central-1", "northamerica-northeast1"),
    ];
    for (aws, gcp) in pairs {
        let a = cat.id_of(aws).unwrap();
        let g = cat.id_of(gcp).unwrap();
        for h in [0.0, 13.0, 100.0] {
            assert_eq!(
                src.intensity(a, h),
                src.intensity(g, h),
                "{aws} vs {gcp} at hour {h}"
            );
        }
    }
}

#[test]
fn provider_filter_excludes_foreign_clouds() {
    let cat = RegionCatalog::multi_cloud();
    let universe = cat.all_ids();
    let home = cat.id_of("us-east-1").unwrap();
    let dag = {
        let mut wf = caribou_model::builder::Workflow::new("wf", "0.1");
        let a = wf.serverless_function("A").register();
        let b = wf.serverless_function("B").register();
        wf.invoke(a, b, None);
        wf.extract_dag().unwrap()
    };
    let mut c = Constraints::unconstrained(2);
    c.workflow = RegionFilter {
        allowed_providers: vec![Provider::Aws],
        ..RegionFilter::default()
    };
    let permitted = c.permitted_regions(&dag, &universe, &cat, home).unwrap();
    for set in &permitted {
        for r in set {
            assert_eq!(
                cat.spec(*r).provider,
                Provider::Aws,
                "{} leaked through the provider filter",
                cat.name(*r)
            );
        }
    }
    // The inverse filter yields GCP-only (plus the always-permitted home).
    let mut g = Constraints::unconstrained(2);
    g.workflow = RegionFilter {
        allowed_providers: vec![Provider::Gcp],
        ..RegionFilter::default()
    };
    let permitted = g.permitted_regions(&dag, &universe, &cat, home).unwrap();
    for set in &permitted {
        for r in set {
            assert!(cat.spec(*r).provider == Provider::Gcp || *r == home);
        }
    }
}

fn two_stage_app(cloud: &SimCloud) -> WorkflowApp {
    let mut wf = Workflow::new("wf", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 1.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Constant { value: 2.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 10_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    WorkflowApp {
        name: "wf".into(),
        dag,
        profile,
        home: cloud.region("aws:us-east-1").unwrap(),
    }
}

/// Provider-asymmetric chaos (§6.1 across clouds): an outage of one
/// provider's region re-routes the offloaded stage across the provider
/// boundary without losing the invocation, and the *colocated* region of
/// the other provider — same grid zone, different `RegionId` — is
/// untouched by the fault.
#[test]
fn provider_asymmetric_outage_reroutes_without_aliasing_colocated_region() {
    let set = ProviderSet::parse("aws,gcp").unwrap();
    let World {
        mut cloud, carbon, ..
    } = World::new(set, 61, 61).unwrap();
    let app = two_stage_app(&cloud);
    let gcp_west = cloud.region("gcp:us-west1").unwrap();
    let aws_west = cloud.region("aws:us-west-2").unwrap();
    assert_ne!(gcp_west, aws_west);
    assert_eq!(
        cloud.regions.spec(gcp_west).grid_zone,
        cloud.regions.spec(aws_west).grid_zone,
        "test premise: the two regions share a grid"
    );
    cloud.set_faults(FaultPlan::none().with_outage(gcp_west, 0.0, 1e9));
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };

    // Stage 1 planned into the dead GCP region: the failover crosses the
    // provider boundary back to the AWS home and completes.
    let mut plan = DeploymentPlan::uniform(2, app.home);
    plan.set(NodeId(1), gcp_west);
    engine.provision(&mut cloud, &app, &plan);
    let out = engine.invoke(&mut cloud, &app, &plan, 1, 100.0, &mut Pcg32::seed(1));
    assert!(out.completed, "invocation lost in cross-provider failover");
    assert!(out.failovers >= 1);
    assert_eq!(out.failed_region, Some(gcp_west));
    let rec = out.log.nodes.iter().find(|r| r.node == 1).unwrap();
    assert_eq!(rec.region, app.home, "stage 1 fell back across providers");
    assert_eq!(cloud.regions.spec(rec.region).provider, Provider::Aws);

    // The same plan shape through the colocated AWS region is clean: the
    // outage is keyed by RegionId, never by name or grid zone.
    let mut plan = DeploymentPlan::uniform(2, app.home);
    plan.set(NodeId(1), aws_west);
    engine.provision(&mut cloud, &app, &plan);
    let out = engine.invoke(&mut cloud, &app, &plan, 2, 300.0, &mut Pcg32::seed(2));
    assert!(out.completed);
    assert_eq!(
        out.failovers, 0,
        "outage aliased onto the colocated other-provider region"
    );
    let rec = out.log.nodes.iter().find(|r| r.node == 1).unwrap();
    assert_eq!(rec.region, aws_west);
}

/// Builds the `caribou plan text2speech [--providers ...]` solver world
/// and hands `f` the context, the universe's provider bits and the region
/// catalog. The context borrows a pile of locals, hence the closure shape.
fn with_plan_ctx<R>(
    set: ProviderSet,
    f: impl FnOnce(
        &SolverContext<'_, ForecastingSource<'_, RegionalSource>, DefaultModels<'_>>,
        u64,
        &RegionCatalog,
    ) -> R,
) -> R {
    let world = World::new(set, 7, CARBON_EPOCH).unwrap();
    let (cloud, regions) = (&world.cloud, &world.regions);
    let bench = all_benchmarks(InputSize::Small)
        .into_iter()
        .find(|b| b.dag.name().contains("text2speech"))
        .unwrap();
    let constraints = cli_constraints(&bench);
    let permitted = constraints
        .permitted_regions(&bench.dag, regions, &cloud.regions, world.home)
        .unwrap();
    let forecast = ForecastingSource::fit(&world.carbon, regions, 0.0, 48);
    let case = world.case(
        &bench,
        TransmissionScenario::BEST,
        MonteCarloConfig::default(),
    );
    let ctx = case.context(&permitted, constraints.tolerances, &forecast);
    f(&ctx, cloud.regions.provider_bits(regions), &cloud.regions)
}

/// Seeded cross-provider win (the acceptance scenario): with `aws,gcp`
/// the solver splits the Text2Speech DAG across both providers and beats
/// the best aws-only plan on carbon, deterministically at any worker
/// count.
#[test]
fn cross_provider_plan_splits_dag_and_beats_single_provider_carbon() {
    // Mirrors `caribou plan text2speech [--providers ...]` at hour 12.5.
    let solve = |set: ProviderSet| -> (Vec<Provider>, f64) {
        with_plan_ctx(set, |ctx, bits, catalog| {
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::with_cache_providers(
                    7,
                    0,
                    bits,
                    workers,
                    EstimateCache::shared(4096),
                );
                solver.solve_with(&engine, ctx, 12.5, &mut Pcg32::seed(7))
            };
            let base = solve_at(1);
            // Worker-count invariance of the cross-provider solve.
            let wide = solve_at(4);
            assert_eq!(base.best.assignment(), wide.best.assignment());
            assert_eq!(base.best_estimate, wide.best_estimate);
            let providers = base
                .best
                .assignment()
                .iter()
                .map(|r| catalog.spec(*r).provider)
                .collect();
            (providers, ctx.metric_of(&base.best_estimate))
        })
    };

    let (aws_providers, aws_best) = solve(ProviderSet::aws_only());
    assert!(aws_providers.iter().all(|p| *p == Provider::Aws));
    let (multi_providers, multi_best) = solve(ProviderSet::parse("aws,gcp").unwrap());
    assert!(
        multi_providers.contains(&Provider::Aws) && multi_providers.contains(&Provider::Gcp),
        "plan must split the DAG across providers, got {multi_providers:?}"
    );
    assert!(
        multi_best < aws_best,
        "cross-provider plan must beat the single-provider best: {multi_best} vs {aws_best}"
    );
}

/// The 24-hour `plan --hourly --providers aws,gcp` schedule: identical
/// (cache traffic included) at 1 and 4 workers, offloading to the second
/// provider, with hour-to-hour estimate reuse surviving the
/// provider-qualified cache key — and that key really is qualified: an
/// aws-only engine on the same cache misses on a plan the cross-provider
/// engine hits.
#[test]
fn cross_provider_hourly_solve_reuses_estimates_under_a_provider_keyed_cache() {
    with_plan_ctx(
        ProviderSet::parse("aws,gcp").unwrap(),
        |ctx, bits, catalog| {
            assert_ne!(bits, 0, "aws,gcp universe must carry non-AWS bits");
            let solve_at = |workers: usize| {
                let engine = EvalEngine::with_cache_providers(
                    7,
                    0,
                    bits,
                    workers,
                    EstimateCache::shared(1 << 16),
                );
                let plans = solve_hourly_with(
                    &engine,
                    &HbssSolver::new(),
                    ctx,
                    0.0,
                    0.0,
                    86_400.0,
                    &mut Pcg32::seed(7),
                );
                (plans, engine)
            };
            let (plans, cross) = solve_at(1);
            let (wide, wide_engine) = solve_at(4);
            assert_eq!(plans, wide, "worker count changed the schedule");
            let (hits, misses) = (cross.hit_count(), cross.miss_count());
            assert_eq!(
                (hits, misses),
                (wide_engine.hit_count(), wide_engine.miss_count())
            );
            assert!(
                (0..24).any(|h| plans
                    .plan_for_hour(h)
                    .assignment()
                    .iter()
                    .any(|r| catalog.spec(*r).provider != Provider::Aws)),
                "no hour offloaded to the second provider"
            );
            assert!(
                hits * 5 >= hits + misses,
                "cold hit rate below 0.20: {hits} hits, {misses} misses"
            );

            // Hour 0's winner was evaluated at hour 0.5, so it is cached
            // under the cross-provider bits: that engine hits, a bits-0
            // engine sharing the cache must compute its own.
            let probe = plans.plan_for_hour(0);
            cross.evaluate(ctx, probe, 0.5);
            assert_eq!((cross.hit_count(), cross.miss_count()), (hits + 1, misses));
            let aws_only = EvalEngine::with_cache_providers(7, 0, 0, 1, Arc::clone(cross.cache()));
            aws_only.evaluate(ctx, probe, 0.5);
            assert_eq!(
                (aws_only.hit_count(), aws_only.miss_count()),
                (hits + 1, misses + 1),
                "aws-only engine read a provider-qualified cache entry"
            );
        },
    );
}

/// Builds a small cross-provider two-node world for the determinism
/// proptest — same shape as `tests/solver_determinism.rs`, but over a
/// multi-provider cloud whose permitted sets span AWS and GCP.
fn with_cross_ctx<R>(
    f: impl FnOnce(&SolverContext<'_, TableSource, DefaultModels<'_>>, u64) -> R,
) -> R {
    let set = ProviderSet::parse("aws,gcp").unwrap();
    let cloud = SimCloud::for_providers(set, 9).unwrap();
    let cat = &cloud.regions;
    let east = cat.resolve("aws:us-east-1").unwrap();
    let aws_ca = cat.resolve("aws:ca-central-1").unwrap();
    let gcp_qc = cat.resolve("gcp:northamerica-northeast1").unwrap();
    let gcp_west = cat.resolve("gcp:us-west1").unwrap();
    // Diurnal structure so different hours pick different winners, with
    // the cheapest regions on both sides of the provider boundary.
    let mut carbon = TableSource::new();
    for (id, _) in cat.iter() {
        let values: Vec<f64> = (0..24)
            .map(|h| {
                if id == gcp_west {
                    if h < 12 {
                        55.0
                    } else {
                        700.0
                    }
                } else if id == gcp_qc {
                    35.0
                } else if id == aws_ca {
                    40.0 + 5.0 * (h % 4) as f64
                } else {
                    390.0
                }
            })
            .collect();
        carbon.insert(id, CarbonSeries::new(0, values));
    }
    let mut wf = Workflow::new("w", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 5.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Uniform { lo: 4.0, hi: 8.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 8_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    let mut span = vec![east, aws_ca, gcp_west, gcp_qc];
    span.sort_unstable();
    let permitted = vec![span.clone(), span.clone()];
    let case = Case::on_default_models(
        &cloud,
        east,
        &dag,
        &profile,
        TransmissionScenario::BEST,
        MonteCarloConfig {
            batch: 60,
            max_samples: 120,
            cv_threshold: 0.1,
        },
    );
    let tolerances = caribou_model::constraints::Tolerances {
        latency: 0.5,
        cost: 0.5,
        carbon: f64::INFINITY,
    };
    let ctx = case.context(&permitted, tolerances, &carbon);
    let bits = cat.provider_bits(&span);
    f(&ctx, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-provider solves are bit-identical at 1, 2 and 8 workers for
    /// any (engine seed, walk seed, hour) — the provider bits extend the
    /// evaluation streams but never make them depend on scheduling.
    #[test]
    fn cross_provider_solve_is_worker_count_invariant(
        engine_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        hour_idx in 0u8..24,
    ) {
        with_cross_ctx(|ctx, bits| {
            assert_ne!(bits, 0, "aws+gcp universe must set non-AWS bits");
            let hour = hour_idx as f64 + 0.5;
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::with_cache_providers(
                    engine_seed, 0, bits, workers, EstimateCache::shared(4096),
                );
                solver.solve_with(&engine, ctx, hour, &mut Pcg32::seed(walk_seed))
            };
            let base = solve_at(1);
            for w in [2usize, 8] {
                let other = solve_at(w);
                assert_eq!(base.best.assignment(), other.best.assignment());
                assert_eq!(base.best_estimate, other.best_estimate);
                assert_eq!(base.home_estimate, other.home_estimate);
                assert_eq!(base.evaluated, other.evaluated);
            }
        });
    }
}
