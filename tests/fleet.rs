//! Integration tests for the fleet subsystem: multi-tenant solving with
//! the cross-app estimate cache and incremental hourly re-solve.
//!
//! The load-bearing property is **incremental-equivalence**: after an
//! arbitrary single-hour forecast revision, [`replan_incremental`] — which
//! re-solves only the dependency-indexed dirty cells over the warm,
//! partially-invalidated cache — must produce a schedule bit-identical to
//! a from-scratch [`solve_fleet`] against the revised forecast, at every
//! worker count. This is what makes the dependency index and the cache's
//! `invalidate_hour` hook *sound*, not just fast.

use std::collections::BTreeMap;
use std::sync::Arc;

use caribou_core::fleet::{
    replan_incremental, solve_fleet, DependencyIndex, FleetConfig, FleetEnv, FleetSchedule,
    PerturbOp, Perturbation,
};
use caribou_model::region::ProviderSet;
use caribou_solver::engine::{EstimateCache, EvalEngine};
use caribou_workloads::fleet::{generate_fleet, FleetApp};
use proptest::prelude::*;

/// Worker counts exercised everywhere: serial, even split, oversubscribed.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn cfg(workers: usize) -> FleetConfig {
    FleetConfig {
        apps: 10,
        hours: 3,
        workers,
        seed: 33,
        ..FleetConfig::default()
    }
}

fn fixture(workers: usize) -> (FleetConfig, FleetEnv, Vec<FleetApp>) {
    let cfg = cfg(workers);
    let env = FleetEnv::new(cfg.seed, cfg.hours);
    let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
    (cfg, env, apps)
}

/// Strategy for one forecast revision within the fixture's bounds:
/// any hour, any single region or all regions, scale or shift.
fn perturbation() -> impl Strategy<Value = (usize, Option<usize>, bool, f64)> {
    (
        0usize..3,     // hour
        0usize..5,     // region selector: 0..4 target one region, 4 = all
        any::<bool>(), // scale vs shift
        0.25f64..4.0,  // magnitude
    )
        .prop_map(|(hour, region_sel, scale, magnitude)| {
            let region = if region_sel < 4 {
                Some(region_sel)
            } else {
                None
            };
            (hour, region, scale, magnitude)
        })
}

fn build_perturbation(
    env: &FleetEnv,
    (hour, region_idx, scale, magnitude): (usize, Option<usize>, bool, f64),
) -> Perturbation {
    Perturbation {
        hour,
        region: region_idx.map(|i| env.universe[i % env.universe.len()]),
        op: if scale {
            PerturbOp::Scale(magnitude)
        } else {
            // Map [0.25, 4) onto a signed shift spanning ±200 gCO2eq/kWh.
            PerturbOp::Shift((magnitude - 2.125) * 106.0)
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 3: after an arbitrary single-hour forecast perturbation,
    /// incremental re-solve is bit-identical to a from-scratch full fleet
    /// solve — at 1, 2, and 8 workers.
    #[test]
    fn incremental_replan_equals_from_scratch(raw in perturbation()) {
        let (_, base_env, apps) = fixture(1);
        let perturb = build_perturbation(&base_env, raw);
        let perturbs = vec![perturb];

        let mut schedules: Vec<FleetSchedule> = Vec::new();
        for &w in &WORKER_COUNTS {
            let (cfg, env, _) = fixture(w);
            let cache: Arc<EstimateCache> = EstimateCache::shared(cfg.cache_capacity);
            let before = solve_fleet(&apps, &env, &cfg, &cache);

            let mut revised = FleetEnv::new(cfg.seed, cfg.hours);
            revised.apply_perturbations(&perturbs);
            let inc = replan_incremental(&apps, &revised, &cfg, &cache, &before.schedule, &perturbs);

            let scratch = solve_fleet(
                &apps,
                &revised,
                &cfg,
                &EstimateCache::shared(cfg.cache_capacity),
            );
            prop_assert_eq!(
                &inc.schedule, &scratch.schedule,
                "incremental != from-scratch at {} workers", w
            );
            prop_assert_eq!(inc.schedule.digest(), scratch.schedule.digest());
            prop_assert_eq!(
                inc.solved_cells + inc.reused_cells,
                cfg.apps * cfg.hours
            );
            // A single-hour revision never re-solves more than one cell
            // per app — strictly fewer than the full grid.
            prop_assert!(inc.solved_cells <= cfg.apps);
            prop_assert!(inc.solved_cells < cfg.apps * cfg.hours);
            schedules.push(inc.schedule);
        }
        // And the incremental result itself is worker-count invariant.
        prop_assert_eq!(&schedules[0], &schedules[1]);
        prop_assert_eq!(&schedules[0], &schedules[2]);
    }
}

/// Full fleet solves are bit-identical at every worker count, and the
/// shared cache sees cross-app hits (structurally identical species
/// share estimates).
/// A fingerprint names one app: over the AWS and the AWS+GCP universes,
/// 400 apps each, every two apps that share a fingerprint — and with it
/// one cache table and one draw bank — have equal DAGs, profiles and homes.
#[test]
fn apps_of_one_fingerprint_are_one_app() {
    let aws_gcp = ProviderSet::parse("aws,gcp").unwrap();
    let envs = [
        FleetEnv::new(42, 1),
        FleetEnv::for_providers(42, 1, aws_gcp).unwrap(),
    ];
    for env in envs {
        let apps = generate_fleet(42, 400, &env.universe);
        let mut by_fp: BTreeMap<u64, &FleetApp> = BTreeMap::new();
        let mut shared = 0;
        for app in &apps {
            let Some(first) = by_fp.insert(app.fingerprint, app) else {
                continue;
            };
            let at = format!("{} and {}", first.name, app.name);
            assert!(first.dag == app.dag, "{at}: one fingerprint, two DAGs");
            assert!(first.profile == app.profile, "{at}: two profiles");
            assert_eq!(first.home, app.home, "{at}: two homes");
            shared += 1;
        }
        assert!(shared > 100, "{shared} of 400 apps share a fingerprint");
    }
}

#[test]
fn full_solve_worker_invariance_and_cross_app_sharing() {
    let mut digests = Vec::new();
    for &w in &WORKER_COUNTS {
        let (cfg, env, apps) = fixture(w);
        let cache = EstimateCache::shared(cfg.cache_capacity);
        let report = solve_fleet(&apps, &env, &cfg, &cache);
        assert!(cache.hit_count() > 0, "cache must hit at {w} workers");
        digests.push(report.schedule.digest());
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

/// Species sharing is load-bearing, not incidental: on a 32-app x 8-hour
/// fleet at least 30% of a cold solve's estimate lookups are served from
/// the shared cache, and a second solve over that cache recomputes
/// nothing — same schedule, not one new miss.
#[test]
fn cold_solve_shares_estimates_and_warm_resolve_adds_no_misses() {
    let cfg = FleetConfig {
        apps: 32,
        hours: 8,
        workers: 1,
        seed: 42,
        ..FleetConfig::default()
    };
    let env = FleetEnv::new(cfg.seed, cfg.hours);
    let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
    // What one solve over `cache` returns and how many lookups it missed.
    let solve = |cache: &Arc<EstimateCache>| {
        let before = cache.miss_count();
        let report = solve_fleet(&apps, &env, &cfg, cache);
        (report.schedule, cache.miss_count() - before)
    };
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let (cold, cold_misses) = solve(&cache);
    let hits = cache.hit_count();
    assert!(
        hits * 10 >= (hits + cold_misses) * 3,
        "cold hit rate below 0.30: {hits} hits, {cold_misses} misses"
    );
    let (warm, warm_misses) = solve(&cache);
    assert_eq!(warm, cold, "warm re-solve diverged");
    assert_eq!(warm_misses, 0, "warm re-solve recomputed cached estimates");
}

/// Every fold's record is kept at one worker: a miss folds there only
/// where the record its table keeps falls short, so a traced solve counts
/// folds and not one `montecarlo.folds_raced` (a fold whose record lost to
/// another worker's).
#[test]
fn a_one_worker_solve_keeps_every_fold() {
    let cfg = FleetConfig {
        apps: 32,
        hours: 6,
        workers: 1,
        seed: 42,
        ..FleetConfig::default()
    };
    let env = FleetEnv::new(cfg.seed, cfg.hours);
    let apps = generate_fleet(cfg.seed, cfg.apps, &env.universe);
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    solve_fleet(
        &apps,
        &env,
        &cfg,
        &EstimateCache::shared(cfg.cache_capacity),
    );
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    assert!(recorder.counter("montecarlo.folds") > 0);
    assert_eq!(recorder.counter("montecarlo.folds_raced"), 0);
}

/// The dependency index is conservative and precise: a region-targeted
/// revision dirties exactly the apps whose permitted sets read that
/// region, and those apps re-solve only at the revised hour.
#[test]
fn dirty_set_matches_forecast_read_sets() {
    let (cfg, env, apps) = fixture(1);
    let index = DependencyIndex::build(&apps);
    let target = env.universe[3];
    let perturbs = vec![Perturbation {
        hour: 2,
        region: Some(target),
        op: PerturbOp::Scale(1.9),
    }];
    let dirty = index.dirty_cells(&env.universe, &perturbs);
    for a in 0..cfg.apps {
        let expects = index.reads(a).contains(&target);
        let got = dirty.cells.iter().any(|&(da, _)| da == a);
        assert_eq!(expects, got, "app {a} dirtiness mismatches its read set");
    }
    assert!(dirty.cells.iter().all(|&(_, h)| h == 2));
}

/// Cache capacity does not change results: a severely bounded cache
/// (forcing constant eviction) still yields the identical schedule,
/// because cached estimates are bit-equal to fresh computation. And what
/// the bounded cache keeps does not depend on the worker count: eviction
/// retains the smallest keys, so the schedule cells still cached at the
/// end are the same at 1, 2 and 8 workers.
#[test]
fn tiny_cache_capacity_preserves_schedules() {
    let (cfg, env, apps) = fixture(1);
    let unbounded = solve_fleet(
        &apps,
        &env,
        &cfg,
        &EstimateCache::shared(cfg.cache_capacity),
    );
    let mut still_cached = Vec::new();
    for &workers in &WORKER_COUNTS {
        let tiny_cache = EstimateCache::shared(8);
        let tiny_cfg = FleetConfig {
            cache_capacity: 8,
            workers,
            ..cfg
        };
        let tiny = solve_fleet(&apps, &env, &tiny_cfg, &tiny_cache);
        assert!(tiny_cache.eviction_count() > 0, "capacity 8 must evict");
        assert_eq!(unbounded.schedule, tiny.schedule, "at {workers} workers");
        assert_eq!(tiny_cache.len(), 8);
        let cached: Vec<(usize, usize)> = apps
            .iter()
            .enumerate()
            .flat_map(|(a, app)| {
                let engine = EvalEngine::with_cache_providers(
                    cfg.seed,
                    app.fingerprint,
                    env.provider_bits(),
                    1,
                    Arc::clone(&tiny_cache),
                );
                let plans = &tiny.schedule;
                (0..cfg.hours)
                    .filter(move |&h| engine.is_cached(&plans.cell(a, h).plan, h as f64 + 0.5))
                    .map(move |h| (a, h))
            })
            .collect();
        still_cached.push(cached);
    }
    assert!(!still_cached[0].is_empty(), "no schedule cell survived");
    assert_eq!(still_cached[0], still_cached[1]);
    assert_eq!(still_cached[0], still_cached[2]);
}

/// A forecast revision re-prices; it does not re-fold. Doubling every
/// region at one hour scales every candidate's carbon by an exact power
/// of two, so the re-solve walks the plans the first solve walked — and
/// every one of them still has its hour-free record in the cache: the
/// invalidated estimates are recomputed without a single fold, and the
/// schedule still equals a from-scratch solve of the revised forecast.
#[test]
fn replan_after_a_revision_reprices_kept_records() {
    let (cfg, env, apps) = fixture(1);
    let cache = EstimateCache::shared(cfg.cache_capacity);
    let before = solve_fleet(&apps, &env, &cfg, &cache);
    let perturbs = vec![Perturbation {
        hour: 1,
        region: None,
        op: PerturbOp::Scale(2.0),
    }];
    let mut revised = FleetEnv::new(cfg.seed, cfg.hours);
    revised.apply_perturbations(&perturbs);

    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    let misses = cache.miss_count();
    let inc = replan_incremental(&apps, &revised, &cfg, &cache, &before.schedule, &perturbs);
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    assert!(inc.cache_entries_invalidated > 0);
    assert_eq!(recorder.counter("montecarlo.folds"), 0);
    assert_eq!(
        recorder.counter("montecarlo.repriced"),
        cache.miss_count() - misses
    );
    assert!(recorder.counter("montecarlo.repriced") > 0);

    let scratch = solve_fleet(
        &apps,
        &revised,
        &cfg,
        &EstimateCache::shared(cfg.cache_capacity),
    );
    assert_eq!(inc.schedule, scratch.schedule);
}
