//! Contingency tables: precomputed ranked fallback plans (robustness
//! against correlated failures).
//!
//! Geospatial shifting concentrates work into the greenest regions,
//! which makes a correlated failure (a provider-wide outage, a shared
//! failure domain) take out exactly the regions the solver piled into.
//! Instead of improvising a re-route home at failure time, the solver
//! precomputes K fallback plan sets alongside the primary — each solved
//! over the plan space *minus* one region or one entire provider — and
//! emits them as a deterministic [`ContingencyTable`] the runtime can
//! switch to instantly.
//!
//! The marginal solve cost is mostly warm [`EstimateCache`] hits: the
//! fallback walks revisit the same `(plan, hour)` keys the primary solve
//! already evaluated, so only candidates unique to the reduced space pay
//! for Monte Carlo. Fallback walk seeds derive from a domain-separated
//! [`SeedSplitter`] chain, so the primary schedule is bit-identical to a
//! contingency-free solve and the whole bundle is bit-identical at any
//! worker count.
//!
//! [`EstimateCache`]: crate::engine::EstimateCache
//! [`SeedSplitter`]: caribou_model::rng::SeedSplitter

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::plan::{ContingencyEntry, ContingencyTable, Exclusion, HourlyPlans};
use caribou_model::region::{Provider, RegionId};
use caribou_model::rng::{Pcg32, SeedSplitter};

use crate::context::SolverContext;
use crate::engine::EvalEngine;
use crate::hbss::HbssSolver;
use crate::hourly::solve_hourly_with;

/// Domain label separating contingency walk seeds from every other
/// derivation chain in the workspace.
pub const CONTINGENCY_DOMAIN: u64 = 0xca1b_c0a7;

fn exclusion_salt(exclusion: &Exclusion) -> u64 {
    match exclusion {
        Exclusion::Region(r) => r.index() as u64,
        // Disjoint from any region index.
        Exclusion::Provider(p) => 0x1_0000_0000 | p.bit() as u64,
    }
}

/// Solves the primary 24-hour schedule plus up to `k` ranked fallback
/// plan sets.
///
/// The primary solve consumes `rng` exactly as [`solve_hourly_with`]
/// would, so it is byte-identical to a contingency-free run. Fallback
/// candidates are chosen from the primary's own exposure: every
/// non-home provider the primary uses (excluded wholesale) and every
/// non-home region it uses (excluded singly), ranked by assigned
/// node-hours. Each candidate re-solves over `ctx.permitted` minus the
/// excluded regions on a seed derived from
/// `(contingency_seed, CONTINGENCY_DOMAIN, exclusion)`; candidates whose
/// reduced space leaves some node with no permitted region are skipped.
/// Entries come back ranked coverage-first — provider-level exclusions
/// before single regions, ascending objective metric (mean across the
/// 24 hours) within each class — so the runtime's first covering match
/// is the broad fallback whenever one exists.
///
/// `topology` maps each region to its provider (the same pairs handed to
/// `FaultPlan::randomized_correlated`); regions absent from it never
/// form provider-level candidates.
#[allow(clippy::too_many_arguments)]
pub fn solve_hourly_with_contingency<S: CarbonDataSource + Sync, M: StageModels + Sync>(
    engine: &EvalEngine,
    solver: &HbssSolver,
    ctx: &SolverContext<'_, S, M>,
    topology: &[(RegionId, Provider)],
    day_start_hour: f64,
    generated_at_s: f64,
    expires_at_s: f64,
    rng: &mut Pcg32,
    contingency_seed: u64,
    k: usize,
) -> (HourlyPlans, ContingencyTable) {
    let primary = solve_hourly_with(
        engine,
        solver,
        ctx,
        day_start_hour,
        generated_at_s,
        expires_at_s,
        rng,
    );
    if k == 0 {
        return (primary, ContingencyTable::empty());
    }

    // Exposure: node-hours the primary assigns to each region.
    let mut usage: Vec<(RegionId, usize)> = Vec::new();
    for plan in primary.iter() {
        for &r in plan.assignment() {
            match usage.iter_mut().find(|(reg, _)| *reg == r) {
                Some((_, n)) => *n += 1,
                None => usage.push((r, 1)),
            }
        }
    }
    usage.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let provider_of = |r: RegionId| topology.iter().find(|(reg, _)| *reg == r).map(|(_, p)| *p);
    let home_provider = provider_of(ctx.home);

    // Candidates: provider-level exclusions first (they cover the
    // correlated failures a single-region entry cannot), then single
    // regions by descending exposure.
    let mut candidates: Vec<(Exclusion, Vec<RegionId>)> = Vec::new();
    for p in Provider::ALL {
        if Some(p) == home_provider {
            continue;
        }
        let exposed = usage
            .iter()
            .any(|&(r, _)| provider_of(r) == Some(p) && r != ctx.home);
        if !exposed {
            continue;
        }
        let mut excluded: Vec<RegionId> = topology
            .iter()
            .filter(|(_, tp)| *tp == p)
            .map(|(r, _)| *r)
            .collect();
        excluded.sort_unstable();
        candidates.push((Exclusion::Provider(p), excluded));
    }
    for &(r, _) in &usage {
        if r == ctx.home {
            continue;
        }
        candidates.push((Exclusion::Region(r), vec![r]));
    }
    candidates.truncate(k);

    let mut entries: Vec<ContingencyEntry> = Vec::new();
    for (exclusion, excluded) in candidates {
        let permitted: Vec<Vec<RegionId>> = ctx
            .permitted
            .iter()
            .map(|set| {
                set.iter()
                    .copied()
                    .filter(|r| !excluded.contains(r))
                    .collect()
            })
            .collect();
        if permitted.iter().any(|set: &Vec<RegionId>| set.is_empty()) {
            // Some node has nowhere left to run without these regions; a
            // fallback cannot exist.
            continue;
        }
        let fctx = ctx.with_permitted(&permitted);
        let mut frng = SeedSplitter::new(contingency_seed)
            .absorb(CONTINGENCY_DOMAIN)
            .absorb(exclusion_salt(&exclusion))
            .rng();
        let plans = solve_hourly_with(
            engine,
            solver,
            &fctx,
            day_start_hour,
            generated_at_s,
            expires_at_s,
            &mut frng,
        );
        // Rank by the mean objective across the day. Every (plan, hour)
        // was just evaluated inside the fallback solve, so these are all
        // cache hits.
        let metric = (0..24)
            .map(|h| {
                let hour = day_start_hour + h as f64 + 0.5;
                ctx.metric_of(&engine.evaluate(ctx, plans.plan_for_hour(h), hour))
            })
            .sum::<f64>()
            / 24.0;
        entries.push(ContingencyEntry {
            exclusion,
            excluded_regions: excluded,
            plans,
            metric,
        });
    }
    // Coverage-first ranking: provider-level entries precede region
    // entries, metric-ascending within each class. A foreign region
    // failing is treated as evidence of a correlated provider event, so
    // the runtime escalates to the broad fallback immediately instead of
    // burning a trip-detect round on each sibling region.
    let class = |e: &ContingencyEntry| match e.exclusion {
        Exclusion::Provider(_) => 0u8,
        Exclusion::Region(_) => 1,
    };
    entries.sort_by(|a, b| {
        class(a)
            .cmp(&class(b))
            .then(
                a.metric
                    .partial_cmp(&b.metric)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then_with(|| a.exclusion.label().cmp(&b.exclusion.label()))
    });
    if caribou_telemetry::is_enabled() {
        caribou_telemetry::count("solver.contingency.entries", entries.len() as u64);
    }
    (primary, ContingencyTable { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
    use caribou_metrics::costmodel::CostModel;
    use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
    use caribou_model::builder::Workflow;
    use caribou_model::constraints::{Objective, Tolerances};
    use caribou_model::dag::WorkflowDag;
    use caribou_model::profile::WorkflowProfile;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::compute::LambdaRuntime;
    use caribou_simcloud::latency::LatencyModel;
    use caribou_simcloud::orchestration::Orchestrator;
    use caribou_simcloud::pricing::PricingCatalog;

    struct World {
        cat: RegionCatalog,
        pricing: PricingCatalog,
        runtime: LambdaRuntime,
        latency: LatencyModel,
        carbon: TableSource,
        dag: WorkflowDag,
        profile: WorkflowProfile,
    }

    /// Multi-cloud world where gcp:us-west1 is always cleanest, aws
    /// us-west-2 second, and home (us-east-1) dirtiest — so the primary
    /// piles into gcp and fallbacks are forced elsewhere.
    fn world() -> World {
        let cloud = SimCloud::with_catalog(RegionCatalog::multi_cloud(), 0);
        let (cat, pricing, mut runtime, latency) =
            (cloud.regions, cloud.pricing, cloud.compute, cloud.latency);
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        let gcp_west = cat.id_of_qualified(Provider::Gcp, "us-west1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        let mut carbon = TableSource::new();
        for (id, _) in cat.iter() {
            let v = if id == gcp_west {
                30.0
            } else if id == west {
                90.0
            } else {
                380.0
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 48]));
        }
        let mut wf = Workflow::new("w", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(caribou_model::dist::DistSpec::Constant { value: 6.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(caribou_model::dist::DistSpec::Constant { value: 6.0 })
            .register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        World {
            cat,
            pricing,
            runtime,
            latency,
            carbon,
            dag,
            profile,
        }
    }

    fn solve(w: &World, workers: usize, k: usize) -> (HourlyPlans, ContingencyTable, u64, u64) {
        let east = w.cat.id_of("us-east-1").unwrap();
        let gcp_west = w.cat.id_of_qualified(Provider::Gcp, "us-west1").unwrap();
        let west = w.cat.id_of("us-west-2").unwrap();
        let permitted = vec![vec![east, west, gcp_west]; 2];
        let models = DefaultModels {
            profile: &w.profile,
            runtime: &w.runtime,
            latency: &w.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &w.dag,
            profile: &w.profile,
            permitted: &permitted,
            home: east,
            objective: Objective::Carbon,
            tolerances: Tolerances {
                latency: 2.0,
                cost: 2.0,
                carbon: f64::INFINITY,
            },
            carbon_source: &w.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&w.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let topology: Vec<(RegionId, Provider)> =
            w.cat.iter().map(|(id, spec)| (id, spec.provider)).collect();
        let engine = EvalEngine::new(99, workers);
        let solver = HbssSolver::new();
        let (primary, table) = solve_hourly_with_contingency(
            &engine,
            &solver,
            &ctx,
            &topology,
            0.0,
            0.0,
            86_400.0,
            &mut Pcg32::seed(1),
            7,
            k,
        );
        (primary, table, engine.hit_count(), engine.miss_count())
    }

    #[test]
    fn primary_is_identical_to_contingency_free_solve() {
        let w = world();
        let (with, _, _, _) = solve(&w, 1, 3);
        let (without, table0, _, _) = solve(&w, 1, 0);
        assert_eq!(with, without);
        assert!(table0.is_empty());
    }

    #[test]
    fn fallbacks_avoid_their_exclusions_and_cover_provider_loss() {
        let w = world();
        let gcp_west = w.cat.id_of_qualified(Provider::Gcp, "us-west1").unwrap();
        let (primary, table, hits, misses) = solve(&w, 1, 3);
        // The cleanest region is gcp — the primary must be exposed to it
        // for the provider candidate to exist at all.
        assert!(primary.regions_used().contains(&gcp_west));
        let gcp_entry = table
            .entries
            .iter()
            .find(|e| e.exclusion == Exclusion::Provider(Provider::Gcp))
            .expect("provider-level fallback present");
        for r in gcp_entry.plans.regions_used() {
            assert!(
                !gcp_entry.excluded_regions.contains(&r),
                "fallback uses excluded region {r:?}"
            );
            assert_ne!(w.cat.spec(r).provider, Provider::Gcp);
        }
        // A provider-wide gcp loss resolves to that entry.
        let down: Vec<RegionId> = w
            .cat
            .iter()
            .filter(|(_, s)| s.provider == Provider::Gcp)
            .map(|(id, _)| id)
            .collect();
        let picked = table.best_for(&down, 0.0).expect("fallback for gcp loss");
        assert_eq!(
            table.entries[picked].exclusion,
            Exclusion::Provider(Provider::Gcp)
        );
        // Ranking is coverage-first: provider entries lead, and within a
        // class the metric ascends.
        let class = |e: &ContingencyEntry| match e.exclusion {
            Exclusion::Provider(_) => 0u8,
            Exclusion::Region(_) => 1,
        };
        for pair in table.entries.windows(2) {
            assert!(class(&pair[0]) <= class(&pair[1]));
            if class(&pair[0]) == class(&pair[1]) {
                assert!(pair[0].metric <= pair[1].metric);
            }
        }
        // The fallback solves mostly re-walk cached (plan, hour) keys.
        assert!(hits > misses, "hits {hits} vs misses {misses}");
    }

    #[test]
    fn bundle_is_bit_identical_across_worker_counts() {
        let w = world();
        let (p1, t1, _, _) = solve(&w, 1, 3);
        let (p2, t2, _, _) = solve(&w, 2, 3);
        let (p8, t8, _, _) = solve(&w, 8, 3);
        assert_eq!(p1, p2);
        assert_eq!(p1, p8);
        assert_eq!(t1, t2);
        assert_eq!(t1, t8);
    }

    #[test]
    fn k_caps_the_entry_count() {
        let w = world();
        let (_, table, _, _) = solve(&w, 1, 1);
        assert_eq!(table.len(), 1);
        // The single slot goes to the provider-level candidate.
        assert!(matches!(table.entries[0].exclusion, Exclusion::Provider(_)));
    }
}
