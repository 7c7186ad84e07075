//! Deterministic parallel evaluation engine with plan-keyed estimate
//! caching.
//!
//! Every candidate evaluation is a *pure function* of the engine's solve
//! seed, the app fingerprint, the provider bits, the plan assignment, and
//! the solve hour. The randomness is the species' *draw bank*: one stream
//! split off (solve seed, fingerprint, provider bits) through a
//! [`SeedSplitter`] names it, every DAG site draws its own columns from
//! it once, and an estimate folds those columns with its plan's
//! constants and prices them at its hour — so two candidates of one solve
//! differ only where their plans differ (common random numbers), and no
//! walk generator is ever threaded through an estimate. One cache = one
//! frozen context per (fingerprint, provider bits) = one bank per
//! (fingerprint, provider bits): engines on one [`EstimateCache`] that
//! agree on both take the same bank from it. Purity buys four properties
//! at once:
//!
//! 1. **Worker-count independence** — no evaluation consumes state
//!    another evaluation produced, so fanning candidates across a
//!    [`pool`] of threads returns bit-identical estimates at 1, 2, or 64
//!    workers.
//! 2. **Cache soundness** — a cached summary is bit-equal to what a
//!    fresh computation would return, so a lookup can replace
//!    [`MonteCarloConfig::batch`]-sized sampling without shifting any
//!    solve result — and bounded eviction can drop any entry without
//!    shifting one either.
//! 3. **Cross-solve sharing** — one engine (its cache and its bank) is
//!    safely shared across HBSS iterations and across the 24 hourly
//!    solves: the hour is part of the key, and a bank column's values do
//!    not depend on which estimate extended it, or how far.
//! 4. **Cross-app sharing** — a fleet of structurally identical apps can
//!    share one [`EstimateCache`] through per-app engines created with
//!    [`EvalEngine::with_cache_providers`]: the app's structural *fingerprint* is
//!    part of both the key and the bank stream, so two apps only share
//!    an entry when their estimates are provably bit-equal.
//!
//! The cache is **plan-major**: `(fingerprint, provider bits) →
//! assignment → { regions touched, the plan's hour-free record, hour-bits
//! → carbon }`. An hour only ever moves an estimate's carbon, so a plan's
//! latency and cost — at every stopping-rule boundary its fold reached,
//! the [`PlanRecord`] — are kept once per plan, and what is kept per
//! (plan, hour) is the carbon summary and the sample count it stopped at.
//! A hit reassembles the two halves. A miss hands the estimator the
//! plan's record: if it covers where this hour's rule stops, the estimate
//! is a *re-pricing* of the bank's derived columns, and the fold runs
//! only for a plan seen for the first time (or further than before). The
//! hour key is the bit pattern of the solve hour — exact rather than
//! floored because carbon sources may be continuous in the hour; two
//! solves only share an entry when their estimates are provably
//! identical.
//!
//! The cache is **bounded**: past [`EstimateCache::capacity`] hour
//! entries the largest `(fingerprint, bits, assignment, hour-bits)` keys
//! are evicted (a plan leaves with its last hour). Because the maps are
//! ordered and eviction keeps the smallest `capacity` keys, the retained
//! *set* depends only on which keys were ever inserted — never on
//! insertion order — so a run's cache contents stay worker-count
//! independent, and soundness (property 2) means eviction can only cost
//! recomputation, never correctness.
//!
//! Plans remember which regions their estimates read (the plan's regions
//! plus home, the only regions the pricing pass queries the carbon source
//! for). [`EstimateCache::invalidate_hour`] uses that to drop exactly the
//! hour entries a forecast revision touches — the hook the fleet
//! subsystem's incremental re-solve builds on. The plan's record stays:
//! a forecast cannot move latency or cost, so the re-solve re-prices and
//! does not re-fold.
//!
//! Hit/miss/eviction tallies accumulate in atomics behind
//! [`EstimateCache::hit_count`] and friends, and each probe and eviction
//! also counts `solver.cache.hit` / `solver.cache.miss` /
//! `solver.cache.evictions` into the telemetry session of the thread it
//! ran on (pool tasks have one whenever the coordinator does). Under
//! parallel misses of the same key the tallies — and with them the
//! estimator's `montecarlo.folds` / `montecarlo.repriced` split of the
//! misses — may differ by a few counts between runs; the cached *values*
//! never do.
//!
//! [`MonteCarloConfig::batch`]: caribou_metrics::montecarlo::MonteCarloConfig

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::bank::SharedBank;
use caribou_metrics::fold::PlanRecord;
use caribou_metrics::montecarlo::{CarbonSummary, EstimateScratch, EstimateSummary, StageModels};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::{Pcg32, SeedSplitter};

use crate::context::SolverContext;
use crate::pool;

/// Domain-separation label for evaluation streams, so an engine seed
/// never collides with other subsystems splitting the same master seed.
const EVAL_DOMAIN: u64 = 0xca1b_0e5e_e7a1_0001;

/// Domain-separation label mixed with the provider bits, so a provider
/// absorb never collides with a fingerprint absorb of the same numeric
/// value.
const PROVIDER_DOMAIN: u64 = 0xca1b_0e5e_e7a1_0002;

/// Default [`EstimateCache`] capacity: large enough that single-app
/// solves (24-hour schedules visit a few thousand distinct plans) never
/// evict, small enough to bound a week-long fleet run.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Whose estimates share draws and entries: `(app fingerprint, provider
/// bits)`. Provider bits are 0 for AWS-only plan spaces, non-zero when
/// the universe spans providers — so cross-provider estimates can never
/// be served to a single-provider solve or vice versa.
type Species = (u64, u64);

/// What the cache keeps of one plan.
#[derive(Debug)]
struct PlanEntry {
    /// The regions its estimates read from the carbon source (assignment
    /// ∪ home) — the dependency record invalidation uses.
    touched: Vec<RegionId>,
    /// Latency and cost at every boundary a fold of the plan reached.
    record: Arc<PlanRecord>,
    /// Ascending solve-hour bits → that hour's carbon.
    hours: Vec<(u64, CarbonSummary)>,
}

impl PlanEntry {
    fn hour(&self, bits: u64) -> Result<usize, usize> {
        self.hours.binary_search_by_key(&bits, |(hour, _)| *hour)
    }

    /// The estimate at an hour, reassembled from its two halves.
    fn estimate_at(&self, hour_bits: u64) -> Option<EstimateSummary> {
        let carbon = self.hours[self.hour(hour_bits).ok()?].1;
        let hour_free = self.record.at(carbon.carbon.n)?;
        Some(EstimateSummary::from_halves(hour_free, carbon))
    }
}

#[derive(Debug, Default)]
struct SpeciesEntry {
    bank: SharedBank,
    plans: BTreeMap<Vec<RegionId>, PlanEntry>,
}

#[derive(Debug, Default)]
struct Store {
    species: BTreeMap<Species, SpeciesEntry>,
    /// Hour entries over all plans: what the capacity bounds.
    len: usize,
}

/// A bounded, shareable estimate cache.
///
/// One cache may back many [`EvalEngine`]s at once (the fleet case); the
/// per-engine fingerprint keeps streams and keys of different app
/// structures apart while letting identical structures share. All
/// operations take `&self`; the maps sit behind a [`Mutex`] and the
/// tallies in atomics so worker threads can use it directly.
#[derive(Debug)]
pub struct EstimateCache {
    capacity: usize,
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EstimateCache {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        EstimateCache {
            capacity: capacity.max(1),
            store: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a shareable cache for cross-engine use.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("cache lock")
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(plan, hour)` entries currently cached.
    pub fn len(&self) -> usize {
        self.store().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (across every engine sharing this cache).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct evaluations computed, absent races).
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound so far.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The draw bank every engine of `species` on this cache reads.
    fn bank(&self, species: Species) -> SharedBank {
        self.store()
            .species
            .entry(species)
            .or_default()
            .bank
            .clone()
    }

    /// The cached estimate of `(plan, hour)`, or else the plan's record
    /// for the estimator to go by (`None`: the plan was never folded).
    fn probe(
        &self,
        species: Species,
        assignment: &[RegionId],
        hour_bits: u64,
    ) -> Result<EstimateSummary, Option<Arc<PlanRecord>>> {
        let probed = {
            let store = self.store();
            let species = store.species.get(&species);
            match species.and_then(|s| s.plans.get(assignment)) {
                None => Err(None),
                Some(plan) => plan
                    .estimate_at(hour_bits)
                    .ok_or_else(|| Some(Arc::clone(&plan.record))),
            }
        };
        let (tally, counter) = match probed {
            Ok(_) => (&self.hits, "solver.cache.hit"),
            Err(_) => (&self.misses, "solver.cache.miss"),
        };
        tally.fetch_add(1, Ordering::Relaxed);
        caribou_telemetry::count(counter, 1);
        probed
    }

    /// Stores the carbon half of an estimate of `(plan, hour)` and the
    /// `record` its other half came from, which replaces the plan's when
    /// it reaches further.
    fn insert(
        &self,
        species: Species,
        assignment: &[RegionId],
        hour_bits: u64,
        home: RegionId,
        record: Arc<PlanRecord>,
        carbon: CarbonSummary,
    ) {
        let mut guard = self.store();
        let store = &mut *guard;
        let plans = &mut store.species.entry(species).or_default().plans;
        match plans.get_mut(assignment) {
            Some(plan) => {
                if record.boundaries() > plan.record.boundaries() {
                    plan.record = record;
                }
                match plan.hour(hour_bits) {
                    Ok(at) => plan.hours[at].1 = carbon,
                    Err(at) => {
                        plan.hours.insert(at, (hour_bits, carbon));
                        store.len += 1;
                    }
                }
            }
            None => {
                // The estimator queries the carbon source only for the
                // plan's regions and home (transmission endpoints and
                // execution sites) — record them so forecast revisions
                // can invalidate precisely.
                let mut touched = assignment.to_vec();
                touched.push(home);
                touched.sort_unstable();
                touched.dedup();
                let plan = PlanEntry {
                    touched,
                    record,
                    hours: vec![(hour_bits, carbon)],
                };
                plans.insert(assignment.to_vec(), plan);
                store.len += 1;
            }
        }
        // Deterministic eviction: keep the `capacity` smallest keys. The
        // retained set is a pure function of the inserted key set, so it
        // cannot depend on worker count or scheduling.
        while store.len > self.capacity {
            let last = store
                .species
                .values_mut()
                .rev()
                .find_map(|s| s.plans.last_entry());
            let mut last = last.expect("hour entries belong to plans");
            if last.get_mut().hours.pop().is_some() {
                store.len -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                caribou_telemetry::count("solver.cache.evictions", 1);
            }
            if last.get().hours.is_empty() {
                last.remove();
            }
        }
    }

    /// Drops every entry whose estimate was computed at `hour` *and* read
    /// any of `regions` from the carbon source. Returns the number of
    /// entries dropped.
    ///
    /// This is the forecast-revision hook: after the carbon forecast for
    /// `hour` changes in `regions`, the surviving entries are exactly the
    /// ones whose inputs are untouched, so serving them stays bit-equal
    /// to recomputing against the revised forecast. The plans' records
    /// survive too — a forecast moves no latency and no cost — so the
    /// recomputation is a re-pricing.
    pub fn invalidate_hour(&self, hour: f64, regions: &[RegionId]) -> u64 {
        let bits = hour.to_bits();
        let mut store = self.store();
        let mut dropped = 0;
        let plans = store
            .species
            .values_mut()
            .flat_map(|s| s.plans.values_mut());
        for plan in plans {
            if let Ok(at) = plan.hour(bits) {
                if plan.touched.iter().any(|r| regions.contains(r)) {
                    plan.hours.remove(at);
                    dropped += 1;
                }
            }
        }
        store.len -= dropped;
        dropped as u64
    }
}

/// The deterministic parallel evaluation engine.
///
/// One engine instance corresponds to one logical solve (or one solve
/// batch, like a 24-hour plan generation) of one app against one frozen
/// [`SolverContext`] data set. Do **not** reuse an engine after the
/// profile, models or stopping rule behind the context changed: the bank
/// holds draws of the old ones and the cache their folds. A revised
/// forecast alone is fine once the stale entries were dropped through
/// [`EstimateCache::invalidate_hour`] — carbon enters an estimate as a
/// constant, not as a draw.
pub struct EvalEngine {
    solve_seed: u64,
    fingerprint: u64,
    provider_bits: u64,
    workers: usize,
    cache: Arc<EstimateCache>,
    /// The draws every estimate of this engine reads: the cache's bank
    /// for this engine's (fingerprint, provider bits), so engines that
    /// share estimates share the draws behind them. It grows to the
    /// samples the context actually needed.
    bank: SharedBank,
    /// Pool of estimator scratch buffers (fold columns), all on `bank`. A
    /// cache miss checks one out for the duration of the estimate and
    /// returns it afterwards, so a solve's misses re-allocate fold state
    /// only until the pool has one scratch per concurrently-evaluating
    /// worker.
    scratch: Mutex<Vec<EstimateScratch>>,
}

impl EvalEngine {
    /// Creates an engine for one solve, with a private cache (and so a
    /// private bank).
    ///
    /// `solve_seed` determines every evaluation stream; `workers` caps
    /// the fan-out of [`evaluate_many`](Self::evaluate_many) (1 = fully
    /// sequential, same results).
    pub fn new(solve_seed: u64, workers: usize) -> Self {
        Self::with_cache_providers(
            solve_seed,
            0,
            0,
            workers,
            EstimateCache::shared(DEFAULT_CACHE_CAPACITY),
        )
    }

    /// Creates an engine whose evaluations are keyed and seeded by an app
    /// `fingerprint` and a provider set, and stored in a shared `cache`.
    ///
    /// Sharing contract: every engine on one cache must use the same
    /// `solve_seed`, and two engines may use the same `fingerprint` only
    /// when their contexts produce bit-identical estimates for every
    /// `(plan, hour)` — i.e. the fingerprint must commit to the DAG
    /// structure, profile, home region, models, and Monte Carlo config.
    /// Such engines read one draw bank, the cache's for that fingerprint.
    /// Single-app engines ([`Self::new`]) use fingerprint 0.
    ///
    /// `provider_bits` is the non-AWS provider mask of the evaluation
    /// universe (see `RegionCatalog::provider_bits`, 0 for AWS-only): it
    /// is part of both the cache key and the bank stream.
    pub fn with_cache_providers(
        solve_seed: u64,
        fingerprint: u64,
        provider_bits: u64,
        workers: usize,
        cache: Arc<EstimateCache>,
    ) -> Self {
        EvalEngine {
            solve_seed,
            fingerprint,
            provider_bits,
            workers: workers.max(1),
            bank: cache.bank((fingerprint, provider_bits)),
            cache,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The worker-thread cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The solve seed all evaluation streams derive from.
    pub fn solve_seed(&self) -> u64 {
        self.solve_seed
    }

    /// The app fingerprint (0 for single-app engines).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The non-AWS provider bits of the plan space (0 for AWS-only).
    pub fn provider_bits(&self) -> u64 {
        self.provider_bits
    }

    /// The backing estimate cache.
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// The generator that names this engine's draw bank — a pure function
    /// of the solve seed, the fingerprint and the provider bits. Every
    /// `(plan, hour)` gets the same one: an estimate entered with it reads
    /// the bank's columns instead of drawing, which is what lets
    /// candidates share their draws. The arguments remain because callers
    /// name the evaluation they want a fresh run of. Public so tests can
    /// verify cached results against fresh uncached runs.
    pub fn eval_rng(&self, _plan: &DeploymentPlan, _hour: f64) -> Pcg32 {
        SeedSplitter::new(self.solve_seed)
            .absorb(EVAL_DOMAIN)
            .absorb(self.fingerprint)
            .absorb(PROVIDER_DOMAIN ^ self.provider_bits)
            .rng()
    }

    /// Evaluates a plan at an hour through the cache.
    ///
    /// A hit returns the stored summary (bit-equal to recomputing); a
    /// miss prices the plan at the hour — folding the bank with the plan's
    /// constants first if its cached record does not reach — and stores
    /// the estimate. Computation happens outside the lock so concurrent
    /// misses don't serialize; racing workers recompute the same value
    /// and the last insert wins harmlessly.
    pub fn evaluate<S: CarbonDataSource, M: StageModels>(
        &self,
        ctx: &SolverContext<'_, S, M>,
        plan: &DeploymentPlan,
        hour: f64,
    ) -> EstimateSummary {
        let species = (self.fingerprint, self.provider_bits);
        let known = match self.cache.probe(species, plan.assignment(), hour.to_bits()) {
            Ok(hit) => return hit,
            Err(record) => record,
        };
        let mut rng = self.eval_rng(plan, hour);
        let pooled = self.scratch.lock().expect("scratch pool").pop();
        let mut scratch = pooled.unwrap_or_else(|| EstimateScratch::on_bank(self.bank.clone()));
        let unfolded = PlanRecord::default();
        let record = known.as_deref().unwrap_or(&unfolded);
        let (estimate, grown) = ctx.evaluate_on(plan, hour, &mut rng, &mut scratch, record);
        self.scratch.lock().expect("scratch pool").push(scratch);
        let record = grown
            .map(Arc::new)
            .or(known)
            .expect("an estimate with no record to go by folds one");
        self.cache.insert(
            species,
            plan.assignment(),
            hour.to_bits(),
            ctx.home,
            record,
            estimate.carbon_half(),
        );
        estimate
    }

    /// Evaluates a batch of plans at one hour across the worker pool,
    /// returning summaries in plan order. Emits pool statistics into the
    /// caller's telemetry session.
    pub fn evaluate_many<S: CarbonDataSource + Sync, M: StageModels + Sync>(
        &self,
        ctx: &SolverContext<'_, S, M>,
        plans: &[DeploymentPlan],
        hour: f64,
    ) -> Vec<EstimateSummary> {
        let (out, stats) = pool::map_indexed(self.workers, plans.len(), |i| {
            self.evaluate(ctx, &plans[i], hour)
        });
        stats.emit();
        out
    }

    /// Cache hits so far (cache-wide when the cache is shared).
    pub fn hit_count(&self) -> u64 {
        self.cache.hit_count()
    }

    /// Cache misses (= distinct evaluations computed, absent races).
    pub fn miss_count(&self) -> u64 {
        self.cache.miss_count()
    }

    /// Distinct `(fingerprint, plan, hour)` entries cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
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
    use caribou_model::dist::DistSpec;
    use caribou_simcloud::cloud::SimCloud;
    use caribou_simcloud::orchestration::Orchestrator;

    type Ctx<'a> = SolverContext<'a, TableSource, DefaultModels<'a>>;

    /// A one-node workflow homed in region 1 of the AWS catalog, on a
    /// one-batch stopping rule: the cheapest real estimate there is.
    fn with_ctx<R>(f: impl FnOnce(&Ctx<'_>) -> R) -> R {
        let cloud = SimCloud::aws(0);
        let mut carbon = TableSource::new();
        for (id, _) in cloud.regions.iter() {
            carbon.insert(id, CarbonSeries::new(0, vec![100.0 + id.0 as f64; 24]));
        }
        let mut wf = Workflow::new("w", "0.1");
        wf.serverless_function("A")
            .exec_time(DistSpec::Uniform { lo: 1.0, hi: 2.0 })
            .register();
        let (dag, profile, _) = wf.extract().unwrap();
        let permitted = vec![cloud.regions.evaluation_regions()];
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
            home: RegionId(1),
            objective: Objective::Carbon,
            tolerances: Tolerances::default(),
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&cloud.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 8,
                max_samples: 8,
                cv_threshold: 1.0,
            },
        })
    }

    fn plan(region: u16) -> DeploymentPlan {
        DeploymentPlan::new(vec![RegionId(region)])
    }

    fn cached(cache: &EstimateCache, fp: u64, region: u16, hour: f64) -> bool {
        cache
            .probe((fp, 0), plan(region).assignment(), hour.to_bits())
            .is_ok()
    }

    /// Runs `f` in a telemetry session and returns its (folds, repriced).
    fn served(f: impl FnOnce()) -> (u64, u64) {
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        f();
        let recorder = caribou_telemetry::finish().unwrap().recorder;
        (
            recorder.counter("montecarlo.folds"),
            recorder.counter("montecarlo.repriced"),
        )
    }

    #[test]
    fn eviction_keeps_smallest_keys_regardless_of_insertion_order() {
        // Every (fingerprint, plan, hour) of a small cube, in key order.
        let keys: Vec<(u64, u16, f64)> = (0..2u64)
            .flat_map(|fp| [0u16, 2].map(move |r| (fp, r)))
            .flat_map(|(fp, r)| [0.5, 1.5].map(move |h| (fp, r, h)))
            .collect();
        with_ctx(|ctx| {
            let fill = |order: &[(u64, u16, f64)]| {
                let cache = EstimateCache::shared(5);
                for &(fp, region, hour) in order {
                    let engine = EvalEngine::with_cache_providers(7, fp, 0, 1, Arc::clone(&cache));
                    engine.evaluate(ctx, &plan(region), hour);
                }
                cache
            };
            let forward = fill(&keys);
            let backward = fill(&keys.iter().rev().copied().collect::<Vec<_>>());
            for cache in [forward, backward] {
                assert_eq!(cache.len(), 5);
                assert_eq!(cache.eviction_count(), 3);
                // Either order retains exactly the 5 smallest keys.
                for (i, &(fp, region, hour)) in keys.iter().enumerate() {
                    assert_eq!(cached(&cache, fp, region, hour), i < 5, "key {i}");
                }
            }
        });
    }

    #[test]
    fn invalidate_hour_drops_only_touched_entries_at_that_hour() {
        with_ctx(|ctx| {
            let engine = EvalEngine::new(7, 1);
            let cache = engine.cache();
            let [r0, r1, r2] = [0, 1, 2].map(RegionId);
            // Home is region 1: the plans touch {0, 1} and {1, 2}.
            let cold = served(|| {
                engine.evaluate(ctx, &plan(0), 7.5);
                engine.evaluate(ctx, &plan(2), 7.5);
                engine.evaluate(ctx, &plan(0), 8.5);
            });
            assert_eq!(cold, (2, 1), "a fold per plan, the second hour priced");
            // Revising region 0 at hour 7.5 touches only the first entry.
            assert_eq!(cache.invalidate_hour(7.5, &[r0]), 1);
            assert!(!cached(cache, 0, 0, 7.5));
            assert!(cached(cache, 0, 2, 7.5));
            assert!(cached(cache, 0, 0, 8.5));
            // Revising every region at hour 7.5 clears the rest of that hour.
            assert_eq!(cache.invalidate_hour(7.5, &[r0, r1, r2]), 1);
            assert_eq!(cache.len(), 1);
            // The plans' records outlive their hours: recomputing the
            // dropped entries folds nothing, and returns the same bits a
            // cold engine folds.
            let again = served(|| {
                for region in [0, 2] {
                    let fresh = EvalEngine::new(7, 1).evaluate(ctx, &plan(region), 7.5);
                    assert_eq!(engine.evaluate(ctx, &plan(region), 7.5), fresh);
                }
            });
            assert_eq!(again, (2, 2), "only the cold engines fold");
            assert_eq!(cache.len(), 3);
        });
    }

    #[test]
    fn fingerprints_separate_streams_and_keys() {
        let cache = EstimateCache::shared(100);
        let a = EvalEngine::with_cache_providers(7, 0xaaaa, 0, 1, Arc::clone(&cache));
        let b = EvalEngine::with_cache_providers(7, 0xbbbb, 0, 1, Arc::clone(&cache));
        let same = EvalEngine::with_cache_providers(7, 0xaaaa, 0, 1, Arc::clone(&cache));
        let plan = DeploymentPlan::new(vec![RegionId(0), RegionId(1)]);
        let ra = a.eval_rng(&plan, 0.5).next_u64();
        let rb = b.eval_rng(&plan, 0.5).next_u64();
        let rs = same.eval_rng(&plan, 0.5).next_u64();
        assert_ne!(
            ra, rb,
            "different fingerprints must derive different streams"
        );
        assert_eq!(ra, rs, "equal fingerprints must derive equal streams");
    }

    #[test]
    fn provider_bits_separate_streams_and_preserve_legacy() {
        let cache = EstimateCache::shared(100);
        let legacy = EvalEngine::new(7, 1);
        let aws_only = EvalEngine::with_cache_providers(7, 0, 0, 1, Arc::clone(&cache));
        let cross = EvalEngine::with_cache_providers(7, 0, 2, 1, Arc::clone(&cache));
        let plan = DeploymentPlan::new(vec![RegionId(0), RegionId(1)]);
        let rl = legacy.eval_rng(&plan, 0.5).next_u64();
        let ra = aws_only.eval_rng(&plan, 0.5).next_u64();
        let rc = cross.eval_rng(&plan, 0.5).next_u64();
        // The single-app constructor is the bits-0 engine; non-zero bits
        // fork a distinct stream.
        assert_eq!(rl, ra);
        assert_ne!(rl, rc);
        assert_eq!(cross.provider_bits(), 2);
        // The stream names the bank, not the evaluation.
        let other = DeploymentPlan::new(vec![RegionId(1), RegionId(1)]);
        assert_eq!(rl, legacy.eval_rng(&other, 7.5).next_u64());
        // And the cache keys diverge too: the same (plan, hour) evaluated
        // under different provider bits occupies different entries.
        with_ctx(|ctx| {
            let plan = self::plan(0);
            let cached = |bits| cache.probe((0, bits), plan.assignment(), 0.5f64.to_bits());
            aws_only.evaluate(ctx, &plan, 0.5);
            assert!(cached(2).is_err_and(|record| record.is_none()));
            assert!(cached(0).is_ok());
        });
    }

    #[test]
    fn engines_of_one_species_on_one_cache_share_its_bank() {
        with_ctx(|ctx| {
            let cache = EstimateCache::shared(100);
            let a = EvalEngine::with_cache_providers(7, 0xaaaa, 0, 1, Arc::clone(&cache));
            let b = EvalEngine::with_cache_providers(7, 0xaaaa, 0, 1, Arc::clone(&cache));
            // The second engine prices what the first folded: it reads
            // the same bank, derived columns included.
            let shared = served(|| {
                a.evaluate(ctx, &plan(0), 0.5);
                b.evaluate(ctx, &plan(0), 1.5);
            });
            assert_eq!(shared, (1, 1));
            // A private cache is a private bank.
            let private = served(|| {
                EvalEngine::new(7, 1).evaluate(ctx, &plan(0), 0.5);
                EvalEngine::new(7, 1).evaluate(ctx, &plan(0), 1.5);
            });
            assert_eq!(private, (2, 0));
        });
    }
}
