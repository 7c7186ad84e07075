//! Deterministic parallel evaluation engine with plan-keyed estimate
//! caching.
//!
//! Every candidate evaluation is a *pure function* of the engine's solve
//! seed, the app fingerprint, the provider bits, the plan assignment, and
//! the solve hour. The randomness is the engine's *draw bank*: one stream
//! split off (solve seed, fingerprint, provider bits) through a
//! [`SeedSplitter`] names it, every DAG site draws its own columns from
//! it once, and an estimate folds those columns with its plan's and
//! hour's constants — so two candidates of one solve differ only where
//! their plans differ (common random numbers), and no walk generator is
//! ever threaded through an estimate. One engine = one frozen context =
//! one bank. Purity buys four properties at once:
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
//!    [`EvalEngine::with_cache`]: the app's structural *fingerprint* is
//!    part of both the key and the bank stream, so two apps only share
//!    an entry when their estimates are provably bit-equal.
//!
//! The cache key is `(fingerprint, provider bits, assignment, hour-bits)`
//! — the bit pattern of the solve hour. Bucketing is exact rather than floored
//! because carbon sources may be continuous in the hour; two solves only
//! share an entry when their estimates are provably identical.
//!
//! The cache is **bounded**: past [`EstimateCache::capacity`] entries the
//! largest keys are evicted. Because the map is ordered and eviction
//! keeps the smallest `capacity` keys, the retained *set* depends only on
//! which keys were ever inserted — never on insertion order — so a run's
//! cache contents stay worker-count independent, and soundness (property
//! 2) means eviction can only cost recomputation, never correctness.
//!
//! Entries remember which regions their estimate read (the plan's regions
//! plus home, the only regions the Monte Carlo estimator queries the
//! carbon source for). [`EstimateCache::invalidate_hour`] uses that to
//! drop exactly the entries a forecast revision touches — the hook the
//! fleet subsystem's incremental re-solve builds on.
//!
//! Hit/miss/eviction tallies accumulate in atomics behind
//! [`EstimateCache::hit_count`] and friends, and each probe and eviction
//! also counts `solver.cache.hit` / `solver.cache.miss` /
//! `solver.cache.evictions` into the telemetry session of the thread it
//! ran on (pool tasks have one whenever the coordinator does). Under
//! parallel misses of the same key the tallies may differ by a few counts
//! between runs — the cached *values* never do.
//!
//! [`MonteCarloConfig::batch`]: caribou_metrics::montecarlo::MonteCarloConfig

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::bank::SharedBank;
use caribou_metrics::montecarlo::{EstimateScratch, EstimateSummary, StageModels};
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

/// Cache key: `(app fingerprint, provider bits, plan assignment,
/// solve-hour bits)`. Provider bits are 0 for AWS-only plan spaces,
/// non-zero when the universe spans providers — so cross-provider
/// estimates can never be served to a single-provider solve or vice
/// versa.
type CacheKey = (u64, u64, Vec<RegionId>, u64);

/// A cached summary plus the regions its estimate read from the carbon
/// source (assignment ∪ home) — the dependency record invalidation uses.
#[derive(Debug, Clone)]
struct CacheEntry {
    summary: EstimateSummary,
    touched: Vec<RegionId>,
}

/// A bounded, shareable estimate cache.
///
/// One cache may back many [`EvalEngine`]s at once (the fleet case); the
/// per-engine fingerprint keeps streams and keys of different app
/// structures apart while letting identical structures share. All
/// operations take `&self`; the map sits behind a [`Mutex`] and the
/// tallies in atomics so worker threads can use it directly.
#[derive(Debug)]
pub struct EstimateCache {
    capacity: usize,
    map: Mutex<BTreeMap<CacheKey, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EstimateCache {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        EstimateCache {
            capacity: capacity.max(1),
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a shareable cache for cross-engine use.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
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

    fn get(&self, key: &CacheKey) -> Option<EstimateSummary> {
        let hit = self
            .map
            .lock()
            .expect("cache lock")
            .get(key)
            .map(|e| e.summary);
        let (tally, counter) = match hit {
            Some(_) => (&self.hits, "solver.cache.hit"),
            None => (&self.misses, "solver.cache.miss"),
        };
        tally.fetch_add(1, Ordering::Relaxed);
        caribou_telemetry::count(counter, 1);
        hit
    }

    fn insert(&self, key: CacheKey, summary: EstimateSummary, touched: Vec<RegionId>) {
        let mut map = self.map.lock().expect("cache lock");
        map.insert(key, CacheEntry { summary, touched });
        // Deterministic eviction: keep the `capacity` smallest keys. The
        // retained set is a pure function of the inserted key set, so it
        // cannot depend on worker count or scheduling.
        while map.len() > self.capacity {
            map.pop_last();
            self.evictions.fetch_add(1, Ordering::Relaxed);
            caribou_telemetry::count("solver.cache.evictions", 1);
        }
    }

    /// Drops every entry whose estimate was computed at `hour` *and* read
    /// any of `regions` from the carbon source. Returns the number of
    /// entries dropped.
    ///
    /// This is the forecast-revision hook: after the carbon forecast for
    /// `hour` changes in `regions`, the surviving entries are exactly the
    /// ones whose inputs are untouched, so serving them stays bit-equal
    /// to recomputing against the revised forecast.
    pub fn invalidate_hour(&self, hour: f64, regions: &[RegionId]) -> u64 {
        let bits = hour.to_bits();
        let mut map = self.map.lock().expect("cache lock");
        let before = map.len();
        map.retain(|(_, _, _, h), entry| {
            *h != bits || !entry.touched.iter().any(|r| regions.contains(r))
        });
        (before - map.len()) as u64
    }
}

/// The deterministic parallel evaluation engine.
///
/// One engine instance corresponds to one logical solve (or one solve
/// batch, like a 24-hour plan generation) of one app against one frozen
/// [`SolverContext`] data set. Do **not** reuse an engine after the
/// profile, models or stopping rule behind the context changed: the bank
/// holds draws of the old ones. A revised forecast alone is fine once the
/// stale entries were dropped through [`EstimateCache::invalidate_hour`]
/// — carbon enters an estimate as a constant, not as a draw.
pub struct EvalEngine {
    solve_seed: u64,
    fingerprint: u64,
    provider_bits: u64,
    workers: usize,
    cache: Arc<EstimateCache>,
    /// The draws every estimate of this engine folds. Engine-scoped: it
    /// grows to the samples this context actually needed and goes with
    /// the engine, never into the (possibly shared) cache.
    bank: SharedBank,
    /// Pool of estimator scratch buffers (fold columns), all on `bank`. A
    /// cache miss checks one out for the duration of the estimate and
    /// returns it afterwards, so a solve's misses re-allocate fold state
    /// only until the pool has one scratch per concurrently-evaluating
    /// worker.
    scratch: Mutex<Vec<EstimateScratch>>,
}

impl EvalEngine {
    /// Creates an engine for one solve, with a private cache.
    ///
    /// `solve_seed` determines every evaluation stream; `workers` caps
    /// the fan-out of [`evaluate_many`](Self::evaluate_many) (1 = fully
    /// sequential, same results).
    pub fn new(solve_seed: u64, workers: usize) -> Self {
        Self::with_cache(
            solve_seed,
            0,
            workers,
            EstimateCache::shared(DEFAULT_CACHE_CAPACITY),
        )
    }

    /// Creates an engine whose evaluations are keyed and seeded by an app
    /// `fingerprint` and stored in a shared `cache`.
    ///
    /// Sharing contract: every engine on one cache must use the same
    /// `solve_seed`, and two engines may use the same `fingerprint` only
    /// when their contexts produce bit-identical estimates for every
    /// `(plan, hour)` — i.e. the fingerprint must commit to the DAG
    /// structure, profile, home region, models, and Monte Carlo config.
    /// Single-app engines ([`Self::new`]) use fingerprint 0.
    pub fn with_cache(
        solve_seed: u64,
        fingerprint: u64,
        workers: usize,
        cache: Arc<EstimateCache>,
    ) -> Self {
        Self::with_cache_providers(solve_seed, fingerprint, 0, workers, cache)
    }

    /// Creates an engine whose plan space spans a specific provider set.
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
            cache,
            bank: SharedBank::default(),
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
    /// miss folds the engine's bank with the plan's constants and stores
    /// the estimate. Computation happens outside the lock so concurrent
    /// misses don't serialize; racing workers recompute the same value
    /// and the last insert wins harmlessly.
    pub fn evaluate<S: CarbonDataSource, M: StageModels>(
        &self,
        ctx: &SolverContext<'_, S, M>,
        plan: &DeploymentPlan,
        hour: f64,
    ) -> EstimateSummary {
        let key = (
            self.fingerprint,
            self.provider_bits,
            plan.assignment().to_vec(),
            hour.to_bits(),
        );
        if let Some(hit) = self.cache.get(&key) {
            return hit;
        }
        let mut rng = self.eval_rng(plan, hour);
        let pooled = self.scratch.lock().expect("scratch pool").pop();
        let mut scratch = pooled.unwrap_or_else(|| EstimateScratch::on_bank(self.bank.clone()));
        let estimate = ctx.evaluate_with_scratch(plan, hour, &mut rng, &mut scratch);
        self.scratch.lock().expect("scratch pool").push(scratch);
        // The estimator queries the carbon source only for the plan's
        // regions and home (transmission endpoints and execution sites) —
        // record them so forecast revisions can invalidate precisely.
        let mut touched = plan.regions_used();
        if !touched.contains(&ctx.home) {
            touched.push(ctx.home);
            touched.sort_unstable();
        }
        self.cache.insert(key, estimate, touched);
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

    fn summary(tag: f64) -> EstimateSummary {
        // Serde round-trip spares the test from spelling out every field
        // of the (Copy, all-pub) summary struct.
        let d = format!("{{\"mean\":{tag},\"p95\":{tag},\"std_dev\":0.0,\"n\":1}}");
        let json = format!(
            "{{\"latency\":{d},\"cost\":{d},\"carbon\":{d},\
             \"exec_carbon_mean\":{tag},\"trans_carbon_mean\":{tag},\"samples\":1}}"
        );
        serde_json::from_str(&json).expect("summary literal deserializes")
    }

    fn key(fp: u64, regions: &[u16], hour: f64) -> CacheKey {
        (
            fp,
            0,
            regions.iter().map(|r| RegionId(*r)).collect(),
            hour.to_bits(),
        )
    }

    #[test]
    fn eviction_keeps_smallest_keys_regardless_of_insertion_order() {
        let keys: Vec<CacheKey> = (0..10u64).map(|i| key(i, &[0, 1], 0.5)).collect();
        let forward = EstimateCache::new(4);
        for k in &keys {
            forward.insert(k.clone(), summary(1.0), vec![RegionId(0)]);
        }
        let backward = EstimateCache::new(4);
        for k in keys.iter().rev() {
            backward.insert(k.clone(), summary(1.0), vec![RegionId(0)]);
        }
        assert_eq!(forward.len(), 4);
        assert_eq!(backward.len(), 4);
        assert_eq!(forward.eviction_count(), 6);
        assert_eq!(backward.eviction_count(), 6);
        // Both orders retain exactly the 4 smallest keys.
        for k in &keys[..4] {
            assert!(forward.get(k).is_some());
            assert!(backward.get(k).is_some());
        }
        for k in &keys[4..] {
            assert!(forward.get(k).is_none());
            assert!(backward.get(k).is_none());
        }
    }

    #[test]
    fn invalidate_hour_drops_only_touched_entries_at_that_hour() {
        let cache = EstimateCache::new(100);
        let r0 = RegionId(0);
        let r1 = RegionId(1);
        let r2 = RegionId(2);
        cache.insert(key(1, &[0], 7.5), summary(1.0), vec![r0, r1]);
        cache.insert(key(1, &[2], 7.5), summary(2.0), vec![r1, r2]);
        cache.insert(key(1, &[0], 8.5), summary(3.0), vec![r0, r1]);
        // Revising region 0 at hour 7.5 touches only the first entry.
        assert_eq!(cache.invalidate_hour(7.5, &[r0]), 1);
        assert!(cache.get(&key(1, &[0], 7.5)).is_none());
        assert!(cache.get(&key(1, &[2], 7.5)).is_some());
        assert!(cache.get(&key(1, &[0], 8.5)).is_some());
        // Revising every region at hour 7.5 clears the rest of that hour.
        assert_eq!(cache.invalidate_hour(7.5, &[r0, r1, r2]), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprints_separate_streams_and_keys() {
        let cache = EstimateCache::shared(100);
        let a = EvalEngine::with_cache(7, 0xaaaa, 1, Arc::clone(&cache));
        let b = EvalEngine::with_cache(7, 0xbbbb, 1, Arc::clone(&cache));
        let same = EvalEngine::with_cache(7, 0xaaaa, 1, Arc::clone(&cache));
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
        let legacy = EvalEngine::with_cache(7, 0, 1, Arc::clone(&cache));
        let aws_only = EvalEngine::with_cache_providers(7, 0, 0, 1, Arc::clone(&cache));
        let cross = EvalEngine::with_cache_providers(7, 0, 2, 1, Arc::clone(&cache));
        let plan = DeploymentPlan::new(vec![RegionId(0), RegionId(1)]);
        let rl = legacy.eval_rng(&plan, 0.5).next_u64();
        let ra = aws_only.eval_rng(&plan, 0.5).next_u64();
        let rc = cross.eval_rng(&plan, 0.5).next_u64();
        // The pre-provider constructor is the bits-0 engine; non-zero
        // bits fork a distinct stream.
        assert_eq!(rl, ra);
        assert_ne!(rl, rc);
        assert_eq!(cross.provider_bits(), 2);
        // The stream names the bank, not the evaluation.
        let other = DeploymentPlan::new(vec![RegionId(1), RegionId(1)]);
        assert_eq!(rl, legacy.eval_rng(&other, 7.5).next_u64());
        // And the cache keys diverge too: the same (plan, hour) evaluated
        // under different provider bits occupies different entries.
        cache.insert(
            (0, 0, plan.assignment().to_vec(), 0.5f64.to_bits()),
            summary(1.0),
            vec![RegionId(0)],
        );
        assert!(cache
            .get(&(0, 2, plan.assignment().to_vec(), 0.5f64.to_bits()))
            .is_none());
        assert!(cache
            .get(&(0, 0, plan.assignment().to_vec(), 0.5f64.to_bits()))
            .is_some());
    }
}
