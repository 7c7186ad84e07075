//! Deterministic parallel evaluation engine with plan-keyed estimate
//! caching.
//!
//! Every candidate evaluation is a *pure function* of the engine's solve
//! seed, the app fingerprint, the provider bits, the plan assignment, and
//! the solve hour. The randomness is the species' *draw bank*: a species
//! is (solve seed, fingerprint, provider bits), and the first draw of one
//! stream split off those three through a [`SeedSplitter`] names its bank
//! when the species' table is made; every DAG site draws its own columns
//! from it once, and an estimate folds those columns with its plan's
//! constants and prices them at its hour — so two candidates of one solve
//! differ only where their plans differ (common random numbers), and no
//! generator is ever threaded through an estimate. One cache = one frozen
//! context per species = one bank per species: engines on one
//! [`EstimateCache`] that agree on all three take the same bank from it,
//! and engines that differ in any one read banks and entries of their own.
//! Purity buys four properties at once:
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
//! The cache is **per-species tables the engines hold**: each species has
//! a bank, made with its entry in the species map, and a table of its
//! plans. A
//! plan is a *slot*: its assignment is stored once, in the table's flat key
//! buffer, and found through an open-addressed index of slots
//! (`crate::keys`); beside the slot sit the plan's record, its home and how
//! many hours it holds. An engine takes its table once, at construction; a
//! probe or an insert locks that table alone and hashes the assignment
//! once. An hour only ever moves an estimate's carbon, so a plan's latency
//! and cost — at every stopping-rule boundary its fold reached, the
//! [`PlanRecord`] — are kept once per plan, and what is kept per (plan,
//! hour) is the carbon summary and the sample count it stopped at, in the
//! table's *hour index*: ascending hour bits, each with a fixed-hasher map
//! ([`caribou_model::hash::FixedMap`]) from slot to carbon. A hit
//! reassembles the two halves. A miss hands the estimator the plan's
//! record: if it covers where this hour's rule stops, the estimate is a
//! *re-pricing* of the bank's derived columns, and the fold runs only for a
//! plan seen for the first time (or further than before). The hour key is
//! the bit pattern of the solve hour — exact rather than floored because
//! carbon sources may be continuous in the hour; two solves only share an
//! entry when their estimates are provably identical. A plan seen for the
//! first time costs the cache one allocation, the shared handle its record
//! is kept and lent out in; the flat buffers grow by doubling.
//!
//! The cache is **bounded**: past [`EstimateCache::capacity`] hour
//! entries the largest `(seed, fingerprint, bits, assignment, hour-bits)`
//! keys are evicted (a plan leaves with its last hour, and its slot is
//! reused).
//! The index has no order, so each table also keeps its slots in a
//! max-heap by key — touched only when a plan is first stored or dropped —
//! and eviction reads the largest key off the last table's heap top.
//! Because eviction keeps the smallest `capacity` keys, the retained *set*
//! depends only on which keys were ever inserted — never on insertion
//! order — so a run's cache contents stay worker-count independent, and
//! soundness (property 2) means eviction can only cost recomputation,
//! never correctness.
//!
//! Two kinds of lock, never nested the other way round. A table's
//! [`Mutex`] covers its keys, plans, heap and hour index: probes and
//! inserts take it and nothing else. The species map's [`Mutex`] covers
//! which banks and tables exist: engine construction takes it to find its
//! species', and invalidation and eviction take it to walk the
//! tables in species order, one table lock at a time. The hour-entry count
//! is an atomic an insert bumps after releasing its table; the insert that
//! takes it past the bound evicts, under the species map, until it is back
//! within. An eviction walk that misses a key inserted behind it pops a
//! key with at least `capacity` smaller keys still cached, and the missed
//! key's own count bump brings the walk back for it, so concurrent inserts
//! leave the retained set what one lock around everything left. The
//! estimator's scratch (fold and price columns) takes no lock at all: it
//! belongs to the worker thread and holds no bank — a miss hands the
//! estimator its engine's — so one set of columns serves every engine a
//! worker runs.
//!
//! An estimate reads the carbon source only for its plan's regions and its
//! home (the pricing pass's transmission endpoints and execution sites),
//! so a plan's key and its home are the whole dependency record, and no
//! list of touched regions is kept.
//! [`EstimateCache::invalidate_hour`] uses it to drop exactly the hour
//! entries a forecast revision touches, visiting only the plans the hour
//! index files under that hour — the hook the fleet subsystem's
//! incremental re-solve builds on. The plan's record stays: a forecast
//! cannot move latency or cost, so the re-solve re-prices and does not
//! re-fold.
//!
//! A probe tallies its hit or miss in its table, under the lock it already
//! holds, so species share no counter either; [`EstimateCache::hit_count`]
//! and [`EstimateCache::miss_count`] sum the tables, and evictions count in
//! an atomic. Each probe and eviction
//! also counts `solver.cache.hit` / `solver.cache.miss` /
//! `solver.cache.evictions` into the telemetry session of the thread it
//! ran on (pool tasks have one whenever the coordinator does). An HBSS
//! walk does not probe for a plan it already read: it answers a revisit
//! from its own verdict and adds its revisits to both hit tallies once per
//! solve ([`EvalEngine::tally_hits`]). With nothing evicted mid-walk that
//! is the count the probes would have made. When a bounded cache evicts a
//! plan the walk already read, a probe would have missed and folded the
//! plan again; the walk's verdict is bit-equal to that estimate (property
//! 2), so the walk reads it and counts a hit: within one walk the tallies
//! are what an unbounded cache's would be. Under
//! parallel misses of the same key the tallies — and with them the
//! estimator's `montecarlo.folds` / `montecarlo.repriced` split of the
//! misses — may differ by a few counts between runs; the cached *values*
//! never do. A fold whose record the table did not keep, because another
//! worker's fold of the plan reached as far first, also counts
//! `montecarlo.folds_raced`: zero at one worker.
//!
//! [`MonteCarloConfig::batch`]: caribou_metrics::montecarlo::MonteCarloConfig

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::bank::SharedBank;
use caribou_metrics::fold::PlanRecord;
use caribou_metrics::montecarlo::{CarbonSummary, EstimateScratch, EstimateSummary, StageModels};
use caribou_model::hash::FixedMap;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::{Pcg32, SeedSplitter};

use crate::context::SolverContext;
use crate::keys::{ByKey, KeyArena};
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

/// Whose estimates share draws and entries: `(solve seed, app
/// fingerprint, provider bits)`, everything that names a bank. Provider
/// bits are 0 for AWS-only plan spaces, non-zero when the universe spans
/// providers — so cross-provider estimates can never be served to a
/// single-provider solve or vice versa.
type Species = (u64, u64, u64);

/// The generator whose first draw names `species`' bank.
fn stream((seed, fingerprint, provider_bits): Species) -> Pcg32 {
    SeedSplitter::new(seed)
        .absorb(EVAL_DOMAIN)
        .absorb(fingerprint)
        .absorb(PROVIDER_DOMAIN ^ provider_bits)
        .rng()
}

/// What a table keeps of one plan beside its key.
#[derive(Debug)]
struct Plan {
    /// Latency and cost at every boundary a fold of the plan reached;
    /// `None` while the slot is free.
    record: Option<Arc<PlanRecord>>,
    /// The home region of the estimates stored: with the key, the regions
    /// they read from the carbon source (what invalidation checks).
    home: RegionId,
    /// Hour entries the plan holds.
    hours: u32,
}

/// One species' share of the cache: the plans its engines estimated.
#[derive(Debug, Default)]
struct Table {
    /// Each plan's assignment, stored once; a plan is its slot here.
    keys: KeyArena,
    /// By slot.
    plans: Vec<Plan>,
    /// The slots by key: where eviction finds the largest key. Written only
    /// when a plan is first stored or dropped.
    order: ByKey,
    /// The hour index: ascending solve-hour bits → the plans holding that
    /// hour and their carbon.
    hours: Vec<(u64, FixedMap<u32, CarbonSummary>)>,
    /// Probes of this table that hit and that missed.
    hits: u64,
    misses: u64,
}

impl Table {
    /// Where the hour index files `hour_bits`, or where it would.
    fn hour(&self, hour_bits: u64) -> Result<usize, usize> {
        self.hours
            .binary_search_by_key(&hour_bits, |(hour, _)| *hour)
    }

    /// The carbon stored for `(slot, hour)`.
    fn carbon(&self, slot: u32, hour_bits: u64) -> Option<CarbonSummary> {
        if self.plans[slot as usize].hours == 0 {
            return None;
        }
        let at = self.hour(hour_bits).ok()?;
        self.hours[at].1.get(&slot).copied()
    }

    /// The cached estimate of `(plan, hour)`, or else the plan's record for
    /// the estimator to go by (`None`: the plan was never folded); tallied
    /// as a hit or a miss.
    fn probe(
        &mut self,
        assignment: &[RegionId],
        hour_bits: u64,
    ) -> Result<EstimateSummary, Option<Arc<PlanRecord>>> {
        let probed = match self.keys.find(assignment) {
            None => Err(None),
            Some(slot) => {
                let record = self.plans[slot as usize].record.as_ref();
                let record = record.expect("a stored plan has its record");
                self.carbon(slot, hour_bits)
                    .and_then(|carbon| {
                        let hour_free = record.at(carbon.carbon.n)?;
                        Some(EstimateSummary::from_halves(hour_free, carbon))
                    })
                    .ok_or_else(|| Some(Arc::clone(record)))
            }
        };
        if probed.is_ok() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        probed
    }

    /// Stores the carbon half of an estimate of `(plan, hour)` and the
    /// `record` its other half came from, which is kept for a new plan and
    /// replaces the plan's when it reaches further. Whether the hour entry
    /// is new, and whether `record` was kept.
    fn insert(
        &mut self,
        assignment: &[RegionId],
        hour_bits: u64,
        home: RegionId,
        record: Arc<PlanRecord>,
        carbon: CarbonSummary,
    ) -> (bool, bool) {
        let (slot, new) = self.keys.insert(assignment);
        let mut kept_record = new;
        if new {
            let plan = Plan {
                record: Some(record),
                home,
                hours: 0,
            };
            match self.plans.get_mut(slot as usize) {
                Some(free) => *free = plan,
                None => self.plans.push(plan),
            }
            self.order.push(slot, &self.keys);
        } else {
            let kept = self.plans[slot as usize].record.as_mut();
            let kept = kept.expect("a stored plan has its record");
            if record.boundaries() > kept.boundaries() {
                *kept = record;
                kept_record = true;
            }
        }
        let at = self.hour(hour_bits).unwrap_or_else(|at| {
            self.hours.insert(at, (hour_bits, FixedMap::default()));
            at
        });
        let added = self.hours[at].1.insert(slot, carbon).is_none();
        if added {
            self.plans[slot as usize].hours += 1;
        }
        (added, kept_record)
    }

    /// Pops the hour entry with the largest key, dropping its plan when no
    /// hour is left: `Some(true)` when an hour entry went, `Some(false)`
    /// when only an hour-less plan did, `None` when the table is empty.
    fn pop_last(&mut self) -> Option<bool> {
        let slot = self.order.last()?;
        let plan = &mut self.plans[slot as usize];
        let popped = plan.hours > 0;
        if popped {
            // The plan's largest hour is the last one filing it.
            let mut filing = self.hours.iter_mut().rev().map(|(_, held)| held);
            let held = filing.find(|held| held.contains_key(&slot));
            held.expect("a plan's hours are indexed").remove(&slot);
            plan.hours -= 1;
        }
        if plan.hours == 0 {
            plan.record = None;
            self.order.pop_last(&self.keys);
            self.keys.remove(slot);
        }
        Some(popped)
    }

    /// Drops the entries at `hour_bits` whose plan or home is one of
    /// `regions`; returns how many went.
    fn invalidate(&mut self, hour_bits: u64, regions: &[RegionId]) -> usize {
        let Ok(at) = self.hour(hour_bits) else {
            return 0;
        };
        let (keys, plans) = (&self.keys, &mut self.plans);
        let held = &mut self.hours[at].1;
        let before = held.len();
        held.retain(|&slot, _| {
            let plan = &mut plans[slot as usize];
            let touched =
                regions.contains(&plan.home) || keys.key(slot).iter().any(|r| regions.contains(r));
            if touched {
                plan.hours -= 1;
            }
            !touched
        });
        before - held.len()
    }
}

/// A table as engines and the species map share it.
type SharedTable = Arc<Mutex<Table>>;

fn lock(table: &Mutex<Table>) -> MutexGuard<'_, Table> {
    table.lock().expect("cache table lock")
}

/// A bounded, shareable estimate cache.
///
/// One cache may back many [`EvalEngine`]s at once (the fleet case); the
/// per-engine fingerprint keeps streams and keys of different app
/// structures apart while letting identical structures share. All
/// operations take `&self`; each species' table sits behind its own
/// [`Mutex`] with its hit and miss tallies, the species map behind another,
/// and the entry and eviction counts in atomics, so worker threads can use
/// it directly.
#[derive(Debug)]
pub struct EstimateCache {
    capacity: usize,
    /// Each species' bank, made with its entry, and its table.
    species: Mutex<BTreeMap<Species, (SharedBank, SharedTable)>>,
    /// Hour entries over all tables: what the capacity bounds.
    len: AtomicUsize,
    evictions: AtomicU64,
}

impl EstimateCache {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        EstimateCache {
            capacity: capacity.max(1),
            species: Mutex::default(),
            len: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Creates a shareable cache for cross-engine use.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    fn species(&self) -> MutexGuard<'_, BTreeMap<Species, (SharedBank, SharedTable)>> {
        self.species.lock().expect("cache species lock")
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(plan, hour)` entries currently cached.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (across every engine sharing this cache).
    pub fn hit_count(&self) -> u64 {
        self.species().values().map(|(_, t)| lock(t).hits).sum()
    }

    /// Cache misses (= distinct evaluations computed, absent races).
    pub fn miss_count(&self) -> u64 {
        self.species().values().map(|(_, t)| lock(t).misses).sum()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The bank and the table every engine of `species` on this cache
    /// reads; the bank is made with them, rooted at the first draw of the
    /// species' stream.
    fn table(&self, species: Species) -> (SharedBank, SharedTable) {
        let mut tables = self.species();
        let (bank, table) = tables.entry(species).or_insert_with(|| {
            let bank = SharedBank::new(stream(species).next_u64());
            (bank, SharedTable::default())
        });
        (bank.clone(), Arc::clone(table))
    }

    /// Stores in `table` the carbon half of an estimate of `(plan, hour)`
    /// and the `record` its other half came from ([`Table::insert`]), and
    /// evicts if the new entry took the cache past its bound. `true` when
    /// `record` was kept.
    fn insert(
        &self,
        table: &Mutex<Table>,
        assignment: &[RegionId],
        hour_bits: u64,
        home: RegionId,
        record: Arc<PlanRecord>,
        carbon: CarbonSummary,
    ) -> bool {
        let (added, kept) = lock(table).insert(assignment, hour_bits, home, record, carbon);
        if added && self.len.fetch_add(1, Ordering::SeqCst) >= self.capacity {
            self.evict();
        }
        kept
    }

    /// Deterministic eviction: drops the largest keys until the bound
    /// holds. The retained set is a pure function of the inserted key
    /// set, so it cannot depend on worker count or scheduling.
    fn evict(&self) {
        let species = self.species();
        while self.len.load(Ordering::SeqCst) > self.capacity {
            let popped = species
                .values()
                .rev()
                .find_map(|(_, table)| lock(table).pop_last());
            if popped.expect("hour entries belong to plans") {
                self.len.fetch_sub(1, Ordering::SeqCst);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                caribou_telemetry::count("solver.cache.evictions", 1);
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
        let dropped: usize = self
            .species()
            .values()
            .map(|(_, table)| lock(table).invalidate(bits, regions))
            .sum();
        self.len.fetch_sub(dropped, Ordering::SeqCst);
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
    species: Species,
    workers: usize,
    cache: Arc<EstimateCache>,
    /// The cache's table for this engine's species, taken once: every
    /// probe and insert goes straight to it.
    table: SharedTable,
    /// The draws every estimate of this engine reads: its species' bank,
    /// so engines that share estimates share the draws behind them. It
    /// grows to the samples the context actually needed.
    bank: SharedBank,
}

thread_local! {
    /// The estimator scratch (fold and price columns) of this thread. It
    /// holds no bank — a miss folds on its engine's — so one set of
    /// columns serves every engine a worker runs.
    static SCRATCH: RefCell<EstimateScratch> = RefCell::default();
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
    /// The solve seed, the fingerprint and the provider bits are the
    /// engine's species: engines on one cache that agree on all three read
    /// one table and one draw bank, made with the table, and engines that
    /// differ in any one never read each other's estimates
    /// (`engines_of_two_solve_seeds_on_one_cache_read_their_own_estimates`).
    /// Two engines may use the same `fingerprint` only when their contexts
    /// produce bit-identical estimates for every `(plan, hour)` — i.e. the
    /// fingerprint must commit to the DAG structure, profile, home region,
    /// models, and Monte Carlo config;
    /// `tests/fleet.rs::apps_of_one_fingerprint_are_one_app` holds the
    /// fleet's fingerprints to the content they commit to. Single-app
    /// engines ([`Self::new`]) use fingerprint 0.
    ///
    /// `provider_bits` is the non-AWS provider mask of the evaluation
    /// universe (see `RegionCatalog::provider_bits`, 0 for AWS-only).
    pub fn with_cache_providers(
        solve_seed: u64,
        fingerprint: u64,
        provider_bits: u64,
        workers: usize,
        cache: Arc<EstimateCache>,
    ) -> Self {
        let species = (solve_seed, fingerprint, provider_bits);
        let (bank, table) = cache.table(species);
        EvalEngine {
            species,
            workers: workers.max(1),
            cache,
            table,
            bank,
        }
    }

    /// The worker-thread cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The non-AWS provider bits of the plan space (0 for AWS-only).
    pub fn provider_bits(&self) -> u64 {
        self.species.2
    }

    /// The backing estimate cache.
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// The generator whose first draw is the root of this engine's draw
    /// bank, taken when the species' table was made — a pure function of
    /// the solve seed, the fingerprint and the provider bits, the same for
    /// every `(plan, hour)`. So [`SolverContext::evaluate`] handed it draws
    /// the bank a cold engine would, and returns what the engine does. The
    /// arguments remain because callers name the evaluation they want a
    /// fresh run of. Public so tests can verify cached results against
    /// fresh uncached runs.
    pub fn eval_rng(&self, _plan: &DeploymentPlan, _hour: f64) -> Pcg32 {
        stream(self.species)
    }

    /// Evaluates a plan at an hour through the cache.
    ///
    /// A hit returns the stored summary (bit-equal to recomputing); a
    /// miss prices the plan at the hour — folding the bank with the plan's
    /// constants first if its cached record does not reach — and stores
    /// the estimate. Computation happens outside the lock so concurrent
    /// misses don't serialize; racing workers recompute the same value,
    /// the table keeps the longest record, and a fold whose record it did
    /// not keep counts `montecarlo.folds_raced`.
    pub fn evaluate<S: CarbonDataSource, M: StageModels>(
        &self,
        ctx: &SolverContext<'_, S, M>,
        plan: &DeploymentPlan,
        hour: f64,
    ) -> EstimateSummary {
        let probed = lock(&self.table).probe(plan.assignment(), hour.to_bits());
        let known = match probed {
            Ok(hit) => {
                caribou_telemetry::count("solver.cache.hit", 1);
                return hit;
            }
            Err(record) => {
                caribou_telemetry::count("solver.cache.miss", 1);
                record
            }
        };
        let unfolded = PlanRecord::default();
        let record = known.as_deref().unwrap_or(&unfolded);
        let (estimate, grown) = SCRATCH
            .with_borrow_mut(|scratch| ctx.evaluate_on(plan, hour, &self.bank, scratch, record));
        let folded = grown.is_some();
        let record = grown
            .map(Arc::new)
            .or(known)
            .expect("an estimate with no record to go by folds one");
        let kept = self.cache.insert(
            &self.table,
            plan.assignment(),
            hour.to_bits(),
            ctx.home,
            record,
            estimate.carbon_half(),
        );
        if folded && !kept {
            caribou_telemetry::count("montecarlo.folds_raced", 1);
        }
        estimate
    }

    /// Counts `n` hits that the caller answered from estimates this engine
    /// returned it earlier, as if each had probed the table: in the table's
    /// tally and in `solver.cache.hit`. An HBSS walk counts its revisits
    /// here, once per solve. Nothing is counted, and no counter made, for
    /// `n == 0`.
    pub fn tally_hits(&self, n: u64) {
        if n == 0 {
            return;
        }
        lock(&self.table).hits += n;
        caribou_telemetry::count("solver.cache.hit", n);
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

    /// Whether `(plan, hour)` is cached for this engine's species: a
    /// lookup that, unlike [`evaluate`](Self::evaluate), counts no hit or
    /// miss and stores nothing.
    pub fn is_cached(&self, plan: &DeploymentPlan, hour: f64) -> bool {
        let table = lock(&self.table);
        let slot = table.keys.find(plan.assignment());
        slot.is_some_and(|slot| table.carbon(slot, hour.to_bits()).is_some())
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
    use std::collections::BTreeSet;

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

    fn cached(cache: &Arc<EstimateCache>, fp: u64, region: u16, hour: f64) -> bool {
        EvalEngine::with_cache_providers(7, fp, 0, 1, Arc::clone(cache))
            .is_cached(&plan(region), hour)
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
            let cached = |bits| {
                lock(&cache.table((7, 0, bits)).1).probe(plan.assignment(), 0.5f64.to_bits())
            };
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

    /// Engines of two solve seeds on one cache and one fingerprint are two
    /// species: each folds on a bank of its own and reads its own
    /// estimates, bit for bit what a fresh engine of its seed reads.
    #[test]
    fn engines_of_two_solve_seeds_on_one_cache_read_their_own_estimates() {
        with_ctx(|ctx| {
            let fresh = |seed| {
                let engine = EvalEngine::with_cache_providers(
                    seed,
                    0xaaaa,
                    0,
                    1,
                    EstimateCache::shared(100),
                );
                engine.evaluate(ctx, &plan(0), 0.5)
            };
            let cache = EstimateCache::shared(100);
            let a = EvalEngine::with_cache_providers(7, 0xaaaa, 0, 1, Arc::clone(&cache));
            let b = EvalEngine::with_cache_providers(8, 0xaaaa, 0, 1, Arc::clone(&cache));
            let (mut seven, mut eight) = (None, None);
            let folds = served(|| {
                seven = Some(a.evaluate(ctx, &plan(0), 0.5));
                eight = Some(b.evaluate(ctx, &plan(0), 0.5));
            });
            let (seven, eight) = (seven.unwrap(), eight.unwrap());
            assert_ne!(seven.latency.mean, eight.latency.mean, "two banks");
            assert_eq!(eight, fresh(8), "the seed-8 engine read seed 7's estimate");
            assert_eq!(seven, fresh(7));
            assert_eq!(folds, (2, 0));
            assert_eq!(cache.len(), 2);
        });
    }

    /// `evaluate_with_scratch` names its bank by one draw of the caller's
    /// generator: the generator advances by exactly one `next_u64`, so a
    /// second call draws a second bank and evaluates the plan afresh.
    #[test]
    fn a_scratch_evaluation_takes_one_draw_of_its_generator() {
        with_ctx(|ctx| {
            let (mut rng, mut once) = (Pcg32::seed(5), Pcg32::seed(5));
            let mut scratch = EstimateScratch::default();
            let first = ctx.evaluate_with_scratch(&plan(0), 0.5, &mut rng, &mut scratch);
            once.next_u64();
            assert_eq!(rng, once);
            let second = ctx.evaluate_with_scratch(&plan(0), 0.5, &mut rng, &mut scratch);
            once.next_u64();
            assert_eq!(rng, once);
            assert_ne!(first, second);
        });
    }

    /// A plan's stored record and the carbon half of its estimate, from a
    /// cold engine's miss of `plan(1)` at hour 0.5.
    fn stored(ctx: &Ctx<'_>) -> (Arc<PlanRecord>, CarbonSummary) {
        let engine = EvalEngine::new(7, 1);
        let estimate = engine.evaluate(ctx, &plan(1), 0.5);
        let table = lock(&engine.table);
        let slot = table
            .keys
            .find(plan(1).assignment())
            .expect("a stored plan");
        let record = table.plans[slot as usize].record.clone();
        (record.expect("its record"), estimate.carbon_half())
    }

    /// A table keeps a new plan's record and then only a longer one: a
    /// second record with equal boundaries is not kept.
    #[test]
    fn a_stored_plan_keeps_only_a_longer_record() {
        let ((one, carbon), (two, _)) = with_ctx(|ctx| {
            let config = MonteCarloConfig {
                max_samples: 16,
                cv_threshold: 0.0,
                ..ctx.mc_config
            };
            let longer = SolverContext {
                mc_config: config,
                ..ctx.with_source(ctx.carbon_source)
            };
            (stored(ctx), stored(&longer))
        });
        assert_eq!((one.boundaries(), two.boundaries()), (1, 2));
        let mut table = Table::default();
        let key = plan(1);
        let mut insert = |hour: f64, record| {
            table.insert(
                key.assignment(),
                hour.to_bits(),
                RegionId(1),
                record,
                carbon,
            )
        };
        assert_eq!(insert(0.5, Arc::clone(&one)), (true, true), "new");
        let equal = Arc::new(PlanRecord::clone(&one));
        assert_eq!(insert(1.5, equal), (true, false), "as long");
        assert_eq!(insert(1.5, Arc::clone(&two)), (false, true), "longer");
        assert_eq!(insert(2.5, one), (true, false), "shorter");
        let slot = table.keys.find(key.assignment()).expect("stored");
        let kept = table.plans[slot as usize].record.as_ref();
        assert!(Arc::ptr_eq(kept.expect("a record"), &two));
    }

    /// What a probe answered: the stored carbon mean's bits, the plan's
    /// record alone, or nothing.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Hit(u64),
        Record,
        Absent,
    }

    /// A cached key: species, assignment, hour bits.
    type Key = (Species, Vec<RegionId>, u64);

    /// The hour index as a tree: (species, hour bits) → the assignments
    /// holding that hour.
    type HourView = BTreeMap<(Species, u64), BTreeSet<Vec<RegionId>>>;

    /// The store as it was before the tables were split by species, reduced
    /// to its keys: two ordered maps behind one owner, so eviction simply
    /// takes the largest key and invalidation scans every plan. The oracle
    /// the per-species tables answer to.
    #[derive(Default)]
    struct Reference {
        species: BTreeMap<Species, BTreeMap<Vec<RegionId>, ReferencePlan>>,
        len: usize,
        evictions: u64,
        /// Every hour entry evicted or invalidated, for the script to store
        /// again.
        dropped: Vec<Key>,
    }

    struct ReferencePlan {
        touched: Vec<RegionId>,
        /// Ascending hour bits → the stored carbon mean's bits.
        hours: Vec<(u64, u64)>,
    }

    impl Reference {
        fn probe(&self, species: Species, assignment: &[RegionId], hour_bits: u64) -> Answer {
            match self.species.get(&species).and_then(|s| s.get(assignment)) {
                None => Answer::Absent,
                Some(plan) => match plan.hours.binary_search_by_key(&hour_bits, |h| h.0) {
                    Ok(at) => Answer::Hit(plan.hours[at].1),
                    Err(_) => Answer::Record,
                },
            }
        }

        fn insert(
            &mut self,
            capacity: usize,
            species: Species,
            assignment: &[RegionId],
            hour_bits: u64,
            home: RegionId,
            value: u64,
        ) {
            let plans = self.species.entry(species).or_default();
            match plans.get_mut(assignment) {
                Some(plan) => match plan.hours.binary_search_by_key(&hour_bits, |h| h.0) {
                    Ok(at) => plan.hours[at].1 = value,
                    Err(at) => {
                        plan.hours.insert(at, (hour_bits, value));
                        self.len += 1;
                    }
                },
                None => {
                    let mut touched = assignment.to_vec();
                    touched.push(home);
                    touched.sort_unstable();
                    touched.dedup();
                    let hours = vec![(hour_bits, value)];
                    plans.insert(assignment.to_vec(), ReferencePlan { touched, hours });
                    self.len += 1;
                }
            }
            while self.len > capacity {
                let last = self
                    .species
                    .iter_mut()
                    .rev()
                    .find_map(|(&species, s)| s.last_entry().map(|last| (species, last)));
                let (species, mut last) = last.expect("hour entries belong to plans");
                if let Some((hour, _)) = last.get_mut().hours.pop() {
                    self.len -= 1;
                    self.evictions += 1;
                    self.dropped.push((species, last.key().clone(), hour));
                }
                if last.get().hours.is_empty() {
                    last.remove();
                }
            }
        }

        fn invalidate_hour(&mut self, hour_bits: u64, regions: &[RegionId]) -> u64 {
            let mut dropped = 0;
            for (&species, plans) in &mut self.species {
                for (assignment, plan) in plans {
                    if let Ok(at) = plan.hours.binary_search_by_key(&hour_bits, |h| h.0) {
                        if plan.touched.iter().any(|r| regions.contains(r)) {
                            plan.hours.remove(at);
                            self.dropped.push((species, assignment.clone(), hour_bits));
                            dropped += 1;
                        }
                    }
                }
            }
            self.len -= dropped;
            dropped as u64
        }

        fn keys(&self) -> Vec<Key> {
            let mut keys = Vec::new();
            for (&species, plans) in &self.species {
                for (assignment, plan) in plans {
                    for &(hour, _) in &plan.hours {
                        keys.push((species, assignment.clone(), hour));
                    }
                }
            }
            keys
        }

        fn hour_view(&self) -> HourView {
            let mut view = HourView::new();
            for (species, assignment, hour) in self.keys() {
                view.entry((species, hour)).or_default().insert(assignment);
            }
            view
        }
    }

    /// Every key the per-species tables hold, sorted.
    fn keys(cache: &EstimateCache) -> Vec<Key> {
        let mut keys = Vec::new();
        for ((species, hour), held) in hour_view(cache) {
            keys.extend(
                held.into_iter()
                    .map(|assignment| (species, assignment, hour)),
            );
        }
        keys.sort_unstable();
        keys
    }

    /// The tables' hour indexes as a tree, after checking that each stored
    /// plan counts the hours the index files under it.
    fn hour_view(cache: &EstimateCache) -> HourView {
        let mut view = HourView::new();
        for (&species, (_, table)) in cache.species().iter() {
            let table = lock(table);
            let mut counted = vec![0u32; table.plans.len()];
            for (hour, held) in &table.hours {
                for &slot in held.keys() {
                    counted[slot as usize] += 1;
                    let assignment = table.keys.key(slot).to_vec();
                    view.entry((species, *hour)).or_default().insert(assignment);
                }
            }
            for (slot, plan) in table.plans.iter().enumerate() {
                assert_eq!(plan.hours, counted[slot], "slot {slot}: hours held");
                assert!(
                    plan.hours == 0 || plan.record.is_some(),
                    "slot {slot}: a freed plan"
                );
            }
        }
        view
    }

    /// The cache oracle: seeded scripts of probes, inserts, re-inserts of
    /// hour entries an eviction or an invalidation dropped, and
    /// invalidations over 1–3 species, 1–4-node assignments and three
    /// hours, at capacities 1–12, run against the per-species tables and
    /// the reference store. Every probe answers alike, and after every
    /// step the entry and eviction counts agree and each table's hour index
    /// files exactly the plans the reference holds at each hour; the
    /// retained keys are the same at the end.
    #[test]
    fn per_species_tables_answer_like_the_reference_store() {
        // A real record and carbon half, so that a stored hour is a hit.
        let (record, carbon) = with_ctx(stored);
        const FINGERPRINTS: [u64; 3] = [0, 0xaaaa, 0xbbbb];
        const HOURS: [f64; 3] = [0.5, 1.5, 2.5];
        // Hour entries invalidated, and dropped ones stored again, over all
        // scripts.
        let (mut invalidated, mut restored) = (0, 0);
        for script in 0..300u64 {
            let mut rng = Pcg32::seed(script);
            let capacity = 1 + rng.next_index(12);
            let cache = EstimateCache::new(capacity);
            let mut reference = Reference::default();
            // (species, its table, its node count, its home)
            let species: Vec<(Species, SharedTable, usize, RegionId)> = (0..1 + rng.next_index(3))
                .map(|i| {
                    let species = (7, FINGERPRINTS[i], 2 * rng.next_index(2) as u64);
                    let nodes = 1 + rng.next_index(4);
                    (species, cache.table(species).1, nodes, RegionId(i as u16))
                })
                .collect();
            for step in 0..120u64 {
                let (mut id, mut table, nodes, mut home) = {
                    let (id, table, nodes, home) = &species[rng.next_index(species.len())];
                    (*id, table, *nodes, *home)
                };
                let mut assignment: Vec<RegionId> = (0..nodes)
                    .map(|_| RegionId(rng.next_index(3) as u16))
                    .collect();
                let mut hour_bits = HOURS[rng.next_index(HOURS.len())].to_bits();
                let at = format!("script {script} step {step}");
                let mut stored = carbon;
                stored.carbon.mean = step as f64;
                let value = stored.carbon.mean.to_bits();
                match rng.next_index(10) {
                    0..=3 => {
                        let answer = match lock(table).probe(&assignment, hour_bits) {
                            Ok(hit) => Answer::Hit(hit.carbon.mean.to_bits()),
                            Err(Some(_)) => Answer::Record,
                            Err(None) => Answer::Absent,
                        };
                        let expected = reference.probe(id, &assignment, hour_bits);
                        assert_eq!(answer, expected, "{at}: probe");
                    }
                    op @ 4..=7 => {
                        // One insert in four stores again an hour entry
                        // that was dropped, when one was.
                        if op == 7 && !reference.dropped.is_empty() {
                            let pick = rng.next_index(reference.dropped.len());
                            (id, assignment, hour_bits) = reference.dropped.swap_remove(pick);
                            let (_, t, _, h) = species.iter().find(|s| s.0 == id).unwrap();
                            (table, home) = (t, *h);
                            restored += 1;
                        }
                        let record = Arc::clone(&record);
                        cache.insert(table, &assignment, hour_bits, home, record, stored);
                        reference.insert(capacity, id, &assignment, hour_bits, home, value);
                    }
                    _ => {
                        let regions: Vec<RegionId> = (0..3u16)
                            .filter(|_| rng.chance(0.5))
                            .map(RegionId)
                            .collect();
                        let hour = f64::from_bits(hour_bits);
                        let dropped = cache.invalidate_hour(hour, &regions);
                        assert_eq!(
                            dropped,
                            reference.invalidate_hour(hour_bits, &regions),
                            "{at}: dropped"
                        );
                        invalidated += dropped;
                    }
                }
                assert_eq!(cache.len(), reference.len, "{at}: len");
                assert_eq!(
                    cache.eviction_count(),
                    reference.evictions,
                    "{at}: evictions"
                );
                assert_eq!(hour_view(&cache), reference.hour_view(), "{at}: hour index");
            }
            assert_eq!(
                keys(&cache),
                reference.keys(),
                "script {script}: retained keys"
            );
            if capacity <= 4 {
                assert!(reference.evictions > 0, "script {script}: nothing evicted");
            }
        }
        assert!(
            invalidated > 1000 && restored > 1000,
            "{invalidated} {restored}"
        );
    }
}
