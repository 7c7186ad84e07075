//! Measures the data plane's real heap behaviour with a counting global
//! allocator: the pooled `invoke_with_scratch` path must allocate
//! measurably less per invocation than the fresh-buffer `invoke` path,
//! a sustained-load run's peak live heap must not grow with its length,
//! a framework alternating between two workflows must allocate no more
//! than one running them in turn, an HBSS walk over a warm cache must
//! allocate a fixed handful of buffers per solve, whatever it visits, a
//! cold miss must allocate its record and one block on the cache side, a
//! re-pricing must allocate nothing but the cache's new hour entry, and a
//! fold of a plan whose every site the bank holds must allocate nothing
//! but its record.
//!
//! Allocator calls are counted per thread — the libtest harness thread
//! prints result lines and spawns the next test inside a sibling's
//! measuring window — and every counted path runs on the test's own
//! thread (`workers: 1` runs inline). The live and peak byte counters are
//! process-global, because the loadgen test measures worker threads, so
//! the tests of this file take [`SERIAL`] first: a sibling running
//! concurrently would pollute those deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_core::framework::{Caribou, CaribouConfig};
use caribou_core::loadgen::{run_loadgen, LoadgenConfig, CHUNK_INVOCATIONS};
use caribou_core::scenario::{default_tolerances, workflow_app, World, HOME};
use caribou_exec::engine::{ExecutionEngine, InvocationScratch};
use caribou_metrics::bank::SharedBank;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::fold::PlanRecord;
use caribou_metrics::montecarlo::{EstimateScratch, MonteCarloConfig};
use caribou_model::constraints::Constraints;
use caribou_model::dag::NodeId;
use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

struct CountingAllocator;

thread_local! {
    /// `alloc` + `realloc` calls of this thread. Const-initialised and
    /// without a destructor, so reading it allocates nothing and it is
    /// there for as long as the thread can allocate.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|calls| calls.set(calls.get() + 1));
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|calls| calls.set(calls.get() + 1));
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// One test of this file at a time. The lock guards no data, so a
/// sibling's failed assertion must not fail this one too.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocator calls the calling thread has made.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Most bytes live at once while `f` ran, above what was live before it.
fn peak_live_bytes(f: impl FnOnce()) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed) - before
}

/// 300 gCO₂eq/kWh in every region of `cloud`, for eight days.
fn flat_carbon(cloud: &SimCloud) -> TableSource {
    let mut carbon = TableSource::new();
    for (id, _) in cloud.regions.iter() {
        carbon.insert(id, CarbonSeries::new(0, vec![300.0; 24 * 8]));
    }
    carbon
}

#[test]
fn pooled_scratch_reduces_allocations_per_invocation() {
    let _serial = serial();
    let mut cloud = SimCloud::aws(5);
    let bench = text2speech_censoring(InputSize::Small);
    let app = workflow_app(&bench, cloud.region(HOME).unwrap());
    let plan = DeploymentPlan::uniform(app.dag.node_count(), app.home);
    let carbon = flat_carbon(&cloud);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut cloud, &app, &plan);

    const ROUNDS: u64 = 200;
    let mut scratch = InvocationScratch::new();
    // Warm both paths (KV tables, warm pool, the scratch itself) so the
    // measured window sees steady state only.
    for inv in 0..20u64 {
        let mut rng = Pcg32::seed(inv);
        engine.invoke(&mut cloud, &app, &plan, inv, inv as f64 * 40.0, &mut rng);
        let mut rng = Pcg32::seed(inv);
        engine.invoke_with_scratch(
            &mut cloud,
            &app,
            &plan,
            inv,
            1e5 + inv as f64 * 40.0,
            &mut rng,
            &mut scratch,
        );
    }

    let before_fresh = allocs();
    for inv in 0..ROUNDS {
        let mut rng = Pcg32::seed(1000 + inv);
        engine.invoke(
            &mut cloud,
            &app,
            &plan,
            1000 + inv,
            2e5 + inv as f64 * 40.0,
            &mut rng,
        );
    }
    let fresh = allocs() - before_fresh;

    let before_pooled = allocs();
    for inv in 0..ROUNDS {
        let mut rng = Pcg32::seed(1000 + inv);
        engine.invoke_with_scratch(
            &mut cloud,
            &app,
            &plan,
            1000 + inv,
            3e5 + inv as f64 * 40.0,
            &mut rng,
            &mut scratch,
        );
    }
    let pooled = allocs() - before_pooled;

    let fresh_per_inv = fresh as f64 / ROUNDS as f64;
    let pooled_per_inv = pooled as f64 / ROUNDS as f64;
    eprintln!(
        "alloc_budget: fresh {fresh_per_inv:.1} allocs/invocation, \
         pooled {pooled_per_inv:.1} allocs/invocation"
    );
    assert!(
        pooled_per_inv < 0.75 * fresh_per_inv,
        "pooling saved too little: fresh {fresh_per_inv:.1} vs pooled {pooled_per_inv:.1}"
    );
    // The steady-state budget: the two log-record vectors handed to the
    // caller inside the InvocationLog, and nothing else. Everything the
    // engine touches per invocation — ctx vectors, event queue, topic and
    // table addresses (resolved once into the scratch's book), payload
    // Bytes (static), KV/blob items (numeric keys), sync annotations
    // (static table), the usage meter (the scratch's rows, reset in
    // place), the workflow name stamp (interned) — must come from reused
    // or static storage.
    assert!(
        pooled_per_inv <= 2.0,
        "steady-state budget blown: {pooled_per_inv:.1} allocs/invocation (budget 2.0)"
    );

    // Per-phase breakdown via telemetry, asserted OUTSIDE the counting
    // windows above (the telemetry recorder itself allocates): a future
    // regression trips one of these gauges and names the subsystem that
    // started allocating instead of just moving the total.
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    let mut rng = Pcg32::seed(9999);
    engine.invoke_with_scratch(&mut cloud, &app, &plan, 9999, 4e5, &mut rng, &mut scratch);
    let session = caribou_telemetry::finish().unwrap();
    let total = session.recorder.gauges["engine.alloc_per_invocation"];
    let log_records = session.recorder.gauges["engine.alloc_per_invocation.log_records"];
    let scratch_grew = session.recorder.gauges["engine.alloc_per_invocation.scratch"];
    assert_eq!(
        log_records, 2.0,
        "log-record vectors are the only budgeted allocations"
    );
    assert_eq!(scratch_grew, 0.0, "warm scratch buffers regrew");
    assert_eq!(
        total,
        log_records + scratch_grew,
        "breakdown must sum to the total"
    );
    assert_eq!(
        total, 2.0,
        "telemetry budget gauge drifted from the measured budget"
    );
}

/// The sharded path `caribou loadgen` runs: two shards journaling their
/// warm touches and exchanging them at every tick. One more round — 16,384
/// invocations and one exchange — allocates the two log-record vectors per
/// invocation and a handful of harness buffers per round: a warm touch
/// allocates only on a deployment's first use (its slot), and each shard's
/// journal is a slot list kept across rounds. (A journal kept as a tree
/// keyed by name allocates a leaf per shard per round: 11 a round.)
#[test]
fn sharded_loadgen_allocates_the_log_records_and_nothing_per_touch() {
    let _serial = serial();
    const SHARDS: usize = 2;
    const PER_ROUND: usize = SHARDS * CHUNK_INVOCATIONS;
    let bench = text2speech_censoring(InputSize::Small);
    let run = |rounds: usize| {
        let config = LoadgenConfig {
            invocations: rounds * PER_ROUND,
            seed: 42,
            workers: 1,
            shards: SHARDS,
            ..LoadgenConfig::default()
        };
        let before = allocs();
        let report = run_loadgen(&bench, &config).expect("calibrated catalog");
        assert_eq!(report.invocations(), config.invocations as u64);
        assert!(report.cold_starts > 0 && report.warm_starts > report.cold_starts);
        allocs() - before
    };
    let round = run(3) - run(2);
    let harness = round - 2 * PER_ROUND as u64;
    eprintln!(
        "alloc_budget: one more sharded round allocates {round} times: 2 per invocation + {harness}"
    );
    assert!(
        round >= 2 * PER_ROUND as u64 && harness <= 9,
        "a round of {PER_ROUND} invocations allocated {round} times: 2 per invocation + {harness} \
         (budget 9 a round)"
    );
}

/// Streaming aggregates and per-round arrival buffers: a sustained-load
/// run holds O(shards x chunk) bytes however long it is. Quadrupling the
/// run must not raise the peak live heap (measured: by 0 B); the same
/// long run beside a vector of one `f64` per invocation, held across it,
/// is the control that this allocator does see an O(N) buffer when there
/// is one.
#[test]
fn loadgen_peak_heap_is_flat_in_run_length() {
    let _serial = serial();
    let bench = text2speech_censoring(InputSize::Small);
    let peak = |chunks: usize, hold_per_invocation: bool| {
        let config = LoadgenConfig {
            invocations: chunks * CHUNK_INVOCATIONS,
            seed: 42,
            workers: 1,
            shards: 1,
            arrivals: ArrivalProcess::Diurnal { rate_per_s: 200.0 },
            ..LoadgenConfig::default()
        };
        peak_live_bytes(|| {
            let held = hold_per_invocation.then(|| Vec::<f64>::with_capacity(config.invocations));
            let report = run_loadgen(&bench, &config).expect("calibrated catalog");
            assert_eq!(report.invocations(), config.invocations as u64);
            drop(std::hint::black_box(held));
        })
    };
    let short = peak(2, false);
    let long = peak(8, false);
    let captured = peak(8, true);
    eprintln!(
        "alloc_budget: peak live heap {short} B at 2 chunks, {long} B at 8, \
         {captured} B at 8 beside a held latency-sized vector"
    );
    // The harness's own threads may allocate a message while a run is at
    // its peak; one byte per invocation would add six chunks, 49,152 B.
    const STRAY_BYTES: usize = 4096;
    assert!(
        long <= short + STRAY_BYTES,
        "peak live heap grew {} B from 2 to 8 chunks: an O(N) buffer is back",
        long.saturating_sub(short)
    );
    let latency_vector = 8 * CHUNK_INVOCATIONS * std::mem::size_of::<f64>();
    assert!(
        captured >= long + latency_vector,
        "the allocator missed the {latency_vector} B latency vector: {captured} B vs {long} B"
    );
}

/// The HBSS walk allocates per solve, not per plan it visits. Re-solving an
/// hour on a warm engine serves every candidate from the cache, so what is
/// left is the walk's own bookkeeping, sized when the solve starts: the
/// grid row, the intensity table, the per-node rankings and their ends, the
/// rank weights, the home, current and candidate plans, and the
/// first-visit set's key buffer and index, sized for every plan the walk
/// can visit. A first visit stores its key in that buffer, an improvement
/// overwrites the best plan in place (it starts as the home plan), the
/// candidate is rewritten in one buffer and an acceptance swaps it with
/// the current plan. The walk is five times the default length, so it
/// revisits most of what it draws, and visits enough distinct plans that
/// one allocation per plan would overrun the budget many times over.
#[test]
fn warm_resolve_allocates_per_solve_not_per_plan() {
    let _serial = serial();
    let world = World::evaluation(5);
    let bench = text2speech_censoring(InputSize::Small);
    let mc = MonteCarloConfig {
        batch: 40,
        max_samples: 80,
        cv_threshold: 0.2,
    };
    let case = world.case(&bench, TransmissionScenario::BEST, mc);
    let nodes = bench.dag.node_count();
    let permitted = vec![world.regions.clone(); nodes];
    let ctx = case.context(&permitted, default_tolerances(), &world.carbon);
    let engine = EvalEngine::new(42, 1);
    let solver = HbssSolver {
        params: HbssParams {
            alpha_factor: 30,
            ..HbssParams::default()
        },
    };
    let solve = || solver.solve_with(&engine, &ctx, 7.5, &mut Pcg32::seed(3));

    let cold = solve();
    let (hits, misses) = (engine.hit_count(), engine.miss_count());
    let before = allocs();
    let warm = solve();
    let allocated = allocs() - before;
    assert_eq!(engine.miss_count(), misses, "the warm re-solve missed");
    assert_eq!(warm.best, cold.best);
    // The home plan's estimate, then one per iteration.
    let iterations = engine.hit_count() - hits - 1;
    let distinct = warm.evaluated as u64;
    // The ten buffers above, whatever the walk visits.
    const PER_SOLVE: u64 = 10;
    eprintln!(
        "alloc_budget: warm re-solve of {iterations} iterations over {distinct} distinct plans \
         allocated {allocated} times (budget {PER_SOLVE})"
    );
    assert!(
        distinct > 10 * PER_SOLVE,
        "{distinct} distinct plans cannot tell a per-plan allocation from the budget"
    );
    assert!(
        allocated <= PER_SOLVE,
        "a warm re-solve allocated {allocated} times over {distinct} distinct plans and \
         {iterations} iterations (budget {PER_SOLVE} per solve)"
    );
}

/// A miss on a plan the cache has never seen, whose every site the bank
/// holds, allocates the plan's record (the fold's one allocation, see
/// below) and one block on the cache side, the shared handle the record
/// is kept and lent out in. The key is stored once in the species table's
/// key buffer, the hour entry in the table's hour index, and the home and
/// hour count beside the record's handle: flat buffers that double as
/// they fill, at most once per power of two each. The engine's estimator
/// scratch is its thread's, already sized by the warm-up.
#[test]
fn a_cold_miss_allocates_its_record_and_one_cache_block() {
    let _serial = serial();
    let world = World::evaluation(5);
    let bench = text2speech_censoring(InputSize::Small);
    // Every estimate stops at one batch, so every fold reaches one depth.
    let mc = MonteCarloConfig {
        batch: 200,
        max_samples: 200,
        cv_threshold: 0.0,
    };
    let case = world.case(&bench, TransmissionScenario::BEST, mc);
    let nodes = bench.dag.node_count();
    let permitted = vec![world.regions.clone(); nodes];
    let ctx = case.context(&permitted, default_tolerances(), &world.carbon);
    let away = *world.regions.iter().find(|r| **r != world.home).unwrap();
    // Plan `bits`: node `n` away where bit `n` is set, home elsewhere.
    let plan = |bits: u32| {
        let mut plan = DeploymentPlan::uniform(nodes, world.home);
        (0..nodes as u32)
            .filter(|n| bits >> n & 1 == 1)
            .for_each(|n| plan.set(NodeId(n), away));
        plan
    };
    let engine = EvalEngine::new(42, 1);
    // Home and each node moved alone: every node's columns in both
    // regions and every transfer at both bandwidths.
    let warm: Vec<u32> = [0].into_iter().chain((0..nodes).map(|n| 1 << n)).collect();
    for &bits in &warm {
        engine.evaluate(&ctx, &plan(bits), 7.5);
    }
    let cold: Vec<DeploymentPlan> = (0..1u32 << nodes)
        .filter(|bits| !warm.contains(bits))
        .map(plan)
        .collect();
    let misses = engine.miss_count();
    let before = allocs();
    for plan in &cold {
        engine.evaluate(&ctx, plan, 7.5);
    }
    let allocated = allocs() - before;
    let plans = cold.len() as u64;
    assert_eq!(engine.miss_count() - misses, plans, "a cold plan hit");
    // Keys, their index, the plans, their key order and the hour's
    // entries, each doubling up to the table's final size.
    let doublings = 5 * (u64::BITS - (plans + warm.len() as u64).leading_zeros()) as u64;
    let budget = 2 * plans + doublings;
    eprintln!(
        "alloc_budget: {plans} misses on never-seen plans allocated {allocated} times \
         (budget {budget}: a record and a block each + {doublings})"
    );
    assert!(
        allocated <= budget,
        "{plans} cold misses allocated {allocated} times (budget {budget}: 2 per plan + \
         {doublings} buffer doublings)"
    );
    // The resolved sites: the same misses on a cold engine fold nothing the
    // bank lacked once it held the warm plans' sites.
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    let fresh = EvalEngine::new(42, 1);
    for &bits in &warm {
        fresh.evaluate(&ctx, &plan(bits), 7.5);
    }
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    let computed = recorder.counter("montecarlo.bank.derived");
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    for plan in &cold {
        assert_eq!(
            fresh.evaluate(&ctx, plan, 7.5),
            engine.evaluate(&ctx, plan, 7.5)
        );
    }
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    assert!(computed > 0);
    assert_eq!(
        recorder.counter("montecarlo.bank.derived"),
        0,
        "a cold plan computed a derived column"
    );
    assert_eq!(
        recorder.counter("montecarlo.sites.folded"),
        0,
        "a node site was computed"
    );
}

/// A miss whose plan the cache has folded is a re-pricing: the carbon of a
/// kept record at a new hour. It reads the bank and writes the estimator
/// scratch's columns (the carbon column, the tail's key buffer), which an
/// earlier estimate sized, so it allocates nothing; only the cache's new
/// hour entry may grow that plan's list of hours. On a flat grid the next
/// hour's walk is the same walk as this hour's, so a warm engine re-solving
/// it re-prices every plan it visits and folds none, and the re-solve
/// allocates what the same walk allocates on hits, plus that growth.
#[test]
fn a_repricing_allocates_nothing_in_the_estimator() {
    let _serial = serial();
    let world = World::evaluation(5);
    let bench = text2speech_censoring(InputSize::Small);
    let case = world.case(
        &bench,
        TransmissionScenario::BEST,
        MonteCarloConfig::default(),
    );
    let permitted = vec![world.regions.clone(); bench.dag.node_count()];
    let carbon = flat_carbon(&world.cloud);
    let ctx = case.context(&permitted, default_tolerances(), &carbon);
    let engine = EvalEngine::new(42, 1);
    let solver = HbssSolver {
        params: HbssParams {
            alpha_factor: 30,
            ..HbssParams::default()
        },
    };
    let solve = |hour| solver.solve_with(&engine, &ctx, hour, &mut Pcg32::seed(3));

    let cold = solve(7.5);
    let before = allocs();
    let hit = solve(7.5);
    let on_hits = allocs() - before;
    let (misses, entries) = (engine.miss_count(), engine.cache_len());
    let before = allocs();
    let next = solve(8.5);
    let on_repricings = allocs() - before;
    let repriced = engine.miss_count() - misses;
    // Each re-pricing adds its plan's entry for the new hour.
    let growth = (engine.cache_len() - entries) as u64;
    assert_eq!(growth, repriced);
    for walk in [&hit, &next] {
        assert_eq!((&walk.best, walk.evaluated), (&cold.best, cold.evaluated));
    }
    // The hour after that, counted: every miss a re-pricing, no fold.
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    solve(9.5);
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    assert_eq!(
        recorder.counter("montecarlo.folds"),
        0,
        "a next hour folded"
    );
    assert_eq!(recorder.counter("montecarlo.repriced"), repriced);
    eprintln!(
        "alloc_budget: a walk allocated {on_hits} times on hits and {on_repricings} on \
         {repriced} re-pricings (hour-entry growth {growth})"
    );
    assert!(
        on_repricings <= on_hits + growth,
        "{repriced} re-pricings allocated {on_repricings} times, the same walk on hits \
         {on_hits} (budget: that plus {growth} new hour entries)"
    );
}

/// A neighbour of folded plans whose every site the bank holds — each
/// node's columns in its region, each transfer's GB and its quotient at
/// its bandwidth — is folded by arithmetic alone: it reads every column,
/// computes none, resolves its constants site by site and lists nothing,
/// so the estimate allocates its record and nothing else. (Before the
/// per-site resolution the same fold built three per-plan tables and a
/// list of ~35 columns to check: 7 allocations.)
#[test]
fn a_fold_on_resolved_sites_allocates_only_its_record() {
    let _serial = serial();
    let world = World::evaluation(5);
    let bench = text2speech_censoring(InputSize::Small);
    // Every estimate stops at one batch, so every fold reaches one depth.
    let mc = MonteCarloConfig {
        batch: 200,
        max_samples: 200,
        cv_threshold: 0.0,
    };
    let case = world.case(&bench, TransmissionScenario::BEST, mc);
    let nodes = bench.dag.node_count();
    let permitted = vec![world.regions.clone(); nodes];
    let ctx = case.context(&permitted, default_tolerances(), &world.carbon);
    let away = *world.regions.iter().find(|r| **r != world.home).unwrap();
    let moved = |moved: &[u32]| {
        let mut plan = DeploymentPlan::uniform(nodes, world.home);
        moved.iter().for_each(|&n| plan.set(NodeId(n), away));
        plan
    };
    // Home, then nodes 1 and 2 moved one at a time: every edge and the
    // entry at both bandwidths, both nodes' columns away.
    let (bank, mut scratch) = (SharedBank::default(), EstimateScratch::default());
    let fold = |plan: &DeploymentPlan, scratch: &mut EstimateScratch| {
        let unfolded = PlanRecord::default();
        let rng = &mut Pcg32::seed(11);
        ctx.evaluate_on(plan, 7.5, rng, &bank, scratch, &unfolded).0
    };
    for plan in [moved(&[]), moved(&[1]), moved(&[2])] {
        fold(&plan, &mut scratch);
    }
    let both = moved(&[1, 2]);
    let before = allocs();
    let estimate = fold(&both, &mut scratch);
    let allocated = allocs() - before;

    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    assert_eq!(fold(&both, &mut scratch), estimate);
    let recorder = caribou_telemetry::finish().unwrap().recorder;
    assert_eq!(recorder.counter("montecarlo.folds"), 1);
    assert_eq!(
        recorder.counter("montecarlo.sites.folded"),
        0,
        "a node site was computed"
    );
    assert_eq!(
        recorder.counter("montecarlo.bank.derived"),
        0,
        "a derived column was computed"
    );
    eprintln!("alloc_budget: a fold on resolved sites allocated {allocated} times");
    assert!(
        allocated <= 1,
        "a fold on resolved sites allocated {allocated} times (budget: its record)"
    );
}

/// Each deployed workflow keeps its own invocation scratch, so the
/// addresses it resolved (topics, tables, the plan item) stay bound while
/// `run_multi` alternates workflows: two interleaved traces allocate what
/// the same two traces allocate run one after the other. With one scratch
/// for the whole framework every switch forgot the book and re-resolved
/// it by name, ~20 allocations per invocation.
#[test]
fn interleaved_workflows_allocate_no_more_than_sequential_ones() {
    let _serial = serial();
    const PER_WORKFLOW: usize = 200;
    /// Both runs cover the same simulated half hour after the warm-up.
    const START_S: f64 = 600.0;
    const GAP_S: f64 = 4.0;

    let measure = |interleaved: bool| {
        let cloud = SimCloud::aws(5);
        let carbon = flat_carbon(&cloud);
        let mut config = CaribouConfig::new(
            cloud.regions.evaluation_regions(),
            TransmissionScenario::BEST,
        );
        config.workers = 1;
        let home = cloud.region(HOME).unwrap();
        let mut fw = Caribou::new(cloud, carbon, config);
        let bench = text2speech_censoring(InputSize::Small);
        let mut deploy = |name: &str| {
            let mut app = workflow_app(&bench, home);
            app.name = name.into();
            let n = app.dag.node_count();
            let manifest = DeploymentManifest::new(name, "0.1", HOME);
            fw.deploy(app, &manifest, Constraints::unconstrained(n))
                .unwrap()
        };
        let (a, b) = (deploy("first"), deploy("second"));
        // Past each manager's first (empty) token check and with every
        // table, topic, warm container and scratch buffer in place.
        let warm_up: Vec<f64> = (0..20).map(|i| i as f64 * GAP_S).collect();
        fw.run_multi(&[(a, &warm_up), (b, &warm_up)]);

        let slot = |i: usize| START_S + i as f64 * GAP_S;
        let before = allocs();
        if interleaved {
            let trace = |offset: usize| -> Vec<f64> {
                (0..PER_WORKFLOW).map(|k| slot(2 * k + offset)).collect()
            };
            let reports = fw.run_multi(&[(a, &trace(0)), (b, &trace(1))]);
            assert_eq!(
                reports[&a].samples.len() + reports[&b].samples.len(),
                2 * PER_WORKFLOW
            );
        } else {
            for (idx, first) in [(a, 0), (b, PER_WORKFLOW)] {
                let trace: Vec<f64> = (first..first + PER_WORKFLOW).map(slot).collect();
                assert_eq!(fw.run_trace(idx, &trace).samples.len(), PER_WORKFLOW);
            }
        }
        (allocs() - before) as f64 / (2 * PER_WORKFLOW) as f64
    };
    let sequential = measure(false);
    let interleaved = measure(true);
    eprintln!(
        "alloc_budget: {sequential:.2} allocs/invocation run in turn, \
         {interleaved:.2} interleaved"
    );
    // The merged timeline and the second report are the harness's, a
    // handful of allocations per run, not per invocation.
    assert!(
        interleaved <= sequential + 0.1,
        "alternating workflows re-resolves addresses: {interleaved:.2} allocs/invocation \
         interleaved vs {sequential:.2} in turn"
    );
}
