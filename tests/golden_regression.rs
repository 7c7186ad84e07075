//! Golden regression pins for the repo's §9 headline numbers.
//!
//! Every pipeline below is a pure function of its seeds, so these
//! fixed-seed outputs are bit-stable across refactors that preserve
//! semantics — and move the moment an "equivalent" change quietly shifts
//! the published results. EXPERIMENTS.md quotes the same figures; update
//! both together, and only deliberately.

use caribou_bench::harness::Week;
use caribou_core::chaos::run_campaign;
use caribou_core::scenario::{default_tolerances, World};
use caribou_core::ChaosConfig;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

/// Hours between evaluation points: the figures' pipelines at coarse
/// resolution.
const STEP: usize = 12;

/// Relative tolerance for the floating-point pins: tight enough that any
/// semantic drift trips it, loose enough to survive benign float
/// formatting (the pipelines themselves are bit-deterministic).
const REL_TOL: f64 = 1e-9;

fn assert_close(actual: f64, pinned: f64, what: &str) {
    let rel = ((actual - pinned) / pinned).abs();
    assert!(
        rel <= REL_TOL,
        "{what}: got {actual:.12e}, pinned {pinned:.12e} (rel err {rel:.3e})"
    );
}

/// The §9.1/Fig. 11 headline: fine-grained shifting of the compute-heavy
/// Text2Speech workload over the evaluation week (best-case transmission,
/// fast experiment profile) — pinned carbon, tail latency, and cost.
#[test]
fn text2speech_weekly_numbers_are_pinned() {
    let env = World::evaluation(600);
    let bench = text2speech_censoring(InputSize::Small);
    let week = Week::new(&env, &bench, TransmissionScenario::BEST, STEP, 600);
    let base = week.coarse(env.home);
    let fine = week.fine(&env.regions, &week.tolerating(default_tolerances()));

    assert_close(
        base.carbon_g,
        GOLDEN_BASE_CARBON_G,
        "home-only weekly carbon",
    );
    assert_close(
        fine.carbon_g,
        GOLDEN_FINE_CARBON_G,
        "fine-grained weekly carbon",
    );
    assert_close(
        fine.latency_p95_s,
        GOLDEN_FINE_P95_S,
        "fine-grained p95 latency",
    );
    assert_close(
        fine.cost_usd,
        GOLDEN_FINE_COST_USD,
        "fine-grained weekly cost",
    );
    // The headline claim itself: large best-case savings (§9.1).
    let norm = fine.carbon_g / base.carbon_g;
    assert!(
        norm < 0.4,
        "weekly carbon norm {norm} lost the headline savings"
    );
}

/// The §6.1-resilience headline from EXPERIMENTS.md's chaos table:
/// default seed-42 campaign (500 requests, 6 h, breaker on) — pinned
/// completion split and latency percentiles (p99 17.40 s with breaker).
#[test]
fn chaos_campaign_numbers_are_pinned() {
    let report = run_campaign(&ChaosConfig::default());
    assert_eq!(report.requests, 500);
    assert_eq!(report.completed_clean, 473);
    assert_eq!(report.fell_back_home, 27);
    assert_eq!(report.failed, 0);
    assert_eq!(report.breaker_reroutes, 67);
    assert_close(
        report.p50_latency_s,
        GOLDEN_CHAOS_P50_S,
        "chaos p50 latency",
    );
    assert_close(
        report.p99_latency_s,
        GOLDEN_CHAOS_P99_S,
        "chaos p99 latency",
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

// Pinned values, measured once at fixed seeds (see EXPERIMENTS.md).
const GOLDEN_BASE_CARBON_G: f64 = 0.006980672176795146;
const GOLDEN_FINE_CARBON_G: f64 = 0.0011342627881229285;
const GOLDEN_FINE_P95_S: f64 = 14.79572596125164;
const GOLDEN_FINE_COST_USD: f64 = 0.0004312756226831456;
const GOLDEN_CHAOS_P50_S: f64 = 2.1977746314841937;
const GOLDEN_CHAOS_P99_S: f64 = 17.40237316594512;
