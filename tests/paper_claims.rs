//! Reduced-scale checks of the paper's headline claims (§9.2 insights).
//!
//! These run the figure pipelines at coarse resolution so the claims stay
//! continuously verified by `cargo test`; the full-resolution numbers come
//! from the `caribou-bench` binaries.

use caribou_bench::harness::Week;
use caribou_core::scenario::{default_tolerances, World};
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_workloads::benchmarks::{
    image_processing, text2speech_censoring, video_analytics, InputSize,
};

/// Hours between evaluation points: the figures' pipelines at coarse
/// resolution.
const STEP: usize = 12;

/// I1: static deployment to a lower-carbon region does not necessarily
/// reduce emissions — coarse offloading of the transmission-heavy Image
/// Processing workload under the worst-case scenario *increases* carbon.
#[test]
fn i1_static_low_carbon_deployment_can_worsen_emissions() {
    let env = World::evaluation(400);
    let bench = image_processing(InputSize::Large);
    let week = Week::new(&env, &bench, TransmissionScenario::WORST, STEP, 400);
    let base = week.coarse(env.home);
    let coarse_ca = week.coarse(env.region("ca-central-1"));
    assert!(
        coarse_ca.carbon_g > base.carbon_g * 2.0,
        "coarse offload must backfire: home {} vs ca {}",
        base.carbon_g,
        coarse_ca.carbon_g
    );
}

/// I2: the adaptive framework tames the spikes — Caribou never does
/// meaningfully worse than the home deployment, even where coarse
/// offloading backfires badly.
#[test]
fn i2_adaptive_framework_never_backfires() {
    let env = World::evaluation(401);
    for bench in [
        image_processing(InputSize::Large),
        image_processing(InputSize::Small),
    ] {
        let week = Week::new(&env, &bench, TransmissionScenario::WORST, STEP, 401);
        let base = week.coarse(env.home);
        let fine = week.fine(&env.regions, &week.tolerating(default_tolerances()));
        assert!(
            fine.carbon_g <= base.carbon_g * 1.05,
            "{} {}: fine {} vs home {}",
            bench.name,
            bench.input.label(),
            fine.carbon_g,
            base.carbon_g
        );
    }
}

/// I4: effectiveness depends on the compute-to-transmission ratio — the
/// compute-heavy Video Analytics saves far more than the transmission-
/// heavy Image Processing.
#[test]
fn i4_savings_grow_with_compute_to_transmission_ratio() {
    let env = World::evaluation(402);
    let norm = |bench: &caribou_workloads::benchmarks::Benchmark| -> f64 {
        let week = Week::new(&env, bench, TransmissionScenario::BEST, STEP, 402);
        let base = week.coarse(env.home);
        let fine = week.fine(&env.regions, &week.tolerating(default_tolerances()));
        fine.carbon_g / base.carbon_g
    };
    let compute_heavy = norm(&video_analytics(InputSize::Small));
    let transmission_heavy = norm(&image_processing(InputSize::Large));
    assert!(
        compute_heavy < transmission_heavy * 0.5,
        "compute-heavy {compute_heavy} vs transmission-heavy {transmission_heavy}"
    );
}

/// The carbon calibration reproduces §9.2's reported grid relations.
#[test]
fn carbon_calibration_matches_reported_relations() {
    use caribou_carbon::source::CarbonDataSource;
    let env = World::evaluation(403);
    let avg = |name: &str| env.carbon.average(env.region(name), 0.0, 168.0);
    let pjm = avg("us-east-1");
    assert!((1.0 - avg("ca-central-1") / pjm - 0.915).abs() < 0.03);
    assert!((1.0 - avg("us-west-1") / pjm - 0.061).abs() < 0.05);
    assert!((avg("us-west-2") / pjm - 1.0).abs() < 0.1);
    // Same grid → identical intensity (us-east-1 and us-east-2 on PJM).
    let e1 = env.region("us-east-1");
    let e2 = env.region("us-east-2");
    assert_eq!(
        env.carbon.intensity(e1, 42.0),
        env.carbon.intensity(e2, 42.0)
    );
}

/// §9.4: carbon is (weakly) non-increasing in the latency tolerance, and
/// the chosen deployments meet the QoS bound.
#[test]
fn latency_tolerance_trades_into_carbon() {
    let env = World::evaluation(404);
    let bench = text2speech_censoring(InputSize::Small);
    let week = Week::new(&env, &bench, TransmissionScenario::BEST, STEP, 404);
    let base = week.coarse(env.home);
    let mut norms = Vec::new();
    for tol in [0.0, 0.10] {
        let t = caribou_model::constraints::Tolerances {
            latency: tol,
            cost: 1.0,
            carbon: f64::INFINITY,
        };
        let fine = week.fine(&env.regions, &week.tolerating(t));
        let qos = base.latency_p95_s * (1.0 + tol);
        assert!(
            fine.latency_p95_s <= qos * 1.03,
            "tol {tol}: p95 {} vs bound {qos}",
            fine.latency_p95_s
        );
        norms.push(fine.carbon_g / base.carbon_g);
    }
    assert!(
        norms[1] <= norms[0] + 0.02,
        "more tolerance must not cost carbon: {norms:?}"
    );
}
