//! Chaos-harness integration tests: randomized fault campaigns must uphold
//! the robustness invariants for *every* seed, and the seed-42 acceptance
//! campaign must stay green (it is also the `scripts/check.sh` smoke).

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_core::chaos::{
    run_campaign, run_correlated_campaign, run_provider_outage_scenario, ChaosConfig, ChaosReport,
};
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_exec::outcome::InvocationStatus;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_model::builder::Workflow;
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{ProviderSet, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;
use caribou_simcloud::orchestration::Orchestrator;
use proptest::prelude::*;

fn quick_config(seed: u64, breaker: bool, drop_prob: f64) -> ChaosConfig {
    ChaosConfig {
        seed,
        requests: 80,
        duration_s: 2.0 * 3600.0,
        breaker_enabled: breaker,
        drop_prob,
        ..ChaosConfig::default()
    }
}

#[test]
fn seed_42_acceptance_campaign_upholds_every_invariant() {
    // The exact campaign from the acceptance criteria:
    // `caribou chaos --seed 42 --requests 500`.
    let report = run_campaign(&ChaosConfig::default());
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.requests, 500);
    assert!(report.faults.partitions > 0, "partitions injected");
    assert!(report.faults.gray_failures > 0, "gray failures injected");
    assert!(report.faults.kv_throttles > 0, "KV throttling injected");
    assert_eq!(
        report.completed_clean + report.fell_back_home + report.failed,
        report.requests,
        "every request classified exactly once"
    );
    assert!(report.fell_back_home > 0, "faults forced failovers");
}

#[test]
fn disabling_the_breaker_raises_tail_latency() {
    // Same campaign, breaker on vs off: without pre-flight rerouting every
    // request into a dead region pays the dead-letter retry tax, so the
    // tail inflates measurably.
    let on = run_campaign(&ChaosConfig::default());
    let off = run_campaign(&ChaosConfig {
        breaker_enabled: false,
        ..ChaosConfig::default()
    });
    assert!(on.ok(), "violations: {:?}", on.violations);
    assert!(off.ok(), "violations: {:?}", off.violations);
    assert!(on.breaker_reroutes > 0);
    assert_eq!(off.breaker_reroutes, 0);
    assert!(
        off.p99_latency_s > on.p99_latency_s * 1.5,
        "breaker off p99 {:.2} s should clearly exceed breaker on p99 {:.2} s",
        off.p99_latency_s,
        on.p99_latency_s
    );
    assert!(
        off.fell_back_home > on.fell_back_home,
        "breaker prevents repeated mid-flight failovers"
    );
}

/// A diamond app exercising conditional edges and a sync node.
fn diamond_app(home: RegionId) -> WorkflowApp {
    let mut wf = Workflow::new("diamond", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 0.4 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Constant { value: 0.5 })
        .register();
    let c = wf
        .serverless_function("C")
        .exec_time(DistSpec::Constant { value: 0.7 })
        .register();
    let d = wf
        .serverless_function("D")
        .exec_time(DistSpec::Constant { value: 0.3 })
        .register();
    wf.invoke(a, b, Some(0.6));
    wf.invoke(a, c, None);
    wf.invoke(b, d, None);
    wf.invoke(c, d, None);
    wf.get_predecessor_data(d);
    let (dag, profile, _) = wf.extract().unwrap();
    WorkflowApp {
        name: "diamond".into(),
        dag,
        profile,
        home,
    }
}

fn flat_carbon(cloud: &SimCloud) -> TableSource {
    let mut t = TableSource::new();
    for (id, _) in cloud.regions.iter() {
        t.insert(id, CarbonSeries::new(-400, vec![300.0; 24 * 100]));
    }
    t
}

/// An arbitrary fault plan over the evaluation regions — unlike
/// [`FaultPlan::randomized`], this one may take the home region down too.
fn arbitrary_fault_plan(seed: u64, regions: &[RegionId], duration_s: f64) -> FaultPlan {
    let mut rng = Pcg32::seed_stream(seed, 0xbad);
    let mut plan = FaultPlan::none();
    for &r in regions {
        if rng.chance(0.4) {
            let start = rng.uniform(0.0, duration_s * 0.8);
            plan = plan.with_outage(r, start, start + rng.uniform(60.0, duration_s * 0.3));
        }
        if rng.chance(0.3) {
            let start = rng.uniform(0.0, duration_s * 0.8);
            plan = plan.with_gray_failure(
                r,
                start,
                start + rng.uniform(60.0, duration_s * 0.3),
                rng.uniform(2.0, 6.0),
            );
        }
        if rng.chance(0.3) {
            let start = rng.uniform(0.0, duration_s * 0.8);
            plan = plan.with_kv_throttle(
                r,
                start,
                start + rng.uniform(60.0, duration_s * 0.3),
                rng.uniform(0.2, 0.8),
            );
        }
        if rng.chance(0.25) {
            let start = rng.uniform(0.0, duration_s * 0.8);
            plan = plan.with_cold_storm(r, start, start + rng.uniform(60.0, duration_s * 0.2));
        }
    }
    if regions.len() >= 2 && rng.chance(0.5) {
        let a = regions[rng.next_index(regions.len())];
        let mut b = regions[rng.next_index(regions.len())];
        if a == b {
            b = regions[(regions.iter().position(|r| *r == a).unwrap() + 1) % regions.len()];
        }
        let start = rng.uniform(0.0, duration_s * 0.8);
        plan = plan.with_partition(a, b, start, start + rng.uniform(60.0, duration_s * 0.3));
    }
    plan.message_drop_prob = rng.uniform(0.0, 0.05);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full campaign harness upholds its invariants for arbitrary
    /// seeds, drop probabilities, and breaker settings.
    #[test]
    fn campaign_invariants_hold_for_arbitrary_seeds(
        seed in any::<u64>(),
        drop in 0.0f64..0.05,
        breaker in any::<bool>(),
    ) {
        let report = run_campaign(&quick_config(seed, breaker, drop));
        prop_assert!(report.ok(), "violations: {:?}", report.violations);
        prop_assert_eq!(
            report.completed_clean + report.fell_back_home + report.failed,
            report.requests
        );
        if !breaker {
            prop_assert_eq!(report.breaker_reroutes, 0);
        }
    }

    /// Engine-level: under *arbitrary* fault plans — including ones that
    /// take the home region down, which the campaign generator never does —
    /// every invocation terminates in exactly one consistent state and the
    /// usage meter never double-counts a pub/sub message.
    #[test]
    fn engine_never_loses_or_double_counts_an_invocation(
        seed in any::<u64>(),
    ) {
        let duration_s = 2.0 * 3600.0;
        let mut cloud = SimCloud::aws(seed);
        let home = cloud.region("us-east-1").unwrap();
        let regions = cloud.regions.evaluation_regions();
        let carbon = flat_carbon(&cloud);
        let app = diamond_app(home);
        let offload: Vec<RegionId> =
            regions.iter().copied().filter(|r| *r != home).collect();
        let mut plan = DeploymentPlan::uniform(4, home);
        plan.set(caribou_model::dag::NodeId(1), offload[0]);
        plan.set(caribou_model::dag::NodeId(2), offload[1 % offload.len()]);
        let engine = ExecutionEngine {
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            orchestrator: Orchestrator::Caribou,
        };
        engine.provision(&mut cloud, &app, &plan);
        cloud.set_faults(arbitrary_fault_plan(seed, &regions, duration_s));

        let mut master = Pcg32::seed_stream(seed, 0xfee1);
        for i in 0..12u64 {
            let at_s = 100.0 + i as f64 * duration_s / 12.0;
            let before = cloud.pubsub.total_published();
            let mut rng = master.fork(i + 1);
            let out = engine.invoke(&mut cloud, &app, &plan, i + 1, at_s, &mut rng);
            // Exactly-one-of, consistent with the raw fields.
            match out.status() {
                InvocationStatus::Completed => {
                    prop_assert!(out.completed && out.failovers == 0);
                }
                InvocationStatus::FellBackHome => {
                    prop_assert!(out.completed && out.failovers > 0);
                    prop_assert!(out.failed_region.is_some());
                }
                InvocationStatus::Failed => {
                    prop_assert!(!out.completed);
                }
            }
            // Meter == messages the pub/sub service actually accepted.
            let billed: u64 = out.meter.sns_publishes.values().sum();
            let accepted = cloud.pubsub.total_published() - before;
            prop_assert_eq!(billed, accepted, "invocation {} meter drift", i);
        }
    }
}

/// Every count and every `f64` bit pattern of a base report, in field
/// order, with the number of violations.
fn report_bits(r: &ChaosReport) -> Vec<u64> {
    vec![
        u64::from(r.requests),
        u64::from(r.completed_clean),
        u64::from(r.fell_back_home),
        u64::from(r.failed),
        u64::from(r.breaker_reroutes),
        r.p50_latency_s.to_bits(),
        r.p99_latency_s.to_bits(),
        r.mean_latency_s.to_bits(),
        r.faults.outages as u64,
        r.faults.partitions as u64,
        r.faults.gray_failures as u64,
        r.faults.kv_throttles as u64,
        r.faults.cold_storms as u64,
        r.violations.len() as u64,
    ]
}

/// [`report_bits`] followed by the correlated campaign's own counts and
/// bits.
fn correlated_bits(r: &ChaosReport) -> Vec<u64> {
    let mut bits = report_bits(r);
    bits.extend([
        r.faults.provider_outages as u64,
        r.faults.failure_domains as u64,
        r.faults.carbon_outages as u64,
        r.contingency_entries as u64,
        u64::from(r.fallback_routed),
        u64::from(r.probe_requests),
        r.total_carbon_g.to_bits(),
        r.stale_queries.0,
        r.stale_queries.1,
        r.stale_queries.2,
    ]);
    bits
}

/// The campaigns' golden: the bits of every report the harness builds —
/// the base campaign on `aws` with the breaker on and off and on
/// `aws,gcp`, the correlated campaign and the provider-outage scenario
/// each with and without a contingency table — captured before the two
/// campaigns shared their report, fault count and deployment.
#[test]
fn campaign_report_bits_are_pinned() {
    let aws_gcp = ProviderSet::parse("aws,gcp").unwrap();
    let base = |breaker_enabled, providers| ChaosConfig {
        seed: 42,
        requests: 120,
        duration_s: 2.0 * 3600.0,
        breaker_enabled,
        providers,
        ..ChaosConfig::default()
    };
    let correlated = |contingency, drop_prob| ChaosConfig {
        seed: 42,
        requests: 160,
        duration_s: 4.0 * 3600.0,
        drop_prob,
        providers: aws_gcp,
        contingency,
        ..ChaosConfig::default()
    };
    #[rustfmt::skip]
    let runs: [(&str, Vec<u64>, &[u64]); 7] = [
        (
            "aws, breaker on",
            report_bits(&run_campaign(&base(true, ProviderSet::aws_only()))),
            &[
                120, 108, 12, 0, 15,
                0x40020c494861d1c9, 0x403271690310a2b0, 0x400abb285ba13fb1,
                2, 1, 2, 2, 1, 0,
            ],
        ),
        (
            "aws, breaker off",
            report_bits(&run_campaign(&base(false, ProviderSet::aws_only()))),
            &[
                120, 102, 18, 0, 0,
                0x4002f3620dedc2fe, 0x404238d9961ebc33, 0x401471ecd30b179f,
                2, 1, 2, 2, 1, 0,
            ],
        ),
        (
            "aws,gcp",
            report_bits(&run_campaign(&base(true, aws_gcp))),
            &[
                120, 111, 9, 0, 13,
                0x4001a025f1aaf85f, 0x40312cbc0dd85e3a, 0x400abc87549432f5,
                3, 1, 4, 2, 2, 0,
            ],
        ),
        (
            "correlated, contingency 0",
            correlated_bits(&run_correlated_campaign(&correlated(0, 0.02))),
            &[
                160, 129, 31, 0, 70,
                0x4000b6367d75dc43, 0x402f3c16c1735bcb, 0x4005e90e077e619f,
                3, 1, 5, 2, 2, 0,
                1, 2, 1, 0, 0, 27,
                0x3fac434e780d7fcb,
                1391, 609, 0,
            ],
        ),
        (
            "correlated, contingency 3",
            correlated_bits(&run_correlated_campaign(&correlated(3, 0.02))),
            &[
                160, 129, 31, 0, 0,
                0x3fff5a010db46b85, 0x4033b253e7cc820f, 0x4005ff73c8d46486,
                3, 1, 5, 2, 2, 0,
                1, 2, 1, 3, 70, 27,
                0x3fa0b5d078f70569,
                1381, 614, 0,
            ],
        ),
        (
            "provider outage, contingency 0",
            correlated_bits(&run_provider_outage_scenario(&correlated(0, 0.0))),
            &[
                160, 130, 30, 0, 73,
                0x3fff6d51e5fd86f4, 0x40187680a48b7cbc, 0x40009613968f0ebc,
                0, 0, 1, 0, 0, 0,
                1, 0, 1, 0, 0, 28,
                0x3fab6d78880be529,
                689, 1000, 306,
            ],
        ),
        (
            "provider outage, contingency 3",
            correlated_bits(&run_provider_outage_scenario(&correlated(3, 0.0))),
            &[
                160, 130, 30, 0, 0,
                0x3ffd3c6fbacc324c, 0x40187680a48b7cbc, 0x3fffbb64f7269046,
                0, 0, 1, 0, 0, 0,
                1, 0, 1, 3, 73, 28,
                0x3f9e00c7ea677e67,
                689, 970, 306,
            ],
        ),
    ];
    for (name, bits, pinned) in runs {
        assert_eq!(bits, pinned, "{name} moved");
    }
}
