//! Fault injection for resilience testing.
//!
//! The paper's Migrator "catches potential issues with deployment,
//! including region unavailability due to increased traffic" and falls
//! back to the home region (§6.1). The fault plan lets tests and
//! experiments inject exactly those conditions deterministically — and,
//! beyond full-region outages, the weaker failure modes a chaos campaign
//! needs: pairwise network partitions, gray failures (latency inflation
//! over a window), KV throttling windows, and cold-start storms. On top
//! of the independent classes sit three *correlated* classes: provider-
//! wide outages (every region of a provider down at once), shared
//! failure domains (a seeded set of regions failing together), and
//! carbon-data outages (the forecast source goes dark, forcing the
//! staleness ladder in `caribou-carbon`). All windows are half-open
//! `[start, end)` in simulation seconds via the shared [`Window`]
//! helper, and every probabilistic draw flows through an explicit
//! [`Pcg32`], so a campaign is bit-reproducible from its seed.

use caribou_model::region::{Provider, RegionId};
use caribou_model::rng::Pcg32;

use crate::clock::SimTime;

/// A half-open `[start, end)` window in simulation seconds.
///
/// Every fault class shares this single helper so boundary semantics
/// agree everywhere: `start` is inside, `end` is outside, and empty or
/// inverted windows are rejected at construction — there is exactly one
/// place where the edge rule lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start (inclusive), simulation seconds.
    pub start: SimTime,
    /// Window end (exclusive), simulation seconds.
    pub end: SimTime,
}

impl Window {
    /// Creates a window, rejecting empty or inverted ranges.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(
            end > start,
            "window must be non-empty (half-open [start, end))"
        );
        Self { start, end }
    }

    /// Whether `t` falls inside the half-open window.
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in seconds.
    pub fn duration(self) -> SimTime {
        self.end - self.start
    }
}

/// Regions down together over a window: the one shape of the three
/// classes that take regions down (a region outage, a provider-wide
/// outage, a shared failure domain), which differ only in which list of
/// the [`FaultPlan`] holds them and how many regions they name.
#[derive(Debug, Clone, PartialEq)]
pub struct Outage {
    /// Regions taken down together.
    pub regions: Vec<RegionId>,
    /// Active window.
    pub window: Window,
}

impl Outage {
    fn new(regions: &[RegionId], start: SimTime, end: SimTime) -> Self {
        Outage {
            regions: regions.to_vec(),
            window: Window::new(start, end),
        }
    }

    /// Whether the outage takes `region` down at time `t`.
    fn covers(&self, region: RegionId, t: SimTime) -> bool {
        self.window.contains(t) && self.regions.contains(&region)
    }
}

/// A pairwise network partition: traffic between the two regions is lost
/// while the window is active (both regions stay up for other peers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkPartition {
    /// One side of the partition.
    pub a: RegionId,
    /// The other side.
    pub b: RegionId,
    /// Active window.
    pub window: Window,
}

/// A gray failure: the region stays reachable but every transfer touching
/// it takes `latency_factor`× as long for the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayFailure {
    /// Affected region.
    pub region: RegionId,
    /// Active window.
    pub window: Window,
    /// Multiplier applied to transfer latency (≥ 1).
    pub latency_factor: f64,
}

/// A KV throttling window: operations against tables homed in the region
/// get throttled with `throttle_prob` and pay SDK-retry latency. Data is
/// never lost — DynamoDB-style throttling slows requests, it does not
/// drop them — so throttles create latency pressure without breaking the
/// delivery invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvThrottle {
    /// Region whose tables are throttled.
    pub region: RegionId,
    /// Active window.
    pub window: Window,
    /// Probability any single operation is throttled.
    pub throttle_prob: f64,
}

/// A cold-start storm: every function start in the region is forced cold
/// for the window (capacity churn evicting warm containers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartStorm {
    /// Affected region.
    pub region: RegionId,
    /// Active window.
    pub window: Window,
}

/// A carbon-data outage: the hourly forecast source is dark for the
/// window. Consumers (the staleness wrapper in `caribou-carbon`) degrade
/// to last-known-good and then yearly-average intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonOutage {
    /// Active window.
    pub window: Window,
}

/// The fault-injection plan for a simulation run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scheduled full-region outages, one region each.
    pub outages: Vec<Outage>,
    /// Scheduled pairwise network partitions.
    pub partitions: Vec<NetworkPartition>,
    /// Scheduled gray failures (latency inflation windows).
    pub gray_failures: Vec<GrayFailure>,
    /// Scheduled KV throttling windows.
    pub kv_throttles: Vec<KvThrottle>,
    /// Scheduled cold-start storms.
    pub cold_storms: Vec<ColdStartStorm>,
    /// Scheduled provider-wide outages: every listed region of one
    /// provider down at once, the list resolved at construction so the
    /// plan stays decoupled from any particular catalog.
    pub provider_outages: Vec<Outage>,
    /// Scheduled shared failure domains: a correlated set of regions
    /// (same submarine cable, same control-plane cell, same grid
    /// interconnect) failing together.
    pub failure_domains: Vec<Outage>,
    /// Scheduled carbon-data outages.
    pub carbon_outages: Vec<CarbonOutage>,
    /// Probability any single function re-deployment attempt fails.
    pub deploy_failure_prob: f64,
    /// Probability any single pub/sub delivery attempt is lost.
    pub message_drop_prob: f64,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an outage window.
    pub fn with_outage(mut self, region: RegionId, start: SimTime, end: SimTime) -> Self {
        self.outages.push(Outage::new(&[region], start, end));
        self
    }

    /// Adds a pairwise partition window.
    pub fn with_partition(
        mut self,
        a: RegionId,
        b: RegionId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        assert!(a != b, "a region cannot be partitioned from itself");
        self.partitions.push(NetworkPartition {
            a,
            b,
            window: Window::new(start, end),
        });
        self
    }

    /// Adds a gray-failure window inflating the region's transfer latency.
    pub fn with_gray_failure(
        mut self,
        region: RegionId,
        start: SimTime,
        end: SimTime,
        latency_factor: f64,
    ) -> Self {
        assert!(latency_factor >= 1.0, "latency factor must be ≥ 1");
        self.gray_failures.push(GrayFailure {
            region,
            window: Window::new(start, end),
            latency_factor,
        });
        self
    }

    /// Adds a KV throttling window.
    pub fn with_kv_throttle(
        mut self,
        region: RegionId,
        start: SimTime,
        end: SimTime,
        throttle_prob: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&throttle_prob),
            "throttle probability must be in [0, 1]"
        );
        self.kv_throttles.push(KvThrottle {
            region,
            window: Window::new(start, end),
            throttle_prob,
        });
        self
    }

    /// Adds a cold-start storm window.
    pub fn with_cold_storm(mut self, region: RegionId, start: SimTime, end: SimTime) -> Self {
        self.cold_storms.push(ColdStartStorm {
            region,
            window: Window::new(start, end),
        });
        self
    }

    /// Adds a provider-wide outage taking `regions` (one provider's)
    /// down together.
    pub fn with_provider_outage(
        mut self,
        regions: &[RegionId],
        start: SimTime,
        end: SimTime,
    ) -> Self {
        assert!(
            !regions.is_empty(),
            "provider outage needs at least one region"
        );
        self.provider_outages.push(Outage::new(regions, start, end));
        self
    }

    /// Adds a shared failure domain taking `regions` down together.
    pub fn with_failure_domain(
        mut self,
        regions: &[RegionId],
        start: SimTime,
        end: SimTime,
    ) -> Self {
        assert!(
            regions.len() >= 2,
            "a failure domain correlates at least two regions"
        );
        self.failure_domains.push(Outage::new(regions, start, end));
        self
    }

    /// Adds a carbon-data outage window.
    pub fn with_carbon_outage(mut self, start: SimTime, end: SimTime) -> Self {
        self.carbon_outages.push(CarbonOutage {
            window: Window::new(start, end),
        });
        self
    }

    /// Every scheduled outage of the three classes that take regions
    /// down: independent outages, provider-wide outages, and shared
    /// failure domains.
    fn all_outages(&self) -> impl Iterator<Item = &Outage> {
        self.outages
            .iter()
            .chain(&self.provider_outages)
            .chain(&self.failure_domains)
    }

    /// Whether `region` is down at time `t`.
    pub fn region_down(&self, region: RegionId, t: SimTime) -> bool {
        self.all_outages().any(|o| o.covers(region, t))
    }

    /// Latest end among the outages covering `region` at `t`, if the
    /// region is down at all — when the Migrator can expect the region
    /// back.
    pub fn down_until(&self, region: RegionId, t: SimTime) -> Option<SimTime> {
        self.all_outages()
            .filter(|o| o.covers(region, t))
            .map(|o| o.window.end)
            .reduce(f64::max)
    }

    /// Whether traffic between `a` and `b` is partitioned at time `t`.
    pub fn partitioned(&self, a: RegionId, b: RegionId, t: SimTime) -> bool {
        if a == b {
            return false;
        }
        self.partitions
            .iter()
            .any(|p| ((p.a == a && p.b == b) || (p.a == b && p.b == a)) && p.window.contains(t))
    }

    /// Latency multiplier for transfers touching `region` at time `t`
    /// (1.0 when no gray failure is active; overlapping windows take the
    /// worst factor).
    pub fn latency_factor(&self, region: RegionId, t: SimTime) -> f64 {
        self.gray_failures
            .iter()
            .filter(|g| g.region == region && g.window.contains(t))
            .map(|g| g.latency_factor)
            .fold(1.0, f64::max)
    }

    /// Latency multiplier for a transfer between two regions: the worst
    /// gray failure on either endpoint.
    pub fn pair_latency_factor(&self, a: RegionId, b: RegionId, t: SimTime) -> f64 {
        self.latency_factor(a, t).max(self.latency_factor(b, t))
    }

    /// Samples whether a KV operation against a table homed in `region` is
    /// throttled at time `t`. Draws from `rng` only while a throttle
    /// window is active, so quiet plans leave the stream untouched.
    pub fn kv_throttled(&self, region: RegionId, t: SimTime, rng: &mut Pcg32) -> bool {
        let prob = self
            .kv_throttles
            .iter()
            .filter(|w| w.region == region && w.window.contains(t))
            .map(|w| w.throttle_prob)
            .fold(0.0, f64::max);
        prob > 0.0 && rng.chance(prob)
    }

    /// Whether a cold-start storm forces cold starts in `region` at `t`.
    pub fn cold_storm(&self, region: RegionId, t: SimTime) -> bool {
        self.cold_storms
            .iter()
            .any(|s| s.region == region && s.window.contains(t))
    }

    /// Samples whether a deployment attempt fails.
    pub fn deploy_fails(&self, region: RegionId, t: SimTime, rng: &mut Pcg32) -> bool {
        let fails = self.region_down(region, t) || rng.chance(self.deploy_failure_prob);
        if fails && caribou_telemetry::is_enabled() {
            caribou_telemetry::event_at(t, "fault.deploy_failure", format!("r{}", region.0), 0.0);
        }
        fails
    }

    /// Generates a seeded randomized fault campaign over `[0, duration_s)`.
    ///
    /// The home region is never taken down (the §6.1 fallback target must
    /// exist for the no-invocation-lost invariant to be provable), but it
    /// can still suffer gray failures, throttling, storms, and partitions
    /// towards it. At least one partition, gray failure, and KV throttle
    /// is always scheduled so every campaign exercises every fault class.
    pub fn randomized(
        seed: u64,
        regions: &[RegionId],
        home: RegionId,
        duration_s: SimTime,
    ) -> FaultPlan {
        assert!(duration_s > 0.0, "campaign duration must be positive");
        let mut rng = Pcg32::seed_stream(seed, 0xfa17);
        let window = |rng: &mut Pcg32, min_frac: f64, max_frac: f64| -> (SimTime, SimTime) {
            let len = duration_s * rng.uniform(min_frac, max_frac);
            let start = rng.uniform(0.0, duration_s - len);
            (start, start + len)
        };
        let others: Vec<RegionId> = regions.iter().copied().filter(|r| *r != home).collect();
        let mut plan = FaultPlan::none();

        for &r in &others {
            if rng.chance(0.6) {
                let (s, e) = window(&mut rng, 0.05, 0.15);
                plan = plan.with_outage(r, s, e);
            }
        }
        for _ in 0..(1 + rng.next_bounded(2)) {
            if regions.len() < 2 {
                break;
            }
            let a = regions[rng.next_index(regions.len())];
            let b = regions[rng.next_index(regions.len())];
            if a == b {
                continue;
            }
            let (s, e) = window(&mut rng, 0.05, 0.20);
            plan = plan.with_partition(a, b, s, e);
        }
        for &r in regions {
            if rng.chance(0.35) {
                let (s, e) = window(&mut rng, 0.10, 0.25);
                let factor = rng.uniform(2.0, 8.0);
                plan = plan.with_gray_failure(r, s, e, factor);
            }
        }
        for &r in regions {
            if rng.chance(0.3) {
                let (s, e) = window(&mut rng, 0.05, 0.20);
                let prob = rng.uniform(0.2, 0.8);
                plan = plan.with_kv_throttle(r, s, e, prob);
            }
        }
        for &r in &others {
            if rng.chance(0.3) {
                let (s, e) = window(&mut rng, 0.02, 0.10);
                plan = plan.with_cold_storm(r, s, e);
            }
        }

        // Guarantee coverage of every fault class the acceptance criteria
        // name, regardless of what the probabilistic passes produced.
        if plan.partitions.is_empty() {
            if let Some(&other) = others.first() {
                let (s, e) = window(&mut rng, 0.05, 0.20);
                plan = plan.with_partition(home, other, s, e);
            }
        }
        if plan.gray_failures.is_empty() {
            let r = *others.first().unwrap_or(&home);
            let (s, e) = window(&mut rng, 0.10, 0.25);
            let factor = rng.uniform(2.0, 8.0);
            plan = plan.with_gray_failure(r, s, e, factor);
        }
        if plan.kv_throttles.is_empty() {
            let r = *others.first().unwrap_or(&home);
            let (s, e) = window(&mut rng, 0.05, 0.20);
            let prob = rng.uniform(0.2, 0.8);
            plan = plan.with_kv_throttle(r, s, e, prob);
        }
        plan
    }

    /// Generates a seeded *correlated* fault campaign: everything
    /// [`FaultPlan::randomized`] produces, plus a provider-wide outage, one
    /// or two shared failure domains, a carbon-data outage, and a gray
    /// failure at home overlapping the provider outage (the load spike of
    /// everyone's traffic re-routing to the same fallback at once).
    ///
    /// `regions` carries each region's provider so the plan can group
    /// them without depending on a catalog. The correlated draws come
    /// from a fresh domain-separated stream (`0xfa18`), so the base
    /// campaign for a given seed is bit-identical to the uncorrelated
    /// one — existing seeds are not perturbed.
    ///
    /// The provider taken down is chosen deterministically: a non-home
    /// provider when one exists (so the home fallback always survives a
    /// full provider loss), otherwise the home provider minus home.
    pub fn randomized_correlated(
        seed: u64,
        regions: &[(RegionId, Provider)],
        home: RegionId,
        duration_s: SimTime,
    ) -> FaultPlan {
        let plain: Vec<RegionId> = regions.iter().map(|(r, _)| *r).collect();
        let mut plan = Self::randomized(seed, &plain, home, duration_s);
        let mut rng = Pcg32::seed_stream(seed, 0xfa18);

        let home_provider = regions
            .iter()
            .find(|(r, _)| *r == home)
            .map(|(_, p)| *p)
            .expect("home must be in the region set");
        let mut providers: Vec<Provider> = Vec::new();
        for &(_, p) in regions {
            if !providers.contains(&p) {
                providers.push(p);
            }
        }

        // Provider-wide outage: prefer a non-home provider so the home
        // fallback survives; pick among candidates by rng for variety.
        let candidates: Vec<Provider> = providers
            .iter()
            .copied()
            .filter(|p| *p != home_provider)
            .collect();
        let victim = if candidates.is_empty() {
            home_provider
        } else {
            candidates[rng.next_index(candidates.len())]
        };
        let victim_regions: Vec<RegionId> = regions
            .iter()
            .filter(|(r, p)| *p == victim && *r != home)
            .map(|(r, _)| *r)
            .collect();
        let mut outage_window = None;
        if !victim_regions.is_empty() {
            let len = duration_s * rng.uniform(0.20, 0.40);
            let start = rng.uniform(0.05 * duration_s, duration_s - len);
            plan = plan.with_provider_outage(&victim_regions, start, start + len);
            outage_window = Some(Window::new(start, start + len));
        }

        // Shared failure domains: one or two pairs of non-home regions.
        let others: Vec<RegionId> = plain.iter().copied().filter(|r| *r != home).collect();
        if others.len() >= 2 {
            for _ in 0..(1 + rng.next_bounded(2)) {
                let a = others[rng.next_index(others.len())];
                let b = others[rng.next_index(others.len())];
                if a == b {
                    continue;
                }
                let len = duration_s * rng.uniform(0.05, 0.20);
                let start = rng.uniform(0.0, duration_s - len);
                plan = plan.with_failure_domain(&[a, b], start, start + len);
            }
        }

        // Carbon-data outage: the forecast source goes dark once.
        {
            let len = duration_s * rng.uniform(0.15, 0.35);
            let start = rng.uniform(0.0, duration_s - len);
            plan = plan.with_carbon_outage(start, start + len);
        }

        // Correlated load spike: home slows down exactly while the
        // provider outage dumps its traffic somewhere else.
        if let Some(w) = outage_window {
            let factor = rng.uniform(3.0, 6.0);
            plan = plan.with_gray_failure(home, w.start, w.end, factor);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open_at_both_edges() {
        let w = Window::new(10.0, 20.0);
        assert!(!w.contains(9.999));
        assert!(w.contains(10.0));
        assert!(w.contains(19.999));
        assert!(!w.contains(20.0));
        assert_eq!(w.duration(), 10.0);
    }

    #[test]
    #[should_panic]
    fn zero_duration_window_rejected() {
        Window::new(5.0, 5.0);
    }

    #[test]
    #[should_panic]
    fn inverted_window_rejected() {
        Window::new(5.0, 4.0);
    }

    #[test]
    fn window_overlap_is_open_at_shared_edge() {
        let (a, b) = (Window::new(0.0, 10.0), Window::new(10.0, 20.0));
        // Half-open: [0,10) and [10,20) share no instant; the shared edge
        // is the later window's.
        assert!(!a.contains(10.0) && b.contains(10.0));
        assert!(a.contains(9.999) && !b.contains(9.999));
    }

    #[test]
    fn outage_window_is_half_open() {
        let plan = FaultPlan::none().with_outage(RegionId(1), 10.0, 20.0);
        assert!(!plan.region_down(RegionId(1), 9.9));
        assert!(plan.region_down(RegionId(1), 10.0));
        assert!(plan.region_down(RegionId(1), 19.9));
        assert!(!plan.region_down(RegionId(1), 20.0));
        assert!(!plan.region_down(RegionId(0), 15.0));
    }

    #[test]
    fn all_fault_classes_agree_at_boundaries() {
        // Every class built over the same [100, 200) window flips at the
        // same instants because they all share `Window`.
        let plan = FaultPlan::none()
            .with_outage(RegionId(1), 100.0, 200.0)
            .with_partition(RegionId(0), RegionId(1), 100.0, 200.0)
            .with_gray_failure(RegionId(1), 100.0, 200.0, 4.0)
            .with_kv_throttle(RegionId(1), 100.0, 200.0, 1.0)
            .with_cold_storm(RegionId(1), 100.0, 200.0)
            .with_provider_outage(&[RegionId(2)], 100.0, 200.0)
            .with_failure_domain(&[RegionId(3), RegionId(4)], 100.0, 200.0)
            .with_carbon_outage(100.0, 200.0);
        let mut rng = Pcg32::seed(9);
        for (t, active) in [(99.9, false), (100.0, true), (199.9, true), (200.0, false)] {
            assert_eq!(plan.region_down(RegionId(1), t), active, "outage at {t}");
            assert_eq!(
                plan.partitioned(RegionId(0), RegionId(1), t),
                active,
                "partition at {t}"
            );
            assert_eq!(
                plan.latency_factor(RegionId(1), t) > 1.0,
                active,
                "gray at {t}"
            );
            assert_eq!(
                plan.kv_throttled(RegionId(1), t, &mut rng),
                active,
                "throttle at {t}"
            );
            assert_eq!(plan.cold_storm(RegionId(1), t), active, "storm at {t}");
            assert_eq!(
                plan.region_down(RegionId(2), t),
                active,
                "provider outage at {t}"
            );
            assert_eq!(
                plan.region_down(RegionId(3), t) && plan.region_down(RegionId(4), t),
                active,
                "failure domain at {t}"
            );
            assert_eq!(
                plan.carbon_outages[0].window.contains(t),
                active,
                "carbon outage at {t}"
            );
        }
    }

    #[test]
    fn deploy_fails_during_outage() {
        let plan = FaultPlan::none().with_outage(RegionId(2), 0.0, 100.0);
        let mut rng = Pcg32::seed(1);
        assert!(plan.deploy_fails(RegionId(2), 50.0, &mut rng));
        assert!(!plan.deploy_fails(RegionId(2), 150.0, &mut rng));
    }

    #[test]
    fn probabilistic_deploy_failure() {
        let plan = FaultPlan {
            deploy_failure_prob: 0.5,
            ..FaultPlan::none()
        };
        let mut rng = Pcg32::seed(2);
        let fails = (0..1000)
            .filter(|_| plan.deploy_fails(RegionId(0), 0.0, &mut rng))
            .count();
        assert!((400..600).contains(&fails), "fails {fails}");
    }

    #[test]
    #[should_panic]
    fn empty_outage_window_rejected() {
        FaultPlan::none().with_outage(RegionId(0), 5.0, 5.0);
    }

    #[test]
    fn partition_is_symmetric_and_windowed() {
        let plan = FaultPlan::none().with_partition(RegionId(0), RegionId(1), 10.0, 20.0);
        assert!(plan.partitioned(RegionId(0), RegionId(1), 15.0));
        assert!(plan.partitioned(RegionId(1), RegionId(0), 15.0));
        assert!(!plan.partitioned(RegionId(0), RegionId(1), 25.0));
        assert!(!plan.partitioned(RegionId(0), RegionId(2), 15.0));
        assert!(!plan.partitioned(RegionId(0), RegionId(0), 15.0));
    }

    #[test]
    #[should_panic]
    fn self_partition_rejected() {
        FaultPlan::none().with_partition(RegionId(3), RegionId(3), 0.0, 1.0);
    }

    #[test]
    fn gray_failure_inflates_latency_in_window_only() {
        let plan = FaultPlan::none().with_gray_failure(RegionId(2), 100.0, 200.0, 4.0);
        assert_eq!(plan.latency_factor(RegionId(2), 150.0), 4.0);
        assert_eq!(plan.latency_factor(RegionId(2), 50.0), 1.0);
        assert_eq!(plan.latency_factor(RegionId(1), 150.0), 1.0);
        assert_eq!(
            plan.pair_latency_factor(RegionId(1), RegionId(2), 150.0),
            4.0
        );
    }

    #[test]
    fn overlapping_gray_failures_take_worst_factor() {
        let plan = FaultPlan::none()
            .with_gray_failure(RegionId(0), 0.0, 100.0, 2.0)
            .with_gray_failure(RegionId(0), 50.0, 150.0, 6.0);
        assert_eq!(plan.latency_factor(RegionId(0), 75.0), 6.0);
        assert_eq!(plan.latency_factor(RegionId(0), 25.0), 2.0);
        assert_eq!(plan.latency_factor(RegionId(0), 125.0), 6.0);
    }

    #[test]
    fn kv_throttle_draws_only_inside_window() {
        let plan = FaultPlan::none().with_kv_throttle(RegionId(1), 10.0, 20.0, 1.0);
        let mut rng = Pcg32::seed(3);
        let before = rng.clone();
        assert!(!plan.kv_throttled(RegionId(1), 5.0, &mut rng));
        // No draw happened outside the window: streams still aligned.
        assert_eq!(rng.next_u64(), before.clone().next_u64());
        assert!(plan.kv_throttled(RegionId(1), 15.0, &mut rng));
        assert!(!plan.kv_throttled(RegionId(2), 15.0, &mut rng));
    }

    #[test]
    fn cold_storm_windowed() {
        let plan = FaultPlan::none().with_cold_storm(RegionId(4), 100.0, 200.0);
        assert!(plan.cold_storm(RegionId(4), 150.0));
        assert!(!plan.cold_storm(RegionId(4), 250.0));
        assert!(!plan.cold_storm(RegionId(3), 150.0));
    }

    #[test]
    fn provider_outage_takes_all_regions_down_together() {
        let plan = FaultPlan::none().with_provider_outage(
            &[RegionId(10), RegionId(11), RegionId(12)],
            50.0,
            150.0,
        );
        for r in [RegionId(10), RegionId(11), RegionId(12)] {
            assert!(plan.region_down(r, 100.0));
            assert!(!plan.region_down(r, 150.0));
        }
        // Another provider's regions stay up, and nothing is down before
        // the window opens.
        assert!(!plan.region_down(RegionId(0), 100.0));
        assert!(!plan.region_down(RegionId(10), 49.0));
    }

    #[test]
    fn failure_domain_correlates_members_only() {
        let plan = FaultPlan::none().with_failure_domain(&[RegionId(1), RegionId(3)], 10.0, 20.0);
        assert!(plan.region_down(RegionId(1), 15.0));
        assert!(plan.region_down(RegionId(3), 15.0));
        assert!(!plan.region_down(RegionId(2), 15.0));
        assert!(!plan.region_down(RegionId(1), 20.0));
    }

    #[test]
    #[should_panic]
    fn single_region_failure_domain_rejected() {
        FaultPlan::none().with_failure_domain(&[RegionId(1)], 0.0, 1.0);
    }

    #[test]
    fn down_until_spans_overlapping_windows() {
        let plan = FaultPlan::none()
            .with_outage(RegionId(1), 0.0, 100.0)
            .with_provider_outage(&[RegionId(1)], 50.0, 250.0)
            .with_failure_domain(&[RegionId(1), RegionId(2)], 60.0, 80.0);
        assert_eq!(plan.down_until(RegionId(1), 70.0), Some(250.0));
        assert_eq!(plan.down_until(RegionId(1), 120.0), Some(250.0));
        assert_eq!(plan.down_until(RegionId(2), 70.0), Some(80.0));
        assert_eq!(plan.down_until(RegionId(1), 250.0), None);
        assert_eq!(plan.down_until(RegionId(3), 70.0), None);
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let regions: Vec<RegionId> = (0..4).map(RegionId).collect();
        let a = FaultPlan::randomized(42, &regions, RegionId(0), 3600.0);
        let b = FaultPlan::randomized(42, &regions, RegionId(0), 3600.0);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.gray_failures, b.gray_failures);
        assert_eq!(a.kv_throttles, b.kv_throttles);
        assert_eq!(a.cold_storms, b.cold_storms);
        let c = FaultPlan::randomized(43, &regions, RegionId(0), 3600.0);
        assert!(
            a.outages != c.outages
                || a.partitions != c.partitions
                || a.gray_failures != c.gray_failures,
            "different seeds should differ"
        );
    }

    #[test]
    fn randomized_never_takes_home_down_and_covers_every_class() {
        let regions: Vec<RegionId> = (0..4).map(RegionId).collect();
        for seed in 0..50 {
            let plan = FaultPlan::randomized(seed, &regions, RegionId(0), 7200.0);
            assert!(
                plan.outages
                    .iter()
                    .all(|o| !o.regions.contains(&RegionId(0))),
                "seed {seed}: home must never be down"
            );
            assert!(!plan.partitions.is_empty(), "seed {seed}: partitions");
            assert!(!plan.gray_failures.is_empty(), "seed {seed}: gray failures");
            assert!(!plan.kv_throttles.is_empty(), "seed {seed}: throttles");
            for o in &plan.outages {
                assert!(
                    o.window.start >= 0.0 && o.window.end <= 7200.0,
                    "windows inside campaign"
                );
            }
        }
    }

    fn two_provider_set() -> Vec<(RegionId, Provider)> {
        vec![
            (RegionId(0), Provider::Aws),
            (RegionId(1), Provider::Aws),
            (RegionId(2), Provider::Gcp),
            (RegionId(3), Provider::Gcp),
        ]
    }

    #[test]
    fn correlated_extends_base_plan_without_perturbing_it() {
        let regions = two_provider_set();
        let plain: Vec<RegionId> = regions.iter().map(|(r, _)| *r).collect();
        let base = FaultPlan::randomized(42, &plain, RegionId(0), 7200.0);
        let corr = FaultPlan::randomized_correlated(42, &regions, RegionId(0), 7200.0);
        // The independent classes drawn from the 0xfa17 stream are
        // bit-identical — correlated draws live on their own stream.
        assert_eq!(base.outages, corr.outages);
        assert_eq!(base.partitions, corr.partitions);
        assert_eq!(base.kv_throttles, corr.kv_throttles);
        assert_eq!(base.cold_storms, corr.cold_storms);
        assert_eq!(
            &base.gray_failures[..],
            &corr.gray_failures[..base.gray_failures.len()],
            "correlated gray failures are appended, never interleaved"
        );
        assert!(base.provider_outages.is_empty());
        assert!(!corr.provider_outages.is_empty());
        assert!(!corr.carbon_outages.is_empty());
    }

    #[test]
    fn correlated_is_deterministic_and_never_takes_home_down() {
        let regions = two_provider_set();
        for seed in 0..50 {
            let a = FaultPlan::randomized_correlated(seed, &regions, RegionId(0), 7200.0);
            let b = FaultPlan::randomized_correlated(seed, &regions, RegionId(0), 7200.0);
            assert_eq!(a.provider_outages, b.provider_outages, "seed {seed}");
            assert_eq!(a.failure_domains, b.failure_domains, "seed {seed}");
            assert_eq!(a.carbon_outages, b.carbon_outages, "seed {seed}");
            for t in [0.0, 1800.0, 3600.0, 5400.0, 7199.0] {
                assert!(
                    !a.region_down(RegionId(0), t),
                    "seed {seed}: home down at {t}"
                );
            }
            // The provider-wide outage always hits the non-home provider.
            for o in &a.provider_outages {
                assert!(
                    o.regions
                        .iter()
                        .all(|r| regions[r.index()].1 == Provider::Gcp),
                    "seed {seed}"
                );
            }
            assert!(!a.carbon_outages.is_empty(), "seed {seed}: carbon outage");
        }
    }

    #[test]
    fn correlated_single_provider_spares_home() {
        let regions: Vec<(RegionId, Provider)> =
            (0..4).map(|i| (RegionId(i), Provider::Aws)).collect();
        for seed in 0..20 {
            let plan = FaultPlan::randomized_correlated(seed, &regions, RegionId(0), 7200.0);
            for o in &plan.provider_outages {
                assert!(
                    !o.regions.contains(&RegionId(0)),
                    "seed {seed}: home inside provider outage"
                );
            }
        }
    }
}
