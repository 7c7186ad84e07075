//! Invocation routing: active plans, expiry fallback, the 10%
//! home-region benchmarking traffic (§6.2), and a per-region circuit
//! breaker.
//!
//! "The wrapper routes 10% of the workflow invocations to be fully
//! executed at the home region for performance benchmarking and metric
//! collection." The router also applies plan expiry (§5.2): when the
//! active plan set has expired, all traffic is routed home until a new
//! plan is activated.
//!
//! The circuit breaker stops repeated failures from paying the
//! dead-letter retry tax on every request: after
//! `FAILURE_THRESHOLD` consecutive failures of a region,
//! its breaker opens and the router substitutes the home region for that
//! region's assignments. After `COOLDOWN_S` seconds the breaker
//! half-opens and lets a single probe through; a success closes it, a
//! failure re-opens it. The happy path (no breaker tripped) is a single
//! branch on a counter, so routing cost is unchanged when regions are
//! healthy.
//!
//! When a [`ContingencyTable`] is installed, a tripped breaker engages
//! *failover* instead of ad-hoc per-node home substitution: breaker
//! state is aggregated up to provider level (every plan-used region of a
//! provider blocked ⇒ the whole provider is treated as down) and the
//! router switches to the best precomputed fallback plan covering the
//! down set. Recovery is staged through the same half-open probes — once
//! the probes succeed and every breaker closes, traffic returns to the
//! primary plan and the time-to-recover is observed on the
//! `failover.time_to_recover_s` histogram.

use std::collections::HashMap;

use caribou_model::plan::{ContingencyEntry, ContingencyTable, DeploymentPlan, HourlyPlans};
use caribou_model::region::{Provider, RegionId};

/// Every `BENCHMARK_EVERY`-th invocation is pinned home: the 10% share
/// §6.2 fixes for performance benchmarking and metric collection.
const BENCHMARK_EVERY: u64 = 10;
/// Consecutive failures of a region before its breaker opens.
const FAILURE_THRESHOLD: u32 = 3;
/// Seconds an open breaker blocks traffic before half-opening.
const COOLDOWN_S: f64 = 300.0;

/// Observable state of one region's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows to the region.
    Closed,
    /// Tripped: the region's assignments are substituted with home.
    Open,
    /// Cooled down: exactly one probe request is allowed through.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct RegionBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_s: f64,
    /// Whether the half-open probe has been dispatched and is awaiting
    /// its outcome.
    probe_inflight: bool,
}

/// Routing decision for one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// Plan the invocation executes under.
    pub plan: DeploymentPlan,
    /// Whether this is benchmarking traffic pinned to the home region.
    pub benchmark_traffic: bool,
    /// Whether an open circuit breaker substituted home for one or more
    /// of the plan's regions.
    pub breaker_rerouted: bool,
    /// Whether the invocation was routed on a precomputed contingency
    /// fallback plan instead of the primary.
    pub fallback: bool,
    /// Whether a half-open breaker admitted this request as its recovery
    /// probe. Probe requests deliberately sample a suspected-down path,
    /// so latency accounting can treat them as canary traffic.
    pub probed: bool,
}

impl RouteDecision {
    /// Substitutes home for every non-home node whose region `blocked`
    /// says is down, visiting nodes in plan order: the per-node §6.1
    /// fallback, before or without a contingency table.
    fn substitute_home(&mut self, home: RegionId, mut blocked: impl FnMut(RegionId) -> bool) {
        for i in 0..self.plan.len() {
            let node = caribou_model::dag::NodeId(i as u32);
            let region = self.plan.region_of(node);
            if region != home && blocked(region) {
                self.plan.set(node, home);
                self.breaker_rerouted = true;
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::count("breaker.reroute", 1);
                }
            }
        }
    }
}

/// Routes invocations of one workflow.
#[derive(Debug, Clone)]
pub struct InvocationRouter {
    home: RegionId,
    node_count: usize,
    active: Option<HourlyPlans>,
    counter: u64,
    /// Whether the circuit breaker participates in routing at all.
    pub breaker_enabled: bool,
    breakers: HashMap<RegionId, RegionBreaker>,
    /// Number of breakers currently Open or HalfOpen. The routing happy
    /// path checks only this counter.
    tripped: u32,
    /// Precomputed fallback plans; when present, tripped breakers engage
    /// failover instead of per-node home substitution.
    contingency: Option<ContingencyTable>,
    /// Region → provider map used to aggregate breaker state up to
    /// provider level.
    topology: Vec<(RegionId, Provider)>,
    /// Index of the currently engaged fallback entry, if any.
    active_fallback: Option<usize>,
    /// Simulation time failover first engaged (for time-to-recover).
    engaged_at_s: f64,
}

impl InvocationRouter {
    /// Creates a router with no active plan (all traffic goes home).
    pub fn new(home: RegionId, node_count: usize) -> Self {
        InvocationRouter {
            home,
            node_count,
            active: None,
            counter: 0,
            breaker_enabled: true,
            breakers: HashMap::new(),
            tripped: 0,
            contingency: None,
            topology: Vec::new(),
            active_fallback: None,
            engaged_at_s: 0.0,
        }
    }

    /// Installs a contingency table and the region → provider topology
    /// used for provider-level health aggregation. Tripped breakers will
    /// engage precomputed fallback plans instead of ad-hoc home
    /// substitution.
    pub fn set_contingency(
        &mut self,
        table: ContingencyTable,
        topology: Vec<(RegionId, Provider)>,
    ) {
        self.contingency = Some(table);
        self.topology = topology;
        self.active_fallback = None;
    }

    /// The currently engaged fallback entry, if failover is active.
    pub fn active_fallback(&self) -> Option<&ContingencyEntry> {
        let idx = self.active_fallback?;
        Some(&self.contingency.as_ref()?.entries[idx])
    }

    /// Whether a contingency fallback is currently routing traffic. This
    /// sits on the routing happy path next to [`Self::breaker_engaged`];
    /// `healthy_path_checks_stay_inside_the_routing_budget` holds the pair
    /// to the same 10 ns budget.
    #[inline]
    pub fn fallback_engaged(&self) -> bool {
        self.active_fallback.is_some()
    }

    /// Activates a new plan set (called by the Migrator once every
    /// function re-deployment succeeded, §6.1).
    pub fn activate(&mut self, plans: HourlyPlans) {
        self.active = Some(plans);
    }

    /// Whether a plan set is currently active (and unexpired) at `now`.
    pub fn has_active_plan(&self, now_s: f64) -> bool {
        self.active.as_ref().is_some_and(|p| !p.expired(now_s))
    }

    /// The currently installed plan set, if any (possibly expired).
    pub fn active_plans(&self) -> Option<&HourlyPlans> {
        self.active.as_ref()
    }

    /// The home-region uniform plan.
    pub fn home_plan(&self) -> DeploymentPlan {
        DeploymentPlan::uniform(self.node_count, self.home)
    }

    /// Whether any breaker is currently blocking a region. This is the
    /// exact check `route` performs on its happy path;
    /// `healthy_path_checks_stay_inside_the_routing_budget` holds it under
    /// 10 ns.
    #[inline]
    pub fn breaker_engaged(&self) -> bool {
        self.breaker_enabled && self.tripped > 0
    }

    /// Current breaker state for a region.
    pub fn breaker_state(&self, region: RegionId) -> BreakerState {
        self.breakers
            .get(&region)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Routes the next invocation at simulation time `now_s`.
    pub fn route(&mut self, now_s: f64) -> RouteDecision {
        self.counter += 1;
        // Benchmark traffic is pinned home by definition; no breaker can
        // reroute it further.
        let benchmark_traffic = self.counter.is_multiple_of(BENCHMARK_EVERY);
        // An expired plan set routes home (§5.2).
        let plan = match &self.active {
            Some(plans) if !benchmark_traffic && !plans.expired(now_s) => {
                plans.plan_at(now_s).clone()
            }
            _ => self.home_plan(),
        };
        let mut decision = RouteDecision {
            plan,
            benchmark_traffic,
            breaker_rerouted: false,
            fallback: false,
            probed: false,
        };
        if benchmark_traffic {
            return decision;
        }
        if self.breaker_engaged() {
            if self.contingency.is_some() {
                self.apply_failover(&mut decision, now_s);
            } else {
                self.apply_breakers(&mut decision, now_s);
            }
        } else if self.fallback_engaged() {
            self.finish_recovery(now_s);
        }
        decision
    }

    /// Substitutes home for every plan assignment whose region is blocked
    /// by a tripped breaker. Only called when at least one breaker is
    /// tripped (the cold path). The block decision is made once per
    /// region per request, so a half-open probe admits the whole request
    /// rather than being consumed by its first node.
    fn apply_breakers(&mut self, decision: &mut RouteDecision, now_s: f64) {
        let mut verdicts: Vec<(RegionId, bool)> = Vec::new();
        let mut probed = false;
        decision.substitute_home(self.home, |region| {
            if let Some(&(_, blocked)) = verdicts.iter().find(|(r, _)| *r == region) {
                return blocked;
            }
            let blocked = self.blocks(region, now_s);
            // A tripped breaker that lets the request through admitted it
            // as its half-open recovery probe.
            probed |= !blocked && self.breaker_state(region) != BreakerState::Closed;
            verdicts.push((region, blocked));
            blocked
        });
        decision.probed |= probed;
    }

    /// Contingency failover (cold path; at least one breaker tripped and
    /// a table is installed). Computes per-region block verdicts for
    /// every tripped breaker in sorted region order — the same staged
    /// half-open probe semantics as plain breaker mode — aggregates the
    /// blocked set up to provider level, and switches the decision to
    /// the best precomputed fallback plan covering it. When no fallback
    /// covers the down set, degrades to per-node home substitution.
    fn apply_failover(&mut self, decision: &mut RouteDecision, now_s: f64) {
        let mut tripped: Vec<RegionId> = self.breakers.keys().copied().collect();
        tripped.sort_unstable();
        let mut down: Vec<RegionId> = Vec::new();
        for region in tripped {
            if region == self.home {
                continue;
            }
            if self.blocks(region, now_s) {
                down.push(region);
            } else if self.breaker_state(region) != BreakerState::Closed {
                decision.probed = true;
            }
        }
        if down.is_empty() {
            // Every tripped breaker is admitting its half-open probe this
            // request: route the primary so the probes actually test it.
            // Failover stays engaged until the breakers really close.
            return;
        }

        // Provider-level aggregation: when every region of a provider the
        // primary plan set relies on is blocked, treat the whole provider
        // as down so provider-wide fallbacks match.
        let plan_regions: Vec<RegionId> = self
            .active
            .as_ref()
            .map(|p| p.regions_used())
            .unwrap_or_default();
        let provider_of = |r: RegionId, topo: &[(RegionId, Provider)]| {
            topo.iter().find(|(reg, _)| *reg == r).map(|(_, p)| *p)
        };
        let home_provider = provider_of(self.home, &self.topology);
        let mut effective = down.clone();
        for p in Provider::ALL {
            if Some(p) == home_provider {
                continue;
            }
            let used: Vec<RegionId> = plan_regions
                .iter()
                .copied()
                .filter(|&r| r != self.home && provider_of(r, &self.topology) == Some(p))
                .collect();
            if !used.is_empty() && used.iter().all(|r| down.contains(r)) {
                for &(r, rp) in &self.topology {
                    if rp == p && !effective.contains(&r) {
                        effective.push(r);
                    }
                }
            }
        }
        effective.sort_unstable();

        let table = self.contingency.as_ref().expect("checked by caller");
        if let Some(idx) = table.best_for(&effective, now_s) {
            let entry = &table.entries[idx];
            decision.plan = entry.plans.plan_at(now_s).clone();
            decision.fallback = true;
            if self.active_fallback != Some(idx) {
                if self.active_fallback.is_none() {
                    self.engaged_at_s = now_s;
                    if caribou_telemetry::is_enabled() {
                        caribou_telemetry::count("failover.engaged", 1);
                    }
                }
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event_at(
                        now_s,
                        "failover.switch",
                        table.entries[idx].exclusion.label(),
                        effective.len() as f64,
                    );
                }
                self.active_fallback = Some(idx);
            }
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::count("failover.rerouted", 1);
            }
            return;
        }

        // No precomputed fallback avoids the whole down set (e.g. home's
        // own provider degraded): substitute home per blocked node, the
        // pre-contingency behaviour.
        decision.substitute_home(self.home, |region| down.contains(&region));
    }

    /// Ends an engaged failover: every breaker closed (or admitted its
    /// probe), traffic is back on the primary plan.
    fn finish_recovery(&mut self, now_s: f64) {
        if self.active_fallback.take().is_some() && caribou_telemetry::is_enabled() {
            // The recovery event also bumps the `failover.recovered` counter.
            caribou_telemetry::observe(
                "failover.time_to_recover_s",
                (now_s - self.engaged_at_s).max(0.0),
            );
            caribou_telemetry::event_at(now_s, "failover.recovered", "primary", 0.0);
        }
    }

    /// Whether the breaker currently blocks traffic to `region`,
    /// transitioning Open → HalfOpen after the cooldown and admitting a
    /// single probe in the half-open state.
    fn blocks(&mut self, region: RegionId, now_s: f64) -> bool {
        let Some(b) = self.breakers.get_mut(&region) else {
            return false;
        };
        match b.state {
            BreakerState::Closed => false,
            BreakerState::Open => {
                if now_s >= b.opened_at_s + COOLDOWN_S {
                    b.state = BreakerState::HalfOpen;
                    b.probe_inflight = true;
                    if caribou_telemetry::is_enabled() {
                        caribou_telemetry::event_at(
                            now_s,
                            "breaker.half_open",
                            format!("r{}", region.0),
                            0.0,
                        );
                    }
                    false
                } else {
                    true
                }
            }
            BreakerState::HalfOpen => {
                if b.probe_inflight {
                    true
                } else {
                    b.probe_inflight = true;
                    false
                }
            }
        }
    }

    /// Records a failed request against `region`, opening its breaker
    /// after `FAILURE_THRESHOLD` consecutive failures
    /// (or immediately when the half-open probe fails).
    pub fn record_failure(&mut self, region: RegionId, now_s: f64) {
        if !self.breaker_enabled {
            return;
        }
        let b = self.breakers.entry(region).or_insert(RegionBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_s: 0.0,
            probe_inflight: false,
        });
        b.consecutive_failures += 1;
        b.probe_inflight = false;
        match b.state {
            BreakerState::HalfOpen => {
                b.state = BreakerState::Open;
                b.opened_at_s = now_s;
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event_at(
                        now_s,
                        "breaker.reopen",
                        format!("r{}", region.0),
                        b.consecutive_failures as f64,
                    );
                }
            }
            BreakerState::Closed if b.consecutive_failures >= FAILURE_THRESHOLD => {
                b.state = BreakerState::Open;
                b.opened_at_s = now_s;
                self.tripped += 1;
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event_at(
                        now_s,
                        "breaker.open",
                        format!("r{}", region.0),
                        b.consecutive_failures as f64,
                    );
                }
            }
            _ => {}
        }
    }

    /// Records a successful request served by `region`, closing its
    /// breaker (a half-open probe that succeeds, or background recovery).
    pub fn record_success(&mut self, region: RegionId) {
        if !self.breaker_enabled {
            return;
        }
        if let Some(b) = self.breakers.remove(&region) {
            if b.state != BreakerState::Closed {
                self.tripped -= 1;
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event("breaker.close", format!("r{}", region.0), 0.0);
                }
            }
        }
    }

    /// Feeds one invocation outcome back into the breaker: the failed
    /// region (when any) records a failure, every other region the plan
    /// actually used records a success.
    pub fn record_outcome(
        &mut self,
        plan: &DeploymentPlan,
        failed_region: Option<RegionId>,
        now_s: f64,
    ) {
        if !self.breaker_enabled {
            return;
        }
        if failed_region.is_none() && self.breakers.is_empty() {
            return;
        }
        if let Some(r) = failed_region {
            self.record_failure(r, now_s);
        }
        for region in plan.regions_used() {
            if Some(region) != failed_region {
                self.record_success(region);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hourly(region: RegionId, expires: f64) -> HourlyPlans {
        HourlyPlans::hourly(
            (0..24)
                .map(|_| DeploymentPlan::uniform(2, region))
                .collect(),
            0.0,
            expires,
        )
    }

    #[test]
    fn no_plan_routes_home() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        let d = r.route(0.0);
        assert_eq!(d.plan, r.home_plan());
        assert!(!d.benchmark_traffic);
    }

    #[test]
    fn every_tenth_invocation_is_benchmark_traffic() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        let mut bench = 0;
        for _ in 0..100 {
            if r.route(10.0).benchmark_traffic {
                bench += 1;
            }
        }
        assert_eq!(bench, 10);
    }

    #[test]
    fn benchmark_traffic_pinned_home_despite_plan() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        let decisions: Vec<RouteDecision> = (0..10).map(|_| r.route(10.0)).collect();
        let last = &decisions[9];
        assert!(last.benchmark_traffic);
        assert_eq!(last.plan, r.home_plan());
        assert_eq!(decisions[0].plan, DeploymentPlan::uniform(2, RegionId(3)));
    }

    #[test]
    fn expired_plan_falls_back_home() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 100.0));
        assert!(r.has_active_plan(50.0));
        assert!(!r.has_active_plan(100.0));
        assert_eq!(r.route(50.0).plan, DeploymentPlan::uniform(2, RegionId(3)));
        let d = r.route(200.0);
        assert!(!d.benchmark_traffic);
        assert_eq!(d.plan, r.home_plan());
    }

    #[test]
    fn hour_of_day_selects_plan() {
        let mut r = InvocationRouter::new(RegionId(0), 1);
        let mut plans: Vec<DeploymentPlan> = (0..24)
            .map(|_| DeploymentPlan::uniform(1, RegionId(0)))
            .collect();
        plans[5] = DeploymentPlan::uniform(1, RegionId(7));
        r.activate(HourlyPlans::hourly(plans, 0.0, 1e9));
        let at_5am = 5.5 * 3600.0;
        let d = r.route(at_5am);
        assert_eq!(d.plan, DeploymentPlan::uniform(1, RegionId(7)));
        let at_6am = 6.5 * 3600.0;
        let d = r.route(at_6am);
        assert_eq!(d.plan, DeploymentPlan::uniform(1, RegionId(0)));
    }

    #[test]
    fn breaker_opens_after_threshold_and_reroutes_home() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        // Below threshold: still closed, traffic still offloaded.
        r.record_failure(RegionId(3), 10.0);
        r.record_failure(RegionId(3), 20.0);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Closed);
        assert!(!r.route(30.0).breaker_rerouted);
        // Third consecutive failure: open.
        r.record_failure(RegionId(3), 40.0);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Open);
        assert!(r.breaker_engaged());
        let d = r.route(50.0);
        assert!(d.breaker_rerouted);
        assert_eq!(d.plan, r.home_plan());
    }

    #[test]
    fn breaker_half_opens_after_cooldown_single_probe() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        for _ in 0..3 {
            r.record_failure(RegionId(3), 100.0);
        }
        // Inside the cooldown: blocked.
        assert!(r.route(200.0).breaker_rerouted);
        // Past the cooldown: one probe goes through...
        let probe = r.route(500.0);
        assert!(!probe.breaker_rerouted);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::HalfOpen);
        // ...but only one: the next request is still rerouted.
        assert!(r.route(501.0).breaker_rerouted);
        // Probe succeeds → closed; traffic flows again.
        r.record_success(RegionId(3));
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Closed);
        assert!(!r.breaker_engaged());
        assert!(!r.route(502.0).breaker_rerouted);
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        for _ in 0..3 {
            r.record_failure(RegionId(3), 100.0);
        }
        let probe = r.route(500.0);
        assert!(!probe.breaker_rerouted);
        r.record_failure(RegionId(3), 500.0);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Open);
        // A fresh cooldown applies from the re-open.
        assert!(r.route(600.0).breaker_rerouted);
        assert!(!r.route(900.0).breaker_rerouted);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        r.record_failure(RegionId(3), 10.0);
        r.record_failure(RegionId(3), 20.0);
        r.record_success(RegionId(3));
        r.record_failure(RegionId(3), 30.0);
        r.record_failure(RegionId(3), 40.0);
        // Failures were not consecutive: still closed.
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Closed);
    }

    #[test]
    fn disabled_breaker_never_reroutes() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.breaker_enabled = false;
        r.activate(hourly(RegionId(3), 1e9));
        for _ in 0..10 {
            r.record_failure(RegionId(3), 10.0);
        }
        assert!(!r.breaker_engaged());
        let d = r.route(20.0);
        assert!(!d.breaker_rerouted);
        assert_eq!(d.plan, DeploymentPlan::uniform(2, RegionId(3)));
    }

    #[test]
    fn record_outcome_feeds_failure_and_successes() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        let mut plan = DeploymentPlan::uniform(2, RegionId(0));
        plan.set(caribou_model::dag::NodeId(1), RegionId(3));
        for _ in 0..3 {
            r.record_outcome(&plan, Some(RegionId(3)), 10.0);
        }
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Open);
        // A later clean outcome through region 3 (half-open probe) closes.
        let _ = r.route(1000.0);
        r.record_outcome(&plan, None, 1000.0);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Closed);
    }

    #[test]
    fn benchmark_traffic_ignores_breakers() {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(hourly(RegionId(3), 1e9));
        for _ in 0..3 {
            r.record_failure(RegionId(3), 10.0);
        }
        for _ in 0..9 {
            let _ = r.route(20.0);
        }
        let d = r.route(20.0);
        assert!(d.benchmark_traffic);
        assert!(!d.breaker_rerouted);
    }

    use caribou_model::plan::{ContingencyEntry, ContingencyTable, Exclusion};

    fn entry(exclusion: Exclusion, excluded: Vec<RegionId>, region: RegionId) -> ContingencyEntry {
        ContingencyEntry {
            exclusion,
            excluded_regions: excluded,
            plans: hourly(region, 1e9),
            metric: 1.0,
        }
    }

    fn primary_plan() -> DeploymentPlan {
        let mut plan = DeploymentPlan::uniform(2, RegionId(3));
        plan.set(caribou_model::dag::NodeId(1), RegionId(4));
        plan
    }

    /// Home r0 (aws), primary splits across r3 and r4 (both gcp);
    /// fallback excluding r3 routes to r2 (aws), provider-level gcp
    /// exclusion to r1 (aws).
    fn failover_router() -> InvocationRouter {
        let mut r = InvocationRouter::new(RegionId(0), 2);
        r.activate(HourlyPlans::hourly(vec![primary_plan(); 24], 0.0, 1e9));
        r.set_contingency(
            ContingencyTable {
                entries: vec![
                    entry(
                        Exclusion::Region(RegionId(3)),
                        vec![RegionId(3)],
                        RegionId(2),
                    ),
                    entry(
                        Exclusion::Provider(Provider::Gcp),
                        vec![RegionId(3), RegionId(4)],
                        RegionId(1),
                    ),
                ],
            },
            vec![
                (RegionId(0), Provider::Aws),
                (RegionId(1), Provider::Aws),
                (RegionId(2), Provider::Aws),
                (RegionId(3), Provider::Gcp),
                (RegionId(4), Provider::Gcp),
            ],
        );
        r
    }

    #[test]
    fn failover_switches_to_precomputed_fallback() {
        let mut r = failover_router();
        // Only r3 blocked; the primary also relies on healthy r4, so the
        // down set stays region-level and the region entry wins.
        for _ in 0..3 {
            r.record_failure(RegionId(3), 10.0);
        }
        let d = r.route(20.0);
        assert!(d.fallback);
        assert!(!d.breaker_rerouted, "failover replaces home substitution");
        assert_eq!(d.plan, DeploymentPlan::uniform(2, RegionId(2)));
        assert!(r.fallback_engaged());
        assert_eq!(
            r.active_fallback().unwrap().exclusion,
            Exclusion::Region(RegionId(3))
        );
    }

    #[test]
    fn provider_level_aggregation_picks_provider_fallback() {
        let mut r = failover_router();
        // Every gcp region the primary relies on is blocked: the down set
        // aggregates to the whole provider and only the provider-level
        // entry covers it.
        for _ in 0..3 {
            r.record_failure(RegionId(3), 10.0);
            r.record_failure(RegionId(4), 10.0);
        }
        let d = r.route(20.0);
        assert!(d.fallback);
        assert_eq!(d.plan, DeploymentPlan::uniform(2, RegionId(1)));
        assert_eq!(
            r.active_fallback().unwrap().exclusion,
            Exclusion::Provider(Provider::Gcp)
        );
    }

    #[test]
    fn staged_recovery_returns_to_primary() {
        let mut r = failover_router();
        for _ in 0..3 {
            r.record_failure(RegionId(3), 100.0);
        }
        assert!(r.route(150.0).fallback);
        assert!(r.fallback_engaged());
        // Past the cooldown the half-open probe rides the primary plan.
        let probe = r.route(500.0);
        assert!(!probe.fallback);
        assert_eq!(probe.plan, primary_plan());
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::HalfOpen);
        // Only one probe: the next request is still on the fallback.
        assert!(r.route(501.0).fallback);
        // Probe succeeds → breaker closes → next route recovers.
        r.record_success(RegionId(3));
        let d = r.route(502.0);
        assert!(!d.fallback);
        assert_eq!(d.plan, primary_plan());
        assert!(!r.fallback_engaged());
    }

    #[test]
    fn failed_probe_stays_on_fallback() {
        let mut r = failover_router();
        for _ in 0..3 {
            r.record_failure(RegionId(3), 100.0);
        }
        assert!(r.route(150.0).fallback);
        let probe = r.route(500.0);
        assert!(!probe.fallback);
        r.record_failure(RegionId(3), 500.0);
        assert_eq!(r.breaker_state(RegionId(3)), BreakerState::Open);
        assert!(r.route(600.0).fallback);
        assert!(r.fallback_engaged());
    }

    #[test]
    fn uncovered_down_set_degrades_to_home_substitution() {
        let mut r = failover_router();
        // Trip an aws region no fallback excludes.
        for _ in 0..3 {
            r.record_failure(RegionId(2), 10.0);
        }
        // Primary uses r3/r4 (both healthy); nothing substituted.
        let d = r.route(20.0);
        assert!(!d.fallback);
        assert_eq!(d.plan, primary_plan());
        // Now also trip the primary's own regions: down = {r2, r3, r4};
        // no entry excludes r2, so blocked plan nodes substitute home.
        for _ in 0..3 {
            r.record_failure(RegionId(3), 30.0);
            r.record_failure(RegionId(4), 30.0);
        }
        let d = r.route(40.0);
        assert!(!d.fallback);
        assert!(d.breaker_rerouted);
        assert_eq!(d.plan, r.home_plan());
    }

    #[test]
    fn failover_telemetry_counts_engage_and_recover() {
        caribou_telemetry::enable(Box::new(caribou_telemetry::MemorySink::default()));
        let mut r = failover_router();
        for _ in 0..3 {
            r.record_failure(RegionId(3), 100.0);
        }
        assert!(r.route(150.0).fallback);
        assert!(r.route(160.0).fallback);
        let _probe = r.route(500.0);
        r.record_success(RegionId(3));
        let _ = r.route(502.0);
        let finished = caribou_telemetry::finish().expect("session active");
        assert_eq!(finished.recorder.counter("failover.engaged"), 1);
        assert_eq!(finished.recorder.counter("failover.rerouted"), 2);
        assert_eq!(finished.recorder.counter("failover.recovered"), 1);
        let ttr = &finished.recorder.histograms["failover.time_to_recover_s"];
        assert_eq!(ttr.count(), 1);
        let sink = finished
            .sink
            .as_any()
            .downcast_ref::<caribou_telemetry::MemorySink>()
            .unwrap();
        assert!(sink.events.iter().any(|e| e.kind == "failover.switch"));
        assert!(sink.events.iter().any(|e| e.kind == "failover.recovered"));
    }

    /// While every region is healthy the breaker, and a contingency table
    /// riding on it, cost a routing decision two branches on counters:
    /// under 10 ns, inside an ~8 us invocation no benchmark workload can
    /// see. Best of 12 batches — scheduling noise only ever adds time.
    #[test]
    #[ignore = "timing; release only"]
    fn healthy_path_checks_stay_inside_the_routing_budget() {
        const BUDGET_NS: f64 = 10.0;
        const ITERS: u64 = 4_000_000;
        fn best_ns(router: &InvocationRouter, check: fn(&InvocationRouter) -> bool) -> f64 {
            assert!(!check(router), "healthy router: nothing engaged");
            (0..12)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let mut any = false;
                    for _ in 0..ITERS {
                        any |= check(std::hint::black_box(router));
                    }
                    std::hint::black_box(any);
                    start.elapsed().as_nanos() as f64 / ITERS as f64
                })
                .fold(f64::INFINITY, f64::min)
        }
        let mut activated = InvocationRouter::new(RegionId(0), 2);
        activated.activate(hourly(RegionId(4), 1e12));
        let breaker = best_ns(&activated, |r| r.breaker_engaged());
        let with_table = best_ns(&failover_router(), |r| {
            r.breaker_engaged() || r.fallback_engaged()
        });
        eprintln!(
            "router: breaker check {breaker:.3} ns, with contingency table {with_table:.3} ns"
        );
        assert!(breaker < BUDGET_NS, "breaker check took {breaker:.2} ns");
        assert!(
            with_table < BUDGET_NS,
            "breaker + fallback check took {with_table:.2} ns"
        );
    }
}
