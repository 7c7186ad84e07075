//! The Deployment Manager's decision logic (§5.2, Fig. 6).
//!
//! The manager iterates over deployed workflows; when a token check is
//! due it collects metrics, earns tokens from the past period's potential
//! savings, compares the budget against the cost of generating a new
//! deployment plan, and picks the plan granularity the budget affords —
//! hourly (24 solves) when rich, daily (one solve) when tight, nothing
//! when broke. The decision core is separated from the framework loop so
//! it can be tested exhaustively.

use crate::tokens::{solve_carbon_g, TokenBucket};

/// What the manager decided at a token check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveDecision {
    /// Not enough budget; keep the current (possibly expired) plan state.
    Skip,
    /// Solve one plan against day-averaged carbon (daily granularity).
    Daily,
    /// Solve 24 hourly plans (full granularity).
    Hourly,
}

/// Configuration of the manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Whether the Go Monte Carlo implementation's speedup applies to the
    /// modeled solve cost (§9.7).
    pub go_runtime: bool,
    /// Dynamic token-bucket triggering (§5.2). When `false`, the manager
    /// solves hourly at `fixed_interval_s` unconditionally — the §9.7
    /// ablation.
    pub dynamic_triggering: bool,
    /// Fixed solve interval when `dynamic_triggering` is off, seconds.
    pub fixed_interval_s: f64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            go_runtime: true,
            dynamic_triggering: true,
            fixed_interval_s: 86_400.0,
        }
    }
}

/// Metrics collected for one token check (the sliding window of §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckMetrics {
    /// Invocations observed in the window.
    pub invocations: usize,
    /// Mean total execution seconds per invocation.
    pub mean_exec_s: f64,
    /// Facility energy per execution second, kWh/s.
    pub energy_per_s_kwh: f64,
    /// `I_home − I_cleanest` over the trailing day, gCO₂eq/kWh.
    pub intensity_differential: f64,
    /// Carbon intensity of the framework's own region now.
    pub framework_intensity: f64,
    /// Workflow complexity (`|N| + |E|`).
    pub complexity: usize,
    /// Window length, seconds.
    pub window_s: f64,
}

/// The per-workflow Deployment Manager.
#[derive(Debug, Clone)]
pub struct DeploymentManager {
    /// The token bucket.
    pub bucket: TokenBucket,
    /// Configuration.
    pub config: ManagerConfig,
    /// Times (simulation seconds) a new plan set was generated.
    pub generations: Vec<f64>,
    /// Cumulative modeled framework carbon from solves, gCO₂eq.
    pub solve_carbon_g: f64,
    /// Current post-solve check interval; starts at one plan horizon
    /// (24 h) during the learning phase and stretches while successive
    /// solves keep producing the same plans (§9.5: "optimizing deployment
    /// regions daily and subsequently transitioning to a lower frequency
    /// schedule").
    pub stable_interval_s: f64,
}

impl DeploymentManager {
    /// Creates a manager whose first check is due at `first_check_s`.
    pub fn new(first_check_s: f64, config: ManagerConfig) -> Self {
        DeploymentManager {
            // Cap the bucket generously: ten hourly solves' worth for a
            // mid-size workflow in a dirty region.
            bucket: TokenBucket::new(first_check_s, 10.0 * solve_carbon_g(10, 24, false, 400.0)),
            config,
            generations: Vec::new(),
            solve_carbon_g: 0.0,
            stable_interval_s: 86_400.0,
        }
    }

    /// Records the outcome of a solve's rollout and schedules the next
    /// check: a changed plan set resets the cadence to one plan horizon
    /// (24 h, the learning phase); an unchanged one stretches the interval
    /// geometrically up to 3.5 days. Returns the chosen interval. No-op
    /// under fixed-frequency triggering.
    pub fn note_solve_outcome(&mut self, now_s: f64, plans_changed: bool) -> f64 {
        if !self.config.dynamic_triggering {
            return self.config.fixed_interval_s;
        }
        const HORIZON_S: f64 = 86_400.0;
        const MAX_STABLE_S: f64 = 3.5 * 86_400.0;
        self.stable_interval_s = if plans_changed {
            HORIZON_S
        } else {
            (self.stable_interval_s * 1.7).min(MAX_STABLE_S)
        };
        self.bucket.next_check_s = now_s + self.stable_interval_s;
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::event_at(
                now_s,
                "manager.cadence_change",
                if plans_changed { "reset" } else { "stretch" },
                self.stable_interval_s,
            );
        }
        self.stable_interval_s
    }

    /// Time of the next scheduled check.
    pub fn next_check_s(&self) -> f64 {
        self.bucket.next_check_s
    }

    /// Runs the token-check decision of Fig. 6 and updates the bucket and
    /// schedule. On `Daily`/`Hourly` the solve's carbon has been consumed
    /// from the bucket and added to [`DeploymentManager::solve_carbon_g`].
    pub fn check(&mut self, now_s: f64, m: CheckMetrics) -> SolveDecision {
        if !self.config.dynamic_triggering {
            // Fixed-frequency ablation (§9.7): always solve hourly and
            // account the cost, without budget gating.
            let cost = solve_carbon_g(
                m.complexity,
                24,
                self.config.go_runtime,
                m.framework_intensity,
            );
            self.solve_carbon_g += cost;
            self.generations.push(now_s);
            self.bucket.next_check_s = now_s + self.config.fixed_interval_s;
            return SolveDecision::Hourly;
        }

        let earned = self.bucket.earn(
            m.invocations,
            m.mean_exec_s,
            m.energy_per_s_kwh,
            m.intensity_differential,
        );
        let earn_rate = if m.window_s > 0.0 {
            earned / m.window_s
        } else {
            0.0
        };
        let hourly_cost = solve_carbon_g(
            m.complexity,
            24,
            self.config.go_runtime,
            m.framework_intensity,
        );
        let daily_cost = solve_carbon_g(
            m.complexity,
            1,
            self.config.go_runtime,
            m.framework_intensity,
        );

        let decision = if self.bucket.try_consume(hourly_cost) {
            self.solve_carbon_g += hourly_cost;
            SolveDecision::Hourly
        } else if self.bucket.try_consume(daily_cost) {
            self.solve_carbon_g += daily_cost;
            SolveDecision::Daily
        } else {
            SolveDecision::Skip
        };
        if decision != SolveDecision::Skip {
            self.generations.push(now_s);
        }
        self.bucket
            .schedule_next_check(now_s, earn_rate, hourly_cost);
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::gauge("manager.token_level_g", self.bucket.tokens());
            caribou_telemetry::count("manager.token_check", 1);
            match decision {
                SolveDecision::Skip => {}
                SolveDecision::Daily => {
                    caribou_telemetry::event_at(now_s, "manager.dp_generation", "daily", daily_cost)
                }
                SolveDecision::Hourly => caribou_telemetry::event_at(
                    now_s,
                    "manager.dp_generation",
                    "hourly",
                    hourly_cost,
                ),
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(invocations: usize, differential: f64) -> CheckMetrics {
        CheckMetrics {
            invocations,
            mean_exec_s: 10.0,
            energy_per_s_kwh: 1e-6,
            intensity_differential: differential,
            framework_intensity: 32.0,
            complexity: 10,
            window_s: 86_400.0,
        }
    }

    #[test]
    fn broke_bucket_skips() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        let d = dm.check(0.0, metrics(1, 10.0));
        assert_eq!(d, SolveDecision::Skip);
        assert!(dm.generations.is_empty());
        assert_eq!(dm.solve_carbon_g, 0.0);
    }

    #[test]
    fn busy_workflow_earns_hourly_solve() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        // 100k invocations × 10 s × 1e-6 kWh/s × 348 g/kWh ≈ 348 g.
        let d = dm.check(0.0, metrics(100_000, 348.0));
        assert_eq!(d, SolveDecision::Hourly);
        assert_eq!(dm.generations, vec![0.0]);
        assert!(dm.solve_carbon_g > 0.0);
    }

    #[test]
    fn moderate_budget_degrades_to_daily() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        let hourly = solve_carbon_g(10, 24, true, 32.0);
        let daily = solve_carbon_g(10, 1, true, 32.0);
        // Earn between daily and hourly cost.
        let target = (daily + hourly) / 2.0;
        let invocations = (target / (10.0 * 1e-6 * 348.0)).ceil() as usize;
        let d = dm.check(0.0, metrics(invocations, 348.0));
        assert_eq!(d, SolveDecision::Daily);
    }

    #[test]
    fn tokens_accumulate_across_checks() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        let hourly = solve_carbon_g(10, 24, true, 32.0);
        // Earn ~60% of an hourly solve per check.
        let per_check = 0.6 * hourly;
        let invocations = (per_check / (10.0 * 1e-6 * 348.0)).ceil() as usize;
        let first = dm.check(0.0, metrics(invocations, 348.0));
        // First check could afford a daily solve; what matters is that by
        // the second check the hourly budget is reachable.
        let second = dm.check(86_400.0, metrics(invocations, 348.0));
        assert!(
            first == SolveDecision::Daily || second != SolveDecision::Skip,
            "{first:?} then {second:?}"
        );
    }

    #[test]
    fn zero_differential_never_solves() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        for i in 0..10 {
            let d = dm.check(i as f64 * 86_400.0, metrics(1_000_000, 0.0));
            assert_eq!(d, SolveDecision::Skip, "check {i}");
        }
    }

    #[test]
    fn fixed_frequency_ablation_always_solves() {
        let cfg = ManagerConfig {
            dynamic_triggering: false,
            fixed_interval_s: 86_400.0 / 2.0,
            ..ManagerConfig::default()
        };
        let mut dm = DeploymentManager::new(0.0, cfg);
        let d = dm.check(0.0, metrics(0, 0.0));
        assert_eq!(d, SolveDecision::Hourly);
        assert!((dm.next_check_s() - 43_200.0).abs() < 1.0);
        assert!(dm.solve_carbon_g > 0.0);
    }

    #[test]
    fn go_runtime_halves_solve_cost() {
        let cfg_py = ManagerConfig {
            go_runtime: false,
            ..ManagerConfig::default()
        };
        let mut py = DeploymentManager::new(0.0, cfg_py);
        let mut go = DeploymentManager::new(0.0, ManagerConfig::default());
        let m = metrics(100_000, 348.0);
        py.check(0.0, m);
        go.check(0.0, m);
        assert!(go.solve_carbon_g < py.solve_carbon_g);
        assert!((py.solve_carbon_g / go.solve_carbon_g - 534.0 / 276.0).abs() < 0.01);
    }

    #[test]
    fn cadence_stretches_on_stable_plans_and_resets_on_change() {
        let mut dm = DeploymentManager::new(0.0, ManagerConfig::default());
        let a = dm.note_solve_outcome(0.0, true);
        assert!((a - 86_400.0).abs() < 1.0, "learning phase is daily");
        let b = dm.note_solve_outcome(a, false);
        assert!(b > a, "stable plans stretch the interval");
        let c = dm.note_solve_outcome(a + b, false);
        assert!(c > b);
        // Capped at 3.5 days.
        for _ in 0..10 {
            dm.note_solve_outcome(0.0, false);
        }
        assert!(dm.stable_interval_s <= 3.5 * 86_400.0 + 1.0);
        // A changed plan resets to daily.
        let r = dm.note_solve_outcome(0.0, true);
        assert!((r - 86_400.0).abs() < 1.0);
    }

    #[test]
    fn note_solve_outcome_noop_under_fixed_triggering() {
        let cfg = ManagerConfig {
            dynamic_triggering: false,
            fixed_interval_s: 1234.0,
            ..ManagerConfig::default()
        };
        let mut dm = DeploymentManager::new(0.0, cfg);
        assert_eq!(dm.note_solve_outcome(0.0, true), 1234.0);
        assert_eq!(dm.stable_interval_s, 86_400.0, "state untouched");
    }

    #[test]
    fn check_due_respects_schedule() {
        let mut dm = DeploymentManager::new(100.0, ManagerConfig::default());
        assert_eq!(dm.next_check_s(), 100.0);
        dm.check(100.0, metrics(10, 100.0));
        assert!(dm.next_check_s() > 100.0 + 1.0);
    }
}
