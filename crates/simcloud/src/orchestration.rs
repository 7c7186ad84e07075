//! Orchestration-overhead models (§9.6).
//!
//! The paper compares three ways to chain serverless functions: AWS Step
//! Functions (first-party, proprietary fast transitions), raw SNS
//! messaging (the channel Caribou builds on), and Caribou's wrapper (SNS
//! plus deployment-plan bookkeeping). Each variant charges a per-transition
//! overhead on top of message delivery, plus a per-invocation setup
//! overhead; Caribou's extra work is the DP fetch at workflow entry and
//! the location/plan piggybacking at each hop.

use std::sync::OnceLock;

use caribou_model::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// Log-space sigma of the orchestration overhead distributions (both
/// transition and setup); shared with the estimator's prepared fast path.
pub const OVERHEAD_SIGMA: f64 = 0.25;

/// The orchestration mechanism chaining workflow stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Orchestrator {
    /// AWS Step Functions: fastest transitions, single-region only.
    StepFunctions,
    /// Raw SNS chaining: the baseline channel, no synchronization support
    /// by itself.
    Sns,
    /// Caribou's wrapper over SNS: cross-region routing, synchronization,
    /// and plan piggybacking.
    Caribou,
}

impl Orchestrator {
    /// Median per-transition service overhead in seconds, excluding
    /// payload transfer (which the pub/sub and latency models charge).
    ///
    /// Calibrated so the relative gaps of Fig. 12 reproduce: Step Functions
    /// beats SNS by ~12.8% on small inputs, and Caribou adds <1% (geomean)
    /// over SNS.
    pub fn transition_overhead_median_s(self) -> f64 {
        match self {
            Orchestrator::StepFunctions => 0.010,
            Orchestrator::Sns => 0.045,
            Orchestrator::Caribou => 0.047,
        }
    }

    /// Per-invocation setup overhead in seconds: Caribou's entry wrapper
    /// fetches the active deployment plan from the KV store once.
    pub fn invocation_setup_median_s(self) -> f64 {
        match self {
            Orchestrator::StepFunctions => 0.0,
            Orchestrator::Sns => 0.0,
            Orchestrator::Caribou => 0.008,
        }
    }

    /// Log-space locations of the (transition, setup) overhead medians,
    /// taken once per orchestrator: the engine draws from them on every
    /// hop and the estimator's plan preparation reads the same bits.
    fn overhead_mu(self) -> [f64; 2] {
        static MU: OnceLock<[[f64; 2]; 3]> = OnceLock::new();
        let all = MU.get_or_init(|| {
            [
                Orchestrator::StepFunctions,
                Orchestrator::Sns,
                Orchestrator::Caribou,
            ]
            .map(|o| {
                [
                    o.transition_overhead_median_s(),
                    o.invocation_setup_median_s(),
                ]
                .map(f64::ln)
            })
        });
        all[self as usize]
    }

    /// `ln` of [`Orchestrator::transition_overhead_median_s`].
    pub fn transition_mu(self) -> f64 {
        self.overhead_mu()[0]
    }

    /// `ln` of [`Orchestrator::invocation_setup_median_s`]; `-inf` where
    /// there is no setup overhead.
    pub fn setup_mu(self) -> f64 {
        self.overhead_mu()[1]
    }

    /// Samples one transition overhead.
    pub fn sample_transition_s(self, rng: &mut Pcg32) -> f64 {
        rng.lognormal(self.transition_mu(), OVERHEAD_SIGMA)
    }

    /// Samples the invocation setup overhead.
    pub fn sample_setup_s(self, rng: &mut Pcg32) -> f64 {
        if self.invocation_setup_median_s() == 0.0 {
            0.0
        } else {
            rng.lognormal(self.setup_mu(), OVERHEAD_SIGMA)
        }
    }

    /// Whether this orchestrator supports routing stages across regions.
    pub fn supports_cross_region(self) -> bool {
        matches!(self, Orchestrator::Caribou)
    }

    /// Whether this orchestrator supports synchronization nodes natively.
    pub fn supports_sync_nodes(self) -> bool {
        matches!(self, Orchestrator::StepFunctions | Orchestrator::Caribou)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_functions_fastest() {
        let sf = Orchestrator::StepFunctions.transition_overhead_median_s();
        let sns = Orchestrator::Sns.transition_overhead_median_s();
        let cb = Orchestrator::Caribou.transition_overhead_median_s();
        assert!(sf < sns);
        assert!(sns < cb);
        // Caribou stays within a few percent of SNS per transition.
        assert!((cb - sns) / sns < 0.10);
    }

    #[test]
    fn setup_overhead_only_for_caribou() {
        let mut rng = Pcg32::seed(1);
        assert_eq!(Orchestrator::Sns.sample_setup_s(&mut rng), 0.0);
        assert_eq!(Orchestrator::StepFunctions.sample_setup_s(&mut rng), 0.0);
        assert!(Orchestrator::Caribou.sample_setup_s(&mut rng) > 0.0);
    }

    #[test]
    fn sampled_transition_near_median() {
        let mut rng = Pcg32::seed(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| Orchestrator::Sns.sample_transition_s(&mut rng))
            .sum::<f64>()
            / n as f64;
        let median = Orchestrator::Sns.transition_overhead_median_s();
        assert!((mean / median - 1.0).abs() < 0.10, "mean {mean}");
    }

    #[test]
    fn overhead_draws_are_the_per_draw_logarithm_bit_for_bit() {
        for o in [
            Orchestrator::StepFunctions,
            Orchestrator::Sns,
            Orchestrator::Caribou,
        ] {
            let (transition, setup) = (
                o.transition_overhead_median_s(),
                o.invocation_setup_median_s(),
            );
            assert_eq!(o.transition_mu().to_bits(), transition.ln().to_bits());
            assert_eq!(o.setup_mu().to_bits(), setup.ln().to_bits());
            let (mut a, mut b) = (Pcg32::seed(5), Pcg32::seed(5));
            for _ in 0..100 {
                let want = b.lognormal(transition.ln(), OVERHEAD_SIGMA);
                assert_eq!(o.sample_transition_s(&mut a).to_bits(), want.to_bits());
                let want = if setup == 0.0 {
                    0.0
                } else {
                    b.lognormal(setup.ln(), OVERHEAD_SIGMA)
                };
                assert_eq!(o.sample_setup_s(&mut a).to_bits(), want.to_bits());
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn capability_matrix() {
        assert!(Orchestrator::Caribou.supports_cross_region());
        assert!(!Orchestrator::Sns.supports_cross_region());
        assert!(!Orchestrator::Sns.supports_sync_nodes());
        assert!(Orchestrator::StepFunctions.supports_sync_nodes());
    }
}
