//! Lambda-like function execution.
//!
//! Models the pieces of AWS Lambda that the paper's metrics pipeline
//! observes: the memory→vCPU allocation rule (`n_vcpu = mem / 1769`, §7.1),
//! billed duration, `cpu_total_time` (the Lambda-Insights counter feeding
//! the utilization-based power model, Eq. 7.3), per-region performance
//! factors (§7.1: execution time distributions differ per region), and
//! cold starts.

use caribou_model::dist::{DistSpec, PreparedDist, PreparedSpec};
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

/// Memory (MB) granting one full vCPU on AWS Lambda.
pub const MB_PER_VCPU: f64 = 1769.0;

/// Outcome of one simulated function execution: what the engine bills
/// and logs. The memory size and the cold-start flag are the caller's
/// inputs, so the record does not echo them.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRecord {
    /// Wall-clock duration in seconds (billed duration), a cold start's
    /// penalty included.
    pub duration_s: f64,
    /// Total CPU time across all vCPUs, seconds (Lambda Insights
    /// `cpu_total_time`).
    pub cpu_total_time_s: f64,
}

/// vCPU allocation for a memory size (`mem / 1769`, fractional below
/// 1769 MB, as on AWS Lambda).
pub fn vcpus(memory_mb: u32) -> f64 {
    memory_mb as f64 / MB_PER_VCPU
}

/// Per-region execution performance model.
#[derive(Debug, Clone)]
pub struct LambdaRuntime {
    /// Multiplier on reference execution time per region; >1 is slower.
    ///
    /// Factors reflect the observation (§7.1, and the "Night Shift" study
    /// the paper cites) that the same function runs a few percent faster or
    /// slower in different regions.
    perf_factor: Vec<f64>,
    /// Cold-start duration distribution per region, seconds (providers
    /// differ: GCP's curve is steeper than Lambda's), prepared once.
    cold_start: Vec<PreparedSpec>,
    /// Run-to-run multiplicative execution noise (log-space sigma).
    pub exec_sigma: f64,
    /// Probability an invocation is a cold start (the simulator does not
    /// track per-container warm pools; the paper's workloads are frequent
    /// enough that cold starts are rare).
    pub cold_start_prob: f64,
}

impl LambdaRuntime {
    /// Builds the runtime from one performance factor and one cold-start
    /// curve per catalog region.
    pub fn new(perf_factor: Vec<f64>, cold_start: Vec<DistSpec>) -> Self {
        assert_eq!(perf_factor.len(), cold_start.len());
        LambdaRuntime {
            perf_factor,
            cold_start: cold_start.into_iter().map(PreparedSpec::new).collect(),
            exec_sigma: 0.06,
            cold_start_prob: 0.02,
        }
    }

    /// The performance factor of a region.
    pub fn perf_factor(&self, region: RegionId) -> f64 {
        self.perf_factor[region.index()]
    }

    /// Overrides a region's performance factor.
    pub fn set_perf_factor(&mut self, region: RegionId, factor: f64) {
        self.perf_factor[region.index()] = factor;
    }

    /// The cold-start curve governing a region.
    pub fn cold_start_for(&self, region: RegionId) -> &DistSpec {
        self.cold_start[region.index()].spec()
    }

    /// Simulates one execution of a function stage.
    ///
    /// `ref_exec` is the execution-time distribution on reference
    /// (us-east-1) hardware; `cpu_utilization` the stage's average CPU
    /// utilization. Cold starts are sampled probabilistically; use
    /// [`LambdaRuntime::execute_forced`] when a warm-pool model decides
    /// coldness. Determinism: all randomness comes from `rng`.
    pub fn execute(
        &self,
        region: RegionId,
        ref_exec: &DistSpec,
        memory_mb: u32,
        cpu_utilization: f64,
        rng: &mut Pcg32,
    ) -> ExecutionRecord {
        let cold = rng.chance(self.cold_start_prob);
        let ref_exec = ref_exec.prepare();
        self.execute_forced(region, ref_exec, memory_mb, cpu_utilization, cold, rng)
    }

    /// Simulates one execution with an externally decided cold-start flag
    /// (driven by the stateful [`crate::warm::WarmPool`]), on a reference
    /// distribution prepared beforehand: a caller drawing from it on every
    /// invocation takes its logarithm once.
    pub fn execute_forced(
        &self,
        region: RegionId,
        ref_exec: PreparedDist<'_>,
        memory_mb: u32,
        cpu_utilization: f64,
        cold: bool,
        rng: &mut Pcg32,
    ) -> ExecutionRecord {
        let base = ref_exec.sample(rng).max(0.0);
        let noise = rng.lognormal(0.0, self.exec_sigma);
        let compute_s = base * self.perf_factor(region) * noise;
        let cold_s = if cold {
            self.cold_start[region.index()].sample(rng).max(0.0)
        } else {
            0.0
        };
        ExecutionRecord {
            duration_s: compute_s + cold_s,
            cpu_total_time_s: compute_s * vcpus(memory_mb) * cpu_utilization.clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn runtime() -> (RegionCatalog, LambdaRuntime) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.compute)
    }

    #[test]
    fn vcpu_rule_matches_paper() {
        assert!((vcpus(1769) - 1.0).abs() < 1e-12);
        assert!((vcpus(3538) - 2.0).abs() < 1e-12);
        assert!(vcpus(512) < 0.3);
    }

    #[test]
    fn execution_duration_tracks_reference() {
        let (cat, rt) = runtime();
        let r = cat.id_of("us-east-1").unwrap();
        let spec = DistSpec::Constant { value: 2.0 };
        let mut rng = Pcg32::seed(1);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| rt.execute(r, &spec, 1769, 0.7, &mut rng).duration_s)
            .sum::<f64>()
            / n as f64;
        // Mean should sit near 2 s; cold starts and jitter add a little.
        assert!((1.95..2.15).contains(&mean), "mean {mean}");
    }

    #[test]
    fn utilization_recovered_from_cpu_total_time() {
        let (cat, mut rt) = runtime();
        rt.cold_start_prob = 0.0;
        rt.exec_sigma = 0.0;
        let r = cat.id_of("us-east-1").unwrap();
        let spec = DistSpec::Constant { value: 3.0 };
        let mut rng = Pcg32::seed(2);
        let rec = rt.execute(r, &spec, 1769, 0.6, &mut rng);
        // Eq. 7.3's utilization: CPU time over `t × n_vcpu`.
        let utilization = rec.cpu_total_time_s / (rec.duration_s * vcpus(1769));
        assert!((utilization - 0.6).abs() < 1e-9);
    }

    #[test]
    fn slower_region_runs_longer() {
        let (cat, mut rt) = runtime();
        rt.cold_start_prob = 0.0;
        rt.exec_sigma = 0.0;
        let east = cat.id_of("us-east-1").unwrap();
        let west1 = cat.id_of("us-west-1").unwrap();
        let spec = DistSpec::Constant { value: 1.0 };
        let mut rng = Pcg32::seed(3);
        let a = rt.execute(east, &spec, 1024, 0.7, &mut rng).duration_s;
        let b = rt.execute(west1, &spec, 1024, 0.7, &mut rng).duration_s;
        assert!(b > a);
    }

    #[test]
    fn cold_start_adds_latency() {
        let (cat, rt) = runtime();
        let r = cat.id_of("us-east-1").unwrap();
        let spec = DistSpec::Constant { value: 1.0 };
        // One seed for both: the cold run draws the warm run's execution
        // time, then its cold-start penalty on top.
        let run = |cold| rt.execute_forced(r, spec.prepare(), 1024, 0.7, cold, &mut Pcg32::seed(4));
        let (warm, cold) = (run(false), run(true));
        assert!(cold.duration_s > warm.duration_s);
        assert_eq!(cold.cpu_total_time_s, warm.cpu_total_time_s);
    }

    #[test]
    fn per_region_cold_start_override_applies() {
        let shared = DistSpec::LogNormal {
            median: 0.35,
            sigma: 0.35,
        };
        let (east, west) = (RegionId(0), RegionId(1));
        let mut rt = LambdaRuntime::new(
            vec![1.0, 1.0],
            vec![shared, DistSpec::Constant { value: 2.5 }],
        );
        rt.exec_sigma = 0.0;
        let spec = DistSpec::Constant { value: 1.0 };
        let mut rng = Pcg32::seed(5);
        let a = rt.execute_forced(east, spec.prepare(), 1024, 0.7, true, &mut rng);
        let b = rt.execute_forced(west, spec.prepare(), 1024, 0.7, true, &mut rng);
        // East pays its log-normal curve; west its own constant, on top of
        // the noiseless one-second run.
        assert!(a.duration_s - 1.0 < 2.5);
        assert!((b.duration_s - 1.0 - 2.5).abs() < 1e-12);
        assert!(matches!(
            rt.cold_start_for(east),
            DistSpec::LogNormal { .. }
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let (cat, rt) = runtime();
        let r = cat.id_of("us-west-2").unwrap();
        let spec = DistSpec::LogNormal {
            median: 1.5,
            sigma: 0.2,
        };
        let a = rt.execute(r, &spec, 1024, 0.7, &mut Pcg32::seed(9));
        let b = rt.execute(r, &spec, 1024, 0.7, &mut Pcg32::seed(9));
        assert_eq!(a, b);
    }
}
