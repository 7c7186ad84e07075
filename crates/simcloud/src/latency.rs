//! Inter-region latency and bandwidth model.
//!
//! The base round-trip times are derived from great-circle distances with a
//! fiber-route factor and calibrated against published CloudPing numbers
//! for the AWS North American regions (e.g. us-east-1 ↔ us-west-1 is
//! roughly 60–65 ms RTT). Individual transfers add log-normal jitter and a
//! payload-size-dependent term from effective per-flow bandwidth. The model
//! plays the role of the paper's CloudPing fallback (§7.1): the Metrics
//! Manager prefers learned transmission distributions and falls back to
//! this model when no history exists.

use caribou_model::region::{RegionCatalog, RegionId};
use caribou_model::rng::Pcg32;

use crate::providers::inter_provider_penalty_s;

/// Effective propagation speed of light in fiber, km/s.
const FIBER_KM_PER_S: f64 = 200_000.0;
/// Multiplier capturing non-great-circle fiber routing.
const ROUTE_FACTOR: f64 = 1.6;
/// Fixed per-hop processing overhead, seconds (one way).
const HOP_OVERHEAD_S: f64 = 0.0008;

/// Latency/bandwidth model between regions.
///
/// # Examples
///
/// ```
/// use caribou_model::region::RegionCatalog;
/// use caribou_simcloud::latency::LatencyModel;
///
/// let catalog = RegionCatalog::aws_default();
/// let model = LatencyModel::from_catalog(&catalog);
/// let east = catalog.id_of("us-east-1").unwrap();
/// let west = catalog.id_of("us-west-1").unwrap();
/// // Coast-to-coast RTT lands in the CloudPing ballpark.
/// assert!((0.04..0.09).contains(&model.rtt(east, west)));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// One-way base latency in seconds, `n × n` row-major.
    one_way: Vec<f64>,
    n: usize,
    /// Effective single-flow bandwidth within a region, bytes/second.
    pub intra_bandwidth_bps: f64,
    /// Effective single-flow bandwidth between regions, bytes/second.
    pub inter_bandwidth_bps: f64,
    /// Log-space sigma of multiplicative latency jitter.
    pub jitter_sigma: f64,
}

impl LatencyModel {
    /// Builds the model from a region catalog: the distance-based
    /// calibration plus the [`inter_provider_penalty_s`] of every
    /// cross-provider pair.
    pub fn from_catalog(catalog: &RegionCatalog) -> Self {
        let n = catalog.len();
        let mut one_way = vec![0.0; n * n];
        for (a, sa) in catalog.iter() {
            for (b, sb) in catalog.iter() {
                let base = if a == b {
                    // Intra-region (cross-AZ) latency.
                    0.0005
                } else {
                    catalog.distance_km(a, b) / FIBER_KM_PER_S * ROUTE_FACTOR + HOP_OVERHEAD_S
                };
                one_way[a.index() * n + b.index()] =
                    base + inter_provider_penalty_s(sa.provider, sb.provider);
            }
        }
        LatencyModel {
            one_way,
            n,
            intra_bandwidth_bps: 100.0e6,
            inter_bandwidth_bps: 30.0e6,
            jitter_sigma: 0.08,
        }
    }

    /// Base one-way latency in seconds.
    pub fn one_way(&self, from: RegionId, to: RegionId) -> f64 {
        self.one_way[from.index() * self.n + to.index()]
    }

    /// Base round-trip time in seconds.
    pub fn rtt(&self, a: RegionId, b: RegionId) -> f64 {
        self.one_way(a, b) + self.one_way(b, a)
    }

    /// Effective bandwidth for a flow between two regions, bytes/second.
    pub fn bandwidth_bps(&self, from: RegionId, to: RegionId) -> f64 {
        if from == to {
            self.intra_bandwidth_bps
        } else {
            self.inter_bandwidth_bps
        }
    }

    /// Expected (jitter-free) one-way transfer time for a payload.
    pub fn expected_transfer_seconds(&self, from: RegionId, to: RegionId, bytes: f64) -> f64 {
        self.one_way(from, to) + bytes.max(0.0) / self.bandwidth_bps(from, to)
    }

    /// Samples a one-way transfer time with multiplicative jitter.
    pub fn sample_transfer_seconds(
        &self,
        from: RegionId,
        to: RegionId,
        bytes: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let base = self.expected_transfer_seconds(from, to, bytes);
        base * rng.lognormal(0.0, self.jitter_sigma)
    }
}

/// What the same coordinates cost inside one provider: the model of
/// `catalog` with every region relabelled AWS, so no pair pays a penalty.
#[cfg(test)]
pub(crate) fn distance_only(catalog: &RegionCatalog) -> LatencyModel {
    use caribou_model::region::{Provider, RegionSpec};
    let mut one_provider = RegionCatalog::new();
    for (_, spec) in catalog.iter() {
        one_provider.push(RegionSpec {
            provider: Provider::Aws,
            ..spec.clone()
        });
    }
    LatencyModel::from_catalog(&one_provider)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (RegionCatalog, LatencyModel) {
        let cat = RegionCatalog::aws_default();
        let lm = LatencyModel::from_catalog(&cat);
        (cat, lm)
    }

    #[test]
    fn east_west_rtt_matches_cloudping_ballpark() {
        let (cat, lm) = model();
        let rtt = lm.rtt(
            cat.id_of("us-east-1").unwrap(),
            cat.id_of("us-west-1").unwrap(),
        );
        // CloudPing reports roughly 60-65 ms; accept a generous band.
        assert!((0.045..0.085).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn intra_region_latency_small() {
        let (cat, lm) = model();
        let id = cat.id_of("us-east-1").unwrap();
        assert!(lm.rtt(id, id) < 0.005);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let (cat, lm) = model();
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("us-west-2").unwrap();
        let small = lm.expected_transfer_seconds(a, b, 1e3);
        let large = lm.expected_transfer_seconds(a, b, 1e8);
        assert!(large > small + 1.0, "small {small} large {large}");
    }

    #[test]
    fn sampled_transfer_jitters_around_expectation() {
        let (cat, lm) = model();
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("ca-central-1").unwrap();
        let expected = lm.expected_transfer_seconds(a, b, 1e6);
        let mut rng = Pcg32::seed(1);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| lm.sample_transfer_seconds(a, b, 1e6, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean / expected - 1.0).abs() < 0.05,
            "mean {mean} expected {expected}"
        );
    }

    #[test]
    fn cross_provider_pairs_pay_explicit_penalty() {
        let cat = RegionCatalog::multi_cloud();
        let plain = distance_only(&cat);
        let lm = LatencyModel::from_catalog(&cat);
        let aws_east = cat.resolve("aws:us-east-1").unwrap();
        let aws_west = cat.resolve("aws:us-west-2").unwrap();
        let gcp_west = cat.resolve("gcp:us-west1").unwrap();
        // Intra-provider entries are untouched.
        assert_eq!(
            lm.one_way(aws_east, aws_west),
            plain.one_way(aws_east, aws_west)
        );
        // Cross-provider entries carry the penalty in both directions.
        assert!(
            (lm.one_way(aws_west, gcp_west) - plain.one_way(aws_west, gcp_west) - 0.004).abs()
                < 1e-12
        );
        assert!((lm.rtt(aws_west, gcp_west) - plain.rtt(aws_west, gcp_west) - 0.008).abs() < 1e-12);
    }

    #[test]
    fn symmetry_of_distance_model() {
        let (cat, lm) = model();
        for (a, _) in cat.iter() {
            for (b, _) in cat.iter() {
                assert!((lm.one_way(a, b) - lm.one_way(b, a)).abs() < 1e-12);
            }
        }
    }
}
