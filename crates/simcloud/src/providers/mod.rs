//! Trait-based provider backends.
//!
//! The simulated substrate is not one AWS-shaped cloud: each provider
//! family plugs in behind [`ProviderBackend`], a bundle of sub-traits
//! describing its messaging, key-value, registry/compute, and pricing
//! semantics. [`crate::cloud::SimCloud::with_catalog`] assembles every
//! cloud by asking each region's backend for its constants, so a constant
//! lives in exactly one backend; adding `gcp` to the default AWS-only
//! [`ProviderSet`](caribou_model::region::ProviderSet) opens a plan space
//! with genuinely different semantics (push-based ordered pub/sub with
//! ack-deadline redelivery, flat-rate KV pricing, a different egress tier
//! table, and a steeper cold-start curve with faster warm decay).

pub mod aws;
pub mod gcp;

use caribou_model::dist::DistSpec;
use caribou_model::region::{Provider, RegionSpec};

use crate::pricing::RegionPricing;

/// How a provider's pub/sub service retries an unacknowledged delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryKind {
    /// SNS-style pull fan-out: subscribers poll, retries back off with
    /// exponential growth and decorrelated jitter.
    PullFanOut {
        /// Minimum (and initial) backoff before a retry, seconds.
        backoff_base_s: f64,
        /// Cap on any single retry backoff, seconds.
        backoff_cap_s: f64,
    },
    /// Pub/Sub-style push delivery with per-subscription ordering: the
    /// service pushes in order, waits a fixed ack deadline, and redelivers
    /// on expiry (no jittered backoff).
    PushOrdered {
        /// Ack deadline after which an unacknowledged push is redelivered,
        /// seconds.
        ack_deadline_s: f64,
        /// Serialization delay added once per publish to preserve ordering
        /// within the subscription, seconds.
        ordering_delay_s: f64,
    },
}

/// Messaging semantics of one region's pub/sub service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessagingProfile {
    /// Median service-side publish overhead, seconds.
    pub publish_overhead_median_s: f64,
    /// Log-space sigma of the publish overhead.
    pub publish_overhead_sigma: f64,
    /// Maximum delivery attempts before dead-lettering.
    pub max_attempts: u32,
    /// Retry semantics.
    pub delivery: DeliveryKind,
}

impl MessagingProfile {
    /// The SNS-shaped profile, from the [`crate::pubsub`] constants.
    pub fn aws_sns() -> Self {
        MessagingProfile {
            publish_overhead_median_s: crate::pubsub::PUBLISH_OVERHEAD_MEDIAN_S,
            publish_overhead_sigma: crate::pubsub::PUBLISH_OVERHEAD_SIGMA,
            max_attempts: crate::pubsub::MAX_ATTEMPTS,
            delivery: DeliveryKind::PullFanOut {
                backoff_base_s: crate::pubsub::RETRY_BACKOFF_BASE_S,
                backoff_cap_s: crate::pubsub::RETRY_BACKOFF_CAP_S,
            },
        }
    }
}

/// Compute (and registry) semantics of one region.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeProfile {
    /// Multiplier on reference execution time; >1 is slower.
    pub perf_factor: f64,
    /// Cold-start duration distribution, seconds.
    pub cold_start: DistSpec,
    /// Warm-container keep-alive window, seconds.
    pub keep_alive_s: f64,
    /// Service-side overhead of a registry push or copy, seconds.
    pub registry_overhead_s: f64,
}

/// Key-value store billing semantics of one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvProfile {
    /// Price per write request unit, USD.
    pub per_write_usd: f64,
    /// Price per read request unit, USD.
    pub per_read_usd: f64,
    /// Whether reads and writes bill at one flat rate (GCP-style) rather
    /// than the asymmetric read/write units of DynamoDB.
    pub flat_rate: bool,
}

/// Messaging semantics per region.
pub trait MessagingBackend {
    /// The pub/sub profile of `region`.
    fn messaging(&self, region: &RegionSpec) -> MessagingProfile;
}

/// Key-value billing semantics per region.
pub trait KvBackend {
    /// The KV billing profile of `region`.
    fn kv(&self, region: &RegionSpec) -> KvProfile;
}

/// Compute and registry semantics per region.
pub trait ComputeBackend {
    /// The compute/registry profile of `region`.
    fn compute(&self, region: &RegionSpec) -> ComputeProfile;
}

/// Pricing semantics per region.
pub trait PricingBackend {
    /// The full price sheet of `region` (KV rates are overridden from
    /// [`KvBackend::kv`] when a cloud is assembled).
    fn pricing(&self, region: &RegionSpec) -> RegionPricing;

    /// Egress price per GB from `region` toward another provider's region.
    /// Cross-provider traffic leaves the provider's backbone, so this is
    /// typically the internet tier, not the inter-region tier.
    fn cross_provider_egress_per_gb(&self, region: &RegionSpec) -> f64;
}

/// One provider family: regions plus all service semantics.
pub trait ProviderBackend:
    MessagingBackend + KvBackend + ComputeBackend + PricingBackend + std::fmt::Debug + Sync
{
    /// Which provider this backend models.
    fn provider(&self) -> Provider;

    /// The regions this provider operates, in catalog order.
    fn regions(&self) -> Vec<RegionSpec>;

    /// Region names this provider contributes to evaluation universes.
    fn evaluation_regions(&self) -> &'static [&'static str];
}

/// The static backend registry: resolves a [`Provider`] to its backend
/// trait object, or `None` for providers without an implementation yet.
pub fn backend_for(provider: Provider) -> Option<&'static dyn ProviderBackend> {
    match provider {
        Provider::Aws => Some(&aws::AwsBackend),
        Provider::Gcp => Some(&gcp::GcpBackend),
        Provider::Azure => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_implemented_providers() {
        assert_eq!(
            backend_for(Provider::Aws).unwrap().provider(),
            Provider::Aws
        );
        assert_eq!(
            backend_for(Provider::Gcp).unwrap().provider(),
            Provider::Gcp
        );
        assert!(backend_for(Provider::Azure).is_none());
    }

    #[test]
    fn gcp_backend_has_genuinely_different_semantics() {
        let aws = backend_for(Provider::Aws).unwrap();
        let gcp = backend_for(Provider::Gcp).unwrap();
        let g = &gcp.regions()[0];
        let a = &aws.regions()[0];
        // Push-based ordered delivery, not pull fan-out.
        assert!(matches!(
            gcp.messaging(g).delivery,
            DeliveryKind::PushOrdered { .. }
        ));
        // Flat-rate KV pricing.
        let kv = gcp.kv(g);
        assert!(kv.flat_rate);
        assert_eq!(kv.per_read_usd, kv.per_write_usd);
        assert!(!aws.kv(a).flat_rate);
        // Steeper cold starts, faster warm decay.
        let (gc, ac) = (gcp.compute(g), aws.compute(a));
        assert!(gc.keep_alive_s < ac.keep_alive_s);
        match (gc.cold_start, ac.cold_start) {
            (DistSpec::LogNormal { median: gm, .. }, DistSpec::LogNormal { median: am, .. }) => {
                assert!(gm > am, "gcp cold starts are steeper")
            }
            other => panic!("unexpected cold-start specs {other:?}"),
        }
        // Different egress tier table.
        let (gp, ap) = (gcp.pricing(g), aws.pricing(a));
        assert!(gp.egress_inter_region_per_gb > ap.egress_inter_region_per_gb);
        assert!(gcp.cross_provider_egress_per_gb(g) > aws.cross_provider_egress_per_gb(a));
    }
}
