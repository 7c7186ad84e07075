//! Provider constants, as a table.
//!
//! Every provider fact reaches the simulator as data, the way the paper's
//! Metrics Manager tabulates the AWS Price List and CloudPing (§7.1,
//! §9.1): one block of service constants per provider (`AWS`, `GCP`) and
//! one one-way latency penalty per provider pair. A region's own columns
//! (location, grid zone, price premium, perf factor) are its row of the
//! catalog ([`RegionSpec`]). [`crate::cloud::SimCloud::with_catalog`]
//! reads the table through [`profile`]; nothing else in the crate writes a
//! provider or per-region service constant (the warm pool's
//! [`DEFAULT_KEEP_ALIVE_S`] is Lambda's, and the AWS block names it).
//! Adding a region is a catalog row; adding a provider is its rows, a
//! block and a penalty, and `block` and [`inter_provider_penalty_s`]
//! do not compile without the last two.
//!
//! The `gcp` block is not AWS with new prices: push-based ordered pub/sub
//! that redelivers on a fixed ack deadline (no jittered backoff), one flat
//! KV rate for reads and writes, no discounted inter-region egress tier,
//! and slower cold starts whose containers are reclaimed after ~4 idle
//! minutes instead of ~10.

use caribou_model::dist::DistSpec;
use caribou_model::region::{Provider, RegionSpec};

use crate::pricing::RegionPricing;
use crate::warm::DEFAULT_KEEP_ALIVE_S;

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

/// One provider's block of the table.
struct ProviderBlock {
    messaging: MessagingProfile,
    /// Cold-start duration distribution, seconds.
    cold_start: DistSpec,
    /// Warm-container keep-alive window, seconds.
    keep_alive_s: f64,
    /// Service-side overhead of a registry push or copy, seconds.
    registry_overhead_s: f64,
    /// The price sheet at premium 1.0, KV rates and egress tiers included;
    /// a region's sheet is this scaled by its premium. Traffic toward
    /// another provider leaves the backbone at the internet tier.
    prices: RegionPricing,
}

/// The published us-east-1 on-demand prices (Lambda, SNS, DynamoDB, S3
/// requests, data transfer) as of the paper's evaluation window. The free
/// tier is deliberately not modeled, matching §7.1.
const AWS_PRICES: RegionPricing = RegionPricing {
    lambda_gb_second: 0.0000166667,
    lambda_per_request: 0.20 / 1.0e6,
    sns_per_publish: 0.50 / 1.0e6,
    dynamodb_per_write: 1.25 / 1.0e6,
    dynamodb_per_read: 0.25 / 1.0e6,
    egress_inter_region_per_gb: 0.02,
    egress_internet_per_gb: 0.09,
    blob_per_put: 5.0e-6,
    blob_per_get: 4.0e-7,
};

/// The substrate the paper evaluates on (§9): SNS-style pull fan-out with
/// decorrelated-jitter retries, DynamoDB's asymmetric request units, the
/// published Lambda cold-start curve with its ~10-minute keep-alive, and
/// tiered inter-region egress. Every golden and pinned figure of an
/// AWS-only run depends on these numbers.
static AWS: ProviderBlock = ProviderBlock {
    messaging: MessagingProfile {
        // SNS publish + fan-out to the Lambda trigger.
        publish_overhead_median_s: 0.030,
        publish_overhead_sigma: 0.35,
        max_attempts: 5,
        delivery: DeliveryKind::PullFanOut {
            backoff_base_s: 0.5,
            backoff_cap_s: 8.0,
        },
    },
    cold_start: DistSpec::LogNormal {
        median: 0.35,
        sigma: 0.35,
    },
    keep_alive_s: DEFAULT_KEEP_ALIVE_S,
    registry_overhead_s: 1.5,
    prices: AWS_PRICES,
};

static GCP: ProviderBlock = ProviderBlock {
    messaging: MessagingProfile {
        publish_overhead_median_s: 0.020,
        publish_overhead_sigma: 0.30,
        max_attempts: 5,
        delivery: DeliveryKind::PushOrdered {
            ack_deadline_s: 1.0,
            ordering_delay_s: 0.005,
        },
    },
    // Steeper than Lambda's: higher median, fatter tail.
    cold_start: DistSpec::LogNormal {
        median: 0.85,
        sigma: 0.50,
    },
    keep_alive_s: 240.0,
    // Artifact-Registry-style copy.
    registry_overhead_s: 1.0,
    prices: RegionPricing {
        // One flat per-operation KV rate.
        dynamodb_per_write: 0.60 / 1.0e6,
        dynamodb_per_read: 0.60 / 1.0e6,
        // No discounted inter-region backbone tier; internet egress is
        // pricier than AWS's.
        egress_inter_region_per_gb: 0.05,
        egress_internet_per_gb: 0.12,
        ..AWS_PRICES
    },
};

fn block(provider: Provider) -> &'static ProviderBlock {
    match provider {
        Provider::Aws => &AWS,
        Provider::Gcp => &GCP,
    }
}

/// Everything the table says about one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// The region's full price sheet, KV rates included: its provider's
    /// sheet scaled by its premium.
    pub prices: RegionPricing,
    /// Cold-start duration distribution, seconds.
    pub cold_start: DistSpec,
    /// Warm-container keep-alive window, seconds.
    pub keep_alive_s: f64,
    /// Service-side overhead of a registry push or copy, seconds.
    pub registry_overhead_s: f64,
    /// The pub/sub profile governing delivery to this region.
    pub messaging: MessagingProfile,
}

/// The table's answer for `region`: its provider's block, the price
/// sheet scaled by the region's premium.
pub fn profile(region: &RegionSpec) -> RegionProfile {
    let b = block(region.provider);
    RegionProfile {
        prices: b.prices.scaled(region.price_premium),
        cold_start: b.cold_start.clone(),
        keep_alive_s: b.keep_alive_s,
        registry_overhead_s: b.registry_overhead_s,
        messaging: b.messaging,
    }
}

/// One-way latency penalty for traffic between two providers' regions,
/// seconds: 0 within one provider. Cross-provider traffic exits one
/// backbone and re-enters another through public peering, which costs
/// extra hops no distance matrix captures; AWS ↔ GCP peer through public
/// exchanges at roughly +4 ms one way.
pub fn inter_provider_penalty_s(a: Provider, b: Provider) -> f64 {
    match (a, b) {
        (Provider::Aws, Provider::Aws) | (Provider::Gcp, Provider::Gcp) => 0.0,
        (Provider::Aws, Provider::Gcp) | (Provider::Gcp, Provider::Aws) => 0.004,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::{ProviderSet, RegionCatalog};

    #[test]
    fn the_table_is_consistent() {
        for p in Provider::ALL {
            // Every provider contributes regions, and its evaluation list
            // names regions of its own.
            let own = RegionCatalog::of_providers(ProviderSet::of(&[p]));
            assert!(!own.is_empty(), "{p}");
            for name in p.evaluation_regions() {
                assert!(own.id_of_qualified(p, name).is_some(), "{p}:{name}");
            }
            // Penalties are symmetric and free inside one provider.
            for q in Provider::ALL {
                assert_eq!(
                    inter_provider_penalty_s(p, q),
                    inter_provider_penalty_s(q, p)
                );
            }
            assert_eq!(inter_provider_penalty_s(p, p), 0.0);
        }

        // The provider set that unions to the multi-cloud catalog
        // assembles the same cloud as the catalog handed in whole.
        let set = ProviderSet::parse("aws,gcp").unwrap();
        let both = SimCloud::for_providers(set, 42).unwrap();
        let whole = SimCloud::with_catalog(RegionCatalog::multi_cloud(), 42);
        assert_eq!(whole.regions.len(), both.regions.len());
        assert_eq!(whole.evaluation_regions(), both.evaluation_regions());
        for (a, spec) in both.regions.iter() {
            assert_eq!(whole.regions.spec(a), spec);
            assert_eq!(whole.pricing.region(a), both.pricing.region(a));
            for (b, _) in both.regions.iter() {
                assert_eq!(whole.latency.one_way(a, b), both.latency.one_way(a, b));
            }
        }
    }

    #[test]
    fn gcp_backend_has_genuinely_different_semantics() {
        let cat = RegionCatalog::multi_cloud();
        let first = |p| profile(cat.iter().find(|(_, s)| s.provider == p).unwrap().1);
        let (g, a) = (first(Provider::Gcp), first(Provider::Aws));
        // Push-based ordered delivery, not pull fan-out.
        assert!(matches!(
            g.messaging.delivery,
            DeliveryKind::PushOrdered { .. }
        ));
        assert!(matches!(
            a.messaging.delivery,
            DeliveryKind::PullFanOut { .. }
        ));
        // Flat-rate KV pricing against DynamoDB's asymmetric units.
        assert_eq!(g.prices.dynamodb_per_read, g.prices.dynamodb_per_write);
        assert!(a.prices.dynamodb_per_read < a.prices.dynamodb_per_write);
        // Steeper cold starts, faster warm decay.
        assert!(g.keep_alive_s < a.keep_alive_s);
        match (g.cold_start, a.cold_start) {
            (DistSpec::LogNormal { median: gm, .. }, DistSpec::LogNormal { median: am, .. }) => {
                assert!(gm > am, "gcp cold starts are steeper")
            }
            other => panic!("unexpected cold-start specs {other:?}"),
        }
        // Different egress tier table.
        assert!(g.prices.egress_inter_region_per_gb > a.prices.egress_inter_region_per_gb);
        assert!(g.prices.egress_internet_per_gb > a.prices.egress_internet_per_gb);
    }
}
