//! Provider constants, as a table.
//!
//! Every provider fact reaches the simulator as data, the way the paper's
//! Metrics Manager tabulates the AWS Price List and CloudPing (§7.1,
//! §9.1): one block of service constants per provider (`AWS`, `GCP`),
//! one `(name, price premium, perf factor)` row per region with the
//! provider's default written once, and one one-way latency penalty per
//! provider pair. [`crate::cloud::SimCloud::with_catalog`] reads the table
//! through [`profile`]; nothing else in the crate writes a provider or
//! per-region service constant (the warm pool's
//! [`DEFAULT_KEEP_ALIVE_S`] is Lambda's, and the AWS block names it).
//! Adding a region is a row; adding a provider is a block and a penalty.
//!
//! The `gcp` block is not AWS with new prices: push-based ordered pub/sub
//! that redelivers on a fixed ack deadline (no jittered backoff), one flat
//! KV rate for reads and writes, no discounted inter-region egress tier,
//! and slower cold starts whose containers are reclaimed after ~4 idle
//! minutes instead of ~10.

use caribou_model::dist::DistSpec;
use caribou_model::region::{Provider, RegionCatalog, RegionSpec, AWS_EVALUATION_REGIONS};

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
    /// a region's sheet is this scaled by its premium.
    prices: RegionPricing,
    /// Region names contributed to evaluation universes.
    evaluation_regions: &'static [&'static str],
    /// `(price premium, perf factor)` of a region without a row.
    default_row: (f64, f64),
    /// `(name, price premium over the block's sheet, perf factor)`; perf
    /// multiplies reference execution time, >1 is slower.
    rows: &'static [(&'static str, f64, f64)],
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
    evaluation_regions: &AWS_EVALUATION_REGIONS,
    default_row: (1.05, 1.05),
    // us-west-1 and ca-* carry a small premium over us-east-1: the
    // cost-differential dimension of §2.3.
    rows: &[
        ("us-east-1", 1.0, 1.00),
        ("us-east-2", 1.0, 0.99),
        ("us-west-1", 1.08, 1.03),
        ("us-west-2", 1.0, 1.01),
        ("ca-central-1", 1.03, 1.02),
        ("ca-west-1", 1.07, 1.04),
        ("eu-west-1", 1.02, 1.05),
        ("eu-central-1", 1.10, 1.05),
        ("ap-southeast-2", 1.15, 1.05),
        ("sa-east-1", 1.35, 1.05),
    ],
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
    evaluation_regions: &["us-west1", "northamerica-northeast1", "us-central1"],
    default_row: (1.05, 1.05),
    rows: &[
        ("us-central1", 0.98, 1.04),
        ("us-west1", 0.98, 0.97),
        ("northamerica-northeast1", 1.02, 0.98),
        ("europe-west1", 1.04, 1.01),
        ("europe-north1", 1.04, 0.99),
    ],
};

/// One-way latency penalty for traffic crossing a provider boundary,
/// seconds, per unordered provider pair: cross-provider traffic exits one
/// backbone and re-enters another through public peering, which costs
/// extra hops no distance matrix captures. AWS ↔ GCP peer through public
/// exchanges at roughly +4 ms one way.
const INTER_PROVIDER_PENALTY_S: [(Provider, Provider, f64); 1] =
    [(Provider::Aws, Provider::Gcp, 0.004)];

fn block(provider: Provider) -> Option<&'static ProviderBlock> {
    match provider {
        Provider::Aws => Some(&AWS),
        Provider::Gcp => Some(&GCP),
        Provider::Azure => None,
    }
}

/// Everything the table says about one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// The region's full price sheet, KV rates included.
    pub prices: RegionPricing,
    /// Egress price per GB toward another provider's region.
    pub cross_provider_egress_per_gb: f64,
    /// Multiplier on reference execution time; >1 is slower.
    pub perf_factor: f64,
    /// Cold-start duration distribution, seconds.
    pub cold_start: DistSpec,
    /// Warm-container keep-alive window, seconds.
    pub keep_alive_s: f64,
    /// Service-side overhead of a registry push or copy, seconds.
    pub registry_overhead_s: f64,
    /// The pub/sub profile governing delivery to this region.
    pub messaging: MessagingProfile,
}

/// The table's answer for `region`: its row (or its provider's default
/// row, for a custom region) over its provider's block. `None` for a
/// provider without a block.
pub fn profile(region: &RegionSpec) -> Option<RegionProfile> {
    let b = block(region.provider)?;
    let (premium, perf_factor) = b
        .rows
        .iter()
        .find(|(name, ..)| *name == region.name)
        .map_or(b.default_row, |&(_, premium, perf)| (premium, perf));
    let prices = b.prices.scaled(premium);
    Some(RegionProfile {
        // Traffic to another provider leaves the backbone at the internet
        // tier, not the inter-region tier.
        cross_provider_egress_per_gb: prices.egress_internet_per_gb,
        prices,
        perf_factor,
        cold_start: b.cold_start.clone(),
        keep_alive_s: b.keep_alive_s,
        registry_overhead_s: b.registry_overhead_s,
        messaging: b.messaging,
    })
}

/// The regions `provider` operates, in catalog order: its rows of
/// [`RegionCatalog::multi_cloud`] (none for a provider without a block).
pub fn regions(provider: Provider) -> Vec<RegionSpec> {
    RegionCatalog::multi_cloud()
        .into_iter()
        .filter(|spec| spec.provider == provider)
        .collect()
}

/// Region names `provider` contributes to evaluation universes (§9.1 for
/// AWS).
pub fn evaluation_regions(provider: Provider) -> &'static [&'static str] {
    block(provider).map_or(&[], |b| b.evaluation_regions)
}

/// The one-way penalty between two providers: 0 within one provider,
/// `None` for a pair the table does not cover — never a silent 0.
pub fn inter_provider_penalty_s(a: Provider, b: Provider) -> Option<f64> {
    if a == b {
        return Some(0.0);
    }
    INTER_PROVIDER_PENALTY_S
        .iter()
        .find(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
        .map(|&(_, _, penalty_s)| penalty_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::ProviderSet;

    #[test]
    fn the_table_is_consistent() {
        for p in Provider::ALL {
            let specs = regions(p);
            assert_eq!(block(p).is_some(), !specs.is_empty(), "{p}");
            for name in evaluation_regions(p) {
                assert!(specs.iter().any(|s| s.name == *name), "{p}:{name}");
            }
            // Every catalog region of a provider has its own row, and
            // every row names a catalog region.
            let rows = block(p).map_or(&[][..], |b| b.rows);
            assert_eq!(rows.len(), specs.len(), "{p}");
            for spec in &specs {
                assert!(rows.iter().any(|(name, ..)| *name == spec.name), "{spec:?}");
                assert!(profile(spec).is_some());
            }
            // Penalties are symmetric and free inside one provider.
            for q in Provider::ALL {
                assert_eq!(
                    inter_provider_penalty_s(p, q),
                    inter_provider_penalty_s(q, p)
                );
            }
            assert_eq!(inter_provider_penalty_s(p, p), Some(0.0));
        }
        assert_eq!(
            inter_provider_penalty_s(Provider::Aws, Provider::Azure),
            None
        );

        // The provider set that unions to the multi-cloud catalog
        // assembles the same cloud as the catalog handed in whole.
        let set = ProviderSet::parse("aws,gcp").unwrap();
        let both = SimCloud::for_providers(set, 42).unwrap();
        let whole = SimCloud::with_catalog(RegionCatalog::multi_cloud(), 42).unwrap();
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

    /// The table has a block for `aws` and `gcp` and none for `azure`.
    #[test]
    fn registry_resolves_implemented_providers() {
        let resolves = |provider| {
            profile(&RegionSpec {
                provider,
                ..regions(Provider::Aws)[0].clone()
            })
            .is_some()
        };
        assert!(resolves(Provider::Aws));
        assert!(resolves(Provider::Gcp));
        assert!(!resolves(Provider::Azure));
        assert!(regions(Provider::Azure).is_empty());
        assert!(evaluation_regions(Provider::Azure).is_empty());
    }

    #[test]
    fn gcp_backend_has_genuinely_different_semantics() {
        let g = profile(&regions(Provider::Gcp)[0]).unwrap();
        let a = profile(&regions(Provider::Aws)[0]).unwrap();
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
        assert!(g.cross_provider_egress_per_gb > a.cross_provider_egress_per_gb);
    }
}
