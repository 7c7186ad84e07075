//! A GCP-like provider backend with genuinely different semantics.
//!
//! Where AWS models SNS-style pull fan-out, DynamoDB request units, and a
//! gentle cold-start curve with a long keep-alive, this family models:
//!
//! * **push-based ordered pub/sub** — the service pushes to the
//!   subscriber in order and redelivers after a fixed per-subscription
//!   ack deadline (no jittered backoff), with a small per-publish
//!   ordering-serialization delay;
//! * **a different egress tier table** — inter-region egress is markedly
//!   more expensive than AWS's discounted backbone tier, and
//!   cross-provider traffic bills at the (higher) internet tier;
//! * **flat-rate KV pricing** — reads and writes bill at one flat
//!   per-operation rate instead of asymmetric read/write units;
//! * **a steeper cold-start curve with faster warm decay** — slower cold
//!   starts (higher median, fatter tail) but containers are reclaimed
//!   after ~4 idle minutes instead of ~10.

use caribou_model::dist::DistSpec;
use caribou_model::region::{Provider, RegionCatalog, RegionSpec};

use crate::pricing::RegionPricing;

use super::{
    ComputeBackend, ComputeProfile, DeliveryKind, KvBackend, KvProfile, MessagingBackend,
    MessagingProfile, PricingBackend, ProviderBackend,
};

/// Warm containers are reclaimed after this idle window, seconds.
const GCP_KEEP_ALIVE_S: f64 = 240.0;
/// Artifact-Registry-style copy overhead, seconds.
const GCP_REGISTRY_OVERHEAD_S: f64 = 1.0;
/// Per-subscription ack deadline driving redelivery, seconds.
const GCP_ACK_DEADLINE_S: f64 = 1.0;
/// Ordering-serialization delay added once per publish, seconds.
const GCP_ORDERING_DELAY_S: f64 = 0.005;
/// Flat per-operation KV rate (reads == writes), USD.
const GCP_KV_FLAT_RATE_USD: f64 = 0.60 / 1.0e6;

/// The GCP-like backend.
#[derive(Debug)]
pub struct GcpBackend;

/// Per-region price premium over the us-east-1 baseline.
fn premium(name: &str) -> f64 {
    match name {
        "us-central1" | "us-west1" => 0.98,
        "northamerica-northeast1" => 1.02,
        "europe-west1" | "europe-north1" => 1.04,
        _ => 1.05,
    }
}

impl MessagingBackend for GcpBackend {
    fn messaging(&self, _region: &RegionSpec) -> MessagingProfile {
        MessagingProfile {
            publish_overhead_median_s: 0.020,
            publish_overhead_sigma: 0.30,
            max_attempts: 5,
            delivery: DeliveryKind::PushOrdered {
                ack_deadline_s: GCP_ACK_DEADLINE_S,
                ordering_delay_s: GCP_ORDERING_DELAY_S,
            },
        }
    }
}

impl KvBackend for GcpBackend {
    fn kv(&self, region: &RegionSpec) -> KvProfile {
        let rate = GCP_KV_FLAT_RATE_USD * premium(&region.name);
        KvProfile {
            per_write_usd: rate,
            per_read_usd: rate,
            flat_rate: true,
        }
    }
}

impl ComputeBackend for GcpBackend {
    fn compute(&self, region: &RegionSpec) -> ComputeProfile {
        let perf_factor = match region.name.as_str() {
            "us-central1" => 1.04,
            "us-west1" => 0.97,
            "northamerica-northeast1" => 0.98,
            "europe-west1" => 1.01,
            "europe-north1" => 0.99,
            _ => 1.05,
        };
        ComputeProfile {
            perf_factor,
            // Steeper than Lambda's: higher median, fatter tail.
            cold_start: DistSpec::LogNormal {
                median: 0.85,
                sigma: 0.50,
            },
            keep_alive_s: GCP_KEEP_ALIVE_S,
            registry_overhead_s: GCP_REGISTRY_OVERHEAD_S,
        }
    }
}

impl PricingBackend for GcpBackend {
    fn pricing(&self, region: &RegionSpec) -> RegionPricing {
        let f = premium(&region.name);
        let mut p = RegionPricing::us_east_1_baseline().scaled(f);
        // GCP's egress tier table: no discounted inter-region backbone
        // tier; internet egress is pricier than AWS's.
        p.egress_inter_region_per_gb = 0.05 * f;
        p.egress_internet_per_gb = 0.12 * f;
        p
    }

    fn cross_provider_egress_per_gb(&self, region: &RegionSpec) -> f64 {
        self.pricing(region).egress_internet_per_gb
    }
}

impl ProviderBackend for GcpBackend {
    fn provider(&self) -> Provider {
        Provider::Gcp
    }

    fn regions(&self) -> Vec<RegionSpec> {
        // The GCP rows of the multi-cloud catalog (everything after the
        // AWS prefix).
        RegionCatalog::multi_cloud()
            .into_iter()
            .filter(|spec| spec.provider == Provider::Gcp)
            .collect()
    }

    fn evaluation_regions(&self) -> &'static [&'static str] {
        &["us-west1", "northamerica-northeast1", "us-central1"]
    }
}
