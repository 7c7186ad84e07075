//! The AWS-shaped provider backend.
//!
//! SNS-style pull fan-out pub/sub with decorrelated-jitter retries,
//! DynamoDB's asymmetric read/write units, the published Lambda
//! cold-start curve with the ~10-minute keep-alive, and the AWS price list
//! with tiered inter-region egress — the substrate the paper evaluates on
//! (§9). Every golden and pinned figure of an AWS-only run depends on the
//! constants below.

use caribou_model::dist::DistSpec;
use caribou_model::region::{Provider, RegionCatalog, RegionSpec, AWS_EVALUATION_REGIONS};

use crate::pricing::RegionPricing;
use crate::warm::DEFAULT_KEEP_ALIVE_S;

use super::{
    ComputeBackend, ComputeProfile, KvBackend, KvProfile, MessagingBackend, MessagingProfile,
    PricingBackend, ProviderBackend,
};

/// Service-side overhead of a registry push or copy, seconds.
const AWS_REGISTRY_OVERHEAD_S: f64 = 1.5;

/// The AWS backend (a unit struct; all state lives in the profiles).
#[derive(Debug)]
pub struct AwsBackend;

/// The published per-region price premium over us-east-1 (us-west-1 and
/// ca-* carry a small one; this is the cost-differential dimension of
/// §2.3).
fn premium(name: &str) -> f64 {
    match name {
        "us-east-1" | "us-east-2" => 1.0,
        "us-west-1" => 1.08,
        "us-west-2" => 1.0,
        "ca-central-1" => 1.03,
        "ca-west-1" => 1.07,
        "eu-west-1" => 1.02,
        "eu-central-1" => 1.10,
        "ap-southeast-2" => 1.15,
        "sa-east-1" => 1.35,
        _ => 1.05,
    }
}

impl MessagingBackend for AwsBackend {
    fn messaging(&self, _region: &RegionSpec) -> MessagingProfile {
        MessagingProfile::aws_sns()
    }
}

impl KvBackend for AwsBackend {
    fn kv(&self, region: &RegionSpec) -> KvProfile {
        // DynamoDB's asymmetric request units, at the price sheet's rates.
        let sheet = self.pricing(region);
        KvProfile {
            per_write_usd: sheet.dynamodb_per_write,
            per_read_usd: sheet.dynamodb_per_read,
            flat_rate: false,
        }
    }
}

impl ComputeBackend for AwsBackend {
    fn compute(&self, region: &RegionSpec) -> ComputeProfile {
        let perf_factor = match region.name.as_str() {
            "us-east-1" => 1.00,
            "us-east-2" => 0.99,
            "us-west-1" => 1.03,
            "us-west-2" => 1.01,
            "ca-central-1" => 1.02,
            "ca-west-1" => 1.04,
            _ => 1.05,
        };
        ComputeProfile {
            perf_factor,
            cold_start: DistSpec::LogNormal {
                median: 0.35,
                sigma: 0.35,
            },
            keep_alive_s: DEFAULT_KEEP_ALIVE_S,
            registry_overhead_s: AWS_REGISTRY_OVERHEAD_S,
        }
    }
}

impl PricingBackend for AwsBackend {
    fn pricing(&self, region: &RegionSpec) -> RegionPricing {
        RegionPricing::us_east_1_baseline().scaled(premium(&region.name))
    }

    fn cross_provider_egress_per_gb(&self, region: &RegionSpec) -> f64 {
        // Traffic to another provider leaves AWS's backbone at the
        // internet tier.
        self.pricing(region).egress_internet_per_gb
    }
}

impl ProviderBackend for AwsBackend {
    fn provider(&self) -> Provider {
        Provider::Aws
    }

    fn regions(&self) -> Vec<RegionSpec> {
        RegionCatalog::aws_default().into_iter().collect()
    }

    fn evaluation_regions(&self) -> &'static [&'static str] {
        &AWS_EVALUATION_REGIONS
    }
}
