//! AWS-price-list-calibrated pricing catalog (§7.1 Cost).
//!
//! Each region's prices are its provider's price sheet
//! ([`crate::providers`]) scaled by the premium of its catalog row.

use caribou_model::region::{Provider, RegionId};

/// What one region bills per unit for, in the order a bill sums it
/// ([`PricingCatalog::usage_cost`]); the index of a region's usage row in
/// a [`UsageMeter`](crate::meter::UsageMeter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Usage {
    /// Lambda GB-seconds, billed by the started millisecond.
    LambdaGbS,
    /// Lambda invocations.
    LambdaRequests,
    /// SNS publishes originating in the region.
    SnsPublishes,
    /// DynamoDB reads.
    KvReads,
    /// DynamoDB writes.
    KvWrites,
    /// Object-storage GETs.
    BlobGets,
    /// Object-storage PUTs.
    BlobPuts,
}

/// Prices for one region, in USD.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPricing {
    /// Lambda compute price per GB-second.
    pub lambda_gb_second: f64,
    /// Lambda fixed fee per invocation.
    pub lambda_per_request: f64,
    /// SNS price per published message.
    pub sns_per_publish: f64,
    /// DynamoDB price per write request unit.
    pub dynamodb_per_write: f64,
    /// DynamoDB price per read request unit.
    pub dynamodb_per_read: f64,
    /// Egress price per GB to another region of the same provider.
    pub egress_inter_region_per_gb: f64,
    /// Egress price per GB to the public internet.
    pub egress_internet_per_gb: f64,
    /// Object-storage price per PUT request.
    pub blob_per_put: f64,
    /// Object-storage price per GET request.
    pub blob_per_get: f64,
}

impl RegionPricing {
    /// Scales all prices by a region premium factor.
    pub fn scaled(&self, f: f64) -> Self {
        RegionPricing {
            lambda_gb_second: self.lambda_gb_second * f,
            lambda_per_request: self.lambda_per_request * f,
            sns_per_publish: self.sns_per_publish * f,
            dynamodb_per_write: self.dynamodb_per_write * f,
            dynamodb_per_read: self.dynamodb_per_read * f,
            egress_inter_region_per_gb: self.egress_inter_region_per_gb * f,
            egress_internet_per_gb: self.egress_internet_per_gb * f,
            blob_per_put: self.blob_per_put * f,
            blob_per_get: self.blob_per_get * f,
        }
    }
}

/// Pricing catalog covering every region.
#[derive(Debug, Clone)]
pub struct PricingCatalog {
    per_region: Vec<RegionPricing>,
    /// Provider of each region.
    provider_of: Vec<Provider>,
}

impl PricingCatalog {
    /// Builds the catalog from explicit rows: per-region prices and the
    /// provider of each region, one entry per catalog region.
    pub fn new(per_region: Vec<RegionPricing>, provider_of: Vec<Provider>) -> Self {
        assert_eq!(per_region.len(), provider_of.len());
        PricingCatalog {
            per_region,
            provider_of,
        }
    }

    /// Whether a pair of regions belongs to different providers.
    pub fn is_cross_provider(&self, from: RegionId, to: RegionId) -> bool {
        self.provider_of[from.index()] != self.provider_of[to.index()]
    }

    /// Prices for one region.
    ///
    /// # Panics
    ///
    /// Panics if the region id is outside the catalog used to build this
    /// pricing table.
    pub fn region(&self, id: RegionId) -> &RegionPricing {
        &self.per_region[id.index()]
    }

    /// Overrides the prices of one region (e.g. to track a price-list
    /// update, §7.2's "AWS Price List for latest prices").
    ///
    /// # Panics
    ///
    /// Panics if the region id is outside the catalog.
    pub fn set_region(&mut self, id: RegionId, pricing: RegionPricing) {
        self.per_region[id.index()] = pricing;
    }

    /// Prices per-region usage rows (indexed by region, then by [`Usage`]),
    /// category by category in region order: the order one sorted map per
    /// category summed in before the meter kept rows. A region with none
    /// of a category adds `0 × price = +0.0`, which moves no bit — prices
    /// and usage are non-negative, so the running total is never `−0.0`.
    pub fn usage_cost(&self, usage: &[[f64; 7]]) -> f64 {
        let mut total = 0.0;
        for c in 0..7 {
            for (p, row) in self.per_region.iter().zip(usage) {
                let unit = [
                    p.lambda_gb_second,
                    p.lambda_per_request,
                    p.sns_per_publish,
                    p.dynamodb_per_read,
                    p.dynamodb_per_write,
                    p.blob_per_get,
                    p.blob_per_put,
                ];
                total += row[c] * unit[c];
            }
        }
        total
    }

    /// Lambda execution cost: billed duration × memory × GB-s rate plus the
    /// per-request fee (§7.1 Cost).
    pub fn lambda_cost(&self, region: RegionId, duration_s: f64, memory_mb: u32) -> f64 {
        let p = self.region(region);
        // Lambda bills in 1 ms increments.
        let billed = (duration_s * 1000.0).ceil() / 1000.0;
        billed * (memory_mb as f64 / 1024.0) * p.lambda_gb_second + p.lambda_per_request
    }

    /// Egress cost for moving `bytes` from `from` toward `to`.
    ///
    /// Same-provider pairs bill at the source region's inter-region tier;
    /// cross-provider pairs leave the provider's backbone and bill at the
    /// source's internet tier instead.
    pub fn egress_cost(&self, from: RegionId, to: RegionId, bytes: f64) -> f64 {
        if from == to {
            0.0
        } else {
            let gb = bytes.max(0.0) / 1.0e9;
            gb * self.egress_rate_per_gb(from, to)
        }
    }

    /// The per-GB egress rate applicable from `from` toward `to`: the
    /// source's internet tier when the pair crosses providers, its
    /// inter-region tier otherwise. Intra-region transfers are
    /// free regardless of this rate; callers must special-case `from == to`
    /// exactly as [`PricingCatalog::egress_cost`] does.
    pub fn egress_rate_per_gb(&self, from: RegionId, to: RegionId) -> f64 {
        let p = self.region(from);
        if self.is_cross_provider(from, to) {
            p.egress_internet_per_gb
        } else {
            p.egress_inter_region_per_gb
        }
    }

    /// SNS publish cost in the publishing region.
    pub fn sns_cost(&self, region: RegionId, messages: u64) -> f64 {
        messages as f64 * self.region(region).sns_per_publish
    }

    /// DynamoDB cost for a mix of reads and writes in a region.
    pub fn dynamodb_cost(&self, region: RegionId, reads: u64, writes: u64) -> f64 {
        let p = self.region(region);
        reads as f64 * p.dynamodb_per_read + writes as f64 * p.dynamodb_per_write
    }

    /// Object-storage request cost for a mix of GETs and PUTs in a region.
    pub fn blob_cost(&self, region: RegionId, gets: u64, puts: u64) -> f64 {
        let p = self.region(region);
        gets as f64 * p.blob_per_get + puts as f64 * p.blob_per_put
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn catalogs() -> (RegionCatalog, PricingCatalog) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.pricing)
    }

    #[test]
    fn lambda_cost_matches_hand_calculation() {
        let (cat, pc) = catalogs();
        let r = cat.id_of("us-east-1").unwrap();
        // 1 second at 1024 MB = 1 GB-s.
        let c = pc.lambda_cost(r, 1.0, 1024);
        let expected = 0.0000166667 + 0.20 / 1.0e6;
        assert!((c - expected).abs() < 1e-12, "cost {c}");
    }

    #[test]
    fn lambda_bills_in_millisecond_increments() {
        let (cat, pc) = catalogs();
        let r = cat.id_of("us-east-1").unwrap();
        let a = pc.lambda_cost(r, 0.0101, 1024); // bills 11 ms
        let b = pc.lambda_cost(r, 0.0111, 1024); // bills 12 ms
        assert!(b > a, "rounding up to next ms");
        let c = pc.lambda_cost(r, 0.0119, 1024); // also bills 12 ms
        assert!((b - c).abs() < 1e-15, "same billed ms");
    }

    #[test]
    fn egress_free_intra_region() {
        let (cat, pc) = catalogs();
        let r = cat.id_of("us-east-1").unwrap();
        assert_eq!(pc.egress_cost(r, r, 1e9), 0.0);
    }

    #[test]
    fn egress_charged_inter_region() {
        let (cat, pc) = catalogs();
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("us-west-2").unwrap();
        let c = pc.egress_cost(a, b, 5e9);
        assert!((c - 0.10).abs() < 1e-9, "cost {c}");
    }

    #[test]
    fn regional_premium_applies() {
        let (cat, pc) = catalogs();
        let east = cat.id_of("us-east-1").unwrap();
        let west1 = cat.id_of("us-west-1").unwrap();
        assert!(
            pc.region(west1).lambda_gb_second > pc.region(east).lambda_gb_second,
            "us-west-1 carries a premium"
        );
    }

    #[test]
    fn cross_provider_egress_bills_cross_rate() {
        let (cat, priced) = catalogs();
        let base = priced.region(cat.id_of("us-east-1").unwrap()).clone();
        let gcp = RegionPricing {
            egress_internet_per_gb: 0.12,
            ..base.clone()
        };
        let pc = PricingCatalog::new(
            vec![base.clone(), base.clone(), gcp],
            vec![Provider::Aws, Provider::Aws, Provider::Gcp],
        );
        let (a, b, g) = (RegionId(0), RegionId(1), RegionId(2));
        assert!(!pc.is_cross_provider(a, b));
        assert!(pc.is_cross_provider(a, g));
        // Same provider: inter-region tier. Cross provider: the source's
        // internet tier.
        assert!((pc.egress_cost(a, b, 1e9) - 0.02).abs() < 1e-12);
        assert!((pc.egress_cost(a, g, 1e9) - 0.09).abs() < 1e-12);
        assert!((pc.egress_cost(g, a, 1e9) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn dynamodb_and_sns_costs() {
        let (cat, pc) = catalogs();
        let r = cat.id_of("us-east-1").unwrap();
        assert!((pc.sns_cost(r, 1_000_000) - 0.50).abs() < 1e-9);
        assert!((pc.dynamodb_cost(r, 1_000_000, 1_000_000) - 1.50).abs() < 1e-9);
    }
}
