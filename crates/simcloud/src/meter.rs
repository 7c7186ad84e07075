//! Usage metering and billing.
//!
//! Accumulates billable usage — Lambda GB-seconds and requests, SNS
//! publishes, DynamoDB operations, inter-region egress — and prices it
//! with a [`PricingCatalog`]. Used both for per-invocation cost records
//! and for the framework's own overhead accounting (§5.2: the control
//! logic's overhead must stay below the savings).

use caribou_model::region::RegionId;

use crate::pricing::PricingCatalog;
use crate::tinymap::TinyMap;

/// Inline capacity of the meter's per-region maps: one invocation rarely
/// touches more regions than this; beyond it the map spills to a heap
/// `BTreeMap` transparently.
const METER_INLINE: usize = 8;

/// Per-region counters: inline and allocation-free up to
/// [`METER_INLINE`] regions.
pub type RegionMap<V> = TinyMap<RegionId, V, METER_INLINE>;
/// Per-(from, to) route counters.
pub type RouteMap<V> = TinyMap<(RegionId, RegionId), V, METER_INLINE>;

/// Accumulated usage, decomposable by region.
///
/// Keyed by sorted [`TinyMap`]s so that iteration (summing costs) is
/// deterministic — bit-stable output for identical runs — while a fresh
/// per-invocation meter allocates nothing for the handful of regions it
/// touches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageMeter {
    /// Lambda GB-seconds per region.
    pub lambda_gb_s: RegionMap<f64>,
    /// Lambda invocation counts per region.
    pub lambda_requests: RegionMap<u64>,
    /// SNS publishes per region.
    pub sns_publishes: RegionMap<u64>,
    /// DynamoDB reads per region.
    pub kv_reads: RegionMap<u64>,
    /// DynamoDB writes per region.
    pub kv_writes: RegionMap<u64>,
    /// Object-storage GETs per region.
    pub blob_gets: RegionMap<u64>,
    /// Object-storage PUTs per region.
    pub blob_puts: RegionMap<u64>,
    /// Egress bytes per (from, to) region pair, `from != to`.
    pub egress_bytes: RouteMap<f64>,
}

impl UsageMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one Lambda execution.
    pub fn record_lambda(&mut self, region: RegionId, duration_s: f64, memory_mb: u32) {
        let billed = (duration_s * 1000.0).ceil() / 1000.0;
        *self.lambda_gb_s.entry_or(region, 0.0) += billed * memory_mb as f64 / 1024.0;
        *self.lambda_requests.entry_or(region, 0) += 1;
    }

    /// Records one SNS publish originating in `region`.
    pub fn record_sns(&mut self, region: RegionId) {
        *self.sns_publishes.entry_or(region, 0) += 1;
    }

    /// Records DynamoDB operations billed in `region`.
    pub fn record_kv(&mut self, region: RegionId, reads: u64, writes: u64) {
        *self.kv_reads.entry_or(region, 0) += reads;
        *self.kv_writes.entry_or(region, 0) += writes;
    }

    /// Records object-storage requests billed in `region`.
    pub fn record_blob(&mut self, region: RegionId, gets: u64, puts: u64) {
        *self.blob_gets.entry_or(region, 0) += gets;
        *self.blob_puts.entry_or(region, 0) += puts;
    }

    /// Records data moved between regions (no-op when `from == to`).
    pub fn record_transfer(&mut self, from: RegionId, to: RegionId, bytes: f64) {
        if from != to && bytes > 0.0 {
            *self.egress_bytes.entry_or((from, to), 0.0) += bytes;
        }
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &UsageMeter) {
        for (r, v) in other.lambda_gb_s.iter() {
            *self.lambda_gb_s.entry_or(*r, 0.0) += v;
        }
        for (r, v) in other.lambda_requests.iter() {
            *self.lambda_requests.entry_or(*r, 0) += v;
        }
        for (r, v) in other.sns_publishes.iter() {
            *self.sns_publishes.entry_or(*r, 0) += v;
        }
        for (r, v) in other.kv_reads.iter() {
            *self.kv_reads.entry_or(*r, 0) += v;
        }
        for (r, v) in other.kv_writes.iter() {
            *self.kv_writes.entry_or(*r, 0) += v;
        }
        for (r, v) in other.blob_gets.iter() {
            *self.blob_gets.entry_or(*r, 0) += v;
        }
        for (r, v) in other.blob_puts.iter() {
            *self.blob_puts.entry_or(*r, 0) += v;
        }
        for (k, v) in other.egress_bytes.iter() {
            *self.egress_bytes.entry_or(*k, 0.0) += v;
        }
    }

    /// Total inter-region bytes moved.
    pub fn total_egress_bytes(&self) -> f64 {
        self.egress_bytes.values().sum()
    }

    /// Prices the accumulated usage in USD.
    pub fn cost(&self, pricing: &PricingCatalog) -> f64 {
        let mut total = 0.0;
        for (r, gbs) in self.lambda_gb_s.iter() {
            total += gbs * pricing.region(*r).lambda_gb_second;
        }
        for (r, n) in self.lambda_requests.iter() {
            total += *n as f64 * pricing.region(*r).lambda_per_request;
        }
        for (r, n) in self.sns_publishes.iter() {
            total += pricing.sns_cost(*r, *n);
        }
        for (r, n) in self.kv_reads.iter() {
            total += pricing.dynamodb_cost(*r, *n, 0);
        }
        for (r, n) in self.kv_writes.iter() {
            total += pricing.dynamodb_cost(*r, 0, *n);
        }
        for (r, n) in self.blob_gets.iter() {
            total += pricing.blob_cost(*r, *n, 0);
        }
        for (r, n) in self.blob_puts.iter() {
            total += pricing.blob_cost(*r, 0, *n);
        }
        for ((from, to), bytes) in self.egress_bytes.iter() {
            total += pricing.egress_cost(*from, *to, *bytes);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn setup() -> (RegionCatalog, PricingCatalog) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.pricing)
    }

    #[test]
    fn lambda_usage_priced() {
        let (cat, pc) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_lambda(r, 1.0, 1024);
        let cost = m.cost(&pc);
        let expected = 0.0000166667 + 0.20 / 1e6;
        assert!((cost - expected).abs() < 1e-12, "cost {cost}");
    }

    #[test]
    fn egress_intra_region_ignored() {
        let (cat, pc) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_transfer(r, r, 1e9);
        assert_eq!(m.total_egress_bytes(), 0.0);
        assert_eq!(m.cost(&pc), 0.0);
    }

    #[test]
    fn egress_inter_region_priced() {
        let (cat, pc) = setup();
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("ca-central-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_transfer(a, b, 2e9);
        assert!((m.cost(&pc) - 0.04).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let (cat, pc) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut a = UsageMeter::new();
        a.record_lambda(r, 1.0, 1024);
        a.record_sns(r);
        let mut b = UsageMeter::new();
        b.record_lambda(r, 2.0, 1024);
        b.record_kv(r, 3, 4);
        a.merge(&b);
        assert!((a.lambda_gb_s[&r] - 3.0).abs() < 1e-12);
        assert_eq!(a.lambda_requests[&r], 2);
        assert_eq!(a.kv_reads[&r], 3);
        assert_eq!(a.kv_writes[&r], 4);
        assert!(a.cost(&pc) > 0.0);
    }

    #[test]
    fn billed_duration_rounds_up_to_ms() {
        let (cat, _pc) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_lambda(r, 0.0001, 1024); // rounds to 1 ms
        assert!((m.lambda_gb_s[&r] - 0.001).abs() < 1e-12);
    }
}
