//! Per-invocation cost model (§7.1 Cost).
//!
//! Execution cost is Lambda's duration × memory × GB-s rate plus the
//! per-invocation fee; transmission cost covers SNS messaging (the
//! framework's orchestration channel) and inter-region egress; the
//! framework's own DynamoDB accesses (deployment-plan fetch and
//! synchronization annotations) are charged too. The AWS free tier is not
//! modeled.

use caribou_model::region::RegionId;
use caribou_simcloud::pricing::PricingCatalog;

/// Cost model over a pricing catalog.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    pricing: &'a PricingCatalog,
}

impl<'a> CostModel<'a> {
    /// Creates the model.
    pub fn new(pricing: &'a PricingCatalog) -> Self {
        CostModel { pricing }
    }

    /// The underlying pricing catalog.
    pub fn pricing(&self) -> &PricingCatalog {
        self.pricing
    }

    /// Execution cost of one stage run.
    pub fn execution_cost(&self, region: RegionId, duration_s: f64, memory_mb: u32) -> f64 {
        self.pricing.lambda_cost(region, duration_s, memory_mb)
    }

    /// Cost of one inter-stage invocation: an SNS publish in the source
    /// region plus egress for the payload when it crosses regions.
    pub fn invocation_cost(&self, from: RegionId, to: RegionId, payload_bytes: f64) -> f64 {
        self.pricing.sns_cost(from, 1) + self.pricing.egress_cost(from, to, payload_bytes)
    }

    /// Cost of moving external data between a stage's region and the
    /// home-region storage (egress charged at the sending side; we charge
    /// half the bytes each way).
    pub fn external_data_cost(&self, stage: RegionId, home: RegionId, bytes: f64) -> f64 {
        if stage == home {
            return 0.0;
        }
        self.pricing.egress_cost(stage, home, bytes / 2.0)
            + self.pricing.egress_cost(home, stage, bytes / 2.0)
    }

    /// Framework KV accesses attributed to one invocation (§7.1:
    /// "additional DynamoDB accesses introduced by Caribou").
    pub fn kv_cost(&self, region: RegionId, reads: u64, writes: u64) -> f64 {
        self.pricing.dynamodb_cost(region, reads, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::cloud::SimCloud;

    fn setup() -> (RegionCatalog, PricingCatalog) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.pricing)
    }

    #[test]
    fn invocation_cost_local_has_no_egress() {
        let (cat, pc) = setup();
        let m = CostModel::new(&pc);
        let r = cat.id_of("us-east-1").unwrap();
        let c = m.invocation_cost(r, r, 1e9);
        assert!((c - 0.50 / 1e6).abs() < 1e-12, "cost {c}");
    }

    #[test]
    fn invocation_cost_remote_charges_egress() {
        let (cat, pc) = setup();
        let m = CostModel::new(&pc);
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("us-west-2").unwrap();
        let c = m.invocation_cost(a, b, 1e9);
        assert!(c > 0.019, "cost {c}");
    }

    #[test]
    fn external_data_free_at_home() {
        let (cat, pc) = setup();
        let m = CostModel::new(&pc);
        let r = cat.id_of("us-east-1").unwrap();
        assert_eq!(m.external_data_cost(r, r, 1e9), 0.0);
    }

    #[test]
    fn external_data_charged_both_directions() {
        let (cat, pc) = setup();
        let m = CostModel::new(&pc);
        let home = cat.id_of("us-east-1").unwrap();
        let stage = cat.id_of("ca-central-1").unwrap();
        let c = m.external_data_cost(stage, home, 2e9);
        // 1 GB each way at the two regions' inter-region rates.
        assert!(c > 0.039, "cost {c}");
    }

    #[test]
    fn execution_cost_delegates_to_lambda_pricing() {
        let (cat, pc) = setup();
        let m = CostModel::new(&pc);
        let r = cat.id_of("us-east-1").unwrap();
        assert_eq!(m.execution_cost(r, 1.0, 1024), pc.lambda_cost(r, 1.0, 1024));
    }
}
