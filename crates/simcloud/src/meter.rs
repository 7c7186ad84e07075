//! Usage metering and billing (§7), priced with a [`PricingCatalog`].

use crate::pricing::{billed_seconds, PricingCatalog, Usage};
use caribou_model::region::RegionId;

/// One invocation's usage. Reused, a meter allocates nothing once warm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageMeter {
    /// Per region index, up to the highest region used: a [`Usage`] row.
    pub usage: Vec<[f64; 7]>,
    /// Bytes moved per `(from, to)` route, `from != to`, ascending.
    pub egress: Vec<((RegionId, RegionId), f64)>,
}

impl UsageMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the meter for the next invocation, keeping its buffers.
    pub fn reset(&mut self) {
        self.usage.clear();
        self.egress.clear();
    }

    /// Records `amount` of `usage` billed in `region`.
    pub fn record(&mut self, region: RegionId, usage: Usage, amount: f64) {
        let len = self.usage.len().max(region.index() + 1);
        self.usage.resize(len, [0.0; 7]);
        self.usage[region.index()][usage as usize] += amount;
    }

    /// Records one Lambda execution, billed by the started millisecond.
    pub fn record_lambda(&mut self, region: RegionId, duration_s: f64, memory_mb: u32) {
        let billed = billed_seconds(duration_s);
        self.record(region, Usage::LambdaGbS, billed * memory_mb as f64 / 1024.0);
        self.record(region, Usage::LambdaRequests, 1.0);
    }

    /// Records bytes moved between regions (none when `from == to`).
    pub fn record_transfer(&mut self, from: RegionId, to: RegionId, bytes: f64) {
        if from != to && bytes > 0.0 {
            match self.egress.binary_search_by_key(&(from, to), |e| e.0) {
                Ok(i) => self.egress[i].1 += bytes,
                Err(i) => self.egress.insert(i, ((from, to), bytes)),
            }
        }
    }

    /// Prices the usage in USD: the regions' rows, then route by route.
    pub fn cost(&self, pricing: &PricingCatalog) -> f64 {
        let mut total = pricing.usage_cost(&self.usage);
        for &((from, to), bytes) in &self.egress {
            total += pricing.egress_cost(from, to, bytes);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::cloud::SimCloud;
    use crate::pricing::RegionPricing;
    use caribou_model::region::{Provider, RegionCatalog};
    use caribou_model::rng::Pcg32;

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
        assert!(m.egress.is_empty());
        assert_eq!(m.cost(&pc), 0.0);
    }

    #[test]
    fn egress_inter_region_priced() {
        let (cat, pc) = setup();
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("ca-central-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_transfer(a, b, 2e9);
        assert_eq!(m.egress, [((a, b), 2e9)]);
        assert!((m.cost(&pc) - 0.04).abs() < 1e-9);
    }

    #[test]
    fn billed_duration_rounds_up_to_ms() {
        let (cat, _pc) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut m = UsageMeter::new();
        m.record_lambda(r, 0.0001, 1024); // rounds to 1 ms
        let row = m.usage[r.index()];
        assert!((row[Usage::LambdaGbS as usize] - 0.001).abs() < 1e-12);
        assert_eq!(row[Usage::LambdaRequests as usize], 1.0);
    }

    /// The meter as it was before it kept rows: one sorted map per
    /// category, each priced in key order, categories in a fixed order.
    #[derive(Default)]
    struct MapMeter {
        lambda_gb_s: BTreeMap<RegionId, f64>,
        counts: [BTreeMap<RegionId, u64>; 6],
        egress: BTreeMap<(RegionId, RegionId), f64>,
    }

    impl MapMeter {
        fn count(&mut self, c: usize, r: RegionId, n: u64) {
            *self.counts[c].entry(r).or_insert(0) += n;
        }

        fn cost(&self, p: &PricingCatalog) -> f64 {
            let mut total = 0.0;
            for (r, gbs) in &self.lambda_gb_s {
                total += gbs * p.region(*r).lambda_gb_second;
            }
            for (r, n) in &self.counts[0] {
                total += *n as f64 * p.region(*r).lambda_per_request;
            }
            for (r, n) in &self.counts[1] {
                total += p.sns_cost(*r, *n);
            }
            for (r, n) in &self.counts[2] {
                total += p.dynamodb_cost(*r, *n, 0);
            }
            for (r, n) in &self.counts[3] {
                total += p.dynamodb_cost(*r, 0, *n);
            }
            for (r, n) in &self.counts[4] {
                total += p.blob_cost(*r, *n, 0);
            }
            for (r, n) in &self.counts[5] {
                total += p.blob_cost(*r, 0, *n);
            }
            for ((from, to), bytes) in &self.egress {
                total += p.egress_cost(*from, *to, *bytes);
            }
            total
        }
    }

    /// A catalog of `n` regions with prices of several magnitudes per
    /// category, every third region on a second provider.
    fn random_catalog(n: usize, rng: &mut Pcg32) -> PricingCatalog {
        let mut price = |scale: f64| scale * rng.uniform(0.5, 2.0);
        let per_region = (0..n)
            .map(|_| RegionPricing {
                lambda_gb_second: price(1.7e-5),
                lambda_per_request: price(2e-7),
                sns_per_publish: price(5e-7),
                dynamodb_per_write: price(1.25e-6),
                dynamodb_per_read: price(2.5e-7),
                egress_inter_region_per_gb: price(0.02),
                egress_internet_per_gb: price(0.09),
                blob_per_put: price(5e-6),
                blob_per_get: price(4e-7),
            })
            .collect();
        let providers = (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Provider::Gcp
                } else {
                    Provider::Aws
                }
            })
            .collect();
        PricingCatalog::new(per_region, providers)
    }

    /// Random `record_*` sequences over 1–40 regions — some regions absent
    /// from some categories, zero counts, repeated and intra-region
    /// routes — priced by the meter (reset and reused between sequences)
    /// and by the map meter: the two agree bit for bit, and so do the SNS
    /// count and the total egress.
    #[test]
    fn rows_price_exactly_as_one_sorted_map_per_category() {
        let mut meter = UsageMeter::new();
        for seed in 0..400u64 {
            let mut rng = Pcg32::seed(seed);
            let n = 1 + rng.next_index(40);
            let pricing = random_catalog(n, &mut rng);
            // A few regions the sequence draws from, so categories share some.
            let pool: Vec<RegionId> = (0..1 + rng.next_index(n.min(12)))
                .map(|_| RegionId(rng.next_index(n) as u16))
                .collect();
            let pick = |rng: &mut Pcg32| pool[rng.next_index(pool.len())];
            let mut maps = MapMeter::default();
            meter.reset();
            for _ in 0..rng.next_index(60) {
                let r = pick(&mut rng);
                match rng.next_index(5) {
                    0 => {
                        let (d, mb) = (rng.uniform(0.0, 30.0), 128 << rng.next_index(5));
                        meter.record_lambda(r, d, mb);
                        let billed = (d * 1000.0).ceil() / 1000.0;
                        *maps.lambda_gb_s.entry(r).or_insert(0.0) += billed * mb as f64 / 1024.0;
                        maps.count(0, r, 1);
                    }
                    1 => {
                        meter.record(r, Usage::SnsPublishes, 1.0);
                        maps.count(1, r, 1);
                    }
                    2 | 3 => {
                        let c = 2 + 2 * rng.next_index(2);
                        let (a, b) = (rng.next_index(3) as u64, rng.next_index(3) as u64);
                        let (first, second) = if c == 2 {
                            (Usage::KvReads, Usage::KvWrites)
                        } else {
                            (Usage::BlobGets, Usage::BlobPuts)
                        };
                        meter.record(r, first, a as f64);
                        meter.record(r, second, b as f64);
                        maps.count(c, r, a);
                        maps.count(c + 1, r, b);
                    }
                    _ => {
                        let to = pick(&mut rng);
                        let bytes = rng.uniform(0.0, 5e6) * f64::from(rng.next_index(4) != 0);
                        meter.record_transfer(r, to, bytes);
                        if r != to && bytes > 0.0 {
                            *maps.egress.entry((r, to)).or_insert(0.0) += bytes;
                        }
                    }
                }
            }
            let (cost, expected) = (meter.cost(&pricing), maps.cost(&pricing));
            assert_eq!(
                cost.to_bits(),
                expected.to_bits(),
                "seed {seed}: {cost:e} vs {expected:e}"
            );
            let sns: f64 = meter
                .usage
                .iter()
                .map(|row| row[Usage::SnsPublishes as usize])
                .sum();
            assert_eq!(
                sns as u64,
                maps.counts[1].values().sum::<u64>(),
                "seed {seed}"
            );
            let egress: f64 = meter.egress.iter().map(|(_, bytes)| bytes).sum();
            let map_egress: f64 = maps.egress.values().sum();
            assert_eq!(egress.to_bits(), map_egress.to_bits(), "seed {seed}");
        }
    }
}
