//! The [`SimCloud`] façade bundling every simulated service.

use caribou_model::error::ModelError;
use caribou_model::region::{ProviderSet, RegionCatalog, RegionId};
use caribou_model::rng::Pcg32;

use crate::blob::BlobStore;
use crate::clock::SimClock;
use crate::compute::LambdaRuntime;
use crate::faults::FaultPlan;
use crate::kv::KvStore;
use crate::latency::LatencyModel;
use crate::pricing::PricingCatalog;
use crate::providers;
use crate::pubsub::PubSub;
use crate::registry::ContainerRegistry;
use crate::warm::WarmPool;

/// The simulated multi-region cloud: one value owning every service, the
/// virtual clock, and a master RNG from which subsystems fork their own
/// deterministic streams.
#[derive(Debug)]
pub struct SimCloud {
    /// Region catalog.
    pub regions: RegionCatalog,
    /// Inter-region latency/bandwidth model.
    pub latency: LatencyModel,
    /// Pricing catalog.
    pub pricing: PricingCatalog,
    /// Lambda-like compute model.
    pub compute: LambdaRuntime,
    /// SNS-like pub/sub.
    pub pubsub: PubSub,
    /// DynamoDB-like key-value store.
    pub kv: KvStore,
    /// ECR-like container registry.
    pub registry: ContainerRegistry,
    /// S3-like object storage for large intermediate payloads.
    pub blob: BlobStore,
    /// Warm-container pool (disabled by default: probabilistic cold
    /// starts apply).
    pub warm: WarmPool,
    /// Fault-injection plan, the one every fault read consults.
    pub faults: FaultPlan,
    /// Virtual clock.
    pub clock: SimClock,
    /// Master RNG; fork sub-streams rather than drawing directly where a
    /// stable stream per subsystem matters.
    pub rng: Pcg32,
}

impl SimCloud {
    /// Creates a cloud over the AWS regions with the given master seed.
    pub fn aws(seed: u64) -> Self {
        Self::with_catalog(RegionCatalog::aws_default(), seed)
    }

    /// Assembles a cloud over `regions`, the one place service constants
    /// enter a [`SimCloud`]: every region takes its perf factor from its
    /// catalog row, its price sheet, cold-start / keep-alive / registry
    /// numbers and messaging profile from its [`providers::profile`], and
    /// cross-provider pairs pay the inter-provider latency penalty.
    pub fn with_catalog(regions: RegionCatalog, seed: u64) -> Self {
        let n = regions.len();
        let mut prices = Vec::with_capacity(n);
        let mut provider_of = Vec::with_capacity(n);
        let mut perf_factor = Vec::with_capacity(n);
        let mut cold_start = Vec::with_capacity(n);
        let mut keep_alive_s = Vec::with_capacity(n);
        let mut registry_overhead_s = Vec::with_capacity(n);
        let mut messaging = Vec::with_capacity(n);
        for (_, spec) in regions.iter() {
            let p = providers::profile(spec);
            prices.push(p.prices);
            provider_of.push(spec.provider);
            perf_factor.push(spec.perf_factor);
            cold_start.push(p.cold_start);
            keep_alive_s.push(p.keep_alive_s);
            registry_overhead_s.push(p.registry_overhead_s);
            messaging.push(p.messaging);
        }
        SimCloud {
            latency: LatencyModel::from_catalog(&regions),
            pricing: PricingCatalog::new(prices, provider_of),
            compute: LambdaRuntime::new(perf_factor, cold_start),
            pubsub: PubSub::new(messaging),
            kv: KvStore::new(n),
            registry: ContainerRegistry::new(registry_overhead_s),
            blob: BlobStore::new(n),
            warm: WarmPool::per_region(keep_alive_s),
            faults: FaultPlan::none(),
            clock: SimClock::new(),
            rng: Pcg32::seed_stream(seed, 0x5eed),
            regions,
        }
    }

    /// A cloud over the union of each member provider's regions, in
    /// provider order (AWS first). The empty set is
    /// [`ModelError::UnknownProvider`].
    pub fn for_providers(set: ProviderSet, seed: u64) -> Result<Self, ModelError> {
        if set.is_empty() {
            return Err(ModelError::UnknownProvider {
                name: set.to_string(),
            });
        }
        Ok(Self::with_catalog(RegionCatalog::of_providers(set), seed))
    }

    /// The region-name universe a provider set contributes to evaluation
    /// campaigns: the AWS evaluation regions (§9.1) plus each additional
    /// provider's evaluation regions, in provider order.
    pub fn evaluation_universe(set: ProviderSet) -> Vec<&'static str> {
        set.iter()
            .flat_map(|p| p.evaluation_regions().iter().copied())
            .collect()
    }

    /// This cloud's candidate regions for evaluation campaigns: the
    /// [`SimCloud::evaluation_universe`] of the providers in its catalog.
    ///
    /// # Panics
    ///
    /// Panics on a custom catalog that lacks one of those regions.
    pub fn evaluation_regions(&self) -> Vec<RegionId> {
        let members = self.regions.providers_of(&self.regions.all_ids());
        Self::evaluation_universe(members)
            .iter()
            .map(|n| {
                self.regions
                    .resolve(n)
                    .expect("evaluation region in catalog")
            })
            .collect()
    }

    /// Installs a fault plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Resolves a region name against the catalog, returning the typed
    /// [`ModelError::UnknownRegion`](caribou_model::error::ModelError)
    /// for names the catalog does not know. Callers holding fixed,
    /// known-good names (tests, experiment setup) unwrap; anything fed
    /// from user input propagates the error.
    pub fn region(&self, name: &str) -> Result<RegionId, caribou_model::error::ModelError> {
        self.regions.resolve(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::ItemAddr;
    use crate::latency::distance_only;
    use crate::pubsub::{Delivery, DeliveryStatus, TopicId, TopicKey};
    use bytes::Bytes;
    use caribou_model::region::{Provider, RegionSpec};

    #[test]
    fn aws_cloud_constructs_consistently() {
        let cloud = SimCloud::aws(42);
        assert!(cloud.regions.len() >= 6);
        let east = cloud.region("us-east-1").unwrap();
        let west = cloud.region("us-west-1").unwrap();
        assert!(cloud.latency.rtt(east, west) > 0.02);
        assert!(cloud.pricing.region(east).lambda_gb_second > 0.0);
    }

    #[test]
    fn fault_plan_propagates_drop_probability() {
        let mut cloud = SimCloud::aws(1);
        let east = cloud.region("us-east-1").unwrap();
        let topic = cloud.pubsub.create_topic(TopicKey {
            workflow: "wf".into(),
            stage: "s".into(),
            region: east,
        });
        let mut rng = Pcg32::seed(1);
        let mut publish = |cloud: &mut SimCloud| {
            let (pubsub, lm, faults) = (&mut cloud.pubsub, &cloud.latency, &cloud.faults);
            pubsub.publish_to(topic, east, 128.0, lm, faults, 0.0, &mut rng)
        };
        assert!(publish(&mut cloud).delivered());
        cloud.set_faults(FaultPlan {
            message_drop_prob: 1.0,
            ..FaultPlan::none()
        });
        assert_eq!(publish(&mut cloud).status, DeliveryStatus::DeadLettered);
    }

    /// Every per-region constant of an assembled cloud is the provider
    /// table's answer for that region.
    fn assert_regions_come_from_the_table(cloud: &SimCloud) {
        for (id, spec) in cloud.regions.iter() {
            let p = providers::profile(spec);
            assert_eq!(cloud.pricing.region(id), &p.prices, "{}", spec.name);
            assert_eq!(cloud.compute.perf_factor(id), spec.perf_factor);
            assert_eq!(cloud.compute.cold_start_for(id), &p.cold_start);
            assert_eq!(cloud.warm.keep_alive_for(id), p.keep_alive_s);
            assert_eq!(cloud.registry.overhead_for(id), p.registry_overhead_s);
            assert_eq!(cloud.pubsub.profiles[id.index()], p.messaging);
            for (other, ospec) in cloud.regions.iter() {
                let cross = spec.provider != ospec.provider;
                assert_eq!(cloud.pricing.is_cross_provider(id, other), cross);
                let rate = if cross {
                    p.prices.egress_internet_per_gb
                } else {
                    p.prices.egress_inter_region_per_gb
                };
                assert_eq!(cloud.pricing.egress_rate_per_gb(id, other), rate);
            }
        }
    }

    #[test]
    fn every_region_is_parameterised_by_its_provider_backend() {
        let aws = SimCloud::aws(42);
        assert_regions_come_from_the_table(&aws);
        let both_set = ProviderSet::parse("aws,gcp").unwrap();
        let both = SimCloud::for_providers(both_set, 42).unwrap();
        assert_regions_come_from_the_table(&both);

        // Cross-provider pairs pay the penalty on top of what the same
        // coordinates cost inside one provider.
        let plain = distance_only(&both.regions);
        for (a, sa) in both.regions.iter() {
            for (b, sb) in both.regions.iter() {
                let extra = providers::inter_provider_penalty_s(sa.provider, sb.provider);
                assert_eq!(both.latency.one_way(a, b), plain.one_way(a, b) + extra);
            }
        }

        // A custom region takes its own row's columns over its provider's
        // block.
        let mut catalog = RegionCatalog::aws_default();
        let custom = catalog.push(RegionSpec {
            name: "eu-north-1".into(),
            provider: Provider::Aws,
            country: "SE".into(),
            grid_zone: "SE".into(),
            latitude: 59.3,
            longitude: 18.1,
            price_premium: 1.05,
            perf_factor: 1.05,
        });
        let extended = SimCloud::with_catalog(catalog, 42);
        assert_regions_come_from_the_table(&extended);
        assert_eq!(extended.regions.len(), aws.regions.len() + 1);
        assert_eq!(extended.compute.perf_factor(custom), 1.05);
        assert_eq!(extended.evaluation_regions(), aws.evaluation_regions());
    }

    #[test]
    fn multi_provider_cloud_differs_where_it_should() {
        let cloud = SimCloud::for_providers(ProviderSet::parse("aws,gcp").unwrap(), 7).unwrap();
        // Catalog is the multi-cloud union, AWS ids first.
        assert_eq!(cloud.regions.len(), RegionCatalog::multi_cloud().len());
        let aws_west = cloud.region("aws:us-west-2").unwrap();
        let gcp_west = cloud.region("gcp:us-west1").unwrap();
        // Cross-provider latency carries the explicit peering penalty on
        // top of distance (the regions are geographically close).
        let plain = distance_only(&cloud.regions);
        assert!(cloud.latency.rtt(aws_west, gcp_west) > plain.rtt(aws_west, gcp_west) + 0.007);
        // Cross-provider egress bills the internet tier.
        assert!(cloud.pricing.is_cross_provider(aws_west, gcp_west));
        assert!(
            cloud.pricing.egress_cost(aws_west, gcp_west, 1e9)
                > cloud
                    .pricing
                    .egress_cost(aws_west, cloud.region("us-east-1").unwrap(), 1e9)
        );
        // GCP warm decay is faster; KV pricing is flat.
        assert!(cloud.warm.keep_alive_for(gcp_west) < cloud.warm.keep_alive_for(aws_west));
        let gp = cloud.pricing.region(gcp_west);
        assert_eq!(gp.dynamodb_per_read, gp.dynamodb_per_write);
        // The evaluation universe grows with the provider set.
        let aws_universe = SimCloud::evaluation_universe(ProviderSet::aws_only());
        let both = SimCloud::evaluation_universe(ProviderSet::parse("aws,gcp").unwrap());
        assert_eq!(aws_universe.len(), 4);
        assert!(both.len() > aws_universe.len());
        assert!(both.contains(&"us-west1"));
        // The cloud resolves its own universe; on AWS it is the catalog's
        // four evaluation regions (§9.1).
        assert_eq!(cloud.evaluation_regions().len(), both.len());
        let aws = SimCloud::aws(7);
        assert_eq!(aws.evaluation_regions(), aws.regions.evaluation_regions());
    }

    /// Folds words into `h` (FNV-1a over words).
    fn fold(h: &mut u64, words: impl IntoIterator<Item = u64>) {
        for w in words {
            *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string's bytes, then its length, into `h`.
    fn fold_str(h: &mut u64, s: &str) {
        fold(h, s.bytes().map(u64::from));
        fold(h, [s.len() as u64]);
    }

    /// Every fact the substrate holds about its regions: for `aws` and
    /// `aws,gcp`, each region's name, provider, country, grid zone and
    /// coordinates, its nine prices and the egress rate toward every
    /// region, its perf factor, cold-start curve, keep-alive, registry
    /// overhead and messaging profile, and every one-way latency and
    /// bandwidth; then both evaluation universes and both clouds' two
    /// evaluation-region lists. Captured while a region's columns lived in
    /// two tables joined by name and the cross-provider egress rate was a
    /// copied column.
    #[test]
    fn every_region_fact_is_pinned() {
        const DIGEST: u64 = 0x477b_a098_ad58_bb51;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let sets = [
            ProviderSet::aws_only(),
            ProviderSet::parse("aws,gcp").unwrap(),
        ];
        let clouds = [
            SimCloud::aws(3),
            SimCloud::for_providers(sets[1], 3).unwrap(),
        ];
        for (set, cloud) in sets.into_iter().zip(&clouds) {
            for (a, spec) in cloud.regions.iter() {
                fold_str(&mut h, &spec.name);
                fold_str(&mut h, &spec.provider.to_string());
                fold_str(&mut h, &spec.country);
                fold_str(&mut h, &spec.grid_zone);
                fold(&mut h, [spec.latitude.to_bits(), spec.longitude.to_bits()]);
                let p = cloud.pricing.region(a);
                fold(
                    &mut h,
                    [
                        p.lambda_gb_second,
                        p.lambda_per_request,
                        p.sns_per_publish,
                        p.dynamodb_per_write,
                        p.dynamodb_per_read,
                        p.egress_inter_region_per_gb,
                        p.egress_internet_per_gb,
                        p.blob_per_put,
                        p.blob_per_get,
                    ]
                    .map(f64::to_bits),
                );
                fold(
                    &mut h,
                    [
                        cloud.compute.perf_factor(a),
                        cloud.warm.keep_alive_for(a),
                        cloud.registry.overhead_for(a),
                    ]
                    .map(f64::to_bits),
                );
                fold_str(&mut h, &format!("{:?}", cloud.compute.cold_start_for(a)));
                fold_str(&mut h, &format!("{:?}", cloud.pubsub.profiles[a.index()]));
                for (b, _) in cloud.regions.iter() {
                    fold(
                        &mut h,
                        [
                            cloud.pricing.egress_rate_per_gb(a, b),
                            cloud.latency.one_way(a, b),
                            cloud.latency.bandwidth_bps(a, b),
                        ]
                        .map(f64::to_bits),
                    );
                }
            }
            for name in SimCloud::evaluation_universe(set) {
                fold_str(&mut h, name);
            }
            let ids = [
                cloud.evaluation_regions(),
                cloud.regions.evaluation_regions(),
            ];
            for id in ids.iter().flatten() {
                fold(&mut h, [u64::from(id.0)]);
            }
            fold(&mut h, ids.map(|v| v.len() as u64));
        }
        assert_eq!(h, DIGEST, "digest {h:#018x}");
    }

    // The handle-path reads at fault time `t`: the only lines of
    // `every_fault_read_is_pinned` that say how the plan and the time
    // reach pub/sub and KV.
    fn publish_at(
        cloud: &mut SimCloud,
        topic: TopicId,
        from: RegionId,
        t: f64,
        rng: &mut Pcg32,
    ) -> Delivery {
        let (pubsub, lm, faults) = (&mut cloud.pubsub, &cloud.latency, &cloud.faults);
        pubsub.publish_to(topic, from, 512.0, lm, faults, t, rng)
    }

    fn get_at(
        cloud: &mut SimCloud,
        item: ItemAddr,
        from: RegionId,
        t: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let (kv, lm, faults) = (&mut cloud.kv, &cloud.latency, &cloud.faults);
        kv.get_at(item, from, lm, faults, t, rng).latency_s
    }

    fn put_at(
        cloud: &mut SimCloud,
        item: ItemAddr,
        from: RegionId,
        t: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let (kv, lm, faults) = (&mut cloud.kv, &cloud.latency, &cloud.faults);
        let value = Bytes::from_static(b"payload");
        kv.put_at(item, value, from, lm, faults, t, rng).latency_s
    }

    fn atomic_update_at(
        cloud: &mut SimCloud,
        item: ItemAddr,
        from: RegionId,
        t: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let append =
            |prev: Option<&Bytes>| Bytes::from(vec![b'1'; prev.map_or(1, |b| b.len() + 1)]);
        let (kv, lm, faults) = (&mut cloud.kv, &cloud.latency, &cloud.faults);
        kv.atomic_update_at(item, &"ann", from, lm, faults, t, rng, append)
            .latency_s
    }

    /// Every read pub/sub and KV make of the fault plan, pinned to the
    /// bit: for each windowed class a handle path reads (a region outage,
    /// a partition, a gray failure, a KV throttle) and for message drops,
    /// a publish to a topic in the faulted region and a put, a get and an
    /// atomic update of an item homed there, from three regions (one of
    /// them across the partition), at times before, at the start of,
    /// inside, just before the end of, at the end of and after the window;
    /// each publish's status, attempts and latency bits, each KV latency's
    /// bits and the generator's next draw. Captured while pub/sub and KV
    /// each kept a copy of the plan and of the fault clock.
    #[test]
    fn every_fault_read_is_pinned() {
        const DIGEST: u64 = 0x6184_b47c_2bce_199c;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let probe = SimCloud::aws(0);
        let east = probe.region("us-east-1").unwrap();
        let west = probe.region("us-west-1").unwrap();
        let ca = probe.region("ca-central-1").unwrap();
        let (start, end) = (100.0, 200.0);
        let plans = [
            FaultPlan::none().with_outage(ca, start, end),
            FaultPlan::none().with_partition(east, ca, start, end),
            FaultPlan::none().with_gray_failure(ca, start, end, 4.0),
            FaultPlan::none().with_kv_throttle(ca, start, end, 0.6),
            FaultPlan {
                message_drop_prob: 0.4,
                ..FaultPlan::none()
            },
        ];
        for (class, plan) in plans.into_iter().enumerate() {
            let mut cloud = SimCloud::aws(class as u64);
            let topic = cloud.pubsub.create_topic(TopicKey {
                workflow: "wf".into(),
                stage: "s".into(),
                region: ca,
            });
            let table = cloud.kv.create_table("t", ca);
            cloud.set_faults(plan);
            let mut rng = Pcg32::seed(40 + class as u64);
            for (i, t) in [50.0, start, 150.0, end - 1e-9, end, 250.0]
                .into_iter()
                .enumerate()
            {
                for from in [east, west, ca] {
                    let d = publish_at(&mut cloud, topic, from, t, &mut rng);
                    let status = match d.status {
                        DeliveryStatus::Delivered => 1,
                        DeliveryStatus::DeadLettered => 2,
                        DeliveryStatus::TopicMissing => 3,
                    };
                    fold(
                        &mut h,
                        [status, u64::from(d.attempts), d.latency_s.to_bits()],
                    );
                    let item = ItemAddr::new(table, i as u64, u32::from(from.0));
                    let put = put_at(&mut cloud, item, from, t, &mut rng);
                    let get = get_at(&mut cloud, item, from, t, &mut rng);
                    let rmw = atomic_update_at(&mut cloud, item, from, t, &mut rng);
                    fold(&mut h, [put, get, rmw].map(f64::to_bits));
                    fold(&mut h, [rng.next_u64()]);
                }
            }
        }
        assert_eq!(h, DIGEST, "digest {h:#018x}");
    }

    /// A provider without a backend cannot be named, and a set naming no
    /// provider assembles no cloud.
    #[test]
    fn providers_without_backend_error() {
        assert!(matches!(
            ProviderSet::parse("aws,azure"),
            Err(ModelError::UnknownProvider { name }) if name == "azure"
        ));
        let err = SimCloud::for_providers(ProviderSet::empty(), 1).unwrap_err();
        assert!(matches!(err, ModelError::UnknownProvider { .. }));
    }

    #[test]
    fn unknown_region_is_a_typed_error() {
        let cloud = SimCloud::aws(1);
        let err = cloud.region("atlantis-1").unwrap_err();
        assert!(
            matches!(
                &err,
                caribou_model::error::ModelError::UnknownRegion { name } if name == "atlantis-1"
            ),
            "{err}"
        );
        assert!(err.to_string().contains("atlantis-1"));
    }
}
