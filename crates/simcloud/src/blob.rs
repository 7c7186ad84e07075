//! S3-like regional object storage.
//!
//! DynamoDB items are capped at 400 KB; real deployments pass large
//! intermediate payloads (audio, images, video chunks) through object
//! storage and keep only references in the KV store. The engine uses this
//! service for payloads above [`BLOB_THRESHOLD_BYTES`], charging S3-style
//! request fees plus transfer time; small payloads stay on the KV path.

use caribou_model::hash::FixedMap;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;
use serde::{Deserialize, Serialize};

use crate::latency::LatencyModel;

/// Payloads above this size go through the blob store instead of the KV
/// store (DynamoDB's 400 KB item limit, minus envelope headroom).
pub const BLOB_THRESHOLD_BYTES: f64 = 256.0 * 1024.0;

/// Published S3-style request prices, USD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlobPricing {
    /// Per PUT request.
    pub per_put: f64,
    /// Per GET request.
    pub per_get: f64,
}

impl Default for BlobPricing {
    fn default() -> Self {
        BlobPricing {
            per_put: 5.0 / 1.0e3 / 1.0e3 * 1000.0, // $0.005 per 1k PUTs
            per_get: 0.4 / 1.0e3 / 1.0e3 * 1000.0, // $0.0004 per 1k GETs
        }
    }
}

/// Outcome of a blob operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobAccess {
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Request cost, USD.
    pub cost_usd: f64,
}

/// Per-region operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobOpCounts {
    /// PUT requests served.
    pub puts: u64,
    /// GET requests served.
    pub gets: u64,
}

/// Base service-side latency of a blob request, seconds.
const BLOB_OP_BASE_S: f64 = 0.012;

/// The key of an object within a region's bucket: the per-invocation
/// payload in `slot` (the engine's slots are edge ids). Numeric like a
/// [`crate::kv::ItemAddr`], so storing and fetching a payload names
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectKey {
    /// The invocation the payload belongs to.
    pub invocation: u64,
    /// Which of the invocation's payloads this is.
    pub slot: u32,
}

/// The object-storage service: one logical bucket per region.
#[derive(Debug)]
pub struct BlobStore {
    /// `(region, key) → size`; contents are irrelevant to the simulation.
    objects: FixedMap<(RegionId, ObjectKey), f64>,
    /// Request counts per bucket region (indexed by [`RegionId::index`]).
    ops: Vec<BlobOpCounts>,
    /// Request pricing.
    pub pricing: BlobPricing,
}

impl BlobStore {
    /// Creates an empty store with default pricing for a catalog of
    /// `regions` regions.
    pub fn new(regions: usize) -> Self {
        BlobStore {
            objects: FixedMap::default(),
            ops: vec![BlobOpCounts::default(); regions],
            pricing: BlobPricing::default(),
        }
    }

    /// Uploads an object of `bytes` into `bucket_region`'s bucket from
    /// `from` (cross-region PUTs pay the inter-region path).
    pub fn put(
        &mut self,
        bucket_region: RegionId,
        key: ObjectKey,
        bytes: f64,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> BlobAccess {
        self.objects.insert((bucket_region, key), bytes);
        self.ops[bucket_region.index()].puts += 1;
        BlobAccess {
            latency_s: BLOB_OP_BASE_S
                + latency.sample_transfer_seconds(from, bucket_region, bytes, rng),
            cost_usd: self.pricing.per_put,
        }
    }

    /// Downloads an object from `bucket_region` into `to`.
    ///
    /// Returns `None` when the object does not exist.
    pub fn get(
        &mut self,
        bucket_region: RegionId,
        key: ObjectKey,
        to: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> Option<BlobAccess> {
        let bytes = self.size_of(bucket_region, key)?;
        self.ops[bucket_region.index()].gets += 1;
        Some(BlobAccess {
            latency_s: BLOB_OP_BASE_S
                + latency.sample_transfer_seconds(bucket_region, to, bytes, rng),
            cost_usd: self.pricing.per_get,
        })
    }

    /// Size of a stored object, if present.
    pub fn size_of(&self, bucket_region: RegionId, key: ObjectKey) -> Option<f64> {
        self.objects.get(&(bucket_region, key)).copied()
    }

    /// Removes an object, returning whether it existed. Unbilled: this is
    /// also the lifecycle-expiry style garbage collection of consumed
    /// intermediates.
    pub fn delete(&mut self, bucket_region: RegionId, key: ObjectKey) -> bool {
        self.objects.remove(&(bucket_region, key)).is_some()
    }

    /// Operation counters for a region.
    pub fn ops(&self, region: RegionId) -> BlobOpCounts {
        self.ops[region.index()]
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    const K: ObjectKey = ObjectKey {
        invocation: 7,
        slot: 0,
    };

    fn setup() -> (RegionCatalog, LatencyModel, BlobStore, Pcg32) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.latency, cloud.blob, Pcg32::seed(1))
    }

    #[test]
    fn put_then_get_round_trips() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let put = s.put(r, K, 5e6, r, &lm, &mut rng);
        assert!(put.latency_s > 0.0);
        assert!(put.cost_usd > 0.0);
        let get = s.get(r, K, r, &lm, &mut rng).unwrap();
        assert!(get.latency_s > 0.0);
        assert_eq!(s.size_of(r, K), Some(5e6));
        assert_eq!(s.ops(r), BlobOpCounts { puts: 1, gets: 1 });
    }

    #[test]
    fn missing_object_returns_none() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        assert!(s.get(r, K, r, &lm, &mut rng).is_none());
    }

    #[test]
    fn large_transfer_dominates_latency() {
        let (cat, lm, mut s, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        s.put(west, K, 100e6, east, &lm, &mut rng);
        let get = s.get(west, K, east, &lm, &mut rng).unwrap();
        // 100 MB at 30 MB/s inter-region ≈ 3+ seconds.
        assert!(get.latency_s > 2.0, "latency {}", get.latency_s);
    }

    #[test]
    fn delete_removes_object() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        s.put(r, K, 1e3, r, &lm, &mut rng);
        assert!(s.delete(r, K));
        assert!(!s.delete(r, K));
        assert!(s.get(r, K, r, &lm, &mut rng).is_none());
    }

    #[test]
    fn buckets_are_regional() {
        let (cat, lm, mut s, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        s.put(east, K, 1e3, east, &lm, &mut rng);
        assert!(s.get(west, K, west, &lm, &mut rng).is_none());
        assert!(s.get(east, K, east, &lm, &mut rng).is_some());
    }
}
