//! S3-like regional object storage.
//!
//! DynamoDB items are capped at 400 KB; real deployments pass large
//! intermediate payloads (audio, images, video chunks) through object
//! storage and keep only references in the KV store. The engine uses this
//! service for payloads above [`BLOB_THRESHOLD_BYTES`], charging S3-style
//! request fees plus transfer time; small payloads stay on the KV path.

use std::collections::HashMap;

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

/// Cap on recycled key strings retained; beyond this they are dropped.
const BLOB_FREE_LIST_CAP: usize = 256;

/// The object-storage service: one logical bucket per region.
#[derive(Debug, Default)]
pub struct BlobStore {
    /// `(region, key) → size`; contents are irrelevant to the simulation.
    objects: HashMap<(RegionId, String), f64>,
    ops: HashMap<RegionId, BlobOpCounts>,
    /// Request pricing.
    pub pricing: BlobPricing,
    /// Reusable `(region, key)` lookup buffer so reads allocate nothing.
    lookup: (RegionId, String),
    /// Recycled key strings from [`BlobStore::reclaim`] /
    /// [`BlobStore::delete`], reused by first-time PUTs.
    free: Vec<String>,
}

impl BlobStore {
    /// Creates an empty store with default pricing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrites the reusable lookup buffer to `(region, key)`.
    fn set_lookup(&mut self, bucket_region: RegionId, key: &str) {
        self.lookup.0 = bucket_region;
        self.lookup.1.clear();
        self.lookup.1.push_str(key);
    }

    /// Uploads an object of `bytes` into `bucket_region`'s bucket from
    /// `from` (cross-region PUTs pay the inter-region path).
    pub fn put(
        &mut self,
        bucket_region: RegionId,
        key: &str,
        bytes: f64,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> BlobAccess {
        self.set_lookup(bucket_region, key);
        if let Some(slot) = self.objects.get_mut(&self.lookup) {
            *slot = bytes;
        } else {
            let owned = match self.free.pop() {
                Some(mut s) => {
                    s.clear();
                    s.push_str(key);
                    s
                }
                None => key.to_string(),
            };
            self.objects.insert((bucket_region, owned), bytes);
        }
        let c = self.ops.entry(bucket_region).or_default();
        c.puts += 1;
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
        key: &str,
        to: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> Option<BlobAccess> {
        self.set_lookup(bucket_region, key);
        let bytes = *self.objects.get(&self.lookup)?;
        let c = self.ops.entry(bucket_region).or_default();
        c.gets += 1;
        Some(BlobAccess {
            latency_s: BLOB_OP_BASE_S
                + latency.sample_transfer_seconds(bucket_region, to, bytes, rng),
            cost_usd: self.pricing.per_get,
        })
    }

    /// Size of a stored object, if present.
    pub fn size_of(&self, bucket_region: RegionId, key: &str) -> Option<f64> {
        self.objects.get(&(bucket_region, key.to_string())).copied()
    }

    /// Deletes an object, returning whether it existed.
    pub fn delete(&mut self, bucket_region: RegionId, key: &str) -> bool {
        self.set_lookup(bucket_region, key);
        match self.objects.remove_entry(&self.lookup) {
            Some(((_, owned), _)) => {
                self.recycle(owned);
                true
            }
            None => false,
        }
    }

    /// Removes an object without billing (lifecycle-expiry style garbage
    /// collection of consumed intermediates), recycling the key string.
    pub fn reclaim(&mut self, bucket_region: RegionId, key: &str) -> bool {
        self.set_lookup(bucket_region, key);
        match self.objects.remove_entry(&self.lookup) {
            Some(((_, owned), _)) => {
                self.recycle(owned);
                true
            }
            None => false,
        }
    }

    fn recycle(&mut self, owned: String) {
        if self.free.len() < BLOB_FREE_LIST_CAP {
            self.free.push(owned);
        }
    }

    /// Operation counters for a region.
    pub fn ops(&self, region: RegionId) -> BlobOpCounts {
        self.ops.get(&region).copied().unwrap_or_default()
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

    fn setup() -> (RegionCatalog, LatencyModel, BlobStore, Pcg32) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.latency, cloud.blob, Pcg32::seed(1))
    }

    #[test]
    fn put_then_get_round_trips() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let put = s.put(r, "k", 5e6, r, &lm, &mut rng);
        assert!(put.latency_s > 0.0);
        assert!(put.cost_usd > 0.0);
        let get = s.get(r, "k", r, &lm, &mut rng).unwrap();
        assert!(get.latency_s > 0.0);
        assert_eq!(s.size_of(r, "k"), Some(5e6));
        assert_eq!(s.ops(r), BlobOpCounts { puts: 1, gets: 1 });
    }

    #[test]
    fn missing_object_returns_none() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        assert!(s.get(r, "nope", r, &lm, &mut rng).is_none());
    }

    #[test]
    fn large_transfer_dominates_latency() {
        let (cat, lm, mut s, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        s.put(west, "big", 100e6, east, &lm, &mut rng);
        let get = s.get(west, "big", east, &lm, &mut rng).unwrap();
        // 100 MB at 30 MB/s inter-region ≈ 3+ seconds.
        assert!(get.latency_s > 2.0, "latency {}", get.latency_s);
    }

    #[test]
    fn delete_removes_object() {
        let (cat, lm, mut s, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        s.put(r, "k", 1e3, r, &lm, &mut rng);
        assert!(s.delete(r, "k"));
        assert!(!s.delete(r, "k"));
        assert!(s.get(r, "k", r, &lm, &mut rng).is_none());
    }

    #[test]
    fn buckets_are_regional() {
        let (cat, lm, mut s, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        s.put(east, "k", 1e3, east, &lm, &mut rng);
        assert!(s.get(west, "k", west, &lm, &mut rng).is_none());
        assert!(s.get(east, "k", east, &lm, &mut rng).is_some());
    }
}
