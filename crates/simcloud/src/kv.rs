//! A DynamoDB-like distributed key-value store.
//!
//! Caribou's components interact asynchronously through a distributed KV
//! store (§3): deployment plans, workflow metadata, intermediate data, and
//! the synchronization-node annotations all live here. The store supports
//! the atomic read-modify-write the synchronization protocol of §4
//! requires ("the predecessor invocation is required to atomically update
//! an annotation").
//!
//! Each table is homed in a region; accesses from other regions pay the
//! inter-region round trip. Operation counts are tracked per region for
//! billing (the paper explicitly accounts for "additional DynamoDB
//! accesses introduced by Caribou", §7.1).

use std::collections::HashMap;

use bytes::Bytes;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::faults::FaultPlan;
use crate::latency::LatencyModel;

/// Base service-side latency of one KV operation, seconds.
const KV_OP_BASE_S: f64 = 0.004;
/// Minimum extra client-observed delay when an operation is throttled
/// (SDK retry with backoff), seconds.
const KV_THROTTLE_RETRY_MIN_S: f64 = 0.05;
/// Maximum extra client-observed delay when an operation is throttled.
const KV_THROTTLE_RETRY_MAX_S: f64 = 0.2;

/// Result of a KV access: the value (for reads) and the latency paid.
#[derive(Debug, Clone)]
pub struct KvAccess {
    /// Value returned by a read; `None` for writes or missing keys.
    pub value: Option<Bytes>,
    /// End-to-end latency of the operation in seconds.
    pub latency_s: f64,
}

/// Operation counters per region, for billing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvOpCounts {
    /// Number of read operations served.
    pub reads: u64,
    /// Number of write operations served (atomic updates count as one
    /// write and one read).
    pub writes: u64,
}

/// The distributed key-value store.
#[derive(Debug, Default)]
pub struct KvStore {
    /// `(table, key) → value`; tables are homed per [`KvStore::create_table`].
    data: HashMap<(String, String), Bytes>,
    /// Table → home region.
    table_home: HashMap<String, RegionId>,
    /// Per-region operation counts.
    ops: HashMap<RegionId, KvOpCounts>,
    /// Windowed faults (gray latency, throttling) evaluated at the current
    /// fault clock [`KvStore::now_s`]. Throttling slows operations via SDK
    /// retries but never loses data, matching DynamoDB semantics.
    pub faults: FaultPlan,
    /// Simulation time used to evaluate windowed faults; positioned via
    /// `SimCloud::set_fault_now`.
    pub now_s: f64,
    /// Reusable `(table, key)` lookup buffer: point reads and overwrites
    /// of existing keys allocate nothing (the map only ever owns a key
    /// string for first-time inserts).
    lookup: (String, String),
    /// Recycled `(table, key)` string pairs from [`KvStore::reclaim`] /
    /// [`KvStore::delete`]: first-time inserts reuse these buffers, so a
    /// steady-state write/reclaim cycle (one intermediate per DAG edge per
    /// invocation) allocates nothing and the store stays bounded.
    free: Vec<(String, String)>,
}

/// Cap on recycled key pairs retained; beyond this they are dropped.
const KV_FREE_LIST_CAP: usize = 256;

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrites the reusable lookup buffer to `(table, key)`.
    fn set_lookup(&mut self, table: &str, key: &str) {
        self.lookup.0.clear();
        self.lookup.0.push_str(table);
        self.lookup.1.clear();
        self.lookup.1.push_str(key);
    }

    /// An owned `(table, key)` pair for a first-time insert, reusing a
    /// recycled buffer when one is available.
    fn owned_pair(&mut self, table: &str, key: &str) -> (String, String) {
        match self.free.pop() {
            Some(mut pair) => {
                pair.0.clear();
                pair.0.push_str(table);
                pair.1.clear();
                pair.1.push_str(key);
                pair
            }
            None => (table.to_string(), key.to_string()),
        }
    }

    /// Recycles an owned key pair for later reuse.
    fn recycle(&mut self, pair: (String, String)) {
        if self.free.len() < KV_FREE_LIST_CAP {
            self.free.push(pair);
        }
    }

    /// Creates (or re-homes) a table in `home` region.
    pub fn create_table(&mut self, table: impl Into<String>, home: RegionId) {
        self.table_home.insert(table.into(), home);
    }

    /// Home region of a table; defaults to the accessing region when the
    /// table was never explicitly created (DynamoDB global-table style
    /// local replica).
    pub fn table_home(&self, table: &str, fallback: RegionId) -> RegionId {
        self.table_home.get(table).copied().unwrap_or(fallback)
    }

    fn op_latency(
        &self,
        table: &str,
        from: RegionId,
        latency: &LatencyModel,
        bytes: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let home = self.table_home(table, from);
        let net = if home == from {
            latency.sample_transfer_seconds(from, home, bytes, rng)
        } else {
            // Request + response cross the inter-region link.
            latency.sample_transfer_seconds(from, home, bytes, rng)
                + latency.sample_transfer_seconds(home, from, 256.0, rng)
        };
        let gray = self.faults.pair_latency_factor(from, home, self.now_s);
        let mut total = KV_OP_BASE_S + net * gray;
        if self.faults.kv_throttled(home, self.now_s, rng) {
            // Throttled: the SDK transparently retries, so the operation
            // still succeeds but pays an extra round trip plus backoff.
            // This also covers conditional-write conflicts under load —
            // the retry path is the same.
            total += KV_OP_BASE_S
                + net * gray
                + rng.uniform(KV_THROTTLE_RETRY_MIN_S, KV_THROTTLE_RETRY_MAX_S);
            if caribou_telemetry::is_enabled() {
                caribou_telemetry::count("fault.kv_throttle", 1);
            }
        }
        total
    }

    fn count(&mut self, table: &str, from: RegionId, reads: u64, writes: u64) {
        let home = self.table_home(table, from);
        let c = self.ops.entry(home).or_default();
        c.reads += reads;
        c.writes += writes;
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::count("kv.read", reads);
            caribou_telemetry::count("kv.write", writes);
        }
    }

    /// Reads a key.
    pub fn get(
        &mut self,
        table: &str,
        key: &str,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> KvAccess {
        self.set_lookup(table, key);
        let value = self.data.get(&self.lookup).cloned();
        let size = value.as_ref().map(|v| v.len() as f64).unwrap_or(128.0);
        let latency_s = self.op_latency(table, from, latency, size, rng);
        self.count(table, from, 1, 0);
        KvAccess { value, latency_s }
    }

    /// Writes a key.
    pub fn put(
        &mut self,
        table: &str,
        key: &str,
        value: Bytes,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> KvAccess {
        let latency_s = self.op_latency(table, from, latency, value.len() as f64, rng);
        self.set_lookup(table, key);
        if let Some(slot) = self.data.get_mut(&self.lookup) {
            *slot = value;
        } else {
            let pair = self.owned_pair(table, key);
            self.data.insert(pair, value);
        }
        self.count(table, from, 0, 1);
        KvAccess {
            value: None,
            latency_s,
        }
    }

    /// Deletes a key, returning whether it existed.
    pub fn delete(&mut self, table: &str, key: &str, from: RegionId) -> bool {
        self.count(table, from, 0, 1);
        self.set_lookup(table, key);
        match self.data.remove_entry(&self.lookup) {
            Some((pair, _)) => {
                self.recycle(pair);
                true
            }
            None => false,
        }
    }

    /// Removes a key without billing or latency simulation: garbage
    /// collection of consumed intermediates and annotations, which real
    /// deployments handle with DynamoDB TTL expiry (not billed as a
    /// write). Recycles the key strings so the paired first-time insert
    /// of the next invocation allocates nothing.
    pub fn reclaim(&mut self, table: &str, key: &str) -> bool {
        self.set_lookup(table, key);
        match self.data.remove_entry(&self.lookup) {
            Some((pair, _)) => {
                self.recycle(pair);
                true
            }
            None => false,
        }
    }

    /// Atomically transforms the value under a key, returning the
    /// transformed value. This is the primitive behind the
    /// synchronization-node annotation update of §4: the transform is
    /// applied under the store's (simulated) single-writer serialization,
    /// so concurrent predecessors observe a linearizable history.
    pub fn atomic_update(
        &mut self,
        table: &str,
        key: &str,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
        f: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) -> KvAccess {
        self.set_lookup(table, key);
        let prev = self.data.get(&self.lookup);
        if caribou_telemetry::is_enabled() {
            // A read-modify-write over an existing annotation means another
            // writer got there first — the contended case of §4.
            if prev.is_some() {
                caribou_telemetry::event("kv.rmw_conflict", key, 0.0);
            }
            caribou_telemetry::count("kv.rmw", 1);
        }
        let new = f(prev);
        let size = new.len() as f64;
        if let Some(slot) = self.data.get_mut(&self.lookup) {
            *slot = new.clone();
        } else {
            let pair = self.owned_pair(table, key);
            self.data.insert(pair, new.clone());
        }
        let latency_s = self.op_latency(table, from, latency, size, rng);
        self.count(table, from, 1, 1);
        KvAccess {
            value: Some(new),
            latency_s,
        }
    }

    /// Conditional put: writes only when the key is absent, returning
    /// whether the write happened (DynamoDB `attribute_not_exists`).
    pub fn put_if_absent(&mut self, table: &str, key: &str, value: Bytes, from: RegionId) -> bool {
        self.count(table, from, 1, 1);
        self.set_lookup(table, key);
        if self.data.contains_key(&self.lookup) {
            return false;
        }
        let pair = self.owned_pair(table, key);
        self.data.insert(pair, value);
        true
    }

    /// Read without latency/billing simulation (framework-internal
    /// bookkeeping reads that the paper does not charge to workflows).
    pub fn peek(&self, table: &str, key: &str) -> Option<&Bytes> {
        self.data.get(&(table.to_string(), key.to_string()))
    }

    /// Operation counters for a region's tables.
    pub fn ops(&self, region: RegionId) -> KvOpCounts {
        self.ops.get(&region).copied().unwrap_or_default()
    }

    /// Total operation counters across regions.
    pub fn total_ops(&self) -> KvOpCounts {
        self.ops.values().fold(KvOpCounts::default(), |mut acc, c| {
            acc.reads += c.reads;
            acc.writes += c.writes;
            acc
        })
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn setup() -> (RegionCatalog, LatencyModel, KvStore, Pcg32) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.latency, cloud.kv, Pcg32::seed(1))
    }

    #[test]
    fn put_then_get_round_trips() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        kv.create_table("meta", r);
        kv.put("meta", "k", Bytes::from_static(b"v"), r, &lm, &mut rng);
        let got = kv.get("meta", "k", r, &lm, &mut rng);
        assert_eq!(got.value.as_deref(), Some(b"v".as_slice()));
        assert!(got.latency_s > 0.0);
    }

    #[test]
    fn remote_access_slower_than_local() {
        let (cat, lm, mut kv, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        kv.create_table("meta", east);
        kv.put("meta", "k", Bytes::from_static(b"v"), east, &lm, &mut rng);
        let mut local = 0.0;
        let mut remote = 0.0;
        for _ in 0..200 {
            local += kv.get("meta", "k", east, &lm, &mut rng).latency_s;
            remote += kv.get("meta", "k", west, &lm, &mut rng).latency_s;
        }
        assert!(remote > local * 2.0, "local {local} remote {remote}");
    }

    #[test]
    fn atomic_update_applies_serially() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        kv.create_table("ann", r);
        for _ in 0..10 {
            kv.atomic_update("ann", "counter", r, &lm, &mut rng, |prev| {
                let n = prev
                    .map(|b| String::from_utf8_lossy(b).parse::<u64>().unwrap())
                    .unwrap_or(0);
                Bytes::from((n + 1).to_string())
            });
        }
        let v = kv.peek("ann", "counter").unwrap();
        assert_eq!(String::from_utf8_lossy(v), "10");
    }

    #[test]
    fn put_if_absent_only_first_wins() {
        let (cat, _lm, mut kv, _rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        assert!(kv.put_if_absent("t", "k", Bytes::from_static(b"a"), r));
        assert!(!kv.put_if_absent("t", "k", Bytes::from_static(b"b"), r));
        assert_eq!(kv.peek("t", "k").unwrap().as_ref(), b"a");
    }

    #[test]
    fn op_counts_accumulate_at_table_home() {
        let (cat, lm, mut kv, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        kv.create_table("meta", east);
        kv.put("meta", "k", Bytes::from_static(b"v"), west, &lm, &mut rng);
        kv.get("meta", "k", west, &lm, &mut rng);
        let ops = kv.ops(east);
        assert_eq!(ops.reads, 1);
        assert_eq!(ops.writes, 1);
        assert_eq!(kv.ops(west), KvOpCounts::default());
    }

    #[test]
    fn delete_removes_key() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        kv.put("t", "k", Bytes::from_static(b"v"), r, &lm, &mut rng);
        assert!(kv.delete("t", "k", r));
        assert!(!kv.delete("t", "k", r));
        assert!(kv.get("t", "k", r, &lm, &mut rng).value.is_none());
    }

    #[test]
    fn reclaim_is_unbilled_and_recycles_keys() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        kv.put("t", "k1", Bytes::from_static(b"v"), r, &lm, &mut rng);
        let writes_before = kv.ops(r).writes;
        assert!(kv.reclaim("t", "k1"));
        assert!(!kv.reclaim("t", "k1"));
        // No billing for the reclaim itself.
        assert_eq!(kv.ops(r).writes, writes_before);
        assert!(kv.is_empty());
        // The recycled pair is reused by the next first-time insert.
        assert_eq!(kv.free.len(), 1);
        kv.put("t", "k2", Bytes::from_static(b"w"), r, &lm, &mut rng);
        assert!(kv.free.is_empty());
        assert_eq!(kv.peek("t", "k2").unwrap().as_ref(), b"w");
    }

    #[test]
    fn uncreated_table_homes_at_accessor() {
        let (cat, lm, mut kv, mut rng) = setup();
        let west = cat.id_of("us-west-1").unwrap();
        assert_eq!(kv.table_home("ghost", west), west);
        // Accesses bill at the accessor's region when no home was set.
        kv.put("ghost", "k", Bytes::from_static(b"v"), west, &lm, &mut rng);
        assert_eq!(kv.ops(west).writes, 1);
    }

    #[test]
    fn throttle_window_slows_ops_but_loses_nothing() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        kv.create_table("t", r);
        let n = 200;
        let mut clean = 0.0;
        for i in 0..n {
            clean += kv
                .put(
                    "t",
                    &format!("k{i}"),
                    Bytes::from_static(b"v"),
                    r,
                    &lm,
                    &mut rng,
                )
                .latency_s;
        }
        kv.faults = FaultPlan::none().with_kv_throttle(r, 0.0, 1e9, 1.0);
        let mut throttled = 0.0;
        for i in 0..n {
            throttled += kv
                .put(
                    "t",
                    &format!("k{i}"),
                    Bytes::from_static(b"w"),
                    r,
                    &lm,
                    &mut rng,
                )
                .latency_s;
        }
        assert!(
            throttled > clean * 2.0,
            "clean {clean} throttled {throttled}"
        );
        // Every write landed despite the throttling.
        for i in 0..n {
            assert_eq!(kv.peek("t", &format!("k{i}")).unwrap().as_ref(), b"w");
        }
    }

    #[test]
    fn gray_failure_inflates_kv_latency() {
        let (cat, lm, mut kv, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        kv.create_table("t", east);
        kv.put("t", "k", Bytes::from_static(b"v"), east, &lm, &mut rng);
        let n = 200;
        let mut clean = 0.0;
        for _ in 0..n {
            clean += kv.get("t", "k", west, &lm, &mut rng).latency_s;
        }
        kv.faults = FaultPlan::none().with_gray_failure(east, 0.0, 1e9, 6.0);
        let mut gray = 0.0;
        for _ in 0..n {
            gray += kv.get("t", "k", west, &lm, &mut rng).latency_s;
        }
        assert!(gray > clean * 2.0, "clean {clean} gray {gray}");
    }

    #[test]
    fn missing_key_read_returns_none_with_latency() {
        let (cat, lm, mut kv, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let got = kv.get("t", "nope", r, &lm, &mut rng);
        assert!(got.value.is_none());
        assert!(got.latency_s > 0.0);
    }
}
