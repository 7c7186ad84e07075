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
//! accesses introduced by Caribou", §7.1). A handle-path operation reads
//! the fault plan its caller passes at the time it names (gray failures;
//! throttles, which slow but never lose data); the store keeps no faults.

use std::collections::hash_map::Entry;
use std::fmt::Display;

use bytes::Bytes;
use caribou_model::hash::FixedMap;
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

/// Handle of a table, issued by [`KvStore::create_table`] /
/// [`KvStore::table`] and valid for the store that issued it (compare
/// [`KvStore::namespace`] before reusing one held across stores). Tables
/// are never dropped, and re-homing one keeps its handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(u32);

/// Which item of its table an [`ItemAddr`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Row {
    /// The `n`-th key name the table has seen (see [`KvStore::named_item`]).
    Named(u32),
    /// The per-invocation item in `slot`.
    Slot { invocation: u64, slot: u32 },
}

/// The address of one item: what every operation is carried out on. A
/// by-name call resolves its `(table, key)` strings to one first; a
/// caller that knows its item numerically — the engine's per-invocation
/// intermediates and annotations — builds it with [`ItemAddr::new`] and
/// never names it. The two kinds never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItemAddr {
    table: TableId,
    row: Row,
}

impl ItemAddr {
    /// The item of `invocation` in `slot` of `table` (what a slot means is
    /// the caller's layout: an edge id in a data table, a node id in a
    /// sync table).
    pub fn new(table: TableId, invocation: u64, slot: u32) -> Self {
        ItemAddr {
            table,
            row: Row::Slot { invocation, slot },
        }
    }
}

#[derive(Debug, Default)]
struct Table {
    /// Home region; `None` until the table is created, and such a table
    /// is served from the accessing region.
    home: Option<RegionId>,
    /// Key name → its [`Row::Named`] number. A name keeps its number for
    /// good (deleting the item leaves it), so its address can be held.
    names: FixedMap<String, u32>,
}

/// The distributed key-value store.
#[derive(Debug)]
pub struct KvStore {
    /// Distinguishes this store's handles from every other instance's.
    namespace: u64,
    /// Table name → handle; `tables[id]` is the table.
    table_ids: FixedMap<String, TableId>,
    tables: Vec<Table>,
    data: FixedMap<ItemAddr, Bytes>,
    /// Operation counts per table-home region (indexed by
    /// [`RegionId::index`]).
    ops: Vec<KvOpCounts>,
}

impl KvStore {
    /// Creates an empty store for a catalog of `regions` regions.
    pub fn new(regions: usize) -> Self {
        KvStore {
            namespace: crate::fresh_namespace(),
            table_ids: FixedMap::default(),
            tables: Vec::new(),
            data: FixedMap::default(),
            ops: vec![KvOpCounts::default(); regions],
        }
    }

    /// Identity of this store instance: a [`TableId`] or [`ItemAddr`] may
    /// be used only with the store whose namespace it was issued under.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The handle of a table, registering it unhomed (served from the
    /// accessing region, DynamoDB global-table style local replica) when
    /// it was never created.
    pub fn table(&mut self, table: &str) -> TableId {
        if let Some(&id) = self.table_ids.get(table) {
            return id;
        }
        let id = TableId(u32::try_from(self.tables.len()).expect("fewer than 2^32 tables"));
        self.tables.push(Table::default());
        self.table_ids.insert(table.to_string(), id);
        id
    }

    /// Creates (or re-homes) a table in `home` region.
    pub fn create_table(&mut self, table: impl AsRef<str>, home: RegionId) -> TableId {
        let id = self.table(table.as_ref());
        self.tables[id.0 as usize].home = Some(home);
        id
    }

    /// The address of the item called `key` in `table`. A name is
    /// numbered when first seen and keeps that address for good.
    pub fn named_item(&mut self, table: TableId, key: &str) -> ItemAddr {
        let names = &mut self.tables[table.0 as usize].names;
        let n = match names.get(key) {
            Some(&n) => n,
            None => {
                let n = u32::try_from(names.len()).expect("fewer than 2^32 key names");
                names.insert(key.to_string(), n);
                n
            }
        };
        ItemAddr {
            table,
            row: Row::Named(n),
        }
    }

    /// Resolves a by-name access to the address it operates on.
    fn resolve(&mut self, table: &str, key: &str) -> ItemAddr {
        let table = self.table(table);
        self.named_item(table, key)
    }

    /// [`KvStore::resolve`] without registering anything: `None` when the
    /// table or the key name was never seen (so no such item exists).
    fn find(&self, table: &str, key: &str) -> Option<ItemAddr> {
        let table = *self.table_ids.get(table)?;
        let n = *self.tables[table.0 as usize].names.get(key)?;
        Some(ItemAddr {
            table,
            row: Row::Named(n),
        })
    }

    /// Home region of a table: the accessing region when the table was
    /// never explicitly created.
    fn home_of(&self, table: TableId, fallback: RegionId) -> RegionId {
        self.tables[table.0 as usize].home.unwrap_or(fallback)
    }

    #[allow(clippy::too_many_arguments)]
    fn op_latency(
        &self,
        table: TableId,
        from: RegionId,
        latency: &LatencyModel,
        faults: &FaultPlan,
        now_s: f64,
        bytes: f64,
        rng: &mut Pcg32,
    ) -> f64 {
        let home = self.home_of(table, from);
        let net = if home == from {
            latency.sample_transfer_seconds(from, home, bytes, rng)
        } else {
            // Request + response cross the inter-region link.
            latency.sample_transfer_seconds(from, home, bytes, rng)
                + latency.sample_transfer_seconds(home, from, 256.0, rng)
        };
        let gray = faults.pair_latency_factor(from, home, now_s);
        let mut total = KV_OP_BASE_S + net * gray;
        if faults.kv_throttled(home, now_s, rng) {
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

    fn count(&mut self, table: TableId, from: RegionId, reads: u64, writes: u64) {
        let home = self.home_of(table, from);
        let c = &mut self.ops[home.index()];
        c.reads += reads;
        c.writes += writes;
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::count("kv.read", reads);
            caribou_telemetry::count("kv.write", writes);
        }
    }

    /// Reads an item under `faults` at `now_s`.
    pub fn get_at(
        &mut self,
        item: ItemAddr,
        from: RegionId,
        latency: &LatencyModel,
        faults: &FaultPlan,
        now_s: f64,
        rng: &mut Pcg32,
    ) -> KvAccess {
        let value = self.data.get(&item).cloned();
        let size = value.as_ref().map(|v| v.len() as f64).unwrap_or(128.0);
        let latency_s = self.op_latency(item.table, from, latency, faults, now_s, size, rng);
        self.count(item.table, from, 1, 0);
        KvAccess { value, latency_s }
    }

    /// Writes an item under `faults` at `now_s`.
    #[allow(clippy::too_many_arguments)]
    pub fn put_at(
        &mut self,
        item: ItemAddr,
        value: Bytes,
        from: RegionId,
        latency: &LatencyModel,
        faults: &FaultPlan,
        now_s: f64,
        rng: &mut Pcg32,
    ) -> KvAccess {
        let size = value.len() as f64;
        let latency_s = self.op_latency(item.table, from, latency, faults, now_s, size, rng);
        self.data.insert(item, value);
        self.count(item.table, from, 0, 1);
        KvAccess {
            value: None,
            latency_s,
        }
    }

    /// Removes an item without billing or latency simulation: garbage
    /// collection of consumed intermediates and annotations, which real
    /// deployments handle with DynamoDB TTL expiry (not billed as a
    /// write). Returns whether it existed.
    pub fn reclaim_at(&mut self, item: ItemAddr) -> bool {
        self.data.remove(&item).is_some()
    }

    /// [`KvStore::reclaim_at`] by name.
    pub fn reclaim(&mut self, table: &str, key: &str) -> bool {
        match self.find(table, key) {
            Some(item) => self.reclaim_at(item),
            None => false,
        }
    }

    /// Atomically transforms the value of an item, returning the
    /// transformed value. This is the primitive behind the
    /// synchronization-node annotation update of §4: the transform is
    /// applied under the store's (simulated) single-writer serialization,
    /// so concurrent predecessors observe a linearizable history. `label`
    /// names the item in the telemetry journal and is rendered only when
    /// a session is recording. The latency reads `faults` at `now_s`.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_update_at(
        &mut self,
        item: ItemAddr,
        label: &dyn Display,
        from: RegionId,
        latency: &LatencyModel,
        faults: &FaultPlan,
        now_s: f64,
        rng: &mut Pcg32,
        f: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) -> KvAccess {
        let telemetry = caribou_telemetry::is_enabled();
        let new = match self.data.entry(item) {
            Entry::Occupied(mut slot) => {
                if telemetry {
                    // A read-modify-write over an existing annotation means
                    // another writer got there first — the contended case
                    // of §4.
                    caribou_telemetry::event("kv.rmw_conflict", label.to_string(), 0.0);
                }
                let new = f(Some(slot.get()));
                slot.insert(new.clone());
                new
            }
            Entry::Vacant(slot) => slot.insert(f(None)).clone(),
        };
        if telemetry {
            caribou_telemetry::count("kv.rmw", 1);
        }
        let size = new.len() as f64;
        let latency_s = self.op_latency(item.table, from, latency, faults, now_s, size, rng);
        self.count(item.table, from, 1, 1);
        KvAccess {
            value: Some(new),
            latency_s,
        }
    }

    /// [`KvStore::atomic_update_at`] by name, labelled with the key, on a
    /// plan with no faults: it reads no fault.
    pub fn atomic_update(
        &mut self,
        table: &str,
        key: &str,
        from: RegionId,
        latency: &LatencyModel,
        rng: &mut Pcg32,
        f: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) -> KvAccess {
        let item = self.resolve(table, key);
        let none = &FaultPlan::none();
        self.atomic_update_at(item, &key, from, latency, none, 0.0, rng, f)
    }

    /// Conditional put: writes only when the key is absent, returning
    /// whether the write happened (DynamoDB `attribute_not_exists`).
    pub fn put_if_absent(&mut self, table: &str, key: &str, value: Bytes, from: RegionId) -> bool {
        let item = self.resolve(table, key);
        self.count(item.table, from, 1, 1);
        match self.data.entry(item) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Read without latency/billing simulation (framework-internal
    /// bookkeeping reads that the paper does not charge to workflows).
    pub fn peek(&self, table: &str, key: &str) -> Option<&Bytes> {
        self.data.get(&self.find(table, key)?)
    }

    /// Operation counters for a region's tables.
    pub fn ops(&self, region: RegionId) -> KvOpCounts {
        self.ops[region.index()]
    }

    /// Total operation counters across regions.
    pub fn total_ops(&self) -> KvOpCounts {
        self.ops.iter().fold(KvOpCounts::default(), |mut acc, c| {
            acc.reads += c.reads;
            acc.writes += c.writes;
            acc
        })
    }

    /// Number of items stored, however they are addressed.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn setup() -> (RegionCatalog, LatencyModel, KvStore, FaultPlan, Pcg32) {
        let c = SimCloud::aws(0);
        (c.regions, c.latency, c.kv, c.faults, Pcg32::seed(1))
    }

    #[test]
    fn put_then_get_round_trips() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let meta = kv.create_table("meta", r);
        let k = kv.named_item(meta, "k");
        kv.put_at(k, Bytes::from_static(b"v"), r, &lm, &none, 0.0, &mut rng);
        let got = kv.get_at(k, r, &lm, &none, 0.0, &mut rng);
        assert_eq!(got.value.as_deref(), Some(b"v".as_slice()));
        assert!(got.latency_s > 0.0);
    }

    #[test]
    fn remote_access_slower_than_local() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let meta = kv.create_table("meta", east);
        let k = kv.named_item(meta, "k");
        kv.put_at(k, Bytes::from_static(b"v"), east, &lm, &none, 0.0, &mut rng);
        let mut local = 0.0;
        let mut remote = 0.0;
        for _ in 0..200 {
            local += kv.get_at(k, east, &lm, &none, 0.0, &mut rng).latency_s;
            remote += kv.get_at(k, west, &lm, &none, 0.0, &mut rng).latency_s;
        }
        assert!(remote > local * 2.0, "local {local} remote {remote}");
    }

    #[test]
    fn atomic_update_applies_serially() {
        let (cat, lm, mut kv, _, mut rng) = setup();
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
        let (cat, _lm, mut kv, _, _rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        assert!(kv.put_if_absent("t", "k", Bytes::from_static(b"a"), r));
        assert!(!kv.put_if_absent("t", "k", Bytes::from_static(b"b"), r));
        assert_eq!(kv.peek("t", "k").unwrap().as_ref(), b"a");
    }

    #[test]
    fn op_counts_accumulate_at_table_home() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let meta = kv.create_table("meta", east);
        let k = kv.named_item(meta, "k");
        kv.put_at(k, Bytes::from_static(b"v"), west, &lm, &none, 0.0, &mut rng);
        kv.get_at(k, west, &lm, &none, 0.0, &mut rng);
        let ops = kv.ops(east);
        assert_eq!(ops.reads, 1);
        assert_eq!(ops.writes, 1);
        assert_eq!(kv.ops(west), KvOpCounts::default());
    }

    #[test]
    fn reclaim_is_unbilled_and_recycles_keys() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let t = kv.table("t");
        let k1 = kv.named_item(t, "k1");
        kv.put_at(k1, Bytes::from_static(b"v"), r, &lm, &none, 0.0, &mut rng);
        let writes_before = kv.ops(r).writes;
        assert!(kv.reclaim("t", "k1"));
        assert!(!kv.reclaim("t", "k1"));
        // No billing for the reclaim itself.
        assert_eq!(kv.ops(r).writes, writes_before);
        assert!(kv.is_empty());
        // The name keeps its address: a held one reaches the next value.
        assert_eq!(kv.named_item(t, "k1"), k1);
        kv.put_at(k1, Bytes::from_static(b"w"), r, &lm, &none, 0.0, &mut rng);
        assert_eq!(
            kv.get_at(k1, r, &lm, &none, 0.0, &mut rng)
                .value
                .unwrap()
                .as_ref(),
            b"w"
        );
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn a_by_name_call_is_its_address_call() {
        // Same seed, same operations, one store by name and one by
        // address: on a plan with no faults, same values, same latency
        // bits, same counts. The by-name call reads no fault, so a plan
        // that throttles the table parts the latencies.
        let (cat, ..) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let throttled = FaultPlan::none().with_kv_throttle(east, 0.0, 1e9, 1.0);
        let bump = |prev: Option<&Bytes>| Bytes::from(vec![0u8; prev.map_or(1, |b| b.len() + 1)]);
        for (faults, same) in [(FaultPlan::none(), true), (throttled, false)] {
            let (_, lm, mut named, _, mut rng_n) = setup();
            let (_, _, mut addressed, _, mut rng_a) = setup();
            let t = named.create_table("t", east);
            assert_eq!(addressed.create_table("t", east), t);
            let k = addressed.named_item(t, "k");
            for (i, from) in [west, east, west].into_iter().enumerate() {
                let now_s = 60.0 * i as f64;
                let by_name = named.atomic_update("t", "k", from, &lm, &mut rng_n, bump);
                let by_address = addressed
                    .atomic_update_at(k, &"k", from, &lm, &faults, now_s, &mut rng_a, bump);
                assert_eq!(by_name.value, by_address.value);
                assert_eq!(
                    by_name.latency_s.to_bits() == by_address.latency_s.to_bits(),
                    same
                );
            }
            assert_eq!(named.peek("t", "k"), addressed.data.get(&k));
            assert_eq!(named.ops(east), addressed.ops(east));
            assert!(named.reclaim("t", "k") && addressed.reclaim_at(k));
            assert!(named.is_empty() && addressed.is_empty());
        }
    }

    #[test]
    fn len_counts_every_item_and_the_two_kinds_of_address_never_alias() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let t = kv.create_table("t", r);
        let other = kv.create_table("other", r);
        // The first name a table sees and the (invocation 0, slot 0) item.
        let items = [
            kv.named_item(t, "k"),
            ItemAddr::new(t, 0, 0),
            ItemAddr::new(t, 0, 1),
            ItemAddr::new(t, 1, 0),
            ItemAddr::new(other, 0, 0),
        ];
        for (i, &item) in items.iter().enumerate() {
            kv.put_at(
                item,
                Bytes::from(vec![i as u8]),
                r,
                &lm,
                &none,
                0.0,
                &mut rng,
            );
        }
        assert_eq!(kv.len(), items.len());
        for (i, &item) in items.iter().enumerate() {
            let got = kv.get_at(item, r, &lm, &none, 0.0, &mut rng).value.unwrap();
            assert_eq!(got.as_ref(), [i as u8]);
        }
        assert_eq!(kv.peek("t", "k").unwrap().as_ref(), [0]);
        for &item in &items {
            assert!(kv.reclaim_at(item));
        }
        assert!(kv.is_empty());
    }

    #[test]
    fn a_table_named_before_it_is_created_keeps_its_handle() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let t = kv.table("late");
        let item = ItemAddr::new(t, 9, 0);
        kv.put_at(
            item,
            Bytes::from_static(b"v"),
            west,
            &lm,
            &none,
            0.0,
            &mut rng,
        );
        assert_eq!(kv.ops(west).writes, 1, "unhomed: served where it is asked");
        assert_eq!(kv.create_table("late", east), t);
        assert_eq!(kv.table("late"), t);
        // The held address now reaches the homed table, and its item.
        let got = kv.get_at(item, west, &lm, &none, 0.0, &mut rng);
        assert_eq!(got.value.as_deref(), Some(b"v".as_slice()));
        assert_eq!(kv.ops(east).reads, 1);
        assert_ne!(kv.namespace(), KvStore::new(cat.len()).namespace());
    }

    #[test]
    fn uncreated_table_homes_at_accessor() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let west = cat.id_of("us-west-1").unwrap();
        let ghost = kv.table("ghost");
        assert_eq!(kv.home_of(ghost, west), west);
        // Accesses bill at the accessor's region when no home was set.
        let k = kv.named_item(ghost, "k");
        kv.put_at(k, Bytes::from_static(b"v"), west, &lm, &none, 0.0, &mut rng);
        assert_eq!(kv.ops(west).writes, 1);
    }

    #[test]
    fn throttle_window_slows_ops_but_loses_nothing() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let t = kv.create_table("t", r);
        let n = 200;
        let items: Vec<ItemAddr> = (0..n).map(|i| ItemAddr::new(t, i, 0)).collect();
        let mut clean = 0.0;
        for &item in &items {
            clean += kv
                .put_at(item, Bytes::from_static(b"v"), r, &lm, &none, 0.0, &mut rng)
                .latency_s;
        }
        let faults = FaultPlan::none().with_kv_throttle(r, 0.0, 1e9, 1.0);
        let mut throttled = 0.0;
        for &item in &items {
            throttled += kv
                .put_at(
                    item,
                    Bytes::from_static(b"w"),
                    r,
                    &lm,
                    &faults,
                    0.0,
                    &mut rng,
                )
                .latency_s;
        }
        assert!(
            throttled > clean * 2.0,
            "clean {clean} throttled {throttled}"
        );
        // Every write landed despite the throttling.
        for item in &items {
            assert_eq!(kv.data[item].as_ref(), b"w");
        }
    }

    #[test]
    fn gray_failure_inflates_kv_latency() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let t = kv.create_table("t", east);
        let k = kv.named_item(t, "k");
        kv.put_at(k, Bytes::from_static(b"v"), east, &lm, &none, 0.0, &mut rng);
        let n = 200;
        let mut clean = 0.0;
        for _ in 0..n {
            clean += kv.get_at(k, west, &lm, &none, 0.0, &mut rng).latency_s;
        }
        let faults = FaultPlan::none().with_gray_failure(east, 0.0, 1e9, 6.0);
        let mut gray = 0.0;
        for _ in 0..n {
            gray += kv.get_at(k, west, &lm, &faults, 0.0, &mut rng).latency_s;
        }
        assert!(gray > clean * 2.0, "clean {clean} gray {gray}");
    }

    #[test]
    fn missing_key_read_returns_none_with_latency() {
        let (cat, lm, mut kv, none, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let nope = kv.resolve("t", "nope");
        let got = kv.get_at(nope, r, &lm, &none, 0.0, &mut rng);
        assert!(got.value.is_none());
        assert!(got.latency_s > 0.0);
    }
}
