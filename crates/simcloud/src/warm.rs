//! Warm-container pool for state-dependent cold starts.
//!
//! The default compute model charges cold starts probabilistically; this
//! pool makes them *stateful*: a function deployment is warm while
//! invocations arrive within its keep-alive window and cold after idling
//! past it — so freshly offloaded regions pay cold starts until traffic
//! warms them up, exactly the transient a migration causes in production.
//!
//! Deployments live in a slot table: [`WarmPool::slot`] issues a
//! [`WarmSlot`] per `(workflow, node, region)` once, and
//! [`WarmPool::check_and_touch_at`] is an index into the table. The engine
//! keeps the slots it needs beside its other resolved addresses; the
//! by-key calls resolve the slot first.
//!
//! For sharded simulation (see `caribou_core::loadgen`), a pool can
//! journal its touches: each shard drains its journal at a tick boundary
//! ([`WarmPool::drain_touches`], sorted by key so the exchange order is
//! deterministic) and absorbs every other shard's touches with
//! [`WarmPool::absorb_touch`], which max-merges timestamps so the pools
//! converge to the same state regardless of which shard saw a deployment
//! last.

use std::collections::hash_map::Entry;

use caribou_model::hash::FixedMap;
use caribou_model::intern::IStr;
use caribou_model::region::RegionId;

use crate::clock::SimTime;

/// Default provider keep-alive for idle containers, seconds (~10 minutes,
/// the commonly observed AWS Lambda window).
pub const DEFAULT_KEEP_ALIVE_S: f64 = 600.0;

/// One journaled warm-pool touch: `(workflow, node, region)` was invoked
/// at sim time `at`. Exchanged between shards at tick boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmTouch {
    pub workflow: IStr,
    pub node: u32,
    pub region: RegionId,
    pub at: SimTime,
}

/// A function deployment's place in the pool that issued it
/// ([`WarmPool::slot`]). Slots are never dropped, so a handle stays good
/// for the pool's lifetime; using it with another pool panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmSlot {
    pool: u64,
    index: u32,
}

/// What a deployment's key is.
type Key = (IStr, u32, RegionId);

/// One slot's deployment and its container state.
#[derive(Debug)]
struct Deployment {
    key: Key,
    /// Its last invocation; `None` before the first and after a clear.
    last_seen: Option<SimTime>,
    /// While the slot is in the journal, the greatest last-seen time a
    /// local touch left it at since the last drain.
    journaled: Option<SimTime>,
}

/// Tracks the last invocation time per function deployment.
///
/// # Examples
///
/// ```
/// use caribou_simcloud::warm::WarmPool;
/// use caribou_model::intern::IStr;
/// use caribou_model::region::RegionId;
///
/// let wf = IStr::from("wf");
/// let mut pool = WarmPool::enabled(600.0);
/// assert!(pool.check_and_touch(&wf, 0, RegionId(0), 100.0)); // cold
/// assert!(!pool.check_and_touch(&wf, 0, RegionId(0), 200.0)); // warm
/// let slot = pool.slot(&wf, 0, RegionId(0));
/// assert!(pool.check_and_touch_at(slot, 2000.0)); // idle → cold
/// ```
#[derive(Debug)]
pub struct WarmPool {
    /// Whether the pool drives cold starts (when `false`, the compute
    /// model's probabilistic cold starts apply instead).
    pub enabled: bool,
    /// Idle window after which a container is reclaimed, seconds, in
    /// every region without a window of its own.
    pub keep_alive_s: f64,
    /// Per-region keep-alive windows, filled when a cloud is assembled:
    /// providers reclaim idle containers at different rates (GCP's decay
    /// is faster than Lambda's). Empty on [`WarmPool::enabled`], which
    /// means its one window everywhere.
    keep_alive_per_region: Vec<f64>,
    /// Distinguishes this pool's slots from every other instance's.
    namespace: u64,
    /// Deployment key → slot index.
    index: FixedMap<Key, u32>,
    slots: Vec<Deployment>,
    /// Whether touches are journaled.
    journaling: bool,
    /// The slots touched since the last drain, in first-touch order; the
    /// buffer is kept across drains.
    touched: Vec<u32>,
}

impl Default for WarmPool {
    fn default() -> Self {
        WarmPool {
            enabled: false,
            keep_alive_s: DEFAULT_KEEP_ALIVE_S,
            keep_alive_per_region: Vec::new(),
            namespace: crate::fresh_namespace(),
            index: FixedMap::default(),
            slots: Vec::new(),
            journaling: false,
            touched: Vec::new(),
        }
    }
}

impl WarmPool {
    /// Creates an enabled pool with the given keep-alive in every region.
    pub fn enabled(keep_alive_s: f64) -> Self {
        WarmPool {
            enabled: true,
            keep_alive_s,
            ..Default::default()
        }
    }

    /// Creates a disabled pool with one keep-alive window per catalog
    /// region.
    pub fn per_region(keep_alive_s: Vec<f64>) -> Self {
        WarmPool {
            keep_alive_per_region: keep_alive_s,
            ..Default::default()
        }
    }

    /// Identity of this pool instance: a [`WarmSlot`] may be used only
    /// with the pool whose namespace it was issued under.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The keep-alive window governing a region.
    pub fn keep_alive_for(&self, region: RegionId) -> f64 {
        self.keep_alive_per_region
            .get(region.index())
            .copied()
            .unwrap_or(self.keep_alive_s)
    }

    /// Turns touch journaling on or off (either way discards any pending
    /// journal). Sharded loadgen enables it to exchange touches between
    /// shards at tick boundaries.
    pub fn set_journaling(&mut self, on: bool) {
        self.forget_journal();
        self.journaling = on;
    }

    /// The slot of `(workflow, node, region)`, issued on first use.
    pub fn slot(&mut self, workflow: &IStr, node: u32, region: RegionId) -> WarmSlot {
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 deployments");
        let index = match self.index.entry((workflow.clone(), node, region)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.slots.push(Deployment {
                    key: e.key().clone(),
                    last_seen: None,
                    journaled: None,
                });
                *e.insert(next)
            }
        };
        WarmSlot {
            pool: self.namespace,
            index,
        }
    }

    /// Where `slot` is in the table; panics on another pool's slot.
    fn slot_index(&self, slot: WarmSlot) -> usize {
        assert_eq!(slot.pool, self.namespace, "a warm slot of another pool");
        slot.index as usize
    }

    /// Whether an invocation of `(workflow, node, region)` at `now` is a
    /// cold start, and records the invocation.
    pub fn check_and_touch(
        &mut self,
        workflow: &IStr,
        node: u32,
        region: RegionId,
        now: SimTime,
    ) -> bool {
        let slot = self.slot(workflow, node, region);
        self.check_and_touch_at(slot, now)
    }

    /// [`WarmPool::check_and_touch`] on a deployment's slot.
    ///
    /// The recorded last-seen time only moves forward: with open-loop
    /// overlapping invocations a shorter invocation can report an earlier
    /// `now` after a longer one already advanced the container, and
    /// letting it rewind would resurrect already-expired idle windows.
    pub fn check_and_touch_at(&mut self, slot: WarmSlot, now: SimTime) -> bool {
        let i = self.slot_index(slot);
        let keep_alive = self.keep_alive_for(self.slots[i].key.2);
        let d = &mut self.slots[i];
        let (cold, seen) = match d.last_seen {
            Some(last) => {
                if now > last {
                    d.last_seen = Some(now);
                }
                (now - last > keep_alive, last.max(now))
            }
            None => {
                d.last_seen = Some(now);
                (true, now)
            }
        };
        if self.journaling {
            match d.journaled {
                None => {
                    d.journaled = Some(seen);
                    self.touched.push(slot.index);
                }
                Some(j) if seen > j => d.journaled = Some(seen),
                Some(_) => {}
            }
        }
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::count(
                if cold {
                    "compute.cold_start"
                } else {
                    "compute.warm_start"
                },
                1,
            );
        }
        cold
    }

    /// Drains the touch journal in sorted key order. Empty when
    /// journaling is off or nothing was touched since the last drain.
    pub fn drain_touches(&mut self) -> Vec<WarmTouch> {
        let slots = &mut self.slots;
        self.touched
            .sort_unstable_by(|&a, &b| slots[a as usize].key.cmp(&slots[b as usize].key));
        self.touched
            .drain(..)
            .map(|i| {
                let d = &mut slots[i as usize];
                WarmTouch {
                    workflow: d.key.0.clone(),
                    node: d.key.1,
                    region: d.key.2,
                    at: d.journaled.take().expect("a journaled slot has a time"),
                }
            })
            .collect()
    }

    /// Absorbs a touch from another shard: max-merges the last-seen time
    /// without counting telemetry or re-journaling, so exchanges don't
    /// echo back and forth.
    pub fn absorb_touch(&mut self, touch: &WarmTouch) {
        let slot = self.slot(&touch.workflow, touch.node, touch.region);
        let d = &mut self.slots[slot.index as usize];
        d.last_seen = Some(match d.last_seen {
            Some(last) if last >= touch.at => last,
            _ => touch.at,
        });
    }

    /// Forgets all container state (e.g. after an undeploy). Issued slots
    /// stay valid.
    pub fn clear(&mut self) {
        for d in &mut self.slots {
            d.last_seen = None;
        }
        self.forget_journal();
    }

    fn forget_journal(&mut self) {
        for i in self.touched.drain(..) {
            self.slots[i as usize].journaled = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::rng::Pcg32;
    use std::collections::{BTreeMap, HashMap};

    fn wf() -> IStr {
        IStr::from("wf")
    }

    #[test]
    fn first_invocation_is_cold_then_warm() {
        let mut p = WarmPool::enabled(600.0);
        assert!(p.check_and_touch(&wf(), 0, RegionId(0), 100.0));
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 150.0));
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 700.0));
    }

    #[test]
    fn idle_past_keep_alive_goes_cold() {
        let mut p = WarmPool::enabled(600.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 599.0));
        assert!(p.check_and_touch(&wf(), 0, RegionId(0), 1200.0));
    }

    #[test]
    fn deployments_are_independent() {
        let mut p = WarmPool::enabled(600.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        assert!(
            p.check_and_touch(&wf(), 1, RegionId(0), 1.0),
            "other node cold"
        );
        assert!(
            p.check_and_touch(&wf(), 0, RegionId(1), 1.0),
            "other region cold"
        );
        assert!(
            p.check_and_touch(&IStr::from("other"), 0, RegionId(0), 1.0),
            "other workflow cold"
        );
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 2.0));
    }

    #[test]
    fn per_region_keep_alive_decays_faster() {
        let mut p = WarmPool::per_region(vec![600.0, 240.0]);
        p.enabled = true;
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        p.check_and_touch(&wf(), 0, RegionId(1), 0.0);
        // At t=300 the default region is still warm; the fast-decay
        // region has already been reclaimed.
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 300.0));
        assert!(p.check_and_touch(&wf(), 0, RegionId(1), 300.0));
        assert_eq!(p.keep_alive_for(RegionId(0)), 600.0);
        assert_eq!(p.keep_alive_for(RegionId(1)), 240.0);
    }

    #[test]
    fn enabled_pool_means_one_window_everywhere() {
        // Callers replace an assembled cloud's pool wholesale
        // (`cloud.warm = WarmPool::enabled(k)`): `k` then governs every
        // region, whatever the provider's own window is.
        let mut cloud = crate::cloud::SimCloud::for_providers(
            caribou_model::region::ProviderSet::parse("aws,gcp").unwrap(),
            1,
        )
        .unwrap();
        let gcp = cloud.region("gcp:us-west1").unwrap();
        assert!(cloud.warm.keep_alive_for(gcp) < DEFAULT_KEEP_ALIVE_S);
        cloud.warm = WarmPool::enabled(90.0);
        for id in cloud.regions.all_ids() {
            assert_eq!(cloud.warm.keep_alive_for(id), 90.0);
        }
    }

    #[test]
    fn touches_never_rewind_last_seen() {
        let mut p = WarmPool::enabled(100.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 500.0);
        // An overlapping invocation finishing "earlier" must not rewind
        // the container's idle clock.
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 450.0));
        // Rewound to 450, the container would be 140 s idle at 590.
        assert!(!p.check_and_touch(&wf(), 0, RegionId(0), 590.0));
        assert!(p.check_and_touch(&wf(), 0, RegionId(0), 691.0));
    }

    #[test]
    fn journal_drains_sorted_and_max_merged() {
        let mut p = WarmPool::enabled(600.0);
        p.set_journaling(true);
        p.check_and_touch(&IStr::from("b"), 1, RegionId(0), 10.0);
        p.check_and_touch(&IStr::from("a"), 0, RegionId(2), 20.0);
        p.check_and_touch(&IStr::from("a"), 0, RegionId(2), 35.0);
        p.check_and_touch(&IStr::from("a"), 0, RegionId(2), 30.0); // no rewind
        let touches = p.drain_touches();
        assert_eq!(touches.len(), 2);
        assert_eq!(&*touches[0].workflow, "a");
        assert_eq!(touches[0].at, 35.0);
        assert_eq!(&*touches[1].workflow, "b");
        assert_eq!(touches[1].at, 10.0);
        // Drained: a second drain is empty.
        assert!(p.drain_touches().is_empty());
    }

    #[test]
    fn absorb_touch_warms_without_journaling() {
        let mut a = WarmPool::enabled(600.0);
        a.set_journaling(true);
        let touch = WarmTouch {
            workflow: wf(),
            node: 0,
            region: RegionId(0),
            at: 50.0,
        };
        a.absorb_touch(&touch);
        // Absorbed touches don't echo back out of the journal.
        assert!(a.drain_touches().is_empty());
        assert!(!a.check_and_touch(&wf(), 0, RegionId(0), 100.0));
        // Max-merge: an older absorbed touch doesn't rewind.
        a.check_and_touch(&wf(), 0, RegionId(0), 400.0);
        a.absorb_touch(&WarmTouch { at: 60.0, ..touch });
        assert!(!a.check_and_touch(&wf(), 0, RegionId(0), 900.0));
    }

    #[test]
    fn clear_resets_state() {
        let mut p = WarmPool::enabled(600.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        p.clear();
        assert!(p.check_and_touch(&wf(), 0, RegionId(0), 1.0));
    }

    #[test]
    #[should_panic(expected = "a warm slot of another pool")]
    fn a_slot_is_served_by_its_own_pool_only() {
        let mut a = WarmPool::enabled(600.0);
        let mut b = WarmPool::enabled(600.0);
        assert_ne!(a.namespace(), b.namespace());
        let slot = a.slot(&wf(), 0, RegionId(0));
        assert_eq!(slot, a.slot(&wf(), 0, RegionId(0)), "issued once");
        // `b` has a slot 0 of its own; `a`'s handle must not reach it.
        b.slot(&wf(), 0, RegionId(0));
        b.check_and_touch_at(slot, 1.0);
    }

    /// The pool as it was before the slot table, kept as the oracle of the
    /// differential test below: a `HashMap` of last-seen times and a
    /// `BTreeMap` journal.
    #[derive(Default)]
    struct KeyedPool {
        keep_alive_s: f64,
        keep_alive_per_region: Vec<f64>,
        last_seen: HashMap<Key, SimTime>,
        journal: Option<BTreeMap<Key, SimTime>>,
    }

    impl KeyedPool {
        fn keep_alive_for(&self, region: RegionId) -> f64 {
            self.keep_alive_per_region
                .get(region.index())
                .copied()
                .unwrap_or(self.keep_alive_s)
        }

        fn set_journaling(&mut self, on: bool) {
            self.journal = if on { Some(BTreeMap::new()) } else { None };
        }

        fn check_and_touch(&mut self, key: &Key, now: SimTime) -> bool {
            let keep_alive = self.keep_alive_for(key.2);
            let (cold, seen) = match self.last_seen.entry(key.clone()) {
                Entry::Occupied(mut e) => {
                    let last = *e.get();
                    if now > last {
                        *e.get_mut() = now;
                    }
                    (now - last > keep_alive, last.max(now))
                }
                Entry::Vacant(v) => {
                    v.insert(now);
                    (true, now)
                }
            };
            if let Some(journal) = self.journal.as_mut() {
                let j = journal.entry(key.clone()).or_insert(seen);
                if seen > *j {
                    *j = seen;
                }
            }
            cold
        }

        fn drain_touches(&mut self) -> Vec<WarmTouch> {
            match self.journal.as_mut() {
                Some(journal) => std::mem::take(journal)
                    .into_iter()
                    .map(|((workflow, node, region), at)| WarmTouch {
                        workflow,
                        node,
                        region,
                        at,
                    })
                    .collect(),
                None => Vec::new(),
            }
        }

        fn absorb_touch(&mut self, touch: &WarmTouch) {
            let key = (touch.workflow.clone(), touch.node, touch.region);
            let slot = self.last_seen.entry(key).or_insert(touch.at);
            if touch.at > *slot {
                *slot = touch.at;
            }
        }

        fn clear(&mut self) {
            self.last_seen.clear();
            if let Some(journal) = self.journal.as_mut() {
                journal.clear();
            }
        }
    }

    #[test]
    fn the_slot_table_answers_what_the_keyed_pool_answered() {
        let names = ["wf-c", "wf-a", "wf-b"].map(IStr::from);
        for script in 0..240u64 {
            let mut rng = Pcg32::seed(script);
            let workflows = 1 + rng.next_index(3);
            let nodes = 1 + rng.next_index(3) as u32;
            let regions = 1 + rng.next_index(3) as u16;
            let per_region = script % 2 == 1;
            let (mut pool, mut oracle) = if per_region {
                let windows: Vec<f64> = (0..regions).map(|_| rng.uniform(20.0, 200.0)).collect();
                let mut pool = WarmPool::per_region(windows.clone());
                pool.enabled = true;
                let oracle = KeyedPool {
                    keep_alive_s: DEFAULT_KEEP_ALIVE_S,
                    keep_alive_per_region: windows,
                    ..KeyedPool::default()
                };
                (pool, oracle)
            } else {
                let keep = rng.uniform(20.0, 200.0);
                let oracle = KeyedPool {
                    keep_alive_s: keep,
                    ..KeyedPool::default()
                };
                (WarmPool::enabled(keep), oracle)
            };
            let mut clock = 0.0;
            let mut exchanged: Vec<WarmTouch> = Vec::new();
            for step in 0..300 {
                let key: Key = (
                    names[rng.next_index(workflows)].clone(),
                    rng.next_index(nodes as usize) as u32,
                    RegionId(rng.next_index(regions as usize) as u16),
                );
                clock += rng.uniform(0.0, 40.0);
                // Overlapping invocations report times out of order.
                let now = clock - rng.uniform(0.0, 60.0);
                let at = format!("script {script} step {step}");
                match rng.next_index(20) {
                    0 => {
                        let on = rng.chance(0.7);
                        pool.set_journaling(on);
                        oracle.set_journaling(on);
                    }
                    1 | 2 => {
                        let (drained, want) = (pool.drain_touches(), oracle.drain_touches());
                        assert_eq!(drained, want, "{at}: drain");
                        exchanged.extend(drained);
                    }
                    3 | 4 => {
                        // Another shard's touch, or one of this pool's own
                        // coming back round.
                        let touch = match exchanged.pop() {
                            Some(t) if rng.chance(0.5) => t,
                            _ => WarmTouch {
                                workflow: key.0.clone(),
                                node: key.1,
                                region: key.2,
                                at: now,
                            },
                        };
                        pool.absorb_touch(&touch);
                        oracle.absorb_touch(&touch);
                    }
                    5 if rng.chance(0.2) => {
                        pool.clear();
                        oracle.clear();
                    }
                    _ => {
                        let cold = if rng.chance(0.5) {
                            pool.check_and_touch(&key.0, key.1, key.2, now)
                        } else {
                            let slot = pool.slot(&key.0, key.1, key.2);
                            pool.check_and_touch_at(slot, now)
                        };
                        assert_eq!(cold, oracle.check_and_touch(&key, now), "{at}: touch");
                    }
                }
            }
            assert_eq!(
                pool.drain_touches(),
                oracle.drain_touches(),
                "script {script}"
            );
        }
    }
}
