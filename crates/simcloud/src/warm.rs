//! Warm-container pool for state-dependent cold starts.
//!
//! The default compute model charges cold starts probabilistically; this
//! pool makes them *stateful*: a function deployment is warm while
//! invocations arrive within its keep-alive window and cold after idling
//! past it — so freshly offloaded regions pay cold starts until traffic
//! warms them up, exactly the transient a migration causes in production.
//!
//! For sharded simulation (see `caribou_core::loadgen`), a pool can
//! journal its touches: each shard drains its journal at a tick boundary
//! ([`WarmPool::drain_touches`], sorted by key so the exchange order is
//! deterministic) and absorbs every other shard's touches with
//! [`WarmPool::absorb_touch`], which max-merges timestamps so the pools
//! converge to the same state regardless of which shard saw a deployment
//! last.

use std::collections::BTreeMap;
use std::collections::HashMap;

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
/// assert!(pool.check_and_touch(&wf, 0, RegionId(0), 2000.0)); // idle → cold
/// ```
#[derive(Debug, Clone)]
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
    last_seen: HashMap<(IStr, u32, RegionId), SimTime>,
    /// When journaling, local touches since the last drain, keyed for a
    /// deterministic drain order.
    journal: Option<BTreeMap<(IStr, u32, RegionId), SimTime>>,
}

impl Default for WarmPool {
    fn default() -> Self {
        WarmPool {
            enabled: false,
            keep_alive_s: DEFAULT_KEEP_ALIVE_S,
            keep_alive_per_region: Vec::new(),
            last_seen: HashMap::new(),
            journal: None,
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

    /// The keep-alive window governing a region.
    pub fn keep_alive_for(&self, region: RegionId) -> f64 {
        self.keep_alive_per_region
            .get(region.index())
            .copied()
            .unwrap_or(self.keep_alive_s)
    }

    /// Turns touch journaling on or off (off discards any pending
    /// journal). Sharded loadgen enables it to exchange touches between
    /// shards at tick boundaries.
    pub fn set_journaling(&mut self, on: bool) {
        self.journal = if on { Some(BTreeMap::new()) } else { None };
    }

    /// Whether an invocation of `(workflow, node, region)` at `now` is a
    /// cold start, and records the invocation.
    ///
    /// The recorded last-seen time only moves forward: with open-loop
    /// overlapping invocations a shorter invocation can report an earlier
    /// `now` after a longer one already advanced the container, and
    /// letting it rewind would resurrect already-expired idle windows.
    pub fn check_and_touch(
        &mut self,
        workflow: &IStr,
        node: u32,
        region: RegionId,
        now: SimTime,
    ) -> bool {
        let keep_alive = self.keep_alive_for(region);
        let key = (workflow.clone(), node, region);
        // One hash walk decides cold vs warm and max-merges the touch.
        let (cold, seen) = match self.last_seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let last = *e.get();
                if now > last {
                    *e.get_mut() = now;
                }
                (now - last > keep_alive, last.max(now))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(now);
                (true, now)
            }
        };
        if let Some(journal) = self.journal.as_mut() {
            let j = journal
                .entry((workflow.clone(), node, region))
                .or_insert(seen);
            if seen > *j {
                *j = seen;
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

    /// Peeks without recording.
    pub fn is_cold(&self, workflow: &IStr, node: u32, region: RegionId, now: SimTime) -> bool {
        match self.last_seen.get(&(workflow.clone(), node, region)) {
            Some(last) => now - last > self.keep_alive_for(region),
            None => true,
        }
    }

    /// Drains the touch journal in sorted key order. Empty when
    /// journaling is off or nothing was touched since the last drain.
    pub fn drain_touches(&mut self) -> Vec<WarmTouch> {
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

    /// Absorbs a touch from another shard: max-merges the last-seen time
    /// without counting telemetry or re-journaling, so exchanges don't
    /// echo back and forth.
    pub fn absorb_touch(&mut self, touch: &WarmTouch) {
        let key = (touch.workflow.clone(), touch.node, touch.region);
        let slot = self.last_seen.entry(key).or_insert(touch.at);
        if touch.at > *slot {
            *slot = touch.at;
        }
    }

    /// Forgets all container state (e.g. after an undeploy).
    pub fn clear(&mut self) {
        self.last_seen.clear();
        if let Some(journal) = self.journal.as_mut() {
            journal.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(p.is_cold(&wf(), 0, RegionId(0), 601.0));
        assert!(!p.is_cold(&wf(), 0, RegionId(0), 599.0));
        assert!(p.check_and_touch(&wf(), 0, RegionId(0), 1000.0));
    }

    #[test]
    fn deployments_are_independent() {
        let mut p = WarmPool::enabled(600.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        assert!(p.is_cold(&wf(), 1, RegionId(0), 1.0), "other node cold");
        assert!(p.is_cold(&wf(), 0, RegionId(1), 1.0), "other region cold");
        assert!(
            p.is_cold(&IStr::from("other"), 0, RegionId(0), 1.0),
            "other workflow cold"
        );
    }

    #[test]
    fn per_region_keep_alive_decays_faster() {
        let mut p = WarmPool::per_region(vec![600.0, 240.0]);
        p.enabled = true;
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        p.check_and_touch(&wf(), 0, RegionId(1), 0.0);
        // At t=300 the default region is still warm; the fast-decay
        // region has already been reclaimed.
        assert!(!p.is_cold(&wf(), 0, RegionId(0), 300.0));
        assert!(p.is_cold(&wf(), 0, RegionId(1), 300.0));
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
        assert!(!p.is_cold(&wf(), 0, RegionId(0), 590.0));
        assert!(p.is_cold(&wf(), 0, RegionId(0), 601.0));
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
        assert_eq!(touches[0].workflow, "a");
        assert_eq!(touches[0].at, 35.0);
        assert_eq!(touches[1].workflow, "b");
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
        assert!(!a.is_cold(&wf(), 0, RegionId(0), 100.0));
        // Absorbed touches don't echo back out of the journal.
        assert!(a.drain_touches().is_empty());
        // Max-merge: an older absorbed touch doesn't rewind.
        a.check_and_touch(&wf(), 0, RegionId(0), 400.0);
        a.absorb_touch(&WarmTouch { at: 60.0, ..touch });
        assert!(!a.is_cold(&wf(), 0, RegionId(0), 900.0));
    }

    #[test]
    fn clear_resets_state() {
        let mut p = WarmPool::enabled(600.0);
        p.check_and_touch(&wf(), 0, RegionId(0), 0.0);
        p.clear();
        assert!(p.is_cold(&wf(), 0, RegionId(0), 1.0));
    }
}
