//! SNS-like publish/subscribe messaging.
//!
//! Caribou uses pub/sub as its "geospatial offloading glue" (§6.2): every
//! function deployment subscribes to one topic in its region, and a
//! predecessor invokes a successor by publishing to that topic. The model
//! captures publish overhead, cross-region transfer of the message payload,
//! and the at-least-once delivery with subscriber acknowledgment and
//! automatic retry the paper relies on for reliability. Retries back off
//! with exponential growth and decorrelated jitter (AWS guidance) rather
//! than a constant delay, and each attempt consults the active
//! [`FaultPlan`]: a down target region or an active pairwise partition
//! loses the attempt, and gray failures inflate the transfer latency.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::faults::FaultPlan;
use crate::latency::LatencyModel;
use crate::providers::{DeliveryKind, MessagingProfile};

/// A pub/sub topic identifier: one topic per (workflow, stage, region), as
/// in §6.1 step 2.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicKey {
    /// Workflow name.
    pub workflow: String,
    /// Stage (node) name.
    pub stage: String,
    /// Region the subscribed function deployment lives in.
    pub region: RegionId,
}

/// Handle of a created topic, issued by [`PubSub::create_topic`] and valid
/// for the service that issued it (compare [`PubSub::namespace`] before
/// reusing one held across services). Topics are never deleted, so a
/// handle stays good for the service's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopicId(u32);

/// How a publish attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Acknowledged by the subscriber within the profile's `max_attempts`.
    Delivered,
    /// All attempts lost; the message landed in the dead-letter queue.
    DeadLettered,
    /// The topic does not exist; the publish call itself was rejected.
    TopicMissing,
}

/// Outcome of delivering one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// End-to-end latency from publish to (acknowledged) delivery, seconds.
    pub latency_s: f64,
    /// Number of delivery attempts (1 = no retries needed).
    pub attempts: u32,
    /// How the publish ended.
    pub status: DeliveryStatus,
}

impl Delivery {
    /// Whether delivery ultimately succeeded.
    pub fn delivered(&self) -> bool {
        self.status == DeliveryStatus::Delivered
    }
}

/// The pub/sub service.
#[derive(Debug)]
pub struct PubSub {
    /// Distinguishes this service's handles from every other instance's.
    namespace: u64,
    /// Topic name → handle; `names[id]` is the reverse.
    topics: HashMap<TopicKey, TopicId>,
    names: Vec<TopicKey>,
    /// Published message counts per publishing region (indexed by
    /// [`RegionId::index`]).
    publishes: Vec<u64>,
    /// Faults consulted on every attempt: the plan's message-drop
    /// probability and its windowed faults (outages, partitions, gray
    /// failures) at the current fault clock [`PubSub::now_s`].
    pub faults: FaultPlan,
    /// Simulation time used to evaluate windowed faults. The engine
    /// positions this at the start of each invocation via
    /// `SimCloud::set_fault_now`.
    pub now_s: f64,
    /// Per-region messaging profiles (indexed by the subscriber region).
    pub(crate) profiles: Vec<MessagingProfile>,
    /// Per region, the log-space location of its publish overhead, taken
    /// once here rather than on every publish.
    publish_mu: Vec<f64>,
}

impl PubSub {
    /// Creates the service with no topics and one messaging profile per
    /// catalog region (indexed by the subscriber region).
    pub fn new(profiles: Vec<MessagingProfile>) -> Self {
        PubSub {
            namespace: crate::fresh_namespace(),
            topics: HashMap::new(),
            names: Vec::new(),
            publishes: vec![0; profiles.len()],
            faults: FaultPlan::none(),
            now_s: 0.0,
            publish_mu: profiles
                .iter()
                .map(|p| p.publish_overhead_median_s.ln())
                .collect(),
            profiles,
        }
    }

    /// Identity of this service instance: a [`TopicId`] may be used only
    /// with the service whose namespace it was issued under.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Creates a topic and returns its handle; idempotent (a topic that
    /// exists keeps the handle it was first given).
    pub fn create_topic(&mut self, key: TopicKey) -> TopicId {
        let next = TopicId(u32::try_from(self.names.len()).expect("fewer than 2^32 topics"));
        match self.topics.entry(key) {
            Entry::Occupied(topic) => *topic.get(),
            Entry::Vacant(slot) => {
                self.names.push(slot.key().clone());
                *slot.insert(next)
            }
        }
    }

    /// The handle of a topic, if it exists.
    pub fn topic_id(&self, key: &TopicKey) -> Option<TopicId> {
        self.topics.get(key).copied()
    }

    /// [`PubSub::publish_to`] by name. Publishing to a topic that does
    /// not exist returns a [`DeliveryStatus::TopicMissing`] outcome (the
    /// API call is rejected; nothing is billed) instead of aborting the
    /// process.
    pub fn publish(
        &mut self,
        key: &TopicKey,
        from: RegionId,
        payload_bytes: f64,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> Delivery {
        match self.topic_id(key) {
            Some(topic) => self.publish_to(topic, from, payload_bytes, latency, rng),
            None => {
                if caribou_telemetry::is_enabled() {
                    caribou_telemetry::event(
                        "pubsub.topic_missing",
                        &key.stage,
                        key.region.0 as f64,
                    );
                }
                Delivery {
                    latency_s: 0.0,
                    attempts: 0,
                    status: DeliveryStatus::TopicMissing,
                }
            }
        }
    }

    /// Publishes a message of `payload_bytes` from `from` to `topic`,
    /// simulating delivery to the topic's regional subscriber.
    ///
    /// Returns the delivery outcome; latency includes publish overhead,
    /// cross-region payload transfer, and any retry backoffs.
    pub fn publish_to(
        &mut self,
        topic: TopicId,
        from: RegionId,
        payload_bytes: f64,
        latency: &LatencyModel,
        rng: &mut Pcg32,
    ) -> Delivery {
        let telemetry = caribou_telemetry::is_enabled();
        let name = &self.names[topic.0 as usize];
        let (stage, region) = (&name.stage, name.region);
        self.publishes[from.index()] += 1;
        if telemetry {
            caribou_telemetry::event("pubsub.publish", stage, payload_bytes);
        }
        let profile = self.profiles[region.index()];
        let gray = self.faults.pair_latency_factor(from, region, self.now_s);
        let mut total = rng.lognormal(
            self.publish_mu[region.index()],
            profile.publish_overhead_sigma,
        );
        if let DeliveryKind::PushOrdered {
            ordering_delay_s, ..
        } = profile.delivery
        {
            // Ordered push delivery serializes within the subscription.
            total += ordering_delay_s;
        }
        let mut attempts = 0;
        let mut backoff = match profile.delivery {
            DeliveryKind::PullFanOut { backoff_base_s, .. } => backoff_base_s,
            DeliveryKind::PushOrdered { .. } => 0.0,
        };
        while attempts < profile.max_attempts {
            attempts += 1;
            total += latency.sample_transfer_seconds(from, region, payload_bytes, rng) * gray;
            let target_down = self.faults.region_down(region, self.now_s);
            let partitioned = self.faults.partitioned(from, region, self.now_s);
            let lost = target_down || partitioned || rng.chance(self.faults.message_drop_prob);
            if !lost {
                if telemetry {
                    caribou_telemetry::count("pubsub.ack", 1);
                    if attempts > 1 {
                        caribou_telemetry::event("pubsub.retry", stage, (attempts - 1) as f64);
                    }
                    caribou_telemetry::observe("pubsub.delivery_latency_s", total);
                }
                return Delivery {
                    latency_s: total,
                    attempts,
                    status: DeliveryStatus::Delivered,
                };
            }
            if telemetry {
                if target_down {
                    caribou_telemetry::count("fault.region_down_drop", 1);
                } else if partitioned {
                    caribou_telemetry::count("fault.partition_drop", 1);
                }
            }
            if attempts < profile.max_attempts {
                match profile.delivery {
                    DeliveryKind::PullFanOut {
                        backoff_base_s,
                        backoff_cap_s,
                    } => {
                        // Decorrelated jitter (AWS architecture blog): grow
                        // from the previous delay, never below the base,
                        // never above the cap.
                        backoff = rng
                            .uniform(backoff_base_s, backoff * 3.0)
                            .min(backoff_cap_s);
                        total += backoff;
                    }
                    DeliveryKind::PushOrdered { ack_deadline_s, .. } => {
                        // Push redelivery waits out the fixed ack deadline;
                        // no jitter draw.
                        total += ack_deadline_s;
                    }
                }
            }
        }
        if telemetry {
            caribou_telemetry::event("pubsub.dead_letter", stage, attempts as f64);
        }
        Delivery {
            latency_s: total,
            attempts,
            status: DeliveryStatus::DeadLettered,
        }
    }

    /// Total messages published.
    pub fn total_published(&self) -> u64 {
        self.publishes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::SimCloud;
    use caribou_model::region::RegionCatalog;

    fn setup() -> (RegionCatalog, LatencyModel, PubSub, Pcg32) {
        let cloud = SimCloud::aws(0);
        (cloud.regions, cloud.latency, cloud.pubsub, Pcg32::seed(1))
    }

    fn key(region: RegionId) -> TopicKey {
        TopicKey {
            workflow: "wf".into(),
            stage: "a".into(),
            region,
        }
    }

    #[test]
    fn publish_delivers_with_latency() {
        let (cat, lm, mut ps, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        ps.create_topic(key(r));
        let d = ps.publish(&key(r), r, 1024.0, &lm, &mut rng);
        assert!(d.delivered());
        assert_eq!(d.status, DeliveryStatus::Delivered);
        assert_eq!(d.attempts, 1);
        assert!(d.latency_s > 0.0);
    }

    #[test]
    fn cross_region_publish_slower() {
        let (cat, lm, mut ps, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        ps.create_topic(key(east));
        ps.create_topic(key(west));
        let n = 300;
        let mut local = 0.0;
        let mut remote = 0.0;
        for _ in 0..n {
            local += ps
                .publish(&key(east), east, 1024.0, &lm, &mut rng)
                .latency_s;
            remote += ps
                .publish(&key(west), east, 1024.0, &lm, &mut rng)
                .latency_s;
        }
        assert!(remote > local, "local {local} remote {remote}");
    }

    #[test]
    fn drops_trigger_retries() {
        let (cat, lm, mut ps, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        ps.create_topic(key(r));
        ps.faults.message_drop_prob = 0.5;
        let mut retried = 0;
        for _ in 0..200 {
            let d = ps.publish(&key(r), r, 128.0, &lm, &mut rng);
            if d.attempts > 1 && d.delivered() {
                retried += 1;
            }
        }
        assert!(retried > 30, "retried {retried}");
    }

    #[test]
    fn total_drop_dead_letters() {
        let (cat, lm, mut ps, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        ps.create_topic(key(r));
        ps.faults.message_drop_prob = 1.0;
        let d = ps.publish(&key(r), r, 128.0, &lm, &mut rng);
        assert!(!d.delivered());
        assert_eq!(d.status, DeliveryStatus::DeadLettered);
        assert_eq!(d.attempts, 5);
    }

    #[test]
    fn retry_backoff_has_jitter_and_respects_base() {
        let (cat, lm, mut ps, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        ps.create_topic(key(r));
        ps.faults.message_drop_prob = 1.0;
        let mut latencies = Vec::new();
        let DeliveryKind::PullFanOut {
            backoff_base_s,
            backoff_cap_s,
        } = ps.profiles[r.index()].delivery
        else {
            panic!("aws retries by pull fan-out");
        };
        for _ in 0..50 {
            let d = ps.publish(&key(r), r, 128.0, &lm, &mut rng);
            // Four backoffs of at least the base delay each.
            assert!(
                d.latency_s >= 4.0 * backoff_base_s,
                "latency {}",
                d.latency_s
            );
            // Four backoffs capped, plus generous overhead slack.
            assert!(d.latency_s < 4.0 * backoff_cap_s + 2.0);
            latencies.push(d.latency_s);
        }
        // Jitter: dead-letter latencies must not all collapse to one value.
        let min = latencies.iter().cloned().fold(f64::MAX, f64::min);
        let max = latencies.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 1.0, "min {min} max {max}");
    }

    #[test]
    fn push_ordered_profile_redelivers_on_ack_deadline() {
        let (cat, lm, _, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let mut ps = PubSub::new(vec![
            MessagingProfile {
                publish_overhead_median_s: 0.020,
                publish_overhead_sigma: 0.30,
                max_attempts: 5,
                delivery: DeliveryKind::PushOrdered {
                    ack_deadline_s: 1.0,
                    ordering_delay_s: 0.005,
                },
            };
            cat.len()
        ]);
        ps.create_topic(key(r));
        ps.faults.message_drop_prob = 1.0;
        let d = ps.publish(&key(r), r, 128.0, &lm, &mut rng);
        assert_eq!(d.status, DeliveryStatus::DeadLettered);
        assert_eq!(d.attempts, 5);
        // Four fixed ack-deadline waits dominate the latency; unlike the
        // jittered pull fan-out, repeated dead-letters cluster tightly.
        assert!(d.latency_s >= 4.0, "latency {}", d.latency_s);
        let mut latencies = Vec::new();
        for _ in 0..50 {
            latencies.push(ps.publish(&key(r), r, 128.0, &lm, &mut rng).latency_s);
        }
        let min = latencies.iter().cloned().fold(f64::MAX, f64::min);
        let max = latencies.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min < 1.0, "fixed deadlines: min {min} max {max}");
    }

    #[test]
    fn publish_to_missing_topic_returns_typed_status() {
        let (cat, lm, mut ps, mut rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        let d = ps.publish(&key(r), r, 128.0, &lm, &mut rng);
        assert_eq!(d.status, DeliveryStatus::TopicMissing);
        assert!(!d.delivered());
        assert_eq!(d.attempts, 0);
        // Rejected publishes are not billed.
        assert_eq!(ps.total_published(), 0);
    }

    #[test]
    fn outage_of_target_region_dead_letters() {
        let (cat, lm, mut ps, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let ca = cat.id_of("ca-central-1").unwrap();
        ps.create_topic(key(ca));
        ps.faults = FaultPlan::none().with_outage(ca, 100.0, 200.0);
        ps.now_s = 150.0;
        let d = ps.publish(&key(ca), east, 128.0, &lm, &mut rng);
        assert_eq!(d.status, DeliveryStatus::DeadLettered);
        assert_eq!(d.attempts, ps.profiles[ca.index()].max_attempts);
        ps.now_s = 250.0;
        let d = ps.publish(&key(ca), east, 128.0, &lm, &mut rng);
        assert!(d.delivered());
    }

    #[test]
    fn partition_loses_cross_pair_traffic_only() {
        let (cat, lm, mut ps, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        let ca = cat.id_of("ca-central-1").unwrap();
        ps.create_topic(key(west));
        ps.faults = FaultPlan::none().with_partition(east, west, 0.0, 1000.0);
        ps.now_s = 500.0;
        let d = ps.publish(&key(west), east, 128.0, &lm, &mut rng);
        assert_eq!(d.status, DeliveryStatus::DeadLettered);
        // The partitioned region still accepts traffic from other peers.
        let d = ps.publish(&key(west), ca, 128.0, &lm, &mut rng);
        assert!(d.delivered());
    }

    #[test]
    fn gray_failure_inflates_delivery_latency() {
        let (cat, lm, mut ps, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        ps.create_topic(key(west));
        let n = 200;
        let mut clean = 0.0;
        for _ in 0..n {
            clean += ps
                .publish(&key(west), east, 4096.0, &lm, &mut rng)
                .latency_s;
        }
        ps.faults = FaultPlan::none().with_gray_failure(west, 0.0, 1e9, 5.0);
        let mut gray = 0.0;
        for _ in 0..n {
            gray += ps
                .publish(&key(west), east, 4096.0, &lm, &mut rng)
                .latency_s;
        }
        assert!(gray > clean * 1.5, "clean {clean} gray {gray}");
    }

    #[test]
    fn publish_counts_per_region() {
        let (cat, lm, mut ps, mut rng) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        ps.create_topic(key(east));
        ps.publish(&key(east), east, 1.0, &lm, &mut rng);
        ps.publish(&key(east), west, 1.0, &lm, &mut rng);
        ps.publish(&key(east), west, 1.0, &lm, &mut rng);
        assert_eq!(ps.publishes[east.index()], 1);
        assert_eq!(ps.publishes[west.index()], 2);
        assert_eq!(ps.total_published(), 3);
    }

    #[test]
    fn publish_by_name_is_publish_to_its_handle() {
        let (cat, lm, mut named, mut rng_n) = setup();
        let (_, _, mut handled, mut rng_h) = setup();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-1").unwrap();
        named.create_topic(key(west));
        let topic = handled.create_topic(key(west));
        assert_eq!(handled.create_topic(key(west)), topic, "idempotent");
        assert_eq!(handled.topic_id(&key(west)), Some(topic));
        assert_ne!(handled.create_topic(key(east)), topic);
        named.faults.message_drop_prob = 0.3;
        handled.faults.message_drop_prob = 0.3;
        for _ in 0..50 {
            let by_name = named.publish(&key(west), east, 2048.0, &lm, &mut rng_n);
            let by_handle = handled.publish_to(topic, east, 2048.0, &lm, &mut rng_h);
            assert_eq!(by_name, by_handle);
        }
        assert_eq!(named.publishes, handled.publishes);
        assert_ne!(named.namespace(), handled.namespace());
    }

    #[test]
    fn topic_lifecycle() {
        let (cat, _lm, mut ps, _rng) = setup();
        let r = cat.id_of("us-east-1").unwrap();
        assert!(ps.topic_id(&key(r)).is_none());
        let topic = ps.create_topic(key(r));
        assert_eq!(ps.topic_id(&key(r)), Some(topic));
    }
}
