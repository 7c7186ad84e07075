//! The [`Recorder`]: counters, gauges, log-linear histograms
//! ([`QuantileSketch`]) and the bounded ring-buffer event journal.
//!
//! All aggregate state lives in `BTreeMap`s keyed by `&'static str` so that
//! every exported view iterates in a deterministic order.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::sketch::QuantileSketch;

/// A journal entry keyed on virtual sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual sim time (seconds since sim epoch) at which this happened.
    pub t_s: f64,
    /// Dotted event kind, e.g. `pubsub.retry` or `kv.rmw_conflict`.
    pub kind: &'static str,
    /// Short free-form context (region name, node name, …).
    pub label: String,
    /// Numeric payload (bytes, attempt number, temperature, …).
    pub value: f64,
}

/// Bounded ring buffer of [`Event`]s. When full, the oldest entry is
/// dropped and counted.
#[derive(Debug, Default)]
pub struct Journal {
    entries: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Journal {
    pub fn new(capacity: usize) -> Self {
        Journal {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(event);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.entries.iter()
    }
}

/// Aggregating recorder: counters, gauges, histograms and the journal.
#[derive(Debug, Default)]
pub struct Recorder {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, f64>,
    pub histograms: BTreeMap<&'static str, QuantileSketch>,
    pub journal: Journal,
}

impl Recorder {
    pub fn new(journal_capacity: usize) -> Self {
        Recorder {
            journal: Journal::new(journal_capacity),
            ..Default::default()
        }
    }

    pub fn count(&mut self, key: &'static str, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    pub fn gauge(&mut self, key: &'static str, value: f64) {
        self.gauges.insert(key, value);
    }

    pub fn observe(&mut self, key: &'static str, value: f64) {
        self.histograms.entry(key).or_default().observe(value);
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SKETCH_BUCKETS;

    // The recorder's histograms are sketches; what the summary and the
    // fork/absorb merge rely on is pinned here, next to the recorder.

    #[test]
    fn overflow_clamps_to_last_bucket() {
        assert_eq!(QuantileSketch::bucket_index(1e30), SKETCH_BUCKETS - 1);
        assert_eq!(
            QuantileSketch::bucket_index(f64::INFINITY),
            SKETCH_BUCKETS - 1
        );
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = QuantileSketch::new();
        for v in [0.5, 1.5, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.moments.sum - 8.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 4.0);
    }

    #[test]
    fn quantile_estimates_bracket_the_distribution() {
        let mut h = QuantileSketch::new();
        for _ in 0..50 {
            h.observe(1.0);
        }
        for _ in 0..50 {
            h.observe(1000.0);
        }
        // The two modes sit ~10 octaves apart; each estimate stays within
        // one sub-bucket (6.25%) of its mode.
        let p25 = h.quantile(0.25);
        assert!((1.0..=1.0625).contains(&p25), "p25 {p25}");
        let p90 = h.quantile(0.9);
        assert!((940.0..=1000.0).contains(&p90), "p90 {p90}");
        // Clamped to observed extremes.
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn merge_matches_single_stream_and_ignores_order_for_counts() {
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..200 {
            let v = 0.001 * (i as f64 + 1.0) * 1.7;
            whole.observe(v);
            if i % 3 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.buckets(), whole.buckets());
        assert_eq!(ab.count(), whole.count());
        assert_eq!(ab.min(), whole.min());
        assert_eq!(ab.max(), whole.max());
        assert!((ab.moments.sum - whole.moments.sum).abs() < 1e-9);
        // Integer/min/max state is order-insensitive.
        assert_eq!(ab.buckets(), ba.buckets());
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.min().to_bits(), ba.min().to_bits());
        assert_eq!(ab.max().to_bits(), ba.max().to_bits());
    }

    #[test]
    fn merge_with_empty_histogram_is_identity() {
        let mut h = QuantileSketch::new();
        h.observe(2.0);
        let before = h.clone();
        h.merge(&QuantileSketch::new());
        assert_eq!(h.buckets(), before.buckets());
        assert_eq!(h.moments, before.moments);
        assert_eq!((h.min(), h.max()), (before.min(), before.max()));
        let mut e = QuantileSketch::new();
        e.merge(&before);
        assert_eq!(e.buckets(), before.buckets());
        assert_eq!(e.moments, before.moments);
        assert_eq!((e.min(), e.max()), (before.min(), before.max()));
    }

    fn ev(i: usize) -> Event {
        Event {
            t_s: i as f64,
            kind: "test.event",
            label: format!("e{i}"),
            value: i as f64,
        }
    }

    #[test]
    fn journal_wraps_dropping_oldest() {
        let mut j = Journal::new(4);
        for i in 0..10 {
            j.push(ev(i));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let kept: Vec<String> = j.iter().map(|e| e.label.clone()).collect();
        assert_eq!(kept, ["e6", "e7", "e8", "e9"]);
    }

    #[test]
    fn journal_under_capacity_keeps_everything() {
        let mut j = Journal::new(100);
        for i in 0..10 {
            j.push(ev(i));
        }
        assert_eq!(j.len(), 10);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.iter().count(), 10);
    }

    #[test]
    fn zero_capacity_journal_drops_all() {
        let mut j = Journal::new(0);
        j.push(ev(0));
        j.push(ev(1));
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn recorder_counters_gauges_histograms() {
        let mut r = Recorder::new(16);
        r.count("a", 2);
        r.count("a", 3);
        r.gauge("g", 1.0);
        r.gauge("g", 7.5);
        r.observe("h", 0.25);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauges["g"], 7.5);
        assert_eq!(r.histograms["h"].count(), 1);
    }
}
