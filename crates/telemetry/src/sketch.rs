//! Mergeable streaming aggregates for sustained-load metrics.
//!
//! The sustained-load harness (`caribou loadgen`) used to collect one
//! exact `f64` per invocation, which made report memory grow linearly
//! with the invocation count. This module provides the O(buckets)
//! replacement:
//!
//! * [`Moments`] — exact running count/sum/mean/M2 (Welford update,
//!   Chan's parallel merge), so means and variances are not sketched;
//! * [`QuantileSketch`] — a log-linear histogram ([`SUB_BUCKETS`] linear
//!   sub-buckets per power-of-two octave) with a deterministic merge; also
//!   the histogram type of the telemetry [`crate::recorder::Recorder`].
//!
//! Both types merge deterministically: merging the same operands in the
//! same order is bit-reproducible, and the bucket counts, `count`,
//! `min`, and `max` are exactly order-insensitive (integer adds and
//! min/max folds). Only the floating-point moment fields depend on the
//! merge order, which is why callers fold shard outputs in a fixed
//! order (see `caribou_core::loadgen`).

/// Lower bound of bucket 0 — 1 nanosecond when observations are seconds.
pub const MIN_BUCKET: f64 = 1e-9;

/// Linear sub-buckets per power-of-two octave. The relative width of one
/// bucket — and therefore the worst-case relative quantile error — is
/// `1 / SUB_BUCKETS` (6.25%).
pub const SUB_BUCKETS: usize = 16;

/// Octaves covered: `[MIN_BUCKET, MIN_BUCKET * 2^64)`, i.e. 1 ns to ~584
/// years when observations are seconds.
pub const OCTAVES: usize = 64;

/// Total bucket count of a [`QuantileSketch`].
pub const SKETCH_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Exact running moments: count, sum, mean and M2 (sum of squared
/// deviations from the mean), maintained with Welford's update and
/// merged with Chan's parallel formula.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    /// Number of observations.
    pub count: u64,
    /// Plain running sum (fold-order dependent in the last bits).
    pub sum: f64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Merges another accumulator into this one (Chan et al.). The result
    /// is deterministic for a fixed merge order; merging in a different
    /// order may change the last floating-point bits.
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n_a = self.count as f64;
        let n_b = other.count as f64;
        let n = n_a + n_b;
        let delta = other.mean - self.mean;
        self.mean += delta * (n_b / n);
        self.m2 += other.m2 + delta * delta * (n_a * n_b / n);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }
}

/// A mergeable log-linear quantile sketch with exact running moments.
///
/// Memory is O([`SKETCH_BUCKETS`]) — independent of the observation
/// count — and every aggregate except the floating-point moments merges
/// exactly (integer bucket adds, min/max folds).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    buckets: Box<[u64; SKETCH_BUCKETS]>,
    /// Exact running moments over every observation.
    pub moments: Moments,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: Box::new([0; SKETCH_BUCKETS]),
            moments: Moments::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a value. NaN and anything at or below the floor
    /// land in bucket 0; overflow clamps to the last bucket.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= MIN_BUCKET {
            return 0;
        }
        let octave = (value / MIN_BUCKET).log2().floor() as i64;
        let octave = octave.clamp(0, OCTAVES as i64 - 1) as usize;
        let lo = Self::octave_lo(octave);
        let sub = ((value / lo - 1.0) * SUB_BUCKETS as f64).floor() as i64;
        let sub = sub.clamp(0, SUB_BUCKETS as i64 - 1) as usize;
        octave * SUB_BUCKETS + sub
    }

    fn octave_lo(octave: usize) -> f64 {
        MIN_BUCKET * (2f64).powi(octave as i32)
    }

    /// Lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> f64 {
        let lo = Self::octave_lo(i / SUB_BUCKETS);
        lo * (1.0 + (i % SUB_BUCKETS) as f64 / SUB_BUCKETS as f64)
    }

    /// Upper bound of bucket `i`.
    pub fn bucket_hi(i: usize) -> f64 {
        let lo = Self::octave_lo(i / SUB_BUCKETS);
        lo * (1.0 + (i % SUB_BUCKETS + 1) as f64 / SUB_BUCKETS as f64)
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.moments.observe(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another sketch into this one. Bucket counts, `count`,
    /// `min`, and `max` merge exactly regardless of order; the moments
    /// are deterministic for a fixed fold order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.moments.merge(&other.moments);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.moments.count
    }

    /// Observation count per bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets[..]
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (exact, from the running moments).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Nearest-rank quantile estimate: the midpoint of the bucket holding
    /// the q-th observation, clamped to the observed min/max. The
    /// estimate is within one bucket's relative width (`1 / SUB_BUCKETS`)
    /// of the exact nearest-rank value.
    ///
    /// `q` outside `[0, 1]` is clamped; a non-finite `q` (NaN, ±inf does
    /// not order against the rank ladder) returns NaN instead of silently
    /// mapping to an extreme rank. An empty sketch returns 0.0 for every
    /// finite `q`, consistent with [`QuantileSketch::mean`].
    pub fn quantile(&self, q: f64) -> f64 {
        if !q.is_finite() {
            return f64::NAN;
        }
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = (Self::bucket_lo(i) + Self::bucket_hi(i)) / 2.0;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_consistent() {
        // Exact boundary values can round into a neighbor; the midpoint of
        // every bucket must map back to that bucket.
        for i in (SUB_BUCKETS + 1)..(SKETCH_BUCKETS - 1) {
            let lo = QuantileSketch::bucket_lo(i);
            let hi = QuantileSketch::bucket_hi(i);
            assert!(hi > lo, "bucket {i} is non-empty");
            let mid = (lo + hi) / 2.0;
            assert_eq!(QuantileSketch::bucket_index(mid), i, "mid of bucket {i}");
        }
    }

    #[test]
    fn degenerate_values_land_in_bucket_zero() {
        assert_eq!(QuantileSketch::bucket_index(0.0), 0);
        assert_eq!(QuantileSketch::bucket_index(-1.0), 0);
        assert_eq!(QuantileSketch::bucket_index(f64::NAN), 0);
        assert_eq!(QuantileSketch::bucket_index(MIN_BUCKET), 0);
        assert_eq!(QuantileSketch::bucket_index(MIN_BUCKET / 2.0), 0);
        assert_eq!(
            QuantileSketch::bucket_index(f64::INFINITY),
            SKETCH_BUCKETS - 1
        );
    }

    #[test]
    fn moments_match_direct_computation() {
        let values = [1.0, 2.5, 0.25, 9.0, 4.0, 4.0, 0.125];
        let mut m = Moments::new();
        for v in values {
            m.observe(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.count, values.len() as u64);
    }

    #[test]
    fn moments_merge_matches_single_stream() {
        let mut whole = Moments::new();
        let mut a = Moments::new();
        let mut b = Moments::new();
        for i in 0..1000 {
            let v = (i as f64 * 0.37).sin() + 2.0;
            whole.observe(v);
            if i < 400 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::new();
        m.observe(3.0);
        let before = m;
        m.merge(&Moments::new());
        assert_eq!(m, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantile_error_is_within_one_bucket() {
        let mut s = QuantileSketch::new();
        let mut exact: Vec<f64> = Vec::new();
        let mut x = 0.017f64;
        for _ in 0..5000 {
            x = (x * 1.0003).fract() * 40.0 + 0.01;
            s.observe(x);
            exact.push(x);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = s.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 1.0 / SUB_BUCKETS as f64 + 1e-9, "q={q} rel={rel}");
        }
    }

    #[test]
    fn sketch_merge_bucket_counts_are_order_insensitive() {
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for p in 0..4 {
            let mut s = QuantileSketch::new();
            for i in 0..200 {
                s.observe(((p * 200 + i) as f64 * 0.11).cos().abs() * 30.0 + 0.5);
            }
            parts.push(s);
        }
        let mut fwd = QuantileSketch::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = QuantileSketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.buckets, rev.buckets);
        assert_eq!(fwd.count(), rev.count());
        assert_eq!(fwd.min().to_bits(), rev.min().to_bits());
        assert_eq!(fwd.max().to_bits(), rev.max().to_bits());
        // Identical fold order is bit-reproducible including moments.
        let mut again = QuantileSketch::new();
        for p in &parts {
            again.merge(p);
        }
        assert_eq!(fwd.mean().to_bits(), again.mean().to_bits());
        assert_eq!(
            fwd.moments.variance().to_bits(),
            again.moments.variance().to_bits()
        );
    }

    #[test]
    fn quantile_rejects_non_finite_q_and_clamps_range() {
        let mut s = QuantileSketch::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.observe(v);
        }
        assert!(s.quantile(f64::NAN).is_nan());
        assert!(s.quantile(f64::INFINITY).is_nan());
        assert!(s.quantile(f64::NEG_INFINITY).is_nan());
        // Out-of-range finite q clamps instead of under/overflowing ranks.
        assert_eq!(s.quantile(-3.0).to_bits(), s.quantile(0.0).to_bits());
        assert_eq!(s.quantile(7.0).to_bits(), s.quantile(1.0).to_bits());
    }

    #[test]
    fn empty_sketch_is_all_zeroes() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn constant_observations_pin_every_quantile() {
        let mut s = QuantileSketch::new();
        for _ in 0..100 {
            s.observe(3.25);
        }
        assert_eq!(s.quantile(0.5), 3.25);
        assert_eq!(s.quantile(0.99), 3.25);
        assert_eq!(s.mean(), 3.25);
    }
}
