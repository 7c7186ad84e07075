//! A fixed piece of reference work, timed at every lap boundary, that
//! takes the host's own speed changes out of the two host-time metrics.
//!
//! The defining host is a small shared VM. With nothing else running in
//! it, the same lap takes 0.82 s one minute and 1.3 s the next, for tens
//! of seconds at a time, and CPU time (`schedstat`) moves with wall time,
//! so it is no steadier. Median-lap throughput of ten runs spread by
//! 16-31%, more than any bound the driver accepts. A short reference loop
//! (hashing, floating point and a cache-resident table; std only, nothing
//! of the repository) slows down at the same moments, so host times are
//! reported *at reference speed*: multiplied by [`REFERENCE_S`] over what
//! the loop took in this run. Interference only ever slows a lap, so
//! throughput is read off the fastest lap and the fast end of the
//! reference samples; set-up, far shorter than a reference sample, off
//! the median of both. Sim metrics are never scaled.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// What one reference sample takes on the defining host when it is quiet.
/// Host times are reported for a host of exactly this speed.
pub const REFERENCE_S: f64 = 0.0075;

/// Reference samples per lap boundary.
const SAMPLES: usize = 8;

/// Runs the reference work once and returns its host seconds.
fn sample_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![1.0f64; 4096];
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(2048);
    let mut acc = 0.0f64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64 + 1e-12;
        let v = (-2.0 * u.ln()).sqrt() * (0.1 * u).exp();
        let slot = (x as usize) & 4095;
        table[slot] = table[slot] * 0.5 + v;
        acc += table[(slot + 17) & 4095];
        let key = x & 1023;
        if i & 1 == 0 {
            *map.entry(key).or_insert(0) += 1;
        } else {
            map.remove(&key);
        }
    }
    black_box((acc, map.len()));
    t.elapsed().as_secs_f64()
}

/// The reference samples of one run.
#[derive(Debug, Default)]
pub struct Reference {
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times the reference work at a lap boundary (about 60 ms).
    pub fn at_boundary(&mut self) {
        self.samples.extend((0..SAMPLES).map(|_| sample_s()));
    }

    /// Factor that brings a host time measured in the run's *fastest*
    /// moments to reference speed: [`REFERENCE_S`] over the 10th
    /// percentile sample (steadier than the single fastest one).
    pub fn fast_scale(&self) -> f64 {
        scale(&self.samples, 0.10)
    }

    /// The same for a time measured at the run's *typical* speed.
    pub fn median_scale(&self) -> f64 {
        scale(&self.samples, 0.50)
    }
}

fn scale(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    REFERENCE_S / stats::percentile_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_scales_nothing() {
        assert_eq!(scale(&[REFERENCE_S; 16], 0.10), 1.0);
        assert_eq!(scale(&[REFERENCE_S; 16], 0.50), 1.0);
    }

    #[test]
    fn a_slow_host_has_its_times_shortened() {
        // The loop takes twice the reference time: a 3 s lap would have
        // taken 1.5 s at reference speed.
        let slow = [2.0 * REFERENCE_S; 16];
        assert_eq!(3.0 * scale(&slow, 0.10), 1.5);
    }

    #[test]
    fn fast_scale_reads_the_fast_end_and_median_scale_the_middle() {
        // Two samples in ten at full speed, the rest 50% slower.
        let mut samples = vec![1.5 * REFERENCE_S; 20];
        samples[3] = REFERENCE_S;
        samples[11] = REFERENCE_S;
        assert_eq!(scale(&samples, 0.10), 1.0);
        assert_eq!(scale(&samples, 0.50), 1.0 / 1.5);
    }

    #[test]
    fn the_reference_work_takes_time() {
        let mut r = Reference::new();
        r.at_boundary();
        assert!(r.fast_scale() > 0.0 && r.fast_scale() >= r.median_scale());
    }
}
