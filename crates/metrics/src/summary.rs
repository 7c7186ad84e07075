//! Distribution summaries for end-to-end metric estimation.
//!
//! The Monte Carlo estimator reports each metric as a distribution whose
//! mean is the "average case" used for ordering deployment plans and whose
//! 95th percentile is the "tail case" used for tolerance checks (§7.1).

/// Summary statistics of a sampled metric distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Sample mean ("average case").
    pub mean: f64,
    /// 95th percentile ("tail case").
    pub p95: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Number of samples.
    pub n: usize,
}

impl DistSummary {
    /// Builds the summary from raw samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let moments = Moments::of(samples, samples.iter().sum());
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        moments.summary(percentile_sorted(&sorted, 0.95), samples.len())
    }

    /// Relative standard error of the sample mean; the Monte Carlo loop
    /// stops when this drops below its threshold for every metric.
    pub fn rel_std_error(&self) -> f64 {
        rel_std_error(self.mean, self.std_dev, self.n as f64)
    }
}

fn rel_std_error(mean: f64, std_dev: f64, n: f64) -> f64 {
    if mean.abs() < 1e-30 {
        return 0.0;
    }
    std_dev / (mean.abs() * n.sqrt())
}

/// Running mean, variance and relative standard error of a metric column
/// at one stopping-rule boundary — what both halves of an estimate (the
/// fold's latency and cost, the pricing pass's carbon) test and report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Sample mean.
    pub mean: f64,
    /// Population variance about that mean.
    pub var: f64,
    /// Relative standard error of the mean.
    pub rse: f64,
}

impl Moments {
    /// The moments of `col`, whose left-fold sum in sample order is `sum`
    /// (kept running by the caller, so a boundary costs one pass).
    pub fn of(col: &[f64], sum: f64) -> Self {
        let n = col.len() as f64;
        let mean = sum / n;
        let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Moments {
            mean,
            var,
            rse: rel_std_error(mean, var.sqrt(), n),
        }
    }

    /// The reported summary of the `n` samples these moments are of.
    pub fn summary(&self, p95: f64, n: usize) -> DistSummary {
        DistSummary {
            mean: self.mean,
            p95,
            std_dev: self.var.sqrt(),
            n,
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// [`percentile_sorted`] of `samples` without sorting them: selects the
/// two order statistics it interpolates between, leaving the slice
/// partitioned around them. Bit-identical to sorting by `total_cmp` first.
pub fn percentile_select(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, at_lo, above) = samples.select_nth_unstable_by(lo, f64::total_cmp);
    if pos.ceil() as usize == lo {
        *at_lo
    } else {
        // The next order statistic is the least of what sorts after `lo`.
        let at_hi = above.iter().copied().min_by(f64::total_cmp);
        let frac = pos - lo as f64;
        *at_lo * (1.0 - frac) + at_hi.expect("ceil(pos) is in range") * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_select_is_bit_identical_to_sorting() {
        use caribou_model::rng::Pcg32;
        let mut rng = Pcg32::seed(5);
        let mut cases: Vec<Vec<f64>> = [1usize, 2, 20, 21, 200, 2_000]
            .iter()
            .map(|&n| (0..n).map(|_| rng.lognormal(0.0, 0.8)).collect())
            .collect();
        // Ties at, below and above the selected ranks, and signed zeros.
        cases.push(vec![2.0; 200]);
        cases.push((0..200).map(|i| (i / 10) as f64).collect());
        cases.push((0..200).map(|i| (i % 3) as f64).collect());
        cases.push(vec![0.0, -0.0, 0.0, -0.0, 1.0]);
        for samples in cases {
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.5, 0.95, 0.999, 1.0] {
                let selected = percentile_select(&mut samples.clone(), q);
                assert_eq!(
                    selected.to_bits(),
                    percentile_sorted(&sorted, q).to_bits(),
                    "n = {}, q = {q}",
                    samples.len()
                );
            }
        }
    }

    #[test]
    fn summary_of_constant_samples() {
        let s = DistSummary::from_samples(&[3.0; 100]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p95, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.rel_std_error(), 0.0);
    }

    #[test]
    fn percentile_of_uniform_grid() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![0.0, 10.0];
        assert!((percentile_sorted(&v, 0.5) - 5.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 0.95) - 9.5).abs() < 1e-9);
    }

    #[test]
    fn rel_std_error_shrinks_with_n() {
        use caribou_model::rng::Pcg32;
        let mut rng = Pcg32::seed(1);
        let small: Vec<f64> = (0..100).map(|_| rng.normal(10.0, 2.0)).collect();
        let big: Vec<f64> = (0..10_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let s = DistSummary::from_samples(&small);
        let b = DistSummary::from_samples(&big);
        assert!(b.rel_std_error() < s.rel_std_error());
    }

    #[test]
    fn p95_above_mean_for_skewed_samples() {
        use caribou_model::rng::Pcg32;
        let mut rng = Pcg32::seed(2);
        let v: Vec<f64> = (0..5000).map(|_| rng.lognormal(0.0, 0.8)).collect();
        let s = DistSummary::from_samples(&v);
        assert!(s.p95 > s.mean);
    }

    #[test]
    #[should_panic]
    fn empty_samples_panic() {
        DistSummary::from_samples(&[]);
    }
}
