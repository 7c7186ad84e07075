//! Distribution summaries for end-to-end metric estimation.
//!
//! The Monte Carlo estimator reports each metric as a distribution whose
//! mean is the "average case" used for ordering deployment plans and whose
//! 95th percentile is the "tail case" used for tolerance checks (§7.1).

use crate::wide;

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
        Moments::new(mean, var, n)
    }

    /// [`Moments::of`] two columns of one length, their variances summed
    /// in one loop, each in sample order.
    pub(crate) fn of_pair((xs, x_sum): (&[f64], f64), (ys, y_sum): (&[f64], f64)) -> (Self, Self) {
        let n = xs.len() as f64;
        let ys = &ys[..xs.len()];
        let (x_mean, y_mean) = (x_sum / n, y_sum / n);
        // A square is never `-0.0`: starting at `0.0` adds what `Sum`
        // adds, whichever zero it starts at.
        let (mut x_sq, mut y_sq) = (0.0, 0.0);
        for i in 0..xs.len() {
            x_sq += (xs[i] - x_mean).powi(2);
            y_sq += (ys[i] - y_mean).powi(2);
        }
        (
            Moments::new(x_mean, x_sq / n, n),
            Moments::new(y_mean, y_sq / n, n),
        )
    }

    fn new(mean: f64, var: f64, n: f64) -> Self {
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

/// [`percentile_sorted`]`(·, 0.95)` of `col` — whose moments are `m` —
/// without sorting, copying or reordering it, bit for bit: selected among
/// the samples at or above `m.mean + σ`, in `keys` (scratch, grown to the
/// column's length once).
///
/// The samples at or above a floor in `f64::total_cmp` order are the top
/// `k` of the column, so when `k ≥ n − ⌊0.95(n−1)⌋` they hold both order
/// statistics the percentile interpolates between, at their ranks less
/// `n − k`. A column with fewer there (few do: more than a twentieth of a
/// skewed column lies a σ above its mean) is selected in full.
pub(crate) fn p95(col: &[f64], m: &Moments, keys: &mut Vec<i64>) -> f64 {
    tail(col, m.mean + m.var.sqrt(), keys).0
}

/// Which samples [`tail`] selected among.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Among {
    AtOrAbove,
    All,
}

/// [`p95`] with an explicit floor, and the keys it selected among.
fn tail(col: &[f64], floor: f64, keys: &mut Vec<i64>) -> (f64, Among) {
    let n = col.len();
    assert!(n > 0, "no samples");
    let pos = 0.95 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    if keys.len() < n {
        keys.resize(n, 0);
    }
    let keys = &mut keys[..n];
    let (len, among) = wide::run(KeyPass {
        col,
        floor: key(floor),
        need: n - lo,
        keys,
    });
    let (keys, rank) = (&mut keys[..len], lo - (n - len));
    let (_, at_lo, rest) = keys.select_nth_unstable(rank);
    let at_lo = from_key(*at_lo);
    if pos.ceil() as usize == lo {
        return (at_lo, among);
    }
    // The next order statistic is the least of what sorts after `lo`.
    let at_hi = from_key(*rest.iter().min().expect("ceil(pos) is in range"));
    let frac = pos - lo as f64;
    (at_lo * (1.0 - frac) + at_hi * frac, among)
}

/// [`tail`]'s key pass: writes to the front of `keys` the keys of `col`'s
/// samples at or above `floor`, in sample order, when there are at least
/// `need` of them, else every sample's key. `call` returns how many keys
/// that is, and which.
///
/// The first loop stores at a moving index, which vectorises at no width;
/// the second, rarely taken, does at every width.
struct KeyPass<'a> {
    col: &'a [f64],
    floor: i64,
    need: usize,
    keys: &'a mut [i64],
}

impl wide::Kernel for KeyPass<'_> {
    type Out = (usize, Among);

    #[inline(always)]
    fn call(self) -> (usize, Among) {
        let KeyPass {
            col,
            floor,
            need,
            keys,
        } = self;
        // Every key is written; the count moves past those at or above.
        let mut above = 0;
        for &x in col {
            let k = key(x);
            keys[above] = k;
            above += usize::from(k >= floor);
        }
        if above >= need {
            return (above, Among::AtOrAbove);
        }
        for (k, &x) in keys.iter_mut().zip(col) {
            *k = key(x);
        }
        (col.len(), Among::All)
    }
}

/// `x`'s bits as an integer that orders as `f64::total_cmp` does.
#[inline(always)]
fn key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The `f64` whose [`key`] is `k` (the map is its own inverse).
#[inline]
fn from_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_p95_is_bit_identical_to_sorting() {
        for level in wide::levels() {
            wide::at(level, || tail_matches_sorting(level));
        }
    }

    /// Every n to 300 and 2,000, over skewed, tied, signed-zero, NaN,
    /// infinite, constant, negative and outlier columns, on one key buffer.
    fn tail_matches_sorting(level: wide::Level) {
        use caribou_model::rng::Pcg32;
        let mut rng = Pcg32::seed(5);
        let mut keys = Vec::new();
        let (mut filtered, mut full) = (0, 0);
        for n in (1..=300).chain([2_000]) {
            let skewed: Vec<f64> = (0..n).map(|_| rng.lognormal(0.0, 0.8)).collect();
            let with = |at: usize, x: f64| {
                let mut col = skewed.clone();
                col[at % n] = x;
                col
            };
            let cases = [
                with(0, skewed[0]),
                skewed.iter().map(|x| (x * 4.0).round() / 4.0).collect(),
                (0..n).map(|i| [0.0, -0.0, skewed[i]][i % 3]).collect(),
                with(n / 2, f64::NAN),
                with(n / 3, -f64::NAN),
                with(n / 4, f64::INFINITY),
                with(n / 5, f64::NEG_INFINITY),
                vec![2.5; n],
                skewed.iter().map(|x| -x).collect(),
                with(7, 1e300),
            ];
            for (case, col) in cases.iter().enumerate() {
                let m = Moments::of(col, col.iter().sum());
                let mut sorted = col.clone();
                sorted.sort_by(f64::total_cmp);
                let want = percentile_sorted(&sorted, 0.95).to_bits();
                assert_eq!(
                    p95(col, &m, &mut keys).to_bits(),
                    want,
                    "{level:?}: n = {n}, case {case}"
                );
                match tail(col, m.mean + m.var.sqrt(), &mut keys).1 {
                    Among::AtOrAbove => filtered += 1,
                    Among::All => full += 1,
                }
            }
            // A constant column lies at its mean + σ, all of it.
            let constant = tail(&cases[7], 2.5, &mut keys);
            assert_eq!(constant, (2.5, Among::AtOrAbove), "{level:?}: n = {n}");
        }
        assert!(
            filtered > 0 && full > 0,
            "{filtered} filtered, {full} in full"
        );
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
