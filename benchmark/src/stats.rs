//! Order statistics used to summarise laps and repeated runs.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has run at least one lap.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_CANDIDATES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest of `candidates` that still has at least ten of `n` samples
/// beyond it, with that count. `None` when even the lowest has fewer.
pub fn tail_percentile(n: u64, candidates: &[f64]) -> Option<(f64, u64)> {
    candidates
        .iter()
        .rev()
        .map(|&q| (q, beyond(n, q)))
        .find(|&(_, b)| b >= 10)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: u64, q: f64) -> u64 {
    n - ((q * n as f64).ceil() as u64).min(n)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        // 7,000 samples: p99 leaves 70 beyond, p99.9 only 7.
        assert_eq!(tail_percentile(7_000, &TAIL_CANDIDATES), Some((0.99, 70)));
        // 100,000 samples: p99.9 leaves 100 beyond.
        assert_eq!(
            tail_percentile(100_000, &TAIL_CANDIDATES),
            Some((0.999, 100))
        );
        // 240 samples: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(tail_percentile(240, &TAIL_CANDIDATES), Some((0.95, 12)));
        // A report that only exposes p95 and below.
        assert_eq!(tail_percentile(7_000, &[0.50, 0.95]), Some((0.95, 350)));
        // Too few samples for any tail.
        assert_eq!(tail_percentile(15, &TAIL_CANDIDATES), None);
        assert_eq!(tail_percentile(20, &TAIL_CANDIDATES), Some((0.50, 10)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(relative_spread(&v), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }
}
