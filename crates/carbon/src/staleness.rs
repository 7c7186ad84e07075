//! Stale-forecast degradation: a TTL'd wrapper around any carbon source.
//!
//! GreenWhisk-style emission-aware scheduling has to keep working when
//! the carbon signal goes dark. [`StaleAwareSource`] wraps an inner
//! [`CarbonDataSource`] with a set of outage windows (hours during which
//! the forecast feed is unreachable) and degrades through a ladder:
//!
//! 1. **Fresh** — no outage active: answer from the inner source.
//! 2. **LastKnownGood** — an outage is active but younger than the TTL:
//!    answer with the intensity frozen at the outage start (the last
//!    value the feed served before going dark).
//! 3. **YearlyAverage** — the outage has outlived the TTL: answer with
//!    the region's precomputed yearly-average intensity, the weakest
//!    signal that is still region-shaped.
//!
//! Every answer is a pure function of `(region, hour)` — last-known-good
//! is frozen at the *window start*, never at "whenever we last happened
//! to ask" — so wrapped campaigns stay bit-identical at any worker
//! count. Query counts per rung are kept in atomics and flushed as
//! `carbon.stale.*` telemetry by the coordinator.

use std::sync::atomic::{AtomicU64, Ordering};

use caribou_model::region::RegionId;

use crate::source::CarbonDataSource;

/// A carbon source that degrades gracefully through forecast outages.
pub struct StaleAwareSource<S> {
    inner: S,
    /// Half-open `[start, end)` outage windows in *hours*.
    outages: Vec<(f64, f64)>,
    ttl_hours: f64,
    /// By region index; `None` for a region outside the precomputed set.
    yearly: Vec<Option<f64>>,
    fresh_queries: AtomicU64,
    lkg_queries: AtomicU64,
    yearly_queries: AtomicU64,
}

impl<S: CarbonDataSource> StaleAwareSource<S> {
    /// Wraps `inner` with `outages` (hour windows) and a TTL. Yearly
    /// averages for `regions` are precomputed over hours `[0, 8760)` so
    /// the deepest rung stays O(1) per query.
    pub fn new(inner: S, regions: &[RegionId], outages: Vec<(f64, f64)>, ttl_hours: f64) -> Self {
        assert!(ttl_hours > 0.0, "staleness TTL must be positive");
        for &(s, e) in &outages {
            assert!(e > s, "outage window must be non-empty (half-open)");
        }
        let mut yearly = vec![None; regions.iter().map(|r| r.index() + 1).max().unwrap_or(0)];
        for &r in regions {
            yearly[r.index()] = Some(inner.average(r, 0.0, 8760.0));
        }
        StaleAwareSource {
            inner,
            outages,
            ttl_hours,
            yearly,
            fresh_queries: AtomicU64::new(0),
            lkg_queries: AtomicU64::new(0),
            yearly_queries: AtomicU64::new(0),
        }
    }

    /// Earliest start among outage windows active at `hour`.
    fn outage_start(&self, hour: f64) -> Option<f64> {
        self.outages
            .iter()
            .filter(|&&(s, e)| hour >= s && hour < e)
            .map(|&(s, _)| s)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.min(s))))
    }

    /// Query counts per rung: `(fresh, last_known_good, yearly_average)`.
    pub fn query_counts(&self) -> (u64, u64, u64) {
        (
            self.fresh_queries.load(Ordering::Relaxed),
            self.lkg_queries.load(Ordering::Relaxed),
            self.yearly_queries.load(Ordering::Relaxed),
        )
    }

    /// Emits `carbon.stale.*` counters. Call from the coordinator only,
    /// after workers are done, so counter order never depends on thread
    /// interleaving.
    pub fn flush_telemetry(&self) {
        if !caribou_telemetry::is_enabled() {
            return;
        }
        let (fresh, lkg, yearly) = self.query_counts();
        caribou_telemetry::count("carbon.stale.fresh", fresh);
        caribou_telemetry::count("carbon.stale.last_known_good", lkg);
        caribou_telemetry::count("carbon.stale.yearly_average", yearly);
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CarbonDataSource> CarbonDataSource for StaleAwareSource<S> {
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        match self.outage_start(hour) {
            None => {
                self.fresh_queries.fetch_add(1, Ordering::Relaxed);
                self.inner.intensity(region, hour)
            }
            Some(start) if hour - start <= self.ttl_hours => {
                self.lkg_queries.fetch_add(1, Ordering::Relaxed);
                // Frozen at the instant the feed went dark.
                self.inner.intensity(region, start)
            }
            Some(_) => {
                self.yearly_queries.fetch_add(1, Ordering::Relaxed);
                match self.yearly.get(region.index()).copied().flatten() {
                    Some(v) => v,
                    // Region outside the precomputed set: compute the
                    // same average directly (slow but correct).
                    None => self.inner.average(region, 0.0, 8760.0),
                }
            }
        }
    }

    /// [`StaleAwareSource::query_counts`] is reported by the campaigns
    /// that wrap their grid in this source.
    fn counts_queries(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::CarbonSeries;
    use crate::source::TableSource;

    /// The deepest rung's answer on the ramp: the mean of hours 0..8759.
    const YEARLY: f64 = 4379.5;

    /// Intensity == hour index, so an answer names its rung: the hour
    /// itself when fresh, the outage start when frozen, [`YEARLY`] past
    /// the TTL.
    fn ramp_source() -> TableSource {
        let mut t = TableSource::new();
        let values: Vec<f64> = (0..8760).map(|h| h as f64).collect();
        t.insert(RegionId(0), CarbonSeries::new(0, values));
        t
    }

    #[test]
    fn fresh_passes_through() {
        let s = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![], 2.0);
        assert_eq!(s.intensity(RegionId(0), 5.5), 5.0);
        assert_eq!(s.query_counts(), (1, 0, 0));
    }

    #[test]
    fn ladder_degrades_fresh_to_lkg_to_yearly() {
        let s = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(10.0, 20.0)], 2.0);
        // Before the outage: fresh.
        assert_eq!(s.intensity(RegionId(0), 9.9), 9.0);
        // Inside TTL: frozen at the outage start (hour 10).
        assert_eq!(s.intensity(RegionId(0), 11.0), 10.0);
        assert_eq!(s.intensity(RegionId(0), 12.0), 10.0);
        // Past TTL: the yearly average.
        assert_eq!(s.intensity(RegionId(0), 15.0), YEARLY);
        // Outage over (half-open): fresh again.
        assert_eq!(s.intensity(RegionId(0), 20.0), 20.0);
        assert_eq!(s.query_counts(), (2, 2, 1));
    }

    #[test]
    fn ttl_boundary_is_inclusive_for_lkg() {
        let s = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(0.0, 100.0)], 2.0);
        assert_eq!(s.intensity(RegionId(0), 2.0), 0.0, "last known good");
        assert_eq!(s.intensity(RegionId(0), 2.0001), YEARLY);
    }

    #[test]
    fn answers_are_pure_functions_of_region_and_hour() {
        // Query order must not change any answer (worker-count
        // independence): interleave two orders and compare.
        let hours = [5.0, 11.0, 15.0, 25.0, 11.5, 14.9];
        let a = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(10.0, 20.0)], 2.0);
        let b = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(10.0, 20.0)], 2.0);
        let fwd: Vec<f64> = hours.iter().map(|&h| a.intensity(RegionId(0), h)).collect();
        let rev: Vec<f64> = hours
            .iter()
            .rev()
            .map(|&h| b.intensity(RegionId(0), h))
            .collect();
        let rev_fwd: Vec<f64> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
    }

    #[test]
    fn overlapping_outages_age_from_earliest_start() {
        let s = StaleAwareSource::new(
            ramp_source(),
            &[RegionId(0)],
            vec![(10.0, 30.0), (12.0, 40.0)],
            5.0,
        );
        // At hour 16 the earliest active start is 10 → age 6 > TTL 5.
        assert_eq!(s.intensity(RegionId(0), 16.0), YEARLY);
        // At hour 32 only the second window is active → age 20 > TTL.
        assert_eq!(s.intensity(RegionId(0), 32.0), YEARLY);
        // At hour 14, age 4: frozen at the earliest start.
        assert_eq!(s.intensity(RegionId(0), 14.0), 10.0);
    }

    #[test]
    fn an_ended_window_no_longer_ages_the_feed() {
        // [10, 20) overlaps [18, 40): from hour 20 on (half-open end) only
        // the second window is active, so the feed is 2 h stale, not 10 h.
        let s = StaleAwareSource::new(
            ramp_source(),
            &[RegionId(0)],
            vec![(10.0, 20.0), (18.0, 40.0)],
            5.0,
        );
        assert_eq!(s.intensity(RegionId(0), 19.0), YEARLY);
        assert_eq!(s.intensity(RegionId(0), 20.0), 18.0);
        assert_eq!(s.intensity(RegionId(0), 21.0), 18.0);
        assert_eq!(s.intensity(RegionId(0), 40.0), 40.0);
    }

    #[test]
    fn uncovered_region_still_answers_yearly() {
        let s = StaleAwareSource::new(ramp_source(), &[], vec![(0.0, 100.0)], 1.0);
        assert_eq!(s.intensity(RegionId(0), 50.0), YEARLY);
    }

    /// A series keeps the per-hour default: each hour is one query,
    /// counted on its rung and answered as that rung answers it.
    #[test]
    fn a_series_asks_each_hour_on_its_rung() {
        let s = StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(10.0, 20.0)], 2.0);
        let mut out = [0.0; 16];
        s.hourly(RegionId(0), 8.0, &mut out);
        let y = YEARLY;
        let want = [
            8.0, 9.0, 10.0, 10.0, y, y, y, y, y, y, y, y, 20.0, 21.0, 22.0, 23.0,
        ];
        assert_eq!(out, want);
        assert_eq!(s.query_counts(), (6, 2, 8));
    }

    #[test]
    #[should_panic]
    fn empty_outage_window_rejected() {
        StaleAwareSource::new(ramp_source(), &[RegionId(0)], vec![(5.0, 5.0)], 1.0);
    }
}
