//! The carbon data source abstraction consumed by the Metrics Manager.
//!
//! The paper's Metrics Manager gathers carbon intensity from Electricity
//! Maps periodically and forecasts it with Holt-Winters smoothing once a
//! day (§7.2). [`CarbonDataSource`] is the common interface; the solver is
//! always handed a [`ForecastingSource`] so that deployment plans are
//! based on *forecast* data while experiment evaluation uses the *actual*
//! underlying source — separating the two is what lets the harness measure
//! forecast-induced suboptimality (Fig. 11, Fig. 13b).

use caribou_model::region::{RegionCatalog, RegionId};

use crate::error::CarbonError;
use crate::forecast::HoltWinters;
use crate::series::CarbonSeries;
use crate::synth::{self, GridProfile, SyntheticCarbonSource};

/// Provides grid average carbon intensity (ACI, §7.1) per region and hour.
pub trait CarbonDataSource {
    /// Intensity in gCO₂eq/kWh of `region`'s grid at fractional `hour`
    /// since the epoch.
    fn intensity(&self, region: RegionId, hour: f64) -> f64;

    /// The hourly series from `from_hour`: `out[i]` is the intensity at
    /// `from_hour + i + 0.5`, bit for bit what [`intensity`] answers
    /// there. A forecast fit, an average and a materialized forecast read
    /// through this. A source that reads a run of hours cheaper than hour
    /// by hour overrides it; the default asks [`intensity`] once an hour,
    /// which a wrapper whose answer or query count is per query keeps.
    ///
    /// [`intensity`]: CarbonDataSource::intensity
    fn hourly(&self, region: RegionId, from_hour: f64, out: &mut [f64]) {
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.intensity(region, from_hour + i as f64 + 0.5);
        }
    }

    /// Average intensity over `[from_hour, to_hour)` sampled hourly: the
    /// left-to-right sum of [`CarbonDataSource::hourly`] over at least one
    /// hour. A week or less is read into the stack.
    fn average(&self, region: RegionId, from_hour: f64, to_hour: f64) -> f64 {
        let n = ((to_hour - from_hour).max(1.0)) as usize;
        let (mut week, mut longer) = ([0.0; 168], Vec::new());
        let values = if n <= week.len() {
            &mut week[..n]
        } else {
            longer.resize(n, 0.0);
            &mut longer[..]
        };
        self.hourly(region, from_hour, values);
        values.iter().sum::<f64>() / n as f64
    }

    /// Whether how often this source is asked is itself an output (it
    /// reports its query counts). A caller may answer a repeated
    /// `(region, hour)` query from a copy of the first answer only where
    /// this is `false`; a wrapper answers for the source it wraps.
    fn counts_queries(&self) -> bool {
        false
    }
}

impl<S: CarbonDataSource + ?Sized> CarbonDataSource for &S {
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        (**self).intensity(region, hour)
    }

    fn hourly(&self, region: RegionId, from_hour: f64, out: &mut [f64]) {
        (**self).hourly(region, from_hour, out)
    }

    fn counts_queries(&self) -> bool {
        (**self).counts_queries()
    }
}

/// Adapter exposing a [`SyntheticCarbonSource`] per region via the catalog's
/// grid-zone mapping. Regions on the same grid (us-east-1 and us-east-2 on
/// PJM) automatically see identical intensity, as in §2.1.
#[derive(Debug, Clone)]
pub struct RegionalSource {
    zones: Vec<String>,
    profiles: Vec<GridProfile>,
    /// By region index, the seed of its zone's noise knots.
    seeds: Vec<u64>,
}

impl RegionalSource {
    /// Builds the adapter for a catalog, validating that every catalog
    /// region's grid zone is covered by the synthetic source. Resolving
    /// all zone profiles and noise seeds here makes the hot
    /// [`CarbonDataSource`] path infallible and lookup-free.
    pub fn new(catalog: &RegionCatalog, synth: SyntheticCarbonSource) -> Result<Self, CarbonError> {
        let zones: Vec<String> = catalog.iter().map(|(_, s)| s.grid_zone.clone()).collect();
        let profiles = zones
            .iter()
            .map(|z| {
                synth
                    .profile(z)
                    .cloned()
                    .ok_or_else(|| CarbonError::UnknownZone { zone: z.clone() })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = zones.iter().map(|z| synth.zone_seed(z)).collect();
        Ok(RegionalSource {
            zones,
            profiles,
            seeds,
        })
    }

    /// The grid zone backing a region.
    pub fn zone(&self, region: RegionId) -> &str {
        &self.zones[region.index()]
    }
}

impl CarbonDataSource for RegionalSource {
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        let i = region.index();
        synth::seeded_intensity(&self.profiles[i], self.seeds[i], hour)
    }

    /// Each noise knot drawn once and the daily shape taken once per hour
    /// of the day (`synth::seeded_series`).
    fn hourly(&self, region: RegionId, from_hour: f64, out: &mut [f64]) {
        let i = region.index();
        synth::seeded_series(&self.profiles[i], self.seeds[i], from_hour, out)
    }
}

/// A source backed by explicit per-region series (e.g. real Electricity
/// Maps CSV extracts). Out-of-range hours fall back to the series mean.
#[derive(Debug, Clone, Default)]
pub struct TableSource {
    /// By region index; `None` for a region without a series.
    series: Vec<Option<CarbonSeries>>,
}

impl TableSource {
    /// Creates an empty table source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the series for a region.
    pub fn insert(&mut self, region: RegionId, series: CarbonSeries) {
        let i = region.index();
        if i >= self.series.len() {
            self.series.resize(i + 1, None);
        }
        self.series[i] = Some(series);
    }

    /// The series for a region, if present.
    pub fn series(&self, region: RegionId) -> Option<&CarbonSeries> {
        self.series.get(region.index())?.as_ref()
    }

    /// Loads one `<region-name>.csv` file per region from a directory —
    /// the drop-in path for real Electricity Maps extracts. Files whose
    /// stem does not resolve against the catalog are reported as errors;
    /// regions without a file are simply absent from the source.
    pub fn from_csv_dir(
        dir: &std::path::Path,
        catalog: &RegionCatalog,
    ) -> Result<Self, CarbonError> {
        let mut out = TableSource::new();
        let entries = std::fs::read_dir(dir).map_err(|e| CarbonError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| CarbonError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("csv") {
                continue;
            }
            let stem =
                path.file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| CarbonError::Parse {
                        path: path.display().to_string(),
                        message: "unreadable file name".into(),
                    })?;
            let region = catalog
                .id_of(stem)
                .ok_or_else(|| CarbonError::UnknownRegionName { name: stem.into() })?;
            let csv = std::fs::read_to_string(&path).map_err(|e| CarbonError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            let series = CarbonSeries::from_csv(&csv).map_err(|e| CarbonError::Parse {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            out.insert(region, series);
        }
        if out.series.is_empty() {
            return Err(CarbonError::Empty {
                path: dir.display().to_string(),
            });
        }
        Ok(out)
    }

    /// Intensity for a region, or a typed error if the region has no
    /// series. User-facing callers (the CLI's CSV drop-in path) should
    /// prefer this over the trait method.
    pub fn try_intensity(&self, region: RegionId, hour: f64) -> Result<f64, CarbonError> {
        let s = self
            .series(region)
            .ok_or(CarbonError::UncoveredRegion { region })?;
        Ok(s.at(hour).unwrap_or_else(|| s.mean()))
    }

    /// Regions covered by this source, ascending.
    pub fn regions(&self) -> Vec<RegionId> {
        (0..self.series.len())
            .map(|i| RegionId(i as u16))
            .filter(|&r| self.series(r).is_some())
            .collect()
    }

    /// What an uncovered region reads in a release build: the mean of
    /// the series means, summed in region order.
    fn fallback(&self) -> f64 {
        let covered = || self.series.iter().flatten();
        covered().map(|s| s.mean()).sum::<f64>() / covered().count().max(1) as f64
    }
}

impl CarbonDataSource for TableSource {
    /// Covered regions answer from their series; an uncovered region is a
    /// caller bug (validate with [`TableSource::try_intensity`] first), so
    /// debug builds assert and release builds fall back deterministically
    /// to the mean of all series means rather than aborting the process.
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        match self.try_intensity(region, hour) {
            Ok(v) => v,
            Err(e) => {
                debug_assert!(false, "{e}");
                self.fallback()
            }
        }
    }
}

/// A forecasting wrapper: knows the real source's history up to
/// `trained_at_hour` and answers future queries with Holt-Winters
/// forecasts, exactly as the Metrics Manager hands data to the solver
/// (§7.2).
pub struct ForecastingSource<'a, S: CarbonDataSource> {
    actual: &'a S,
    regions: Vec<RegionId>,
    trained_at_hour: f64,
    /// By region index; `None` for a region outside the fitted set.
    forecasts: Vec<Option<Vec<f64>>>,
}

/// The trailing history a forecast is fitted on: one week of hours.
const HISTORY_HOURS: usize = 7 * 24;

impl<'a, S: CarbonDataSource> ForecastingSource<'a, S> {
    /// Fits forecasts at `trained_at_hour` using the trailing week of
    /// hourly history, for up to `horizon_hours` of future queries.
    pub fn fit(
        actual: &'a S,
        regions: &[RegionId],
        trained_at_hour: f64,
        horizon_hours: usize,
    ) -> Self {
        let mut forecasts = vec![None; regions.iter().map(|r| r.index() + 1).max().unwrap_or(0)];
        let mut history = [0.0; HISTORY_HOURS];
        for &r in regions {
            actual.hourly(r, trained_at_hour - HISTORY_HOURS as f64, &mut history);
            let hw = HoltWinters::fit(&history, 24);
            forecasts[r.index()] = Some(hw.forecast(horizon_hours));
        }
        ForecastingSource {
            actual,
            regions: regions.to_vec(),
            trained_at_hour,
            forecasts,
        }
    }

    /// Regions covered by the forecast.
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }

    /// Length of the history window used for fitting, hours.
    pub fn history_hours(&self) -> usize {
        HISTORY_HOURS
    }

    /// Intensity for a region, or a typed error for a future query on a
    /// region outside the fitted set.
    pub fn try_intensity(&self, region: RegionId, hour: f64) -> Result<f64, CarbonError> {
        if hour < self.trained_at_hour {
            // The past is known.
            return Ok(self.actual.intensity(region, hour));
        }
        let steps = (hour - self.trained_at_hour).floor() as usize;
        let f = self
            .forecasts
            .get(region.index())
            .and_then(Option::as_ref)
            .ok_or(CarbonError::ForecastNotCovered { region })?;
        let idx = steps.min(f.len().saturating_sub(1));
        Ok(f.get(idx).copied().unwrap_or_else(|| {
            // Horizon exhausted with an empty forecast: fall back to the
            // actual source's long-run behaviour at the trained hour.
            self.actual.intensity(region, self.trained_at_hour)
        }))
    }
}

impl<S: CarbonDataSource> CarbonDataSource for ForecastingSource<'_, S> {
    /// Querying outside the fitted region set is a caller bug (the solver
    /// only evaluates permitted regions); debug builds assert and release
    /// builds fall back deterministically to the actual source instead of
    /// aborting the process.
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        match self.try_intensity(region, hour) {
            Ok(v) => v,
            Err(e) => {
                debug_assert!(false, "{e}");
                self.actual.intensity(region, hour)
            }
        }
    }

    fn counts_queries(&self) -> bool {
        self.actual.counts_queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::region::{ProviderSet, RegionCatalog};
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Where `source`'s series of `len` hours from `from` differs from
    /// asking it hour by hour, if anywhere: the first index, both values.
    fn series_mismatch<S: CarbonDataSource>(
        source: &S,
        region: RegionId,
        from: f64,
        len: usize,
    ) -> Option<(usize, f64, f64)> {
        let mut series = vec![f64::NAN; len];
        source.hourly(region, from, &mut series);
        series.iter().enumerate().find_map(|(i, &v)| {
            let each = source.intensity(region, from + i as f64 + 0.5);
            (v.to_bits() != each.to_bits()).then_some((i, v, each))
        })
    }

    /// A series' first hour: anywhere in [−400, 9000] with any fraction,
    /// at a quarter hour, on a noise knot (`NOISE_KNOT_H` = 4 h), or up to
    /// 200 h below a power of two, where the hours after it round to a
    /// coarser step and a day's hours no longer repeat bit for bit.
    fn from_hour() -> impl Strategy<Value = f64> {
        let kinds = (0u32..4, -400.0..9000.0f64, -1600i64..36_000, -100i64..2250);
        (kinds, 9i32..14, 0.0..200.0f64).prop_map(|((kind, any, quarter, knot), power, below)| {
            match kind {
                0 => any,
                1 => quarter as f64 / 4.0,
                2 => 4.0 * knot as f64 - 0.5,
                _ => 2f64.powi(power) - below,
            }
        })
    }

    /// Every region of the aws and gcp catalogs, by index, on `seed`'s grid.
    fn grid(seed: u64) -> (Vec<RegionId>, RegionalSource) {
        let catalog = RegionCatalog::of_providers(ProviderSet::parse("aws,gcp").unwrap());
        let source =
            RegionalSource::new(&catalog, SyntheticCarbonSource::aws_calibrated(seed)).unwrap();
        (catalog.iter().map(|(id, _)| id).collect(), source)
    }

    /// A source that counts the queries it answers.
    struct Counting<S> {
        inner: S,
        queries: Cell<usize>,
    }

    impl<S: CarbonDataSource> CarbonDataSource for Counting<S> {
        fn intensity(&self, region: RegionId, hour: f64) -> f64 {
            self.queries.set(self.queries.get() + 1);
            self.inner.intensity(region, hour)
        }

        fn counts_queries(&self) -> bool {
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The grid's series, directly and through a reference, is bit for
        /// bit what it answers hour by hour. The other sources keep the
        /// per-hour default.
        #[test]
        fn every_series_matches_its_hours(
            zone in 0usize..64,
            seed in any::<u64>(),
            from in from_hour(),
            len in 0usize..201,
        ) {
            let (regions, source) = grid(seed);
            let region = regions[zone % regions.len()];
            let case = (seed, region, from, len);
            prop_assert_eq!(series_mismatch(&source, region, from, len), None, "{:?}", case);
            prop_assert_eq!(series_mismatch(&&source, region, from, len), None, "{:?}", case);
        }
    }

    /// A source that counts its queries is asked once an hour by a series,
    /// directly and through the wrappers that forward to it.
    #[test]
    fn a_counting_source_counts_one_query_an_hour() {
        let (regions, source) = grid(3);
        let counting = Counting {
            inner: source,
            queries: Cell::new(0),
        };
        let r = regions[0];
        let mut out = [0.0; 37];
        counting.hourly(r, 10.25, &mut out);
        assert_eq!(counting.queries.get(), 37);
        <&_ as CarbonDataSource>::hourly(&&counting, r, 10.25, &mut out);
        assert_eq!(counting.queries.get(), 74);
        assert!(counting.average(r, 0.0, 200.0) > 0.0);
        assert_eq!(counting.queries.get(), 274);
        let forecast = ForecastingSource::fit(&counting, &[r], 300.0, 48);
        assert_eq!(counting.queries.get(), 274 + 168);
        // 20 hours before the fit hour from the source, 17 forecast.
        forecast.hourly(r, 280.0, &mut out);
        assert_eq!(counting.queries.get(), 274 + 168 + 20);
    }

    /// An uncovered region reads the mean of the series means, summed in
    /// region order whatever order they were inserted in: 1e16 + 1 rounds
    /// to 1e16 first, so the sum is 0, where 1e16 − 1e16 first keeps the 1.
    #[test]
    fn table_source_fallback_sums_means_in_region_order() {
        let mut t = TableSource::new();
        for (r, mean) in [(2, -1e16), (1, 1.0), (0, 1e16)] {
            t.insert(RegionId(r), CarbonSeries::new(0, vec![mean]));
        }
        assert_eq!(t.regions(), [RegionId(0), RegionId(1), RegionId(2)]);
        assert_eq!(
            t.fallback().to_bits(),
            ((1e16 + 1.0 - 1e16) / 3.0f64).to_bits()
        );
        assert_eq!(t.fallback(), 0.0);
        #[cfg(not(debug_assertions))]
        assert_eq!(t.intensity(RegionId(9), 0.0), 0.0);
    }

    fn regional() -> (RegionCatalog, RegionalSource) {
        let cat = RegionCatalog::aws_default();
        let src = RegionalSource::new(&cat, SyntheticCarbonSource::aws_calibrated(3)).unwrap();
        (cat, src)
    }

    #[test]
    fn regional_source_rejects_uncovered_zone() {
        let cat = RegionCatalog::aws_default();
        // A synthetic source with no profiles covers no catalog zone.
        let empty = SyntheticCarbonSource::new(Default::default(), 1);
        let err = RegionalSource::new(&cat, empty).unwrap_err();
        assert!(matches!(err, CarbonError::UnknownZone { .. }), "{err:?}");
    }

    #[test]
    fn same_grid_regions_identical() {
        let (cat, src) = regional();
        let e1 = cat.id_of("us-east-1").unwrap();
        let e2 = cat.id_of("us-east-2").unwrap();
        for h in 0..48 {
            assert_eq!(src.intensity(e1, h as f64), src.intensity(e2, h as f64));
        }
    }

    #[test]
    fn average_matches_hourly_mean() {
        let (cat, src) = regional();
        let r = cat.id_of("ca-central-1").unwrap();
        let avg = src.average(r, 0.0, 24.0);
        let manual: f64 = (0..24)
            .map(|h| src.intensity(r, h as f64 + 0.5))
            .sum::<f64>()
            / 24.0;
        assert!((avg - manual).abs() < 1e-9);
    }

    #[test]
    fn table_source_round_trips() {
        let mut t = TableSource::new();
        t.insert(RegionId(0), CarbonSeries::new(0, vec![100.0, 200.0]));
        assert_eq!(t.intensity(RegionId(0), 0.5), 100.0);
        assert_eq!(t.intensity(RegionId(0), 1.5), 200.0);
        // Out-of-range falls back to the mean.
        assert_eq!(t.intensity(RegionId(0), 99.0), 150.0);
    }

    #[test]
    fn table_source_missing_region_is_a_typed_error() {
        let t = TableSource::new();
        let err = t.try_intensity(RegionId(5), 0.0).unwrap_err();
        assert_eq!(
            err,
            CarbonError::UncoveredRegion {
                region: RegionId(5)
            }
        );
        assert!(err.to_string().contains("no carbon series"));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn table_source_missing_region_release_fallback_is_mean_of_means() {
        let mut t = TableSource::new();
        t.insert(RegionId(0), CarbonSeries::new(0, vec![100.0, 200.0]));
        t.insert(RegionId(1), CarbonSeries::new(0, vec![300.0]));
        // (150 + 300) / 2
        assert_eq!(t.intensity(RegionId(9), 0.0), 225.0);
    }

    #[test]
    fn csv_dir_round_trip() {
        let cat = RegionCatalog::aws_default();
        let dir = std::env::temp_dir().join(format!("caribou_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s1 = CarbonSeries::new(0, vec![380.0, 390.0, 370.0]);
        let s2 = CarbonSeries::new(0, vec![30.0, 32.0, 31.0]);
        std::fs::write(dir.join("us-east-1.csv"), s1.to_csv()).unwrap();
        std::fs::write(dir.join("ca-central-1.csv"), s2.to_csv()).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let t = TableSource::from_csv_dir(&dir, &cat).unwrap();
        assert_eq!(t.regions().len(), 2);
        assert_eq!(t.intensity(cat.id_of("us-east-1").unwrap(), 1.5), 390.0);
        assert_eq!(t.intensity(cat.id_of("ca-central-1").unwrap(), 0.5), 30.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_dir_unknown_region_rejected() {
        let cat = RegionCatalog::aws_default();
        let dir = std::env::temp_dir().join(format!("caribou_csv_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("atlantis-1.csv"),
            CarbonSeries::new(0, vec![1.0]).to_csv(),
        )
        .unwrap();
        let err = TableSource::from_csv_dir(&dir, &cat).unwrap_err();
        assert_eq!(
            err,
            CarbonError::UnknownRegionName {
                name: "atlantis-1".into()
            }
        );
        assert!(err.to_string().contains("unknown region"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_dir_empty_rejected() {
        let cat = RegionCatalog::aws_default();
        let dir = std::env::temp_dir().join(format!("caribou_csv_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(TableSource::from_csv_dir(&dir, &cat).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forecasting_source_past_is_exact() {
        let (cat, src) = regional();
        let r = cat.id_of("us-east-1").unwrap();
        let f = ForecastingSource::fit(&src, &[r], 7.0 * 24.0 * 2.0, 48);
        let h = 7.0 * 24.0; // in the past
        assert_eq!(f.intensity(r, h), src.intensity(r, h));
    }

    #[test]
    fn forecast_tracks_diurnal_shape() {
        let (cat, src) = regional();
        let r = cat.id_of("us-west-1").unwrap();
        let t0 = 24.0 * 14.0;
        let f = ForecastingSource::fit(&src, &[r], t0, 24);
        // Compare forecast vs actual across the next day: the mean
        // absolute percentage error should be modest for a strongly
        // seasonal series.
        let mut mape = 0.0;
        for h in 0..24 {
            let actual = src.intensity(r, t0 + h as f64 + 0.5);
            let predicted = f.intensity(r, t0 + h as f64 + 0.5);
            mape += ((predicted - actual) / actual).abs();
        }
        mape /= 24.0;
        assert!(mape < 0.25, "MAPE {mape}");
    }

    #[test]
    fn forecast_uncovered_region_is_a_typed_error() {
        let (cat, src) = regional();
        let r = cat.id_of("us-east-1").unwrap();
        let other = cat.id_of("ca-central-1").unwrap();
        let f = ForecastingSource::fit(&src, &[r], 24.0 * 10.0, 24);
        // Past queries are answered from the actual source even for
        // regions outside the fitted set.
        assert!(f.try_intensity(other, 1.0).is_ok());
        let err = f.try_intensity(other, 24.0 * 10.0 + 1.0).unwrap_err();
        assert_eq!(err, CarbonError::ForecastNotCovered { region: other });
        assert!(err.to_string().contains("not covered"));
    }

    /// Every value a grid's hourly series reaches a caller through, pinned
    /// to the bit: for every region of both provider sets at two carbon
    /// seeds, the 168-hour history windows before four fit hours (one
    /// negative, one fractional), day averages from fractional starts and
    /// the year average `StaleAwareSource::new` takes, and a
    /// `ForecastingSource`'s answers on both sides of its fit hour. A
    /// change to how a series is read must leave the digest alone.
    #[test]
    fn every_grid_series_is_pinned() {
        use caribou_model::region::ProviderSet;

        fn fold(digest: &mut u64, value: f64) {
            *digest = caribou_model::rng::mix64(
                *digest ^ value.to_bits().wrapping_add(0x9e37_79b9_7f4a_7c15),
            );
        }
        let fit_hours = [-30.0, 0.0, 12.5, 167.25];
        let day_starts = [-30.25, 0.0, 12.5, 167.25, 4000.75];
        let (mut values, mut digest) = (0u64, 0u64);
        for seed in [20231015, 97] {
            for set in [
                ProviderSet::aws_only(),
                ProviderSet::parse("aws,gcp").unwrap(),
            ] {
                let catalog = RegionCatalog::of_providers(set);
                let source =
                    RegionalSource::new(&catalog, SyntheticCarbonSource::aws_calibrated(seed))
                        .expect("calibrated");
                let regions: Vec<_> = catalog.iter().map(|(id, _)| id).collect();
                for &r in &regions {
                    for at in fit_hours {
                        let from = at - 168.0;
                        for i in 0..168 {
                            fold(&mut digest, source.intensity(r, from + i as f64 + 0.5));
                            values += 1;
                        }
                    }
                    for start in day_starts {
                        fold(&mut digest, source.average(r, start, start + 24.0));
                        values += 1;
                    }
                    fold(&mut digest, source.average(r, 0.0, 8760.0));
                    values += 1;
                }
                for at in fit_hours {
                    let forecast = ForecastingSource::fit(&source, &regions, at, 48);
                    for &r in &regions {
                        for d in [-100.5, -24.0, -0.25, 0.0, 0.5, 23.75, 47.0, 47.99, 60.0] {
                            let v = forecast.try_intensity(r, at + d).expect("fitted");
                            fold(&mut digest, v);
                            values += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(
            (values, digest),
            (35_700, 0xa74b_b612_4926_8329),
            "{values} values, digest {digest:#018x}"
        );
    }

    #[test]
    fn forecast_horizon_clamps() {
        let (cat, src) = regional();
        let r = cat.id_of("us-east-1").unwrap();
        let f = ForecastingSource::fit(&src, &[r], 24.0 * 10.0, 24);
        // Query far beyond the horizon: clamps to the last forecast value.
        let v = f.intensity(r, 24.0 * 10.0 + 1000.0);
        assert!(v > 0.0);
    }
}
