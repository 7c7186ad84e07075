//! The carbon data source abstraction consumed by the Metrics Manager.
//!
//! The paper's Metrics Manager gathers carbon intensity from Electricity
//! Maps periodically and forecasts it with Holt-Winters smoothing once a
//! day (§7.2). [`CarbonDataSource`] is the common interface; the solver is
//! always handed a [`ForecastingSource`] so that deployment plans are
//! based on *forecast* data while experiment evaluation uses the *actual*
//! underlying source — separating the two is what lets the harness measure
//! forecast-induced suboptimality (Fig. 11, Fig. 13b).

use std::collections::HashMap;

use caribou_model::region::{RegionCatalog, RegionId};

use crate::error::CarbonError;
use crate::forecast::HoltWinters;
use crate::series::CarbonSeries;
use crate::synth::{GridProfile, SyntheticCarbonSource};

/// Provides grid average carbon intensity (ACI, §7.1) per region and hour.
pub trait CarbonDataSource {
    /// Intensity in gCO₂eq/kWh of `region`'s grid at fractional `hour`
    /// since the epoch.
    fn intensity(&self, region: RegionId, hour: f64) -> f64;

    /// Average intensity over `[from_hour, to_hour)` sampled hourly.
    fn average(&self, region: RegionId, from_hour: f64, to_hour: f64) -> f64 {
        let n = ((to_hour - from_hour).max(1.0)) as usize;
        let sum: f64 = (0..n)
            .map(|i| self.intensity(region, from_hour + i as f64 + 0.5))
            .sum();
        sum / n as f64
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
    synth: SyntheticCarbonSource,
}

impl RegionalSource {
    /// Builds the adapter for a catalog, validating that every catalog
    /// region's grid zone is covered by the synthetic source. Resolving
    /// all zone profiles here makes the hot [`CarbonDataSource`] path
    /// infallible and lookup-free.
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
        Ok(RegionalSource {
            zones,
            profiles,
            synth,
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
        self.synth
            .profile_intensity(&self.profiles[i], &self.zones[i], hour)
    }
}

/// A source backed by explicit per-region series (e.g. real Electricity
/// Maps CSV extracts). Out-of-range hours fall back to the series mean.
#[derive(Debug, Clone, Default)]
pub struct TableSource {
    series: HashMap<RegionId, CarbonSeries>,
}

impl TableSource {
    /// Creates an empty table source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the series for a region.
    pub fn insert(&mut self, region: RegionId, series: CarbonSeries) {
        self.series.insert(region, series);
    }

    /// The series for a region, if present.
    pub fn series(&self, region: RegionId) -> Option<&CarbonSeries> {
        self.series.get(&region)
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
            .series
            .get(&region)
            .ok_or(CarbonError::UncoveredRegion { region })?;
        Ok(s.at(hour).unwrap_or_else(|| s.mean()))
    }

    /// Regions covered by this source.
    pub fn regions(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> = self.series.keys().copied().collect();
        v.sort_unstable();
        v
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
                let n = self.series.len().max(1) as f64;
                self.series.values().map(|s| s.mean()).sum::<f64>() / n
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
    forecasts: HashMap<RegionId, Vec<f64>>,
    history_hours: usize,
}

impl<'a, S: CarbonDataSource> ForecastingSource<'a, S> {
    /// Fits forecasts at `trained_at_hour` using the trailing week of
    /// hourly history, for up to `horizon_hours` of future queries.
    pub fn fit(
        actual: &'a S,
        regions: &[RegionId],
        trained_at_hour: f64,
        horizon_hours: usize,
    ) -> Self {
        let history_hours = 7 * 24;
        let mut forecasts = HashMap::new();
        for &r in regions {
            let from = trained_at_hour - history_hours as f64;
            let history: Vec<f64> = (0..history_hours)
                .map(|i| actual.intensity(r, from + i as f64 + 0.5))
                .collect();
            let hw = HoltWinters::fit(&history, 24);
            forecasts.insert(r, hw.forecast(horizon_hours));
        }
        ForecastingSource {
            actual,
            regions: regions.to_vec(),
            trained_at_hour,
            forecasts,
            history_hours,
        }
    }

    /// Regions covered by the forecast.
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }

    /// Length of the history window used for fitting, hours.
    pub fn history_hours(&self) -> usize {
        self.history_hours
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
            .get(&region)
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
    use caribou_model::region::RegionCatalog;

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
