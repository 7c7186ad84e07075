//! Synthetic grid carbon-intensity generator.
//!
//! Reproduces the statistical structure of the Electricity Maps data the
//! paper uses (Fig. 2, §9.2): per-grid average levels, diurnal patterns
//! (amplified in solar-heavy grids like CAISO, where nights are far more
//! carbon-intense than days), weekly modulation, and smooth stochastic
//! variation. Averages are calibrated by construction: the shape terms are
//! zero-mean, so each grid's long-run average equals its configured
//! target, which pins the paper's reported relations (us-west-1 6.1% and
//! ca-central-1 91.5% below us-east-1 on average).

use std::collections::HashMap;

use caribou_model::rng::Pcg32;

use crate::error::CarbonError;

/// Shape and level parameters for one electrical grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridProfile {
    /// Long-run average intensity, gCO₂eq/kWh.
    pub mean: f64,
    /// Relative amplitude of the generic diurnal cosine (peak in the
    /// evening, trough overnight).
    pub diurnal_amp: f64,
    /// Local hour of the diurnal peak.
    pub diurnal_peak_hour: f64,
    /// Relative depth of the solar midday dip (0 for non-solar grids).
    pub solar_depth: f64,
    /// Relative weekly modulation (weekend dip).
    pub weekly_amp: f64,
    /// Relative sigma of the smooth stochastic component.
    pub noise_sigma: f64,
    /// Offset from UTC in hours for local-time phasing.
    pub utc_offset: f64,
}

/// Deterministic synthetic carbon-intensity source keyed by grid zone.
#[derive(Debug, Clone)]
pub struct SyntheticCarbonSource {
    profiles: HashMap<String, GridProfile>,
    seed: u64,
}

/// Gaussian bump width (hours) of the solar dip.
const SOLAR_WIDTH_H: f64 = 3.2;
/// Local hour of maximum solar generation.
const SOLAR_PEAK_H: f64 = 13.0;
/// Hours between stochastic-noise knots (linear interpolation between).
const NOISE_KNOT_H: f64 = 4.0;

impl SyntheticCarbonSource {
    /// Creates a source with the given zone profiles and noise seed.
    pub fn new(profiles: HashMap<String, GridProfile>, seed: u64) -> Self {
        SyntheticCarbonSource { profiles, seed }
    }

    /// The default source calibrated to the grids of the AWS regions in
    /// the paper. The epoch (hour 0) is 2023-10-15 00:00 UTC, a Sunday.
    pub fn aws_calibrated(seed: u64) -> Self {
        let mut profiles = HashMap::new();
        let mut p = |zone: &str, profile: GridProfile| {
            profiles.insert(zone.to_string(), profile);
        };
        // PJM interconnection (us-east-1, us-east-2): high fossil share.
        p(
            "US-MIDA-PJM",
            GridProfile {
                mean: 380.0,
                diurnal_amp: 0.09,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.0,
                weekly_amp: 0.04,
                noise_sigma: 0.05,
                utc_offset: -5.0,
            },
        );
        // CAISO (us-west-1): solar-heavy; deep midday dip, carbon-intense
        // nights. Mean 6.1% below PJM (§9.2 I1).
        p(
            "US-CAL-CISO",
            GridProfile {
                mean: 380.0 * (1.0 - 0.061),
                diurnal_amp: 0.05,
                diurnal_peak_hour: 21.0,
                solar_depth: 0.55,
                weekly_amp: 0.02,
                noise_sigma: 0.06,
                utc_offset: -8.0,
            },
        );
        // Pacific Northwest (us-west-2): hydro/wind mix with thermal
        // backfill; mean comparable to PJM (§9.2 I1).
        p(
            "US-NW-PACW",
            GridProfile {
                mean: 372.0,
                diurnal_amp: 0.10,
                diurnal_peak_hour: 18.0,
                solar_depth: 0.08,
                weekly_amp: 0.05,
                noise_sigma: 0.08,
                utc_offset: -8.0,
            },
        );
        // Québec (ca-central-1): hydroelectric; consistently very low,
        // 91.5% below PJM on average (§9.2 I1).
        p(
            "CA-QC",
            GridProfile {
                mean: 380.0 * (1.0 - 0.915),
                diurnal_amp: 0.06,
                diurnal_peak_hour: 18.0,
                solar_depth: 0.0,
                weekly_amp: 0.02,
                noise_sigma: 0.05,
                utc_offset: -5.0,
            },
        );
        // Alberta (ca-west-1): gas-heavy.
        p(
            "CA-AB",
            GridProfile {
                mean: 560.0,
                diurnal_amp: 0.05,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.05,
                weekly_amp: 0.03,
                noise_sigma: 0.05,
                utc_offset: -7.0,
            },
        );
        // Ireland (eu-west-1): wind-dominated, volatile.
        p(
            "IE",
            GridProfile {
                mean: 300.0,
                diurnal_amp: 0.08,
                diurnal_peak_hour: 18.0,
                solar_depth: 0.05,
                weekly_amp: 0.03,
                noise_sigma: 0.18,
                utc_offset: 0.0,
            },
        );
        // Germany (eu-central-1): solar + coal swings.
        p(
            "DE",
            GridProfile {
                mean: 420.0,
                diurnal_amp: 0.08,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.30,
                weekly_amp: 0.08,
                noise_sigma: 0.10,
                utc_offset: 1.0,
            },
        );
        // New South Wales (ap-southeast-2): coal with growing solar.
        p(
            "AU-NSW",
            GridProfile {
                mean: 600.0,
                diurnal_amp: 0.06,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.25,
                weekly_amp: 0.03,
                noise_sigma: 0.06,
                utc_offset: 10.0,
            },
        );
        // MISO (GCP us-central1): coal/wind mix.
        p(
            "US-MIDW-MISO",
            GridProfile {
                mean: 470.0,
                diurnal_amp: 0.07,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.06,
                weekly_amp: 0.04,
                noise_sigma: 0.06,
                utc_offset: -6.0,
            },
        );
        // Belgium (GCP europe-west1): nuclear plus gas.
        p(
            "BE",
            GridProfile {
                mean: 150.0,
                diurnal_amp: 0.10,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.12,
                weekly_amp: 0.05,
                noise_sigma: 0.10,
                utc_offset: 1.0,
            },
        );
        // Finland (GCP europe-north1): nuclear/hydro/wind.
        p(
            "FI",
            GridProfile {
                mean: 80.0,
                diurnal_amp: 0.08,
                diurnal_peak_hour: 18.0,
                solar_depth: 0.0,
                weekly_amp: 0.04,
                noise_sigma: 0.12,
                utc_offset: 2.0,
            },
        );
        // Brazil central-south (sa-east-1): hydro-dominated.
        p(
            "BR-CS",
            GridProfile {
                mean: 110.0,
                diurnal_amp: 0.10,
                diurnal_peak_hour: 19.0,
                solar_depth: 0.05,
                weekly_amp: 0.04,
                noise_sigma: 0.09,
                utc_offset: -3.0,
            },
        );
        SyntheticCarbonSource::new(profiles, seed)
    }

    /// Whether the source knows a grid zone.
    pub fn has_zone(&self, zone: &str) -> bool {
        self.profiles.contains_key(zone)
    }

    /// The profile of a zone.
    pub fn profile(&self, zone: &str) -> Option<&GridProfile> {
        self.profiles.get(zone)
    }

    fn zone_seed(&self, zone: &str) -> u64 {
        // FNV-1a over the zone name, mixed with the source seed.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in zone.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ self.seed.wrapping_mul(0x9e3779b97f4a7c15)
    }

    /// Smooth stochastic component: standard-normal knots every
    /// [`NOISE_KNOT_H`] hours, linearly interpolated, deterministic in
    /// `(seed, zone, knot index)`.
    fn noise(&self, zone: &str, hour: f64) -> f64 {
        let zs = self.zone_seed(zone);
        let knot = |k: i64| -> f64 {
            let mut rng = Pcg32::seed_stream(zs ^ (k as u64).wrapping_mul(0xd1342543de82ef95), zs);
            rng.standard_normal()
        };
        let pos = hour / NOISE_KNOT_H;
        let k0 = pos.floor();
        let frac = pos - k0;
        let k0 = k0 as i64;
        knot(k0) * (1.0 - frac) + knot(k0 + 1) * frac
    }

    /// Carbon intensity of a zone at fractional `hour` since the epoch,
    /// gCO₂eq/kWh. Unknown zones return the typed
    /// [`CarbonError::UnknownZone`] — callers resolving zones from user
    /// input surface it; adapters that validated coverage up front use
    /// [`SyntheticCarbonSource::profile_intensity`] on the hot path.
    pub fn zone_intensity(&self, zone: &str, hour: f64) -> Result<f64, CarbonError> {
        let p = self
            .profiles
            .get(zone)
            .ok_or_else(|| CarbonError::UnknownZone { zone: zone.into() })?;
        Ok(self.profile_intensity(p, zone, hour))
    }

    /// Intensity for an already-resolved profile: the infallible hot path
    /// behind [`SyntheticCarbonSource::zone_intensity`]. The `zone` name
    /// only seeds the deterministic noise stream, so profile and name must
    /// come from the same resolution.
    pub fn profile_intensity(&self, p: &GridProfile, zone: &str, hour: f64) -> f64 {
        let local = hour + p.utc_offset;
        let local_hod = local.rem_euclid(24.0);

        // Zero-mean diurnal cosine peaking at `diurnal_peak_hour`.
        let diurnal = (std::f64::consts::TAU * (local_hod - p.diurnal_peak_hour) / 24.0).cos();

        // Solar dip: Gaussian bump around midday, mean-removed so the shape
        // is zero-mean over the day.
        let bump = |h: f64| -> f64 {
            let d = h - SOLAR_PEAK_H;
            (-d * d / (2.0 * SOLAR_WIDTH_H * SOLAR_WIDTH_H)).exp()
        };
        // Mean of the bump over a 24 h period (numerically; constant).
        let bump_mean = SOLAR_WIDTH_H * (std::f64::consts::TAU).sqrt() / 24.0;
        let solar = bump(local_hod) - bump_mean;

        // Weekly modulation: weekend (epoch hour 0 is a Sunday) runs
        // cleaner. Zero-mean over the week: weekend (2 days) gets
        // -5/7 · amp... simplified to a centered two-level square wave.
        let day = (local / 24.0).rem_euclid(7.0);
        // Epoch is Sunday: days 0 (Sun) and 6 (Sat) are the weekend.
        let weekend = !(1.0..6.0).contains(&day);
        let weekly = if weekend { -5.0 / 7.0 } else { 2.0 / 7.0 };

        let shape = 1.0 + p.diurnal_amp * diurnal - p.solar_depth * solar
            + p.weekly_amp * weekly
            + p.noise_sigma * self.noise(zone, hour);
        (p.mean * shape).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::CarbonSeries;

    const WEEK_H: usize = 7 * 24;

    fn source() -> SyntheticCarbonSource {
        SyntheticCarbonSource::aws_calibrated(7)
    }

    /// A zone's hourly series from hour 0, read at each hour's midpoint.
    fn series(src: &SyntheticCarbonSource, zone: &str, hours: usize) -> CarbonSeries {
        let values = (0..hours).map(|h| src.zone_intensity(zone, h as f64 + 0.5).unwrap());
        CarbonSeries::new(0, values.collect())
    }

    fn mean_over(src: &SyntheticCarbonSource, zone: &str, hours: usize) -> f64 {
        series(src, zone, hours).mean()
    }

    #[test]
    fn quebec_far_below_pjm() {
        let s = source();
        let pjm = mean_over(&s, "US-MIDA-PJM", 4 * WEEK_H);
        let qc = mean_over(&s, "CA-QC", 4 * WEEK_H);
        let reduction = 1.0 - qc / pjm;
        assert!((reduction - 0.915).abs() < 0.03, "reduction {reduction}");
    }

    #[test]
    fn caiso_slightly_below_pjm() {
        let s = source();
        let pjm = mean_over(&s, "US-MIDA-PJM", 4 * WEEK_H);
        let ciso = mean_over(&s, "US-CAL-CISO", 4 * WEEK_H);
        let reduction = 1.0 - ciso / pjm;
        assert!((reduction - 0.061).abs() < 0.04, "reduction {reduction}");
    }

    #[test]
    fn pacw_comparable_to_pjm() {
        let s = source();
        let pjm = mean_over(&s, "US-MIDA-PJM", 4 * WEEK_H);
        let pacw = mean_over(&s, "US-NW-PACW", 4 * WEEK_H);
        assert!((pacw / pjm - 1.0).abs() < 0.08, "ratio {}", pacw / pjm);
    }

    #[test]
    fn caiso_solar_dip_visible() {
        // Nights in California should be much more carbon-intense than
        // midday (Fig. 2: "much greater carbon intensity at night").
        let s = source();
        let mut day = 0.0;
        let mut night = 0.0;
        for d in 0..7 {
            // Local 13:00 is UTC 21:00; local 02:00 is UTC 10:00.
            day += s
                .zone_intensity("US-CAL-CISO", d as f64 * 24.0 + 21.0)
                .unwrap();
            night += s
                .zone_intensity("US-CAL-CISO", d as f64 * 24.0 + 10.0)
                .unwrap();
        }
        assert!(night > day * 1.3, "day {day} night {night}");
    }

    #[test]
    fn quebec_is_flat() {
        let s = source();
        let series = series(&s, "CA-QC", WEEK_H);
        let rel_spread = (series.max() - series.min()) / series.mean();
        assert!(rel_spread < 0.6, "spread {rel_spread}");
    }

    #[test]
    fn deterministic_across_instances() {
        let a = SyntheticCarbonSource::aws_calibrated(7);
        let b = SyntheticCarbonSource::aws_calibrated(7);
        for h in 0..100 {
            assert_eq!(
                a.zone_intensity("US-MIDA-PJM", h as f64).unwrap(),
                b.zone_intensity("US-MIDA-PJM", h as f64).unwrap()
            );
        }
    }

    #[test]
    fn different_seed_changes_noise_not_mean() {
        let a = SyntheticCarbonSource::aws_calibrated(7);
        let b = SyntheticCarbonSource::aws_calibrated(8);
        let va = a.zone_intensity("US-MIDA-PJM", 10.0).unwrap();
        let vb = b.zone_intensity("US-MIDA-PJM", 10.0).unwrap();
        assert_ne!(va, vb);
        let ma = mean_over(&a, "US-MIDA-PJM", 8 * WEEK_H);
        let mb = mean_over(&b, "US-MIDA-PJM", 8 * WEEK_H);
        assert!((ma / mb - 1.0).abs() < 0.03);
    }

    #[test]
    fn intensity_always_positive() {
        let s = source();
        for zone in ["US-MIDA-PJM", "US-CAL-CISO", "CA-QC", "IE", "BR-CS"] {
            for h in 0..WEEK_H {
                assert!(s.zone_intensity(zone, h as f64).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn all_aws_catalog_zones_covered() {
        use caribou_model::region::RegionCatalog;
        let s = source();
        for (_, spec) in RegionCatalog::aws_default().iter() {
            assert!(s.has_zone(&spec.grid_zone), "missing {}", spec.grid_zone);
        }
    }

    #[test]
    fn unknown_zone_is_a_typed_error() {
        let err = source().zone_intensity("XX-NOWHERE", 0.0).unwrap_err();
        assert_eq!(
            err,
            CarbonError::UnknownZone {
                zone: "XX-NOWHERE".into()
            }
        );
        assert!(err.to_string().contains("XX-NOWHERE"));
    }

    #[test]
    fn diurnal_pattern_repeats_daily() {
        // Autocorrelation at lag 24 h should be clearly positive for PJM.
        let s = source();
        let series = series(&s, "US-MIDA-PJM", 14 * 24);
        let v = &series.values;
        let mean = series.mean();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..v.len() - 24 {
            num += (v[i] - mean) * (v[i + 24] - mean);
        }
        for x in v {
            den += (x - mean) * (x - mean);
        }
        let ac = num / den;
        assert!(ac > 0.2, "lag-24 autocorrelation {ac}");
    }
}
