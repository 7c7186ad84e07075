//! Holt-Winters triple exponential smoothing (§7.2).
//!
//! The Metrics Manager forecasts carbon intensity "using Holt-Winters
//! Forecasting Exponential Smoothing once every day using the hourly
//! carbon intensities of the previous week as input". This is the additive
//! formulation with a 24-hour season; smoothing parameters are selected by
//! a grid search minimizing in-sample one-step-ahead mean absolute error
//! over 48 (α, β, γ) points, the first least error in α-β-γ order winning.
//!
//! Every point starts from the same state and reads the same history, so
//! the grid is fitted in lockstep: each point is a lane holding its own
//! level, trend, seasonal indices and error sum, and every lane advances
//! at each history step. A lane does exactly the arithmetic a fit of its
//! one point would, in the same order, so the result is bit for bit that
//! of fitting the points one at a time, in about a quarter of the time
//! (one region's week: 11–20 µs, against 54–60 µs point by point, on a
//! 2-vCPU x86-64 host).

/// A fitted additive Holt-Winters model.
///
/// # Examples
///
/// ```
/// use caribou_carbon::forecast::HoltWinters;
///
/// // Two days of a clean daily pattern forecast the third day closely.
/// let data: Vec<f64> = (0..48)
///     .map(|h| 300.0 + 40.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).cos())
///     .collect();
/// let model = HoltWinters::fit(&data, 24);
/// let day3 = model.forecast(24);
/// assert!((day3[0] - data[0]).abs() < 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct HoltWinters {
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Season length (24 for hourly data with daily seasonality).
    pub season: usize,
    /// Level smoothing parameter.
    pub alpha: f64,
    /// Trend smoothing parameter.
    pub beta: f64,
    /// Seasonal smoothing parameter.
    pub gamma: f64,
    /// In-sample one-step-ahead mean absolute error.
    pub mae: f64,
    /// Next seasonal index to emit.
    phase: usize,
}

/// The smoothing grid in search order: α outer, then β, then γ. The
/// first point of least in-sample error wins, so this order breaks ties.
const ALPHAS: [f64; 4] = [0.05, 0.15, 0.3, 0.5];
const BETAS: [f64; 3] = [0.0, 0.01, 0.05];
const GAMMAS: [f64; 4] = [0.05, 0.15, 0.3, 0.5];

/// One lane per grid point.
const LANES: usize = ALPHAS.len() * BETAS.len() * GAMMAS.len();

/// A value per grid point, in grid order.
type Lanes = [f64; LANES];

/// The (α, β, γ) of a lane.
fn point(lane: usize) -> (f64, f64, f64) {
    (
        ALPHAS[lane / (BETAS.len() * GAMMAS.len())],
        BETAS[lane / GAMMAS.len() % BETAS.len()],
        GAMMAS[lane % GAMMAS.len()],
    )
}

impl HoltWinters {
    /// Fits the model on `data` with the given season length, grid-searching
    /// the smoothing parameters.
    ///
    /// The grid's points are fitted in lockstep, a lane each (module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than two full seasons or `season == 0`.
    pub fn fit(data: &[f64], season: usize) -> Self {
        assert!(season > 0, "season must be positive");
        assert!(
            data.len() >= 2 * season,
            "need at least two seasons of data ({} < {})",
            data.len(),
            2 * season
        );
        // Each lane's weights, and the `1 - weight` of each, taken once.
        let points: [(f64, f64, f64); LANES] = std::array::from_fn(point);
        let (alpha, beta, gamma) = (
            points.map(|p| p.0),
            points.map(|p| p.1),
            points.map(|p| p.2),
        );
        let keep = |weight: Lanes| weight.map(|w| 1.0 - w);
        let (keep_alpha, keep_beta, keep_gamma) = (keep(alpha), keep(beta), keep(gamma));

        // Initialization: level = mean of the first season; trend from the
        // difference of the first two season means; seasonal indices from
        // deviations of the first season.
        let s0: f64 = data[..season].iter().sum::<f64>() / season as f64;
        let s1: f64 = data[season..2 * season].iter().sum::<f64>() / season as f64;
        let mut level: Lanes = [s0; LANES];
        let mut trend: Lanes = [(s1 - s0) / season as f64; LANES];
        let mut seasonal: Vec<Lanes> = data[..season].iter().map(|x| [x - s0; LANES]).collect();

        let mut abs_err: Lanes = [0.0; LANES];
        for (t, &x) in data.iter().enumerate().skip(season) {
            let s = &mut seasonal[t % season];
            for l in 0..LANES {
                let predicted = level[l] + trend[l] + s[l];
                abs_err[l] += (x - predicted).abs();
                let prev_level = level[l];
                level[l] = alpha[l] * (x - s[l]) + keep_alpha[l] * (level[l] + trend[l]);
                trend[l] = beta[l] * (level[l] - prev_level) + keep_beta[l] * trend[l];
                s[l] = gamma[l] * (x - level[l]) + keep_gamma[l] * s[l];
            }
        }
        let count = data.len() - season;
        let mae = abs_err.map(|e| e / count as f64);
        // The first strict minimum in grid order.
        let best = (1..LANES).fold(0, |best, l| if mae[l] < mae[best] { l } else { best });
        let (alpha, beta, gamma) = point(best);
        HoltWinters {
            level: level[best],
            trend: trend[best],
            seasonal: seasonal.iter().map(|s| s[best]).collect(),
            season,
            alpha,
            beta,
            gamma,
            mae: mae[best],
            phase: data.len() % season,
        }
    }

    /// Forecasts the next `horizon` steps after the end of the fitted data.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        (1..=horizon)
            .map(|h| {
                let si = (self.phase + h - 1) % self.season;
                (self.level + h as f64 * self.trend + self.seasonal[si]).max(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(days: usize) -> Vec<f64> {
        (0..days * 24)
            .map(|h| {
                let hod = (h % 24) as f64;
                300.0 + 50.0 * (std::f64::consts::TAU * (hod - 18.0) / 24.0).cos()
            })
            .collect()
    }

    #[test]
    fn recovers_pure_seasonal_pattern() {
        let data = seasonal_series(7);
        let hw = HoltWinters::fit(&data, 24);
        let f = hw.forecast(24);
        for (h, v) in f.iter().enumerate() {
            let expected = 300.0 + 50.0 * (std::f64::consts::TAU * (h as f64 - 18.0) / 24.0).cos();
            assert!(
                (v - expected).abs() < 10.0,
                "hour {h}: forecast {v}, expected {expected}"
            );
        }
    }

    #[test]
    fn tracks_linear_trend() {
        let data: Vec<f64> = (0..7 * 24).map(|h| 100.0 + 0.5 * h as f64).collect();
        let hw = HoltWinters::fit(&data, 24);
        let f = hw.forecast(24);
        // At step h the truth is 100 + 0.5*(168 + h - 1 + 1).
        let truth_24 = 100.0 + 0.5 * (168.0 + 24.0);
        assert!(
            (f[23] - truth_24).abs() / truth_24 < 0.1,
            "forecast {} truth {truth_24}",
            f[23]
        );
    }

    #[test]
    fn forecast_never_negative() {
        let data: Vec<f64> = (0..48)
            .map(|h| if h % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let hw = HoltWinters::fit(&data, 24);
        assert!(hw.forecast(100).iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn error_grows_with_horizon_on_noisy_series() {
        use caribou_model::rng::Pcg32;
        let mut rng = Pcg32::seed(5);
        // Seasonal pattern plus a slow random walk: near-term forecasts
        // should beat far-term ones.
        let mut walk: f64 = 0.0;
        let data: Vec<f64> = (0..14 * 24)
            .map(|h| {
                walk += rng.normal(0.0, 3.0);
                let hod = (h % 24) as f64;
                400.0 + walk + 60.0 * (std::f64::consts::TAU * (hod - 19.0) / 24.0).cos()
            })
            .collect();
        let train = &data[..7 * 24];
        let test = &data[7 * 24..];
        let hw = HoltWinters::fit(train, 24);
        let f = hw.forecast(7 * 24);
        let err = |range: std::ops::Range<usize>| -> f64 {
            range.clone().map(|i| (f[i] - test[i]).abs()).sum::<f64>() / range.len() as f64
        };
        let near = err(0..24);
        let far = err(5 * 24..7 * 24);
        assert!(far > near, "near {near} far {far}");
    }

    #[test]
    #[should_panic]
    fn too_little_data_panics() {
        HoltWinters::fit(&[1.0; 30], 24);
    }

    /// Folds `value` into a running digest.
    fn fold(digest: &mut u64, value: u64) {
        *digest = caribou_model::rng::mix64(*digest ^ value.wrapping_add(0x9e37_79b9_7f4a_7c15));
    }

    /// Folds every bit a fit leaves: the chosen point, its error, the
    /// state it ends in and the 48 hours it forecasts.
    fn fold_fit(digest: &mut u64, hw: &HoltWinters) {
        for v in [hw.alpha, hw.beta, hw.gamma, hw.mae, hw.level, hw.trend] {
            fold(digest, v.to_bits());
        }
        for v in hw.seasonal.iter().chain(&hw.forecast(48)) {
            fold(digest, v.to_bits());
        }
        fold(digest, (hw.season + 1000 * hw.phase) as u64);
    }

    /// What every fit returns, pinned to the bit: the calibrated grid
    /// zones' trailing weeks at three fit hours, then the series the grid
    /// search meets at its edges — a constant (every point ties and the
    /// first must win), a line, exactly two seasons, a 0/1 alternation, a
    /// NaN, a 1e6 spike and subnormals whose ties only the grid's order
    /// breaks; then `ForecastingSource::fit`'s 48-hour
    /// forecast of every region of both provider sets. A change to how the
    /// grid is searched must leave both digests alone.
    #[test]
    fn every_forecast_fit_is_pinned() {
        use crate::source::{ForecastingSource, RegionalSource};
        use crate::synth::SyntheticCarbonSource;
        use caribou_model::region::{ProviderSet, RegionCatalog};

        let synth = SyntheticCarbonSource::aws_calibrated(20231015);
        let mut zones: Vec<String> = RegionCatalog::multi_cloud()
            .iter()
            .map(|(_, spec)| spec.grid_zone.clone())
            .collect();
        zones.sort();
        zones.dedup();
        let fit_hours = [168.0, 240.0, 24.0 * 11.0 + 7.0];
        let mut series: Vec<Vec<f64>> = Vec::new();
        for zone in &zones {
            for at in fit_hours {
                series.push(
                    (0..168)
                        .map(|i| synth.zone_intensity(zone, at - 168.0 + i as f64 + 0.5))
                        .collect::<Result<_, _>>()
                        .expect("a calibrated zone"),
                );
            }
        }
        let week = seasonal_series(7);
        let with_at = |i: usize, v: f64| {
            let mut s = week.clone();
            s[i] = v;
            s
        };
        let constant = vec![250.0; 168];
        let first = HoltWinters::fit(&constant, 24);
        assert_eq!((first.alpha, first.beta, first.gamma), (0.05, 0.0, 0.05));
        series.push(constant);
        series.push((0..168).map(|h| 100.0 + 0.5 * h as f64).collect());
        series.push(seasonal_series(2));
        series.push((0..168).map(|h| (h % 2) as f64).collect());
        series.push(with_at(100, f64::NAN));
        series.push(with_at(77, 1e6));
        // Three days of subnormals, coarse enough that the MAE rounds to a
        // few units of the least subnormal and points of different β and
        // γ tie: only the grid's order decides among them.
        series.push(
            (0..72u64)
                .map(|h| {
                    let k = caribou_model::rng::mix64(51_000 + h) % 3 + h / 24 * 2;
                    f64::from_bits(40 * k)
                })
                .collect(),
        );
        let mut fits = 0u64;
        for s in &series {
            fold_fit(&mut fits, &HoltWinters::fit(s, 24));
        }

        let mut sources = 0u64;
        for set in [
            ProviderSet::aws_only(),
            ProviderSet::parse("aws,gcp").unwrap(),
        ] {
            let catalog = RegionCatalog::of_providers(set);
            let source = RegionalSource::new(&catalog, synth.clone()).expect("calibrated");
            let regions: Vec<_> = catalog.iter().map(|(id, _)| id).collect();
            for at in fit_hours {
                let forecast = ForecastingSource::fit(&source, &regions, at, 48);
                for &r in &regions {
                    for h in 0..48 {
                        let v = forecast.try_intensity(r, at + h as f64).expect("fitted");
                        fold(&mut sources, v.to_bits());
                    }
                }
            }
        }
        assert_eq!(
            (series.len(), fits, sources),
            (43, 0xa9f6_bc84_04b1_7aed, 0x82e5_2af9_d5e2_a6dc),
            "{} series, fits {fits:#018x}, sources {sources:#018x}",
            series.len()
        );
    }
}
