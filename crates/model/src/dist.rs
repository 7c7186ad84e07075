//! Distribution specifications shared by the workload profiles and models.
//!
//! The paper's Metrics Manager captures execution times and transmission
//! latencies as *distributions* rather than averages (§7.1). [`DistSpec`]
//! is the declarative description of such a distribution; sampling and
//! summary statistics are provided here so every crate agrees on the
//! semantics.

use crate::error::ModelError;
use crate::rng::Pcg32;

/// A declarative distribution specification.
#[derive(Debug, Clone, PartialEq)]
pub enum DistSpec {
    /// A degenerate distribution always returning `value`.
    Constant {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Normal with the given mean and standard deviation, truncated at zero
    /// (negative samples are clamped to zero, appropriate for durations and
    /// sizes).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal parameterized by the *linear-space* median and a
    /// multiplicative spread `sigma` (log-space standard deviation).
    LogNormal {
        /// Median of the distribution in linear space.
        median: f64,
        /// Log-space standard deviation; 0.25 gives mild skew.
        sigma: f64,
    },
    /// An empirical distribution resampling the stored observations.
    Empirical {
        /// Observed samples; must be non-empty.
        samples: Vec<f64>,
    },
}

impl DistSpec {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), ModelError> {
        let bad = |reason: &str| {
            Err(ModelError::InvalidDistribution {
                reason: reason.to_string(),
            })
        };
        match self {
            DistSpec::Constant { value } => {
                if !value.is_finite() {
                    return bad("constant value must be finite");
                }
            }
            DistSpec::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite()) || lo > hi {
                    return bad("uniform requires finite lo <= hi");
                }
            }
            DistSpec::Normal { mean, std_dev } => {
                if !(mean.is_finite() && std_dev.is_finite()) || *std_dev < 0.0 {
                    return bad("normal requires finite mean and std_dev >= 0");
                }
            }
            DistSpec::LogNormal { median, sigma } => {
                if !(median.is_finite() && sigma.is_finite()) || *median <= 0.0 || *sigma < 0.0 {
                    return bad("lognormal requires median > 0 and sigma >= 0");
                }
            }
            DistSpec::Empirical { samples } => {
                if samples.is_empty() {
                    return bad("empirical distribution requires samples");
                }
                if samples.iter().any(|s| !s.is_finite()) {
                    return bad("empirical samples must be finite");
                }
            }
        }
        Ok(())
    }

    /// Draws one sample, preparing the spec for this one draw (a caller
    /// drawing many prepares once: [`DistSpec::prepare`]).
    pub fn sample(&self, rng: &mut Pcg32) -> f64 {
        self.prepare().sample(rng)
    }

    /// Analytical (or empirical) mean of the distribution.
    ///
    /// For the zero-truncated normal the untruncated mean is returned; the
    /// profiles keep `std_dev` well below `mean`, making the truncation
    /// correction negligible.
    pub fn mean(&self) -> f64 {
        match self {
            DistSpec::Constant { value } => *value,
            DistSpec::Uniform { lo, hi } => 0.5 * (lo + hi),
            DistSpec::Normal { mean, .. } => mean.max(0.0),
            DistSpec::LogNormal { median, sigma } => median * (0.5 * sigma * sigma).exp(),
            DistSpec::Empirical { samples } => {
                samples.iter().sum::<f64>() / samples.len().max(1) as f64
            }
        }
    }

    /// Compiles the spec into a [`PreparedDist`] with per-draw-invariant
    /// work (currently the log-normal `median.ln()`) hoisted out. Each
    /// family's draw is written once, in [`PreparedDist::sample`].
    pub fn prepare(&self) -> PreparedDist<'_> {
        match self {
            DistSpec::Constant { value } => PreparedDist::Constant(*value),
            DistSpec::Uniform { lo, hi } => PreparedDist::Uniform { lo: *lo, hi: *hi },
            DistSpec::Normal { mean, std_dev } => PreparedDist::Normal {
                mean: *mean,
                std_dev: *std_dev,
            },
            DistSpec::LogNormal { median, sigma } => PreparedDist::LogNormal {
                mu: median.ln(),
                sigma: *sigma,
            },
            DistSpec::Empirical { samples } => PreparedDist::Empirical(samples),
        }
    }

    /// Scales the distribution multiplicatively (used for region performance
    /// factors and input-size scaling).
    pub fn scaled(&self, factor: f64) -> DistSpec {
        match self {
            DistSpec::Constant { value } => DistSpec::Constant {
                value: value * factor,
            },
            DistSpec::Uniform { lo, hi } => DistSpec::Uniform {
                lo: lo * factor,
                hi: hi * factor,
            },
            DistSpec::Normal { mean, std_dev } => DistSpec::Normal {
                mean: mean * factor,
                std_dev: std_dev * factor,
            },
            DistSpec::LogNormal { median, sigma } => DistSpec::LogNormal {
                median: median * factor,
                sigma: *sigma,
            },
            DistSpec::Empirical { samples } => DistSpec::Empirical {
                samples: samples.iter().map(|s| s * factor).collect(),
            },
        }
    }
}

/// A compiled distribution ready for repeated sampling on a hot path.
///
/// Borrowing form of [`DistSpec`] produced by [`DistSpec::prepare`]; the
/// log-normal log-space location is precomputed so the estimator does not
/// pay an `ln` per draw.
#[derive(Debug, Clone, Copy)]
pub enum PreparedDist<'a> {
    /// Degenerate distribution; draws nothing.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Zero-truncated normal.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal with the *log-space* location precomputed.
    LogNormal {
        /// Log-space location (`median.ln()` of the source spec).
        mu: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
    /// Empirical resampling over borrowed observations.
    Empirical(&'a [f64]),
}

impl PreparedDist<'_> {
    /// Draws one sample.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg32) -> f64 {
        match self {
            PreparedDist::Constant(value) => *value,
            PreparedDist::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            PreparedDist::Normal { mean, std_dev } => rng.normal(*mean, *std_dev).max(0.0),
            PreparedDist::LogNormal { mu, sigma } => rng.lognormal(*mu, *sigma),
            PreparedDist::Empirical(samples) => *rng
                .choose(samples)
                .expect("validated empirical distribution is non-empty"),
        }
    }
}

/// The owned counterpart of [`PreparedDist`], for a holder that outlives
/// the spec it was prepared from: the spec itself, so the holder can tell
/// whether it still describes a profile's distribution, and its log-normal
/// location taken once, here.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSpec {
    spec: DistSpec,
    /// The location a [`PreparedDist::LogNormal`] of `spec` carries; 0 for
    /// every other family.
    mu: f64,
}

impl PreparedSpec {
    /// Prepares `spec`.
    pub fn new(spec: DistSpec) -> Self {
        let mu = match spec.prepare() {
            PreparedDist::LogNormal { mu, .. } => mu,
            _ => 0.0,
        };
        PreparedSpec { spec, mu }
    }

    /// The spec this was prepared from.
    pub fn spec(&self) -> &DistSpec {
        &self.spec
    }

    /// The borrowing form, with no logarithm taken.
    #[inline]
    pub fn get(&self) -> PreparedDist<'_> {
        match &self.spec {
            DistSpec::LogNormal { sigma, .. } => PreparedDist::LogNormal {
                mu: self.mu,
                sigma: *sigma,
            },
            spec => spec.prepare(),
        }
    }

    /// Draws one sample; bit-identical to [`DistSpec::sample`] of the spec.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg32) -> f64 {
        self.get().sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(spec: &DistSpec, n: usize, seed: u64) -> f64 {
        let mut rng = Pcg32::seed(seed);
        (0..n).map(|_| spec.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_samples_constant() {
        let d = DistSpec::Constant { value: 4.2 };
        let mut rng = Pcg32::seed(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4.2);
        }
        assert_eq!(d.mean(), 4.2);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = DistSpec::Uniform { lo: 2.0, hi: 6.0 };
        let mut rng = Pcg32::seed(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((sample_mean(&d, 20_000, 3) - 4.0).abs() < 0.05);
    }

    #[test]
    fn normal_truncated_at_zero() {
        let d = DistSpec::Normal {
            mean: 0.1,
            std_dev: 1.0,
        };
        let mut rng = Pcg32::seed(4);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let d = DistSpec::LogNormal {
            median: 3.0,
            sigma: 0.4,
        };
        let analytic = d.mean();
        let empirical = sample_mean(&d, 100_000, 5);
        assert!(
            (empirical - analytic).abs() / analytic < 0.02,
            "analytic {analytic} empirical {empirical}"
        );
    }

    #[test]
    fn empirical_resamples_observations() {
        let d = DistSpec::Empirical {
            samples: vec![1.0, 2.0, 3.0],
        };
        let mut rng = Pcg32::seed(6);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!(x == 1.0 || x == 2.0 || x == 3.0);
        }
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DistSpec::Uniform { lo: 3.0, hi: 1.0 }.validate().is_err());
        assert!(DistSpec::LogNormal {
            median: 0.0,
            sigma: 0.1
        }
        .validate()
        .is_err());
        assert!(DistSpec::Empirical { samples: vec![] }.validate().is_err());
        assert!(DistSpec::Normal {
            mean: 1.0,
            std_dev: -1.0
        }
        .validate()
        .is_err());
        assert!(DistSpec::Constant { value: f64::NAN }.validate().is_err());
    }

    #[test]
    fn prepared_dist_bit_identical_to_spec() {
        let specs = [
            DistSpec::Constant { value: 4.2 },
            DistSpec::Uniform { lo: 2.0, hi: 6.0 },
            DistSpec::Normal {
                mean: 0.1,
                std_dev: 1.0,
            },
            DistSpec::LogNormal {
                median: 3.0,
                sigma: 0.4,
            },
            DistSpec::Empirical {
                samples: vec![1.0, 2.5, 3.0, 7.5],
            },
        ];
        for (i, spec) in specs.iter().enumerate() {
            let prepared = spec.prepare();
            let owned = PreparedSpec::new(spec.clone());
            assert_eq!(owned.spec(), spec);
            for seed in 0..4u64 {
                let mut a = Pcg32::seed(seed * 31 + i as u64);
                let mut b = a.clone();
                let mut c = a.clone();
                for _ in 0..500 {
                    let x = spec.sample(&mut a);
                    let y = prepared.sample(&mut b);
                    let z = owned.sample(&mut c);
                    assert_eq!(x.to_bits(), y.to_bits(), "spec {spec:?}");
                    assert_eq!(x.to_bits(), z.to_bits(), "owned {spec:?}");
                }
                // Streams consumed the same number of draws.
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
        }
    }

    #[test]
    fn scaled_scales_mean() {
        let d = DistSpec::LogNormal {
            median: 2.0,
            sigma: 0.3,
        };
        let s = d.scaled(2.5);
        assert!((s.mean() - 2.5 * d.mean()).abs() < 1e-9);
    }
}
