//! Marginal carbon intensity (MCI) signal (§7.1's open design choice).
//!
//! The paper schedules on *average* carbon intensity (ACI) because MCI
//! signals are uncertain and hard to verify, while noting that "there is
//! growing interest in using MCI for carbon-aware optimization, but it can
//! lead to different decisions". This module provides a synthetic MCI
//! derived from an ACI source so that difference can be studied (the
//! `ablation_signal` experiment):
//!
//! The marginal generator on most grids is a dispatchable fossil unit
//! (usually gas, ~450 gCO₂eq/kWh), largely independent of how clean the
//! *average* mix is — the canonical example being hydro-heavy Québec,
//! whose ACI is tiny but whose marginal megawatt is often imported or
//! gas-fired. The model blends a gas-peaker base with a coupling to the
//! ACI signal (renewables-on-the-margin hours) plus the ACI's own diurnal
//! phase:
//!
//! `MCI(r, t) = (1 − c) · I_gas + c · ACI(r, t) + spread · z(r, t)`
//!
//! where `z` is smooth zero-mean noise. With the default coupling of 0.3
//! the cross-region MCI differential is far smaller than the ACI one —
//! reproducing the literature's observation that MCI-based optimization
//! sees much less opportunity in geospatial shifting.

use caribou_model::region::RegionId;

use crate::source::CarbonDataSource;

/// Combustion intensity of a gas peaker, gCO₂eq/kWh.
pub const GAS_PEAKER_INTENSITY: f64 = 450.0;

/// A synthetic marginal-carbon-intensity view over an ACI source.
#[derive(Debug, Clone)]
pub struct MarginalSource<S> {
    aci: S,
    /// Weight of the ACI signal in the blend, `[0, 1]`.
    pub coupling: f64,
    /// Amplitude of the extra marginal-unit volatility, gCO₂eq/kWh.
    pub spread: f64,
}

impl<S> MarginalSource<S> {
    /// Wraps an ACI source with the default literature-flavored blend.
    pub fn new(aci: S) -> Self {
        MarginalSource {
            aci,
            coupling: 0.3,
            spread: 60.0,
        }
    }

    /// The wrapped ACI source.
    pub fn aci(&self) -> &S {
        &self.aci
    }
}

impl<S: CarbonDataSource> CarbonDataSource for MarginalSource<S> {
    fn intensity(&self, region: RegionId, hour: f64) -> f64 {
        let aci = self.aci.intensity(region, hour);
        // Smooth deterministic zero-mean wobble per (region, 3 h window).
        let knot = |k: i64| -> f64 {
            let mut h = (k as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ ((region.0 as u64) << 32);
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58476d1ce4e5b9);
            h ^= h >> 32;
            (h as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let pos = hour / 3.0;
        let k0 = pos.floor();
        let frac = pos - k0;
        let z = knot(k0 as i64) * (1.0 - frac) + knot(k0 as i64 + 1) * frac;
        ((1.0 - self.coupling) * GAS_PEAKER_INTENSITY + self.coupling * aci + self.spread * z)
            .max(1.0)
    }

    fn counts_queries(&self) -> bool {
        self.aci.counts_queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::CarbonSeries;
    use crate::source::TableSource;

    fn aci() -> TableSource {
        let mut t = TableSource::new();
        t.insert(RegionId(0), CarbonSeries::new(0, vec![380.0; 48])); // fossil
        t.insert(RegionId(1), CarbonSeries::new(0, vec![32.0; 48])); // hydro
        t
    }

    #[test]
    fn hydro_grid_marginal_far_above_its_average() {
        let m = MarginalSource::new(aci());
        let hydro_aci = m.aci().intensity(RegionId(1), 5.0);
        let hydro_mci = m.intensity(RegionId(1), 5.0);
        assert!(
            hydro_mci > hydro_aci * 5.0,
            "aci {hydro_aci} mci {hydro_mci}"
        );
    }

    #[test]
    fn mci_differential_much_smaller_than_aci_differential() {
        let m = MarginalSource::new(aci());
        let mut aci_diff = 0.0;
        let mut mci_diff = 0.0;
        for h in 0..48 {
            let t = h as f64 + 0.5;
            aci_diff += m.aci().intensity(RegionId(0), t) - m.aci().intensity(RegionId(1), t);
            mci_diff += (m.intensity(RegionId(0), t) - m.intensity(RegionId(1), t)).abs();
        }
        assert!(
            mci_diff < aci_diff * 0.5,
            "MCI differential should shrink: aci {aci_diff} mci {mci_diff}"
        );
    }

    #[test]
    fn deterministic_and_positive() {
        let m = MarginalSource::new(aci());
        for h in 0..100 {
            let t = h as f64 * 0.7;
            let v = m.intensity(RegionId(0), t);
            assert!(v > 0.0 && v.is_finite());
            assert_eq!(v, m.intensity(RegionId(0), t));
        }
    }

    #[test]
    fn coupling_one_tracks_aci_up_to_spread() {
        let mut m = MarginalSource::new(aci());
        m.coupling = 1.0;
        m.spread = 0.0;
        assert!((m.intensity(RegionId(0), 3.0) - 380.0).abs() < 1e-9);
        assert!((m.intensity(RegionId(1), 3.0) - 32.0).abs() < 1e-9);
    }
}
