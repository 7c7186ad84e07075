//! Operational carbon model (Eqs. 7.1 and 7.5).
//!
//! Execution carbon: `Carbon_ex = I_grid × (E_proc + E_mem) × PUE`.
//! Transmission carbon: `Carbon_tran = I_route × EF_trans × S`.
//!
//! Following §7.1, embodied carbon is excluded (sunk cost under capacity
//! availability), the grid signal is the average carbon intensity (ACI),
//! and the transmission energy factor `EF_trans` is swept between a
//! best-case scenario (0.001 kWh/GB everywhere) and a worst-case one
//! (0.005 kWh/GB inter-region, free intra-region).

use crate::energy;

/// Transmission energy factor scenario (kWh/GB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionScenario {
    /// Factor applied to data crossing region boundaries.
    pub inter_region_kwh_per_gb: f64,
    /// Factor applied to data staying within a region.
    pub intra_region_kwh_per_gb: f64,
}

impl TransmissionScenario {
    /// The paper's best case for offloading: 0.001 kWh/GB for any
    /// transmission.
    pub const BEST: TransmissionScenario = TransmissionScenario {
        inter_region_kwh_per_gb: 0.001,
        intra_region_kwh_per_gb: 0.001,
    };

    /// The paper's worst case for offloading: 0.005 kWh/GB inter-region,
    /// free intra-region.
    pub const WORST: TransmissionScenario = TransmissionScenario {
        inter_region_kwh_per_gb: 0.005,
        intra_region_kwh_per_gb: 0.0,
    };

    /// A custom scenario with equal intra/inter factors (the left
    /// sub-figure of Fig. 9).
    pub fn equal(factor: f64) -> Self {
        TransmissionScenario {
            inter_region_kwh_per_gb: factor,
            intra_region_kwh_per_gb: factor,
        }
    }

    /// A custom scenario with free intra-region transfer (the right
    /// sub-figure of Fig. 9).
    pub fn free_intra(inter_factor: f64) -> Self {
        TransmissionScenario {
            inter_region_kwh_per_gb: inter_factor,
            intra_region_kwh_per_gb: 0.0,
        }
    }

    /// The factor for a transfer.
    pub fn factor(&self, intra_region: bool) -> f64 {
        if intra_region {
            self.intra_region_kwh_per_gb
        } else {
            self.inter_region_kwh_per_gb
        }
    }
}

/// The operational carbon model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonModel {
    /// Transmission energy scenario.
    pub scenario: TransmissionScenario,
}

impl CarbonModel {
    /// Creates the model for a scenario.
    pub fn new(scenario: TransmissionScenario) -> Self {
        CarbonModel { scenario }
    }

    /// Execution carbon from profile parameters, gCO₂eq (Eq. 7.1; the PUE
    /// is applied inside the energy model).
    pub fn execution_carbon_params(
        &self,
        memory_mb: u32,
        duration_s: f64,
        utilization: f64,
        grid_intensity: f64,
    ) -> f64 {
        grid_intensity * energy::expected_energy_kwh(memory_mb, duration_s, utilization)
    }

    /// Transmission carbon of moving `bytes` along a route with intensity
    /// `route_intensity`, gCO₂eq (Eq. 7.5).
    pub fn transmission_carbon(&self, bytes: f64, route_intensity: f64, intra_region: bool) -> f64 {
        let gb = bytes.max(0.0) / 1.0e9;
        route_intensity * self.scenario.factor(intra_region) * gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_carbon_scales_with_intensity() {
        let m = CarbonModel::new(TransmissionScenario::BEST);
        let low = m.execution_carbon_params(1769, 10.0, 0.7, 30.0);
        let high = m.execution_carbon_params(1769, 10.0, 0.7, 380.0);
        assert!((high / low - 380.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn transmission_carbon_formula() {
        let m = CarbonModel::new(TransmissionScenario::BEST);
        // 1 GB at 100 g/kWh × 0.001 kWh/GB = 0.1 g.
        let c = m.transmission_carbon(1.0e9, 100.0, false);
        assert!((c - 0.1).abs() < 1e-12);
    }

    #[test]
    fn worst_case_intra_region_free() {
        let m = CarbonModel::new(TransmissionScenario::WORST);
        assert_eq!(m.transmission_carbon(1.0e9, 100.0, true), 0.0);
        let inter = m.transmission_carbon(1.0e9, 100.0, false);
        assert!((inter - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scenario_constructors() {
        let eq = TransmissionScenario::equal(0.002);
        assert_eq!(eq.factor(true), 0.002);
        assert_eq!(eq.factor(false), 0.002);
        let fi = TransmissionScenario::free_intra(0.004);
        assert_eq!(fi.factor(true), 0.0);
        assert_eq!(fi.factor(false), 0.004);
    }

    #[test]
    fn paper_scale_check_compute_vs_transmission() {
        // A 10 s single-vCPU execution on the PJM grid (~380 g/kWh) emits
        // a few milligrams; moving ~1 MB in the best case emits far less,
        // moving ~1 GB far more — the compute-to-transmission balance that
        // drives Fig. 8.
        let m = CarbonModel::new(TransmissionScenario::BEST);
        let exec = m.execution_carbon_params(1769, 10.0, 0.7, 380.0);
        let small_tx = m.transmission_carbon(1.0e6, 380.0, false);
        let big_tx = m.transmission_carbon(1.0e9, 380.0, false);
        assert!(exec > small_tx, "exec {exec} small_tx {small_tx}");
        assert!(exec < big_tx, "exec {exec} big_tx {big_tx}");
    }
}
