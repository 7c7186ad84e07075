//! The serverless energy model of §7.1 (Eqs. 7.2–7.4).
//!
//! * Memory energy: `E_mem = P_mem × (mem/1024) × t/3600` with
//!   `P_mem = 3.725e-4 kW/GB`.
//! * vCPU power: linear in utilization between `P_min = 7.5e-4 kW` and
//!   `P_max = 3.5e-3 kW` per core (Eq. 7.3).
//! * Processor energy: `E_proc = P_vcpu × n_vcpu × t/3600` (Eq. 7.4).
//!
//! All energies are in kWh.

use caribou_simcloud::compute::vcpus;

/// Memory power per GB, kW (§7.1).
pub const P_MEM_KW_PER_GB: f64 = 3.725e-4;
/// Idle power per vCPU, kW (§7.1, estimate for AWS datacenters).
pub const P_MIN_KW: f64 = 7.5e-4;
/// Fully-utilized power per vCPU, kW.
pub const P_MAX_KW: f64 = 3.5e-3;
/// Power usage effectiveness used by the paper: mid-point of the reported
/// 1.07–1.15 AWS range.
pub const PUE: f64 = 1.11;

/// Memory energy of an execution, kWh (Eq. 7.2).
pub fn memory_energy_kwh(memory_mb: u32, duration_s: f64) -> f64 {
    P_MEM_KW_PER_GB * (memory_mb as f64 / 1024.0) * duration_s / 3600.0
}

/// Per-vCPU power from average utilization, kW (Eq. 7.3).
pub fn vcpu_power_kw(utilization: f64) -> f64 {
    P_MIN_KW + utilization.clamp(0.0, 1.0) * (P_MAX_KW - P_MIN_KW)
}

/// Processor energy of an execution, kWh (Eq. 7.4).
pub fn processor_energy_kwh(memory_mb: u32, duration_s: f64, utilization: f64) -> f64 {
    vcpu_power_kw(utilization) * vcpus(memory_mb) * duration_s / 3600.0
}

/// Total facility-level energy of an execution from profile parameters
/// (processor + memory, PUE applied), kWh.
pub fn expected_energy_kwh(memory_mb: u32, duration_s: f64, utilization: f64) -> f64 {
    (processor_energy_kwh(memory_mb, duration_s, utilization)
        + memory_energy_kwh(memory_mb, duration_s))
        * PUE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_energy_matches_formula() {
        // 1024 MB for 3600 s = 1 GB-h → P_MEM kWh.
        let e = memory_energy_kwh(1024, 3600.0);
        assert!((e - P_MEM_KW_PER_GB).abs() < 1e-15);
    }

    #[test]
    fn vcpu_power_bounds() {
        assert!((vcpu_power_kw(0.0) - P_MIN_KW).abs() < 1e-15);
        assert!((vcpu_power_kw(1.0) - P_MAX_KW).abs() < 1e-15);
        assert!((vcpu_power_kw(0.5) - 0.5 * (P_MIN_KW + P_MAX_KW)).abs() < 1e-12);
        // Clamped outside [0, 1].
        assert!((vcpu_power_kw(2.0) - P_MAX_KW).abs() < 1e-12);
        assert!((vcpu_power_kw(-1.0) - P_MIN_KW).abs() < 1e-12);
    }

    #[test]
    fn processor_energy_one_vcpu_hour() {
        // 1769 MB (one vCPU) fully utilized for one hour → P_MAX kWh.
        let e = processor_energy_kwh(1769, 3600.0, 1.0);
        assert!((e - P_MAX_KW).abs() < 1e-12);
    }

    #[test]
    fn execution_energy_applies_pue() {
        // One fully utilized vCPU (1769 MB) for an hour.
        let raw = P_MAX_KW + P_MEM_KW_PER_GB * (1769.0 / 1024.0);
        let e = expected_energy_kwh(1769, 3600.0, 1.0);
        assert!((e - raw * PUE).abs() < 1e-12, "e {e}");
    }

    #[test]
    fn energy_scale_sanity() {
        // A 10 s, 1769 MB, 70%-utilized execution sits in the µWh–mWh
        // range — the scale that makes the paper's transmission factors
        // (1e-3 kWh/GB) comparable for MB-scale payloads.
        let e = expected_energy_kwh(1769, 10.0, 0.7);
        assert!((1e-6..1e-4).contains(&e), "energy {e} kWh");
    }
}
