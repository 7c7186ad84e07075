//! Transmission-route carbon intensity (the `I_route` of Eq. 7.5).
//!
//! The paper estimates transmission carbon as
//! `Carbon_tran = I_route × EF_trans × S` where `I_route` is "the average
//! carbon intensity of the route between source and destination" — a
//! simplified version of the hop-weighted methodology of Tabaeiaghdaei et
//! al. We model the route intensity as the mean of the endpoint grids.

use caribou_model::region::RegionId;

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
}
