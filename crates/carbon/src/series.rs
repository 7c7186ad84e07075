//! Hourly carbon-intensity time series.

/// An hourly carbon-intensity series in gCO₂eq/kWh.
///
/// # Examples
///
/// ```
/// use caribou_carbon::series::CarbonSeries;
///
/// let s = CarbonSeries::from_csv("hour,gco2eq_per_kwh\n0,380.0\n1,32.5\n").unwrap();
/// assert_eq!(s.at(1.25), Some(32.5));
/// assert_eq!(s.at(5.0), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonSeries {
    /// Hour index (since the simulation epoch) of the first sample.
    pub start_hour: i64,
    /// Hourly samples.
    pub values: Vec<f64>,
}

impl CarbonSeries {
    /// Creates a series starting at `start_hour`.
    pub fn new(start_hour: i64, values: Vec<f64>) -> Self {
        CarbonSeries { start_hour, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sample covering `hour` (floor semantics), or `None` when out of
    /// range.
    pub fn at(&self, hour: f64) -> Option<f64> {
        let idx = hour.floor() as i64 - self.start_hour;
        if idx < 0 {
            return None;
        }
        self.values.get(idx as usize).copied()
    }

    /// Arithmetic mean of the series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns a sub-series covering `[from_hour, to_hour)`.
    pub fn slice(&self, from_hour: i64, to_hour: i64) -> CarbonSeries {
        let lo = (from_hour - self.start_hour).max(0) as usize;
        let hi = ((to_hour - self.start_hour).max(0) as usize).min(self.values.len());
        CarbonSeries {
            start_hour: self.start_hour + lo as i64,
            values: self.values[lo.min(hi)..hi].to_vec(),
        }
    }

    /// Serializes as `hour,gco2eq_per_kwh` CSV lines with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("hour,gco2eq_per_kwh\n");
        for (i, v) in self.values.iter().enumerate() {
            out.push_str(&format!("{},{v}\n", self.start_hour + i as i64));
        }
        out
    }

    /// Parses the CSV format written by [`CarbonSeries::to_csv`]. Hours
    /// must be contiguous and ascending.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut start_hour = None;
        let mut next_hour = 0i64;
        let mut values = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (lineno == 0 && line.starts_with("hour")) {
                continue;
            }
            let (h, v) = line
                .split_once(',')
                .ok_or_else(|| format!("line {}: expected `hour,value`", lineno + 1))?;
            let h: i64 = h
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad hour: {e}", lineno + 1))?;
            let v: f64 = v
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?;
            match start_hour {
                None => {
                    start_hour = Some(h);
                    next_hour = h + 1;
                }
                Some(_) => {
                    if h != next_hour {
                        return Err(format!(
                            "line {}: hours must be contiguous (expected {next_hour}, got {h})",
                            lineno + 1
                        ));
                    }
                    next_hour += 1;
                }
            }
            values.push(v);
        }
        let start_hour = start_hour.ok_or("empty series")?;
        Ok(CarbonSeries { start_hour, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_uses_floor_semantics() {
        let s = CarbonSeries::new(10, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.at(10.0), Some(1.0));
        assert_eq!(s.at(10.9), Some(1.0));
        assert_eq!(s.at(11.0), Some(2.0));
        assert_eq!(s.at(12.999), Some(3.0));
        assert_eq!(s.at(13.0), None);
        assert_eq!(s.at(9.0), None);
    }

    #[test]
    fn statistics() {
        let s = CarbonSeries::new(0, vec![10.0, 20.0, 30.0]);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.min(), 10.0);
        assert_eq!(s.max(), 30.0);
    }

    #[test]
    fn slice_respects_bounds() {
        let s = CarbonSeries::new(5, vec![1.0, 2.0, 3.0, 4.0]);
        let sub = s.slice(6, 8);
        assert_eq!(sub.start_hour, 6);
        assert_eq!(sub.values, vec![2.0, 3.0]);
        let all = s.slice(0, 100);
        assert_eq!(all.values.len(), 4);
        let none = s.slice(100, 200);
        assert!(none.is_empty());
    }

    #[test]
    fn csv_round_trip() {
        let s = CarbonSeries::new(3, vec![382.5, 390.25, 12.0]);
        let csv = s.to_csv();
        let back = CarbonSeries::from_csv(&csv).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn csv_rejects_gaps() {
        let csv = "hour,gco2eq_per_kwh\n0,1.0\n2,2.0\n";
        assert!(CarbonSeries::from_csv(csv).is_err());
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(CarbonSeries::from_csv("hour,g\nx,y\n").is_err());
        assert!(CarbonSeries::from_csv("").is_err());
    }
}
