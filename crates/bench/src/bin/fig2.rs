//! Fig. 2 — Hourly carbon intensity of the AWS North American regions
//! over the July-2023..January-2024 window, with the two highlighted
//! week-long windows.
//!
//! Prints summary statistics per region (matching the paper's §9.2 I1
//! relations) and emits the full hourly series to `results/fig2.json`.

use caribou_bench::harness::write_json;
use caribou_carbon::source::CarbonDataSource;
use caribou_core::scenario::World;

fn main() {
    let env = World::evaluation(2);
    // Sim epoch (hour 0) is 2023-10-15; Fig. 2 spans July 2023..Jan 2024,
    // i.e. hours -2544..2616 relative to the epoch.
    let from_h: i64 = -106 * 24;
    let to_h: i64 = 109 * 24;
    let names = ["us-east-1", "us-west-1", "us-west-2", "ca-central-1"];

    println!("Fig. 2 — grid carbon intensity (gCO2eq/kWh), Jul 2023 .. Jan 2024");
    println!(
        "{:<16}{:>10}{:>10}{:>10}{:>14}",
        "region", "mean", "min", "max", "day/night"
    );
    let mut out = serde_json::Map::new();
    let mut means = std::collections::HashMap::new();
    for name in names {
        let r = env.region(name);
        let mut values = Vec::new();
        let mut day = 0.0;
        let mut night = 0.0;
        let mut dn = 0usize;
        for h in from_h..to_h {
            let v = env.carbon.intensity(r, h as f64 + 0.5);
            values.push(v);
            // Local midday vs local 2 am, approximated by UTC offsets of
            // the profiles (NA regions: UTC-5..-8 → UTC 18-23 is midday).
            let hod = (h.rem_euclid(24)) as u32;
            if (19..=22).contains(&hod) {
                day += v;
                dn += 1;
            }
            if (7..=10).contains(&hod) {
                night += v;
            }
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        means.insert(name, mean);
        println!(
            "{name:<16}{mean:>10.1}{min:>10.1}{max:>10.1}{:>14.2}",
            day / night.max(1e-9)
        );
        let _ = dn;
        out.insert(
            name.to_string(),
            serde_json::json!({ "mean": mean, "min": min, "max": max, "hourly": values }),
        );
    }

    let pjm = means["us-east-1"];
    println!("\nCalibration vs paper (§9.2 I1):");
    println!(
        "  us-west-1 below us-east-1:    {:>5.1}%  (paper: 6.1%)",
        (1.0 - means["us-west-1"] / pjm) * 100.0
    );
    println!(
        "  ca-central-1 below us-east-1: {:>5.1}%  (paper: 91.5%)",
        (1.0 - means["ca-central-1"] / pjm) * 100.0
    );
    println!(
        "  us-west-2 vs us-east-1:       {:>5.1}%  (paper: comparable)",
        (1.0 - means["us-west-2"] / pjm) * 100.0
    );
    write_json("fig2", &serde_json::Value::Object(out));
}
