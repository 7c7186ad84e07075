//! The exact JSON bytes the workspace writes. The plan sets
//! `Migrator::rollout` and the initial deployment put in the key-value
//! metadata (their length prices the entry wrapper's fetch), a manifest,
//! a telemetry journal line, and a `json!` object holding every value
//! shape the crates pass. Captured while the model types serialized
//! through a derive macro and a second value tree.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use caribou_model::manifest::DeploymentManifest;
use caribou_model::plan::{DeploymentPlan, HourlyPlans};
use caribou_model::region::RegionId;
use caribou_telemetry::recorder::Event;
use caribou_telemetry::{JsonlSink, TelemetrySink};

/// FNV-1a over the bytes, then their length.
fn digest(h: &mut u64, bytes: &[u8]) {
    for w in bytes
        .iter()
        .map(|&b| u64::from(b))
        .chain([bytes.len() as u64])
    {
        *h = (*h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A writer whose bytes outlive the sink that owns it.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn plan(regions: &[u16]) -> DeploymentPlan {
    DeploymentPlan::new(regions.iter().map(|&r| RegionId(r)).collect())
}

#[test]
fn every_json_output_shape_is_pinned() {
    const DIGEST: u64 = 0x55c0_3de7_5f31_5ce4;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut outputs: Vec<Vec<u8>> = Vec::new();

    let hourly = HourlyPlans::hourly(
        (0..24u16)
            .map(|hour| plan(&[0, hour % 5, (hour * 7) % 11, 3]))
            .collect(),
        3_600.5,
        90_000.25,
    );
    let daily = HourlyPlans::daily(plan(&[4, 0, 12, 4]), 0.0, 86_400.0);
    let single = plan(&[2, 9, 2]);
    outputs.push(serde_json::to_vec(&hourly).unwrap());
    outputs.push(serde_json::to_vec(&daily).unwrap());
    outputs.push(serde_json::to_vec(&single).unwrap());

    let manifest = DeploymentManifest::new("text2speech \"β\"", "0.1.0", "us-east-1");
    outputs.push(manifest.to_json().into_bytes());

    let journal = Shared::default();
    let mut sink = JsonlSink::new(journal.clone());
    sink.record_event(&Event {
        t_s: 12.5,
        kind: "pubsub.retry",
        label: "us-east-1 \"ü\"\n".to_string(),
        value: 3.0,
    });
    drop(sink);
    outputs.push(journal.0.borrow().clone());

    let mut map = serde_json::Map::new();
    map.insert("b".to_string(), serde_json::json!(1.5));
    map.insert("a".to_string(), serde_json::json!("x"));
    let shapes = serde_json::json!({
        "integral": 3.0,
        "fractional": 0.1,
        "negative": -2.5,
        "negative_integral": -4.0,
        "digits": 2.780320899314077,
        "nan": f64::NAN,
        "large": 1.0e17,
        "tiny": 1.0e-7,
        "u64": 12_345_678_901_234u64,
        "u64_max": u64::MAX,
        "usize": 42usize,
        "bool": true,
        "none": Option::<u64>::None,
        "some": Some(7u64),
        "floats": vec![0.5, 1.0, -3.25],
        "nested": vec![vec![1.0, 2.0], vec![]],
        "values": vec![serde_json::json!("x"), serde_json::Value::Null],
        "strings": vec!["a".to_string(), "b".to_string()],
        "map": serde_json::Value::from(map),
        "text": "quote \" backslash \\ newline \n tab \t bell \u{7} é ü 日本",
        "str": "plain",
    });
    outputs.push(serde_json::to_vec(&shapes).unwrap());
    outputs.push(serde_json::to_string_pretty(&shapes).unwrap().into_bytes());

    for bytes in &outputs {
        digest(&mut h, bytes);
    }
    for bytes in &outputs {
        // Shown only when the digest fails.
        eprintln!("{}", String::from_utf8_lossy(bytes));
    }
    assert_eq!(h, DIGEST, "digest {h:#018x}");
}
