//! Span records, `span!`-style guard objects, and trace export.
//!
//! Two kinds of spans exist:
//!
//! * **Sim-time spans** ([`crate::span_at`]) — the simulator knows the
//!   modeled `(start, duration)` of each operation, so it records spans
//!   explicitly on the virtual timeline (pub/sub hop, function execution,
//!   sync-node update, …).
//! * **Wall-clock guard spans** ([`crate::wall_span`] / the [`span!`]
//!   macro) — measure real elapsed time of host-side work such as a solver
//!   run; the guard records on drop.
//!
//! Both produce [`SpanRecord`]s that export as Chrome trace-event JSON
//! (`chrome://tracing` / `ui.perfetto.dev` loadable) via [`chrome_trace`].

use serde_json::{Map, Value};

/// One completed span on a trace timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. a workflow node name or `hbss.solve`.
    pub name: String,
    /// Category, e.g. `exec`, `pubsub`, `solver`.
    pub cat: &'static str,
    /// Start in microseconds (virtual for sim spans, wall for guards).
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Process lane: the invocation id for sim spans, 0 for host work.
    pub pid: u64,
    /// Thread lane within the process, e.g. node index or `solver`.
    pub tid: String,
    /// Nesting depth at record time (0 = root). Used by the flame summary.
    pub depth: u32,
}

/// Serialize spans as a Chrome trace-event JSON document: an object with a
/// `traceEvents` array of `"ph":"X"` (complete) events.
pub fn chrome_trace(spans: &[SpanRecord]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut obj = Map::new();
            obj.insert("name".to_string(), Value::String(s.name.clone()));
            obj.insert("cat".to_string(), Value::String(s.cat.to_string()));
            obj.insert("ph".to_string(), Value::String("X".to_string()));
            obj.insert("ts".to_string(), Value::Number(s.ts_us as f64));
            obj.insert("dur".to_string(), Value::Number(s.dur_us as f64));
            obj.insert("pid".to_string(), Value::Number(s.pid as f64));
            obj.insert("tid".to_string(), Value::String(s.tid.clone()));
            Value::Object(obj)
        })
        .collect();
    let mut root = Map::new();
    root.insert("traceEvents".to_string(), Value::Array(events));
    root.insert(
        "displayTimeUnit".to_string(),
        Value::String("ms".to_string()),
    );
    Value::Object(root)
}

/// Wall-clock span guard: measures from construction to drop, then records
/// a span plus an `observe` into the histogram named after the span.
pub struct WallSpanGuard {
    pub(crate) name: &'static str,
    pub(crate) cat: &'static str,
    pub(crate) start: std::time::Instant,
    pub(crate) active: bool,
}

impl Drop for WallSpanGuard {
    fn drop(&mut self) {
        if self.active {
            crate::finish_wall_span(self);
        }
    }
}

/// Create a wall-clock span guard: `let _g = span!("solver", "hbss.solve");`
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::wall_span($cat, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, cat: &'static str, ts: u64, dur: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            cat,
            ts_us: ts,
            dur_us: dur,
            pid: 1,
            tid: "t".to_string(),
            depth,
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_serde_json() {
        let spans = vec![
            rec("invocation", "exec", 0, 5_000_000, 0),
            rec("A", "exec", 100, 2_000_000, 1),
            rec("B", "exec", 2_100_000, 2_800_000, 1),
        ];
        let doc = chrome_trace(&spans);
        let text = serde_json::to_string(&doc).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        for (e, s) in events.iter().zip(&spans) {
            assert_eq!(e["ph"], "X", "complete events");
            assert_eq!(e["name"].as_str().unwrap(), s.name);
            assert_eq!(e["ts"].as_u64().unwrap(), s.ts_us);
            assert_eq!(e["dur"].as_u64().unwrap(), s.dur_us);
            assert_eq!(e["pid"].as_u64().unwrap(), 1);
        }
        assert_eq!(parsed["displayTimeUnit"], "ms");
    }

    #[test]
    fn chrome_trace_of_nothing_is_still_valid() {
        let doc = chrome_trace(&[]);
        let text = serde_json::to_string(&doc).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["traceEvents"].as_array().unwrap().len(), 0);
    }
}
