//! Streaming sinks for telemetry output.
//!
//! A [`TelemetrySink`] receives every journal [`Event`] and completed
//! [`SpanRecord`] as they are recorded, plus one final summary when the
//! session is finished. Aggregates (counters/gauges/histograms) always
//! accumulate in the in-memory [`crate::Recorder`] regardless of sink.
//!
//! Built-in implementations:
//!
//! * [`NullSink`] — discards everything. This is the default; combined with
//!   the disabled-by-default global switch, instrumentation costs a single
//!   thread-local boolean check when telemetry is off.
//! * [`MemorySink`] — buffers events and spans in memory; used by tests and
//!   by in-process trace export.
//! * [`JsonlSink`] — appends one JSON object per line to a file. Journal
//!   events are `{"type":"event",...}`, spans `{"type":"span",...}`, and
//!   the closing summary `{"type":"summary",...}`. The format is replayed
//!   by `caribou trace`.
//!
//! # Adding a new event
//!
//! Call [`crate::event`] (journal + sink), [`crate::count`] /
//! [`crate::gauge`] / [`crate::observe`] (aggregates only) from any crate
//! that depends on `caribou-telemetry`. Pick a dotted `kind` namespaced by
//! subsystem (`pubsub.retry`, `kv.rmw_conflict`, `solver.accept`). No sink
//! or schema change is needed; sinks treat kinds as opaque strings.

use std::io::{self, BufWriter, Write};

use serde_json::{Map, Value};

use crate::recorder::{Event, Recorder};
use crate::span::SpanRecord;

/// Receiver for streamed telemetry.
pub trait TelemetrySink: std::any::Any {
    /// Called for every journal event (after ring-buffer insertion).
    fn record_event(&mut self, _event: &Event) {}

    /// Called for every completed span.
    fn record_span(&mut self, _span: &SpanRecord) {}

    /// Called once when the telemetry session finishes, with the final
    /// aggregate state.
    fn finish(&mut self, _recorder: &Recorder) {}

    /// Downcast support so callers can recover a concrete sink (e.g. a
    /// [`MemorySink`]'s buffered spans) from [`crate::FinishedSession`].
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Buffers events and spans in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    pub events: Vec<Event>,
    pub spans: Vec<SpanRecord>,
}

impl TelemetrySink for MemorySink {
    fn record_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }

    fn record_span(&mut self, span: &SpanRecord) {
        self.spans.push(span.clone());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Appends one JSON object per line to a writer (typically a file). The
/// first write or flush error ends the journal: it is kept
/// ([`Self::error`]) and nothing is written after it.
pub struct JsonlSink<W: Write> {
    writer: BufWriter<W>,
    error: Option<io::Error>,
}

impl JsonlSink<std::fs::File> {
    /// Create (truncate) a journal file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: BufWriter::new(writer),
            error: None,
        }
    }

    /// The error that ended the journal, if one did.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn write_line(&mut self, value: &Value) {
        if self.error.is_none() {
            self.error = writeln!(self.writer, "{value}").err();
        }
    }
}

pub(crate) fn event_to_json(event: &Event) -> Value {
    let mut obj = Map::new();
    obj.insert("type".to_string(), Value::String("event".to_string()));
    obj.insert("t_s".to_string(), Value::Number(event.t_s));
    obj.insert("kind".to_string(), Value::String(event.kind.to_string()));
    obj.insert("label".to_string(), Value::String(event.label.clone()));
    obj.insert("value".to_string(), Value::Number(event.value));
    Value::Object(obj)
}

pub(crate) fn span_to_json(span: &SpanRecord) -> Value {
    let mut obj = Map::new();
    obj.insert("type".to_string(), Value::String("span".to_string()));
    obj.insert("name".to_string(), Value::String(span.name.clone()));
    obj.insert("cat".to_string(), Value::String(span.cat.to_string()));
    obj.insert("ts_us".to_string(), Value::Number(span.ts_us as f64));
    obj.insert("dur_us".to_string(), Value::Number(span.dur_us as f64));
    obj.insert("pid".to_string(), Value::Number(span.pid as f64));
    obj.insert("tid".to_string(), Value::String(span.tid.clone()));
    obj.insert("depth".to_string(), Value::Number(span.depth as f64));
    Value::Object(obj)
}

pub(crate) fn summary_to_json(recorder: &Recorder) -> Value {
    let mut counters = Map::new();
    for (k, v) in &recorder.counters {
        counters.insert(k.to_string(), Value::Number(*v as f64));
    }
    let mut gauges = Map::new();
    for (k, v) in &recorder.gauges {
        gauges.insert(k.to_string(), Value::Number(*v));
    }
    let mut histograms = Map::new();
    for (k, h) in &recorder.histograms {
        let mut hm = Map::new();
        hm.insert("count".to_string(), Value::Number(h.count() as f64));
        hm.insert("mean".to_string(), Value::Number(h.mean()));
        hm.insert("min".to_string(), Value::Number(h.min()));
        hm.insert("max".to_string(), Value::Number(h.max()));
        hm.insert("p50".to_string(), Value::Number(h.quantile(0.5)));
        hm.insert("p99".to_string(), Value::Number(h.quantile(0.99)));
        histograms.insert(k.to_string(), Value::Object(hm));
    }
    let mut obj = Map::new();
    obj.insert("type".to_string(), Value::String("summary".to_string()));
    obj.insert("counters".to_string(), Value::Object(counters));
    obj.insert("gauges".to_string(), Value::Object(gauges));
    obj.insert("histograms".to_string(), Value::Object(histograms));
    obj.insert(
        "journal_dropped".to_string(),
        Value::Number(recorder.journal.dropped() as f64),
    );
    Value::Object(obj)
}

impl<W: Write + 'static> TelemetrySink for JsonlSink<W> {
    fn record_event(&mut self, event: &Event) {
        self.write_line(&event_to_json(event));
    }

    fn record_span(&mut self, span: &SpanRecord) {
        self.write_line(&span_to_json(span));
    }

    fn finish(&mut self, recorder: &Recorder) {
        let summary = summary_to_json(recorder);
        self.write_line(&summary);
        if self.error.is_none() {
            self.error = self.writer.flush().err();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
