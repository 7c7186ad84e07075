//! `caribou-telemetry` — tracing, metrics and event-journal subsystem for
//! the Caribou stack.
//!
//! Instrumented code (simcloud, exec, solver, core, metrics) calls the free
//! functions in this module — [`count`], [`gauge`], [`observe`], [`event`],
//! [`span_at`], [`wall_span`] — which are no-ops costing one thread-local
//! boolean check unless a session is active. Sessions are per-thread, so
//! no locks appear on hot paths and parallel test threads get independent
//! recorders. Work fanned across threads keeps recording: the coordinator
//! takes a [`fork`] of its session, every task runs under
//! [`Fork::record`] into a child session of its own, and the coordinator
//! [`absorb`]s the children in task order at the join — so what a run
//! records does not depend on how many threads ran it.
//!
//! ```no_run
//! use caribou_telemetry as telemetry;
//!
//! telemetry::enable(Box::new(telemetry::MemorySink::default()));
//! telemetry::count("pubsub.publish", 1);
//! telemetry::event("pubsub.retry", "us-east-1", 2.0);
//! let session = telemetry::finish().unwrap();
//! assert_eq!(session.recorder.counter("pubsub.publish"), 1);
//! ```

pub mod recorder;
pub mod replay;
pub mod sink;
pub mod sketch;
pub mod span;

use std::cell::{Cell, RefCell};

pub use recorder::{Event, Journal, Recorder};
pub use sink::{JsonlSink, MemorySink, NullSink, TelemetrySink};
pub use sketch::{Moments, QuantileSketch, MIN_BUCKET, SKETCH_BUCKETS, SUB_BUCKETS};
pub use span::{chrome_trace, SpanRecord, WallSpanGuard};

/// Default ring-buffer capacity of the event journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

struct Session {
    recorder: Recorder,
    sink: Box<dyn TelemetrySink>,
    /// Virtual sim time, fed by the sim clock so events don't need a time
    /// parameter threaded through every call site.
    sim_now_s: f64,
    /// Current wall-span nesting depth.
    depth: u32,
    /// Wall epoch for guard spans.
    epoch: std::time::Instant,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// A finished telemetry session: the final aggregates and the sink, handed
/// back so callers can extract buffered data (e.g. [`MemorySink`]).
pub struct FinishedSession {
    pub recorder: Recorder,
    pub sink: Box<dyn TelemetrySink>,
}

/// Whether a telemetry session is active on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Start a session on this thread with the default journal capacity.
pub fn enable(sink: Box<dyn TelemetrySink>) {
    enable_with_capacity(sink, DEFAULT_JOURNAL_CAPACITY);
}

/// Start a session with an explicit journal ring-buffer capacity.
fn enable_with_capacity(sink: Box<dyn TelemetrySink>, journal_capacity: usize) {
    SESSION.with(|s| {
        *s.borrow_mut() = Some(Session {
            recorder: Recorder::new(journal_capacity),
            sink,
            sim_now_s: 0.0,
            depth: 0,
            epoch: std::time::Instant::now(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// End the session: flushes the summary to the sink and returns both the
/// recorder and the sink. Returns `None` if no session was active.
pub fn finish() -> Option<FinishedSession> {
    ENABLED.with(|e| e.set(false));
    SESSION.with(|s| s.borrow_mut().take()).map(|mut session| {
        session.sink.finish(&session.recorder);
        FinishedSession {
            recorder: session.recorder,
            sink: session.sink,
        }
    })
}

/// What a child session starts from: the coordinating session's sim
/// time, wall-span depth and wall epoch at the moment of the [`fork`].
#[derive(Debug, Clone, Copy)]
pub struct Fork {
    sim_now_s: f64,
    depth: u32,
    epoch: std::time::Instant,
}

/// Forks the calling thread's session for a fan-out; `None` (and no cost
/// downstream) when no session is active.
pub fn fork() -> Option<Fork> {
    with_session(|s| Fork {
        sim_now_s: s.sim_now_s,
        depth: s.depth,
        epoch: s.epoch,
    })
}

/// Everything one task recorded under [`Fork::record`].
#[derive(Debug)]
pub struct ChildRecording {
    recorder: Recorder,
    streamed: Vec<Streamed>,
}

/// One sink call a child session deferred, in emission order.
#[derive(Debug)]
enum Streamed {
    Event(Event),
    Span(SpanRecord),
}

/// The sink of a child session: keeps what a root session would stream.
#[derive(Default)]
struct ChildBuffer(Vec<Streamed>);

impl TelemetrySink for ChildBuffer {
    fn record_event(&mut self, event: &Event) {
        self.0.push(Streamed::Event(event.clone()));
    }

    fn record_span(&mut self, span: &SpanRecord) {
        self.0.push(Streamed::Span(span.clone()));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Fork {
    /// Runs `f` on the calling thread (any thread) under a fresh child
    /// session and returns what it recorded. The child's journal ring is
    /// empty-capacity: its events wait in the stream buffer and enter the
    /// coordinator's ring, at the coordinator's capacity, on [`absorb`].
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> (R, ChildRecording) {
        let child = Session {
            recorder: Recorder::new(0),
            sink: Box::new(ChildBuffer::default()),
            sim_now_s: self.sim_now_s,
            depth: self.depth,
            epoch: self.epoch,
        };
        let outer = SESSION.with(|s| s.borrow_mut().replace(child));
        ENABLED.with(|e| e.set(true));
        let out = f();
        ENABLED.with(|e| e.set(outer.is_some()));
        let child = SESSION
            .with(|s| std::mem::replace(&mut *s.borrow_mut(), outer))
            .expect("the child session outlives its task");
        let sink: Box<dyn std::any::Any> = child.sink;
        let buffer = sink
            .downcast::<ChildBuffer>()
            .expect("child sessions stream into a ChildBuffer");
        let recording = ChildRecording {
            recorder: child.recorder,
            streamed: buffer.0,
        };
        (out, recording)
    }
}

/// Merges a child's recording into the calling thread's session exactly
/// as if the task had run here: counters add, gauges overwrite,
/// histograms merge, events enter the journal ring, and events and spans
/// reach the sink in the order the task emitted them. Absorbing children
/// in task-index order therefore reproduces the sequential recording.
pub fn absorb(child: ChildRecording) {
    with_session(|s| {
        for (key, delta) in child.recorder.counters {
            s.recorder.count(key, delta);
        }
        for (key, value) in child.recorder.gauges {
            s.recorder.gauge(key, value);
        }
        for (key, histogram) in child.recorder.histograms {
            s.recorder
                .histograms
                .entry(key)
                .or_default()
                .merge(&histogram);
        }
        for streamed in child.streamed {
            match streamed {
                Streamed::Event(e) => {
                    s.sink.record_event(&e);
                    s.recorder.journal.push(e);
                }
                Streamed::Span(span) => s.sink.record_span(&span),
            }
        }
    });
}

#[inline]
fn with_session<R>(f: impl FnOnce(&mut Session) -> R) -> Option<R> {
    if !is_enabled() {
        return None;
    }
    SESSION.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Feed the current virtual sim time; the sim clock calls this on advance.
#[inline]
pub fn set_sim_now(t_s: f64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| s.sim_now_s = t_s);
}

/// Current virtual sim time as last fed by the clock.
#[inline]
pub fn sim_now() -> f64 {
    with_session(|s| s.sim_now_s).unwrap_or(0.0)
}

/// Increment a counter.
#[inline]
pub fn count(key: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| s.recorder.count(key, delta));
}

/// Set a gauge to its latest value.
#[inline]
pub fn gauge(key: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| s.recorder.gauge(key, value));
}

/// Record an observation into a log-scale histogram.
#[inline]
pub fn observe(key: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| s.recorder.observe(key, value));
}

/// Append an event to the journal at the current sim time and stream it to
/// the sink. `label` is only materialized when a session is active.
#[inline]
pub fn event(kind: &'static str, label: impl AsRef<str>, value: f64) {
    event_at(sim_now(), kind, label, value);
}

/// Like [`event`] but with an explicit sim timestamp.
#[inline]
pub fn event_at(t_s: f64, kind: &'static str, label: impl AsRef<str>, value: f64) {
    if !is_enabled() {
        return;
    }
    with_session(|s| {
        let e = Event {
            t_s,
            kind,
            label: label.as_ref().to_string(),
            value,
        };
        s.sink.record_event(&e);
        s.recorder.journal.push(e);
        s.recorder.count(kind, 1);
    });
}

/// Record a completed sim-time span: the simulator knows the modeled
/// `(start, duration)` pair, so no guard object is needed. `pid` groups
/// spans per invocation; `tid` is the lane within it (node name, `pubsub`).
#[inline]
pub fn span_at(
    cat: &'static str,
    name: impl AsRef<str>,
    start_s: f64,
    dur_s: f64,
    pid: u64,
    tid: impl AsRef<str>,
) {
    if !is_enabled() {
        return;
    }
    with_session(|s| {
        let rec = SpanRecord {
            name: name.as_ref().to_string(),
            cat,
            ts_us: (start_s.max(0.0) * 1e6) as u64,
            dur_us: (dur_s.max(0.0) * 1e6).round() as u64,
            pid,
            tid: tid.as_ref().to_string(),
            depth: 0,
        };
        s.sink.record_span(&rec);
    });
}

/// Start a wall-clock span guard; records on drop. Use the [`span!`] macro
/// for brevity. Nesting depth is tracked per thread.
pub fn wall_span(cat: &'static str, name: &'static str) -> WallSpanGuard {
    let active = is_enabled();
    if active {
        with_session(|s| s.depth += 1);
    }
    WallSpanGuard {
        name,
        cat,
        start: std::time::Instant::now(),
        active,
    }
}

pub(crate) fn finish_wall_span(guard: &mut span::WallSpanGuard) {
    with_session(|s| {
        let dur = guard.start.elapsed();
        s.depth = s.depth.saturating_sub(1);
        let rec = SpanRecord {
            name: guard.name.to_string(),
            cat: guard.cat,
            ts_us: guard.start.saturating_duration_since(s.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
            pid: 0,
            tid: format!("wall:{}", guard.cat),
            depth: s.depth,
        };
        s.sink.record_span(&rec);
        s.recorder.observe(guard.name, dur.as_secs_f64());
    });
}

#[cfg(test)]
mod tests {
    // Sessions are thread-local and the test harness gives each test its
    // own thread, so these lifecycle tests don't interfere.
    use super::*;

    #[test]
    fn disabled_calls_are_noops_and_finish_returns_none() {
        assert!(!is_enabled());
        count("x", 1);
        gauge("g", 1.0);
        observe("h", 1.0);
        event("e.kind", "label", 0.0);
        span_at("cat", "name", 0.0, 1.0, 0, "t");
        {
            let _g = wall_span("cat", "guard");
        }
        assert!(finish().is_none());
    }

    #[test]
    fn session_records_and_hands_back_sink() {
        enable(Box::new(MemorySink::default()));
        assert!(is_enabled());
        set_sim_now(10.0);
        assert_eq!(sim_now(), 10.0);
        count("kv.read", 3);
        gauge("tokens", 2.5);
        observe("lat", 0.125);
        event("pubsub.publish", "r0", 1.0);
        event_at(42.0, "pubsub.ack", "r1", 0.0);
        span_at("exec", "nodeA", 10.0, 0.5, 7, "node:0");

        let finished = finish().expect("session was active");
        assert!(!is_enabled());
        assert_eq!(finished.recorder.counter("kv.read"), 3);
        // Events also bump a counter under their kind.
        assert_eq!(finished.recorder.counter("pubsub.publish"), 1);
        assert_eq!(finished.recorder.gauges["tokens"], 2.5);
        assert_eq!(finished.recorder.journal.len(), 2);
        let times: Vec<f64> = finished.recorder.journal.iter().map(|e| e.t_s).collect();
        assert_eq!(times, [10.0, 42.0]);

        let sink = finished
            .sink
            .as_any()
            .downcast_ref::<MemorySink>()
            .expect("downcast the sink we enabled with");
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.spans.len(), 1);
        assert_eq!(sink.spans[0].name, "nodeA");
        assert_eq!(sink.spans[0].ts_us, 10_000_000);
        assert_eq!(sink.spans[0].dur_us, 500_000);
        assert_eq!(sink.spans[0].pid, 7);
    }

    #[test]
    fn wall_span_nesting_tracks_depth_and_observes_duration() {
        enable(Box::new(MemorySink::default()));
        {
            let _outer = wall_span("solver", "outer");
            {
                let _inner = wall_span("solver", "inner");
            }
        }
        let finished = finish().unwrap();
        let sink = finished.sink.as_any().downcast_ref::<MemorySink>().unwrap();
        // Guards record on drop: inner first at depth 1, outer at depth 0.
        assert_eq!(sink.spans.len(), 2);
        assert_eq!(sink.spans[0].name, "inner");
        assert_eq!(sink.spans[0].depth, 1);
        assert_eq!(sink.spans[1].name, "outer");
        assert_eq!(sink.spans[1].depth, 0);
        assert_eq!(finished.recorder.histograms["outer"].count(), 1);
        assert_eq!(finished.recorder.histograms["inner"].count(), 1);
    }

    #[test]
    fn wall_span_guard_from_disabled_period_stays_inert() {
        // A guard taken while disabled must not record even if a session
        // starts before it drops.
        let guard = wall_span("cat", "stale");
        enable(Box::new(MemorySink::default()));
        drop(guard);
        let finished = finish().unwrap();
        let sink = finished.sink.as_any().downcast_ref::<MemorySink>().unwrap();
        assert!(sink.spans.is_empty());
    }

    #[test]
    fn journal_capacity_is_honored_by_the_session() {
        enable_with_capacity(Box::new(NullSink), 3);
        for i in 0..8 {
            event("cap.test", format!("e{i}"), i as f64);
        }
        let finished = finish().unwrap();
        assert_eq!(finished.recorder.journal.len(), 3);
        assert_eq!(finished.recorder.journal.dropped(), 5);
        // The counter still saw all eight.
        assert_eq!(finished.recorder.counter("cap.test"), 8);
    }

    /// What three tasks record, directly or through child sessions.
    fn task(i: usize) {
        event("fork.early", format!("t{i}"), 0.0);
        set_sim_now(100.0 * (i + 1) as f64);
        count("fork.count", i as u64 + 1);
        gauge("fork.gauge", i as f64);
        observe("fork.hist", 0.5 * (i + 1) as f64);
        event("fork.late", format!("t{i}"), i as f64);
        span_at("fork", format!("s{i}"), i as f64, 1.0, i as u64, "lane");
    }

    #[test]
    fn children_absorbed_in_task_order_reproduce_the_sequential_recording() {
        assert!(fork().is_none(), "no session, nothing to fork");

        enable_with_capacity(Box::new(MemorySink::default()), 4);
        set_sim_now(7.0);
        for i in 0..3 {
            task(i);
            set_sim_now(7.0);
        }
        let direct = finish().unwrap();

        enable_with_capacity(Box::new(MemorySink::default()), 4);
        set_sim_now(7.0);
        let forked = fork().expect("session active");
        // Tasks finish in reverse order on their own threads; the absorb
        // order alone decides what the coordinator ends up with.
        let mut children: Vec<ChildRecording> = (0..3)
            .rev()
            .map(|i| {
                std::thread::spawn(move || forked.record(|| task(i)).1)
                    .join()
                    .unwrap()
            })
            .collect();
        children.reverse();
        assert_eq!(sim_now(), 7.0, "children never move the parent's clock");
        children.into_iter().for_each(absorb);
        let merged = finish().unwrap();

        assert_eq!(direct.recorder.counters, merged.recorder.counters);
        assert_eq!(direct.recorder.gauges, merged.recorder.gauges);
        let (d, m) = (
            &direct.recorder.histograms["fork.hist"],
            &merged.recorder.histograms["fork.hist"],
        );
        assert_eq!((d.buckets(), d.count()), (m.buckets(), m.count()));
        // The ring holds the same last four events and dropped the same two.
        let ring = |r: &Recorder| r.journal.iter().cloned().collect::<Vec<_>>();
        assert_eq!(ring(&direct.recorder), ring(&merged.recorder));
        assert_eq!(merged.recorder.journal.dropped(), 2);
        let sink = |f: &FinishedSession| {
            let s = f.sink.as_any().downcast_ref::<MemorySink>().unwrap();
            (s.events.clone(), s.spans.clone())
        };
        assert_eq!(sink(&direct), sink(&merged));
        // Each child started from the fork's sim time, not its sibling's.
        let early: Vec<f64> = sink(&merged).0.iter().map(|e| e.t_s).step_by(2).collect();
        assert_eq!(early, [7.0, 7.0, 7.0]);
    }

    /// Runs `f` against the active recorder, to snapshot counters mid-run.
    fn with_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> Option<R> {
        with_session(|s| f(&s.recorder))
    }

    #[test]
    fn with_recorder_snapshots_mid_session() {
        assert!(with_recorder(|_| ()).is_none());
        enable(Box::new(NullSink));
        count("mid", 4);
        let snap = with_recorder(|r| r.counter("mid"));
        assert_eq!(snap, Some(4));
        finish();
    }
}
