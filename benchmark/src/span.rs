//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A span is (name, start, end, parent, op): `op` is the invocation or
//! solve cell the work belongs to, `parent` the span that was open when
//! this one began. Totals are kept for every span; the spans themselves
//! only for the first [`KEPT_OPS`] ops, and they are written out when the
//! run ends. A layer's self time is its span's duration minus the part of
//! it covered by child spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// Ops whose individual spans are kept for the trace file.
pub const KEPT_OPS: u64 = 10_000;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the kept list, if it was kept.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-name aggregate over every span of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    op: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.enter_at(name, start_ns);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        self.exit_at(end_ns);
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        let kept = (self.op < KEPT_OPS).then(|| {
            let parent = self.stack.last().and_then(|o| o.kept);
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            self.kept.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(i) = open.kept {
            self.kept[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Aggregate of every closed span called `name`.
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// All aggregates, by name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// The kept spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// The trace file: kept spans plus the per-name totals.
    pub fn to_json(&self, workload: &str) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .kept
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "op": s.op,
                })
            })
            .collect();
        let mut totals = serde_json::Map::new();
        for (name, t) in &self.totals {
            totals.insert(
                (*name).to_string(),
                serde_json::json!({
                    "count": t.count,
                    "total_ns": t.total_ns,
                    "self_ns": t.self_ns,
                }),
            );
        }
        serde_json::json!({
            "workload": workload,
            "kept_ops": KEPT_OPS,
            "spans": spans,
            "totals": serde_json::Value::from(totals),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.set_op(3);
        t.enter_at("op", 0);
        t.enter_at("route", 10);
        t.exit_at(30);
        t.enter_at("invoke", 30);
        t.enter_at("kv", 40);
        t.exit_at(50);
        t.exit_at(90);
        t.exit_at(100);

        assert_eq!(
            t.total("op"),
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(t.total("route").self_ns, 20);
        // invoke lasted 60 ns, 10 of them inside kv.
        assert_eq!(
            t.total("invoke"),
            Total {
                count: 1,
                total_ns: 60,
                self_ns: 50
            }
        );
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.totals().values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn parents_and_ops_are_recorded() {
        let mut t = Tracer::new();
        t.set_op(7);
        t.enter_at("op", 0);
        t.enter_at("route", 1);
        t.exit_at(2);
        t.exit_at(3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1, 2));
    }

    #[test]
    fn only_the_first_ops_keep_their_spans_but_all_are_totalled() {
        let mut t = Tracer::new();
        for op in [0, KEPT_OPS - 1, KEPT_OPS, KEPT_OPS + 5] {
            t.set_op(op);
            t.enter_at("op", 0);
            t.exit_at(10);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.total("op").count, 4);
        assert_eq!(t.total("op").total_ns, 40);
    }

    #[test]
    fn repeated_names_accumulate() {
        let mut t = Tracer::new();
        for i in 0..3u64 {
            t.enter_at("route", i * 10);
            t.exit_at(i * 10 + 4);
        }
        assert_eq!(
            t.total("route"),
            Total {
                count: 3,
                total_ns: 12,
                self_ns: 12
            }
        );
        assert_eq!(t.total("missing"), Total::default());
    }
}
