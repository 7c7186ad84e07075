//! Replay of a `.jsonl` telemetry journal (written by [`crate::JsonlSink`])
//! into a human-readable timeline and summary stats table — the engine
//! behind `caribou trace`.

use serde_json::Value;

/// One parsed line of a journal file.
#[derive(Debug, Clone)]
pub enum JournalLine {
    Event {
        t_s: f64,
        kind: String,
        label: String,
        value: f64,
    },
    Span {
        name: String,
        cat: String,
        ts_us: u64,
        dur_us: u64,
        pid: u64,
        tid: String,
    },
    Summary(Value),
}

/// Parse the journal's JSONL text. Unknown or malformed lines are skipped
/// (the format is append-only and may grow new record types).
pub fn parse_journal(text: &str) -> Vec<JournalLine> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        match v["type"].as_str() {
            Some("event") => out.push(JournalLine::Event {
                t_s: v["t_s"].as_f64().unwrap_or(0.0),
                kind: v["kind"].as_str().unwrap_or("?").to_string(),
                label: v["label"].as_str().unwrap_or("").to_string(),
                value: v["value"].as_f64().unwrap_or(0.0),
            }),
            Some("span") => out.push(JournalLine::Span {
                name: v["name"].as_str().unwrap_or("?").to_string(),
                cat: v["cat"].as_str().unwrap_or("?").to_string(),
                ts_us: v["ts_us"].as_u64().unwrap_or(0),
                dur_us: v["dur_us"].as_u64().unwrap_or(0),
                pid: v["pid"].as_u64().unwrap_or(0),
                tid: v["tid"].as_str().unwrap_or("").to_string(),
            }),
            Some("summary") => out.push(JournalLine::Summary(v)),
            _ => {}
        }
    }
    out
}

fn fmt_sim_time(t_s: f64) -> String {
    let h = (t_s / 3600.0).floor() as u64;
    let m = ((t_s % 3600.0) / 60.0).floor() as u64;
    let s = t_s % 60.0;
    format!("{h:03}:{m:02}:{s:06.3}")
}

/// Render the journal as a chronological timeline. `limit` bounds the
/// number of printed rows (0 = unlimited); elided rows are noted.
pub fn render_timeline(lines: &[JournalLine], limit: usize) -> String {
    let mut rows: Vec<(f64, String)> = Vec::new();
    for l in lines {
        match l {
            JournalLine::Event {
                t_s,
                kind,
                label,
                value,
            } => {
                let detail = if label.is_empty() {
                    format!("{value:.6}")
                } else if *value == 0.0 {
                    label.clone()
                } else {
                    format!("{label} value={value:.6}")
                };
                rows.push((
                    *t_s,
                    format!("{} {:<26} {}", fmt_sim_time(*t_s), kind, detail),
                ));
            }
            JournalLine::Span {
                name,
                cat,
                ts_us,
                dur_us,
                pid,
                tid,
            } => {
                let t_s = *ts_us as f64 / 1e6;
                rows.push((
                    t_s,
                    format!(
                        "{} {:<26} {} [inv={} lane={} {:.3}ms]",
                        fmt_sim_time(t_s),
                        format!("span.{cat}"),
                        name,
                        pid,
                        tid,
                        *dur_us as f64 / 1e3
                    ),
                ));
            }
            JournalLine::Summary(_) => {}
        }
    }
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));

    let total = rows.len();
    let shown = if limit == 0 { total } else { limit.min(total) };
    let mut out = String::new();
    out.push_str(&format!("{:<13} {:<26} detail\n", "sim time", "kind"));
    for (_, row) in rows.iter().take(shown) {
        out.push_str(row);
        out.push('\n');
    }
    if shown < total {
        out.push_str(&format!("... ({} more rows elided)\n", total - shown));
    }
    out
}

/// Render the summary record (counters/gauges/histograms) as a stats table.
/// Falls back to aggregating events if the journal has no summary line.
pub fn render_summary(lines: &[JournalLine]) -> String {
    let mut out = String::new();
    let summary = lines.iter().rev().find_map(|l| match l {
        JournalLine::Summary(v) => Some(v),
        _ => None,
    });

    if let Some(v) = summary {
        if let Some(counters) = v["counters"].as_object() {
            out.push_str(&format!("{:<40} {:>12}\n", "counter", "count"));
            for (k, c) in counters.iter() {
                out.push_str(&format!("{:<40} {:>12}\n", k, c.as_u64().unwrap_or(0)));
            }
        }
        if let Some(gauges) = v["gauges"].as_object() {
            if !gauges.is_empty() {
                out.push_str(&format!("\n{:<40} {:>12}\n", "gauge", "last"));
                for (k, g) in gauges.iter() {
                    out.push_str(&format!("{:<40} {:>12.4}\n", k, g.as_f64().unwrap_or(0.0)));
                }
            }
        }
        if let Some(hists) = v["histograms"].as_object() {
            if !hists.is_empty() {
                out.push_str(&format!(
                    "\n{:<40} {:>8} {:>12} {:>12} {:>12}\n",
                    "histogram", "count", "mean", "p50", "p99"
                ));
                for (k, h) in hists.iter() {
                    out.push_str(&format!(
                        "{:<40} {:>8} {:>12.6} {:>12.6} {:>12.6}\n",
                        k,
                        h["count"].as_u64().unwrap_or(0),
                        h["mean"].as_f64().unwrap_or(0.0),
                        h["p50"].as_f64().unwrap_or(0.0),
                        h["p99"].as_f64().unwrap_or(0.0)
                    ));
                }
            }
        }
        let dropped = v["journal_dropped"].as_u64().unwrap_or(0);
        if dropped > 0 {
            out.push_str(&format!(
                "\n({dropped} journal events dropped by ring buffer)\n"
            ));
        }
        return out;
    }

    // No summary line — aggregate what we have.
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for l in lines {
        if let JournalLine::Event { kind, .. } = l {
            *counts.entry(kind.as_str()).or_insert(0) += 1;
        }
    }
    out.push_str(&format!("{:<40} {:>12}\n", "event kind", "count"));
    for (k, c) in counts {
        out.push_str(&format!("{k:<40} {c:>12}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, Recorder};
    use crate::sink::{event_to_json, span_to_json, summary_to_json};
    use crate::span::SpanRecord;

    fn sample_journal_text() -> String {
        let e = Event {
            t_s: 3723.5,
            kind: "pubsub.retry",
            label: "us-east-1".to_string(),
            value: 2.0,
        };
        let s = SpanRecord {
            name: "resize".to_string(),
            cat: "exec",
            ts_us: 1_000_000,
            dur_us: 250_000,
            pid: 7,
            tid: "node:0@r1".to_string(),
            depth: 0,
        };
        let mut rec = Recorder::new(16);
        rec.count("pubsub.retry", 2);
        rec.gauge("solver.gamma", 0.5);
        rec.observe("exec.node_duration_s", 0.25);
        format!(
            "{}\n{}\nnot json at all\n{{\"type\":\"mystery\"}}\n{}\n",
            serde_json::to_string(&event_to_json(&e)).unwrap(),
            serde_json::to_string(&span_to_json(&s)).unwrap(),
            serde_json::to_string(&summary_to_json(&rec)).unwrap(),
        )
    }

    #[test]
    fn parse_journal_reads_events_spans_summary_and_skips_junk() {
        let lines = parse_journal(&sample_journal_text());
        assert_eq!(lines.len(), 3, "junk lines skipped");
        match &lines[0] {
            JournalLine::Event {
                t_s,
                kind,
                label,
                value,
            } => {
                assert_eq!(*t_s, 3723.5);
                assert_eq!(kind, "pubsub.retry");
                assert_eq!(label, "us-east-1");
                assert_eq!(*value, 2.0);
            }
            other => panic!("expected event, got {other:?}"),
        }
        match &lines[1] {
            JournalLine::Span {
                name,
                cat,
                ts_us,
                dur_us,
                pid,
                ..
            } => {
                assert_eq!(name, "resize");
                assert_eq!(cat, "exec");
                assert_eq!(*ts_us, 1_000_000);
                assert_eq!(*dur_us, 250_000);
                assert_eq!(*pid, 7);
            }
            other => panic!("expected span, got {other:?}"),
        }
        assert!(matches!(&lines[2], JournalLine::Summary(_)));
    }

    #[test]
    fn timeline_sorts_by_time_and_respects_limit() {
        let lines = parse_journal(&sample_journal_text());
        let out = render_timeline(&lines, 0);
        // The span starts at t=1 s, before the 01:02:03.5 event: it must
        // print first even though it appears later in the file.
        let span_pos = out.find("span.exec").unwrap();
        let event_pos = out.find("pubsub.retry").unwrap();
        assert!(span_pos < event_pos, "{out}");
        assert!(out.contains("001:02:03.500"), "{out}");

        let limited = render_timeline(&lines, 1);
        assert!(limited.contains("(1 more rows elided)"), "{limited}");
    }

    #[test]
    fn summary_table_prefers_the_summary_record() {
        let lines = parse_journal(&sample_journal_text());
        let out = render_summary(&lines);
        assert!(out.contains("pubsub.retry"), "{out}");
        assert!(out.contains("solver.gamma"), "{out}");
        assert!(out.contains("exec.node_duration_s"), "{out}");
        assert!(out.contains("0.5000"), "gauge value rendered");
    }

    #[test]
    fn summary_falls_back_to_event_aggregation() {
        let e = Event {
            t_s: 1.0,
            kind: "kv.read",
            label: String::new(),
            value: 0.0,
        };
        let text = format!(
            "{}\n{}\n",
            serde_json::to_string(&event_to_json(&e)).unwrap(),
            serde_json::to_string(&event_to_json(&e)).unwrap(),
        );
        let out = render_summary(&parse_journal(&text));
        assert!(out.contains("event kind"), "{out}");
        assert!(out.contains("kv.read"), "{out}");
        assert!(out.contains('2'), "{out}");
    }
}
