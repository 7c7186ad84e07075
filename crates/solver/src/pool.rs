//! Hand-rolled scoped worker pool for candidate evaluation.
//!
//! The solver fans independent plan evaluations across cores with plain
//! `std::thread::scope` — no external runtime. Work is handed out through
//! an atomic cursor (dynamic load balancing: candidate evaluations vary
//! wildly in cost because the Monte Carlo stopping rule adapts), and every
//! result is written back at its item index, so the output order — and
//! with seed-split RNG streams, the output *values* — are independent of
//! which worker ran what.
//!
//! Telemetry sessions are thread-local, so when the caller has one the
//! pool forks it: every task records into a child session of its own and
//! the coordinator absorbs the children in item order at the join. What a
//! traced run records — counters, histograms, journal, sink stream — is
//! then the same at any worker count; an untraced caller pays nothing.
//! The pool itself measures per-worker busy time and task counts, which
//! the coordinating thread reports after the join ([`PoolStats::emit`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Execution statistics of one pool run, reported by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Worker threads used (1 = ran inline on the caller).
    pub workers: usize,
    /// Items processed.
    pub tasks: usize,
    /// Wall-clock seconds from first hand-out to last join.
    pub wall_s: f64,
    /// Per-worker busy seconds (sum of task durations).
    pub busy_s: Vec<f64>,
    /// Per-worker task counts.
    pub tasks_per_worker: Vec<usize>,
}

impl PoolStats {
    /// Fraction of worker wall-time spent on tasks, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall_s <= 0.0 || self.workers == 0 {
            return 0.0;
        }
        let busy: f64 = self.busy_s.iter().sum();
        (busy / (self.wall_s * self.workers as f64)).min(1.0)
    }

    /// Records the run into the caller's telemetry session: the
    /// utilization gauge, a task counter, and one span per worker.
    pub fn emit(&self) {
        if !caribou_telemetry::is_enabled() {
            return;
        }
        caribou_telemetry::gauge("solver.pool.utilization", self.utilization());
        caribou_telemetry::gauge("solver.pool.workers", self.workers as f64);
        caribou_telemetry::count("solver.pool.tasks", self.tasks as u64);
        caribou_telemetry::observe("solver.pool.wall_s", self.wall_s);
        for (w, (busy, tasks)) in self
            .busy_s
            .iter()
            .zip(self.tasks_per_worker.iter())
            .enumerate()
        {
            caribou_telemetry::span_at(
                "solver",
                format!("pool.worker{w} ({tasks} tasks)"),
                0.0,
                *busy,
                0,
                format!("pool.worker{w}"),
            );
        }
    }
}

/// Runs `f(0..n)` across `workers` threads and returns the results in
/// item order plus the run's [`PoolStats`].
///
/// `workers <= 1` (or a single item) runs inline on the caller's thread:
/// zero spawn overhead, recording straight into its telemetry session —
/// with the session's sim time rewound to its pre-call value after every
/// task, which is what a forked child would have seen. The closure must
/// be deterministic per index for the pool to preserve
/// bit-reproducibility — derive any randomness from the index, never from
/// shared mutable state.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    if workers <= 1 || n <= 1 {
        let mut busy = 0.0;
        let mut out = Vec::with_capacity(n);
        let sim_now = caribou_telemetry::sim_now();
        for i in 0..n {
            let t0 = Instant::now();
            out.push(f(i));
            busy += t0.elapsed().as_secs_f64();
            caribou_telemetry::set_sim_now(sim_now);
        }
        let stats = PoolStats {
            workers: 1,
            tasks: n,
            wall_s: start.elapsed().as_secs_f64(),
            busy_s: vec![busy],
            tasks_per_worker: vec![n],
        };
        return (out, stats);
    }

    let threads = workers.min(n);
    let cursor = AtomicUsize::new(0);
    let fork = caribou_telemetry::fork();
    let mut per_worker = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    let mut busy = 0.0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        let r = match &fork {
                            Some(fork) => {
                                let (r, recorded) = fork.record(|| f(i));
                                (r, Some(recorded))
                            }
                            None => (f(i), None),
                        };
                        busy += t0.elapsed().as_secs_f64();
                        got.push((i, r));
                    }
                    (got, busy)
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("pool worker panicked"));
        }
    });

    let mut busy_s = Vec::with_capacity(threads);
    let mut tasks_per_worker = Vec::with_capacity(threads);
    let mut slots: Vec<Option<_>> = (0..n).map(|_| None).collect();
    for (got, busy) in per_worker {
        busy_s.push(busy);
        tasks_per_worker.push(got.len());
        for (i, r) in got {
            slots[i] = Some(r);
        }
    }
    let out: Vec<T> = slots
        .into_iter()
        .map(|s| {
            let (r, recorded) = s.expect("every index produced exactly once");
            if let Some(recorded) = recorded {
                caribou_telemetry::absorb(recorded);
            }
            r
        })
        .collect();
    let stats = PoolStats {
        workers: threads,
        tasks: n,
        wall_s: start.elapsed().as_secs_f64(),
        busy_s,
        tasks_per_worker,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 3, 8] {
            let (out, stats) = map_indexed(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.tasks, 37);
            assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 37);
        }
    }

    #[test]
    fn zero_items_is_fine() {
        let (out, stats) = map_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn single_worker_runs_inline() {
        let (out, stats) = map_indexed(1, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn more_workers_than_items_caps_threads() {
        let (out, stats) = map_indexed(16, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(stats.workers <= 3);
    }

    #[test]
    fn traced_tasks_record_the_same_at_any_worker_count() {
        use caribou_telemetry::{self as telemetry, MemorySink};
        let traced = |workers: usize| {
            telemetry::enable(Box::new(MemorySink::default()));
            telemetry::set_sim_now(5.0);
            map_indexed(workers, 9, |i| {
                // Stamped with the coordinator's time, not a sibling's.
                telemetry::event("pool.before", format!("t{i}"), 0.0);
                telemetry::set_sim_now(10.0 + i as f64);
                telemetry::count("pool.units", i as u64);
                telemetry::observe("pool.size", (1 + i) as f64);
                telemetry::event("pool.after", format!("t{i}"), i as f64);
                // A nested fan-out forks the task's own session.
                map_indexed(workers, 3, |j| telemetry::count("pool.nested", j as u64));
            });
            assert_eq!(telemetry::sim_now(), 5.0);
            let done = telemetry::finish().expect("session active");
            let sink = done.sink.as_any().downcast_ref::<MemorySink>().unwrap();
            let buckets = done.recorder.histograms["pool.size"].buckets().to_vec();
            (done.recorder.counters, buckets, sink.events.clone())
        };
        let one = traced(1);
        assert_eq!(one.0["pool.units"], 36);
        assert_eq!(one.0["pool.nested"], 27);
        assert_eq!(one.2.len(), 18);
        assert_eq!(one.2[2].t_s, 5.0, "task 1 starts from the caller's time");
        assert_eq!(one, traced(2));
        assert_eq!(one, traced(8));
    }

    #[test]
    fn utilization_in_unit_interval() {
        let (_, stats) = map_indexed(2, 8, |i| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            i
        });
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }
}
