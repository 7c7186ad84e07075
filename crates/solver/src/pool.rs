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
//! One worker loop serves every worker count: at one worker it runs on
//! the caller's thread, otherwise on scoped threads. Telemetry sessions
//! are thread-local, so when the caller has one the pool forks it: every
//! task — at one worker too — records into a child session of its own,
//! and the children are absorbed into the caller's session in item
//! order. What a traced run records — counters, histograms to the last
//! bit of their moments, journal, sink stream — is then the same at any
//! worker count; an untraced caller pays nothing.
//! The pool itself measures per-worker busy time and task counts, which
//! the coordinating thread reports after the join ([`PoolStats::emit`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use caribou_telemetry::ChildRecording;

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

    /// Adds a later run's statistics: tasks, wall and busy time add up,
    /// worker by worker; the worker count is the larger of the two.
    pub fn merge(&mut self, later: &PoolStats) {
        self.workers = self.workers.max(later.workers);
        self.tasks += later.tasks;
        self.wall_s += later.wall_s;
        if self.busy_s.len() < later.busy_s.len() {
            self.busy_s.resize(later.busy_s.len(), 0.0);
            self.tasks_per_worker
                .resize(later.tasks_per_worker.len(), 0);
        }
        for (a, b) in self.busy_s.iter_mut().zip(&later.busy_s) {
            *a += b;
        }
        for (a, b) in self
            .tasks_per_worker
            .iter_mut()
            .zip(&later.tasks_per_worker)
        {
            *a += b;
        }
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
/// Every worker runs one loop: take the next index off the cursor and run
/// the task, in a child of the caller's telemetry session when it has
/// one. With one worker (or at most one item) that loop runs on the
/// caller's thread, which absorbs each child as its task ends; otherwise
/// it runs on scoped threads and the caller absorbs the children in item
/// order at the join. Either way what a traced run records is the same at
/// any worker count. The closure must be deterministic per index for the
/// pool to preserve bit-reproducibility — derive any randomness from the
/// index, never from shared mutable state.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    let threads = workers.min(n).max(1);
    let cursor = AtomicUsize::new(0);
    let fork = caribou_telemetry::fork();
    // The worker loop; `keep` takes each task's index, result and
    // recording. Returns the worker's busy seconds.
    let work = |keep: &mut dyn FnMut(usize, T, Option<ChildRecording>)| {
        let mut busy = 0.0;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return busy;
            }
            let t0 = Instant::now();
            let (r, recorded) = match &fork {
                Some(fork) => {
                    let (r, recorded) = fork.record(|| f(i));
                    (r, Some(recorded))
                }
                None => (f(i), None),
            };
            busy += t0.elapsed().as_secs_f64();
            keep(i, r, recorded);
        }
    };

    let mut out = Vec::with_capacity(n);
    // Called in item order: absorbs the task's recording, keeps its result.
    let mut keep = |r: T, recorded: Option<ChildRecording>| {
        if let Some(recorded) = recorded {
            caribou_telemetry::absorb(recorded);
        }
        out.push(r);
    };
    let mut busy_s = Vec::with_capacity(threads);
    let mut tasks_per_worker = Vec::with_capacity(threads);
    if threads == 1 {
        // The cursor hands the caller every index in order.
        busy_s.push(work(&mut |_, r, recorded| keep(r, recorded)));
        tasks_per_worker.push(n);
    } else {
        let mut slots: Vec<Option<_>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        let busy = work(&mut |i, r, recorded| got.push((i, r, recorded)));
                        (got, busy)
                    })
                })
                .collect();
            for h in handles {
                let (got, busy) = h.join().expect("pool worker panicked");
                busy_s.push(busy);
                tasks_per_worker.push(got.len());
                for (i, r, recorded) in got {
                    slots[i] = Some((r, recorded));
                }
            }
        });
        for slot in slots {
            let (r, recorded) = slot.expect("every index produced exactly once");
            keep(r, recorded);
        }
    }
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
    fn merged_runs_add_up_worker_by_worker() {
        let (_, narrow) = map_indexed(1, 3, |i| i);
        let (_, wide) = map_indexed(2, 5, |i| i);
        let mut total = PoolStats::default();
        total.merge(&narrow);
        total.merge(&wide);
        assert_eq!((total.workers, total.tasks), (wide.workers, 8));
        assert_eq!(total.tasks_per_worker.len(), wide.tasks_per_worker.len());
        assert_eq!(total.tasks_per_worker.iter().sum::<usize>(), 8);
        assert_eq!(total.tasks_per_worker[0], 3 + wide.tasks_per_worker[0]);
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
                // Not exact in binary: a fold in another order moves the
                // moments' last bits.
                for k in 0..3 {
                    telemetry::observe("pool.share", 0.1 * (i + k + 1) as f64 / 3.0);
                }
                telemetry::event("pool.after", format!("t{i}"), i as f64);
                // A nested fan-out forks the task's own session.
                map_indexed(workers, 3, |j| telemetry::count("pool.nested", j as u64));
            });
            assert_eq!(telemetry::sim_now(), 5.0);
            let done = telemetry::finish().expect("session active");
            let sink = done.sink.as_any().downcast_ref::<MemorySink>().unwrap();
            let buckets = done.recorder.histograms["pool.size"].buckets().to_vec();
            let moments: Vec<_> = done
                .recorder
                .histograms
                .iter()
                .map(|(key, h)| {
                    let m = h.moments;
                    (*key, m.count, m.mean().to_bits(), m.variance().to_bits())
                })
                .collect();
            (
                done.recorder.counters,
                buckets,
                sink.events.clone(),
                moments,
            )
        };
        let one = traced(1);
        assert_eq!(one.0["pool.units"], 36);
        assert_eq!(one.0["pool.nested"], 27);
        assert_eq!(one.2.len(), 18);
        assert_eq!(one.2[2].t_s, 5.0, "task 1 starts from the caller's time");
        assert_eq!(one.3.len(), 2);
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
