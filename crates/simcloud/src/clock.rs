//! Virtual time and a generic discrete-event queue.
//!
//! Simulation time is measured in `f64` seconds since the simulation epoch.
//! Experiments anchor the epoch at a wall-clock instant (the paper's carbon
//! data period starts 2023-10-15 00:00 UTC) so that hour-of-day and
//! day-of-week derivations are meaningful.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Seconds since the simulation epoch.
pub type SimTime = f64;

/// A monotone virtual clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time; virtual time is
    /// monotone.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now - 1e-9,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = self.now.max(t);
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::set_sim_now(self.now);
            caribou_telemetry::count("clock.advance", 1);
        }
    }

    /// Advances the clock by a non-negative duration.
    pub fn advance_by(&mut self, dt: f64) {
        assert!(dt >= 0.0, "negative duration");
        self.now += dt;
        if caribou_telemetry::is_enabled() {
            caribou_telemetry::set_sim_now(self.now);
            caribou_telemetry::count("clock.advance", 1);
        }
    }
}

struct HeapEntry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering, with
        // insertion order (`seq`) breaking ties for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic earliest-first event queue.
///
/// Ties on time are broken by insertion order, so simulation outcomes do
/// not depend on heap internals.
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at time `t`.
    ///
    /// # Invariant
    ///
    /// Event times must be finite: the heap orders entries with
    /// `f64::total_cmp`, under which NaN sorts *after* every number — a
    /// NaN-timed event would sink to the back of the queue and silently
    /// reorder the simulation instead of failing. Debug builds assert;
    /// release builds saturate NaN and `+inf` to `f64::MAX` and `-inf` to
    /// `f64::MIN`, keeping the ordering total and deterministic.
    pub fn push(&mut self, t: SimTime, payload: T) {
        debug_assert!(t.is_finite(), "non-finite event time {t}");
        let t = if t.is_finite() {
            t
        } else if t == f64::NEG_INFINITY {
            f64::MIN
        } else {
            // NaN and +inf both clamp to the far future.
            f64::MAX
        };
        self.heap.push(HeapEntry {
            time: t,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Empties the queue, retaining its allocation for reuse. The
    /// insertion-order counter restarts, so a cleared queue behaves
    /// exactly like a fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance_to(5.0);
        c.advance_by(2.5);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    #[should_panic]
    fn clock_rejects_backwards() {
        let mut c = SimClock::new();
        c.advance_to(5.0);
        c.advance_to(1.0);
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(1.0, "third");
        q.push(2.0, "later");
        assert_eq!(q.pop().unwrap().1, "first");
        // Pushed at the tick being drained: after everything already
        // queued for it, before anything later.
        q.push(1.0, "pushed while draining");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop(), Some((1.0, "pushed while draining")));
        assert_eq!(q.pop(), Some((2.0, "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(4.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_clear_retains_capacity_and_resets_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "a");
        q.push(2.0, "b");
        q.clear();
        assert!(q.is_empty());
        q.push(5.0, "x");
        q.push(5.0, "y");
        assert_eq!(q.pop(), Some((5.0, "x")), "seq restarted");
        assert_eq!(q.pop(), Some((5.0, "y")));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite event time"))]
    fn queue_rejects_non_finite_times() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, "nan");
        // Release builds clamp instead of scrambling the ordering: the
        // NaN-timed event saturates to the far future and pops last.
        q.push(1.0, "now");
        q.push(f64::INFINITY, "inf");
        q.push(f64::NEG_INFINITY, "ninf");
        assert_eq!(q.pop().unwrap().1, "ninf");
        assert_eq!(q.pop().unwrap().1, "now");
        let last_two: Vec<&str> = [q.pop().unwrap(), q.pop().unwrap()]
            .iter()
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(last_two, vec!["nan", "inf"], "clamped ties keep seq order");
        assert_eq!(q.pop(), None);
    }
}
