//! Invocation logs and their retention policy (§7.2).
//!
//! The Metrics Manager keeps the daily invocations of every workflow for
//! the last thirty days and at most the 5,000 latest executions. Beyond
//! the cap it *selectively forgets*: only invocations representing DAG
//! information (e.g. a region-to-region latency observation) not present
//! in newer data are maintained; others are removed in FIFO order.
//!
//! Retention index: `newest` maps every information key to the newest
//! arrival sequence carrying it, and a log is droppable iff all its keys
//! map to later sequences. Dropping one changes no other log's droppability
//! (its keys live on in something newer), so `record` maintains the index
//! and no prune rebuilds it.

use std::collections::VecDeque;

use caribou_model::hash::FixedMap;
use caribou_model::region::RegionId;

/// Per-stage execution record inside one invocation log.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Node index in the workflow DAG.
    pub node: u32,
    /// Region the stage executed in.
    pub region: RegionId,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
    /// Lambda-Insights `cpu_total_time`, seconds.
    pub cpu_total_time_s: f64,
    /// Configured memory, MB.
    pub memory_mb: u32,
    /// Start offset within the invocation, seconds.
    pub start_s: f64,
}

/// Per-edge transmission record inside one invocation log.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRecord {
    /// Edge index in the workflow DAG.
    pub edge: u32,
    /// Whether the (conditional) edge fired.
    pub taken: bool,
    /// Source region.
    pub from_region: RegionId,
    /// Destination region.
    pub to_region: RegionId,
    /// Payload bytes moved.
    pub bytes: f64,
    /// Observed transmission latency, seconds (0 when not taken).
    pub latency_s: f64,
}

/// One complete workflow invocation record: what the Metrics Manager
/// learns from. A manager holds one workflow's logs, so a log does not
/// name its workflow; the invocation's end-to-end latency and cost are on
/// the execution outcome that carries the log.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationLog {
    /// Simulation time of the invocation, seconds since epoch.
    pub at_s: f64,
    /// Whether this invocation was part of the 10% home-region
    /// benchmarking traffic (§6.2).
    pub benchmark_traffic: bool,
    /// Per-stage records.
    pub nodes: Vec<NodeRecord>,
    /// Per-edge records.
    pub edges: Vec<EdgeRecord>,
}

impl InvocationLog {
    /// The DAG-information keys this log contributes: per-stage
    /// `(node, region)` execution observations and per-edge
    /// `(edge, from, to)` transmission observations.
    fn info_keys(&self) -> impl Iterator<Item = InfoKey> + '_ {
        let nodes = self.nodes.iter().map(|n| InfoKey::Exec(n.node, n.region));
        let edges = self
            .edges
            .iter()
            .filter(|e| e.taken)
            .map(|e| InfoKey::Transfer(e.edge, e.from_region, e.to_region));
        nodes.chain(edges)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum InfoKey {
    Exec(u32, RegionId),
    Transfer(u32, RegionId, RegionId),
}

/// Retention window, seconds (30 days).
pub const RETENTION_S: f64 = 30.0 * 86_400.0;
/// Retention cap, invocations.
pub const RETENTION_CAP: usize = 5_000;

/// Stores invocation logs with the paper's retention policy.
///
/// # Examples
///
/// ```
/// use caribou_metrics::logs::{InvocationLog, LogStore};
///
/// let mut store = LogStore::with_cap(100);
/// store.record(InvocationLog {
///     at_s: 0.0,
///     benchmark_traffic: false,
///     nodes: vec![],
///     edges: vec![],
/// });
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStore {
    /// Logs in arrival order (oldest first), each with its arrival
    /// sequence number.
    logs: VecDeque<(u64, InvocationLog)>,
    /// Newest arrival sequence carrying each information key.
    newest: FixedMap<InfoKey, u64>,
    /// Sequence number the next recorded log gets.
    next_seq: u64,
    /// Lower bound on every retained `at_s` (times need not arrive in
    /// order): while it is inside the window no log can have aged out.
    at_s_floor: f64,
    /// Maximum retained logs (5,000 in the paper; configurable for tests).
    pub cap: usize,
    /// Retention window in seconds.
    pub window_s: f64,
}

impl LogStore {
    /// Creates a store with the paper's retention parameters.
    pub fn new() -> Self {
        LogStore {
            at_s_floor: f64::INFINITY,
            cap: RETENTION_CAP,
            window_s: RETENTION_S,
            ..Self::default()
        }
    }

    /// Creates a store with a custom cap (tests, small deployments).
    pub fn with_cap(cap: usize) -> Self {
        LogStore { cap, ..Self::new() }
    }

    /// Appends a log and applies retention relative to the log's time.
    pub fn record(&mut self, log: InvocationLog) {
        let now = log.at_s;
        let seq = self.next_seq;
        self.next_seq += 1;
        for k in log.info_keys() {
            self.newest.insert(k, seq);
        }
        self.at_s_floor = self.at_s_floor.min(now);
        self.logs.push_back((seq, log));
        self.prune(now);
    }

    /// Applies retention at time `now`: drops logs older than the window,
    /// then enforces the cap with selective forgetting.
    pub fn prune(&mut self, now: f64) {
        let cutoff = now - self.window_s;
        if self.at_s_floor < cutoff {
            self.drop_expired(cutoff);
        }
        // Selective forgetting, oldest first. The logs skipped here each
        // hold the newest copy of some key, so the walk passes at most as
        // many logs as there are distinct keys.
        let mut excess = self.logs.len().saturating_sub(self.cap);
        let mut i = 0;
        while excess > 0 && i < self.logs.len() {
            let (seq, log) = &self.logs[i];
            if log.info_keys().all(|k| self.newest[&k] > *seq) {
                self.logs.remove(i);
                excess -= 1;
            } else {
                i += 1;
            }
        }
        // If unique-information logs alone exceed the cap, fall back to
        // plain FIFO for the remainder so the store stays bounded.
        for _ in 0..excess {
            self.pop_oldest();
        }
    }

    /// Removes the oldest log. No older log exists, so a key whose newest
    /// copy it held is gone from the store.
    fn pop_oldest(&mut self) {
        if let Some((seq, log)) = self.logs.pop_front() {
            for k in log.info_keys() {
                if self.newest.get(&k) == Some(&seq) {
                    self.newest.remove(&k);
                }
            }
        }
    }

    /// Drops every log older than `cutoff` and makes `at_s_floor` exact.
    fn drop_expired(&mut self, cutoff: f64) {
        // Times that arrive in order expire from the front.
        while self.logs.front().is_some_and(|(_, l)| l.at_s < cutoff) {
            self.pop_oldest();
        }
        // Out-of-order times: an expired log behind a live one may hold
        // the newest copy of a key that older logs also carry.
        if self.logs().any(|l| l.at_s < cutoff) {
            self.logs.retain(|(_, l)| l.at_s >= cutoff);
            self.newest.clear();
            for (seq, log) in &self.logs {
                for k in log.info_keys() {
                    self.newest.insert(k, *seq);
                }
            }
        }
        self.at_s_floor = self.logs().map(|l| l.at_s).fold(f64::INFINITY, f64::min);
    }

    /// All retained logs, oldest first.
    pub fn logs(&self) -> impl Iterator<Item = &InvocationLog> {
        self.logs.iter().map(|(_, log)| log)
    }

    /// Number of retained logs.
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Invocations in the window `[from_s, to_s)`.
    pub fn count_between(&self, from_s: f64, to_s: f64) -> usize {
        self.logs()
            .filter(|l| l.at_s >= from_s && l.at_s < to_s)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_model::rng::Pcg32;
    use std::collections::HashSet;

    /// The retention policy as `LogStore::prune` implemented it before the
    /// index: a fresh newer-keys snapshot per retained log on every call.
    /// Kept verbatim as the oracle of the differential test below.
    fn oracle_prune(logs: &mut Vec<InvocationLog>, cap: usize, window_s: f64, now: f64) {
        let cutoff = now - window_s;
        logs.retain(|l| l.at_s >= cutoff);
        if logs.len() <= cap {
            return;
        }
        // Selective forgetting: walk oldest-first; a log is droppable when
        // every info key it carries also appears in some *newer* log.
        // Build the key multiset from newest to oldest so "newer
        // occurrences" can be checked incrementally.
        let mut keys_in_newer: Vec<HashSet<InfoKey>> = Vec::with_capacity(logs.len());
        let mut acc: HashSet<InfoKey> = HashSet::new();
        for log in logs.iter().rev() {
            keys_in_newer.push(acc.clone());
            for k in log.info_keys() {
                acc.insert(k);
            }
        }
        keys_in_newer.reverse(); // keys_in_newer[i] = keys in logs[i+1..]

        let excess = logs.len() - cap;
        let mut dropped = 0usize;
        let mut keep: Vec<bool> = vec![true; logs.len()];
        for i in 0..logs.len() {
            if dropped == excess {
                break;
            }
            let representable = logs[i].info_keys().all(|k| keys_in_newer[i].contains(&k));
            if representable {
                keep[i] = false;
                dropped += 1;
            }
        }
        // If unique-information logs alone exceed the cap, fall back to
        // plain FIFO for the remainder so the store stays bounded.
        if dropped < excess {
            for k in keep.iter_mut() {
                if dropped == excess {
                    break;
                }
                if *k {
                    *k = false;
                    dropped += 1;
                }
            }
        }
        let mut idx = 0;
        logs.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// A log over a key space small enough that most information repeats:
    /// 1–3 stage records and 0–2 edge records, taken or not.
    fn random_log(at_s: f64, rng: &mut Pcg32) -> InvocationLog {
        let mut l = log(at_s, RegionId(rng.next_index(3) as u16));
        for _ in 0..rng.next_index(3) {
            let mut n = l.nodes[0].clone();
            n.node = rng.next_index(3) as u32;
            n.region = RegionId(rng.next_index(3) as u16);
            l.nodes.push(n);
        }
        for _ in 0..rng.next_index(3) {
            l.edges.push(EdgeRecord {
                edge: rng.next_index(2) as u32,
                taken: rng.chance(0.6),
                from_region: RegionId(rng.next_index(2) as u16),
                to_region: RegionId(rng.next_index(3) as u16),
                bytes: 10.0,
                latency_s: 0.1,
            });
        }
        l
    }

    #[test]
    fn retention_index_selects_what_the_per_call_snapshot_selected() {
        for script in 0..320u64 {
            let mut rng = Pcg32::seed(script);
            let mut cap = 1 + rng.next_index(12);
            // The 30-day window never bites here; the 50-second one does,
            // on every few records.
            let window_s = if script.is_multiple_of(2) {
                RETENTION_S
            } else {
                50.0
            };
            let shuffled = script % 4 >= 2;
            let steps = 60 + rng.next_index(60);
            let mut store = LogStore::with_cap(cap);
            store.window_s = window_s;
            let mut oracle: Vec<InvocationLog> = Vec::new();
            let mut clock = 0.0;
            for step in 0..steps {
                if step == steps / 2 {
                    // A caller lowering the public cap: the next prune has
                    // several logs to shed at once.
                    cap = 1 + rng.next_index(cap);
                    store.cap = cap;
                }
                clock += rng.uniform(0.5, 8.0);
                let at_s = if shuffled {
                    rng.uniform(0.0, 200.0)
                } else {
                    clock
                };
                let l = random_log(at_s, &mut rng);
                oracle.push(l.clone());
                oracle_prune(&mut oracle, cap, window_s, at_s);
                store.record(l);
                assert!(
                    store.logs().eq(oracle.iter()),
                    "script {script} (cap {cap}, window {window_s}, shuffled {shuffled}) step {step}"
                );
            }
        }
    }

    fn log(at_s: f64, node_region: RegionId) -> InvocationLog {
        InvocationLog {
            at_s,
            benchmark_traffic: false,
            nodes: vec![NodeRecord {
                node: 0,
                region: node_region,
                duration_s: 1.0,
                cpu_total_time_s: 0.7,
                memory_mb: 1024,
                start_s: 0.0,
            }],
            edges: vec![],
        }
    }

    #[test]
    fn window_pruning_drops_old_logs() {
        let mut s = LogStore::new();
        s.record(log(0.0, RegionId(0)));
        s.record(log(31.0 * 86_400.0, RegionId(0)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.logs().next().unwrap().at_s, 31.0 * 86_400.0);
    }

    #[test]
    fn cap_enforced_fifo_when_same_information() {
        let mut s = LogStore::with_cap(10);
        for i in 0..25 {
            s.record(log(i as f64, RegionId(0)));
        }
        assert_eq!(s.len(), 10);
        // The oldest redundant ones were dropped.
        assert_eq!(s.logs().next().unwrap().at_s, 15.0);
    }

    #[test]
    fn unique_information_survives_cap() {
        let mut s = LogStore::with_cap(5);
        // One old log with unique region information...
        s.record(log(0.0, RegionId(9)));
        // ...then many newer logs in a different region.
        for i in 1..20 {
            s.record(log(i as f64, RegionId(0)));
        }
        assert_eq!(s.len(), 5);
        assert!(
            s.logs().any(|l| l.nodes[0].region == RegionId(9)),
            "unique-region log must be retained"
        );
    }

    #[test]
    fn all_unique_falls_back_to_fifo() {
        let mut s = LogStore::with_cap(3);
        for i in 0..6 {
            s.record(log(i as f64, RegionId(i as u16)));
        }
        assert_eq!(s.len(), 3);
        // Oldest unique ones dropped as a last resort.
        assert_eq!(s.logs().next().unwrap().nodes[0].region, RegionId(3));
    }

    #[test]
    fn count_between_filters_by_time() {
        let mut s = LogStore::new();
        for i in 0..10 {
            s.record(log(i as f64 * 100.0, RegionId(0)));
        }
        assert_eq!(s.count_between(200.0, 500.0), 3);
        assert_eq!(s.count_between(0.0, 1e9), 10);
        assert_eq!(s.count_between(901.0, 1000.0), 0);
    }

    #[test]
    fn edge_information_counts_for_uniqueness() {
        let mut s = LogStore::with_cap(4);
        let mut with_edge = log(0.0, RegionId(0));
        with_edge.edges.push(EdgeRecord {
            edge: 0,
            taken: true,
            from_region: RegionId(0),
            to_region: RegionId(7),
            bytes: 10.0,
            latency_s: 0.1,
        });
        s.record(with_edge);
        for i in 1..12 {
            s.record(log(i as f64, RegionId(0)));
        }
        assert_eq!(s.len(), 4);
        assert!(s.logs().any(|l| !l.edges.is_empty()));
    }
}
