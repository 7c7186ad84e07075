//! Execution outcome records.

use caribou_metrics::logs::InvocationLog;
use caribou_model::region::RegionId;
use caribou_simcloud::meter::UsageMeter;

/// Exactly-one-of classification of an invocation under faults: the
/// chaos harness's "no invocation lost" invariant requires every request
/// to land in exactly one of these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvocationStatus {
    /// Ran to completion on the planned deployment.
    Completed,
    /// Ran to completion, but one or more nodes re-routed to the home
    /// deployment mid-flight (§6.1 fallback).
    FellBackHome,
    /// Could not complete; [`ExecutionOutcome::failed_region`] names the
    /// region that failed.
    Failed,
}

/// The result of one end-to-end workflow invocation.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The invocation log the Metrics Manager learns from.
    pub log: InvocationLog,
    /// End-to-end service time, seconds (first function received → last
    /// function finished, §9.1).
    pub e2e_latency_s: f64,
    /// Cost of the invocation, USD.
    pub cost_usd: f64,
    /// Execution carbon, gCO₂eq.
    pub exec_carbon_g: f64,
    /// Transmission carbon, gCO₂eq.
    pub trans_carbon_g: f64,
    /// Billable usage of this invocation.
    pub meter: UsageMeter,
    /// Whether every required message was delivered (false when a pub/sub
    /// message was dead-lettered or a region was down).
    pub completed: bool,
    /// Number of nodes re-routed to the home deployment mid-flight.
    pub failovers: u32,
    /// Number of nodes that paid a cold start (stateful warm-pool misses
    /// when the pool is enabled, probabilistic draws otherwise). Carried
    /// on the outcome so callers running the engine on worker threads —
    /// where telemetry sessions are inactive — still get exact counts.
    pub cold_starts: u32,
    /// First region observed failing during the invocation, when any —
    /// set even when the failover succeeded, so the router's circuit
    /// breaker learns about flaky regions behind successful requests.
    pub failed_region: Option<RegionId>,
}

impl ExecutionOutcome {
    /// Total operational carbon, gCO₂eq.
    pub fn carbon_g(&self) -> f64 {
        self.exec_carbon_g + self.trans_carbon_g
    }

    /// The exactly-one-of classification of this invocation.
    pub fn status(&self) -> InvocationStatus {
        if !self.completed {
            InvocationStatus::Failed
        } else if self.failovers > 0 {
            InvocationStatus::FellBackHome
        } else {
            InvocationStatus::Completed
        }
    }

    /// Whether the invocation completed via the home-region fallback.
    pub fn fell_back_home(&self) -> bool {
        self.status() == InvocationStatus::FellBackHome
    }
}
