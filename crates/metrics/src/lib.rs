//! Workflow metrics and models (§7 of the paper).
//!
//! * [`summary`] — distribution summaries (mean = "average case", p95 =
//!   "tail case", coefficient of variation for the Monte Carlo stopping
//!   rule);
//! * [`energy`] — the serverless energy model of Eqs. 7.2–7.4 (memory
//!   power, utilization-based linear vCPU power, PUE);
//! * [`carbonmodel`] — operational execution and transmission carbon
//!   (Eqs. 7.1 and 7.5) with the best-/worst-case transmission energy
//!   factor scenarios of §7.1;
//! * [`costmodel`] — per-invocation cost (Lambda + SNS + DynamoDB +
//!   egress, §7.1 Cost);
//! * [`montecarlo`] — the end-to-end Monte Carlo estimator (§7.1
//!   End-To-End Metric Estimation): batches of 200 samples until the
//!   relative standard error of every metric drops below 0.05 or 2,000
//!   samples are reached;
//! * [`bank`] — the draw bank the estimator folds: every random
//!   primitive of a sample, drawn once per frozen context and shared by
//!   all candidate plans and hours (common random numbers);
//! * [`fold`] — the hour-free half of an estimate: a plan's latency and
//!   cost, folded once and kept as its [`fold::PlanRecord`] (the other
//!   half, pricing its carbon at an hour, is private);
//! * [`logs`] — invocation-log records and the 30-day / 5,000-entry
//!   retention with selective forgetting (§7.2);
//! * [`manager`] — the Metrics Manager assembling learned distributions
//!   with model fallbacks (§7.1 Latency: home-region execution fallback,
//!   CloudPing transmission fallback).

pub mod bank;
pub mod carbonmodel;
pub mod costmodel;
pub mod energy;
pub mod fold;
pub mod logs;
pub mod manager;
pub mod montecarlo;
mod prep;
mod price;
pub mod summary;
mod wide;

pub use carbonmodel::{CarbonModel, TransmissionScenario};
pub use costmodel::CostModel;
pub use logs::{InvocationLog, LogStore};
pub use manager::MetricsManager;
pub use montecarlo::{EstimateSummary, MonteCarloEstimator, StageModels};
pub use summary::DistSummary;
