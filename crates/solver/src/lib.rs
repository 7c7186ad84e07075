//! Deployment-plan solvers (§5.1).
//!
//! The Deployment Solver searches the `|R|^|N|` space of node-to-region
//! assignments for the plan optimizing the developer's objective subject
//! to QoS tolerances. Three solvers are provided:
//!
//! * [`hbss`] — the paper's Heuristic-Biased Stochastic Sampling
//!   (Alg. 1): biased mutation toward low-carbon regions, simulated-
//!   annealing-style acceptance with decaying temperature;
//! * [`exhaustive`] — exact enumeration for small instances, used as the
//!   ground truth in correctness tests and ablations;
//! * [`coarse`] — the `O(|R|)` single-region baseline ("limit the
//!   deployment of all DAG nodes to the same region"), the strategy the
//!   paper shows to be globally suboptimal (§5.1, §9.2 I1).
//!
//! [`hourly`] layers 24-plan generation on top of any solver (§5.1: "24
//! plans are generated per solve — one for each hour, given sufficient
//! carbon budget").
//!
//! [`engine`] is the deterministic parallel evaluation layer all three
//! solvers evaluate through: one draw bank per solve shared by every
//! candidate (common random numbers), a plan-keyed estimate cache, and a
//! scoped [`pool`] of worker threads — with solve results bit-identical
//! at any worker count.

pub mod coarse;
pub mod context;
pub mod contingency;
pub mod engine;
pub mod exhaustive;
pub mod hbss;
pub mod hourly;
mod keys;
pub mod pool;

pub use context::{SolveOutcome, SolverContext};
pub use engine::EvalEngine;
pub use hbss::{HbssParams, HbssSolver};
