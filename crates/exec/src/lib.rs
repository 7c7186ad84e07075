//! Cross-regional workflow execution (§6.2 and the runtime side of §4).
//!
//! This crate is Caribou's data plane: it executes one workflow invocation
//! against the simulated cloud under a deployment plan, exercising the
//! exact mechanisms the paper describes —
//!
//! * the function wrapper that fetches the active deployment plan at the
//!   entry node and piggybacks it (plus the successor's DAG location) on
//!   every downstream invocation;
//! * pub/sub messaging as the cross-region "offloading glue", including
//!   at-least-once delivery and retries;
//! * the synchronization-node protocol: predecessors atomically update a
//!   per-invocation annotation in the distributed KV store, and the writer
//!   that completes condition (4.1) — every incoming edge annotated, at
//!   least one taken — performs the invocation;
//! * conditional-edge skip propagation: a predecessor that decides not to
//!   take an edge marks it, and fully-dead downstream nodes cascade their
//!   own annotations so synchronization nodes are never left waiting;
//! * the 10% home-region benchmarking traffic of §6.2.

pub mod engine;
pub mod layout;
pub mod nature;
pub mod outcome;
pub mod router;

pub use engine::{ExecutionEngine, WorkflowApp};
pub use nature::Nature;
pub use outcome::ExecutionOutcome;
pub use router::InvocationRouter;
