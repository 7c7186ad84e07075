//! A deterministic, discrete-event simulated multi-region serverless cloud.
//!
//! This crate is the stand-in for the AWS substrate the paper runs on. It
//! models exactly the services Caribou touches, with the same interfaces
//! and cost structure:
//!
//! * [`clock`] — virtual time and a generic discrete-event queue;
//! * [`latency`] — a CloudPing-calibrated inter-region latency and
//!   bandwidth model;
//! * [`pricing`] — an AWS-price-list-calibrated catalog (Lambda GB-s,
//!   per-request fees, SNS, DynamoDB, tiered inter-region egress);
//! * [`compute`] — Lambda-like function execution (memory→vCPU allocation,
//!   region performance factors, cold starts, `cpu_total_time` accounting
//!   for the utilization-based power model);
//! * [`pubsub`] — SNS-like topics with publish latency, at-least-once
//!   delivery, and ack-based retries;
//! * [`kv`] — a DynamoDB-like distributed key-value store with atomic
//!   read-modify-write, as required by the synchronization-node protocol;
//! * [`blob`] — S3-like regional object storage for intermediate payloads
//!   above the KV item limit;
//! * [`warm`] — a stateful warm-container pool making cold starts a
//!   function of traffic (fresh offload regions start cold);
//! * [`registry`] — an ECR-like container registry with crane-style
//!   cross-region image copies;
//! * [`faults`] — composable fault injection (region outages, pairwise
//!   network partitions, gray failures, KV throttling, cold-start storms,
//!   deployment failures, message drops), deterministic under a seed;
//! * [`meter`] — usage metering and billing;
//! * [`providers`] — the table of provider constants (`aws`, `gcp`-like):
//!   per-provider messaging, KV, registry/compute and pricing numbers,
//!   per-region premiums and perf factors, inter-provider penalties;
//! * [`orchestration`] — transition-overhead models for Step-Functions-,
//!   SNS-, and Caribou-style orchestration (§9.6);
//! * [`cloud`] — the [`cloud::SimCloud`] façade bundling everything.
//!
//! All randomness flows through explicitly seeded [`caribou_model::Pcg32`]
//! generators, making every simulation bit-reproducible.

pub mod blob;
pub mod clock;
pub mod cloud;
pub mod compute;
pub mod faults;
pub mod kv;
pub mod latency;
pub mod meter;
pub mod orchestration;
pub mod pricing;
pub mod providers;
pub mod pubsub;
pub mod registry;
pub mod warm;

pub use cloud::SimCloud;
pub use compute::{ExecutionRecord, LambdaRuntime};
pub use latency::LatencyModel;
pub use meter::UsageMeter;
pub use pricing::PricingCatalog;

/// A process-unique identity for a service instance that issues handles
/// ([`pubsub::TopicId`], [`kv::TableId`]): a holder of handles compares
/// it to know they came from this instance. It never reaches an output.
fn fresh_namespace() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}
