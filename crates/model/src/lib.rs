//! Workflow model for the Caribou geospatial-shifting framework.
//!
//! This crate is the dependency root of the workspace. It defines the
//! vocabulary every other crate speaks:
//!
//! * [`region`] — cloud regions, providers, and the region catalog;
//! * [`dag`] — the workflow DAG of §4 of the paper (nodes, conditional
//!   edges, synchronization nodes, validation);
//! * [`plan`] — deployment plans `ψ : N → R` and hourly plan sets;
//! * [`constraints`] — per-function and workflow-level region constraints
//!   and QoS tolerances;
//! * [`profile`] — resource profiles (execution-time distributions, memory
//!   sizes, payload sizes, edge probabilities) that stand in for the
//!   measured behaviour of real benchmark code;
//! * [`builder`] — the developer-facing API mirroring the paper's Listing 1
//!   and the "static analysis" that extracts a DAG from it;
//! * [`manifest`] — the deployment manifest (the paper's `config.yml`:
//!   workflow name, version and home region);
//! * [`dist`] — distribution specifications used throughout the models;
//! * [`hash`] — a fixed, keyless hasher for the simulator's own maps;
//! * [`intern`] — interned, cheaply cloneable strings ([`intern::IStr`])
//!   for the data-plane hot paths;
//! * [`rng`] — a small, in-repo, seed-deterministic PCG32 generator so that
//!   every experiment is reproducible independent of external crate
//!   versions.
//!
//! # Examples
//!
//! ```
//! use caribou_model::builder::Workflow;
//!
//! let mut wf = Workflow::new("hello", "0.1");
//! let a = wf.serverless_function("A").register();
//! let b = wf.serverless_function("B").register();
//! wf.invoke(a, b, None);
//! let dag = wf.extract_dag().unwrap();
//! assert_eq!(dag.node_count(), 2);
//! ```

pub mod builder;
pub mod constraints;
pub mod dag;
pub mod dist;
pub mod error;
pub mod hash;
pub mod intern;
pub mod manifest;
pub mod plan;
pub mod profile;
pub mod region;
pub mod rng;

pub use builder::Workflow;
pub use constraints::{Constraints, Tolerances};
pub use dag::{EdgeId, NodeId, WorkflowDag};
pub use error::ModelError;
pub use intern::IStr;
pub use manifest::DeploymentManifest;
pub use plan::{DeploymentPlan, HourlyPlans};
pub use profile::WorkflowProfile;
pub use region::{Provider, ProviderRegion, ProviderSet, RegionCatalog, RegionId, RegionSpec};
pub use rng::Pcg32;
