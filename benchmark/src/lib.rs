//! The repository's benchmark: five workloads from the data plane alone to
//! the whole adaptive loop, end-to-end and per-layer metrics, traced runs.
//! See `README.md` beside this package for what each number means.

pub mod alloc_count;
pub mod api;
pub mod layers;
pub mod micro;
pub mod refwork;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
