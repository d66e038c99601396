//! End-to-end and per-layer benchmark of checkpointed, adapting jobs.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! how to run them.

pub mod bench;
pub mod report;
pub mod sparse;
pub mod trace;
pub mod workload;
