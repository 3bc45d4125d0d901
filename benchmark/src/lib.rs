//! # sqlsem-benchmark
//!
//! The repo benchmark: four workloads, four gated end-to-end metrics
//! each, per-layer probes and a traced run. It drives the system only
//! through public functions of the `sqlsem-*` crates and times those
//! calls from outside; see `README.md` for every workload and metric
//! and the design rules that keep two runs of the same code as close
//! as the machine allows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod sysinfo;
pub mod trace;
pub mod workloads;
