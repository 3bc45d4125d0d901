//! The four workloads and their dispatch by name.

pub mod analytic_scan;
pub mod durable_mixed;
pub mod tcp_point_read;
pub mod validation_sweep;

use std::time::Instant;

use crate::harness::{run_part, Fixture, PartReport, PartSpec};

/// A workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unprepared indexed point reads over loopback TCP.
    TcpPointRead,
    /// Six prepared analytic shapes, in process.
    AnalyticScan,
    /// Durable one-row insert plus read-back on one connection.
    DurableMixed,
    /// The §4 validation experiment, 3 dialects × 3 logic modes.
    ValidationSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TcpPointRead,
        Workload::AnalyticScan,
        Workload::DurableMixed,
        Workload::ValidationSweep,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpPointRead => tcp_point_read::TcpPointRead::NAME,
            Workload::AnalyticScan => analytic_scan::AnalyticScan::NAME,
            Workload::DurableMixed => durable_mixed::DurableMixed::NAME,
            Workload::ValidationSweep => validation_sweep::ValidationSweep::NAME,
        }
    }

    /// The workload of that name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one part of this workload in the current process.
    pub fn run_part(self, spec: &PartSpec, process_start: Instant) -> PartReport {
        match self {
            Workload::TcpPointRead => run_part::<tcp_point_read::TcpPointRead>(spec, process_start),
            Workload::AnalyticScan => run_part::<analytic_scan::AnalyticScan>(spec, process_start),
            Workload::DurableMixed => run_part::<durable_mixed::DurableMixed>(spec, process_start),
            Workload::ValidationSweep => {
                run_part::<validation_sweep::ValidationSweep>(spec, process_start)
            }
        }
    }
}
