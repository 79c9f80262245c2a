//! Deterministic simulation testing of the chaos world, one grid cell
//! at a time.
//!
//! A DST run is one seeded chaos experiment in the compact
//! [`crate::chaos::ChaosConfig::dst`] shape, judged solely by its
//! invariant [`sm_sim::Oracle`]. The swarm, shrink and reproducer
//! machinery is shared by every fault world and lives in
//! [`crate::world`]; this module keeps the single-cell entry point.

use crate::chaos::{ChaosReport, ChaosWorld};
pub use crate::world::DstConfig;
use crate::world::FaultWorld;

/// Outcome of one DST run.
#[derive(Debug)]
pub struct DstReport {
    /// The underlying chaos run's full report.
    pub chaos: ChaosReport,
}

impl DstReport {
    /// True when the oracle observed at least one invariant violation.
    pub fn failed(&self) -> bool {
        self.chaos.failed()
    }

    /// The canonical oracle verdict (see [`crate::world::Report::verdict`]).
    pub fn verdict(&self) -> String {
        self.chaos.verdict()
    }
}

/// Runs one grid cell with its seed-derived fault plan.
pub fn run_dst(cfg: DstConfig) -> DstReport {
    DstReport {
        chaos: ChaosWorld::run(ChaosWorld::config(cfg)),
    }
}
