//! # mirza-sim — full-system simulation harness
//!
//! Composes every substrate into the paper's Table-III machine: 8 interval
//! cores sharing a 16 MB LLC, clock-style paging, MOP4 address mapping, two
//! DDR5 sub-channels with FR-FCFS controllers, and the configured Rowhammer
//! mitigation ([`config::MitigationConfig`]).
//!
//! [`runner::run_workload`] executes one Table-IV workload and returns a
//! [`report::SimReport`] carrying every metric the paper's tables and
//! figures use (weighted-speedup slowdown, ALERT rate, refresh power
//! overhead, ACTs-per-subarray statistics, ...).

pub mod config;
pub mod faults;
pub mod report;
pub mod runner;
pub mod system;

pub use mirza_frontend::error::SimError;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::config::{Attacker, MitigationConfig, SimConfig};
    pub use crate::faults::{FaultInjector, FaultKind, FaultPlan, PlannedFault};
    pub use crate::report::SimReport;
    pub use crate::runner::{attack_stream, run_workload};
    pub use crate::system::{CoreSetup, System};
    pub use crate::SimError;
}
