//! # mirza-attacks — composable Rowhammer attack framework
//!
//! Attacks decompose into three independent trait axes (the SWAGE
//! allocator × hammerer × victim decomposition, adapted to an in-DRAM
//! mitigation study):
//!
//! * [`strategy::AddressStrategy`] — *which* rows to activate: wrappers
//!   over the canned [`mirza_workloads::attacks::RowPattern`] kernels
//!   (single/double/many-sided, half-double, blacksmith, CGF-evading
//!   same-region) plus adaptive strategies that react to run feedback
//!   (feinting, decoy flood, refresh-sync).
//! * [`schedule::Schedule`] — *when* to activate: flat-out bursts, paced
//!   hammering with a tunable inter-ACT gap, and an ALERT-adaptive pacer
//!   that backs off while the tracker asserts ALERT.
//! * [`victim::Victim`] — *what counts as compromised*: scored against the
//!   per-row [`mirza_dram::audit::RowCensus`] accumulated by the rig,
//!   compared with a mitigation's NBO activation bound (MIRZA's
//!   `safe_trhd`, PRAC's `2×ATH` envelope, a tracker's design TRH).
//!
//! The [`rig`] module replays any (strategy, schedule) pair against any
//! [`mirza_dram::mitigation::Mitigator`] on a faithful REF/ALERT timeline
//! and judges the outcome with a victim model. [`rig::run_attack`] is its
//! one run loop; a fixed [`mirza_workloads::attacks::RowPattern`] runs
//! through it as a [`strategy::PatternStrategy`] under a
//! [`schedule::Burst`] schedule.
//!
//! Everything is deterministic for a fixed seed: strategies draw their
//! randomness from seeded `SmallRng` streams and the rig itself is
//! RNG-free, so a matrix sweep re-run with the same seeds is bit-identical.

pub mod rig;
pub mod schedule;
pub mod strategy;
pub mod victim;

use mirza_dram::mitigation::RefreshSlice;
use mirza_dram::time::Ps;

/// Per-slot run feedback handed to strategies and schedules: everything an
/// on-device adversary could plausibly observe (command timing, ALERT
/// assertion, refresh cadence) and nothing it could not (tracker
/// internals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feedback {
    /// Current simulated instant.
    pub now: Ps,
    /// REF intervals completed so far.
    pub interval: u64,
    /// REF commands elapsed.
    pub refs: u64,
    /// ALERT back-offs serviced so far.
    pub alerts: u64,
    /// Whether the tracker is asserting ALERT right now.
    pub alert_pending: bool,
    /// Attacker ACTs performed since the last serviced ALERT.
    pub acts_since_alert: u32,
    /// ACT slots elapsed (hammered or idled) since the last serviced ALERT.
    pub slots_since_alert: u64,
    /// Total attacker ACTs performed.
    pub total_acts: u64,
    /// The most recent refresh slice, if any REF has been issued.
    pub last_refresh: Option<RefreshSlice>,
}

impl Feedback {
    /// Feedback at the start of a run (nothing observed yet).
    pub fn initial() -> Self {
        Feedback {
            now: Ps::ZERO,
            interval: 0,
            refs: 0,
            alerts: 0,
            alert_pending: false,
            acts_since_alert: 0,
            slots_since_alert: 0,
            total_acts: 0,
            last_refresh: None,
        }
    }
}
