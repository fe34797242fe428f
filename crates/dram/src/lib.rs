//! # mirza-dram — event-driven DDR5 device model
//!
//! The DRAM substrate for the MIRZA reproduction: per-bank timing state
//! machines, rank-level constraints (tRRD/tFAW), data-bus occupancy, the
//! refresh-pointer walk, the ALERT back-off line, and the [`Mitigator`]
//! trait that in-DRAM Rowhammer mitigations implement.
//!
//! All time is integer picoseconds ([`time::Ps`]); the model is event-driven
//! (no per-cycle loop), so a full 32 ms refresh window is tractable.
//!
//! ```
//! use mirza_dram::prelude::*;
//!
//! let geom = Geometry::ddr5_32gb();
//! let mapping = RowMapping::for_geometry(MappingScheme::Strided, &geom);
//! let mut sc = Subchannel::new(
//!     TimingParams::ddr5_6000(),
//!     geom,
//!     mapping,
//!     Box::new(NullMitigator::new()),
//! );
//! let bank = BankId::new(0, 0, 0);
//! let act = Command::Act { bank, row: 42 };
//! let at = sc.earliest(&act).expect("bank is precharged");
//! sc.issue(act, at);
//! assert_eq!(sc.open_row(bank), Some(42));
//! ```
//!
//! [`Mitigator`]: mitigation::Mitigator

pub mod address;
pub mod audit;
pub mod bank;
pub mod command;
pub mod device;
pub mod geometry;
pub mod mitigation;
pub mod refresh;
pub mod stats;
pub mod time;
pub mod timing;

/// Convenient re-exports of the types nearly every consumer needs.
pub mod prelude {
    pub use crate::address::{BankId, DramAddr, MappingScheme, RegionMap, RowMapping};
    pub use crate::audit::{CommandAuditor, Violation};
    pub use crate::command::Command;
    pub use crate::device::{Issued, Subchannel};
    pub use crate::geometry::Geometry;
    pub use crate::mitigation::{MitigationStats, Mitigator, NullMitigator, RefreshSlice};
    pub use crate::refresh::RefreshPointer;
    pub use crate::stats::DeviceStats;
    pub use crate::time::Ps;
    pub use crate::timing::TimingParams;
}
