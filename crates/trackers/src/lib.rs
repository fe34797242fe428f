//! # mirza-trackers — baseline Rowhammer mitigations
//!
//! Every mitigation the paper compares MIRZA against, implemented behind the
//! same [`Mitigator`](mirza_dram::mitigation::Mitigator) trait:
//!
//! * [`prac`] — PRAC per-row counters with MOAT-style reactive ALERT,
//! * [`mint_rfm`] — MINT sampling with proactive RFM mitigation (Figure 3),
//! * [`mithril`] — large counter-based proactive tracker (Table II),
//! * [`trr`] — DDR4-era Targeted Row Refresh (Table XII; insecure),
//! * [`para`] — stateless probabilistic baseline (extension studies),
//!
//! plus the shared building blocks [`reservoir`] (uniform window sampling)
//! and [`summary`] (Space-Saving counter tables). MINT mitigating under REF
//! (Tables II and XII) is analytic only: `mirza_security::proactive`.

pub mod mint_rfm;
pub mod mithril;
pub mod para;
pub mod prac;
pub mod reservoir;
pub mod summary;
pub mod trr;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::mint_rfm::MintRfm;
    pub use crate::mithril::Mithril;
    pub use crate::para::Para;
    pub use crate::prac::PracMoat;
    pub use crate::reservoir::Reservoir;
    pub use crate::summary::{SpaceSaving, SummaryEntry};
    pub use crate::trr::Trr;
}
