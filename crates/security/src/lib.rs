//! # mirza-security — security and cost analysis
//!
//! Everything in the paper that is analytic or adversarial rather than a
//! performance simulation:
//!
//! * [`proactive`] — Table II: thresholds tolerated by proactive MINT and
//!   Mithril versus mitigation rate, refresh cannibalization, and the
//!   621K-ACTs-per-tREFW worst case.
//! * [`dos`] — Section IX / Table XI / Appendix A: ACT-throughput models of
//!   performance (denial-of-service) attacks on MIRZA, MINT+RFM and PRAC.
//! * [`area`] — Section VIII-A / Table X: the 6F²-DRAM / 120F²-SRAM
//!   relative area model.
//! * [`mint_model`] — MINT's escape probability and a Monte-Carlo check of
//!   the calibrated `TRHD ≈ 20·W` rule.

pub mod area;
pub mod dos;
pub mod mint_model;
pub mod proactive;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::area::{table10, table10_row, AreaRow};
    pub use crate::dos::{
        mint_rfm_attack_slowdown, mirza_attack_slowdown, prac_attack_slowdown, table11, Table11Row,
    };
    pub use crate::mint_model::{escape_probability, monte_carlo_max_run};
    pub use crate::proactive::{table2, Table2Row};
}
