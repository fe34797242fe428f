//! Benchmark of the MIRZA reproduction: three workloads timed end to end,
//! and a traced run that splits each workload's time by layer by timing
//! the calls into the workspace crates from outside, through their public
//! functions only. `README.md` beside this crate lists the workloads, the
//! metrics, and which end-to-end metric each layer should move where.

pub mod host;
pub mod layers;
pub mod suite;

use mirza_bench::perfbench::Stats;

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        Stats::from_samples(v).median
    }
}
