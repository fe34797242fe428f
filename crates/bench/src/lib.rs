//! # mirza-bench — experiment regeneration harness
//!
//! One regenerator per table and figure of the paper's evaluation, driven
//! by the `repro` binary (`cargo run -p mirza-bench --bin repro --release -- <exp>`).
//!
//! * [`analytic`] — Tables I, II, III, VII, X, XI, XII; Figure 9.
//! * [`experiments`] — Tables IV, V, VI, VIII, IX, XIII; Figures 3, 6,
//!   11a, 11b, 13 (full-system simulation, memoized in a [`lab::Lab`]).
//! * [`attacks_exp`] — Figure 14 (reset policies), the security sweep, and
//!   the simulated DoS cross-check of Table XI.
//! * [`attack_matrix`] — the strategy x schedule x mitigator sweep over
//!   the composable attack framework (`repro attack-matrix`).
//! * [`extensions`] — ablations beyond the published tables (mapping, QTH,
//!   queue capacity, region count, PARA comparison).
//! * [`scale`] — the consistent 1/N scaling of the evaluation setup
//!   (`--smoke`, `--fast`, `--full`).
//! * [`compare`] — manifest regression diffing behind `repro --compare`,
//!   the CI manifest gate.
//! * [`perfbench`] — order statistics over timing samples, used by the
//!   benchmark in `benchsuite/`.
//! * [`report`] — assembles `results/report.html` from whatever artifacts
//!   are present (`repro report`).
//! * [`provenance`] — git revision, cargo profile, and host fingerprint
//!   stamped into run manifests and the benchmark's results.

pub mod analytic;
pub mod attack_matrix;
pub mod attacks_exp;
pub mod attribution;
pub mod compare;
pub mod experiments;
pub mod extensions;
pub mod lab;
pub mod perfbench;
pub mod provenance;
pub mod report;
pub mod scale;
