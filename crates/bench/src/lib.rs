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
//! * [`compare`] — manifest regression diffing for `repro --compare` and
//!   the CI bench gate.
//! * [`perfbench`] — the wall-clock/throughput benchmark harness behind
//!   `repro perfbench`, emitting schema'd `BENCH_<gitrev>.json` documents.
//! * [`trajectory`] — loads committed `BENCH_*.json` documents and renders
//!   the perf trajectory table plus soft regression flags.
//! * [`report`] — assembles `results/report.html` from whatever artifacts
//!   are present (`repro report`).
//! * [`provenance`] — git revision, cargo profile, and host fingerprint
//!   stamped into manifests and bench documents.

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
pub mod trajectory;
