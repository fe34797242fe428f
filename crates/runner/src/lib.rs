//! Supervised parallel sweep engine (ROADMAP item 1).
//!
//! Campaign surfaces — every lab sweep (the table4 workload×mitigator
//! grid, the attribution sweep, dos-sim's attacked cells) and the 224-cell
//! attack matrix — decompose into independent, seeded, pure cells. This
//! crate runs those cells on hand-rolled scoped `std::thread` workers with
//! the robustness-first contract paper-scale campaigns need:
//!
//! * [`pool`] — the work-pool: [`Cell`] trait, each cell run once with
//!   panic isolation via `catch_unwind`, nondeterministic completion with
//!   **deterministic reduction** (merge by canonical enumeration index), so
//!   parallel output is bit-identical to serial at any `--jobs` count.
//! * [`journal`] — the checkpoint journal: one fsync'd JSONL record per
//!   completed cell keyed by a stable FNV-1a cell-id hash, so
//!   `--resume` replays finished cells and schedules only the remainder
//!   after a crash or `kill -9`.
//!
//! Dependency-free by design (std + the in-tree `mirza-frontend` error type
//! and `mirza-telemetry` JSON/metrics), like every other crate in the
//! workspace.

pub mod journal;
pub mod pool;

pub use journal::{cell_hash, parse_journal, Journal, JournalRecord, JOURNAL_SCHEMA};
pub use pool::{default_jobs, scale_wall_budget, Cell, CellFailure, OnComplete, Outcome, Pool};
