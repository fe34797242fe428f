//! Typed simulation errors.
//!
//! Everything that used to panic on bad input — trace parsing, fault-plan
//! configuration, file I/O, a wedged run loop — is funneled through
//! [`SimError`] so drivers can print a structured diagnosis and exit with a
//! stable, documented code instead of unwinding. The type lives in the
//! frontend crate (the lowest layer that parses external input) and is
//! re-exported by `mirza-sim`.
//!
//! Exit-code table (also in DESIGN.md §6d):
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 1    | usage / generic failure                   |
//! | 2    | unknown workload or experiment            |
//! | 3    | malformed trace file (`path:line` named)  |
//! | 4    | bad configuration (fault plan, CLI value) |
//! | 5    | file I/O error                            |
//! | 6    | watchdog abort (stalled simulation)       |
//! | 7    | cell panic / degraded parallel campaign   |

use std::error::Error;
use std::fmt;

/// A typed, displayable simulation error with enough context to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A trace file failed to parse; `line` is 1-based and names the
    /// offending record.
    TraceParse {
        /// Path of the trace file (as given by the user).
        path: String,
        /// 1-based line number of the bad record (0 when the file as a
        /// whole is unusable, e.g. empty).
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A configuration key or value was rejected (fault plans, CLI flags).
    Config {
        /// The offending key or plan name.
        key: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An I/O operation failed.
    Io {
        /// Path involved.
        path: String,
        /// The underlying OS error, stringified.
        reason: String,
    },
    /// The forward-progress watchdog fired: the simulation stopped
    /// retiring work.
    Watchdog {
        /// Which watchdog fired and its threshold.
        reason: String,
        /// Instructions retired before the stall.
        instructions: u64,
        /// Simulated time reached before the stall, in picoseconds.
        sim_time_ps: u64,
    },
    /// A workload name matched neither a Table-IV benchmark nor a mix.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// A sweep cell panicked inside a supervised worker. The pool catches
    /// the unwind, records this typed error against the cell, and keeps the
    /// campaign alive; a campaign that ends with failed cells exits with
    /// this variant's code ("degraded", not "dead").
    CellPanic {
        /// Stable id of the poisoned cell.
        cell: String,
        /// The panic payload, stringified (`&str`/`String` payloads verbatim,
        /// anything else an opaque marker).
        payload: String,
    },
}

impl SimError {
    /// Process exit code for this error (see the module-level table).
    pub fn exit_code(&self) -> u8 {
        match self {
            SimError::UnknownWorkload { .. } => 2,
            SimError::TraceParse { .. } => 3,
            SimError::Config { .. } => 4,
            SimError::Io { .. } => 5,
            SimError::Watchdog { .. } => 6,
            SimError::CellPanic { .. } => 7,
        }
    }

    /// Convenience constructor wrapping a [`std::io::Error`] with its path.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        SimError::Io {
            path: path.into(),
            reason: err.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TraceParse { path, line, reason } => {
                if *line == 0 {
                    write!(f, "trace parse error in {path}: {reason}")
                } else {
                    write!(f, "trace parse error at {path}:{line}: {reason}")
                }
            }
            SimError::Config { key, reason } => {
                write!(f, "config error: {key}: {reason}")
            }
            SimError::Io { path, reason } => write!(f, "io error: {path}: {reason}"),
            SimError::Watchdog {
                reason,
                instructions,
                sim_time_ps,
            } => write!(
                f,
                "watchdog abort: {reason} \
                 (retired {instructions} instructions, sim time {sim_time_ps} ps)"
            ),
            // Keep the literal "unknown workload" prefix: legacy panicking
            // wrappers format this Display into their panic payload and
            // callers match on that substring.
            SimError::UnknownWorkload { name } => write!(f, "unknown workload {name}"),
            SimError::CellPanic { cell, payload } => {
                write!(f, "cell panic in {cell}: {payload}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs = [
            SimError::UnknownWorkload { name: "x".into() },
            SimError::TraceParse {
                path: "t".into(),
                line: 1,
                reason: "r".into(),
            },
            SimError::Config {
                key: "k".into(),
                reason: "r".into(),
            },
            SimError::Io {
                path: "p".into(),
                reason: "r".into(),
            },
            SimError::Watchdog {
                reason: "r".into(),
                instructions: 0,
                sim_time_ps: 0,
            },
            SimError::CellPanic {
                cell: "c".into(),
                payload: "p".into(),
            },
        ];
        let mut codes: Vec<u8> = errs.iter().map(SimError::exit_code).collect();
        assert!(codes.iter().all(|&c| c != 0));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "exit codes must be distinct");
    }

    #[test]
    fn display_names_the_offending_line() {
        let e = SimError::TraceParse {
            path: "runs/a.trace".into(),
            line: 17,
            reason: "expected a hex (0x...) or decimal address".into(),
        };
        let s = e.to_string();
        assert!(s.contains("runs/a.trace:17"), "{s}");
        assert!(s.contains("hex"), "{s}");
    }

    #[test]
    fn unknown_workload_keeps_legacy_panic_substring() {
        let e = SimError::UnknownWorkload {
            name: "doom".into(),
        };
        assert!(e.to_string().contains("unknown workload doom"));
    }
}
