//! Supervision contract tests: deterministic reduction at any job count,
//! panic isolation, bounded retry, and journal crash tolerance.

use mirza_frontend::error::SimError;
use mirza_runner::{cell_hash, parse_journal, Cell, Pool, JOURNAL_SCHEMA};
use mirza_telemetry::Json;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A pure arithmetic cell: result depends only on construction inputs.
struct ArithCell {
    index: u64,
    seed: u64,
}

impl Cell for ArithCell {
    type Out = u64;
    fn id(&self) -> String {
        format!("arith/{}/{}", self.index, self.seed)
    }
    fn run(&self) -> Result<u64, SimError> {
        // Spread the work so parallel completion order actually scrambles.
        let mut h = self.seed ^ (self.index * 0x9e37_79b9);
        for _ in 0..(self.index % 7) * 1000 {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        Ok(h)
    }
}

#[test]
fn reduction_is_deterministic_across_job_counts() {
    let cells: Vec<ArithCell> = (0..64).map(|i| ArithCell { index: i, seed: 42 }).collect();
    let serial = Pool::with_jobs(1).run(&cells, None);
    assert!(serial.complete());
    for jobs in [2, 8] {
        let parallel = Pool::with_jobs(jobs).run(&cells, None);
        assert!(parallel.complete());
        assert_eq!(
            serial.results, parallel.results,
            "jobs={jobs} must reduce bit-identically to serial"
        );
        assert_eq!(
            parallel.per_worker.iter().sum::<u64>(),
            64,
            "every cell ran exactly once"
        );
    }
}

/// Panics on a chosen index; neighbors must be unaffected.
struct PanicCell {
    index: usize,
    poisoned: bool,
}

impl Cell for PanicCell {
    type Out = usize;
    fn id(&self) -> String {
        format!("panic-test/{}", self.index)
    }
    fn run(&self) -> Result<usize, SimError> {
        if self.poisoned {
            panic!("injected poison in cell {}", self.index);
        }
        Ok(self.index * 10)
    }
}

#[test]
fn injected_panic_surfaces_in_failures_without_poisoning_neighbors() {
    // Silence the default panic hook's backtrace spam for the injected
    // unwinds; restore afterwards.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cells: Vec<PanicCell> = (0..16)
        .map(|index| PanicCell {
            index,
            poisoned: index == 5,
        })
        .collect();
    for jobs in [1, 4] {
        let outcome = Pool::with_jobs(jobs).run(&cells, None);
        assert_eq!(outcome.failures.len(), 1, "exactly the poisoned cell fails");
        let failure = &outcome.failures[0];
        assert_eq!(failure.index, 5);
        assert_eq!(failure.id, "panic-test/5");
        assert_eq!(
            failure.attempts, 2,
            "a panic is retried once before being recorded"
        );
        match &failure.error {
            SimError::CellPanic { cell, payload } => {
                assert_eq!(cell, "panic-test/5");
                assert!(payload.contains("injected poison"), "{payload}");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
        assert_eq!(failure.error.exit_code(), 7);
        for (index, result) in outcome.results.iter().enumerate() {
            if index == 5 {
                assert!(result.is_none());
            } else {
                assert_eq!(*result, Some(index * 10), "neighbor {index} poisoned");
            }
        }
    }
    std::panic::set_hook(prev);
}

/// Fails with a watchdog error on its first attempt, succeeds on retry —
/// the transient-wedge shape the bounded retry exists for.
struct FlakyCell {
    attempts_seen: AtomicU32,
}

impl Cell for FlakyCell {
    type Out = u32;
    fn id(&self) -> String {
        "flaky/0".into()
    }
    fn run(&self) -> Result<u32, SimError> {
        let attempt = self.attempts_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if attempt == 1 {
            Err(SimError::Watchdog {
                reason: "transient wedge".into(),
                instructions: 0,
                sim_time_ps: 0,
            })
        } else {
            Ok(attempt)
        }
    }
}

#[test]
fn transient_watchdog_failure_is_retried_and_recovers() {
    let cells = [FlakyCell {
        attempts_seen: AtomicU32::new(0),
    }];
    let outcome = Pool::with_jobs(4).run(&cells, None);
    assert!(outcome.complete());
    assert_eq!(outcome.retries, 1);
    assert_eq!(outcome.results[0], Some(2), "second attempt's result wins");
}

/// Deterministic input errors must fail fast, not burn the retry budget.
struct ConfigErrCell;

impl Cell for ConfigErrCell {
    type Out = ();
    fn id(&self) -> String {
        "badcfg/0".into()
    }
    fn run(&self) -> Result<(), SimError> {
        Err(SimError::Config {
            key: "k".into(),
            reason: "always invalid".into(),
        })
    }
}

#[test]
fn deterministic_errors_fail_fast_without_retry() {
    let outcome = Pool::with_jobs(2).run(&[ConfigErrCell], None);
    assert_eq!(outcome.retries, 0);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].attempts, 1);
}

#[test]
fn on_complete_fires_once_per_success() {
    use std::sync::Mutex;
    let cells: Vec<ArithCell> = (0..20).map(|i| ArithCell { index: i, seed: 7 }).collect();
    let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let outcome = Pool::with_jobs(4).run(
        &cells,
        Some(&|_, id: &str, _: &u64| seen.lock().unwrap().push(id.to_string())),
    );
    assert!(outcome.complete());
    let mut ids = seen.into_inner().unwrap();
    ids.sort();
    let mut expected: Vec<String> = cells.iter().map(|c| c.id()).collect();
    expected.sort();
    assert_eq!(ids, expected);
}

// --- Journal crash tolerance (proptest) ---

fn journal_text(campaign: u64, seeds: &[u64]) -> (String, Vec<String>) {
    let mut header = Json::obj();
    header
        .push("journal", JOURNAL_SCHEMA)
        .push("campaign", format!("{campaign:016x}"));
    let mut text = format!("{}\n", header.to_string_compact());
    let mut ids = Vec::new();
    for &seed in seeds {
        let id = format!("cell-{seed}");
        let mut doc = Json::obj();
        doc.push("cell", format!("{:016x}", cell_hash(&id)))
            .push("id", id.as_str())
            .push("result", Json::U64(seed));
        text.push_str(&doc.to_string_compact());
        text.push('\n');
        ids.push(id);
    }
    (text, ids)
}

proptest! {
    /// Truncating a journal at ANY byte offset yields either a rejected
    /// file (only when the cut lands inside the header) or a clean prefix
    /// of the original records — never a misparsed or invented record.
    #[test]
    fn truncated_journal_is_a_clean_prefix(
        seeds in proptest::collection::vec(0u64..1_000_000, 0..12),
        cut_scale in 0u64..10_000,
    ) {
        let campaign = cell_hash("prop-campaign");
        let (text, ids) = journal_text(campaign, &seeds);
        let cut = (cut_scale as usize * text.len()) / 10_000;
        let truncated = &text[..cut.min(text.len())];
        let header_len = text.find('\n').unwrap() + 1;
        match parse_journal(truncated, campaign) {
            None => prop_assert!(
                cut < header_len,
                "complete header (cut {cut} >= {header_len}) must parse"
            ),
            Some(records) => {
                prop_assert!(records.len() <= ids.len());
                for (record, (id, seed)) in records.iter().zip(ids.iter().zip(seeds.iter())) {
                    prop_assert_eq!(&record.id, id);
                    prop_assert_eq!(record.hash, cell_hash(id));
                    prop_assert_eq!(record.result.as_u64(), Some(*seed));
                }
            }
        }
    }

    /// Corrupting a byte anywhere in the trailing record drops that record
    /// (and only trailing records) — earlier records replay untouched.
    #[test]
    fn corrupt_trailing_record_is_dropped(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..10),
        corrupt_offset in 0u64..10_000,
    ) {
        let campaign = cell_hash("prop-campaign");
        let (text, ids) = journal_text(campaign, &seeds);
        // Find the final record line and smash one of its bytes with an
        // unescaped control byte no JSON string or literal may contain.
        let body = &text[..text.len() - 1]; // drop trailing \n
        let last_line_start = body.rfind('\n').unwrap() + 1;
        let last_len = text.len() - last_line_start - 1;
        let p = last_line_start + (corrupt_offset as usize % last_len.max(1));
        let mut bytes = text.clone().into_bytes();
        bytes[p] = 0x01;
        let corrupted = String::from_utf8(bytes).unwrap();
        let records = parse_journal(&corrupted, campaign).expect("header intact");
        prop_assert_eq!(records.len(), ids.len() - 1, "exactly the smashed record dropped");
        for (record, id) in records.iter().zip(ids.iter()) {
            prop_assert_eq!(&record.id, id);
        }
    }
}
