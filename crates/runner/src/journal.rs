//! Checkpoint journal: crash-safe per-cell completion records.
//!
//! One JSONL file per campaign (`results/<run>.journal.jsonl`). The first
//! line is a header binding the journal to a campaign spec hash; every
//! following line is one completed cell's result, fsync'd at append time so
//! a `kill -9` mid-campaign loses at most the cells that were in flight:
//!
//! ```text
//! {"journal":"mirza-runner-journal-v1","campaign":"1a2b3c4d5e6f7788"}
//! {"cell":"9f86d081884c7d65","id":"mirza-1000/lbm","result":{...}}
//! ```
//!
//! Crash tolerance on load is strictly prefix-shaped: records are replayed
//! in order until the first malformed, truncated, or inconsistent line
//! (including a torn final write with no trailing newline), and everything
//! from that point on is **dropped, never guessed at** — dropped cells are
//! simply re-run. A header that fails to parse or names a different
//! campaign hash invalidates the whole file.

use mirza_telemetry::Json;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal schema tag (header `journal` field).
pub const JOURNAL_SCHEMA: &str = "mirza-runner-journal-v1";

/// Stable 64-bit FNV-1a hash of a cell id — the journal key. Independent of
/// the std hasher (which is allowed to change between releases) so journals
/// survive toolchain upgrades.
pub fn cell_hash(id: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// `cell_hash(id)`, as stored.
    pub hash: u64,
    /// The cell's stable id.
    pub id: String,
    /// The cell's serialized result.
    pub result: Json,
}

/// Parses journal text into the longest valid record prefix.
///
/// Returns `None` when the header is missing, malformed, carries the wrong
/// schema, or names a different campaign. Otherwise returns every leading
/// record that parses *and* is self-consistent (`cell == cell_hash(id)`);
/// the first bad line ends the replay and discards the rest. Pure so the
/// proptest suite can drive it without touching the filesystem.
pub fn parse_journal(text: &str, campaign_hash: u64) -> Option<Vec<JournalRecord>> {
    let mut lines = text.split('\n');
    let header = Json::parse(lines.next()?).ok()?;
    if header.get("journal")?.as_str()? != JOURNAL_SCHEMA {
        return None;
    }
    if u64::from_str_radix(header.get("campaign")?.as_str()?, 16).ok()? != campaign_hash {
        return None;
    }
    let mut records = Vec::new();
    for line in lines {
        if line.is_empty() {
            // Clean EOF ("...}\n" splits into a trailing ""); anything after
            // an interior blank line is unreachable garbage either way.
            break;
        }
        let Some(record) = parse_record(line) else {
            break;
        };
        records.push(record);
    }
    Some(records)
}

fn parse_record(line: &str) -> Option<JournalRecord> {
    let doc = Json::parse(line).ok()?;
    let hash = u64::from_str_radix(doc.get("cell")?.as_str()?, 16).ok()?;
    let id = doc.get("id")?.as_str()?.to_string();
    let result = doc.get("result")?.clone();
    if cell_hash(&id) != hash {
        return None;
    }
    Some(JournalRecord { hash, id, result })
}

/// An open, append-mode journal. `append` is callable from any pool worker:
/// the file handle lives under a mutex and each record is written with one
/// `write_all` + flush + `sync_data`.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Opens the journal for a campaign. With `resume`, an existing file
    /// whose header matches `campaign_hash` is replayed and re-opened in
    /// append mode; its valid record prefix is returned. In every other
    /// case (no file, `resume` false, header/campaign mismatch, torn
    /// header) a fresh journal is created with just the header line.
    pub fn open(
        path: &Path,
        campaign_hash: u64,
        resume: bool,
    ) -> std::io::Result<(Journal, Vec<JournalRecord>)> {
        if resume {
            if let Ok(text) = std::fs::read_to_string(path) {
                if let Some(records) = parse_journal(&text, campaign_hash) {
                    // Rewrite the valid prefix rather than appending after a
                    // possibly-torn trailing line.
                    let mut file = File::create(path)?;
                    let mut doc = header_line(campaign_hash);
                    for r in &records {
                        doc.push_str(&record_line(r.hash, &r.id, &r.result));
                    }
                    file.write_all(doc.as_bytes())?;
                    file.sync_data()?;
                    return Ok((
                        Journal {
                            path: path.to_path_buf(),
                            file: Mutex::new(file),
                        },
                        records,
                    ));
                }
            }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = File::create(path)?;
        file.write_all(header_line(campaign_hash).as_bytes())?;
        file.sync_data()?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            Vec::new(),
        ))
    }

    /// Appends one completed cell, fsync'd before returning. Errors are
    /// returned (not panicked) so a full disk degrades checkpointing, not
    /// the campaign.
    pub fn append(&self, id: &str, result: &Json) -> std::io::Result<()> {
        let line = record_line(cell_hash(id), id, result);
        let mut file = self.file.lock().expect("journal mutex poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()?;
        file.sync_data()
    }

    /// Deletes the journal after a fully-successful campaign; a journal
    /// left on disk always marks an interrupted or degraded run.
    pub fn finalize(self) -> std::io::Result<()> {
        let path = self.path.clone();
        drop(self);
        std::fs::remove_file(path)
    }
}

fn header_line(campaign_hash: u64) -> String {
    let mut doc = Json::obj();
    doc.push("journal", JOURNAL_SCHEMA)
        .push("campaign", format!("{campaign_hash:016x}"));
    format!("{}\n", doc.to_string_compact())
}

fn record_line(hash: u64, id: &str, result: &Json) -> String {
    let mut doc = Json::obj();
    doc.push("cell", format!("{hash:016x}"))
        .push("id", id)
        .push("result", result.clone());
    format!("{}\n", doc.to_string_compact())
}

/// Reopening with `resume` and appending must round-trip; see also the
/// proptest suite in `tests/pool.rs` for truncation/corruption coverage.
#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mirza_runner_journal_{}_{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        let campaign = cell_hash("campaign-spec");
        let (journal, replayed) = Journal::open(&path, campaign, false).unwrap();
        assert!(replayed.is_empty());
        let mut result = Json::obj();
        result.push("successes", 3u64);
        journal.append("a/b/seed1", &result).unwrap();
        journal.append("a/b/seed2", &Json::U64(7)).unwrap();

        let (_journal2, replayed) = Journal::open(&path, campaign, true).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].id, "a/b/seed1");
        assert_eq!(replayed[0].hash, cell_hash("a/b/seed1"));
        assert_eq!(
            replayed[0].result.get("successes").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(replayed[1].result.as_u64(), Some(7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_campaign_hash_invalidates_the_file() {
        let path = tmp("campaign");
        let (journal, _) = Journal::open(&path, 1, false).unwrap();
        journal.append("x", &Json::U64(1)).unwrap();
        let (_j, replayed) = Journal::open(&path, 2, true).unwrap();
        assert!(replayed.is_empty(), "foreign campaign must not replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_record_is_dropped() {
        let campaign = cell_hash("c");
        let mut text = header_line(campaign);
        text.push_str(&record_line(cell_hash("one"), "one", &Json::U64(1)));
        let torn = record_line(cell_hash("two"), "two", &Json::U64(2));
        text.push_str(&torn[..torn.len() / 2]);
        let records = parse_journal(&text, campaign).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, "one");
    }

    #[test]
    fn mismatched_cell_hash_ends_replay() {
        let campaign = cell_hash("c");
        let mut text = header_line(campaign);
        text.push_str(&record_line(cell_hash("one"), "one", &Json::U64(1)));
        // A record whose stored hash disagrees with its id is corruption,
        // not data — replay must stop before it.
        text.push_str(&record_line(0xdead_beef, "two", &Json::U64(2)));
        text.push_str(&record_line(cell_hash("three"), "three", &Json::U64(3)));
        let records = parse_journal(&text, campaign).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn finalize_removes_the_file() {
        let path = tmp("finalize");
        let (journal, _) = Journal::open(&path, 9, false).unwrap();
        journal.append("x", &Json::Null).unwrap();
        journal.finalize().unwrap();
        assert!(!path.exists());
    }
}
