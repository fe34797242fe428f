//! Trace replay: `repro PATH.trace` replays a plain-text trace file on
//! every core and prints one summary line, and `spotcheck` takes a trace
//! path as its workload. A malformed trace exits 3 and a missing one
//! exits 5, the codes of `SimError::TraceParse` and `SimError::Io`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A fresh scratch directory named after `test`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mirza-replay-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes 2,000 records: 0 to 12 non-memory instructions before each
/// access, addresses 4160 bytes apart wrapping at 64 MiB, every fifth
/// access a store.
fn write_trace(path: &Path) {
    let text: String = (0..2000u64)
        .map(|i| {
            let op = if i % 5 == 0 { "W" } else { "R" };
            format!("{} 0x{:x} {op}\n", i % 13, (i * 4160) % (64 << 20))
        })
        .collect();
    std::fs::write(path, text).unwrap();
}

#[test]
fn a_replay_prints_its_summary_line() {
    let dir = scratch("summary");
    write_trace(&dir.join("tiny.trace"));
    let out = repro(&dir, &["./tiny.trace", "--smoke", "--quiet"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "replayed ./tiny.trace: 111912 instructions, mpki 142.97, 12866 ACTs\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_trace_exits_3_and_a_missing_one_5() {
    let dir = scratch("errors");
    std::fs::write(dir.join("bad.trace"), "garbage line\n").unwrap();
    for (trace, code, message) in [
        (
            "./bad.trace",
            3,
            "error: trace parse error at ./bad.trace:1",
        ),
        ("./missing.trace", 5, "error: io error: ./missing.trace"),
    ] {
        let out = repro(&dir, &[trace, "--smoke", "--quiet"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{trace}: {stderr}");
        assert!(stderr.contains(message), "{trace}: {stderr}");
        assert!(out.stdout.is_empty(), "{trace}: nothing on stdout");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `spotcheck` is a lab driver, so a trace path is a workload it can run
/// at paper scale: baseline, MIRZA-1K and PRAC.
#[test]
fn spotcheck_replays_a_trace() {
    let dir = scratch("spotcheck");
    write_trace(&dir.join("tiny.trace"));
    let out = Command::new(env!("CARGO_BIN_EXE_spotcheck"))
        .current_dir(&dir)
        .args(["./tiny.trace", "1"])
        .output()
        .expect("spawn spotcheck");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let heading = "paper-scale spot check: ./tiny.trace, 1M instructions/core\n";
    assert!(stdout.starts_with(heading), "{stdout}");
    for row in ["\nMIRZA-1K: ", "\nPRAC: "] {
        assert!(stdout.contains(row), "no {row:?} row:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
