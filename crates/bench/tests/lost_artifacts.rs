//! `repro` must say when an artifact cannot be written, and must not read
//! from an output path that is not a regular file. `/dev/full` stands in
//! for a full disk: it accepts every open and fails every write.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mirza_bench::scale::Scale;
use mirza_sim::report::SimReport;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mirza-lost-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `repro <args>` (split on spaces) in `dir` and returns its exit
/// status, stdout and stderr; kills it and fails the test if it is still
/// running after a minute.
fn repro(dir: &Path, args: &str) -> (ExitStatus, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args.split(' '))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let drain = |mut pipe: Box<dyn std::io::Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("piped stdout")));
    let stderr = drain(Box::new(child.stderr.take().expect("piped stderr")));
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for repro") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro {args} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (status, stdout.join().unwrap(), stderr.join().unwrap())
}

#[cfg(target_os = "linux")]
#[test]
fn attack_matrix_fails_when_its_event_stream_is_lost() {
    let dir = temp_dir("events");
    std::fs::create_dir_all(dir.join("out")).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join("out/attack_events.jsonl")).unwrap();
    let (status, _, stderr) = repro(
        &dir,
        "attack-matrix --smoke --quiet --jobs 1 --csv out/m.csv",
    );
    assert_eq!(status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error: cannot write out/attack_events.jsonl"),
        "stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn lab_warns_when_a_chrome_trace_is_lost() {
    let dir = temp_dir("chrome");
    std::fs::create_dir_all(dir.join("tr")).unwrap();
    std::os::unix::fs::symlink("/dev/full", dir.join("tr/t_baseline-lbm.json")).unwrap();
    let (status, _, stderr) = repro(
        &dir,
        "table4 --smoke --quiet --jobs 1 --trace-chrome tr/t.json",
    );
    assert!(status.success(), "stderr:\n{stderr}");
    assert!(
        stderr.contains("warning: cannot write chrome trace tr/t_baseline-lbm.json"),
        "stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CSV path that is a pipe gets the header once and one row per run,
/// without the lab ever reading from it.
#[cfg(target_os = "linux")]
#[test]
fn csv_to_stdout_has_one_header_and_one_row_per_run() {
    let dir = temp_dir("stdout");
    let (status, stdout, stderr) = repro(&dir, "table4 --smoke --quiet --jobs 1 --csv /dev/stdout");
    assert!(status.success(), "stderr:\n{stderr}");
    let header = SimReport::csv_header();
    let columns = header.split(',').count();
    let csv: Vec<&str> = stdout
        .lines()
        .filter(|l| l.split(',').count() == columns)
        .collect();
    assert_eq!(
        csv.iter().filter(|l| **l == header).count(),
        1,
        "stdout:\n{stdout}"
    );
    let runs = Scale::smoke().workloads.len(); // one baseline run each
    assert_eq!(csv.len(), 1 + runs, "stdout:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that goes away early (`repro --list | head -1`) ends the run
/// quietly with exit 0, instead of a panic on the closed pipe.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
