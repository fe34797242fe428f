//! `repro` must say when an artifact cannot be written, must not read from
//! an output path that is not a regular file, and must not lose the
//! manifest of a run that a watchdog abort or a panicking cell ends.
//! `/dev/full` stands in for a full disk: it accepts every open and fails
//! every write.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_sim::config::{Attacker, MitigationConfig};
use mirza_sim::report::SimReport;
use mirza_telemetry::Json;

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

/// A run that outlasts `--watchdog` ends the process with the watchdog's
/// exit code, and the runs recorded so far still reach the manifest: one
/// paper-scale Table-IV cell far outlasts a one-second budget. A failed
/// simulation is not re-run, so at either job count one abort is printed
/// and the manifest names the first cell of the plan.
#[test]
fn a_watchdog_abort_exits_6_and_keeps_the_partial_manifest() {
    for jobs in [1, 2] {
        let dir = temp_dir(&format!("watchdog-j{jobs}"));
        let (status, _, stderr) = repro(
            &dir,
            &format!("table4 --full --quiet --jobs {jobs} --watchdog 1 --json m.json"),
        );
        assert_eq!(status.code(), Some(6), "jobs {jobs}, stderr:\n{stderr}");
        let aborts = stderr.lines().filter(|l| l.contains("watchdog abort"));
        assert_eq!(aborts.count(), 1, "jobs {jobs}, stderr:\n{stderr}");
        assert!(
            stderr.contains("wrote partial manifest to m.json"),
            "jobs {jobs}, stderr:\n{stderr}"
        );
        let manifest =
            std::fs::read_to_string(dir.join("m.json")).expect("partial manifest written");
        let doc = Json::parse(&manifest).expect("partial manifest parses");
        assert!(doc.get("experiments").is_some(), "{manifest}");
        assert_eq!(failed_cells(&doc), ["baseline/bc"], "jobs {jobs}");
        // Each worker started one cell before the first failed; the
        // rest were skipped, and only the failed cell ended the run.
        let runner = doc.get("runner").expect("runner section");
        let count = |key| runner.get(key).and_then(Json::as_u64);
        assert_eq!(count("cells"), Some(jobs), "jobs {jobs}: {manifest}");
        assert_eq!(count("failures"), Some(1), "jobs {jobs}: {manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cells a partial manifest lists under `failures`.
fn failed_cells(doc: &Json) -> Vec<&str> {
    let failures = doc.get("failures").and_then(Json::as_arr);
    let failures = failures.expect("manifest has a failures section");
    failures
        .iter()
        .map(|f| f.get("cell").and_then(Json::as_str).expect("cell id"))
        .collect()
}

/// A lab cell that panics ends the process with the cell-panic exit code
/// and leaves the partial manifest. No `repro` flag makes a cell panic, so
/// the sweep runs in a child process, one of the ignored tests below: it
/// asks for `lbm`, then for `bc` on zero benign cores beside an attacker,
/// which trips the simulator's `benign > 0` assert inside the cell.
#[test]
fn a_panicking_lab_cell_exits_7_and_keeps_the_partial_manifest() {
    for child in ["panicking_sweep_one_job", "panicking_sweep_two_jobs"] {
        let dir = temp_dir(child);
        let out = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", child, "--ignored"])
            .env(PANIC_CHILD, "1")
            .current_dir(&dir)
            .output()
            .expect("run the child test");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(7), "{child}, stderr:\n{stderr}");
        let manifest =
            std::fs::read_to_string(dir.join("m.json")).expect("partial manifest written");
        let doc = Json::parse(&manifest).expect("partial manifest parses");
        let runs = doc.get("experiments").and_then(Json::as_arr).unwrap()[0]
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap();
        let workloads: Vec<_> = runs
            .iter()
            .map(|r| r.get("workload").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, [Some("lbm")], "{child}");
        assert_eq!(failed_cells(&doc), ["baseline/bc x0+attack"], "{child}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Set by the panic test on its child, so that a run of the ignored tests
/// alongside the others does not end the test process.
const PANIC_CHILD: &str = "MIRZA_LAB_PANIC_CHILD";

/// The child of the panic test: it ends its process with exit 7.
fn panicking_sweep(jobs: usize) {
    if std::env::var_os(PANIC_CHILD).is_none() {
        return;
    }
    let mut lab = Lab::new(Scale::smoke());
    lab.jobs = jobs;
    lab.enable_manifest();
    lab.manifest_path = Some(PathBuf::from("m.json"));
    lab.begin_experiment("panic");
    lab.sweep(|lab| {
        lab.baseline("lbm");
        let attacker = Attacker::figure12(&lab.scale().geometry());
        lab.run_on(MitigationConfig::None, "bc", 0, Some(attacker));
    });
    unreachable!("the panicking cell ends the process");
}

#[test]
#[ignore = "child process of a_panicking_lab_cell_exits_7_and_keeps_the_partial_manifest"]
fn panicking_sweep_one_job() {
    panicking_sweep(1);
}

#[test]
#[ignore = "child process of a_panicking_lab_cell_exits_7_and_keeps_the_partial_manifest"]
fn panicking_sweep_two_jobs() {
    panicking_sweep(2);
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
