//! Parallel-equivalence and crash-recovery tests for the supervised
//! runner: outputs at any `--jobs` count must be bit-identical to the
//! serial path, and a killed campaign must resume from its journal to the
//! byte-identical artifact.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use mirza_bench::attack_matrix::{
    run_matrix_supervised, MatrixRunConfig, MatrixSpec, MitigatorKind, ScheduleKind, StrategyKind,
};
use mirza_bench::experiments;
use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_telemetry::{Json, Telemetry};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mirza-parallel-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn small_spec(seed: u64) -> MatrixSpec {
    let mut scale = Scale::smoke();
    scale.seed = seed;
    let mut spec = MatrixSpec::for_scale(scale);
    spec.strategies = vec![StrategyKind::DoubleSided, StrategyKind::DecoyFlood];
    spec.schedules = vec![ScheduleKind::Burst, ScheduleKind::Paced(2)];
    spec.mitigators = vec![MitigatorKind::Mirza1000, MitigatorKind::Trr];
    spec.trials = 2;
    spec.walks = 1;
    spec
}

/// Flattens the deterministic manifest sections exactly as
/// `repro --compare` gates them: every run's `config` and `report`
/// byte-for-byte. Wall-clock sections (`host_profile`) are legitimately
/// nondeterministic and excluded, same as the gate.
fn gated_sections(manifest: &Json) -> String {
    let mut out = String::new();
    for exp in manifest.get("experiments").unwrap().as_arr().unwrap() {
        let name = exp.get("name").unwrap().as_str().unwrap();
        for run in exp.get("runs").unwrap().as_arr().unwrap() {
            out.push_str(name);
            out.push('/');
            out.push_str(run.get("label").unwrap().as_str().unwrap());
            out.push('/');
            out.push_str(run.get("workload").unwrap().as_str().unwrap());
            out.push('\n');
            out.push_str(&run.get("config").unwrap().to_string_pretty());
            out.push_str(&run.get("report").unwrap().to_string_pretty());
            out.push('\n');
        }
    }
    out
}

/// The tentpole contract on the experiment path: a prewarmed (parallel)
/// table4 produces the byte-identical CSV, rendered table, and gated
/// manifest sections the serial path does.
#[test]
fn table4_smoke_is_bit_identical_across_job_counts() {
    let dir = temp_dir("table4");
    let mut artifacts = Vec::new();
    for jobs in [1usize, 4] {
        let csv_path = dir.join(format!("table4_j{jobs}.csv"));
        let mut lab = Lab::new(Scale::smoke());
        lab.jobs = jobs;
        lab.verbose = false;
        lab.csv_path = Some(csv_path.clone());
        lab.enable_manifest();
        lab.begin_experiment("table4");
        lab.prewarm(&experiments::planned_runs("table4", &lab));
        let table = experiments::table4(&mut lab);
        let manifest = lab.manifest_json().expect("manifest mode is on");
        let experiments_section = gated_sections(&manifest);
        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        artifacts.push((jobs, table, experiments_section, csv));
    }
    let (_, table_1, exp_1, csv_1) = &artifacts[0];
    let (_, table_4, exp_4, csv_4) = &artifacts[1];
    assert_eq!(table_1, table_4, "rendered table diverged at jobs=4");
    assert_eq!(exp_1, exp_4, "manifest experiments section diverged");
    assert_eq!(csv_1, csv_4, "CSV artifact diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The matrix path: CSV and JSON artifacts are identical at jobs 1/2/8.
#[test]
fn matrix_outputs_are_bit_identical_across_job_counts() {
    let spec = small_spec(7);
    let reference = run_matrix_supervised(
        &spec,
        &Telemetry::disabled(),
        &MatrixRunConfig {
            jobs: 1,
            journal: None,
            resume: false,
        },
    );
    assert!(reference.complete());
    let ref_csv = reference.result.to_csv();
    let ref_json = reference.result.to_json().to_string_pretty();
    for jobs in [2usize, 8] {
        let outcome = run_matrix_supervised(
            &spec,
            &Telemetry::disabled(),
            &MatrixRunConfig {
                jobs,
                journal: None,
                resume: false,
            },
        );
        assert!(outcome.complete(), "jobs={jobs} campaign degraded");
        assert_eq!(
            ref_csv,
            outcome.result.to_csv(),
            "CSV diverged, jobs={jobs}"
        );
        assert_eq!(
            ref_json,
            outcome.result.to_json().to_string_pretty(),
            "JSON diverged, jobs={jobs}"
        );
    }
}

/// A journal that is not this campaign's (foreign header, or plain
/// garbage) must be ignored on `--resume`, not misparsed: the run
/// recomputes every cell and still matches the reference.
#[test]
fn resume_ignores_foreign_and_corrupt_journals() {
    let dir = temp_dir("journal");
    let spec = small_spec(7);
    let reference = run_matrix_supervised(
        &spec,
        &Telemetry::disabled(),
        &MatrixRunConfig {
            jobs: 2,
            journal: None,
            resume: false,
        },
    )
    .result
    .to_csv();
    for (tag, contents) in [
        ("garbage", "not json at all\n{\"cell\":\"zz\"}\n"),
        (
            "foreign",
            "{\"journal\":\"mirza-runner-journal-v1\",\"campaign\":\"00000000deadbeef\"}\n\
             {\"cell\":\"0011223344556677\",\"id\":\"x\",\"result\":{}}\n",
        ),
    ] {
        let journal = dir.join(format!("{tag}.journal.jsonl"));
        std::fs::write(&journal, contents).unwrap();
        let outcome = run_matrix_supervised(
            &spec,
            &Telemetry::disabled(),
            &MatrixRunConfig {
                jobs: 2,
                journal: Some(journal.clone()),
                resume: true,
            },
        );
        assert!(outcome.complete(), "{tag}: campaign degraded");
        assert_eq!(
            outcome.resumed, 0,
            "{tag}: journal must contribute zero cells"
        );
        assert_eq!(reference, outcome.result.to_csv(), "{tag}: CSV diverged");
        assert!(
            !journal.exists(),
            "{tag}: journal must be finalized after a clean completion"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A valid journal prefix from an interrupted run seeds `--resume`:
/// completed cells replay from disk and the final artifact is
/// byte-identical to an uninterrupted campaign. The "interruption" is a
/// mid-run snapshot of the live journal taken from a second thread —
/// every record is fsync'd before its cell counts as complete, so any
/// snapshot is a valid prefix (a torn trailing line is dropped by the
/// parser, never misparsed).
#[test]
fn matrix_resumes_from_a_prior_journal_bit_identically() {
    let dir = temp_dir("resume-lib");
    let spec = small_spec(7);
    let reference = run_matrix_supervised(
        &spec,
        &Telemetry::disabled(),
        &MatrixRunConfig {
            jobs: 1,
            journal: None,
            resume: false,
        },
    )
    .result
    .to_csv();

    let journal = dir.join("m.journal.jsonl");
    let snapshot = std::thread::scope(|s| {
        let journal_ref = &journal;
        let watcher = s.spawn(move || {
            // Poll the live journal and keep the last prefix seen before
            // the run completes (completion finalizes = deletes the file).
            let mut best = Vec::new();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while std::time::Instant::now() < deadline {
                if let Ok(bytes) = std::fs::read(journal_ref) {
                    if bytes.len() > best.len() {
                        best = bytes;
                    }
                    // Stop early once a real prefix exists: header + some
                    // records but (statistically) not the whole campaign.
                    if best.iter().filter(|&&b| b == b'\n').count() >= 4 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            best
        });
        let full = run_matrix_supervised(
            &spec,
            &Telemetry::disabled(),
            &MatrixRunConfig {
                jobs: 1,
                journal: Some(journal.clone()),
                resume: false,
            },
        );
        assert!(full.complete());
        assert!(!journal.exists(), "clean completion finalizes the journal");
        watcher.join().expect("watcher thread")
    });
    assert!(
        snapshot.iter().filter(|&&b| b == b'\n').count() >= 2,
        "snapshot caught no journal records; campaign too fast to observe"
    );

    // "Crash recovery": restore the prefix and resume from it.
    std::fs::write(&journal, &snapshot).unwrap();
    let resumed = run_matrix_supervised(
        &spec,
        &Telemetry::disabled(),
        &MatrixRunConfig {
            jobs: 2,
            journal: Some(journal.clone()),
            resume: true,
        },
    );
    assert!(resumed.complete());
    assert!(
        resumed.resumed > 0,
        "prefix journal must contribute completed cells"
    );
    assert_eq!(reference, resumed.result.to_csv(), "resumed CSV diverged");
    assert!(!journal.exists(), "clean resume finalizes the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Process-level crash recovery: SIGKILL a parallel matrix run mid-
/// campaign, rerun with `--resume`, and the final CSV and event stream
/// are byte-identical to an uninterrupted run. Uses the compiled `repro`
/// binary, exactly as CI's kill/resume smoke job does.
#[test]
fn cli_kill_resume_reproduces_uninterrupted_csv() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let dir = temp_dir("resume-cli");
    let ref_dir = dir.join("ref");
    let kill_dir = dir.join("kill");
    std::fs::create_dir_all(&ref_dir).unwrap();
    std::fs::create_dir_all(&kill_dir).unwrap();
    let run = |csv: &std::path::Path, resume: bool| {
        let mut cmd = Command::new(repro);
        cmd.args(["attack-matrix", "--fast", "--quiet", "--jobs", "2", "--csv"])
            .arg(csv)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        cmd
    };
    let ref_csv = ref_dir.join("m.csv");
    assert!(run(&ref_csv, false).status().unwrap().success());

    let kill_csv = kill_dir.join("m.csv");
    let journal = kill_dir.join("m.journal.jsonl");
    let mut interrupted = false;
    for _attempt in 0..3 {
        let mut child = run(&kill_csv, false).spawn().unwrap();
        // Kill as soon as a few cells are journaled but before the CSV
        // lands; each record is fsync'd so the prefix survives the kill.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if kill_csv.exists() || std::time::Instant::now() > deadline {
                break;
            }
            let lines = std::fs::File::open(&journal)
                .map(|mut f| {
                    let mut s = String::new();
                    let _ = f.read_to_string(&mut s);
                    s.lines().count()
                })
                .unwrap_or(0);
            if lines >= 4 {
                let _ = child.kill();
                interrupted = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _ = child.wait();
        if interrupted {
            break;
        }
        let _ = std::fs::remove_file(&kill_csv);
        let _ = std::fs::remove_file(&journal);
    }
    assert!(
        interrupted,
        "never caught the campaign mid-journal; widen the matrix spec"
    );
    assert!(journal.exists(), "kill must leave the journal behind");
    assert!(!kill_csv.exists(), "kill must precede the CSV write");

    assert!(run(&kill_csv, true).status().unwrap().success());
    let reference = std::fs::read_to_string(&ref_csv).unwrap();
    let resumed = std::fs::read_to_string(&kill_csv).unwrap();
    assert_eq!(reference, resumed, "resumed CSV diverged");
    let ref_events = std::fs::read_to_string(ref_dir.join("attack_events.jsonl")).unwrap();
    let res_events = std::fs::read_to_string(kill_dir.join("attack_events.jsonl")).unwrap();
    assert_eq!(ref_events, res_events, "resumed event stream diverged");
    assert!(!journal.exists(), "clean resume finalizes the journal");
    let _ = std::fs::remove_dir_all(&dir);
}
