//! Parallel-equivalence and crash-recovery tests for the supervised
//! runner: outputs must be bit-identical at any `--jobs` count, and a
//! killed campaign must resume from its journal to the byte-identical
//! artifact.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use mirza_bench::attack_matrix::{
    run_matrix_supervised, MatrixRunConfig, MatrixSpec, MitigatorKind, ScheduleKind, StrategyKind,
};
use mirza_bench::attacks_exp;
use mirza_bench::experiments;
use mirza_bench::extensions;
use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_telemetry::Telemetry;

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

/// The contract on the experiment path: lab sweeps at `jobs = 4` produce
/// the byte-identical rendered tables, manifest run records and CSV that
/// `jobs = 1` does. The drivers ask for their cells in different orders:
/// table4 one column, fig11a workload-major across five columns (the
/// baseline is cached by then), and ablation_queue config-major; dos_sim
/// mixes core counts, 7 benign cores with and without an attacker. Every run
/// section is deterministic, so the whole `experiments` array is compared;
/// epochs and the auditor are armed so their sections take part. At
/// both job counts every recorded run must have come from the pool.
#[test]
fn lab_sweeps_are_bit_identical_across_job_counts() {
    type Driver = fn(&mut Lab) -> String;
    let drivers: [(&str, Driver); 4] = [
        ("table4", experiments::table4),
        ("fig11a", experiments::fig11a),
        ("ablation-queue", extensions::ablation_queue),
        ("dos-sim", attacks_exp::dos_sim),
    ];
    let dir = temp_dir("sweeps");
    let mut artifacts = Vec::new();
    for jobs in [1usize, 4] {
        let csv_path = dir.join(format!("runs_j{jobs}.csv"));
        let mut lab = Lab::new(Scale::smoke());
        lab.jobs = jobs;
        lab.verbose = false;
        lab.csv_path = Some(csv_path.clone());
        lab.epoch_ps = Some(1_000_000);
        lab.epoch_dir = dir.join(format!("epochs_j{jobs}"));
        lab.audit = true;
        lab.enable_manifest();
        let tables: Vec<String> = drivers
            .iter()
            .map(|&(name, driver)| {
                lab.begin_experiment(name);
                lab.sweep(driver)
            })
            .collect();
        let manifest = lab.manifest_json().expect("manifest mode is on");
        let experiments_section = manifest
            .get("experiments")
            .expect("manifest lists its experiments");
        let recorded: usize = experiments_section
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("runs").unwrap().as_arr().unwrap().len())
            .sum();
        let pooled = manifest
            .get("runner")
            .and_then(|r| r.get("cells"))
            .and_then(|c| c.as_u64());
        assert_eq!(
            pooled,
            Some(recorded as u64),
            "jobs={jobs}: every recorded run must come from the pool"
        );
        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        artifacts.push((tables, experiments_section.to_string_pretty(), csv));
    }
    let (tables_1, exp_1, csv_1) = &artifacts[0];
    let (tables_4, exp_4, csv_4) = &artifacts[1];
    assert_eq!(tables_1, tables_4, "rendered tables diverged at jobs=4");
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
