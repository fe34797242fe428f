//! Each `repro` target honours a fixed set of artifact and probe flags. A
//! flag it cannot honour must be refused before anything runs: a
//! `--compare` or `--strict-audit` on a target that writes no manifest
//! would let a mistyped CI line pass without checking anything, and any
//! other ignored flag promises a file or a probe that never appears.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mirza_telemetry::Json;

/// A fresh scratch directory for `test`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mirza-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro <command>`, split on whitespace, in `dir`.
fn repro(dir: &Path, command: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(command.split_whitespace())
        .output()
        .expect("spawn repro")
}

/// `repro <command>` succeeds.
fn assert_runs(dir: &Path, command: &str) {
    let out = repro(dir, command);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {command}: {stderr}");
}

/// `repro <command> --smoke --quiet` exits 1 and names every flag in
/// `refused` on stderr.
fn assert_refused(dir: &Path, command: &str, refused: &[&str]) {
    let out = repro(dir, &format!("{command} --smoke --quiet"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "repro {command}: {stderr}");
    for flag in refused {
        assert!(
            stderr.contains(flag),
            "repro {command} must name the refused {flag}: {stderr}"
        );
    }
}

fn read_manifest(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("manifest written");
    Json::parse(&text).expect("manifest parses")
}

/// The runs of the manifest at `path`, whose one experiment is `name`.
fn runs(path: &Path, name: &str) -> Vec<Json> {
    let doc = read_manifest(path);
    let [experiment] = doc.get("experiments").unwrap().as_arr().unwrap() else {
        panic!("one experiment expected");
    };
    assert_eq!(experiment.get("name").unwrap().as_str(), Some(name));
    experiment.get("runs").unwrap().as_arr().unwrap().to_vec()
}

#[test]
fn gate_flags_are_usage_errors_on_targets_without_a_manifest() {
    let dir = scratch("gate-flags");
    for target in ["attack-matrix", "attribution", "report"] {
        let compare = format!("{target} --compare baseline.json");
        assert_refused(&dir, &compare, &["--compare"]);
        assert_refused(
            &dir,
            &format!("{target} --strict-audit"),
            &["--strict-audit"],
        );
    }

    // A flag that only other targets honour is refused too.
    for (command, refused) in [
        ("table4 --resume", &["--resume"][..]),
        ("table4 --out o.html", &["--out"]),
        ("attack-matrix --csv m.csv --faults rct-seu", &["--faults"]),
        ("attack-matrix --csv m.csv --watchdog 5", &["--watchdog"]),
        (
            "attack-matrix --csv m.csv --trace-chrome t.json --epochs 1000 --epoch-dir E",
            &["--trace-chrome", "--epochs", "--epoch-dir"],
        ),
        (
            "attribution --csv a.csv --strict-audit --faults rct-seu --epochs 1000 --epoch-dir E2",
            &["--strict-audit", "--faults", "--epochs", "--epoch-dir"],
        ),
    ] {
        assert_refused(&dir, command, refused);
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused target must not run"
    );

    // A manifest target still takes both gate flags.
    assert_runs(&dir, "table1 --quiet --strict-audit");
    let out = repro(&dir, "table1 --quiet --compare baseline.json");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace path is one more lab workload: its replay, a one-cell sweep,
/// takes every lab flag and writes a manifest that gates a rerun.
#[test]
fn a_trace_replay_honours_the_lab_flags() {
    let dir = scratch("replay-flags");
    let trace: String = (0..500u64)
        .map(|i| format!("{} 0x{:x} R\n", i % 7, i * 4160))
        .collect();
    std::fs::write(dir.join("t.trace"), trace).unwrap();
    assert_runs(
        &dir,
        "t.trace --smoke --quiet --jobs 2 --json m.json --csv c.csv --strict-audit \
         --epochs 1000 --epoch-dir E",
    );
    let runs = runs(&dir.join("m.json"), "t.trace");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("workload").unwrap().as_str(), Some("t.trace"));
    assert_eq!(runs[0].get("audit_violations").unwrap().as_u64(), Some(0));
    assert!(runs[0].get("epochs").is_some(), "no epochs section");
    let csv = std::fs::read_to_string(dir.join("c.csv")).expect("CSV written");
    assert_eq!(csv.lines().count(), 2, "a header and one row:\n{csv}");
    assert_eq!(std::fs::read_dir(dir.join("E")).unwrap().count(), 1);
    assert_runs(&dir, "t.trace --smoke --quiet --compare m.json");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--seed` holds wherever it stands: a scale flag after it replaces the
/// scale but not the seed.
#[test]
fn the_seed_survives_a_later_scale_flag() {
    let dir = scratch("seed-flag");
    for command in [
        "table1 --seed 7 --smoke --quiet --json s.json",
        "table1 --smoke --seed 7 --quiet --json s.json",
    ] {
        assert_runs(&dir, command);
        let seed = read_manifest(&dir.join("s.json"))
            .get("seed")
            .unwrap()
            .as_u64();
        assert_eq!(seed, Some(7), "repro {command}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Span attribution is an observation: a run with `--trace-chrome` passes
/// the manifest gate against a baseline written without it.
#[test]
fn trace_chrome_passes_the_manifest_gate() {
    let dir = scratch("chrome-gate");
    assert_runs(&dir, "table4 --smoke --quiet --json a.json");
    assert_runs(
        &dir,
        "table4 --smoke --quiet --trace-chrome t/t.json --compare a.json",
    );
    assert_eq!(std::fs::read_dir(dir.join("t")).unwrap().count(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// dos-sim is a lab target: on the pool, with the auditor, a fault plan
/// and the epoch sampler armed, it records its six cells (each MINT window
/// with and without the attacker core) in the manifest, the CSV and the
/// epoch directory.
#[test]
fn dos_sim_honours_the_lab_flags() {
    let dir = scratch("dos-sim-flags");
    assert_runs(
        &dir,
        "dos-sim --smoke --quiet --jobs 2 --json d.json --csv d.csv --strict-audit \
         --faults rct-seu --epochs 1000 --epoch-dir E",
    );
    let runs = runs(&dir.join("d.json"), "dos-sim");
    assert_eq!(runs.len(), 6);
    for run in &runs {
        let workload = run.get("workload").unwrap().as_str().unwrap();
        assert!(
            ["lbm x7", "lbm x7+attack"].contains(&workload),
            "{workload}"
        );
        for section in ["security_verdict", "faults", "epochs"] {
            assert!(run.get(section).is_some(), "{workload}: no {section}");
        }
        assert_eq!(run.get("audit_violations").unwrap().as_u64(), Some(0));
    }
    let csv = std::fs::read_to_string(dir.join("d.csv")).expect("CSV written");
    assert_eq!(csv.lines().count(), 7, "a header and six rows:\n{csv}");
    assert_eq!(std::fs::read_dir(dir.join("E")).unwrap().count(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}
