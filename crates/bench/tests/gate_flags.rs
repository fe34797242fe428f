//! Each `repro` target honours a fixed set of artifact and probe flags. A
//! flag it cannot honour must be refused before anything runs: a
//! `--compare` or `--strict-audit` on a target that writes no manifest
//! would let a mistyped CI line pass without checking anything, and any
//! other ignored flag promises a file or a probe that never appears.

use std::process::{Command, Output};

use mirza_telemetry::Json;

fn repro(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn repro")
}

/// `repro <command> --smoke --quiet` (split on spaces) exits 1 and names
/// every flag in `refused` on stderr.
fn assert_refused(dir: &std::path::Path, command: &str, refused: &[&str]) {
    let mut args: Vec<&str> = command.split(' ').collect();
    args.extend(["--smoke", "--quiet"]);
    let out = repro(dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "repro {command}: {stderr}");
    for flag in refused {
        assert!(
            stderr.contains(flag),
            "repro {command} must name the refused {flag}: {stderr}"
        );
    }
}

#[test]
fn gate_flags_are_usage_errors_on_targets_without_a_manifest() {
    let dir = std::env::temp_dir().join(format!("mirza-gate-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for target in ["attack-matrix", "attribution", "report", "replay.trace"] {
        assert_refused(
            &dir,
            &format!("{target} --compare baseline.json"),
            &["--compare"],
        );
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
    assert!(repro(&dir, &["table1", "--quiet", "--strict-audit"])
        .status
        .success());
    let out = repro(&dir, &["table1", "--quiet", "--compare", "baseline.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// dos-sim is a lab target: on the pool, with the auditor, a fault plan
/// and the epoch sampler armed, it records its six cells (each MINT window
/// with and without the attacker core) in the manifest, the CSV and the
/// epoch directory.
#[test]
fn dos_sim_honours_the_lab_flags() {
    let dir = std::env::temp_dir().join(format!("mirza-dos-sim-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let command = "dos-sim --smoke --quiet --jobs 2 --json d.json --csv d.csv --strict-audit \
                   --faults rct-seu --epochs 1000 --epoch-dir E";
    let out = repro(&dir, &command.split_whitespace().collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {command}: {stderr}");
    let manifest = std::fs::read_to_string(dir.join("d.json")).expect("manifest written");
    let doc = Json::parse(&manifest).expect("manifest parses");
    let experiments = doc.get("experiments").unwrap().as_arr().unwrap();
    assert_eq!(experiments.len(), 1);
    assert_eq!(
        experiments[0].get("name").unwrap().as_str(),
        Some("dos-sim")
    );
    let runs = experiments[0].get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 6);
    for run in runs {
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
