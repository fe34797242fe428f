//! Each `repro` target honours a fixed set of artifact and probe flags. A
//! flag it cannot honour must be refused before anything runs: a
//! `--compare` or `--strict-audit` on a target that writes no manifest
//! would let a mistyped CI line pass without checking anything, and any
//! other ignored flag promises a file or a probe that never appears.

use std::process::{Command, Output};

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
    for target in [
        "attack-matrix",
        "attribution",
        "report",
        "watchdog-demo",
        "replay.trace",
    ] {
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

    // dos-sim runs outside the lab and honours no artifact or probe flag.
    for flags in [
        "--csv d.csv",
        "--json dos.json",
        "--compare baseline.json",
        "--audit",
        "--strict-audit",
        "--faults rct-seu",
        "--trace-chrome trace.json",
        "--epochs 1000",
        "--epoch-dir epochs",
    ] {
        let flag = flags.split(' ').next().unwrap();
        assert_refused(&dir, &format!("dos-sim {flags}"), &[flag]);
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
            "attribution --csv a.csv --audit --faults rct-seu --epochs 1000 --epoch-dir E2",
            &["--audit", "--faults", "--epochs", "--epoch-dir"],
        ),
    ] {
        assert_refused(&dir, command, refused);
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused target must not run"
    );

    assert!(repro(&dir, &["dos-sim", "--smoke", "--quiet"])
        .status
        .success());
    // A manifest target still takes both gate flags.
    assert!(repro(&dir, &["table1", "--quiet", "--strict-audit"])
        .status
        .success());
    let out = repro(&dir, &["table1", "--quiet", "--compare", "baseline.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
    let _ = std::fs::remove_dir_all(&dir);
}
