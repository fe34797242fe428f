//! `--compare` and `--strict-audit` gate the run manifest a simulation
//! experiment writes. A target that writes none must refuse them, or a
//! mistyped CI line would pass without checking anything.

use std::process::{Command, Output};

fn repro(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn repro")
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
        for gate in [&["--compare", "baseline.json"][..], &["--strict-audit"]] {
            let mut args = vec![target, "--smoke", "--quiet"];
            args.extend_from_slice(gate);
            let out = repro(&dir, &args);
            assert_eq!(
                out.status.code(),
                Some(1),
                "repro {args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused target must not run"
    );

    // A manifest target still takes both flags.
    assert!(repro(&dir, &["table1", "--quiet", "--strict-audit"])
        .status
        .success());
    let out = repro(&dir, &["table1", "--quiet", "--compare", "baseline.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
    let _ = std::fs::remove_dir_all(&dir);
}
