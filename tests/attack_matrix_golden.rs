//! Golden oracle for the attack rig and its trackers: the standard
//! `--fast` attack matrix (7 strategies x 4 schedules x 4 mitigators x 2
//! seeds, 3 trials per cell) must reproduce the committed
//! `results/attack_matrix.csv` byte for byte. Every attacker ACT of every
//! cell goes through a tracker hook, so a change to MIRZA, PRAC+MOAT,
//! Mithril or TRR bookkeeping — or to the rig's slot loop — that moves a
//! single output bit fails here. The typed cells must also be well formed
//! and cover the roster's floors.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use mirza_bench::attack_matrix::{
    run_matrix_supervised, MatrixCell, MatrixResult, MatrixRunConfig, MatrixSpec,
};
use mirza_bench::scale::Scale;
use mirza_telemetry::Telemetry;

const GOLDEN: &str = include_str!("../results/attack_matrix.csv");

/// The `--fast` matrix, swept once serially and shared by every test here.
fn fast_matrix() -> &'static MatrixResult {
    static MATRIX: OnceLock<MatrixResult> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let outcome = run_matrix_supervised(
            &MatrixSpec::for_scale(Scale::fast()),
            &Telemetry::disabled(),
            &MatrixRunConfig {
                jobs: 1,
                journal: None,
                resume: false,
            },
        );
        assert!(outcome.complete(), "failed cells: {:?}", outcome.failures);
        outcome.result
    })
}

#[test]
fn fast_matrix_matches_committed_csv() {
    let csv = fast_matrix().to_csv();
    if let Some((line, (want, got))) = GOLDEN
        .lines()
        .zip(csv.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "results/attack_matrix.csv line {} differs\n  committed: {want}\n  computed:  {got}",
            line + 1
        );
    }
    assert_eq!(
        GOLDEN.lines().count(),
        csv.lines().count(),
        "row count differs from results/attack_matrix.csv"
    );
    assert_eq!(csv, GOLDEN, "trailing bytes differ");
}

#[test]
fn every_cell_is_well_formed() {
    for c in &fast_matrix().cells {
        let id = format!("{}/{}/{}/{}", c.strategy, c.schedule, c.mitigator, c.seed);
        assert!(c.trials > 0, "{id}: no trials");
        assert!(c.successes <= c.trials, "{id}: {c:?}");
        assert!(c.bound > 0, "{id}: zero bound");
        assert!(
            c.successes == 0 || c.max_row_acts >= c.bound,
            "{id}: a success below the bound: {c:?}"
        );
    }
}

#[test]
fn the_roster_meets_its_coverage_floors() {
    let cells = &fast_matrix().cells;
    assert!(cells.len() >= 48, "only {} cells", cells.len());
    let distinct =
        |axis: fn(&MatrixCell) -> String| -> BTreeSet<String> { cells.iter().map(axis).collect() };
    for (name, values, floor) in [
        ("strategies", distinct(|c| c.strategy.clone()), 4),
        ("schedules", distinct(|c| c.schedule.clone()), 3),
        ("mitigators", distinct(|c| c.mitigator.to_string()), 2),
        ("seeds", distinct(|c| c.seed.to_string()), 2),
    ] {
        assert!(values.len() >= floor, "{name}: {values:?}, need >= {floor}");
    }
}
