//! Golden oracle for the attack rig and its trackers: the standard
//! `--fast` attack matrix (7 strategies x 4 schedules x 4 mitigators x 2
//! seeds, 3 trials per cell) must reproduce the committed
//! `results/attack_matrix.csv` byte for byte. Every attacker ACT of every
//! cell goes through a tracker hook, so a change to MIRZA, PRAC+MOAT,
//! Mithril or TRR bookkeeping — or to the rig's slot loop — that moves a
//! single output bit fails here.

use mirza_bench::attack_matrix::{run_matrix_supervised, MatrixRunConfig, MatrixSpec};
use mirza_bench::scale::Scale;
use mirza_telemetry::Telemetry;

const GOLDEN: &str = include_str!("../results/attack_matrix.csv");

#[test]
fn fast_matrix_matches_committed_csv() {
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
    let csv = outcome.result.to_csv();
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
