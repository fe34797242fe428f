//! Self-checks of the benchmark's instruments: the pass-through wrappers
//! leave every output bit-identical, the replays agree with each other and
//! with the campaign, and the traced layer split adds up to the traced
//! total within the stated tolerance.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use mirza_bench::attack_matrix::{
    run_matrix_supervised, MatrixRunConfig, MatrixSpec, MitigatorKind, ScheduleKind, StrategyKind,
};
use mirza_bench::scale::Scale;
use mirza_benchsuite::layers::{self, Sampler};
use mirza_benchsuite::suite::{
    replay_matrix, run_sim_cell, trace_matrix, trace_sims, Checker, SimCell, LAYER_SUM_TOLERANCE,
};
use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::time::Ps;
use mirza_sim::config::MitigationConfig;
use mirza_telemetry::Telemetry;
use mirza_trackers::mint_rfm::MintRfm;

/// Smoke-scale cells: one per mitigator the benchmark runs, on a
/// memory-bound workload so every layer sees traffic.
fn cells() -> Vec<SimCell> {
    let scale = Scale::smoke();
    [
        MitigationConfig::None,
        MitigationConfig::Mirza {
            cfg: scale.mirza_config(MirzaConfig::trhd_1000()),
            policy: ResetPolicy::Safe,
        },
        MitigationConfig::PracAbo { trhd: 1000 },
        MitigationConfig::MintRfm {
            bat: MintRfm::bat_for_trhd(1000),
        },
    ]
    .into_iter()
    .map(|m| SimCell {
        id: format!("{}/lbm", m.label()),
        workload: "lbm",
        cfg: scale.sim_config(m),
    })
    .collect()
}

fn tiny_spec() -> MatrixSpec {
    let mut spec = MatrixSpec::for_scale(Scale::smoke());
    spec.strategies = vec![StrategyKind::DoubleSided, StrategyKind::DecoyFlood];
    spec.schedules = vec![ScheduleKind::Burst, ScheduleKind::Adaptive(64)];
    spec.mitigators = vec![MitigatorKind::Mirza1000, MitigatorKind::PracMoat];
    spec.seeds = vec![7, 8];
    spec.trials = 2;
    spec.walks = 1;
    spec
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

#[test]
fn stream_wrapper_leaves_reports_bit_identical() {
    for cell in cells() {
        let (_, plain) = run_sim_cell(&cell, None);
        let tally = Rc::new(RefCell::new(Sampler::default()));
        let (_, wrapped) = run_sim_cell(&cell, Some(&tally));
        let plain = plain.expect("plain run").to_json().to_string_compact();
        let wrapped = wrapped.expect("wrapped run").to_json().to_string_compact();
        assert_eq!(plain, wrapped, "{}", cell.id);
        assert!(
            tally.borrow().calls > 0,
            "{}: no next_op calls seen",
            cell.id
        );
    }
}

#[test]
fn dram_replay_reproduces_memctrl_device_stats() {
    let floor = layers::clock_floor_ns();
    for cell in cells() {
        let (_, report) = run_sim_cell(&cell, None);
        let report = report.expect("cell runs");
        let latency = Ps::from_ps(report.mc.read_latency_ps / report.mc.reads_done.max(1));
        let fe = layers::frontend(&cell.cfg, cell.workload, latency, floor).expect("frontend");
        assert_eq!(fe.instructions, report.instructions, "{}", cell.id);
        let mc = layers::memctrl(&cell.cfg, &fe.requests);
        assert!(
            mc.deterministic,
            "{}: memctrl replay not repeatable",
            cell.id
        );
        // The dram replay's mitigators are wrapped; the memctrl replay's
        // are not, so equality also shows the wrapper is pure.
        let dr = layers::dram(&cell.cfg, &mc.commands, floor);
        assert_eq!(dr.device, mc.device, "{}", cell.id);
        assert!(dr.commands > 0, "{}", cell.id);
    }
}

#[test]
fn attack_replay_matches_the_campaign() {
    let spec = tiny_spec();
    let cfg = MatrixRunConfig {
        jobs: 2,
        journal: Some(scratch_dir("attack_replay").join("m.journal.jsonl")),
        resume: false,
    };
    let campaign = run_matrix_supervised(&spec, &Telemetry::disabled(), &cfg);
    assert!(campaign.complete());
    // The replay's mitigators are wrapped; the campaign's are not.
    let replay = replay_matrix(&spec, layers::clock_floor_ns());
    assert_eq!(replay.cells, campaign.result.cells);
    let acts: u64 = replay.cells.iter().map(|c| c.total_acts).sum();
    assert_eq!(replay.observed, acts, "the tracker saw every attacker ACT");
    assert!(replay.tracker_s > 0.0 && replay.tracker_s < replay.cell_s);
}

#[test]
fn layer_sum_frac_is_within_tolerance() {
    let dir = scratch_dir("layer_sum");
    let floor = layers::clock_floor_ns();
    let mut checker = Checker::new("sims", None);
    let sims = trace_sims(&cells(), &mut checker, floor, &dir);
    assert_eq!(checker.failed, 0);
    let frac = sims.layer_sum_frac();
    assert!(
        (frac - 1.0).abs() <= LAYER_SUM_TOLERANCE,
        "sims: layer_sum_frac {frac}"
    );
    let mut checker = Checker::new("matrix", None);
    let matrix = trace_matrix(&tiny_spec(), &mut checker, floor, &dir);
    assert_eq!(checker.failed, 0);
    let frac = matrix.layer_sum_frac();
    assert!(
        (frac - 1.0).abs() <= LAYER_SUM_TOLERANCE,
        "matrix: layer_sum_frac {frac}"
    );
}
