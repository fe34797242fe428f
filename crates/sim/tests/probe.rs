//! mirza-probe integration: the epoch sampler is deterministic across
//! identically-seeded runs, records core and device series and is pure
//! observability (attaching it cannot change the `SimReport`); a clean
//! simulated run stays clean under the independent protocol auditor, which
//! is pure observability too. `purity.rs` repeats both purity checks under
//! every combination of instruments.

use mirza_frontend::trace::{TraceOp, VecStream};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::report::SimReport;
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{EpochSampler, Telemetry};

fn loads(n: usize) -> Box<VecStream> {
    Box::new(VecStream::once(
        (0..n)
            .map(|i| TraceOp {
                nonmem: 9,
                vaddr: (i as u64) * 64 * 97,
                is_store: i % 7 == 0,
            })
            .collect(),
    ))
}

fn run_with(cfg: SimConfig, telemetry: Telemetry) -> SimReport {
    let instr = cfg.instructions_per_core;
    let setups = (0..2)
        .map(|_| CoreSetup::benign(loads(2_000), instr))
        .collect();
    let mut sys = System::new(cfg, "probe-it", setups);
    sys.set_telemetry(telemetry);
    sys.run()
}

fn epoch_run(instr: u64) -> (String, SimReport) {
    let cfg = SimConfig::new(MitigationConfig::None, instr);
    let telemetry = Telemetry::enabled().with_epochs(EpochSampler::new(1_000_000));
    let report = run_with(cfg, telemetry.clone());
    let jsonl = telemetry.epochs_jsonl().expect("sampler attached");
    (jsonl, report)
}

#[test]
fn identical_seeded_runs_emit_byte_identical_epoch_jsonl() {
    let (a, ra) = epoch_run(20_000);
    let (b, rb) = epoch_run(20_000);
    assert!(!a.is_empty(), "epoch stream must not be empty");
    assert!(a.lines().count() >= 2, "run spans multiple epochs");
    assert_eq!(a, b, "epoch JSONL must be reproducible byte-for-byte");
    assert_eq!(
        ra.to_json().to_string_pretty(),
        rb.to_json().to_string_pretty()
    );
}

/// The epoch sampler alone leaves the report unchanged. (The host profiler
/// this test once attached beside it is deleted.)
#[test]
fn sampler_and_profiler_do_not_perturb_the_report() {
    let cfg = SimConfig::new(MitigationConfig::None, 20_000);
    let probed = Telemetry::enabled().with_epochs(EpochSampler::new(1_000_000));
    let with = run_with(cfg.clone(), probed);
    let without = run_with(cfg, Telemetry::disabled());
    assert_eq!(
        with.to_json().to_string_pretty(),
        without.to_json().to_string_pretty(),
        "probe must be pure observability"
    );
}

#[test]
fn epoch_stream_carries_core_and_device_series() {
    let (jsonl, report) = epoch_run(20_000);
    assert!(report.instructions > 0);
    // Per-core and aggregate instruction counters appear as epoch deltas.
    assert!(jsonl.contains("\"core00.instructions\""));
    assert!(jsonl.contains("\"sim.instructions\""));
    // MC counters registered at their call sites show up too.
    assert!(jsonl.contains("\"mc.reads\""));
    // Gauges sampled each quantum.
    assert!(jsonl.contains("\"mc.queue_depth\""));
}

#[test]
fn clean_mirza_run_has_zero_audit_violations() {
    let mut cfg = SimConfig::new(
        MitigationConfig::Mirza {
            cfg: mirza_core::config::MirzaConfig::trhd_1000(),
            policy: mirza_core::rct::ResetPolicy::Safe,
        },
        20_000,
    );
    cfg.audit = true;
    let telemetry = Telemetry::enabled();
    let report = run_with(cfg, telemetry.clone());
    assert!(report.device.acts > 0, "workload must reach DRAM");
    assert_eq!(
        telemetry.counter("audit.violations"),
        0,
        "device-legal command stream must satisfy the independent auditor"
    );
}

#[test]
fn audited_run_matches_unaudited_report() {
    let mut audited_cfg = SimConfig::new(MitigationConfig::None, 20_000);
    audited_cfg.audit = true;
    let audited = run_with(audited_cfg, Telemetry::enabled());
    let plain = run_with(
        SimConfig::new(MitigationConfig::None, 20_000),
        Telemetry::disabled(),
    );
    assert_eq!(
        audited.to_json().to_string_pretty(),
        plain.to_json().to_string_pretty(),
        "the auditor observes but never alters scheduling"
    );
}
