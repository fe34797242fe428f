//! Instrument purity: observing a run never changes what it computes.
//!
//! For each of six mitigators, every one of the 32 subsets of the
//! simulator's instruments — event sink, command trace, epoch sampler,
//! span collector and protocol auditor (with its row census) — must produce
//! `SimReport` JSON equal to the run with telemetry disabled. The one
//! section an instrument may add is `attribution`, present exactly when the
//! span collector is armed.

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::address::BankId;
use mirza_dram::time::Ps;
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::report::SimReport;
use mirza_sim::runner::{attack_stream, try_build_traces};
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{
    ChromeTraceSink, EpochSampler, EventSink, SharedBuf, SpanCollector, Telemetry, TraceSink,
};
use mirza_workloads::attacks::RowPattern;

const EVENTS: u32 = 1 << 0;
const TRACE: u32 = 1 << 1;
const EPOCHS: u32 = 1 << 2;
const SPANS: u32 = 1 << 3;
const AUDIT: u32 = 1 << 4;
const SUBSETS: u32 = 1 << 5;
const INSTRUCTIONS: u64 = 60_000;

fn mitigators() -> [(&'static str, MitigationConfig); 6] {
    // A low filter threshold lets MIRZA's queue fill, and so raise ALERTs,
    // within a run this short.
    let cfg = MirzaConfig {
        fth: 16,
        ..MirzaConfig::trhd_1000()
    };
    let mirza = MitigationConfig::Mirza {
        cfg,
        policy: ResetPolicy::Safe,
    };
    let mithril = MitigationConfig::Mithril {
        entries: 64,
        refs_per_mit: 1,
    };
    [
        ("MIRZA-1K", mirza),
        ("PRAC-1K", MitigationConfig::PracAbo { trhd: 1000 }),
        ("MINT+RFM", MitigationConfig::MintRfm { bat: 48 }),
        ("Mithril", mithril),
        ("TRR", MitigationConfig::Trr),
        ("none", MitigationConfig::None),
    ]
}

/// One synthetic lbm core next to an attacker core hammering two rows of
/// bank 0, so trackers see repeated ACTs.
fn run(mitigation: MitigationConfig, subset: Option<u32>) -> SimReport {
    let armed = |bit: u32| subset.is_some_and(|s| s & bit != 0);
    let mut cfg = SimConfig::new(mitigation, INSTRUCTIONS);
    // The smoke scale's shrunken banks and LLC keep 198 runs cheap.
    cfg.geometry.rows_per_bank /= 64;
    cfg.t_refw = Some(Ps::from_ms(32) / 64);
    cfg.llc_sets = 256;
    cfg.audit = armed(AUDIT);
    let benign = try_build_traces("lbm", 1, cfg.seed, 64).unwrap().remove(0);
    let hammer = RowPattern::circular(vec![1000, 1002]);
    let setups = vec![
        CoreSetup::benign(benign, cfg.instructions_per_core),
        CoreSetup::attacker(attack_stream(&cfg, BankId::new(0, 0, 0), &hammer)),
    ];
    let mut telemetry = match subset {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    if armed(EVENTS) {
        telemetry = telemetry.with_events(EventSink::new(SharedBuf::new().writer()));
    }
    if armed(TRACE) {
        telemetry = telemetry.with_trace(TraceSink::new(SharedBuf::new().writer()));
    }
    if armed(EPOCHS) {
        telemetry = telemetry.with_epochs(EpochSampler::new(1_000_000));
    }
    if armed(SPANS) {
        let chrome = ChromeTraceSink::new(SharedBuf::new().writer());
        telemetry = telemetry.with_spans(SpanCollector::new().with_chrome(chrome));
    }
    let mut sys = System::new(cfg, "purity-it", setups);
    sys.set_telemetry(telemetry);
    sys.run()
}

#[test]
fn every_instrument_subset_leaves_the_report_unchanged() {
    let (mut alerts, mut rfms) = (0, 0);
    for (name, mitigation) in mitigators() {
        let plain = run(mitigation, None);
        assert!(plain.attribution.is_none());
        alerts += plain.device.alerts;
        rfms += plain.device.rfms_proactive;
        let expected = plain.to_json().to_string_pretty();
        for subset in 0..SUBSETS {
            let mut observed = run(mitigation, Some(subset));
            assert_eq!(
                observed.attribution.take().is_some(),
                subset & SPANS != 0,
                "{name}, subset {subset:#07b}: attribution present iff spans are armed"
            );
            assert!(
                observed.to_json().to_string_pretty() == expected,
                "{name}: instrument subset {subset:#07b} changed the report"
            );
        }
    }
    assert!(
        alerts > 0 && rfms > 0,
        "the workload must reach the ALERT and RFM paths"
    );
}
