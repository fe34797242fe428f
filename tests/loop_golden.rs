//! Golden oracle for the simulation loop: every deterministic observable
//! of a fully instrumented run — report JSON, telemetry registry, epoch
//! JSONL and fault summary — is pinned as a committed digest, under six
//! mitigators, on benign and on attacked core sets, with the protocol
//! auditor, row census, span layer, 1 µs epochs and `rct-seu` faults all
//! armed. Each case also checks that the paths it covers (REF, proactive
//! RFM, ALERT back-off, tracker mitigation, RCT fault) fired, so a digest
//! cannot go on matching a run that stopped exercising them.

use mirza::core::config::MirzaConfig;
use mirza::core::rct::ResetPolicy;
use mirza::sim::config::{Attacker, MitigationConfig};
use mirza::sim::faults::{FaultInjector, FaultPlan};
use mirza::sim::report::SimReport;
use mirza::sim::runner::{attack_stream, try_build_traces};
use mirza::sim::system::{CoreSetup, System};
use mirza::trackers::mint_rfm::MintRfm;
use mirza_bench::scale::Scale;
use mirza_runner::cell_hash;
use mirza_telemetry::{EpochSampler, SpanCollector, Telemetry};

const GOLDEN: &str = include_str!("golden/loop.digests");
const GOLDEN_PATH: &str = "tests/golden/loop.digests";

/// Instructions each benign core retires.
const INSTRUCTIONS: u64 = 100_000;

fn mitigators(scale: &Scale) -> [(&'static str, MitigationConfig); 6] {
    [
        (
            "mirza-1k",
            MitigationConfig::Mirza {
                cfg: scale.mirza_config(MirzaConfig::trhd_1000()),
                policy: ResetPolicy::Safe,
            },
        ),
        ("prac-1k", MitigationConfig::PracAbo { trhd: 1000 }),
        (
            "mint-rfm-1k",
            MitigationConfig::MintRfm {
                bat: MintRfm::bat_for_trhd(1000),
            },
        ),
        (
            "mithril-64",
            MitigationConfig::Mithril {
                entries: 64,
                refs_per_mit: 1,
            },
        ),
        ("trr", MitigationConfig::Trr),
        ("none", MitigationConfig::None),
    ]
}

/// One case's report, injected fault count and digested parts, in file
/// order.
struct Run {
    report: SimReport,
    injected: u64,
    parts: [(&'static str, String); 4],
}

/// Runs `mitigation` on 8 benign `mcf` cores, or on 1 `mcf` core plus
/// the attacker core, with every instrument armed.
fn run(scale: &Scale, mitigation: MitigationConfig, attacked: bool) -> Run {
    let benign = if attacked { 1 } else { 8 };
    let mut cfg = scale.sim_config(mitigation);
    cfg.instructions_per_core = INSTRUCTIONS;
    cfg.cores = benign + usize::from(attacked);
    cfg.audit = true;
    let mut setups: Vec<CoreSetup> =
        try_build_traces("mcf", benign, cfg.seed, cfg.footprint_divisor)
            .expect("mcf is a Table-IV workload")
            .into_iter()
            .map(|t| CoreSetup::benign(t, INSTRUCTIONS))
            .collect();
    let workload = if attacked {
        let kernel = Attacker::figure12(&cfg.geometry);
        let stream = attack_stream(&cfg, kernel.bank, &kernel.pattern);
        setups.push(CoreSetup::attacker(stream));
        "mcf+attack"
    } else {
        "mcf"
    };
    let telemetry = Telemetry::enabled()
        .with_epochs(EpochSampler::new(1_000_000))
        .with_spans(SpanCollector::new());
    let plan = FaultPlan::parse("rct-seu:start_us=1,period_us=2").expect("canned plan");
    let injector = FaultInjector::new(plan, telemetry.clone());
    let mut system = System::new(cfg, workload, setups);
    system.set_telemetry(telemetry.clone());
    system.set_fault_injector(injector.clone());
    let report = system.try_run().expect("instrumented run completes");
    let parts = [
        ("report", report.to_json().to_string_pretty()),
        (
            "registry",
            telemetry
                .to_json()
                .expect("telemetry enabled")
                .to_string_pretty(),
        ),
        (
            "epochs",
            telemetry.epochs_jsonl().expect("sampler attached"),
        ),
        ("faults", injector.summary_json().to_string_pretty()),
    ];
    Run {
        report,
        injected: injector.total_injected(),
        parts,
    }
}

/// The counters a case must see fire: REFs always, plus the path its
/// mitigator exists to exercise. `rct-seu` only lands on MIRZA's RCT.
fn covered(mitigator: &str, attacked: bool, run: &Run) -> Vec<(&'static str, u64)> {
    let r = &run.report;
    let mut paths = vec![("refs", r.device.refs)];
    match mitigator {
        "mirza-1k" => {
            paths.push(("rct faults", run.injected));
            if attacked {
                paths.push(("alerts serviced", r.mc.alerts_serviced));
            }
        }
        "mint-rfm-1k" => paths.push(("proactive rfms", r.device.rfms_proactive)),
        "mithril-64" | "trr" => paths.push(("mitigations", r.mitigation.mitigations)),
        _ => {}
    }
    paths
}

#[test]
fn every_case_matches_its_committed_digests() {
    let scale = Scale::smoke();
    let mut actual = String::new();
    for (name, mitigation) in mitigators(&scale) {
        for attacked in [false, true] {
            let case = format!("{name}/{}", if attacked { "attacked" } else { "benign" });
            let run = run(&scale, mitigation, attacked);
            let r = &run.report;
            println!(
                "{case}: refs {} rfms {}+{} alerts {} mitigations {} faults {}",
                r.device.refs,
                r.device.rfms_proactive,
                r.device.rfms_alert,
                r.mc.alerts_serviced,
                r.mitigation.mitigations,
                run.injected
            );
            for (path, count) in covered(name, attacked, &run) {
                assert!(count > 0, "{case}: no {path} fired");
            }
            for (part, text) in &run.parts {
                actual.push_str(&format!("{case}\t{part}\t{:016x}\n", cell_hash(text)));
            }
        }
    }
    let expected: String = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        actual == expected,
        "loop digests differ from {GOLDEN_PATH}; if the change is intended, replace its \
         digest lines with:\n{actual}"
    );
}
