//! Opportunity-counter purity: arming the scheduler opportunity counters
//! (`Telemetry::with_opportunity`) must not change anything the simulation
//! computes — they are read-only probes of the scheduler hot path. Also
//! checks the counters actually record plausible values when armed.

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_frontend::trace::{TraceOp, VecStream};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{names, Telemetry};

fn mitigator(index: usize) -> MitigationConfig {
    match index {
        0 => MitigationConfig::Mirza {
            cfg: MirzaConfig::trhd_1000(),
            policy: ResetPolicy::Safe,
        },
        1 => MitigationConfig::PracAbo { trhd: 1000 },
        2 => MitigationConfig::Mithril {
            entries: 64,
            refs_per_mit: 1,
        },
        3 => MitigationConfig::Trr,
        _ => MitigationConfig::None,
    }
}

fn stream(ops: usize, stride: u64, store_mod: usize) -> Box<VecStream> {
    Box::new(VecStream::once(
        (0..ops)
            .map(|i| TraceOp {
                nonmem: 9,
                vaddr: (i as u64) * 64 * stride,
                is_store: store_mod > 0 && i % store_mod == 0,
            })
            .collect(),
    ))
}

fn run_with(mitigation: MitigationConfig, telemetry: Telemetry) -> mirza_sim::report::SimReport {
    run_with_cfg(SimConfig::new(mitigation, 20_000), telemetry)
}

fn run_with_cfg(cfg: SimConfig, telemetry: Telemetry) -> mirza_sim::report::SimReport {
    let setups = (0..2)
        .map(|_| CoreSetup::benign(stream(400, 97, 5), 20_000))
        .collect();
    let mut sys = System::new(cfg, "opportunity-it", setups);
    sys.set_telemetry(telemetry);
    sys.run()
}

/// Counters on vs. counters off: the full report JSON must be
/// bit-identical under every mitigator.
#[test]
fn opportunity_counters_are_pure_observability() {
    for mit in 0..5 {
        let counted = run_with(mitigator(mit), Telemetry::enabled().with_opportunity());
        let plain = run_with(mitigator(mit), Telemetry::disabled());
        assert_eq!(
            counted.to_json().to_string_pretty(),
            plain.to_json().to_string_pretty(),
            "mitigator {mit}: opportunity counters must not perturb the run"
        );
    }
}

/// When armed, the counters record a self-consistent picture: passes are
/// counted, idle passes never exceed total passes, and the per-pass
/// command histogram saw every pass.
#[test]
fn opportunity_counters_record_plausible_values() {
    let telemetry = Telemetry::enabled().with_opportunity();
    let report = run_with(mitigator(0), telemetry.clone());
    assert!(report.instructions > 0);
    let (passes, idle, cmds_per_pass) = telemetry
        .with_recorder(|r| {
            (
                r.registry.counter(names::MC_OPP_SCHED_PASSES),
                r.registry.counter(names::MC_OPP_IDLE_PASSES),
                r.registry
                    .histogram(names::MC_OPP_CMDS_PER_PASS)
                    .map_or(0, mirza_telemetry::Histogram::count),
            )
        })
        .expect("recorder is enabled");
    assert!(passes > 0, "scheduler passes were counted");
    assert!(idle <= passes, "idle passes are a subset of passes");
    assert_eq!(
        cmds_per_pass, passes,
        "every pass lands one observation in the per-pass histogram"
    );
}
