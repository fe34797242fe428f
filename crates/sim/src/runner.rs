//! Experiment drivers: build a Table-IV workload, a trace file's replay
//! or a DoS scenario, and run it under a given mitigation.

use std::path::Path;

use mirza_frontend::trace::{AccessStream, TraceOp, VecStream};
use mirza_memctrl::mapping::AddressMapper;
use mirza_workloads::attacks::RowPattern;
use mirza_workloads::spec::{WorkloadSpec, TABLE4_MIXES};
use mirza_workloads::synth::SyntheticWorkload;
use mirza_workloads::tracefile;

use mirza_dram::address::{BankId, DramAddr};
use mirza_telemetry::Telemetry;

use crate::config::SimConfig;
use crate::faults::FaultInjector;
use crate::report::SimReport;
use crate::system::{CoreSetup, System};
use crate::SimError;

/// Whether a workload name is a trace file path rather than a Table-IV
/// name: it ends in `.trace` or contains a `/`.
pub fn is_trace_path(workload: &str) -> bool {
    workload.ends_with(".trace") || workload.contains('/')
}

/// Builds the per-core trace streams for a workload: a Table-IV benchmark
/// runs in rate mode on every core, a mix runs one benchmark per core,
/// and a trace path (see [`is_trace_path`]) replays the plain-text trace
/// file (see `mirza_workloads::tracefile`) once on every core.
///
/// # Errors
/// [`SimError::UnknownWorkload`] when `workload` is neither a benchmark,
/// a mix nor a trace path; [`SimError::Io`]/[`SimError::TraceParse`] for
/// an unreadable or malformed trace file (naming `path:line`).
pub fn try_build_traces(
    workload: &str,
    cores: usize,
    seed: u64,
    footprint_divisor: u64,
) -> Result<Vec<Box<dyn AccessStream>>, SimError> {
    // A benchmark in rate mode is a mix of one.
    let mix: &[&str] = if let Some(spec) = WorkloadSpec::by_name(workload) {
        std::slice::from_ref(&spec.name)
    } else if let Some(mix) = TABLE4_MIXES.iter().find(|m| m.name == workload) {
        &mix.cores
    } else if is_trace_path(workload) {
        let ops = tracefile::load_nonempty(Path::new(workload))?;
        return Ok((0..cores)
            .map(|_| Box::new(VecStream::once(ops.clone())) as Box<dyn AccessStream>)
            .collect());
    } else {
        return Err(SimError::UnknownWorkload {
            name: workload.to_string(),
        });
    };
    Ok((0..cores)
        .map(|i| {
            let name = mix[i % mix.len()];
            let mut spec = *WorkloadSpec::by_name(name).expect("mix entries validated");
            spec.pages = (spec.pages / footprint_divisor.max(1)).max(1024);
            Box::new(SyntheticWorkload::new(
                spec,
                seed.wrapping_add(i as u64 * 101),
            )) as Box<dyn AccessStream>
        })
        .collect())
}

/// Runs one workload (see [`try_build_traces`]) under `cfg` and returns
/// the report.
pub fn run_workload(cfg: &SimConfig, workload: &str) -> SimReport {
    try_run_workload_with(cfg, workload, Telemetry::disabled(), None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The name a run goes by: `workload`, then ` x<n>` when n benign cores
/// stand in for Table III's [`SimConfig::CORES`], then `+attack` when
/// `cfg` has an attacker core.
pub fn run_name(cfg: &SimConfig, workload: &str) -> String {
    let benign = cfg.cores - usize::from(cfg.attacker.is_some());
    let mut name = workload.to_string();
    if benign != SimConfig::CORES {
        name += &format!(" x{benign}");
    }
    if cfg.attacker.is_some() {
        name += "+attack";
    }
    name
}

/// Runs `workload` under `cfg`, its attacker core last when it has one,
/// with telemetry and optional fault injection (the injector is ticked
/// every quantum).
///
/// # Errors
/// Everything [`try_build_traces`] reports, and [`SimError::Watchdog`]
/// when the run stalls.
///
/// # Panics
/// Panics if `cfg` leaves no benign core besides its attacker.
pub fn try_run_workload_with(
    cfg: &SimConfig,
    workload: &str,
    telemetry: Telemetry,
    faults: Option<&FaultInjector>,
) -> Result<SimReport, SimError> {
    let attackers = usize::from(cfg.attacker.is_some());
    let benign = cfg.cores.saturating_sub(attackers);
    assert!(benign > 0, "need a benign core besides the attacker");
    let mut setups: Vec<CoreSetup> =
        try_build_traces(workload, benign, cfg.seed, cfg.footprint_divisor)?
            .into_iter()
            .map(|t| CoreSetup::benign(t, cfg.instructions_per_core))
            .collect();
    if let Some(a) = &cfg.attacker {
        setups.push(CoreSetup::attacker(attack_stream(cfg, a.bank, &a.pattern)));
    }
    let mut system = System::new(cfg.clone(), &run_name(cfg, workload), setups);
    system.set_telemetry(telemetry);
    if let Some(inj) = faults {
        system.set_fault_injector(inj.clone());
    }
    system.try_run()
}

/// Converts a row-level attack pattern on `bank` into an uncached,
/// physically-addressed trace stream (column rotates so consecutive ACTs
/// to the same row stay distinct lines).
pub fn attack_stream(cfg: &SimConfig, bank: BankId, pattern: &RowPattern) -> Box<dyn AccessStream> {
    let mapper = AddressMapper::mop4(cfg.geometry);
    let ops = pattern
        .rows()
        .iter()
        .map(|&row| TraceOp {
            nonmem: 0,
            vaddr: mapper.encode(&DramAddr { bank, row, col: 0 }),
            is_store: false,
        })
        .collect();
    Box::new(VecStream::looping(ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Attacker, MitigationConfig};

    #[test]
    fn single_workload_runs_rate_mode() {
        let mut cfg = SimConfig::new(MitigationConfig::None, 5_000);
        cfg.cores = 2;
        let r = run_workload(&cfg, "lbm");
        assert_eq!(r.core_ipc.len(), 2);
        assert!(r.device.acts > 0);
        assert!(r.mpki() > 1.0, "lbm is memory intensive, mpki={}", r.mpki());
    }

    #[test]
    fn mix_assigns_different_benchmarks() {
        let mut cfg = SimConfig::new(MitigationConfig::None, 3_000);
        cfg.cores = 2;
        let r = run_workload(&cfg, "mix_1");
        assert_eq!(r.core_ipc.len(), 2);
        assert!(r.instructions >= 6_000);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let cfg = SimConfig::new(MitigationConfig::None, 1_000);
        let _ = run_workload(&cfg, "doom");
    }

    #[test]
    fn attacker_hammers_the_target_bank() {
        let mut cfg = SimConfig::new(MitigationConfig::None, 50_000);
        cfg.cores = 2;
        cfg.attacker = Some(Attacker {
            bank: BankId::new(0, 0, 0),
            pattern: RowPattern::circular(vec![100 * 128, 101 * 128, 102 * 128]),
        });
        let r = run_workload(&cfg, "lbm");
        assert_eq!(r.core_ipc.len(), 1, "attacker excluded from report");
        assert_eq!(r.workload, "lbm x1+attack");
        // The attacker's conflict loop adds ACT traffic well beyond lbm's own.
        let mut solo_cfg = cfg.clone();
        solo_cfg.cores = 1;
        solo_cfg.attacker = None;
        let solo = run_workload(&solo_cfg, "lbm");
        assert!(
            r.device.acts > solo.device.acts,
            "attack acts {} <= solo acts {}",
            r.device.acts,
            solo.device.acts
        );
    }
}
