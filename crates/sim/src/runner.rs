//! Experiment drivers: build a Table-IV workload (or a DoS scenario) and
//! run it under a given mitigation.

use mirza_frontend::trace::{AccessStream, TraceOp, VecStream};
use mirza_memctrl::mapping::AddressMapper;
use mirza_workloads::attacks::RowPattern;
use mirza_workloads::spec::{MixSpec, WorkloadSpec, TABLE4_MIXES};
use mirza_workloads::synth::SyntheticWorkload;

use mirza_dram::address::{BankId, DramAddr};
use mirza_telemetry::Telemetry;

use crate::config::SimConfig;
use crate::faults::FaultInjector;
use crate::report::SimReport;
use crate::system::{CoreSetup, System};
use crate::SimError;

/// Builds the per-core trace streams for a named Table-IV workload
/// (single benchmarks run in 8-core rate mode; mixes run one benchmark
/// per core).
///
/// # Errors
/// [`SimError::UnknownWorkload`] when `workload` matches neither a
/// benchmark nor a mix.
pub fn try_build_traces(
    workload: &str,
    cores: usize,
    seed: u64,
    footprint_divisor: u64,
) -> Result<Vec<Box<dyn AccessStream>>, SimError> {
    let shrink = |mut spec: WorkloadSpec| {
        spec.pages = (spec.pages / footprint_divisor.max(1)).max(1024);
        spec
    };
    if let Some(spec) = WorkloadSpec::by_name(workload) {
        return Ok((0..cores)
            .map(|i| {
                Box::new(SyntheticWorkload::new(
                    shrink(*spec),
                    seed.wrapping_add(i as u64 * 101),
                )) as Box<dyn AccessStream>
            })
            .collect());
    }
    let mix: &MixSpec = TABLE4_MIXES
        .iter()
        .find(|m| m.name == workload)
        .ok_or_else(|| SimError::UnknownWorkload {
            name: workload.to_string(),
        })?;
    Ok((0..cores)
        .map(|i| {
            let name = mix.cores[i % mix.cores.len()];
            let spec = WorkloadSpec::by_name(name).expect("mix entries validated");
            Box::new(SyntheticWorkload::new(
                shrink(*spec),
                seed.wrapping_add(i as u64 * 101),
            )) as Box<dyn AccessStream>
        })
        .collect())
}

/// Runs one Table-IV workload under `cfg` and returns the report.
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
/// with telemetry and optional fault injection: the injector is ticked
/// every quantum, and when its plan corrupts trace records every benign
/// core's stream is wrapped at the frontend boundary.
///
/// # Errors
/// [`SimError::UnknownWorkload`] for a bad name, [`SimError::Watchdog`]
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
    let mut streams = try_build_traces(workload, benign, cfg.seed, cfg.footprint_divisor)?;
    if let Some(inj) = faults {
        if inj.corrupts_trace() {
            streams = streams
                .into_iter()
                .enumerate()
                .map(|(i, s)| inj.corrupting(s, i as u32))
                .collect();
        }
    }
    let mut setups: Vec<CoreSetup> = streams
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

/// Replays a plain-text trace file (see `mirza_workloads::tracefile`) on
/// every core under `cfg`.
///
/// # Errors
/// [`SimError::Io`]/[`SimError::TraceParse`] for an unreadable or
/// malformed file (naming `path:line`), [`SimError::Watchdog`] when the
/// run stalls.
pub fn run_tracefile(
    cfg: &SimConfig,
    path: &std::path::Path,
    telemetry: Telemetry,
) -> Result<SimReport, SimError> {
    let ops = mirza_workloads::tracefile::load_nonempty(path)?;
    let setups = (0..cfg.cores)
        .map(|_| {
            CoreSetup::benign(
                Box::new(VecStream::once(ops.clone())),
                cfg.instructions_per_core,
            )
        })
        .collect();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let mut system = System::new(cfg.clone(), &name, setups);
    system.set_telemetry(telemetry);
    system.try_run()
}

/// Deliberately stalls: runs `workload` with a zero-width quantum, so no
/// pass ever makes forward progress and the idle watchdog must fire.
/// Exists to exercise (and demonstrate) the watchdog path end to end.
///
/// # Errors
/// Always returns [`SimError::Watchdog`] (or the workload-resolution
/// errors of [`try_build_traces`]).
pub fn run_stalled(
    cfg: &SimConfig,
    workload: &str,
    telemetry: Telemetry,
) -> Result<SimReport, SimError> {
    let mut cfg = cfg.clone();
    cfg.quantum = mirza_dram::time::Ps::ZERO;
    try_run_workload_with(&cfg, workload, telemetry, None)
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
