//! Full-system composition: cores + LLC + paging + two memory controllers
//! (one per sub-channel) + DRAM devices with the configured mitigation.

use mirza_dram::address::RowMapping;
use mirza_dram::device::Subchannel;
use mirza_dram::mitigation::MitigationStats;
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_frontend::cache::{CacheOutcome, SetAssocCache};
use mirza_frontend::core::{AccessResult, Core};
use mirza_frontend::hash::FxHashMap;
use mirza_frontend::paging::PageAllocator;
use mirza_frontend::trace::AccessStream;
use mirza_memctrl::controller::MemController;
use mirza_memctrl::mapping::AddressMapper;
use mirza_memctrl::request::{AccessKind, Completion, McStats, Request};
use mirza_telemetry::{names, Heartbeat, Telemetry};

use crate::config::SimConfig;
use crate::faults::FaultInjector;
use crate::report::SimReport;
use crate::SimError;

/// Consecutive quanta without retiring or completing anything after which
/// the forward-progress watchdog aborts a run.
const WATCHDOG_IDLE_QUANTA: u64 = 1_000_000;

/// Per-core launch description.
pub struct CoreSetup {
    /// The instruction/access stream the core executes.
    pub trace: Box<dyn AccessStream>,
    /// Instructions to retire before the core is done (`u64::MAX` for
    /// attacker cores that run as long as the benign cores do).
    pub target_instr: u64,
    /// Bypass the LLC (attack kernels use explicit cache flushes).
    pub uncached: bool,
    /// Treat virtual addresses as physical (attack kernels control DRAM
    /// geometry directly, standing in for huge-page/contig-alloc tricks).
    pub direct_phys: bool,
}

impl CoreSetup {
    /// A normal, cached, paged core.
    pub fn benign(trace: Box<dyn AccessStream>, target_instr: u64) -> Self {
        CoreSetup {
            trace,
            target_instr,
            uncached: false,
            direct_phys: false,
        }
    }

    /// An attacker core: uncached, physically addressed, unbounded.
    pub fn attacker(trace: Box<dyn AccessStream>) -> Self {
        CoreSetup {
            trace,
            target_instr: u64::MAX,
            uncached: true,
            direct_phys: true,
        }
    }
}

/// The simulated machine.
pub struct System {
    cfg: SimConfig,
    workload: String,
    cores: Vec<Core>,
    required: Vec<bool>,
    uncached: Vec<bool>,
    direct_phys: Vec<bool>,
    llc: SetAssocCache,
    pager: PageAllocator,
    mapper: AddressMapper,
    mcs: Vec<MemController>,
    // Insert per owned read, remove per completion — hot enough that the
    // deterministic fast hasher is worth it (order never observed).
    token_owner: FxHashMap<u64, usize>,
    next_token: u64,
    issued_this_pass: bool,
    telemetry: Telemetry,
    faults: Option<FaultInjector>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds the machine for `cfg` with one entry of `setups` per core.
    ///
    /// # Panics
    /// Panics if `setups` is empty.
    pub fn new(cfg: SimConfig, workload: &str, setups: Vec<CoreSetup>) -> Self {
        assert!(!setups.is_empty(), "need at least one core");
        let geom = cfg.geometry;
        let timing = cfg.timing();
        let metrics_mapping = RowMapping::for_geometry(cfg.metrics_mapping, &geom);
        let mcs = (0..geom.subchannels)
            .map(|s| {
                let mut device = Subchannel::new(
                    timing.clone(),
                    geom,
                    metrics_mapping,
                    cfg.mitigation
                        .build(&geom, cfg.seed.wrapping_add(u64::from(s) * 7919)),
                );
                device.set_rowpress_weighting(cfg.rowpress);
                if cfg.audit {
                    device.enable_audit();
                }
                MemController::new(device, cfg.mitigation.mc_config(), s)
            })
            .collect();
        let mut cores = Vec::new();
        let mut required = Vec::new();
        let mut uncached = Vec::new();
        let mut direct_phys = Vec::new();
        for (i, s) in setups.into_iter().enumerate() {
            cores.push(Core::new(
                i as u32,
                cfg.core_params,
                s.trace,
                s.target_instr,
            ));
            required.push(s.target_instr != u64::MAX);
            uncached.push(s.uncached);
            direct_phys.push(s.direct_phys);
        }
        System {
            workload: workload.to_string(),
            cores,
            required,
            uncached,
            direct_phys,
            llc: SetAssocCache::new(cfg.llc_sets, 16),
            pager: PageAllocator::new(geom.total_bytes()),
            mapper: AddressMapper::mop4(geom),
            mcs,
            token_owner: FxHashMap::default(),
            next_token: 1,
            issued_this_pass: false,
            telemetry: Telemetry::disabled(),
            faults: None,
            cfg,
        }
    }

    /// Installs a fault injector, ticked once per simulation quantum.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Attaches a telemetry handle, cloned down through both memory
    /// controllers into the devices and their mitigation engines.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for mc in &mut self.mcs {
            mc.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    fn enqueue(&mut self, pa: u64, kind: AccessKind, now: Ps, owner: Option<usize>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let addr = self.mapper.decode(pa);
        if let Some(core) = owner {
            self.token_owner.insert(token, core);
        }
        self.mcs[addr.bank.subch as usize].enqueue(Request {
            id: token,
            addr,
            kind,
            arrival: now,
        });
        self.issued_this_pass = true;
        token
    }

    fn memory_access(&mut self, core: usize, vaddr: u64, is_store: bool, now: Ps) -> AccessResult {
        let pa = if self.direct_phys[core] {
            vaddr % self.mapper.capacity()
        } else {
            self.pager.translate(core as u32, vaddr)
        };
        if self.uncached[core] {
            let token = self.enqueue(pa, AccessKind::Read, now, Some(core));
            return AccessResult::Pending(token);
        }
        match self.llc.access(pa / 64, is_store) {
            CacheOutcome::Hit => AccessResult::Ready,
            CacheOutcome::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.enqueue(line * 64, AccessKind::Write, now, None);
                }
                let token = self.enqueue(pa, AccessKind::Read, now, Some(core));
                AccessResult::Pending(token)
            }
        }
    }

    /// Runs to completion and produces the report.
    ///
    /// # Panics
    /// Panics if the system stops making progress (a scheduling bug); use
    /// [`System::try_run`] where a stall should surface as an error.
    pub fn run(&mut self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs to completion and produces the report, or a
    /// [`SimError::Watchdog`] if forward progress stops (no work retired
    /// for the idle budget of 10^6 quanta of simulated time) or the
    /// optional `cfg.watchdog_wall` wall-clock budget is exhausted. On the
    /// error path, per-controller telemetry is flushed and any epoch series
    /// is closed at the stall boundary, so partial streams stay readable.
    ///
    /// The loop walks every quantum boundary in turn. At each one it
    /// re-runs every unfinished core up to the boundary, lets both
    /// controllers schedule up to it, and delivers completions, repeating
    /// until a pass neither enqueues a request nor delivers a completion.
    pub fn try_run(&mut self) -> Result<SimReport, SimError> {
        let quantum = self.cfg.quantum;
        let mut t_end = quantum;
        let mut completions: Vec<Completion> = Vec::new();
        let mut cores = std::mem::take(&mut self.cores);
        let mut idle_quanta = 0u64;
        let mut heartbeat = self.cfg.heartbeat_every.map(Heartbeat::new);
        // A clone, so ticking it can borrow the controllers mutably.
        let faults = self.faults.clone();
        let sample_epochs = self.telemetry.has_epochs();
        // The wall clock is only consulted when a budget is configured, so
        // unbudgeted runs stay bit-for-bit reproducible *and* syscall-free.
        let wall = self
            .cfg
            .watchdog_wall
            .map(|limit| (std::time::Instant::now(), limit));
        let mut stalled: Option<String> = None;
        while !cores
            .iter()
            .zip(&self.required)
            .all(|(c, req)| !req || c.finished())
        {
            if let Some(inj) = &faults {
                inj.tick(t_end, &mut self.mcs);
            }
            let mut progressed_in_quantum = false;
            loop {
                self.issued_this_pass = false;
                let mut delivered = false;
                for core in cores.iter_mut() {
                    if core.finished() {
                        continue;
                    }
                    let id = core.id() as usize;
                    core.run(t_end, |v, s, now| self.memory_access(id, v, s, now));
                }
                for mc in &mut self.mcs {
                    mc.run_until(t_end, &mut completions);
                }
                for c in completions.drain(..) {
                    if let Some(owner) = self.token_owner.remove(&c.id) {
                        cores[owner].complete(c.id, c.done_at);
                        delivered = true;
                    }
                }
                if !(self.issued_this_pass || delivered) {
                    break;
                }
                progressed_in_quantum = true;
            }
            if progressed_in_quantum {
                idle_quanta = 0;
            } else {
                idle_quanta += 1;
                if idle_quanta >= WATCHDOG_IDLE_QUANTA {
                    stalled = Some(format!("no forward progress for {idle_quanta} quanta"));
                    break;
                }
            }
            if let Some((started, limit)) = wall {
                if started.elapsed() >= limit {
                    stalled = Some(format!(
                        "wall-clock budget of {:.1}s exhausted",
                        limit.as_secs_f64()
                    ));
                    break;
                }
            }
            if let Some(hb) = heartbeat.as_mut() {
                let retired = cores.iter().map(Core::instructions).sum();
                if let Some(line) = hb.tick(retired, t_end.as_ps()) {
                    // Locked, single-write stderr line: parallel sweep
                    // workers heartbeat concurrently without splicing.
                    mirza_telemetry::progress::line(&line);
                }
            }
            if sample_epochs {
                self.update_epoch_inputs(&cores);
                self.telemetry.epoch_tick(t_end.as_ps());
            }
            t_end += quantum;
        }
        self.cores = cores;
        for mc in &mut self.mcs {
            mc.finish_telemetry();
        }
        if sample_epochs {
            // Close the series at the last simulated boundary (emits a
            // trailing partial epoch when the epoch length is not a
            // multiple of the quantum). A stalled run closes at the stall
            // boundary itself so the partial stream stays flushable.
            let boundary = if stalled.is_some() {
                t_end
            } else {
                t_end - quantum
            };
            self.telemetry.epoch_finish(boundary.as_ps());
        }
        if let Some(reason) = stalled {
            return Err(SimError::Watchdog {
                reason,
                instructions: self.cores.iter().map(Core::instructions).sum(),
                sim_time_ps: t_end.as_ps(),
            });
        }
        if self.cfg.audit {
            let max = self
                .mcs
                .iter()
                .filter_map(|mc| mc.device().auditor())
                .map(|a| u64::from(a.max_row_acts()))
                .max()
                .unwrap_or(0);
            self.telemetry.set_counter(names::AUDIT_MAX_ROW_ACTS, max);
        }
        let report = self.build_report();
        // Terminate the span layer's Chrome trace after the report snapshot
        // (the attribution summary is already embedded in it).
        self.telemetry.spans_finish();
        Ok(report)
    }

    /// Refreshes the counters/gauges the epoch sampler snapshots: per-core
    /// retired instructions (IPC series), aggregate instructions, MC queue
    /// depth, and open-bank parallelism. Tracker/mitigation rates are
    /// incremented at their call sites; RCT gauges are set by the engine.
    fn update_epoch_inputs(&self, cores: &[Core]) {
        let mut retired = 0u64;
        for (i, c) in cores.iter().enumerate() {
            retired += c.instructions();
            if let Some(name) = names::CORE_INSTR.get(i) {
                self.telemetry.set_counter(name, c.instructions());
            }
        }
        self.telemetry.set_counter(names::SIM_INSTRUCTIONS, retired);
        let pending: usize = self.mcs.iter().map(MemController::pending_requests).sum();
        self.telemetry
            .set_gauge(names::MC_QUEUE_DEPTH, pending as f64);
        let open: usize = self.mcs.iter().map(|m| m.device().open_banks()).sum();
        self.telemetry
            .set_gauge(names::DRAM_OPEN_BANKS, open as f64);
    }

    /// The cores the run waits for (every core but the attackers).
    fn required_cores(&self) -> impl Iterator<Item = &Core> {
        self.cores
            .iter()
            .zip(&self.required)
            .filter(|(_, req)| **req)
            .map(|(c, _)| c)
    }

    fn build_report(&self) -> SimReport {
        let timing = self.cfg.timing();
        let mut device = DeviceStats::default();
        let mut mitigation = MitigationStats::default();
        let mut mc_stats = McStats::default();
        let mut hist = Vec::new();
        for mc in &self.mcs {
            let d = mc.device().stats();
            device.acts += d.acts;
            device.pres += d.pres;
            device.reads += d.reads;
            device.writes += d.writes;
            device.refs += d.refs;
            device.rfms_proactive += d.rfms_proactive;
            device.rfms_alert += d.rfms_alert;
            device.alerts += d.alerts;
            device.demand_refresh_rows += d.demand_refresh_rows;
            device.bus_busy_ps += d.bus_busy_ps;
            let m = mc.device().mitigation_stats();
            mitigation.acts_observed += m.acts_observed;
            mitigation.acts_filtered += m.acts_filtered;
            mitigation.acts_candidate += m.acts_candidate;
            mitigation.mitigations += m.mitigations;
            mitigation.victim_rows_refreshed += m.victim_rows_refreshed;
            mitigation.alerts_requested += m.alerts_requested;
            mitigation.ref_mitigations += m.ref_mitigations;
            let s = mc.stats();
            mc_stats.row_hits += s.row_hits;
            mc_stats.row_misses += s.row_misses;
            mc_stats.row_conflicts += s.row_conflicts;
            mc_stats.reads_done += s.reads_done;
            mc_stats.writes_done += s.writes_done;
            mc_stats.read_latency_ps += s.read_latency_ps;
            mc_stats.alerts_serviced += s.alerts_serviced;
            mc_stats.rfms_issued += s.rfms_issued;
            hist.extend_from_slice(mc.device().acts_per_subarray());
        }
        let elapsed = self
            .required_cores()
            .map(Core::time)
            .max()
            .unwrap_or(Ps::ZERO);
        if self.telemetry.is_enabled() {
            for &acts in &hist {
                self.telemetry.observe(names::DRAM_ACTS_PER_SUBARRAY, acts);
            }
            let llc_total = self.llc.hits() + self.llc.misses();
            if llc_total > 0 {
                self.telemetry.set_gauge(
                    names::LLC_HIT_RATE,
                    self.llc.hits() as f64 / llc_total as f64,
                );
            }
            self.telemetry
                .set_gauge(names::SIM_ELAPSED_MS, elapsed.as_ps() as f64 / 1e9);
            // Attacker cores are cut off mid-stall when the benign cores
            // finish, so their stall time is excluded like their IPC.
            let mshr: u64 = self.required_cores().map(|c| c.mshr_stall().as_ps()).sum();
            let rob: u64 = self.required_cores().map(|c| c.rob_stall().as_ps()).sum();
            self.telemetry.set_counter(names::CORE_MSHR_STALL_PS, mshr);
            self.telemetry.set_counter(names::CORE_ROB_STALL_PS, rob);
        }
        SimReport {
            label: self.cfg.mitigation.label(),
            workload: self.workload.clone(),
            core_ipc: self.required_cores().map(Core::ipc).collect(),
            instructions: self.cores.iter().map(Core::instructions).sum(),
            elapsed,
            device,
            mitigation,
            mc: mc_stats,
            acts_per_subarray: hist,
            llc_hits: self.llc.hits(),
            llc_misses: self.llc.misses(),
            t_refi: timing.t_refi,
            t_refw: timing.t_refw,
            subchannels: self.cfg.geometry.subchannels,
            attribution: self.telemetry.spans_summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MitigationConfig;
    use mirza_frontend::trace::{TraceOp, VecStream};

    fn stream(n: usize) -> Box<VecStream> {
        Box::new(VecStream::once(
            (0..n)
                .map(|i| TraceOp {
                    nonmem: 9,
                    vaddr: (i as u64) * 64 * 97, // scattered lines
                    is_store: i % 5 == 0,
                })
                .collect(),
        ))
    }

    #[test]
    fn baseline_system_completes() {
        let cfg = SimConfig::new(MitigationConfig::None, 20_000);
        let setups = (0..2)
            .map(|_| CoreSetup::benign(stream(2_000), 20_000))
            .collect();
        let mut sys = System::new(cfg, "unit", setups);
        let r = sys.run();
        assert_eq!(r.core_ipc.len(), 2);
        assert!(r.instructions >= 40_000);
        assert!(r.elapsed > Ps::ZERO);
        assert!(r.device.acts > 0, "misses must reach DRAM");
        assert!(r.llc_misses > 0);
        for ipc in &r.core_ipc {
            assert!(*ipc > 0.0 && *ipc <= 4.0, "ipc {ipc}");
        }
    }

    #[test]
    fn prac_timing_slows_conflict_streams() {
        // A stream of row conflicts in one bank is directly limited by tRC:
        // PRAC (52 ns) must be measurably slower than baseline (46 ns).
        let make = |mit| {
            let cfg = SimConfig::new(mit, 10_000);
            // Strided rows in the same bank: consecutive stripes 4 KB apart
            // in PA cycle banks; use large stride to revisit bank 0.
            let ops: Vec<TraceOp> = (0..1500u64)
                .map(|i| TraceOp {
                    nonmem: 3,
                    vaddr: i * 64 * 4 * 64 * 17, // jump rows, same few banks
                    is_store: false,
                })
                .collect();
            let setups = vec![CoreSetup::benign(Box::new(VecStream::once(ops)), 10_000)];
            let mut sys = System::new(cfg, "conflicts", setups);
            sys.run()
        };
        let base = make(MitigationConfig::None);
        let prac = make(MitigationConfig::PracAbo { trhd: 1000 });
        let slowdown = prac.slowdown_pct(&base);
        assert!(
            slowdown > 1.0,
            "PRAC should slow a conflict-bound stream, got {slowdown:.2}%"
        );
    }

    #[test]
    fn mint_rfm_issues_rfms() {
        let cfg = SimConfig::new(MitigationConfig::MintRfm { bat: 8 }, 10_000);
        let setups = vec![CoreSetup::benign(stream(3_000), 10_000)];
        let mut sys = System::new(cfg, "rfm", setups);
        let r = sys.run();
        assert!(r.device.rfms_proactive > 0);
        assert!(r.mitigation.mitigations > 0);
        assert!(r.refresh_power_overhead_pct() > 0.0);
    }

    #[test]
    fn attacker_core_does_not_gate_completion() {
        let cfg = SimConfig::new(MitigationConfig::None, 5_000);
        let attack = VecStream::looping(vec![TraceOp {
            nonmem: 0,
            vaddr: 0,
            is_store: false,
        }]);
        let setups = vec![
            CoreSetup::benign(stream(1_000), 5_000),
            CoreSetup::attacker(Box::new(attack)),
        ];
        let mut sys = System::new(cfg, "dos", setups);
        let r = sys.run();
        // Only the benign core is reported.
        assert_eq!(r.core_ipc.len(), 1);
    }
}
