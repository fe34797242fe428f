//! The DDR5 sub-channel device model.
//!
//! [`Subchannel`] owns the per-bank timing state machines, enforces
//! rank-level constraints (tRRD, tFAW), tracks data-bus occupancy, walks the
//! refresh pointer, and hosts one [`Mitigator`]. The memory controller asks
//! `earliest_*` questions and then commits commands with [`Subchannel::issue`].
//!
//! The model is event-driven: there is no per-cycle loop. Every constraint is
//! a "not before" timestamp, so a full 32 ms refresh window simulates in
//! seconds.

use std::collections::VecDeque;

use crate::address::{BankId, RowMapping};
use crate::audit::CommandAuditor;
use crate::command::Command;
use crate::geometry::Geometry;
use crate::mitigation::{DeviceFault, MitigationStats, Mitigator};
use crate::refresh::RefreshPointer;
use crate::stats::DeviceStats;
use crate::time::Ps;
use crate::timing::TimingParams;
use mirza_telemetry::{names, Json, Telemetry};

use crate::bank::BankState;

/// Result of committing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    /// For RD/WR: the instant the data burst completes on the bus.
    pub data_ready: Option<Ps>,
    /// For blocking commands (REF/RFM): the instant the device is usable again.
    pub busy_until: Option<Ps>,
}

/// One DDR5 sub-channel: banks, timing, refresh, ALERT line and mitigator.
pub struct Subchannel {
    timing: TimingParams,
    geom: Geometry,
    banks: Vec<BankState>,
    /// Sliding window of the last four ACT instants, per rank (tFAW).
    faw: Vec<VecDeque<Ps>>,
    /// Most recent ACT per rank (tRRD); `None` before the first ACT.
    last_act: Vec<Option<Ps>>,
    /// Blocking commands (REF/RFM/ALERT stall) gate everything until here.
    global_block: Ps,
    /// Next instant the shared data bus is free.
    bus_free: Ps,
    /// Direction of the last data burst (for turnaround penalties).
    last_burst_was_write: bool,
    /// Earliest instant for the next column *command* (tCCD at channel level).
    next_col_cmd: Ps,
    next_ref_due: Ps,
    ref_ptr: RefreshPointer,
    mitigator: Box<dyn Mitigator>,
    /// ACTs since the last ALERT service; one mandatory ACT (the epilogue)
    /// must occur before ALERT may re-assert (Section V-D).
    acts_since_alert_service: u64,
    last_issue_at: Ps,
    /// Fault-injection hook: while `last_issue_at` is before this instant,
    /// the ALERT_n pin reads deasserted even if the tracker wants a
    /// back-off (models a dropped/delayed ALERT raise).
    alert_masked_until: Ps,
    stats: DeviceStats,
    /// ACT counts per (bank, physical subarray) for workload characterization.
    act_hist: Vec<u64>,
    metrics_mapping: RowMapping,
    /// RowPress weighting (Section II-A): when enabled, closing a row that
    /// stayed open longer than tRAS charges the tracker additional
    /// activation-equivalents, one per extra tRAS of open time.
    rowpress_weighting: bool,
    /// Sub-channel index within the channel, for span-track labeling (set
    /// by the owning controller; 0 until then).
    subch_index: u32,
    /// Cached `telemetry.has_spans()` so precharges test one local bool.
    spans: bool,
    /// Number of banks with an open row, maintained incrementally so
    /// `all_precharged`/`open_banks` are O(1) instead of a bank scan.
    open_count: usize,
    telemetry: Telemetry,
    /// Independent protocol auditor (shadow checker), when enabled. Boxed:
    /// its per-bank shadow state is only paid for by auditing runs.
    audit: Option<Box<CommandAuditor>>,
}

impl std::fmt::Debug for Subchannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subchannel")
            .field("banks", &self.banks.len())
            .field("mitigator", &self.mitigator.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Subchannel {
    /// Creates a sub-channel with the given timing, geometry, metrics mapping
    /// and mitigation engine.
    pub fn new(
        timing: TimingParams,
        geom: Geometry,
        metrics_mapping: RowMapping,
        mitigator: Box<dyn Mitigator>,
    ) -> Self {
        timing.validate().expect("invalid timing parameters");
        geom.validate().expect("invalid geometry");
        let nbanks = geom.banks_per_subchannel() as usize;
        let hist = nbanks * geom.subarrays_per_bank as usize;
        Subchannel {
            next_ref_due: timing.t_refi,
            ref_ptr: RefreshPointer::new(geom.rows_per_bank, geom.rows_per_ref),
            banks: vec![BankState::new(); nbanks],
            faw: vec![VecDeque::with_capacity(4); geom.ranks as usize],
            last_act: vec![None; geom.ranks as usize],
            global_block: Ps::ZERO,
            bus_free: Ps::ZERO,
            last_burst_was_write: false,
            next_col_cmd: Ps::ZERO,
            mitigator,
            acts_since_alert_service: 1, // ALERT may assert immediately
            last_issue_at: Ps::ZERO,
            alert_masked_until: Ps::ZERO,
            stats: DeviceStats::default(),
            act_hist: vec![0; hist],
            metrics_mapping,
            rowpress_weighting: false,
            subch_index: 0,
            spans: false,
            open_count: 0,
            telemetry: Telemetry::disabled(),
            audit: None,
            timing,
            geom,
        }
    }

    /// Enables the independent protocol auditor, validating the command
    /// stream against the device's own timing parameters.
    pub fn enable_audit(&mut self) {
        let reference = self.timing.clone();
        self.enable_audit_with(reference);
    }

    /// Enables the auditor with an explicit reference timing (may differ
    /// from what the device enforces; used by tests to inject
    /// device-legal but reference-illegal streams).
    pub fn enable_audit_with(&mut self, reference: TimingParams) {
        self.audit = Some(Box::new(CommandAuditor::new(reference, &self.geom)));
    }

    /// The protocol auditor, when enabled.
    pub fn auditor(&self) -> Option<&CommandAuditor> {
        self.audit.as_deref()
    }

    /// Enables per-row ACT tracking in the auditor (enabling the auditor
    /// itself first if needed), using the device's metrics mapping and
    /// geometry. Powers the fault-run security verdict.
    pub fn enable_row_tracking(&mut self) {
        if self.audit.is_none() {
            self.enable_audit();
        }
        let (mapping, rows, per_ref) = (
            self.metrics_mapping,
            self.geom.rows_per_bank,
            self.geom.rows_per_ref,
        );
        if let Some(a) = &mut self.audit {
            a.enable_row_tracking(mapping, rows, per_ref);
        }
    }

    /// Attaches a telemetry handle (cloned down into the mitigator).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.mitigator.set_telemetry(telemetry.clone());
        self.spans = telemetry.has_spans();
        self.telemetry = telemetry;
    }

    /// Records which sub-channel of the channel this device is, so span
    /// tracks carry the right label. Called by the owning controller.
    pub fn set_subch_index(&mut self, subch: u32) {
        self.subch_index = subch;
    }

    /// Enables RowPress weighting: long row-open times are converted into
    /// activation equivalents charged to the mitigation engine (the
    /// IMPRESS-style defense the threat model assumes, Section II-A).
    pub fn set_rowpress_weighting(&mut self, enabled: bool) {
        self.rowpress_weighting = enabled;
    }

    /// Charges RowPress activation-equivalents for a row that was open
    /// from its ACT until `now`.
    fn charge_rowpress(&mut self, flat: usize, row: u32, opened_at: Ps, now: Ps) {
        if !self.rowpress_weighting {
            return;
        }
        let open_time = now.saturating_sub(opened_at);
        let extra = open_time.as_ps() / self.timing.t_ras.as_ps();
        for _ in 1..extra.min(64) {
            self.stats.rowpress_equiv_acts += 1;
            self.mitigator.on_activate(flat, row, now);
        }
    }

    /// The timing parameter set in force.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The channel geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Raw command counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The mitigator's self-reported counters.
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.mitigator.stats()
    }

    /// ACT counts per (bank, physical subarray), row-major by bank.
    pub fn acts_per_subarray(&self) -> &[u64] {
        &self.act_hist
    }

    /// The row of `bank` that is currently open, if any.
    pub fn open_row(&self, bank: BankId) -> Option<u32> {
        self.banks[self.flat(bank)].open_row()
    }

    /// True when every bank is precharged.
    pub fn all_precharged(&self) -> bool {
        self.open_count == 0
    }

    /// Number of banks with an open row (bank-level parallelism gauge).
    pub fn open_banks(&self) -> usize {
        self.open_count
    }

    /// Instant the next REF becomes due.
    pub fn next_ref_due(&self) -> Ps {
        self.next_ref_due
    }

    /// Number of REFs issued so far.
    pub fn refs_issued(&self) -> u64 {
        self.ref_ptr.refs_issued()
    }

    /// True when the device is asserting ALERT: the mitigator wants a
    /// back-off and the mandatory post-service ACT has happened. A fault
    /// mask (see [`Subchannel::mask_alert_until`]) forces it low.
    pub fn alert_asserted(&self) -> bool {
        if self.last_issue_at < self.alert_masked_until {
            return false;
        }
        self.mitigator.alert_pending() && self.acts_since_alert_service >= 1
    }

    /// Fault-injection hook: suppresses ALERT assertion until device time
    /// reaches `until` (the tracker's pending state is untouched, so the
    /// alert reappears once the mask expires — a delayed raise).
    pub fn mask_alert_until(&mut self, until: Ps) {
        self.alert_masked_until = self.alert_masked_until.max(until);
    }

    /// Fault-injection hook: forwards a state fault to the mitigation
    /// engine; returns whether it changed anything.
    pub fn inject_fault(&mut self, fault: &DeviceFault, now: Ps) -> bool {
        self.mitigator.inject_fault(fault, now)
    }

    fn flat(&self, bank: BankId) -> usize {
        bank.flat_in_subchannel(&self.geom)
    }

    /// Earliest instant `cmd` may legally be issued, or `None` when the
    /// command is illegal in the current row-buffer state (e.g. ACT to an
    /// open bank, RD to a closed or mismatched row).
    pub fn earliest(&self, cmd: &Command) -> Option<Ps> {
        let t = &self.timing;
        let e = match *cmd {
            Command::Act { bank, .. } => {
                let rank = bank.rank as usize;
                let mut e = self.banks[self.flat(bank)].earliest_act()?;
                if let Some(last) = self.last_act[rank] {
                    e = e.max(last + t.t_rrd);
                }
                if self.faw[rank].len() == 4 {
                    e = e.max(self.faw[rank][0] + t.t_faw);
                }
                e
            }
            Command::Pre { bank } => self.banks[self.flat(bank)].earliest_pre()?,
            Command::PreAll => {
                let mut e = Ps::ZERO;
                for b in &self.banks {
                    if let Some(p) = b.earliest_pre() {
                        e = e.max(p);
                    }
                }
                e
            }
            Command::Rd { bank, .. } => {
                let row = self.banks[self.flat(bank)].open_row()?;
                let mut e = self.banks[self.flat(bank)].earliest_rd(row)?;
                e = e.max(self.next_col_cmd);
                // The data burst must find the bus free (plus a small
                // turnaround bubble when reversing direction).
                let bus_ready = if self.last_burst_was_write {
                    self.bus_free + t.t_ck * 2
                } else {
                    self.bus_free
                };
                e = e.max(bus_ready.saturating_sub(t.cl));
                e
            }
            Command::Wr { bank, .. } => {
                let row = self.banks[self.flat(bank)].open_row()?;
                let mut e = self.banks[self.flat(bank)].earliest_wr(row)?;
                e = e.max(self.next_col_cmd);
                let bus_ready = if self.last_burst_was_write {
                    self.bus_free
                } else {
                    self.bus_free + t.t_ck * 2
                };
                e = e.max(bus_ready.saturating_sub(t.cwl));
                e
            }
            Command::Ref | Command::Rfm { .. } => {
                if !self.all_precharged() {
                    return None;
                }
                let mut e = Ps::ZERO;
                for b in &self.banks {
                    if let Some(a) = b.earliest_act() {
                        e = e.max(a);
                    }
                }
                e
            }
        };
        Some(e.max(self.global_block))
    }

    /// The open row of bank `flat` (flat index within the sub-channel).
    pub fn open_row_flat(&self, flat: usize) -> Option<u32> {
        self.banks[flat].open_row()
    }

    /// Bank-local ACT release for bank `flat`, *without* the shared rank
    /// ([`Subchannel::act_floor`]) and global ([`Subchannel::block_floor`])
    /// floors. `None` while a row is open.
    pub fn earliest_local_act(&self, flat: usize) -> Option<Ps> {
        self.banks[flat].earliest_act()
    }

    /// Bank-local PRE release for bank `flat`, without the global floor.
    /// `None` when already precharged.
    pub fn earliest_local_pre(&self, flat: usize) -> Option<Ps> {
        self.banks[flat].earliest_pre()
    }

    /// Bank-local RD release for bank `flat`, *without* the shared column
    /// ([`Subchannel::col_floor`]) and global floors. `None` on row
    /// mismatch or closed bank.
    pub fn earliest_local_rd(&self, flat: usize, row: u32) -> Option<Ps> {
        self.banks[flat].earliest_rd(row)
    }

    /// Bank-local WR release for bank `flat`, without the shared floors.
    /// `None` on row mismatch or closed bank.
    pub fn earliest_local_wr(&self, flat: usize, row: u32) -> Option<Ps> {
        self.banks[flat].earliest_wr(row)
    }

    /// Shared ACT floor for `rank`: tRRD from the previous ACT plus tFAW
    /// over the sliding four-ACT window. `earliest_local_act(flat)` max
    /// this max [`Subchannel::block_floor`] equals
    /// [`Subchannel::earliest`] for the ACT.
    pub fn act_floor(&self, rank: usize) -> Ps {
        let t = &self.timing;
        let mut e = Ps::ZERO;
        if let Some(last) = self.last_act[rank] {
            e = e.max(last + t.t_rrd);
        }
        if self.faw[rank].len() == 4 {
            e = e.max(self.faw[rank][0] + t.t_faw);
        }
        e
    }

    /// Shared column floor for a RD (`write == false`) or WR (`write ==
    /// true`): channel-level tCCD plus data-bus availability including
    /// the direction-turnaround bubble. `earliest_local_rd/_wr` max this
    /// max [`Subchannel::block_floor`] equals [`Subchannel::earliest`]
    /// for the column command.
    pub fn col_floor(&self, write: bool) -> Ps {
        let t = &self.timing;
        let bus_ready = if self.last_burst_was_write == write {
            self.bus_free
        } else {
            self.bus_free + t.t_ck * 2
        };
        let lat = if write { t.cwl } else { t.cl };
        self.next_col_cmd.max(bus_ready.saturating_sub(lat))
    }

    /// The global REF/RFM/ALERT blocking floor applied to every command.
    pub fn block_floor(&self) -> Ps {
        self.global_block
    }

    /// Commits `cmd` at instant `now`.
    ///
    /// # Panics
    /// Panics if `cmd` is illegal or `now` is before [`Subchannel::earliest`]
    /// for it, or if `now` precedes a previously issued command (commands
    /// must be committed in time order).
    pub fn issue(&mut self, cmd: Command, now: Ps) -> Issued {
        // The auditor observes the stream *before* the device's own
        // enforcement asserts: a deliberately permissive device then
        // yields audited violations instead of panics.
        let auditing = self.audit.is_some();
        let was_asserted = auditing && self.alert_asserted();
        if let Some(mut a) = self.audit.take() {
            a.observe(&cmd, now, &self.telemetry);
            self.audit = Some(a);
        }
        assert!(
            now >= self.last_issue_at,
            "commands must be issued in time order"
        );
        let earliest = self
            .earliest(&cmd)
            .unwrap_or_else(|| panic!("illegal command {cmd:?} at {now}"));
        assert!(
            now >= earliest,
            "command {cmd:?} at {now} violates timing (earliest {earliest})"
        );
        self.last_issue_at = now;
        let t = self.timing.clone();
        let issued = match cmd {
            Command::Act { bank, row } => {
                let rank = bank.rank as usize;
                let flat = self.flat(bank);
                self.banks[flat].issue_act(row, now, &t);
                self.open_count += 1;
                self.last_act[rank] = Some(now);
                self.faw[rank].push_back(now);
                if self.faw[rank].len() > 4 {
                    self.faw[rank].pop_front();
                }
                self.stats.acts += 1;
                self.acts_since_alert_service += 1;
                let phys = self.metrics_mapping.phys_of(row);
                let sa = (phys / self.metrics_mapping.rows_per_subarray()) as usize;
                self.act_hist[flat * self.geom.subarrays_per_bank as usize + sa] += 1;
                self.mitigator.on_activate(flat, row, now);
                Issued {
                    data_ready: None,
                    busy_until: None,
                }
            }
            Command::Pre { bank } => {
                let flat = self.flat(bank);
                let row = self.banks[flat].open_row().expect("PRE closes a row");
                let opened_at = self.banks[flat].last_act_at();
                self.banks[flat].issue_pre(now, &t);
                self.open_count -= 1;
                self.stats.pres += 1;
                self.charge_rowpress(flat, row, opened_at, now);
                if self.spans {
                    // The row's full open interval is known at close time.
                    self.telemetry.span_bank(
                        self.subch_index,
                        flat,
                        u64::from(row),
                        opened_at.as_ps(),
                        now.as_ps(),
                    );
                }
                Issued {
                    data_ready: None,
                    busy_until: None,
                }
            }
            Command::PreAll => {
                let mut closed = Vec::new();
                for (flat, b) in self.banks.iter_mut().enumerate() {
                    if let Some(row) = b.open_row() {
                        let opened_at = b.last_act_at();
                        b.issue_pre(now, &t);
                        self.stats.pres += 1;
                        closed.push((flat, row, opened_at));
                    }
                }
                self.open_count -= closed.len();
                for (flat, row, opened_at) in closed {
                    self.charge_rowpress(flat, row, opened_at, now);
                    if self.spans {
                        self.telemetry.span_bank(
                            self.subch_index,
                            flat,
                            u64::from(row),
                            opened_at.as_ps(),
                            now.as_ps(),
                        );
                    }
                }
                Issued {
                    data_ready: None,
                    busy_until: None,
                }
            }
            Command::Rd { bank, .. } => {
                let flat = self.flat(bank);
                let row = self.banks[flat].open_row().expect("RD to closed bank");
                let done = self.banks[flat].issue_rd(row, now, &t);
                self.bus_free = done;
                self.last_burst_was_write = false;
                self.next_col_cmd = now + t.t_ccd;
                self.stats.reads += 1;
                self.stats.bus_busy_ps += t.t_burst.as_ps();
                Issued {
                    data_ready: Some(done),
                    busy_until: None,
                }
            }
            Command::Wr { bank, .. } => {
                let flat = self.flat(bank);
                let row = self.banks[flat].open_row().expect("WR to closed bank");
                let done = self.banks[flat].issue_wr(row, now, &t);
                self.bus_free = done;
                self.last_burst_was_write = true;
                self.next_col_cmd = now + t.t_ccd;
                self.stats.writes += 1;
                self.stats.bus_busy_ps += t.t_burst.as_ps();
                Issued {
                    data_ready: Some(done),
                    busy_until: None,
                }
            }
            Command::Ref => {
                let until = now + t.t_rfc;
                for b in &mut self.banks {
                    b.block_until(until);
                }
                self.global_block = self.global_block.max(until);
                self.next_ref_due += t.t_refi;
                self.stats.refs += 1;
                self.stats.demand_refresh_rows +=
                    u64::from(self.geom.rows_per_ref) * self.banks.len() as u64;
                let slice = self.ref_ptr.advance();
                if slice.phys_rows.start == 0 && slice.index > 0 {
                    self.telemetry.event(
                        now.as_ps(),
                        names::EV_REFRESH_POINTER_WRAP,
                        &[("ref_index", Json::U64(slice.index))],
                    );
                }
                self.mitigator.on_ref(&slice, now);
                Issued {
                    data_ready: None,
                    busy_until: Some(until),
                }
            }
            Command::Rfm { alert } => {
                let until = now + t.t_rfm;
                for b in &mut self.banks {
                    b.block_until(until);
                }
                self.global_block = self.global_block.max(until);
                if alert {
                    self.stats.rfms_alert += 1;
                    self.stats.alerts += 1;
                    self.acts_since_alert_service = 0;
                } else {
                    self.stats.rfms_proactive += 1;
                }
                self.mitigator.on_rfm(alert, now);
                Issued {
                    data_ready: None,
                    busy_until: Some(until),
                }
            }
        };
        // ALERT asserting exactly at this command opens the ABO window the
        // auditor polices (the MC samples the line at the same instant).
        if auditing && !was_asserted && self.alert_asserted() {
            if let Some(a) = self.audit.as_mut() {
                a.note_alert(now.as_ps());
            }
        }
        issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::MappingScheme;
    use crate::mitigation::NullMitigator;

    fn sc() -> Subchannel {
        let geom = Geometry::ddr5_32gb();
        Subchannel::new(
            TimingParams::ddr5_6000(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            Box::new(NullMitigator::new()),
        )
    }

    fn bank(i: u32) -> BankId {
        BankId::new(0, 0, i)
    }

    #[test]
    fn act_read_precharge_cycle() {
        let mut sc = sc();
        let t = sc.timing().clone();
        let act = Command::Act {
            bank: bank(0),
            row: 42,
        };
        assert_eq!(sc.earliest(&act), Some(Ps::ZERO));
        sc.issue(act, Ps::ZERO);
        assert_eq!(sc.open_row(bank(0)), Some(42));

        let rd = Command::Rd {
            bank: bank(0),
            col: 3,
        };
        let e = sc.earliest(&rd).unwrap();
        assert_eq!(e, t.t_rcd);
        let out = sc.issue(rd, e);
        assert_eq!(out.data_ready, Some(t.t_rcd + t.cl + t.t_burst));

        let pre = Command::Pre { bank: bank(0) };
        let e = sc.earliest(&pre).unwrap();
        sc.issue(pre, e);
        assert!(sc.all_precharged());
        assert_eq!(sc.stats().acts, 1);
        assert_eq!(sc.stats().reads, 1);
        assert_eq!(sc.stats().pres, 1);
    }

    #[test]
    fn trrd_separates_acts_across_banks() {
        let mut sc = sc();
        let t = sc.timing().clone();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::ZERO,
        );
        let e = sc
            .earliest(&Command::Act {
                bank: bank(1),
                row: 1,
            })
            .unwrap();
        assert_eq!(e, t.t_rrd);
    }

    #[test]
    fn tfaw_limits_act_rate() {
        let mut sc = sc();
        let t = sc.timing().clone();
        let mut now = Ps::ZERO;
        for i in 0..4 {
            let cmd = Command::Act {
                bank: bank(i),
                row: 1,
            };
            now = sc.earliest(&cmd).unwrap().max(now);
            sc.issue(cmd, now);
        }
        // The 5th ACT must wait for the first + tFAW.
        let e = sc
            .earliest(&Command::Act {
                bank: bank(4),
                row: 1,
            })
            .unwrap();
        assert!(e >= t.t_faw, "5th ACT at {e} < tFAW {}", t.t_faw);
    }

    #[test]
    fn refresh_blocks_everything_for_trfc() {
        let mut sc = sc();
        let t = sc.timing().clone();
        let e = sc.earliest(&Command::Ref).unwrap();
        let out = sc.issue(Command::Ref, e);
        assert_eq!(out.busy_until, Some(e + t.t_rfc));
        let act = Command::Act {
            bank: bank(0),
            row: 7,
        };
        assert_eq!(sc.earliest(&act), Some(e + t.t_rfc));
        assert_eq!(sc.stats().refs, 1);
        assert_eq!(
            sc.stats().demand_refresh_rows,
            u64::from(sc.geometry().rows_per_ref) * 32
        );
    }

    #[test]
    fn ref_illegal_with_open_bank() {
        let mut sc = sc();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::ZERO,
        );
        assert_eq!(sc.earliest(&Command::Ref), None);
    }

    #[test]
    fn data_bus_serializes_bursts_across_banks() {
        let mut sc = sc();
        let t = sc.timing().clone();
        let mut now = Ps::ZERO;
        for i in 0..2 {
            let cmd = Command::Act {
                bank: bank(i),
                row: 1,
            };
            now = sc.earliest(&cmd).unwrap().max(now);
            sc.issue(cmd, now);
        }
        let rd0 = Command::Rd {
            bank: bank(0),
            col: 0,
        };
        let e0 = sc.earliest(&rd0).unwrap();
        sc.issue(rd0, e0);
        let rd1 = Command::Rd {
            bank: bank(1),
            col: 0,
        };
        let e1 = sc.earliest(&rd1).unwrap();
        assert!(e1 >= e0 + t.t_ccd);
    }

    #[test]
    fn act_histogram_uses_metrics_mapping() {
        let mut sc = sc();
        // Strided mapping: row 5 lives in subarray 5.
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 5,
            },
            Ps::ZERO,
        );
        let hist = sc.acts_per_subarray();
        assert_eq!(hist[5], 1);
        assert_eq!(hist.iter().sum::<u64>(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_issue_panics() {
        let mut sc = sc();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::from_ns(100),
        );
        sc.issue(
            Command::Act {
                bank: bank(1),
                row: 1,
            },
            Ps::from_ns(50),
        );
    }

    #[test]
    fn rowpress_charges_long_open_rows() {
        let mut sc = sc();
        sc.set_rowpress_weighting(true);
        let t = sc.timing().clone();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 7,
            },
            Ps::ZERO,
        );
        // Hold the row open for ~5x tRAS before closing.
        let close_at = t.t_ras * 5;
        sc.issue(Command::Pre { bank: bank(0) }, close_at);
        assert_eq!(sc.stats().rowpress_equiv_acts, 4);
        // The tracker observed 1 real ACT + 4 equivalents.
        assert_eq!(sc.mitigation_stats().acts_observed, 5);
    }

    #[test]
    fn rowpress_disabled_by_default() {
        let mut sc = sc();
        let t = sc.timing().clone();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 7,
            },
            Ps::ZERO,
        );
        sc.issue(Command::Pre { bank: bank(0) }, t.t_ras * 5);
        assert_eq!(sc.stats().rowpress_equiv_acts, 0);
        assert_eq!(sc.mitigation_stats().acts_observed, 1);
    }

    #[test]
    fn rowpress_prompt_close_costs_nothing() {
        let mut sc = sc();
        sc.set_rowpress_weighting(true);
        let t = sc.timing().clone();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 7,
            },
            Ps::ZERO,
        );
        sc.issue(Command::Pre { bank: bank(0) }, t.t_ras);
        assert_eq!(sc.stats().rowpress_equiv_acts, 0);
    }

    #[test]
    fn null_mitigator_never_alerts() {
        let mut sc = sc();
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::ZERO,
        );
        assert!(!sc.alert_asserted());
    }

    #[test]
    fn open_count_tracks_row_state() {
        let mut sc = sc();
        assert!(sc.all_precharged());
        for i in 0..3 {
            let cmd = Command::Act {
                bank: bank(i),
                row: 1,
            };
            let e = sc.earliest(&cmd).unwrap();
            sc.issue(cmd, e);
        }
        assert_eq!(sc.open_banks(), 3);
        let pre = Command::Pre { bank: bank(0) };
        let e = sc.earliest(&pre).unwrap();
        sc.issue(pre, e);
        assert_eq!(sc.open_banks(), 2);
        let e = sc.earliest(&Command::PreAll).unwrap();
        sc.issue(Command::PreAll, e);
        assert_eq!(sc.open_banks(), 0);
        assert!(sc.all_precharged());
    }

    #[test]
    fn local_accessors_plus_floors_reproduce_earliest() {
        let mut sc = sc();
        let mut now = Ps::ZERO;
        // Build up shared state: 4 ACTs (arms tFAW) and a read (arms the
        // bus/column floors).
        for i in 0..4 {
            let cmd = Command::Act {
                bank: bank(i),
                row: 1,
            };
            now = sc.earliest(&cmd).unwrap().max(now);
            sc.issue(cmd, now);
        }
        let rd = Command::Rd {
            bank: bank(0),
            col: 0,
        };
        let e = sc.earliest(&rd).unwrap().max(now);
        sc.issue(rd, e);

        let block = sc.block_floor();
        // ACT decomposition (bank 4 is closed; rank 0).
        let act = Command::Act {
            bank: bank(4),
            row: 1,
        };
        let composed = sc
            .earliest_local_act(4)
            .map(|l| l.max(sc.act_floor(0)).max(block));
        assert_eq!(composed, sc.earliest(&act));
        // RD/WR decomposition on the open bank 1.
        let row = sc.open_row_flat(1).unwrap();
        let composed = sc
            .earliest_local_rd(1, row)
            .map(|l| l.max(sc.col_floor(false)).max(block));
        assert_eq!(
            composed,
            sc.earliest(&Command::Rd {
                bank: bank(1),
                col: 0
            })
        );
        let composed = sc
            .earliest_local_wr(1, row)
            .map(|l| l.max(sc.col_floor(true)).max(block));
        assert_eq!(
            composed,
            sc.earliest(&Command::Wr {
                bank: bank(1),
                col: 0
            })
        );
        // PRE decomposition.
        let composed = sc.earliest_local_pre(1).map(|l| l.max(block));
        assert_eq!(composed, sc.earliest(&Command::Pre { bank: bank(1) }));
    }
}
