//! Independent DDR5 protocol auditor.
//!
//! [`CommandAuditor`] is a shadow checker in the DRAMSim3 lineage: it
//! observes the exact command stream the controller commits and re-derives
//! every inter-command constraint — tRCD/tRP/tRAS/tRC/tCCD/tRRD/tFAW/
//! tRFC/tRFM/tREFI/tWR/tWTR/tRTP, the ALERT back-off prologue/stall
//! windows, and row-buffer legality — from its *own* bookkeeping of raw
//! command timestamps. It deliberately shares no state with the device's
//! `earliest`/"not before" machinery in `timing.rs`/`bank.rs`, so a bug in
//! the enforcement path (or a controller path that bypasses it) surfaces
//! as a structured `protocol_violation` event instead of silently wrong
//! results.
//!
//! At most one violation is reported per offending command (the first rule
//! in check order), and the auditor keeps applying state updates after a
//! violation so one bad command does not cascade into noise. The auditor
//! can be configured with a *different* reference [`TimingParams`] than
//! the device enforces — this is how tests inject device-legal but
//! reference-illegal commands.

use std::collections::VecDeque;

use crate::address::RowMapping;
use crate::command::Command;
use crate::geometry::Geometry;
use crate::time::Ps;
use crate::timing::TimingParams;
use mirza_telemetry::{names, Json, Telemetry};

/// REF cadence tolerance, in tREFI past the nominal due time, before a
/// `tREFI` violation is flagged: DDR5's 4 postponed REFs plus 2 tREFI of
/// slack for ALERT/RFM stalls the controller legitimately absorbs before
/// repaying refresh debt.
const MAX_LATE_REFIS: u64 = 6;

/// One detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Instant the offending command was issued (ps).
    pub t_ps: u64,
    /// Violated rule (`"tRP"`, `"tFAW"`, `"abo-prologue"`, ...).
    pub rule: &'static str,
    /// Debug rendering of the offending command.
    pub cmd: String,
    /// Earliest instant the command would have been legal under the rule
    /// (0 when the command is categorically illegal, e.g. ACT to an open
    /// bank).
    pub legal_at_ps: u64,
}

/// How many violation details are retained (the total count is unbounded).
const MAX_RETAINED: usize = 64;

/// Shadow state per bank: raw timestamps of the last relevant commands.
#[derive(Debug, Clone, Default)]
struct ShadowBank {
    open_row: Option<u32>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    last_rd: Option<u64>,
    /// End of the last write *burst* (issue + CWL + tBURST).
    last_wr_end: Option<u64>,
}

/// Per-row ACT census: counts ACTs to each (bank, physical row) since that
/// row's last regular refresh and tracks running maxima — the quantity the
/// NBO bound constrains.
///
/// The census keeps its *own* shadow refresh-pointer position, derived
/// only from observed REF commands, so it stays independent of the
/// device's pointer. When used by the [`CommandAuditor`] it deliberately
/// does not credit targeted victim refreshes performed by the mitigation
/// engine, making the reported maximum a conservative upper bound; attack
/// harnesses that model the mitigation protocol faithfully may call
/// [`RowCensus::credit`] to reset a mitigated aggressor's count.
#[derive(Debug, Clone)]
pub struct RowCensus {
    mapping: RowMapping,
    rows_per_bank: u32,
    rows_per_ref: u32,
    steps_per_walk: u64,
    /// Shadow refresh-pointer step, advanced on every observed REF.
    step: u64,
    /// ACT counts since last refresh, bank-major:
    /// `counts[bank * rows_per_bank + phys_row]`.
    counts: Vec<u32>,
    /// Running per-row maximum of `counts` (same indexing).
    max_counts: Vec<u32>,
    max_seen: u32,
}

impl RowCensus {
    /// A census over `banks` banks of `rows_per_bank` rows, refreshed
    /// `rows_per_ref` rows per REF. `mapping` translates the row addresses
    /// fed to [`RowCensus::on_act`] into physical indices.
    ///
    /// # Panics
    /// Panics if `rows_per_ref` is zero or does not divide `rows_per_bank`.
    pub fn new(mapping: RowMapping, banks: usize, rows_per_bank: u32, rows_per_ref: u32) -> Self {
        assert!(rows_per_ref > 0 && rows_per_bank.is_multiple_of(rows_per_ref));
        RowCensus {
            mapping,
            rows_per_bank,
            rows_per_ref,
            steps_per_walk: u64::from(rows_per_bank / rows_per_ref),
            step: 0,
            counts: vec![0; banks * rows_per_bank as usize],
            max_counts: vec![0; banks * rows_per_bank as usize],
            max_seen: 0,
        }
    }

    fn idx(&self, bank: usize, phys: u32) -> usize {
        bank * self.rows_per_bank as usize + phys as usize
    }

    /// Records an ACT of row address `row` in `bank`.
    pub fn on_act(&mut self, bank: usize, row: u32) {
        let idx = self.idx(bank, self.mapping.phys_of(row));
        self.counts[idx] += 1;
        if self.counts[idx] > self.max_counts[idx] {
            self.max_counts[idx] = self.counts[idx];
        }
        self.max_seen = self.max_seen.max(self.counts[idx]);
    }

    /// Advances the shadow refresh pointer one step, clearing the counts of
    /// the refreshed physical rows in every bank.
    pub fn on_ref(&mut self) {
        let pos = (self.step % self.steps_per_walk) as u32;
        let start = (pos * self.rows_per_ref) as usize;
        let span = self.rows_per_ref as usize;
        let banks = self.counts.len() / self.rows_per_bank as usize;
        for bank in 0..banks {
            let base = bank * self.rows_per_bank as usize + start;
            self.counts[base..base + span].fill(0);
        }
        self.step += 1;
    }

    /// Credits a mitigation of aggressor row address `row` in `bank`: its
    /// victims were refreshed, so the row's unmitigated count resets. The
    /// per-row maximum is kept.
    pub fn credit(&mut self, bank: usize, row: u32) {
        let idx = self.idx(bank, self.mapping.phys_of(row));
        self.counts[idx] = 0;
    }

    /// Current count of row address `row` in `bank`.
    pub fn count(&self, bank: usize, row: u32) -> u32 {
        self.counts[self.idx(bank, self.mapping.phys_of(row))]
    }

    /// Running maximum count of row address `row` in `bank`.
    pub fn row_max(&self, bank: usize, row: u32) -> u32 {
        self.max_counts[self.idx(bank, self.mapping.phys_of(row))]
    }

    /// Maximum count ever observed on any row.
    pub fn max_seen(&self) -> u32 {
        self.max_seen
    }

    /// The row translation the census assumes.
    pub fn mapping(&self) -> &RowMapping {
        &self.mapping
    }

    /// Banks covered by the census.
    pub fn banks(&self) -> usize {
        self.counts.len() / self.rows_per_bank as usize
    }
}

/// Independent re-validator of a sub-channel's command stream.
#[derive(Debug)]
pub struct CommandAuditor {
    t: TimingParams,
    banks: Vec<ShadowBank>,
    /// Last up-to-four ACT instants per rank (tRRD is `back()`, tFAW is
    /// `front()` once full).
    rank_acts: Vec<VecDeque<u64>>,
    last_cmd_at: u64,
    /// Last column-command instant (channel-level tCCD).
    last_col_at: Option<u64>,
    /// REF/RFM/ABO-stall gate: no command before this instant.
    blocked_until: u64,
    blocked_rule: &'static str,
    refs_seen: u64,
    /// Instant ALERT asserted, until the back-off RFM services it.
    alert_since: Option<u64>,
    refresh_late_flagged: bool,
    violation_count: u64,
    recent: Vec<Violation>,
    commands_checked: u64,
    /// Per-row ACT census, when enabled (fault runs / security verdicts).
    census: Option<RowCensus>,
}

impl CommandAuditor {
    /// An auditor validating against `reference` timing for a sub-channel
    /// of the given geometry.
    pub fn new(reference: TimingParams, geom: &Geometry) -> Self {
        CommandAuditor {
            t: reference,
            banks: vec![ShadowBank::default(); geom.banks_per_subchannel() as usize],
            rank_acts: vec![VecDeque::with_capacity(4); geom.ranks as usize],
            last_cmd_at: 0,
            last_col_at: None,
            blocked_until: 0,
            blocked_rule: "tRFC",
            refs_seen: 0,
            alert_since: None,
            refresh_late_flagged: false,
            violation_count: 0,
            recent: Vec::new(),
            commands_checked: 0,
            census: None,
        }
    }

    /// Enables the per-row ACT census used for security verdicts. `mapping`
    /// is the row translation the metrics/verdict view assumes;
    /// `rows_per_bank`/`rows_per_ref` mirror the device geometry.
    ///
    /// # Panics
    /// Panics if `rows_per_ref` is zero or does not divide `rows_per_bank`.
    pub fn enable_row_tracking(
        &mut self,
        mapping: RowMapping,
        rows_per_bank: u32,
        rows_per_ref: u32,
    ) {
        self.census = Some(RowCensus::new(
            mapping,
            self.banks.len(),
            rows_per_bank,
            rows_per_ref,
        ));
    }

    /// Maximum ACTs observed to any single row between its refreshes
    /// (0 when row tracking is disabled).
    pub fn max_row_acts(&self) -> u32 {
        self.census.as_ref().map_or(0, RowCensus::max_seen)
    }

    /// Total violations detected.
    pub fn violations(&self) -> u64 {
        self.violation_count
    }

    /// Details of the first 64 violations; [`CommandAuditor::violations`]
    /// counts them all.
    pub fn recent_violations(&self) -> &[Violation] {
        &self.recent
    }

    /// Commands observed so far.
    pub fn commands_checked(&self) -> u64 {
        self.commands_checked
    }

    /// Records that the device asserted ALERT at `t_ps`; the ABO window
    /// rules apply until the servicing `Rfm { alert: true }`.
    pub fn note_alert(&mut self, t_ps: u64) {
        if self.alert_since.is_none() {
            self.alert_since = Some(t_ps);
        }
    }

    /// Validates one committed command, reporting at most one violation
    /// (counted, retained, and emitted as a `protocol_violation` event and
    /// an `audit.violations` counter increment on `telemetry`).
    pub fn observe(&mut self, cmd: &Command, now: Ps, telemetry: &Telemetry) {
        self.commands_checked += 1;
        let now_ps = now.as_ps();
        let verdict = self.check(cmd, now_ps);
        self.apply(cmd, now_ps);
        if let Some((rule, legal_at_ps)) = verdict {
            self.flag(cmd, now_ps, rule, legal_at_ps, telemetry);
        }
    }

    /// First violated rule for `cmd` at `now`, with the earliest legal
    /// instant, or `None` when the command is clean.
    fn check(&mut self, cmd: &Command, now: u64) -> Option<(&'static str, u64)> {
        if now < self.last_cmd_at {
            return Some(("order", self.last_cmd_at));
        }
        if now < self.blocked_until {
            return Some((self.blocked_rule, self.blocked_until));
        }
        let t = &self.t;
        match *cmd {
            Command::Act { bank, .. } => {
                let flat = self.flat(cmd).expect("ACT has a bank");
                let rank = bank.rank as usize;
                let b = &self.banks[flat];
                if b.open_row.is_some() {
                    return Some(("act-open-bank", 0));
                }
                if let Some(p) = b.last_pre {
                    if now < p + t.t_rp.as_ps() {
                        return Some(("tRP", p + t.t_rp.as_ps()));
                    }
                }
                if let Some(a) = b.last_act {
                    if now < a + t.t_rc.as_ps() {
                        return Some(("tRC", a + t.t_rc.as_ps()));
                    }
                }
                if let Some(&last) = self.rank_acts[rank].back() {
                    if now < last + t.t_rrd.as_ps() {
                        return Some(("tRRD", last + t.t_rrd.as_ps()));
                    }
                }
                if self.rank_acts[rank].len() == 4 {
                    let oldest = self.rank_acts[rank][0];
                    if now < oldest + t.t_faw.as_ps() {
                        return Some(("tFAW", oldest + t.t_faw.as_ps()));
                    }
                }
                self.check_abo_window(now)
                    .or_else(|| self.check_ref_cadence(now))
            }
            Command::Pre { .. } => {
                let flat = self.flat(cmd).expect("PRE has a bank");
                self.check_pre_bank(flat, now)
                    .or_else(|| self.check_ref_cadence(now))
            }
            Command::PreAll => {
                for flat in 0..self.banks.len() {
                    if self.banks[flat].open_row.is_some() {
                        if let Some(v) = self.check_pre_bank(flat, now) {
                            return Some(v);
                        }
                    }
                }
                self.check_ref_cadence(now)
            }
            Command::Rd { .. } => {
                let flat = self.flat(cmd).expect("RD has a bank");
                let b = &self.banks[flat];
                if b.open_row.is_none() {
                    return Some(("rd-closed-bank", 0));
                }
                if let Some(a) = b.last_act {
                    if now < a + t.t_rcd.as_ps() {
                        return Some(("tRCD", a + t.t_rcd.as_ps()));
                    }
                }
                if let Some(c) = self.last_col_at {
                    if now < c + t.t_ccd.as_ps() {
                        return Some(("tCCD", c + t.t_ccd.as_ps()));
                    }
                }
                if let Some(w) = b.last_wr_end {
                    if now < w + t.t_wtr.as_ps() {
                        return Some(("tWTR", w + t.t_wtr.as_ps()));
                    }
                }
                self.check_abo_window(now)
                    .or_else(|| self.check_ref_cadence(now))
            }
            Command::Wr { .. } => {
                let flat = self.flat(cmd).expect("WR has a bank");
                let b = &self.banks[flat];
                if b.open_row.is_none() {
                    return Some(("wr-closed-bank", 0));
                }
                if let Some(a) = b.last_act {
                    if now < a + t.t_rcd.as_ps() {
                        return Some(("tRCD", a + t.t_rcd.as_ps()));
                    }
                }
                if let Some(c) = self.last_col_at {
                    if now < c + t.t_ccd.as_ps() {
                        return Some(("tCCD", c + t.t_ccd.as_ps()));
                    }
                }
                self.check_abo_window(now)
                    .or_else(|| self.check_ref_cadence(now))
            }
            Command::Ref | Command::Rfm { .. } => {
                for b in &self.banks {
                    if b.open_row.is_some() {
                        return Some(("allbank-open-bank", 0));
                    }
                    if let Some(p) = b.last_pre {
                        if now < p + t.t_rp.as_ps() {
                            return Some(("tRP", p + t.t_rp.as_ps()));
                        }
                    }
                }
                None
            }
        }
    }

    /// tRAS / tRTP / tWR rules for precharging one bank.
    fn check_pre_bank(&self, flat: usize, now: u64) -> Option<(&'static str, u64)> {
        let t = &self.t;
        let b = &self.banks[flat];
        if b.open_row.is_none() {
            return Some(("pre-closed-bank", 0));
        }
        if let Some(a) = b.last_act {
            if now < a + t.t_ras.as_ps() {
                return Some(("tRAS", a + t.t_ras.as_ps()));
            }
        }
        if let Some(r) = b.last_rd {
            if now < r + t.t_rtp.as_ps() {
                return Some(("tRTP", r + t.t_rtp.as_ps()));
            }
        }
        if let Some(w) = b.last_wr_end {
            if now < w + t.t_wr.as_ps() {
                return Some(("tWR", w + t.t_wr.as_ps()));
            }
        }
        None
    }

    /// ABO prologue: once ALERT has been asserted for longer than the
    /// prologue window, the controller must have stopped demand traffic
    /// until the back-off RFM services the alert.
    fn check_abo_window(&self, now: u64) -> Option<(&'static str, u64)> {
        let t0 = self.alert_since?;
        let deadline = t0 + self.t.t_alert_prologue.as_ps();
        (now > deadline).then_some(("abo-prologue", deadline))
    }

    /// tREFI cadence: flags (once per lapse) when the stream runs more
    /// than [`MAX_LATE_REFIS`] tREFI past the next nominal REF due time.
    fn check_ref_cadence(&mut self, now: u64) -> Option<(&'static str, u64)> {
        if self.refresh_late_flagged {
            return None;
        }
        let refi = self.t.t_refi.as_ps();
        let deadline = (self.refs_seen + 1 + MAX_LATE_REFIS) * refi;
        if now > deadline {
            self.refresh_late_flagged = true;
            return Some(("tREFI", deadline));
        }
        None
    }

    /// Applies `cmd`'s effect on the shadow state (always, even after a
    /// violation, so one bad command does not cascade).
    fn apply(&mut self, cmd: &Command, now: u64) {
        self.last_cmd_at = self.last_cmd_at.max(now);
        let t = self.t.clone();
        match *cmd {
            Command::Act { bank, row } => {
                let flat = self.flat(cmd).expect("ACT has a bank");
                let rank = bank.rank as usize;
                if let Some(c) = &mut self.census {
                    c.on_act(flat, row);
                }
                let b = &mut self.banks[flat];
                b.open_row = Some(row);
                b.last_act = Some(now);
                let acts = &mut self.rank_acts[rank];
                acts.push_back(now);
                if acts.len() > 4 {
                    acts.pop_front();
                }
            }
            Command::Pre { .. } => {
                let flat = self.flat(cmd).expect("PRE has a bank");
                let b = &mut self.banks[flat];
                if b.open_row.take().is_some() {
                    b.last_pre = Some(now);
                }
            }
            Command::PreAll => {
                for b in &mut self.banks {
                    if b.open_row.take().is_some() {
                        b.last_pre = Some(now);
                    }
                }
            }
            Command::Rd { .. } => {
                let flat = self.flat(cmd).expect("RD has a bank");
                self.banks[flat].last_rd = Some(now);
                self.last_col_at = Some(now);
            }
            Command::Wr { .. } => {
                let flat = self.flat(cmd).expect("WR has a bank");
                self.banks[flat].last_wr_end = Some(now + (t.cwl + t.t_burst).as_ps());
                self.last_col_at = Some(now);
            }
            Command::Ref => {
                let until = now + t.t_rfc.as_ps();
                if until > self.blocked_until {
                    self.blocked_until = until;
                    self.blocked_rule = "tRFC";
                }
                self.refs_seen += 1;
                self.refresh_late_flagged = false;
                if let Some(c) = &mut self.census {
                    c.on_ref();
                }
            }
            Command::Rfm { alert } => {
                let dur = if alert {
                    t.t_rfm.max(t.t_alert_stall)
                } else {
                    t.t_rfm
                };
                let until = now + dur.as_ps();
                if until > self.blocked_until {
                    self.blocked_until = until;
                    self.blocked_rule = if alert { "abo-stall" } else { "tRFM" };
                }
                if alert {
                    self.alert_since = None;
                }
            }
        }
    }

    fn flat(&self, cmd: &Command) -> Option<usize> {
        // Shadow banks are indexed rank-major within the sub-channel,
        // mirroring `BankId::flat_in_subchannel` but derived here from the
        // bank count per rank so the auditor stays self-contained.
        let bank = cmd.bank()?;
        let banks_per_rank = self.banks.len() / self.rank_acts.len();
        Some(bank.rank as usize * banks_per_rank + bank.bank as usize)
    }

    fn flag(
        &mut self,
        cmd: &Command,
        now: u64,
        rule: &'static str,
        legal_at_ps: u64,
        telemetry: &Telemetry,
    ) {
        self.violation_count += 1;
        if self.recent.len() < MAX_RETAINED {
            self.recent.push(Violation {
                t_ps: now,
                rule,
                cmd: format!("{cmd:?}"),
                legal_at_ps,
            });
        }
        telemetry.inc(names::AUDIT_VIOLATIONS, 1);
        if telemetry.is_enabled() {
            telemetry.event(
                now,
                names::EV_PROTOCOL_VIOLATION,
                &[
                    ("rule", Json::Str(rule.to_string())),
                    ("cmd", Json::Str(format!("{cmd:?}"))),
                    ("legal_at_ps", Json::U64(legal_at_ps)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{BankId, MappingScheme, RowMapping};
    use crate::device::Subchannel;
    use crate::mitigation::NullMitigator;
    use mirza_telemetry::{EventSink, SharedBuf};

    fn bank(i: u32) -> BankId {
        BankId::new(0, 0, i)
    }

    fn auditor() -> CommandAuditor {
        CommandAuditor::new(TimingParams::ddr5_6000(), &Geometry::ddr5_32gb())
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let mut a = auditor();
        let t = TimingParams::ddr5_6000();
        let tel = Telemetry::disabled();
        let act = Command::Act {
            bank: bank(0),
            row: 7,
        };
        a.observe(&act, Ps::ZERO, &tel);
        let rd = Command::Rd {
            bank: bank(0),
            col: 0,
        };
        a.observe(&rd, t.t_rcd, &tel);
        let pre = Command::Pre { bank: bank(0) };
        a.observe(&pre, t.t_ras, &tel);
        a.observe(&act, t.t_rc, &tel);
        assert_eq!(a.violations(), 0);
        assert_eq!(a.commands_checked(), 4);
    }

    #[test]
    fn early_act_after_pre_flags_exactly_one_trp_violation() {
        // A deliberately permissive device (tRP = 0, tRC = tRAS) accepts an
        // ACT the DDR5-6000 reference forbids; the auditor — configured
        // with the real reference — must flag it, exactly once, as a
        // structured event.
        let mut permissive = TimingParams::ddr5_6000();
        permissive.t_rp = Ps::ZERO;
        permissive.t_rc = permissive.t_ras;
        permissive
            .validate()
            .expect("permissive set is self-consistent");
        let geom = Geometry::ddr5_32gb();
        let mut sc = Subchannel::new(
            permissive.clone(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            Box::new(NullMitigator::new()),
        );
        sc.enable_audit_with(TimingParams::ddr5_6000());
        let buf = SharedBuf::new();
        sc.set_telemetry(Telemetry::enabled().with_events(EventSink::new(buf.writer())));

        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::ZERO,
        );
        sc.issue(Command::Pre { bank: bank(0) }, permissive.t_ras);
        // Device-legal (tRP = 0, tRC = tRAS) but 14 ns too early for the
        // reference's tRP.
        sc.issue(
            Command::Act {
                bank: bank(0),
                row: 2,
            },
            permissive.t_ras,
        );

        let audit = sc.auditor().expect("audit enabled");
        assert_eq!(audit.violations(), 1);
        let v = &audit.recent_violations()[0];
        assert_eq!(v.rule, "tRP");
        assert_eq!(v.t_ps, permissive.t_ras.as_ps());
        assert_eq!(
            v.legal_at_ps,
            (permissive.t_ras + TimingParams::ddr5_6000().t_rp).as_ps()
        );

        let events: Vec<Json> = buf
            .contents()
            .lines()
            .map(|l| Json::parse(l).expect("event line parses"))
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("protocol_violation"))
            .collect();
        assert_eq!(events.len(), 1, "exactly one structured violation event");
        assert_eq!(events[0].get("rule").unwrap().as_str(), Some("tRP"));
    }

    #[test]
    fn fifth_act_inside_faw_window_flags_tfaw() {
        let mut a = auditor();
        let t = TimingParams::ddr5_6000();
        let tel = Telemetry::disabled();
        let mut now = Ps::ZERO;
        for i in 0..4 {
            a.observe(
                &Command::Act {
                    bank: bank(i),
                    row: 1,
                },
                now,
                &tel,
            );
            now += t.t_rrd;
        }
        assert_eq!(a.violations(), 0);
        // 5th ACT only tRRD after the 4th: inside the tFAW window.
        a.observe(
            &Command::Act {
                bank: bank(4),
                row: 1,
            },
            now,
            &tel,
        );
        assert_eq!(a.violations(), 1);
        assert_eq!(a.recent_violations()[0].rule, "tFAW");
        assert_eq!(a.recent_violations()[0].legal_at_ps, t.t_faw.as_ps());
    }

    #[test]
    fn command_during_trfc_flags_block() {
        let mut a = auditor();
        let t = TimingParams::ddr5_6000();
        let tel = Telemetry::enabled();
        a.observe(&Command::Ref, Ps::ZERO, &tel);
        a.observe(
            &Command::Act {
                bank: bank(0),
                row: 1,
            },
            t.t_rfc - Ps::from_ns(1),
            &tel,
        );
        assert_eq!(a.violations(), 1);
        assert_eq!(a.recent_violations()[0].rule, "tRFC");
        assert_eq!(tel.counter("audit.violations"), 1);
    }

    #[test]
    fn refresh_starvation_flags_trefi_once_per_lapse() {
        let mut a = auditor();
        let t = TimingParams::ddr5_6000();
        let tel = Telemetry::disabled();
        // No REF for 10 tREFI while demand keeps running: one flag.
        let late = t.t_refi * 10;
        a.observe(
            &Command::Act {
                bank: bank(0),
                row: 1,
            },
            late,
            &tel,
        );
        a.observe(
            &Command::Rd {
                bank: bank(0),
                col: 0,
            },
            late + t.t_rcd,
            &tel,
        );
        assert_eq!(a.violations(), 1, "flagged once per lapse, not per command");
        assert_eq!(a.recent_violations()[0].rule, "tREFI");
        // A REF repays the debt and re-arms the check.
        a.observe(&Command::Pre { bank: bank(0) }, late + t.t_ras, &tel);
        a.observe(&Command::Ref, late + t.t_rc, &tel);
        assert_eq!(a.violations(), 1);
    }

    #[test]
    fn abo_window_polices_demand_after_prologue() {
        let mut a = auditor();
        let t = TimingParams::ddr5_6000();
        let tel = Telemetry::disabled();
        a.observe(
            &Command::Act {
                bank: bank(0),
                row: 1,
            },
            Ps::ZERO,
            &tel,
        );
        a.note_alert(0);
        // Demand ACT inside the prologue is fine...
        a.observe(
            &Command::Act {
                bank: bank(1),
                row: 1,
            },
            t.t_alert_prologue,
            &tel,
        );
        assert_eq!(a.violations(), 0);
        // ...but past it, with the alert still unserviced, it is not.
        a.observe(
            &Command::Act {
                bank: bank(2),
                row: 1,
            },
            t.t_alert_prologue + t.t_rrd,
            &tel,
        );
        assert_eq!(a.violations(), 1);
        assert_eq!(a.recent_violations()[0].rule, "abo-prologue");
    }

    #[test]
    fn device_clean_run_stays_clean_under_audit() {
        // The same ACT/RD/PRE cycle the device tests use, with auditing on
        // and the same reference timing: nothing may be flagged.
        let geom = Geometry::ddr5_32gb();
        let mut sc = Subchannel::new(
            TimingParams::ddr5_6000(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            Box::new(NullMitigator::new()),
        );
        sc.enable_audit();
        let mut now = Ps::ZERO;
        for i in 0..8u32 {
            let act = Command::Act {
                bank: bank(i % 4),
                row: i,
            };
            if let Some(e) = sc.earliest(&act) {
                now = e.max(now);
                sc.issue(act, now);
                let rd = Command::Rd {
                    bank: bank(i % 4),
                    col: 0,
                };
                let e = sc.earliest(&rd).unwrap();
                now = e.max(now);
                sc.issue(rd, now);
                let pre = Command::Pre { bank: bank(i % 4) };
                let e = sc.earliest(&pre).unwrap();
                now = e.max(now);
                sc.issue(pre, now);
            }
        }
        let e = sc.earliest(&Command::Ref).unwrap();
        sc.issue(Command::Ref, e.max(now));
        let audit = sc.auditor().unwrap();
        assert_eq!(audit.violations(), 0);
        assert_eq!(audit.commands_checked(), 25);
    }
}
