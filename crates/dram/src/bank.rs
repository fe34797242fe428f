//! Per-bank timing state machine.
//!
//! Each bank tracks its open row and the earliest instant at which each
//! command class may legally be issued to it. The sub-channel device layers
//! rank-level constraints (tRRD, tFAW, refresh) on top.

use crate::time::Ps;
use crate::timing::TimingParams;

/// Timing and row-buffer state of a single bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankState {
    open_row: Option<u32>,
    next_act: Ps,
    next_pre: Ps,
    next_rd: Ps,
    next_wr: Ps,
    last_act_at: Ps,
}

impl Default for BankState {
    fn default() -> Self {
        Self::new()
    }
}

impl BankState {
    /// A freshly powered-up, precharged bank.
    pub fn new() -> Self {
        BankState {
            open_row: None,
            next_act: Ps::ZERO,
            next_pre: Ps::ZERO,
            next_rd: Ps::ZERO,
            next_wr: Ps::ZERO,
            last_act_at: Ps::ZERO,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Time of the most recent ACT to this bank.
    pub fn last_act_at(&self) -> Ps {
        self.last_act_at
    }

    /// Earliest instant an ACT may be issued (bank must be precharged).
    ///
    /// Returns `None` while a row is open (a PRE must come first).
    pub fn earliest_act(&self) -> Option<Ps> {
        if self.open_row.is_some() {
            None
        } else {
            Some(self.next_act)
        }
    }

    /// Earliest instant a PRE may be issued. `None` if already precharged.
    pub fn earliest_pre(&self) -> Option<Ps> {
        self.open_row.map(|_| self.next_pre)
    }

    /// Earliest instant a RD to `row` may be issued. `None` on row mismatch
    /// or closed bank.
    pub fn earliest_rd(&self, row: u32) -> Option<Ps> {
        (self.open_row == Some(row)).then_some(self.next_rd)
    }

    /// Earliest instant a WR to `row` may be issued. `None` on row mismatch
    /// or closed bank.
    pub fn earliest_wr(&self, row: u32) -> Option<Ps> {
        (self.open_row == Some(row)).then_some(self.next_wr)
    }

    /// Applies an ACT issued at `now`.
    ///
    /// # Panics
    /// Panics if the bank is not precharged or `now` violates timing; the
    /// memory controller must consult [`earliest_act`](Self::earliest_act).
    pub fn issue_act(&mut self, row: u32, now: Ps, t: &TimingParams) {
        assert!(self.open_row.is_none(), "ACT to bank with open row");
        assert!(now >= self.next_act, "ACT violates tRC/tRP at {now}");
        self.open_row = Some(row);
        self.last_act_at = now;
        self.next_pre = now + t.t_ras;
        self.next_rd = now + t.t_rcd;
        self.next_wr = now + t.t_rcd;
        // Same-bank ACT-to-ACT: enforced through PRE (tRAS + tRP) and tRC.
        self.next_act = now + t.t_rc;
    }

    /// Applies a PRE issued at `now`.
    ///
    /// # Panics
    /// Panics if the bank is precharged or `now` violates timing.
    pub fn issue_pre(&mut self, now: Ps, t: &TimingParams) {
        assert!(self.open_row.is_some(), "PRE to precharged bank");
        assert!(now >= self.next_pre, "PRE violates tRAS/tRTP/tWR at {now}");
        self.open_row = None;
        self.next_act = self.next_act.max(now + t.t_rp);
    }

    /// Applies a RD burst issued at `now`. Returns the instant the data burst
    /// completes on the bus (`now + CL + tBURST`).
    ///
    /// # Panics
    /// Panics on row mismatch or timing violation.
    pub fn issue_rd(&mut self, row: u32, now: Ps, t: &TimingParams) -> Ps {
        assert_eq!(self.open_row, Some(row), "RD row mismatch");
        assert!(now >= self.next_rd, "RD violates tRCD/tCCD at {now}");
        self.next_rd = now + t.t_ccd;
        self.next_wr = self.next_wr.max(now + t.t_ccd);
        // Read-to-precharge.
        self.next_pre = self.next_pre.max(now + t.t_rtp);
        now + t.cl + t.t_burst
    }

    /// Applies a WR burst issued at `now`. Returns the instant the data burst
    /// completes on the bus (`now + CWL + tBURST`).
    ///
    /// # Panics
    /// Panics on row mismatch or timing violation.
    pub fn issue_wr(&mut self, row: u32, now: Ps, t: &TimingParams) -> Ps {
        assert_eq!(self.open_row, Some(row), "WR row mismatch");
        assert!(now >= self.next_wr, "WR violates tRCD/tCCD at {now}");
        let burst_end = now + t.cwl + t.t_burst;
        self.next_wr = now + t.t_ccd;
        // Write-to-read turnaround and write recovery.
        self.next_rd = self.next_rd.max(burst_end + t.t_wtr);
        self.next_pre = self.next_pre.max(burst_end + t.t_wr);
        burst_end
    }

    /// Blocks the bank until `until` (used for REF/RFM/ALERT stalls).
    ///
    /// # Panics
    /// Panics if a row is open; all banks must be precharged first.
    pub fn block_until(&mut self, until: Ps) {
        assert!(self.open_row.is_none(), "bank busy during blocking command");
        self.next_act = self.next_act.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr5_6000()
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(7, Ps::ZERO, &t);
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.earliest_rd(7), Some(t.t_rcd));
        assert_eq!(b.earliest_rd(8), None);
        let done = b.issue_rd(7, t.t_rcd, &t);
        assert_eq!(done, t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn act_to_act_same_bank_is_trc() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(1, Ps::ZERO, &t);
        b.issue_pre(t.t_ras, &t);
        // PRE at tRAS -> next ACT at max(tRC, tRAS + tRP) = tRC (46 = 32+14).
        assert_eq!(b.earliest_act(), Some(t.t_rc));
        b.issue_act(2, t.t_rc, &t);
        assert_eq!(b.open_row(), Some(2));
    }

    #[test]
    fn read_extends_precharge_by_trtp() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(1, Ps::ZERO, &t);
        let late_rd = t.t_ras; // read issued late in the row cycle
        b.issue_rd(1, late_rd, &t);
        assert_eq!(b.earliest_pre(), Some(late_rd + t.t_rtp));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(1, Ps::ZERO, &t);
        let wr_at = t.t_rcd;
        let burst_end = b.issue_wr(1, wr_at, &t);
        assert_eq!(burst_end, wr_at + t.cwl + t.t_burst);
        assert_eq!(b.earliest_pre(), Some(burst_end + t.t_wr));
        // Write-to-read turnaround.
        assert_eq!(b.earliest_rd(1), Some(burst_end + t.t_wtr));
    }

    #[test]
    #[should_panic(expected = "ACT to bank with open row")]
    fn double_act_panics() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(1, Ps::ZERO, &t);
        b.issue_act(2, t.t_rc, &t);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn early_pre_panics() {
        let t = t();
        let mut b = BankState::new();
        b.issue_act(1, Ps::ZERO, &t);
        b.issue_pre(Ps::from_ns(1), &t);
    }

    #[test]
    fn block_until_defers_act() {
        let mut b = BankState::new();
        b.block_until(Ps::from_ns(410));
        assert_eq!(b.earliest_act(), Some(Ps::from_ns(410)));
    }
}
