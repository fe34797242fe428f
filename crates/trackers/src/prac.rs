//! PRAC + ABO with the MOAT policy (Sections II-G, VII).
//!
//! Per-Row Activation Counting keeps one counter in the DRAM array per row,
//! incremented on every ACT. A row whose counter reaches the *Alert
//! Threshold* (ATH) joins its bank's pending stack, and ALERT stays raised
//! while any bank has a pending row. Each back-off RFM pops the most recent
//! row to reach ATH in every bank (last in, first out; not necessarily the
//! bank's hottest row), mitigates it and clears its counter. Row counters
//! are cleared when the refresh-pointer walk refreshes the row, which also
//! drops the row from its pending stack.
//!
//! The *performance* cost of PRAC (inflated tRP/tRAS/tRC) is modeled by
//! running the device with [`TimingParams::ddr5_6000_prac`]; this module
//! models only the tracking/mitigation side.
//!
//! [`TimingParams::ddr5_6000_prac`]: mirza_dram::timing::TimingParams::ddr5_6000_prac

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{MitigationLog, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::time::Ps;

/// PRAC per-row counters with MOAT-style reactive mitigation.
pub struct PracMoat {
    /// Alert threshold: a row reaching this count raises ALERT.
    ath: u32,
    mapping: RowMapping,
    rows_per_bank: u32,
    /// Per-bank, per-row activation counters.
    counters: Vec<Vec<u16>>,
    /// Rows at/above ATH awaiting mitigation, per bank, in the order they
    /// reached ATH.
    pending: Vec<Vec<u32>>,
    /// Total length of the `pending` lists: ALERT is `pending_rows > 0`.
    pending_rows: usize,
    stats: MitigationStats,
    log: MitigationLog,
}

impl std::fmt::Debug for PracMoat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PracMoat")
            .field("ath", &self.ath)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PracMoat {
    /// Creates PRAC+MOAT for one sub-channel with alert threshold `ath`.
    ///
    /// MOAT's security bound is `TRH > 2*ATH + ABO slack`; for the paper's
    /// thresholds (>= 500) a comfortable choice is `ath = trh / 4`.
    ///
    /// # Panics
    /// Panics if `ath` is zero or does not fit the 16-bit counter model.
    pub fn new(ath: u32, geom: &Geometry) -> Self {
        assert!(ath > 0, "ATH must be non-zero");
        assert!(ath <= u32::from(u16::MAX), "ATH exceeds counter width");
        let banks = geom.banks_per_subchannel() as usize;
        PracMoat {
            ath,
            // PRAC counters index physical rows directly; the mapping is
            // only needed to translate aggressors to victims.
            mapping: RowMapping::for_geometry(MappingScheme::Sequential, geom),
            rows_per_bank: geom.rows_per_bank,
            counters: vec![vec![0; geom.rows_per_bank as usize]; banks],
            pending: vec![Vec::new(); banks],
            pending_rows: 0,
            stats: MitigationStats::default(),
            log: MitigationLog::new(),
        }
    }

    /// Creates the configuration used for a target double-sided threshold.
    pub fn for_trhd(trhd: u32, geom: &Geometry) -> Self {
        Self::new((trhd / 4).max(1), geom)
    }

    /// The alert threshold.
    pub fn ath(&self) -> u32 {
        self.ath
    }

    /// Current counter of `row` in `bank`.
    pub fn counter(&self, bank: usize, row: u32) -> u32 {
        u32::from(self.counters[bank][row as usize])
    }

    fn mitigate(&mut self, bank: usize, row: u32) {
        self.counters[bank][row as usize] = 0;
        self.stats.mitigations += 1;
        self.stats.victim_rows_refreshed += self.mapping.neighbors(row, 2).len() as u64;
        self.log.push(bank, row);
    }
}

impl Mitigator for PracMoat {
    fn name(&self) -> &'static str {
        "prac-moat"
    }

    fn on_activate(&mut self, bank: usize, row: u32, _now: Ps) {
        self.stats.acts_observed += 1;
        self.stats.acts_candidate += 1;
        let c = &mut self.counters[bank][row as usize];
        // Queue the row on the ACT that moves its counter onto ATH. At
        // ATH = u16::MAX the saturated counter stays there, and later ACTs
        // must not queue the row again.
        if u32::from(*c) + 1 == self.ath {
            self.pending[bank].push(row);
            self.pending_rows += 1;
        }
        *c = c.saturating_add(1);
    }

    fn alert_pending(&self) -> bool {
        self.pending_rows > 0
    }

    fn on_ref(&mut self, slice: &RefreshSlice, _now: Ps) {
        debug_assert!(slice.phys_rows.end <= self.rows_per_bank);
        let refreshed = slice.phys_rows.start as usize..slice.phys_rows.end as usize;
        // Refreshed rows restart their disturbance budget.
        for (counters, pending) in self.counters.iter_mut().zip(&mut self.pending) {
            counters[refreshed.clone()].fill(0);
            if !pending.is_empty() {
                let before = pending.len();
                pending.retain(|&r| u32::from(counters[r as usize]) >= self.ath);
                self.pending_rows -= before - pending.len();
            }
        }
    }

    fn on_rfm(&mut self, alert: bool, _now: Ps) {
        if alert {
            self.stats.alerts_requested += 1;
        }
        if self.pending_rows == 0 {
            return;
        }
        for bank in 0..self.pending.len() {
            if let Some(row) = self.pending[bank].pop() {
                self.pending_rows -= 1;
                self.mitigate(bank, row);
            }
        }
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn mapping(&self) -> Option<&RowMapping> {
        Some(&self.mapping)
    }

    fn drain_mitigations(&mut self) -> Vec<(usize, u32)> {
        self.log.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom() -> Geometry {
        Geometry {
            subchannels: 1,
            ranks: 1,
            banks: 2,
            rows_per_bank: 4096,
            row_bytes: 4096,
            line_bytes: 64,
            subarrays_per_bank: 4,
            rows_per_ref: 16,
        }
    }

    /// PRAC+MOAT without the running pending count: ALERT walks every
    /// bank's pending list and REF clears refreshed rows one at a time.
    struct Reference {
        ath: u32,
        mapping: RowMapping,
        counters: Vec<Vec<u16>>,
        pending: Vec<Vec<u32>>,
        stats: MitigationStats,
        log: Vec<(usize, u32)>,
    }

    impl Reference {
        fn new(ath: u32, geom: &Geometry) -> Self {
            let banks = geom.banks_per_subchannel() as usize;
            Reference {
                ath,
                mapping: RowMapping::for_geometry(MappingScheme::Sequential, geom),
                counters: vec![vec![0; geom.rows_per_bank as usize]; banks],
                pending: vec![Vec::new(); banks],
                stats: MitigationStats::default(),
                log: Vec::new(),
            }
        }

        fn on_activate(&mut self, bank: usize, row: u32) {
            self.stats.acts_observed += 1;
            self.stats.acts_candidate += 1;
            let c = &mut self.counters[bank][row as usize];
            let before = *c;
            *c = c.saturating_add(1);
            if *c != before && u32::from(*c) == self.ath {
                self.pending[bank].push(row);
            }
        }

        fn alert_pending(&self) -> bool {
            self.pending.iter().any(|p| !p.is_empty())
        }

        fn on_ref(&mut self, slice: &RefreshSlice) {
            for bank in 0..self.counters.len() {
                for phys in slice.phys_rows.clone() {
                    self.counters[bank][phys as usize] = 0;
                }
                let counters = &self.counters[bank];
                self.pending[bank].retain(|&r| u32::from(counters[r as usize]) >= self.ath);
            }
        }

        fn on_rfm(&mut self, alert: bool) {
            if alert {
                self.stats.alerts_requested += 1;
            }
            for bank in 0..self.pending.len() {
                if let Some(row) = self.pending[bank].pop() {
                    self.counters[bank][row as usize] = 0;
                    self.stats.mitigations += 1;
                    self.stats.victim_rows_refreshed += self.mapping.neighbors(row, 2).len() as u64;
                    self.log.push((bank, row));
                }
            }
        }
    }

    fn small_geom() -> Geometry {
        Geometry {
            rows_per_bank: 64,
            rows_per_ref: 8,
            ..geom()
        }
    }

    proptest! {
        /// Random ACT/REF/RFM sequences over a few hot rows: ALERT equals
        /// "some bank has a pending row" after every step, and counters,
        /// stats and mitigated rows match the reference.
        #[test]
        fn running_pending_count_matches_reference(
            ath in 1u32..6,
            alphabet in 1u32..48,
            ops in prop::collection::vec((0u8..16, 0usize..2, any::<u32>()), 0..600),
        ) {
            let g = small_geom();
            let mut prac = PracMoat::new(ath, &g);
            let mut reference = Reference::new(ath, &g);
            let slices = u64::from(g.rows_per_bank / g.rows_per_ref);
            let mut refs = 0u64;
            for (op, bank, r) in ops {
                match op {
                    0..=11 => {
                        prac.on_activate(bank, r % alphabet, Ps::ZERO);
                        reference.on_activate(bank, r % alphabet);
                    }
                    12 | 13 => {
                        let start = (refs % slices) as u32 * g.rows_per_ref;
                        let slice = RefreshSlice {
                            index: refs,
                            phys_rows: start..start + g.rows_per_ref,
                        };
                        refs += 1;
                        prac.on_ref(&slice, Ps::ZERO);
                        reference.on_ref(&slice);
                    }
                    _ => {
                        prac.on_rfm(op == 14, Ps::ZERO);
                        reference.on_rfm(op == 14);
                    }
                }
                prop_assert_eq!(prac.alert_pending(), prac.pending.iter().any(|p| !p.is_empty()));
                prop_assert_eq!(prac.alert_pending(), reference.alert_pending());
                prop_assert_eq!(prac.stats(), reference.stats);
                for b in 0..2 {
                    for row in 0..g.rows_per_bank {
                        prop_assert_eq!(
                            prac.counter(b, row),
                            u32::from(reference.counters[b][row as usize])
                        );
                    }
                }
            }
            prop_assert_eq!(prac.drain_mitigations(), reference.log);
        }
    }

    #[test]
    fn saturated_counter_queues_its_row_once() {
        // At ATH = u16::MAX the counter saturates on ATH itself: only the
        // ACT that reaches ATH queues the row, not the ones after it.
        let mut p = PracMoat::new(u32::from(u16::MAX), &geom());
        for _ in 0..70_000 {
            p.on_activate(0, 7, Ps::ZERO);
        }
        assert_eq!(p.pending[0], vec![7]);
        assert!(p.alert_pending());
        p.on_rfm(true, Ps::ZERO);
        assert_eq!(p.counter(0, 7), 0);
        assert!(!p.alert_pending(), "one RFM clears the only queued copy");
        p.on_rfm(true, Ps::ZERO);
        assert_eq!(p.stats().mitigations, 1, "no stale copy is mitigated again");
    }

    #[test]
    fn no_alert_below_ath() {
        let mut p = PracMoat::new(100, &geom());
        for _ in 0..99 {
            p.on_activate(0, 7, Ps::ZERO);
        }
        assert!(!p.alert_pending());
        assert_eq!(p.counter(0, 7), 99);
    }

    #[test]
    fn alert_at_ath_and_mitigation_resets() {
        let mut p = PracMoat::new(100, &geom());
        for _ in 0..100 {
            p.on_activate(0, 7, Ps::ZERO);
        }
        assert!(p.alert_pending());
        p.on_rfm(true, Ps::ZERO);
        assert!(!p.alert_pending());
        assert_eq!(p.counter(0, 7), 0);
        let s = p.stats();
        assert_eq!(s.mitigations, 1);
        assert_eq!(s.alerts_requested, 1);
        assert_eq!(s.victim_rows_refreshed, 4);
    }

    #[test]
    fn refresh_clears_counters_and_pending() {
        let mut p = PracMoat::new(10, &geom());
        for _ in 0..10 {
            p.on_activate(0, 3, Ps::ZERO);
        }
        assert!(p.alert_pending());
        p.on_ref(
            &RefreshSlice {
                index: 0,
                phys_rows: 0..16,
            },
            Ps::ZERO,
        );
        assert_eq!(p.counter(0, 3), 0);
        assert!(!p.alert_pending(), "refresh disarms the pending row");
    }

    #[test]
    fn benign_spread_traffic_never_alerts() {
        // Typical workloads spread ACTs over many rows: with ATH=125
        // (TRHD=500 config), no row accumulates enough.
        let mut p = PracMoat::for_trhd(500, &geom());
        for i in 0..100_000u32 {
            p.on_activate((i % 2) as usize, i % 4096, Ps::ZERO);
        }
        assert!(!p.alert_pending());
        assert_eq!(p.stats().mitigations, 0);
    }

    #[test]
    fn per_bank_counters_are_independent() {
        let mut p = PracMoat::new(5, &geom());
        for _ in 0..4 {
            p.on_activate(0, 9, Ps::ZERO);
            p.on_activate(1, 9, Ps::ZERO);
        }
        assert_eq!(p.counter(0, 9), 4);
        assert_eq!(p.counter(1, 9), 4);
        assert!(!p.alert_pending());
    }
}
