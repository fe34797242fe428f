//! The MIRZA mitigation engine (Section V, Figure 8): RCT filtering,
//! MINT probabilistic selection, MIRZA-Q buffering, and reactive ALERT
//! back-off. Also provides the *Naive MIRZA* ablation (MINT+ABO without
//! filtering, Section IV-A).

use mirza_dram::address::{RegionMap, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{
    DeviceFault, MitigationLog, MitigationStats, Mitigator, RefreshSlice,
};
use mirza_dram::time::Ps;
use mirza_telemetry::{names, Json, Telemetry};

use crate::config::{MirzaConfig, BLAST_RADIUS};
use crate::mint::MintSampler;
use crate::queue::MirzaQueue;
use crate::rct::{FilterDecision, RegionCountTable, ResetPolicy};

/// MIRZA for one sub-channel: per-bank RCT rows, MINT samplers and queues.
///
/// ```
/// use mirza_core::config::MirzaConfig;
/// use mirza_core::mirza::Mirza;
/// use mirza_dram::geometry::Geometry;
/// use mirza_dram::mitigation::Mitigator;
/// use mirza_dram::time::Ps;
///
/// let mut m = Mirza::new(MirzaConfig::trhd_1000(), &Geometry::ddr5_32gb(), 42);
/// m.on_activate(0, 1234, Ps::ZERO);
/// assert_eq!(m.stats().acts_filtered, 1); // cold region: filtered
/// ```
pub struct Mirza {
    cfg: MirzaConfig,
    mapping: RowMapping,
    rct: Option<RegionCountTable>,
    mint: Vec<MintSampler>,
    queues: Vec<MirzaQueue>,
    stats: MitigationStats,
    alert: bool,
    log: MitigationLog,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Mirza {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mirza")
            .field("cfg", &self.cfg)
            .field("filtering", &self.rct.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Mirza {
    /// Creates a full MIRZA instance for the banks of one sub-channel.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`MirzaConfig::validate`].
    pub fn new(cfg: MirzaConfig, geom: &Geometry, seed: u64) -> Self {
        Self::with_reset_policy(cfg, geom, seed, ResetPolicy::Safe)
    }

    /// Creates MIRZA with an explicit RCT reset policy (the eager/lazy
    /// variants exist to demonstrate the Appendix-B under-count attack).
    pub fn with_reset_policy(
        cfg: MirzaConfig,
        geom: &Geometry,
        seed: u64,
        policy: ResetPolicy,
    ) -> Self {
        cfg.validate().expect("invalid MIRZA configuration");
        let banks = geom.banks_per_subchannel() as usize;
        let regions = RegionMap::new(geom.rows_per_bank, cfg.regions_per_bank);
        let rct = Some(RegionCountTable::new(banks, regions, cfg.fth, policy));
        Self::build(cfg, geom, seed, rct)
    }

    /// Creates *Naive MIRZA*: MINT+ABO with no coarse-grained filtering
    /// (every ACT is a selection candidate). Used for Table V.
    pub fn naive(mint_w: u32, queue_capacity: usize, geom: &Geometry, seed: u64) -> Self {
        let cfg = MirzaConfig {
            mint_w,
            queue_capacity,
            // FTH/regions are unused without an RCT; keep defaults.
            ..MirzaConfig::trhd_1000()
        };
        Self::build(cfg, geom, seed, None)
    }

    fn build(cfg: MirzaConfig, geom: &Geometry, seed: u64, rct: Option<RegionCountTable>) -> Self {
        let banks = geom.banks_per_subchannel() as usize;
        let mapping = RowMapping::for_geometry(cfg.mapping, geom);
        let mint = (0..banks)
            .map(|b| MintSampler::new(cfg.mint_w, seed.wrapping_add(b as u64)))
            .collect();
        let queues = (0..banks)
            .map(|_| MirzaQueue::new(cfg.queue_capacity, cfg.qth))
            .collect();
        Mirza {
            cfg,
            mapping,
            rct,
            mint,
            queues,
            stats: MitigationStats::default(),
            alert: false,
            log: MitigationLog::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MirzaConfig {
        &self.cfg
    }

    /// Whether coarse-grained filtering is enabled (false for Naive MIRZA).
    pub fn filtering_enabled(&self) -> bool {
        self.rct.is_some()
    }

    /// Read-only access to the RCT (None for Naive MIRZA).
    pub fn rct(&self) -> Option<&RegionCountTable> {
        self.rct.as_ref()
    }

    /// The per-bank queue state.
    pub fn queue(&self, bank: usize) -> &MirzaQueue {
        &self.queues[bank]
    }

    fn recompute_alert(&mut self) {
        self.alert = self.queues.iter().any(MirzaQueue::wants_alert);
    }
}

impl Mitigator for Mirza {
    fn name(&self) -> &'static str {
        if self.rct.is_some() {
            "mirza"
        } else {
            "mirza-naive"
        }
    }

    fn on_activate(&mut self, bank: usize, row: u32, now: Ps) {
        self.stats.acts_observed += 1;
        let decision = match self.rct.as_mut() {
            Some(rct) => rct.observe(bank, self.mapping.phys_of(row)),
            None => FilterDecision::Candidate,
        };
        match decision {
            FilterDecision::Filtered => {
                self.stats.acts_filtered += 1;
            }
            FilterDecision::Candidate => {
                self.stats.acts_candidate += 1;
                let qth = self.cfg.qth;
                let q = &mut self.queues[bank];
                match q.bump(row) {
                    Some(count) => {
                        // The first count past QTH is the tardiness expiry
                        // that warrants an ALERT for this entry.
                        if count == qth + 1 {
                            self.telemetry.event(
                                now.as_ps(),
                                "tardiness_expiry",
                                &[
                                    ("bank", Json::U64(bank as u64)),
                                    ("row", Json::U64(u64::from(row))),
                                    ("count", Json::U64(u64::from(count))),
                                ],
                            );
                        }
                    }
                    None => {
                        if let Some(selected) = self.mint[bank].observe(row) {
                            if !q.insert(selected) {
                                self.telemetry.event(
                                    now.as_ps(),
                                    names::EV_MIRZAQ_OVERFLOW,
                                    &[
                                        ("bank", Json::U64(bank as u64)),
                                        ("row", Json::U64(u64::from(selected))),
                                    ],
                                );
                            }
                        }
                    }
                }
                if self.queues[bank].wants_alert() {
                    self.alert = true;
                }
            }
        }
    }

    fn alert_pending(&self) -> bool {
        self.alert
    }

    fn on_ref(&mut self, slice: &RefreshSlice, _now: Ps) {
        // MIRZA performs no mitigation under REF (zero refresh
        // cannibalization); REF only drives the safe RCT reset walk.
        if let Some(rct) = self.rct.as_mut() {
            rct.on_ref(slice);
        }
        // REF cadence (~tREFI) is a natural sampling point for RCT
        // saturation gauges feeding the epoch time series.
        if self.telemetry.is_enabled() {
            if let Some(rct) = self.rct.as_ref() {
                let (max, mean) = rct.counter_stats();
                self.telemetry.set_gauge(names::RCT_MAX, f64::from(max));
                self.telemetry.set_gauge(names::RCT_MEAN, mean);
            }
        }
    }

    fn on_rfm(&mut self, alert: bool, _now: Ps) {
        if alert {
            self.stats.alerts_requested += 1;
        }
        for (bank, q) in self.queues.iter_mut().enumerate() {
            let occupancy = q.len() as u64;
            if let Some(entry) = q.pop_max() {
                self.telemetry
                    .observe(names::MIRZAQ_OCCUPANCY_AT_DRAIN, occupancy);
                self.telemetry
                    .observe(names::MIRZAQ_TARDINESS_AT_DRAIN, u64::from(entry.count));
                self.stats.mitigations += 1;
                self.telemetry.inc(names::MIRZA_MITIGATIONS, 1);
                self.stats.victim_rows_refreshed +=
                    self.mapping.neighbors(entry.row, BLAST_RADIUS).len() as u64;
                self.log.push(bank, entry.row);
            }
        }
        self.recompute_alert();
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

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn inject_fault(&mut self, fault: &DeviceFault, _now: Ps) -> bool {
        // Raw selectors are reduced modulo the live structure sizes so the
        // same fault plan stays meaningful across geometries. Queue faults
        // re-derive the ALERT level afterwards: a flipped tardiness bit can
        // raise it, a lost entry can clear it.
        match *fault {
            DeviceFault::RctCounterBitFlip { bank, region, bit } => {
                let Some(rct) = self.rct.as_mut() else {
                    return false;
                };
                let bank = (bank % rct.banks() as u64) as usize;
                let region = (region % u64::from(rct.regions().regions())) as u32;
                rct.flip_counter_bit(bank, region, bit);
                true
            }
            DeviceFault::QueueTardinessBitFlip { bank, slot, bit } => {
                let bank = (bank % self.queues.len() as u64) as usize;
                let q = &mut self.queues[bank];
                if q.is_empty() {
                    return false;
                }
                let slot = (slot % q.len() as u64) as usize;
                let hit = q.flip_count_bit(slot, bit).is_some();
                self.recompute_alert();
                hit
            }
            DeviceFault::QueueDropEntry { bank, slot } => {
                let bank = (bank % self.queues.len() as u64) as usize;
                let q = &mut self.queues[bank];
                if q.is_empty() {
                    return false;
                }
                let slot = (slot % q.len() as u64) as usize;
                let hit = q.lose_entry(slot).is_some();
                self.recompute_alert();
                hit
            }
            DeviceFault::QueueDuplicateEntry { bank, slot } => {
                let bank = (bank % self.queues.len() as u64) as usize;
                let q = &mut self.queues[bank];
                if q.is_empty() {
                    return false;
                }
                let slot = (slot % q.len() as u64) as usize;
                let hit = q.duplicate_entry(slot).is_some();
                self.recompute_alert();
                hit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> Geometry {
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

    fn cfg(fth: u32, mint_w: u32) -> MirzaConfig {
        MirzaConfig {
            fth,
            mint_w,
            regions_per_bank: 4,
            ..MirzaConfig::trhd_1000()
        }
    }

    #[test]
    fn cold_regions_filter_everything() {
        let g = small_geom();
        let mut m = Mirza::new(cfg(1000, 4), &g, 1);
        for i in 0..500 {
            m.on_activate(0, i % 64, Ps::ZERO);
        }
        let s = m.stats();
        assert_eq!(s.acts_observed, 500);
        assert_eq!(s.acts_filtered, 500);
        assert_eq!(s.acts_candidate, 0);
        assert!(!m.alert_pending());
    }

    #[test]
    fn hot_region_feeds_mint_and_triggers_alert() {
        let g = small_geom();
        let mut m = Mirza::new(cfg(10, 4), &g, 1);
        // Hammer rows of one region far past FTH; queue (cap 4) must fill
        // or a tardiness counter must blow through QTH -> ALERT.
        for i in 0..2000u32 {
            m.on_activate(0, i % 8, Ps::ZERO);
        }
        assert!(m.alert_pending());
        let s = m.stats();
        assert!(s.acts_candidate > 0);
        assert!(s.acts_filtered >= 10);
        // Servicing the alert mitigates one entry per bank.
        m.on_rfm(true, Ps::ZERO);
        let s = m.stats();
        assert_eq!(s.alerts_requested, 1);
        assert!(s.mitigations >= 1);
        assert!(s.victim_rows_refreshed >= 2);
    }

    #[test]
    fn alert_clears_when_queue_drains() {
        let g = small_geom();
        let mut m = Mirza::new(cfg(0, 4), &g, 3);
        while !m.alert_pending() {
            for i in 0..64u32 {
                m.on_activate(0, i, Ps::ZERO);
            }
        }
        // Drain: repeated back-off RFMs empty the queues.
        for _ in 0..16 {
            m.on_rfm(true, Ps::ZERO);
        }
        assert!(!m.alert_pending());
        assert!(m.queue(0).is_empty());
    }

    #[test]
    fn naive_variant_treats_every_act_as_candidate() {
        let g = small_geom();
        let mut m = Mirza::naive(4, 4, &g, 9);
        assert!(!m.filtering_enabled());
        assert_eq!(m.name(), "mirza-naive");
        for i in 0..100u32 {
            m.on_activate(1, i, Ps::ZERO);
        }
        let s = m.stats();
        assert_eq!(s.acts_candidate, 100);
        assert_eq!(s.acts_filtered, 0);
        assert!(m.alert_pending(), "queue of 4 fills after ~16 ACTs");
    }

    #[test]
    fn mitigation_refreshes_four_victims_for_interior_rows() {
        let g = small_geom();
        let mut m = Mirza::naive(4, 4, &g, 5);
        // Strided mapping on 4 subarrays: row 500 is interior.
        for _ in 0..64 {
            m.on_activate(0, 500, Ps::ZERO);
        }
        // Row 500 is eventually selected (it is the only candidate).
        m.on_rfm(true, Ps::ZERO);
        let s = m.stats();
        assert_eq!(s.victim_rows_refreshed, 4 * s.mitigations);
    }

    #[test]
    fn per_bank_isolation() {
        let g = small_geom();
        let mut m = Mirza::new(cfg(10, 4), &g, 1);
        for _ in 0..100 {
            m.on_activate(0, 3, Ps::ZERO);
        }
        // Bank 1 never activated anything: its queue must be empty.
        assert!(m.queue(1).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = small_geom();
        let run = |seed| {
            let mut m = Mirza::new(cfg(5, 4), &g, seed);
            for i in 0..3000u32 {
                m.on_activate(0, i % 16, Ps::ZERO);
                if m.alert_pending() {
                    m.on_rfm(true, Ps::ZERO);
                }
            }
            let s = m.stats();
            (s.mitigations, s.alerts_requested, s.acts_candidate)
        };
        assert_eq!(run(11), run(11));
    }
}
