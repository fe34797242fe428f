//! MINT with proactive mitigation under REF (Table II / Table XII):
//! one sampled aggressor per bank is mitigated every `k` REF commands,
//! cannibalizing part of the refresh budget.

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{MitigationLog, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::time::Ps;

use crate::reservoir::Reservoir;

/// MINT sampling with mitigation every `k` REFs.
#[derive(Debug)]
pub struct MintRef {
    refs_per_mitigation: u64,
    mapping: RowMapping,
    reservoirs: Vec<Reservoir>,
    refs_seen: u64,
    stats: MitigationStats,
    log: MitigationLog,
}

impl MintRef {
    /// Creates the tracker mitigating one aggressor per bank every
    /// `refs_per_mitigation` REF commands.
    ///
    /// # Panics
    /// Panics if `refs_per_mitigation` is zero.
    pub fn new(refs_per_mitigation: u64, geom: &Geometry, seed: u64) -> Self {
        assert!(refs_per_mitigation > 0, "mitigation rate must be non-zero");
        let banks = geom.banks_per_subchannel() as usize;
        MintRef {
            refs_per_mitigation,
            mapping: RowMapping::for_geometry(MappingScheme::Sequential, geom),
            reservoirs: (0..banks)
                .map(|b| Reservoir::new(seed.wrapping_add(b as u64)))
                .collect(),
            refs_seen: 0,
            stats: MitigationStats::default(),
            log: MitigationLog::new(),
        }
    }
}

impl Mitigator for MintRef {
    fn name(&self) -> &'static str {
        "mint-ref"
    }

    fn on_activate(&mut self, bank: usize, row: u32, _now: Ps) {
        self.stats.acts_observed += 1;
        self.stats.acts_candidate += 1;
        self.reservoirs[bank].observe(row);
    }

    fn on_ref(&mut self, _slice: &RefreshSlice, _now: Ps) {
        self.refs_seen += 1;
        if !self.refs_seen.is_multiple_of(self.refs_per_mitigation) {
            return;
        }
        for bank in 0..self.reservoirs.len() {
            if let Some(row) = self.reservoirs[bank].take() {
                self.stats.mitigations += 1;
                self.stats.ref_mitigations += 1;
                self.stats.victim_rows_refreshed += self.mapping.neighbors(row, 2).len() as u64;
                self.log.push(bank, row);
            }
        }
    }

    fn on_rfm(&mut self, _alert: bool, _now: Ps) {}

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

    fn geom() -> Geometry {
        Geometry {
            subchannels: 1,
            ranks: 1,
            banks: 1,
            rows_per_bank: 4096,
            row_bytes: 4096,
            line_bytes: 64,
            subarrays_per_bank: 4,
            rows_per_ref: 16,
        }
    }

    fn slice(i: u64) -> RefreshSlice {
        RefreshSlice {
            index: i,
            phys_rows: 0..16,
        }
    }

    #[test]
    fn mitigates_every_kth_ref() {
        let mut m = MintRef::new(4, &geom(), 1);
        for ref_i in 0..16u64 {
            m.on_activate(0, ref_i as u32, Ps::ZERO);
            m.on_ref(&slice(ref_i), Ps::ZERO);
        }
        let s = m.stats();
        assert_eq!(s.mitigations, 4);
        assert_eq!(s.ref_mitigations, 4);
    }

    #[test]
    fn no_sample_no_mitigation() {
        let mut m = MintRef::new(1, &geom(), 2);
        m.on_ref(&slice(0), Ps::ZERO);
        assert_eq!(m.stats().mitigations, 0);
    }
}
