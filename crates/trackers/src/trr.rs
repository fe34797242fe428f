//! Targeted Row Refresh (TRR): the DDR4-era in-DRAM tracker (Section X,
//! Table XII). A small (4-28 entry) counter table mitigating one aggressor
//! every few REFs.
//!
//! Reverse-engineered TRRs (TRRespass, Blacksmith) are *not* sound
//! frequent-item summaries: on a miss with a full table they recycle the
//! oldest entry and restart its count at one, losing the evicted row's
//! history. That is exactly what many-sided/decoy patterns exploit — they
//! keep flushing the real aggressors out of the table — and the security
//! harness demonstrates the break.

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{MitigationLog, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::time::Ps;

use crate::summary::{last_max, position, SummaryEntry};

/// FIFO-recycling tracker table (no count adoption on eviction). Rows and
/// counts are index-aligned flat arrays, like [`SpaceSaving`]'s.
///
/// [`SpaceSaving`]: crate::summary::SpaceSaving
#[derive(Debug, Clone)]
struct TrrTable {
    rows: Vec<u32>,
    counts: Vec<u32>,
    capacity: usize,
    fifo: usize,
}

impl TrrTable {
    fn new(capacity: usize) -> Self {
        TrrTable {
            rows: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            capacity,
            fifo: 0,
        }
    }

    fn observe(&mut self, row: u32) {
        if let Some(i) = position(&self.rows, row) {
            self.counts[i] += 1;
        } else if self.rows.len() < self.capacity {
            self.rows.push(row);
            self.counts.push(1);
        } else {
            // History of the recycled entry is lost — the TRR weakness.
            self.rows[self.fifo] = row;
            self.counts[self.fifo] = 1;
            self.fifo = (self.fifo + 1) % self.capacity;
        }
    }

    fn pop_max(&mut self) -> Option<SummaryEntry> {
        let i = last_max(&self.counts)?;
        if i < self.fifo {
            self.fifo -= 1;
        }
        Some(SummaryEntry {
            row: self.rows.swap_remove(i),
            count: self.counts.swap_remove(i),
        })
    }

    fn count(&self, row: u32) -> u32 {
        position(&self.rows, row).map_or(0, |i| self.counts[i])
    }
}

/// Reverse-engineered-style TRR: tiny per-bank FIFO-recycled table.
#[derive(Debug)]
pub struct Trr {
    entries_per_bank: usize,
    refs_per_mitigation: u64,
    mapping: RowMapping,
    tables: Vec<TrrTable>,
    refs_seen: u64,
    stats: MitigationStats,
    log: MitigationLog,
}

impl Trr {
    /// Creates TRR with `entries_per_bank` tracker entries and one
    /// mitigation per `refs_per_mitigation` REFs (the paper configures 28
    /// entries, one mitigation per 4 REF).
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(entries_per_bank: usize, refs_per_mitigation: u64, geom: &Geometry) -> Self {
        assert!(entries_per_bank > 0, "need at least one entry");
        assert!(refs_per_mitigation > 0, "mitigation rate must be non-zero");
        let banks = geom.banks_per_subchannel() as usize;
        Trr {
            entries_per_bank,
            refs_per_mitigation,
            mapping: RowMapping::for_geometry(MappingScheme::Sequential, geom),
            tables: (0..banks)
                .map(|_| TrrTable::new(entries_per_bank))
                .collect(),
            refs_seen: 0,
            stats: MitigationStats::default(),
            log: MitigationLog::new(),
        }
    }

    /// The paper's Table XII configuration: 28 entries, 1 per 4 REF.
    pub fn ddr4_like(geom: &Geometry) -> Self {
        Self::new(28, 4, geom)
    }

    /// SRAM bytes per bank: 3 bytes per entry (row-id + counter), Table XII.
    pub fn sram_bytes_per_bank(&self) -> u32 {
        self.entries_per_bank as u32 * 3
    }

    /// Tracked count of `row` in `bank` (zero when untracked).
    pub fn tracked_count(&self, bank: usize, row: u32) -> u32 {
        self.tables[bank].count(row)
    }
}

impl Mitigator for Trr {
    fn name(&self) -> &'static str {
        "trr"
    }

    fn on_activate(&mut self, bank: usize, row: u32, _now: Ps) {
        self.stats.acts_observed += 1;
        self.stats.acts_candidate += 1;
        self.tables[bank].observe(row);
    }

    fn on_ref(&mut self, _slice: &RefreshSlice, _now: Ps) {
        self.refs_seen += 1;
        if !self.refs_seen.is_multiple_of(self.refs_per_mitigation) {
            return;
        }
        for bank in 0..self.tables.len() {
            if let Some(top) = self.tables[bank].pop_max() {
                self.stats.mitigations += 1;
                self.stats.ref_mitigations += 1;
                self.stats.victim_rows_refreshed += self.mapping.neighbors(top.row, 2).len() as u64;
                self.log.push(bank, top.row);
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
    use proptest::prelude::*;

    /// The array-of-structs table the flat one replaced: the reference for
    /// its FIFO recycling and tie rules.
    struct ReferenceTable {
        entries: Vec<SummaryEntry>,
        capacity: usize,
        fifo: usize,
    }

    impl ReferenceTable {
        fn observe(&mut self, row: u32) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.row == row) {
                e.count += 1;
                return;
            }
            if self.entries.len() < self.capacity {
                self.entries.push(SummaryEntry { row, count: 1 });
                return;
            }
            self.entries[self.fifo] = SummaryEntry { row, count: 1 };
            self.fifo = (self.fifo + 1) % self.capacity;
        }

        fn pop_max(&mut self) -> Option<SummaryEntry> {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.count)?;
            if i < self.fifo {
                self.fifo -= 1;
            }
            Some(self.entries.swap_remove(i))
        }
    }

    proptest! {
        /// Random `observe`/`pop_max` sequences over a small row alphabet
        /// (hits, FIFO recycling with wrap, count ties) leave the flat
        /// table and the reference with equal entries and FIFO pointer, and
        /// pop the same entries.
        #[test]
        fn flat_table_matches_reference(
            capacity in 1usize..20,
            alphabet in 1u32..40,
            ops in prop::collection::vec((0u8..8, any::<u32>()), 0..400),
        ) {
            let mut flat = TrrTable::new(capacity);
            let mut reference = ReferenceTable {
                entries: Vec::new(),
                capacity,
                fifo: 0,
            };
            for (op, r) in ops {
                if op == 0 {
                    prop_assert_eq!(flat.pop_max(), reference.pop_max());
                } else {
                    flat.observe(r % alphabet);
                    reference.observe(r % alphabet);
                }
                let entries: Vec<SummaryEntry> = flat
                    .rows
                    .iter()
                    .zip(&flat.counts)
                    .map(|(&row, &count)| SummaryEntry { row, count })
                    .collect();
                prop_assert_eq!(entries, reference.entries.clone());
                prop_assert_eq!(flat.fifo, reference.fifo);
            }
        }
    }

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

    #[test]
    fn table12_storage() {
        let t = Trr::ddr4_like(&geom());
        assert_eq!(t.sram_bytes_per_bank(), 84);
    }

    #[test]
    fn catches_simple_double_sided_pattern() {
        let mut t = Trr::ddr4_like(&geom());
        for i in 0..1000u64 {
            t.on_activate(0, 100, Ps::ZERO);
            t.on_activate(0, 102, Ps::ZERO);
            if i % 20 == 19 {
                t.on_ref(
                    &RefreshSlice {
                        index: i,
                        phys_rows: 0..16,
                    },
                    Ps::ZERO,
                );
            }
        }
        assert!(t.stats().mitigations > 0, "naive pattern gets mitigated");
    }

    #[test]
    fn eviction_forgets_history() {
        let mut t = Trr::new(2, 4, &geom());
        for _ in 0..100 {
            t.on_activate(0, 7, Ps::ZERO);
        }
        assert_eq!(t.tracked_count(0, 7), 100);
        // Two fresh rows flush the table; row 7's history is gone.
        t.on_activate(0, 8, Ps::ZERO);
        t.on_activate(0, 9, Ps::ZERO);
        assert_eq!(t.tracked_count(0, 7), 0);
        t.on_activate(0, 7, Ps::ZERO);
        assert_eq!(t.tracked_count(0, 7), 1, "count restarts after eviction");
    }
}
