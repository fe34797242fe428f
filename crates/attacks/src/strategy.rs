//! The `AddressStrategy` axis: which rows an attack activates.
//!
//! [`PatternStrategy`] carries every canned [`RowPattern`] kernel over to
//! the trait API; the remaining strategies are *adaptive* — they use the
//! per-slot [`Feedback`] (ALERT assertions, refresh slices) to retarget,
//! which a fixed circular pattern cannot express.

use mirza_dram::address::{RegionMap, RowMapping};
use mirza_dram::mitigation::RefreshSlice;
use mirza_workloads::attacks::RowPattern;

use crate::Feedback;

/// Chooses the row for each attacker activation.
///
/// Implementations must be deterministic given their constructor inputs
/// (any randomness comes from an explicit seed), so same-seed attack runs
/// replay bit-identically.
pub trait AddressStrategy {
    /// Stable identifier used in matrix CSV rows and telemetry events.
    fn label(&self) -> String;

    /// The row address to activate next.
    fn next_row(&mut self, fb: &Feedback) -> u32;

    /// Notification that a REF refreshed `slice` (refresh-pointer walk
    /// position). Strategies that chase the walk retarget here.
    fn on_ref(&mut self, _slice: &RefreshSlice) {}

    /// The rows the attack centers on, for targeted victim scoring.
    /// Empty means "no specific target" (score any row).
    fn target_rows(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// A [`RowPattern`] behind the trait. The named constructors build the
/// kernels the attack matrix sweeps; [`from_pattern`](Self::from_pattern)
/// wraps any other kernel (single-sided, half-double, a hand-built
/// circular flood). Feedback is ignored — the pattern is a fixed circular
/// sequence.
#[derive(Debug, Clone)]
pub struct PatternStrategy {
    label: String,
    pattern: RowPattern,
}

impl PatternStrategy {
    /// Wraps an arbitrary pattern under `label`.
    pub fn from_pattern(label: impl Into<String>, pattern: RowPattern) -> Self {
        PatternStrategy {
            label: label.into(),
            pattern,
        }
    }

    /// Double-sided attack around the victim at physical index
    /// `victim_phys` (see [`RowPattern::double_sided`]).
    pub fn double_sided(mapping: &RowMapping, victim_phys: u32) -> Self {
        Self::from_pattern(
            "double-sided",
            RowPattern::double_sided(mapping, victim_phys),
        )
    }

    /// Many-sided (TRRespass-style) pattern (see [`RowPattern::many_sided`]).
    pub fn many_sided(mapping: &RowMapping, subarray: u32, pairs: u32) -> Self {
        Self::from_pattern(
            format!("many-sided-p{pairs}"),
            RowPattern::many_sided(mapping, subarray, pairs),
        )
    }

    /// Blacksmith-style non-uniform pattern (see [`RowPattern::blacksmith`]).
    pub fn blacksmith(mapping: &RowMapping, subarray: u32, k: u32, seed: u64) -> Self {
        Self::from_pattern(
            format!("blacksmith-k{k}"),
            RowPattern::blacksmith(mapping, subarray, k, seed),
        )
    }

    /// The CGF-evading same-region kernel (see [`RowPattern::same_region`]).
    pub fn same_region(mapping: &RowMapping, regions: &RegionMap, region: u32, k: u32) -> Self {
        Self::from_pattern(
            format!("same-region-k{k}"),
            RowPattern::same_region(mapping, regions, region, k),
        )
    }
}

impl AddressStrategy for PatternStrategy {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn next_row(&mut self, _fb: &Feedback) -> u32 {
        self.pattern.next_act()
    }

    fn target_rows(&self) -> Vec<u32> {
        self.pattern.rows().to_vec()
    }
}

/// Feinting attack on MIRZA-Q (Section IX-B flavored): a steady aggressor
/// pair rides along while rotating *feint* rows absorb bursts just large
/// enough to enter candidate selection and occupy queue slots, delaying
/// the real pair's mitigation. The active feint row rotates every time the
/// tracker services an ALERT — the feedback a real attacker gets for free.
#[derive(Debug, Clone)]
pub struct Feinting {
    main: [u32; 2],
    feints: Vec<u32>,
    burst: u32,
    /// Position inside the `[feint × burst, A, B]` phase.
    pos: u32,
    feint_idx: usize,
    last_alerts: u64,
}

impl Feinting {
    /// A feinting attack inside RCT region `region`: the aggressor pair
    /// straddles the region's middle physical row; `feints` decoy rows are
    /// taken from the region's start, each burst `burst` ACTs long.
    ///
    /// # Panics
    /// Panics if the region cannot host `feints` feint rows plus the pair.
    pub fn new(
        mapping: &RowMapping,
        regions: &RegionMap,
        region: u32,
        feints: u32,
        burst: u32,
    ) -> Self {
        let range = regions.phys_range(region);
        assert!(
            feints + 4 <= regions.rows_per_region() && feints > 0 && burst > 0,
            "region holds only {} rows",
            regions.rows_per_region()
        );
        let mid = range.start + regions.rows_per_region() / 2;
        let feint_rows = range
            .clone()
            .take(feints as usize)
            .map(|p| mapping.row_of(p))
            .collect();
        Feinting {
            main: [mapping.row_of(mid - 1), mapping.row_of(mid + 1)],
            feints: feint_rows,
            burst,
            pos: 0,
            feint_idx: 0,
            last_alerts: 0,
        }
    }
}

impl AddressStrategy for Feinting {
    fn label(&self) -> String {
        format!("feint-f{}-b{}", self.feints.len(), self.burst)
    }

    fn next_row(&mut self, fb: &Feedback) -> u32 {
        if fb.alerts != self.last_alerts {
            // The tracker just mitigated someone; rotate the feint so a
            // fresh row re-pressures the queue.
            self.last_alerts = fb.alerts;
            self.feint_idx = (self.feint_idx + 1) % self.feints.len();
            self.pos = 0;
        }
        let row = if self.pos < self.burst {
            self.feints[self.feint_idx]
        } else {
            self.main[(self.pos - self.burst) as usize % 2]
        };
        self.pos = (self.pos + 1) % (self.burst + 2);
        row
    }

    fn target_rows(&self) -> Vec<u32> {
        self.main.to_vec()
    }
}

/// Decoy flood (the pattern that breaks sampling-based TRR, generalized):
/// `decoys` rows spread across the bank each receive `ratio` ACTs per
/// cycle, keeping a frequency tracker's table full, while the double-sided
/// aggressor pair is activated only once per cycle and never becomes the
/// mitigation target.
#[derive(Debug, Clone)]
pub struct DecoyFlood {
    aggressors: [u32; 2],
    decoys: Vec<u32>,
    ratio: u32,
    pos: u64,
}

impl DecoyFlood {
    /// A flood of `decoys` rows at `ratio` ACTs each per cycle around the
    /// double-sided pair of `victim_phys`.
    ///
    /// # Panics
    /// Panics if `decoys` or `ratio` is zero, the bank cannot spread the
    /// decoys, or the victim sits at a subarray edge.
    pub fn new(mapping: &RowMapping, victim_phys: u32, decoys: u32, ratio: u32) -> Self {
        assert!(decoys > 0 && ratio > 0, "need at least one decoy and ACT");
        let aggrs = RowPattern::double_sided(mapping, victim_phys);
        let rows_per_bank = mapping.rows_per_bank();
        assert!(decoys + 4 < rows_per_bank, "bank cannot host the decoys");
        // Spread decoys evenly over the bank, stepping past the aggressor
        // neighborhood so no decoy aliases the pair.
        let stride = rows_per_bank / (decoys + 1);
        let decoy_rows = (0..decoys)
            .map(|i| {
                let mut phys = (i + 1) * stride;
                if phys.abs_diff(victim_phys) <= 2 {
                    phys = (phys + 3) % rows_per_bank;
                }
                mapping.row_of(phys)
            })
            .collect();
        DecoyFlood {
            aggressors: [aggrs.rows()[0], aggrs.rows()[1]],
            decoys: decoy_rows,
            ratio,
            pos: 0,
        }
    }
}

impl AddressStrategy for DecoyFlood {
    fn label(&self) -> String {
        format!("decoy-d{}-r{}", self.decoys.len(), self.ratio)
    }

    fn next_row(&mut self, _fb: &Feedback) -> u32 {
        let cycle = self.decoys.len() as u64 * u64::from(self.ratio) + 2;
        let p = self.pos % cycle;
        self.pos += 1;
        let flood = self.decoys.len() as u64 * u64::from(self.ratio);
        if p < flood {
            self.decoys[(p / u64::from(self.ratio)) as usize]
        } else {
            self.aggressors[(p - flood) as usize]
        }
    }

    fn target_rows(&self) -> Vec<u32> {
        self.aggressors.to_vec()
    }
}

/// Refresh-synchronized attack: chases the refresh-pointer walk, always
/// hammering the pair of rows the most recent REF just refreshed — their
/// unmitigated counts were just cleared, so every ACT lands at the start
/// of a full walk-length accumulation window.
#[derive(Debug, Clone)]
pub struct RefreshSyncStrategy {
    mapping: RowMapping,
    rows: [u32; 2],
    flip: bool,
}

impl RefreshSyncStrategy {
    /// A refresh-chasing attack over `mapping`; starts on physical rows
    /// 0/1 until the first REF retargets it.
    pub fn new(mapping: RowMapping) -> Self {
        RefreshSyncStrategy {
            rows: [mapping.row_of(0), mapping.row_of(1)],
            mapping,
            flip: false,
        }
    }
}

impl AddressStrategy for RefreshSyncStrategy {
    fn label(&self) -> String {
        "refresh-sync".into()
    }

    fn next_row(&mut self, _fb: &Feedback) -> u32 {
        self.flip = !self.flip;
        self.rows[usize::from(self.flip)]
    }

    fn on_ref(&mut self, slice: &RefreshSlice) {
        let s = slice.phys_rows.start;
        self.rows = [self.mapping.row_of(s), self.mapping.row_of(s + 1)];
    }

    fn target_rows(&self) -> Vec<u32> {
        self.rows.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirza_dram::address::MappingScheme;

    fn strided() -> RowMapping {
        RowMapping::new(MappingScheme::Strided, 4096, 128)
    }

    fn take(s: &mut dyn AddressStrategy, n: usize) -> Vec<u32> {
        let fb = Feedback::initial();
        (0..n).map(|_| s.next_row(&fb)).collect()
    }

    #[test]
    fn pattern_strategy_mirrors_the_row_pattern() {
        let m = strided();
        let mut s = PatternStrategy::double_sided(&m, 500);
        let mut p = RowPattern::double_sided(&m, 500);
        assert_eq!(take(&mut s, 8), p.take_acts(8));
        assert_eq!(s.label(), "double-sided");
        assert_eq!(s.target_rows().len(), 2);
    }

    #[test]
    fn blacksmith_strategy_is_seed_deterministic() {
        let m = strided();
        let a = take(&mut PatternStrategy::blacksmith(&m, 2, 8, 7), 32);
        let b = take(&mut PatternStrategy::blacksmith(&m, 2, 8, 7), 32);
        let c = take(&mut PatternStrategy::blacksmith(&m, 2, 8, 8), 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn feinting_bursts_then_hammers_the_pair() {
        let m = strided();
        let regions = RegionMap::new(4096, 128);
        let mut f = Feinting::new(&m, &regions, 3, 4, 6);
        let seq = take(&mut f, 8);
        // First 6 ACTs are one feint row, then the two mains.
        assert_eq!(seq[0], seq[5]);
        assert_ne!(seq[6], seq[0]);
        assert_ne!(seq[7], seq[6]);
        assert_eq!(f.target_rows().len(), 2);
    }

    #[test]
    fn feinting_rotates_feints_on_alert() {
        let m = strided();
        let regions = RegionMap::new(4096, 128);
        let mut f = Feinting::new(&m, &regions, 3, 4, 6);
        let fb0 = Feedback::initial();
        let first = f.next_row(&fb0);
        let mut fb1 = Feedback::initial();
        fb1.alerts = 1;
        let rotated = f.next_row(&fb1);
        assert_ne!(first, rotated, "alert must rotate the feint row");
    }

    #[test]
    fn decoy_flood_keeps_aggressors_rare() {
        let m = strided();
        let mut d = DecoyFlood::new(&m, 2000, 10, 3);
        let seq = take(&mut d, 32 * 2);
        let aggr = d.target_rows();
        let aggr_acts = seq.iter().filter(|r| aggr.contains(r)).count();
        // Cycle = 10*3 + 2 = 32 ACTs: 2 aggressor ACTs per cycle.
        assert_eq!(aggr_acts, 4);
        assert_eq!(d.label(), "decoy-d10-r3");
    }

    #[test]
    fn refresh_sync_chases_the_walk() {
        let m = strided();
        let mut s = RefreshSyncStrategy::new(m);
        let before = take(&mut s, 2);
        s.on_ref(&RefreshSlice {
            index: 5,
            phys_rows: 80..96,
        });
        let after = take(&mut s, 2);
        assert_ne!(before, after);
        let m = strided();
        assert!(after.contains(&m.row_of(80)));
        assert!(after.contains(&m.row_of(81)));
    }
}
