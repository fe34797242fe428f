//! Attack rig: replays (strategy, schedule) pairs against any
//! [`Mitigator`] on a faithful REF/ALERT timeline and judges the outcome
//! with a [`Victim`] model.
//!
//! [`run_attack`] drives the rig's one slot loop,
//! [`HammerHarness::interval_with`]; a fixed pattern runs through it as a
//! [`PatternStrategy`](crate::strategy::PatternStrategy) under a
//! [`Burst`](crate::schedule::Burst) schedule.
//! [`HammerHarness::burst`] (exactly `n` ACTs, with no ALERT prologue,
//! stall or REF) and [`HammerHarness::idle_interval`] (one REF, no ACTs)
//! script the Appendix-B scenarios.
//!
//! Accounting (per DESIGN.md): a row's unmitigated count increments on each
//! of its ACTs and resets when (a) the row is mitigated as an aggressor
//! (its victims are refreshed), or (b) the refresh-pointer walk refreshes
//! the row (a <=1-REF-slice approximation of its victims' refresh). The
//! per-row ledger is a [`RowCensus`]; unlike the command auditor's
//! conservative census, the rig *credits* targeted mitigations because it
//! models the mitigation protocol faithfully.

use mirza_dram::address::{MappingScheme, RowMapping};
use mirza_dram::audit::RowCensus;
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{Mitigator, RefreshSlice};
use mirza_dram::refresh::RefreshPointer;
use mirza_dram::time::Ps;
use mirza_dram::timing::TimingParams;
use mirza_workloads::attacks::RowPattern;

use crate::schedule::{Action, Schedule};
use crate::strategy::AddressStrategy;
use crate::victim::Victim;
use crate::Feedback;

/// ACTs the attacker can land during one ALERT prologue (180 ns / tRC).
pub const PROLOGUE_ACTS: u32 = 3;

/// Activation slots consumed by the ALERT stall (350 ns / tRC, rounded up).
pub const STALL_SLOTS: u32 = 8;

/// Result of one attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Maximum unmitigated ACTs observed on any row at any instant.
    pub max_unmitigated_acts: u32,
    /// Total attacker activations performed.
    pub total_acts: u64,
    /// ALERT back-offs serviced.
    pub alerts: u64,
    /// REF commands elapsed.
    pub refs: u64,
}

/// Outcome of a judged attack run: the raw [`AttackOutcome`] plus the
/// victim model's verdict against the mitigation's NBO bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackReport {
    /// Raw run counters.
    pub outcome: AttackOutcome,
    /// Maximum unmitigated ACT burden on any row the victim model scores.
    pub max_row_acts: u32,
    /// The bound the run was judged against.
    pub bound: u32,
    /// Whether `max_row_acts >= bound` per the victim model.
    pub success: bool,
}

/// Replays activation patterns against a mitigator with a faithful
/// REF/ALERT timeline for one bank.
pub struct HammerHarness<'a> {
    mitigator: &'a mut dyn Mitigator,
    bank: usize,
    census: RowCensus,
    refptr: RefreshPointer,
    acts_per_interval: u32,
    now: Ps,
    t_rc: Ps,
    acts_since_alert: u32,
    slots_since_alert: u64,
    intervals: u64,
    last_refresh: Option<RefreshSlice>,
    outcome: AttackOutcome,
}

impl<'a> HammerHarness<'a> {
    /// Creates a harness attacking `bank` of `geom` through `mitigator`.
    /// The attacker ACT budget per REF interval comes from `timing`
    /// (`(tREFI - tRFC)/tRC`, 75 for baseline DDR5-6000).
    pub fn new(
        mitigator: &'a mut dyn Mitigator,
        geom: &Geometry,
        timing: &TimingParams,
        bank: usize,
    ) -> Self {
        let mapping = mitigator
            .mapping()
            .copied()
            .unwrap_or_else(|| RowMapping::for_geometry(MappingScheme::Sequential, geom));
        let acts_per_interval =
            ((timing.t_refi.as_ps() - timing.t_rfc.as_ps()) / timing.t_rc.as_ps()) as u32;
        HammerHarness {
            mitigator,
            bank,
            census: RowCensus::new(mapping, 1, geom.rows_per_bank, geom.rows_per_ref),
            refptr: RefreshPointer::new(geom.rows_per_bank, geom.rows_per_ref),
            acts_per_interval,
            now: Ps::ZERO,
            t_rc: timing.t_rc,
            acts_since_alert: 1,
            slots_since_alert: 0,
            intervals: 0,
            last_refresh: None,
            outcome: AttackOutcome {
                max_unmitigated_acts: 0,
                total_acts: 0,
                alerts: 0,
                refs: 0,
            },
        }
    }

    /// Attacker ACT slots per REF interval.
    pub fn acts_per_interval(&self) -> u32 {
        self.acts_per_interval
    }

    /// Current unmitigated count of `row`.
    pub fn count(&self, row: u32) -> u32 {
        self.census.count(0, row)
    }

    /// The per-row activation ledger accumulated so far.
    pub fn census(&self) -> &RowCensus {
        &self.census
    }

    /// The feedback an on-device adversary observes right now.
    pub fn feedback(&self) -> Feedback {
        self.feedback_with(self.mitigator.alert_pending())
    }

    /// [`feedback`](Self::feedback) for a caller that has already polled
    /// ALERT since the mitigator last changed.
    fn feedback_with(&self, alert_pending: bool) -> Feedback {
        Feedback {
            now: self.now,
            interval: self.intervals,
            refs: self.outcome.refs,
            alerts: self.outcome.alerts,
            alert_pending,
            acts_since_alert: self.acts_since_alert,
            slots_since_alert: self.slots_since_alert,
            total_acts: self.outcome.total_acts,
            last_refresh: self.last_refresh.clone(),
        }
    }

    fn act(&mut self, row: u32) {
        self.mitigator.on_activate(self.bank, row, self.now);
        self.now += self.t_rc;
        self.acts_since_alert += 1;
        self.slots_since_alert += 1;
        self.outcome.total_acts += 1;
        self.census.on_act(0, row);
    }

    fn apply_mitigations(&mut self) {
        for (bank, row) in self.mitigator.drain_mitigations() {
            if bank == self.bank {
                self.census.credit(0, row);
            }
        }
    }

    /// Services one pending ALERT back-off: stall, RFM, drain.
    fn service_alert(&mut self, budget: &mut i64) {
        *budget -= i64::from(STALL_SLOTS);
        self.now += self.t_rc * u64::from(STALL_SLOTS);
        self.mitigator.on_rfm(true, self.now);
        self.outcome.alerts += 1;
        self.acts_since_alert = 0;
        self.slots_since_alert = 0;
        self.apply_mitigations();
    }

    /// Runs one REF interval with the trait axes: the schedule decides,
    /// slot by slot, whether the strategy is asked for an activation. The
    /// ALERT protocol takes precedence over the schedule (the prologue +
    /// back-off is a bus-level sequence the attacker cannot opt out of),
    /// and a pending ALERT is serviced even across idle slots — the memory
    /// controller issues the RFM whether or not the attacker activates.
    ///
    /// ALERT is polled once per slot: the schedule and an idle slot leave
    /// the mitigator alone, so that one poll serves the slot's feedback and
    /// its idle-ALERT check. Prologue slots poll again, since each prologue
    /// ACT can move the mitigator.
    pub fn interval_with(
        &mut self,
        strategy: &mut dyn AddressStrategy,
        schedule: &mut dyn Schedule,
    ) {
        let mut budget = i64::from(self.acts_per_interval);
        while budget > 0 {
            let alert_pending = self.mitigator.alert_pending();
            if alert_pending && self.acts_since_alert >= 1 {
                for _ in 0..PROLOGUE_ACTS {
                    if budget > 0 {
                        let fb = self.feedback();
                        let row = strategy.next_row(&fb);
                        self.act(row);
                        budget -= 1;
                    }
                }
                self.service_alert(&mut budget);
            } else {
                let fb = self.feedback_with(alert_pending);
                match schedule.decide(&fb) {
                    Action::Hammer => {
                        let row = strategy.next_row(&fb);
                        self.act(row);
                        budget -= 1;
                    }
                    Action::Idle(n) => {
                        let n = n.max(1);
                        budget -= i64::from(n);
                        self.now += self.t_rc * u64::from(n);
                        self.slots_since_alert += u64::from(n);
                        if alert_pending {
                            // The attacker is quiet but the device still
                            // asserts ALERT: the MC services it anyway.
                            self.service_alert(&mut budget);
                        }
                    }
                }
            }
        }
        let slice = self.ref_step();
        strategy.on_ref(&slice);
    }

    /// Runs one idle REF interval (no attacker ACTs).
    pub fn idle_interval(&mut self) {
        self.ref_step();
    }

    fn ref_step(&mut self) -> RefreshSlice {
        let slice = self.refptr.advance();
        self.mitigator.on_ref(&slice, self.now);
        self.census.on_ref();
        self.apply_mitigations();
        self.outcome.refs += 1;
        self.intervals += 1;
        self.now += Ps::from_ns(3900);
        self.last_refresh = Some(slice.clone());
        slice
    }

    /// Performs exactly `n` attacker ACTs without advancing refresh
    /// (scenario scripting helper; regular runs use [`run_attack`]).
    pub fn burst(&mut self, pattern: &mut RowPattern, n: u32) {
        for _ in 0..n {
            if self.mitigator.alert_pending() && self.acts_since_alert >= 1 {
                self.mitigator.on_rfm(true, self.now);
                self.outcome.alerts += 1;
                self.acts_since_alert = 0;
                self.slots_since_alert = 0;
                self.apply_mitigations();
            }
            let row = pattern.next_act();
            self.act(row);
        }
    }

    /// Finishes and reports.
    pub fn finish(mut self) -> AttackOutcome {
        self.outcome.max_unmitigated_acts = self.census.max_seen();
        self.outcome
    }
}

/// Runs a full composed attack — `strategy` rows on `schedule` timing —
/// for `refs` REF intervals and judges it with `victim` against `bound`.
#[allow(clippy::too_many_arguments)]
pub fn run_attack(
    mitigator: &mut dyn Mitigator,
    geom: &Geometry,
    timing: &TimingParams,
    bank: usize,
    strategy: &mut dyn AddressStrategy,
    schedule: &mut dyn Schedule,
    victim: &dyn Victim,
    bound: u32,
    refs: u64,
) -> AttackReport {
    let mut h = HammerHarness::new(mitigator, geom, timing, bank);
    for _ in 0..refs {
        h.interval_with(strategy, schedule);
    }
    let max_row_acts = victim.observed_max(h.census());
    let success = victim.compromised(h.census(), bound);
    AttackReport {
        outcome: h.finish(),
        max_row_acts,
        bound,
        success,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{AlertAdaptive, Burst, Paced};
    use crate::strategy::PatternStrategy;
    use crate::victim::{AnyRow, TargetRows};
    use mirza_core::config::MirzaConfig;
    use mirza_core::mirza::Mirza;
    use mirza_core::rct::ResetPolicy;
    use mirza_trackers::prac::PracMoat;
    use mirza_trackers::trr::Trr;

    fn geom() -> Geometry {
        Geometry::ddr5_32gb()
    }

    fn timing() -> TimingParams {
        TimingParams::ddr5_6000()
    }

    /// Replays `pattern` flat-out for `refs` REF intervals, judged on any
    /// row against `bound`.
    fn hammer(m: &mut dyn Mitigator, pattern: RowPattern, bound: u32, refs: u64) -> AttackReport {
        let (geom, timing) = (geom(), timing());
        let mut s = PatternStrategy::from_pattern("pattern", pattern);
        run_attack(
            m, &geom, &timing, 0, &mut s, &mut Burst, &AnyRow, bound, refs,
        )
    }

    /// 56 decoys hammered twice per cycle, then the aggressor pair
    /// 20,001 / 20,003 once: the pattern that breaks sampling TRR.
    fn decoy_rows() -> Vec<u32> {
        let mut rows = Vec::new();
        for d in 0..56u32 {
            rows.push(40_000 + d * 8);
            rows.push(40_000 + d * 8);
        }
        rows.push(20_001);
        rows.push(20_003);
        rows
    }

    #[test]
    fn paced_schedule_reduces_total_acts() {
        let cfg = MirzaConfig::trhd_1000();
        let run = |gap: u32| {
            let mut m = Mirza::new(cfg, &geom(), 3);
            let mapping = *m.mapping().unwrap();
            let mut s = PatternStrategy::double_sided(&mapping, 5_000);
            let mut sched = Paced::new(gap);
            run_attack(
                &mut m,
                &geom(),
                &timing(),
                0,
                &mut s,
                &mut sched,
                &AnyRow,
                cfg.safe_trhd(),
                256,
            )
        };
        let flat = run(0);
        let paced = run(3);
        assert!(paced.outcome.total_acts < flat.outcome.total_acts / 2);
        assert!(!flat.success, "MIRZA must bound the paced sweep baseline");
        assert!(!paced.success);
    }

    #[test]
    fn adaptive_schedule_backs_off_after_alerts() {
        let cfg = MirzaConfig::trhd_1000();
        let run = |adaptive: bool| {
            let mut m = Mirza::new(cfg, &geom(), 5);
            let mapping = *m.mapping().unwrap();
            let mut s = PatternStrategy::double_sided(&mapping, 5_000);
            let mut burst = Burst;
            let mut ad = AlertAdaptive::new(64);
            let sched: &mut dyn Schedule = if adaptive { &mut ad } else { &mut burst };
            run_attack(
                &mut m,
                &geom(),
                &timing(),
                0,
                &mut s,
                sched,
                &AnyRow,
                cfg.safe_trhd(),
                1024,
            )
        };
        let flat = run(false);
        let adaptive = run(true);
        assert!(
            adaptive.outcome.total_acts < flat.outcome.total_acts,
            "cooldowns must cost activations: {} vs {}",
            adaptive.outcome.total_acts,
            flat.outcome.total_acts
        );
    }

    #[test]
    fn targeted_victim_sees_through_decoy_mitigations() {
        // The TRR-breaking decoy flood, judged only on the aggressor pair.
        let mut t = Trr::ddr4_like(&geom());
        let mut s = PatternStrategy::from_pattern("trr-decoys", RowPattern::circular(decoy_rows()));
        let victim = TargetRows::new(vec![20_001, 20_003]);
        let mut sched = Burst;
        let report = run_attack(
            &mut t,
            &geom(),
            &timing(),
            0,
            &mut s,
            &mut sched,
            &victim,
            4_800,
            16_384,
        );
        assert!(report.success, "aggressor pair must exceed TRR's TRHD");
        assert!(report.max_row_acts > 4_800);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let run = || {
            let cfg = MirzaConfig::trhd_1000();
            let mut m = Mirza::new(cfg, &geom(), 29);
            let mapping = *m.mapping().unwrap();
            let mut s = PatternStrategy::blacksmith(&mapping, 7, 24, 3);
            let mut sched = Paced::new(1);
            run_attack(
                &mut m,
                &geom(),
                &timing(),
                0,
                &mut s,
                &mut sched,
                &AnyRow,
                cfg.safe_trhd(),
                512,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn interval_budget_is_75() {
        let mut m = Mirza::new(MirzaConfig::trhd_1000(), &geom(), 1);
        let h = HammerHarness::new(&mut m, &geom(), &timing(), 0);
        assert_eq!(h.acts_per_interval(), 75);
    }

    #[test]
    fn mirza_bounds_double_sided_attack() {
        let cfg = MirzaConfig::trhd_1000();
        let mut m = Mirza::new(cfg, &geom(), 7);
        let pattern = RowPattern::double_sided(m.mapping().unwrap(), 5_000);
        // One full refresh window of flat-out hammering.
        let r = hammer(&mut m, pattern, cfg.safe_trhd(), 8192);
        assert!(r.outcome.total_acts > 300_000);
        assert!(!r.success, "max {} >= bound {}", r.max_row_acts, r.bound);
        assert!(r.outcome.alerts > 0, "the attack must be forcing ALERTs");
    }

    #[test]
    fn mirza_bounds_single_row_hammer() {
        let cfg = MirzaConfig::trhd_1000();
        let mut m = Mirza::new(cfg, &geom(), 11);
        let pattern = RowPattern::single_sided(9_999);
        let r = hammer(&mut m, pattern, cfg.safe_trhs(), 8192);
        assert!(!r.success, "max {} >= TRHS {}", r.max_row_acts, r.bound);
    }

    #[test]
    fn mirza_bounds_feinting_style_queue_attack() {
        // Many rows of one region cycled to keep MIRZA-Q populated
        // (Figure 10's multi-entry pressure + Figure 12 kernel).
        let cfg = MirzaConfig::trhd_1000();
        let mut m = Mirza::new(cfg, &geom(), 13);
        let regions = *m.rct().unwrap().regions();
        let pattern = RowPattern::same_region(m.mapping().unwrap(), &regions, 3, 8);
        let r = hammer(&mut m, pattern, cfg.safe_trhd(), 8192);
        assert!(!r.success, "max {} >= bound {}", r.max_row_acts, r.bound);
    }

    #[test]
    fn prac_moat_bounds_everything_cheaply() {
        // MOAT mitigates at ATH; slack is the ABO episode only.
        let mut p = PracMoat::new(250, &geom());
        let r = hammer(&mut p, RowPattern::single_sided(4_242), 250, 1024);
        let max = r.max_row_acts;
        assert!(max <= 250 + PROLOGUE_ACTS + 1, "max {max}");
    }

    #[test]
    fn trr_is_broken_by_decoy_pattern() {
        // 56 decoys hammered 2x per cycle keep the 28-entry table's top
        // counts; 2 real aggressors at 1x per cycle never become pop_max
        // targets and accrue unmitigated ACTs past today's TRHD of 4.8K.
        // Two refresh windows so a full window-length unmitigated run
        // (between two refreshes of the aggressor) is observed.
        let mut t = Trr::ddr4_like(&geom());
        let r = hammer(&mut t, RowPattern::circular(decoy_rows()), 4_800, 16384);
        let max = r.max_row_acts;
        assert!(max > 4_800, "TRR unexpectedly held: max {max}");
    }

    #[test]
    fn mirza_stops_the_trr_breaking_pattern() {
        // The same decoy pattern against MIRZA configured for TRHD=4.8K
        // (Table XII) stays bounded.
        let cfg = MirzaConfig::trhd_4800();
        let mut m = Mirza::new(cfg, &geom(), 17);
        let pattern = RowPattern::circular(decoy_rows());
        let r = hammer(&mut m, pattern, cfg.safe_trhd(), 8192);
        assert!(!r.success, "max {} >= bound {}", r.max_row_acts, r.bound);
    }

    #[test]
    fn mirza_bounds_half_double_and_blacksmith() {
        let cfg = MirzaConfig::trhd_1000();
        for (name, pattern) in [
            ("half-double", {
                let m = Mirza::new(cfg, &geom(), 19);
                RowPattern::half_double(m.mapping().unwrap(), 5_000)
            }),
            ("blacksmith", {
                let m = Mirza::new(cfg, &geom(), 19);
                RowPattern::blacksmith(m.mapping().unwrap(), 7, 24, 3)
            }),
        ] {
            let mut m = Mirza::new(cfg, &geom(), 19);
            let r = hammer(&mut m, pattern, cfg.safe_trhs(), 4096);
            assert!(!r.success, "{name}: {} >= {}", r.max_row_acts, r.bound);
        }
    }

    #[test]
    fn refresh_resets_counts() {
        let mut m = Mirza::new(MirzaConfig::trhd_1000(), &geom(), 3);
        let mut h = HammerHarness::new(&mut m, &geom(), &timing(), 0);
        // Hammer row address 0 (physical row 0, refreshed by the first REF).
        let mut p = RowPattern::single_sided(0);
        h.burst(&mut p, 10);
        assert_eq!(h.count(0), 10);
        h.idle_interval(); // REF slice 0..16 covers physical row 0
        assert_eq!(h.count(0), 0);
    }

    #[test]
    fn reset_policy_attack_breaks_eager_but_not_safe() {
        // Appendix B: hammer the target FTH-1 times just before the
        // region's first REF and FTH-1 times during the walk. Eager reset
        // double-counts the budget; safe reset (RRC) does not.
        let run = |policy: ResetPolicy| {
            let fth = 300;
            let cfg = MirzaConfig {
                fth,
                mint_w: 4,
                ..MirzaConfig::trhd_1000()
            };
            let mut m = Mirza::with_reset_policy(cfg, &geom(), 23, policy);
            let mapping = *m.mapping().unwrap();
            // Region 5 covers physical rows 5120..6144; its refresh walk is
            // REF steps 320..384. Target the region's last physical row.
            let target = mapping.row_of(6143);
            let mut h = HammerHarness::new(&mut m, &geom(), &timing(), 0);
            let mut p = RowPattern::single_sided(target);
            for _ in 0..315 {
                h.idle_interval();
            }
            // Phase 1: FTH-1 ACTs right before the region's first REF.
            for _ in 315..319 {
                h.burst(&mut p, (fth - 1) / 4);
                h.idle_interval();
            }
            h.burst(&mut p, (fth - 1) - 4 * ((fth - 1) / 4));
            h.idle_interval(); // step 319
            h.idle_interval(); // step 320: the region's first REF (reset)
                               // Phase 2: FTH-1 ACTs while the region is being walked.
            for _ in 0..8 {
                h.burst(&mut p, (fth - 1) / 8);
                h.idle_interval();
            }
            let max = h.finish().max_unmitigated_acts;
            (max, fth)
        };
        let (eager, fth) = run(ResetPolicy::Eager);
        let (safe, _) = run(ResetPolicy::Safe);
        assert!(
            eager as f64 >= 1.7 * f64::from(fth),
            "eager reset should under-count: {eager} vs FTH {fth}"
        );
        assert!(
            (safe as f64) < 1.4 * f64::from(fth),
            "safe reset must bound the count: {safe} vs FTH {fth}"
        );
    }
}
