//! Adversarial experiment regenerators: the Appendix-B reset-policy attack
//! (Figure 14), the worst-case security sweep across trackers, and the
//! simulated denial-of-service kernel (Figure 12 / Table XI cross-check).

use std::fmt::Write as _;

use mirza_attacks::rig::{run_attack, HammerHarness};
use mirza_attacks::schedule::Burst;
use mirza_attacks::strategy::PatternStrategy;
use mirza_attacks::victim::AnyRow;
use mirza_core::config::MirzaConfig;
use mirza_core::mirza::Mirza;
use mirza_core::rct::ResetPolicy;
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::Mitigator;
use mirza_dram::timing::TimingParams;
use mirza_sim::config::{Attacker, SimConfig};
use mirza_trackers::mithril::Mithril;
use mirza_trackers::prac::PracMoat;
use mirza_trackers::trr::Trr;
use mirza_workloads::attacks::RowPattern;

use crate::lab::Lab;

/// Appendix-B scenario against *eager* reset: FTH-1 ACTs on the region's
/// last row just before the region's first REF, plus FTH-1 during its
/// walk. Returns the max unmitigated count.
pub fn reset_policy_attack(policy: ResetPolicy, fth: u32) -> u32 {
    let geom = Geometry::ddr5_32gb();
    let timing = TimingParams::ddr5_6000();
    let cfg = MirzaConfig {
        fth,
        mint_w: 4,
        ..MirzaConfig::trhd_1000()
    };
    let mut m = Mirza::with_reset_policy(cfg, &geom, 23, policy);
    let mapping = *m.mapping().expect("MIRZA exposes its mapping");
    // Region 5 covers physical rows 5120..6144 (REF steps 320..384);
    // target its last physical row.
    let target = mapping.row_of(6143);
    let mut h = HammerHarness::new(&mut m, &geom, &timing, 0);
    let mut p = RowPattern::single_sided(target);
    for _ in 0..315 {
        h.idle_interval();
    }
    for _ in 0..4 {
        h.burst(&mut p, (fth - 1) / 4);
        h.idle_interval();
    }
    h.burst(&mut p, (fth - 1) - 4 * ((fth - 1) / 4));
    h.idle_interval(); // step 319
    h.idle_interval(); // step 320: region 5's first REF
    for _ in 0..8 {
        h.burst(&mut p, (fth - 1) / 8);
        h.idle_interval();
    }
    h.finish().max_unmitigated_acts
}

/// Appendix-B scenario against *lazy* reset: FTH-1 ACTs on the region's
/// first row while the region walk runs, plus FTH-1 after the last REF
/// clears the counter. Returns the max unmitigated count.
pub fn reset_policy_attack_early_row(policy: ResetPolicy, fth: u32) -> u32 {
    let geom = Geometry::ddr5_32gb();
    let timing = TimingParams::ddr5_6000();
    let cfg = MirzaConfig {
        fth,
        mint_w: 4,
        ..MirzaConfig::trhd_1000()
    };
    let mut m = Mirza::with_reset_policy(cfg, &geom, 29, policy);
    let mapping = *m.mapping().expect("MIRZA exposes its mapping");
    // Region 5's first physical row; it is refreshed by REF step 320, so
    // the attack window opens clean.
    let target = mapping.row_of(5120);
    let mut h = HammerHarness::new(&mut m, &geom, &timing, 0);
    let mut p = RowPattern::single_sided(target);
    for _ in 0..321 {
        h.idle_interval(); // through step 320 (region 5 walk begins)
    }
    // Phase 1: FTH-1 ACTs during the walk (steps 321..384).
    for _ in 0..8 {
        h.burst(&mut p, (fth - 1) / 8);
        h.idle_interval();
    }
    h.burst(&mut p, (fth - 1) - 8 * ((fth - 1) / 8));
    // Finish the walk: the region's last REF is step 383.
    for _ in 329..384 {
        h.idle_interval();
    }
    // Phase 2: FTH-1 ACTs after the (lazy) reset.
    for _ in 0..4 {
        h.burst(&mut p, (fth - 1) / 4);
        h.idle_interval();
    }
    h.finish().max_unmitigated_acts
}

/// Figure 14 / Appendix B: unmitigated ACTs under each RCT reset policy.
/// Each policy faces both straddle variants; the worst is reported.
pub fn fig14() -> String {
    let fth = 300;
    let mut out = format!(
        "Figure 14 / Appendix B: RCT reset policies under the straddle attacks (FTH={fth})\n\
         policy   max unmitigated ACTs   verdict\n"
    );
    for (policy, name) in [
        (ResetPolicy::Safe, "safe"),
        (ResetPolicy::Eager, "eager"),
        (ResetPolicy::Lazy, "lazy"),
    ] {
        let max = reset_policy_attack(policy, fth).max(reset_policy_attack_early_row(policy, fth));
        let verdict = if f64::from(max) >= 1.7 * f64::from(fth) {
            "UNSAFE (near 2xFTH)"
        } else {
            "bounded"
        };
        let _ = writeln!(out, "{name:<8} {max:<22} {verdict}");
    }
    out
}

/// Security sweep: worst-case unmitigated ACTs per tracker under its
/// strongest implemented pattern, against the Section VI bounds.
pub fn security_sweep(windows: u64) -> String {
    let geom = Geometry::ddr5_32gb();
    let timing = TimingParams::ddr5_6000();
    let refs = windows * u64::from(geom.refs_per_full_walk());
    let mut out = String::from(
        "Security sweep: max unmitigated ACTs (attack patterns at full rate)\n\
         tracker        pattern          max ACTs   bound     holds?\n",
    );
    // One row: `rows` replayed flat-out for `refs` REFs, judged on any row.
    let mut row = |name: &str,
                   pattern: &str,
                   m: &mut dyn Mitigator,
                   rows: RowPattern,
                   bound: u32,
                   refs: u64| {
        let mut strategy = PatternStrategy::from_pattern(pattern, rows);
        let r = run_attack(
            m,
            &geom,
            &timing,
            0,
            &mut strategy,
            &mut Burst,
            &AnyRow,
            bound,
            refs,
        );
        let (max, holds) = (r.max_row_acts, if r.success { "NO" } else { "yes" });
        let _ = writeln!(out, "{name:<14} {pattern:<16} {max:<10} {bound:<9} {holds}");
    };

    // MIRZA at each Table VII threshold, double-sided.
    for cfg in [
        MirzaConfig::trhd_500(),
        MirzaConfig::trhd_1000(),
        MirzaConfig::trhd_2000(),
    ] {
        let mut m = Mirza::new(cfg, &geom, 7);
        let rows = RowPattern::double_sided(m.mapping().expect("mapping"), 5_000);
        let name = format!("mirza-{}", cfg.target_trhd);
        let bound = cfg.safe_trhd();
        row(&name, "double-sided", &mut m, rows, bound, refs);
    }
    // MIRZA same-region CGF-evasion pattern.
    let cfg = MirzaConfig::trhd_1000();
    let mut m = Mirza::new(cfg, &geom, 13);
    let regions = *m.rct().expect("rct").regions();
    let rows = RowPattern::same_region(m.mapping().expect("mapping"), &regions, 3, 8);
    let bound = cfg.safe_trhd();
    row("mirza-1000", "same-region", &mut m, rows, bound, refs);
    // PRAC/MOAT.
    let mut p = PracMoat::for_trhd(1000, &geom);
    let rows = RowPattern::single_sided(4_242);
    row("prac-moat", "single-sided", &mut p, rows, 1000, refs);
    // Mithril holds; TRR breaks under the decoy flood: 56 decoys twice per
    // cycle, then the aggressor pair once, for at least two windows.
    let mut decoys = Vec::new();
    for d in 0..56u32 {
        decoys.push(40_000 + d * 8);
        decoys.push(40_000 + d * 8);
    }
    decoys.extend([20_001, 20_003]);
    let flood = || RowPattern::circular(decoys.clone());
    let refs = refs.max(16384);
    let mut m = Mithril::new(2048, 1, &geom);
    row("mithril-2K", "decoy flood", &mut m, flood(), 4800, refs);
    let mut t = Trr::ddr4_like(&geom);
    row("trr", "decoy flood", &mut t, flood(), 4800, refs);
    out
}

/// Simulated DoS cross-check of Table XI: one attacker core replays the
/// Figure-12 same-region kernel against MIRZA; benign slowdown is compared
/// with the analytic model.
pub fn dos_sim(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Simulated performance attack (Figure 12 kernel, benign = lbm x7)\n\
         MINT-W   measured slowdown   analytic bound\n",
    );
    let timing = TimingParams::ddr5_6000();
    let benign = SimConfig::CORES - 1;
    let attacker = Attacker::figure12(&lab.scale().geometry());
    for w in [8u32, 12, 16] {
        let mirza = lab.mirza_with(MirzaConfig::sensitivity_1000(w));
        let attacked = lab.run_on(mirza, "lbm", benign, Some(attacker.clone()));
        let solo = lab.run_on(mirza, "lbm", benign, None);
        let slowdown = 1.0 / (attacked.weighted_speedup(&solo) / solo.core_ipc.len() as f64);
        let bound = mirza_security::dos::mirza_attack_slowdown(&timing, w);
        let _ = writeln!(out, "{w:<8} {slowdown:>8.2}x           {bound:.2}x");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    /// The whole table, pinned: the safe reset stays near FTH, eager and
    /// lazy reach nearly twice it.
    #[test]
    fn fig14_flags_eager_and_lazy_as_unsafe() {
        assert_eq!(
            fig14(),
            "Figure 14 / Appendix B: RCT reset policies under the straddle attacks (FTH=300)\n\
             policy   max unmitigated ACTs   verdict\n\
             safe     320                    bounded\n\
             eager    595                    UNSAFE (near 2xFTH)\n\
             lazy     595                    UNSAFE (near 2xFTH)\n"
        );
    }

    /// The whole one-window table `repro security` prints, pinned: every
    /// bound holds except TRR's under the decoy flood.
    #[test]
    fn security_sweep_renders() {
        assert_eq!(
            security_sweep(1),
            "Security sweep: max unmitigated ACTs (attack patterns at full rate)\n\
             tracker        pattern          max ACTs   bound     holds?\n\
             mirza-500      double-sided     361        514       yes\n\
             mirza-1000     double-sided     785        1014      yes\n\
             mirza-2000     double-sided     1709       2009      yes\n\
             mirza-1000     same-region      254        1014      yes\n\
             prac-moat      single-sided     253        1000      yes\n\
             mithril-2K     decoy flood      78         4800      yes\n\
             trr            decoy flood      5389       4800      NO\n"
        );
    }

    /// The whole smoke-scale table, pinned: each attacked run against its
    /// 7-core solo run, next to the analytic bound.
    #[test]
    fn dos_sim_renders() {
        assert_eq!(
            dos_sim(&mut Lab::new(Scale::smoke())),
            "Simulated performance attack (Figure 12 kernel, benign = lbm x7)\n\
             MINT-W   measured slowdown   analytic bound\n\
             8            2.22x           2.25x\n\
             12           2.00x           1.79x\n\
             16           1.94x           1.58x\n"
        );
    }
}
