//! Cross-crate security validation: every Table-VII MIRZA configuration
//! bounds every implemented attack pattern by its Section-VI analytic
//! threshold, while the insecure designs demonstrably fail.

use mirza::attacks::rig::{run_attack, AttackReport};
use mirza::attacks::schedule::Burst;
use mirza::attacks::strategy::PatternStrategy;
use mirza::attacks::victim::AnyRow;
use mirza::core::config::MirzaConfig;
use mirza::core::mirza::Mirza;
use mirza::core::rct::ResetPolicy;
use mirza::dram::geometry::Geometry;
use mirza::dram::mitigation::Mitigator;
use mirza::dram::timing::TimingParams;
use mirza::workloads::attacks::RowPattern;

fn geom() -> Geometry {
    Geometry::ddr5_32gb()
}

/// Half a refresh window is enough to reach each attack's steady state
/// while keeping the suite fast.
const REFS: u64 = 4096;

/// Replays `pattern` flat-out for `refs` REF intervals, judged on any row
/// against `bound`.
fn hammer(m: &mut dyn Mitigator, pattern: RowPattern, bound: u32, refs: u64) -> AttackReport {
    let (geom, timing) = (geom(), TimingParams::ddr5_6000());
    let mut s = PatternStrategy::from_pattern("pattern", pattern);
    run_attack(
        m, &geom, &timing, 0, &mut s, &mut Burst, &AnyRow, bound, refs,
    )
}

#[test]
fn every_table7_config_bounds_double_sided() {
    for cfg in [
        MirzaConfig::trhd_500(),
        MirzaConfig::trhd_1000(),
        MirzaConfig::trhd_2000(),
        MirzaConfig::trhd_4800(),
    ] {
        let mut m = Mirza::new(cfg, &geom(), 5);
        let p = RowPattern::double_sided(m.mapping().unwrap(), 7_777);
        let r = hammer(&mut m, p, cfg.safe_trhd(), REFS);
        let trhd = cfg.target_trhd;
        assert!(!r.success, "TRHD {trhd}: {} >= {}", r.max_row_acts, r.bound);
    }
}

#[test]
fn every_table7_config_bounds_many_sided() {
    for cfg in [MirzaConfig::trhd_1000(), MirzaConfig::trhd_2000()] {
        let mut m = Mirza::new(cfg, &geom(), 9);
        let p = RowPattern::many_sided(m.mapping().unwrap(), 11, 12);
        let r = hammer(&mut m, p, cfg.safe_trhd(), REFS);
        // Per-aggressor bound is the single-sided-style bound: many-sided
        // splits the budget over 24 rows, so it lands far below even TRHD.
        let trhd = cfg.target_trhd;
        assert!(!r.success, "TRHD {trhd}: {}", r.max_row_acts);
    }
}

#[test]
fn sensitivity_configs_hold_at_trhd_1000() {
    // Table IX's four (W, FTH) pairs all promise TRHD = 1K.
    for w in [4, 8, 12, 16] {
        let cfg = MirzaConfig::sensitivity_1000(w);
        let mut m = Mirza::new(cfg, &geom(), 31 + u64::from(w));
        let p = RowPattern::double_sided(m.mapping().unwrap(), 9_009);
        let r = hammer(&mut m, p, cfg.safe_trhd().max(1100), REFS);
        let safe = cfg.safe_trhd();
        assert!(!r.success, "W={w}: {} vs {safe}", r.max_row_acts);
    }
}

#[test]
fn unsafe_reset_policies_undercount() {
    use mirza_bench::attacks_exp::{reset_policy_attack, reset_policy_attack_early_row};
    let fth = 300;
    let eager = reset_policy_attack(ResetPolicy::Eager, fth);
    let lazy = reset_policy_attack_early_row(ResetPolicy::Lazy, fth);
    let safe = reset_policy_attack(ResetPolicy::Safe, fth)
        .max(reset_policy_attack_early_row(ResetPolicy::Safe, fth));
    assert!(eager as f64 >= 1.7 * f64::from(fth), "eager {eager}");
    assert!(lazy as f64 >= 1.7 * f64::from(fth), "lazy {lazy}");
    assert!((safe as f64) < 1.4 * f64::from(fth), "safe {safe}");
}

#[test]
fn safe_trh_equations_match_paper_structure() {
    // TRHD_safe = FTH/2 + MINT_TRHD(W) + QTH + ABO_ACTS (+1), Section VI-B.
    let cfg = MirzaConfig::trhd_1000();
    let expected = cfg.fth / 2
        + mirza::core::config::mint_tolerated_trhd(cfg.mint_w)
        + cfg.qth
        + mirza::core::config::ABO_EXTRA_ACTS
        + 1;
    assert_eq!(cfg.safe_trhd(), expected);
    assert!(cfg.safe_trhd() <= 1100, "within ~10% of the 1K target");
}
