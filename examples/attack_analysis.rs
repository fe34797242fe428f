//! Attack analysis: replay Rowhammer patterns against MIRZA and the
//! baselines, and compare the measured worst case against the Section-VI
//! analytic bounds.
//!
//! Run with: `cargo run --release --example attack_analysis`

use mirza::attacks::rig::{run_attack, AttackReport};
use mirza::attacks::schedule::Burst;
use mirza::attacks::strategy::PatternStrategy;
use mirza::attacks::victim::AnyRow;
use mirza::core::config::MirzaConfig;
use mirza::core::mirza::Mirza;
use mirza::dram::geometry::Geometry;
use mirza::dram::mitigation::Mitigator;
use mirza::dram::timing::TimingParams;
use mirza::trackers::prac::PracMoat;
use mirza::trackers::trr::Trr;
use mirza::workloads::attacks::RowPattern;

/// Replays `rows` flat-out on bank 0 for `refs` REF intervals and judges
/// the run on any row against `bound`.
fn replay(m: &mut dyn Mitigator, rows: RowPattern, bound: u32, refs: u64) -> AttackReport {
    let geom = Geometry::ddr5_32gb();
    let timing = TimingParams::ddr5_6000();
    let mut s = PatternStrategy::from_pattern("pattern", rows);
    run_attack(
        m, &geom, &timing, 0, &mut s, &mut Burst, &AnyRow, bound, refs,
    )
}

fn main() {
    let geom = Geometry::ddr5_32gb();
    let one_window = u64::from(geom.refs_per_full_walk()); // 8192 REFs = 32 ms

    println!("pattern            tracker      max unmitigated ACTs   bound");

    // Double-sided attack against each MIRZA threshold configuration.
    for cfg in [
        MirzaConfig::trhd_500(),
        MirzaConfig::trhd_1000(),
        MirzaConfig::trhd_2000(),
    ] {
        let mut m = Mirza::new(cfg, &geom, 7);
        let mapping = *m.mapping().expect("MIRZA exposes its mapping");
        let p = RowPattern::double_sided(&mapping, 5_000);
        let r = replay(&mut m, p, cfg.safe_trhd(), one_window);
        println!(
            "double-sided       mirza-{:<5}  {:>8} ({} alerts)    < {}",
            cfg.target_trhd, r.max_row_acts, r.outcome.alerts, r.bound
        );
        assert!(!r.success);
    }

    // The CGF-evading same-region pattern (Figure 12 kernel).
    {
        let cfg = MirzaConfig::trhd_1000();
        let mut m = Mirza::new(cfg, &geom, 13);
        let mapping = *m.mapping().expect("mapping");
        let regions = *m.rct().expect("rct").regions();
        let p = RowPattern::same_region(&mapping, &regions, 3, 8);
        let r = replay(&mut m, p, cfg.safe_trhd(), one_window);
        println!(
            "same-region (x8)   mirza-1000   {:>8} ({} alerts)    < {}",
            r.max_row_acts, r.outcome.alerts, r.bound
        );
    }

    // PRAC/MOAT: tight reactive bound.
    {
        let mut p = PracMoat::for_trhd(1000, &geom);
        let r = replay(&mut p, RowPattern::single_sided(4_242), 1000, one_window);
        println!(
            "single-sided       prac-moat    {:>8} ({} alerts)    ~ ATH+4",
            r.max_row_acts, r.outcome.alerts
        );
    }

    // TRR succumbs to a Blacksmith-style decoy flood.
    {
        let mut rows = Vec::new();
        for d in 0..56u32 {
            rows.push(40_000 + d * 8);
            rows.push(40_000 + d * 8);
        }
        rows.push(20_001);
        rows.push(20_003);
        let mut t = Trr::ddr4_like(&geom);
        let r = replay(&mut t, RowPattern::circular(rows), 4800, 2 * one_window);
        println!(
            "decoy flood        trr          {:>8} -> bit flips below TRHD 4.8K ({})",
            r.max_row_acts,
            if r.max_row_acts > 4800 {
                "BROKEN"
            } else {
                "held"
            }
        );
    }
}
