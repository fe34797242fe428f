//! Analytic experiment regenerators: the tables that need no simulation
//! (Tables I, II, III, VII, X, XI, XII and the Figure 9 decomposition).

use mirza_core::config::{mint_tolerated_trhd, MirzaConfig, ABO_EXTRA_ACTS, DEFAULT_QTH};
use mirza_dram::geometry::Geometry;
use mirza_dram::timing::TimingParams;
use mirza_security::area::table10;
use mirza_security::dos::{
    alert_storm_slowdown, mint_rfm_attack_slowdown, mirza_attack_slowdown, prac_attack_slowdown,
    table11,
};
use mirza_security::proactive::{refresh_cannibalization, table2};
use mirza_trackers::mint_rfm::MintRfm;
use std::fmt::Write as _;

/// MIRZA's design point for `trhd`: its Table VII row, or Table XII's for
/// 4800.
///
/// # Panics
/// Panics for any other TRHD.
pub(crate) fn mirza_preset(trhd: u32) -> MirzaConfig {
    match trhd {
        500 => MirzaConfig::trhd_500(),
        1000 => MirzaConfig::trhd_1000(),
        2000 => MirzaConfig::trhd_2000(),
        4800 => MirzaConfig::trhd_4800(),
        _ => panic!("no Table VII preset for TRHD {trhd}"),
    }
}

/// Table I: DRAM timing parameters, baseline vs PRAC.
pub fn table1() -> String {
    let b = TimingParams::ddr5_6000();
    let p = TimingParams::ddr5_6000_prac();
    let mut out = String::from(
        "Table I: DRAM timings (DDR5-6000AN)\n\
         param   baseline   PRAC\n",
    );
    let rows = [
        ("tRCD", b.t_rcd, p.t_rcd),
        ("tRP", b.t_rp, p.t_rp),
        ("tRAS", b.t_ras, p.t_ras),
        ("tRC", b.t_rc, p.t_rc),
        ("tREFW", b.t_refw, p.t_refw),
        ("tREFI", b.t_refi, p.t_refi),
        ("tRFC", b.t_rfc, p.t_rfc),
    ];
    for (name, base, prac) in rows {
        let _ = writeln!(out, "{name:<7} {base:>9} {prac:>9}");
    }
    out
}

/// Table II: TRHD tolerated by proactive MINT and Mithril.
pub fn table2_report() -> String {
    let t = TimingParams::ddr5_6000();
    let mut out = String::from(
        "Table II: tolerated TRHD of proactive trackers\n\
         rate           cannibal.   MINT     Mithril(2K)\n",
    );
    for row in table2(&t) {
        let _ = writeln!(
            out,
            "1 per {:<2} REF   {:>6.1}%   {:>6.0}   {:>8.0}",
            row.refs_per_mitigation,
            100.0 * row.refresh_cannibalization,
            row.mint_trhd,
            row.mithril_trhd
        );
    }
    out
}

/// Table III: baseline system configuration.
pub fn table3() -> String {
    let g = Geometry::ddr5_32gb();
    format!(
        "Table III: baseline system configuration\n\
         cores            8 OOO, 4 GHz, 4-wide, 392-entry ROB\n\
         LLC              16 MB, 16-way, 64 B lines\n\
         memory           {} GB DDR5, {} sub-channels x {} banks\n\
         rows per bank    {}K rows of {} B\n\
         tALERT           180 ns (prologue) + 350 ns (stall)\n\
         address mapping  MOP4, soft close-page policy\n",
        g.total_bytes() >> 30,
        g.subchannels,
        g.banks,
        g.rows_per_bank / 1024,
        g.row_bytes,
    )
}

/// Table VII: MIRZA configurations per target TRHD.
pub fn table7() -> String {
    let mut out = String::from(
        "Table VII: MIRZA configurations\n\
         TRHD   FTH    MINT-W   regions/bank   SRAM/bank (B)\n",
    );
    for cfg in [
        MirzaConfig::trhd_2000(),
        MirzaConfig::trhd_1000(),
        MirzaConfig::trhd_500(),
    ] {
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:<8} {:<14} {}",
            cfg.target_trhd,
            cfg.fth,
            cfg.mint_w,
            cfg.regions_per_bank,
            cfg.sram_bytes_per_bank()
        );
    }
    out
}

/// Figure 9: safe-TRH phase decomposition.
pub fn fig9() -> String {
    let mut out = String::from(
        "Figure 9: unmitigated-ACT budget by phase (double-sided bound)\n\
         TRHD   Phase-A(FTH/2)  Phase-B(MINT)  Phase-C(QTH)  Phase-D(ABO)  bound\n",
    );
    for cfg in [
        MirzaConfig::trhd_2000(),
        MirzaConfig::trhd_1000(),
        MirzaConfig::trhd_500(),
    ] {
        let _ = writeln!(
            out,
            "{:<6} {:<15} {:<14} {:<13} {:<13} {}",
            cfg.target_trhd,
            cfg.fth / 2,
            mint_tolerated_trhd(cfg.mint_w),
            DEFAULT_QTH,
            ABO_EXTRA_ACTS,
            cfg.safe_trhd()
        );
    }
    out
}

/// Table X: relative area of MIRZA and PRAC per subarray.
pub fn table10_report() -> String {
    let mut out = String::from(
        "Table X: relative area per 1K-row subarray (6F^2 DRAM / 120F^2 SRAM)\n\
         TRHD   MIRZA SRAM bits   PRAC DRAM bits   PRAC/MIRZA area\n",
    );
    for row in table10() {
        let _ = writeln!(
            out,
            "{:<6} {:<17} {:<16} {:.1}x",
            row.trhd, row.mirza_bits, row.prac_bits, row.prac_over_mirza
        );
    }
    out
}

/// Table XI: ACT throughput under the MIRZA performance attack.
pub fn table11_report() -> String {
    let t = TimingParams::ddr5_6000();
    let mut out = String::from(
        "Table XI: benign ACT throughput under performance attack\n\
         MINT-W   throughput   slowdown\n",
    );
    for row in table11(&t) {
        let _ = writeln!(
            out,
            "{:<8} {:>6.1}%      {:.2}x",
            row.mint_w, row.throughput_pct, row.slowdown
        );
    }
    let _ = writeln!(
        out,
        "(continuous ALERT storm bound: {:.1}x)",
        alert_storm_slowdown(&t)
    );
    out
}

/// Table XII: storage and refresh cannibalization at TRHD = 4.8K.
pub fn table12() -> String {
    let mirza = MirzaConfig::trhd_4800();
    // TRR: 28 entries x 3 B, one mitigation per 4 REF.
    // MINT: ~20 B (sampler + delayed-mitigation queue), one per 3 REF.
    let trr_cannibal = 100.0 * refresh_cannibalization(4);
    let mint_cannibal = 100.0 * refresh_cannibalization(3);
    format!(
        "Table XII: in-DRAM trackers at the current TRHD of 4.8K\n\
         tracker   storage/bank   secure?   refresh cannibalization\n\
         TRR       84 B           no        {trr_cannibal:.0}%\n\
         MINT      20 B           yes       {mint_cannibal:.0}%\n\
         MIRZA     {} B           yes       0%\n",
        mirza.sram_bytes_per_bank()
    )
}

/// Appendix A / Table XIII analytic columns: worst-case (performance
/// attack) slowdowns for the three designs.
///
/// # Panics
/// Panics for a TRHD with no MIRZA preset.
pub fn table13_attack_column(trhd: u32) -> (f64, f64, f64) {
    let t = TimingParams::ddr5_6000();
    (
        prac_attack_slowdown(&t, trhd / 16),
        mint_rfm_attack_slowdown(&t, MintRfm::bat_for_trhd(trhd)),
        mirza_attack_slowdown(&t, mirza_preset(trhd).mint_w),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_tables_render() {
        for s in [
            table1(),
            table2_report(),
            table3(),
            table7(),
            fig9(),
            table10_report(),
            table11_report(),
            table12(),
        ] {
            assert!(s.lines().count() >= 3, "table too short:\n{s}");
        }
    }

    #[test]
    fn table12_renders() {
        assert_eq!(
            table12(),
            "Table XII: in-DRAM trackers at the current TRHD of 4.8K\n\
             tracker   storage/bank   secure?   refresh cannibalization\n\
             TRR       84 B           no        17%\n\
             MINT      20 B           yes       23%\n\
             MIRZA     72 B           yes       0%\n"
        );
    }

    #[test]
    fn table7_text_contains_paper_budgets() {
        let t = table7();
        assert!(t.contains("196"));
        assert!(t.contains("116"));
        assert!(t.contains("340"));
    }

    #[test]
    fn attack_columns_are_ordered() {
        for trhd in [500, 1000, 2000] {
            let (prac, rfm, mirza) = table13_attack_column(trhd);
            assert!(prac < rfm && rfm < mirza, "{trhd}: {prac} {rfm} {mirza}");
        }
    }

    #[test]
    #[should_panic(expected = "no Table VII preset")]
    fn attack_column_refuses_a_trhd_without_a_preset() {
        let _ = table13_attack_column(750);
    }
}
