//! Simulation-driven experiment regenerators: every table and figure of the
//! evaluation that needs the full-system simulator.

use std::fmt::Write as _;

use mirza_core::config::MirzaConfig;
use mirza_dram::address::MappingScheme;
use mirza_sim::config::MitigationConfig;
use mirza_trackers::mint_rfm::MintRfm;

use crate::analytic::table13_attack_column;
use crate::lab::Lab;

/// Table IV: workload characteristics under the unprotected baseline.
pub fn table4(lab: &mut Lab) -> String {
    let shrink = lab.scale().shrink;
    let mut out = format!(
        "Table IV: workload characteristics (scale 1/{shrink}; ACT/SA column \
         also shown x{shrink} for paper comparison)\n\
         workload     MPKI    ACT-PKI  bus%   ACT/SA/tREFW (u+-s)   x{shrink}\n"
    );
    let mut sums = (0.0, 0.0, 0.0, 0.0);
    let ws = lab.workloads();
    for w in &ws {
        let r = lab.baseline(w);
        let (mean, sd) = r.acts_per_subarray_per_trefw();
        let _ = writeln!(
            out,
            "{w:<12} {:>6.1} {:>8.1} {:>6.1} {:>9.0} +- {:<6.0} {:>7.0} +- {:<6.0}",
            r.mpki(),
            r.act_pki(),
            r.bus_utilization_pct(),
            mean,
            sd,
            mean * shrink as f64,
            sd * shrink as f64,
        );
        sums.0 += r.mpki();
        sums.1 += r.act_pki();
        sums.2 += r.bus_utilization_pct();
        sums.3 += mean;
    }
    let n = ws.len() as f64;
    let _ = writeln!(
        out,
        "{:<12} {:>6.1} {:>8.1} {:>6.1} {:>9.0}",
        "average",
        sums.0 / n,
        sums.1 / n,
        sums.2 / n,
        sums.3 / n
    );
    out
}

/// The MINT+RFM configuration for a target TRHD (BAT 24/48/96).
fn mint_rfm(trhd: u32) -> MitigationConfig {
    MitigationConfig::MintRfm {
        bat: MintRfm::bat_for_trhd(trhd),
    }
}

/// Figure 3: slowdown and refresh power of MINT+RFM vs PRAC+ABO.
pub fn fig3(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Figure 3: proactive MINT+RFM vs reactive PRAC+ABO\n\
         TRHD    MINT slowdown   MINT refresh power   PRAC slowdown   PRAC refresh power\n",
    );
    for trhd in [500u32, 1000, 2000] {
        let mint = mint_rfm(trhd);
        let prac = MitigationConfig::PracAbo { trhd };
        let mint_slow = lab.avg_slowdown(mint);
        let prac_slow = lab.avg_slowdown(prac);
        let (mut mint_pow, mut prac_pow) = (0.0, 0.0);
        let ws = lab.workloads();
        for w in &ws {
            mint_pow += lab.run(mint, w).refresh_power_overhead_pct();
            prac_pow += lab.run(prac, w).refresh_power_overhead_pct();
        }
        let n = ws.len() as f64;
        let _ = writeln!(
            out,
            "{trhd:<7} {:>10.2}%   {:>15.1}%   {:>11.2}%   {:>15.2}%",
            mint_slow,
            mint_pow / n,
            prac_slow,
            prac_pow / n
        );
    }
    out
}

/// Table V: Naive MIRZA (MINT+ABO, no filtering) slowdown vs queue size.
/// The q=1 ALERT storms make these the slowest runs of the suite, so the
/// sweep uses every third workload (8 of 24), which the paper's averages
/// are insensitive to.
pub fn table5(lab: &mut Lab) -> String {
    let subset: Vec<&'static str> = lab.workloads().into_iter().step_by(3).collect();
    let mut out = format!(
        "Table V: Naive MIRZA average slowdown (%) vs MIRZA-Q size\n\
         (averaged over {} workloads: {})\n\
         MINT-W      q=1       q=2       q=4       q=8\n",
        subset.len(),
        subset.join(",")
    );
    for w in [24u32, 48, 96] {
        let mut line = format!("{w:<8}");
        for q in [1usize, 2, 4, 8] {
            let cfg = MitigationConfig::MirzaNaive {
                mint_w: w,
                queue: q,
            };
            let sum: f64 = subset.iter().map(|wl| lab.slowdown(cfg, wl)).sum();
            let _ = write!(line, " {:>8.2}%", sum / subset.len() as f64);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Figure 6: average ACTs per subarray per tREFW vs the worst case.
pub fn fig6(lab: &mut Lab) -> String {
    let shrink = lab.scale().shrink;
    let worst = lab.scale().worst_case_acts_per_refw();
    let mut out = format!(
        "Figure 6: ACTs per subarray per tREFW (scale 1/{shrink}); \
         worst case = {worst:.0}\n"
    );
    let mut total = 0.0;
    let ws = lab.workloads();
    for w in &ws {
        let r = lab.baseline(w);
        let (mean, _) = r.acts_per_subarray_per_trefw();
        total += mean;
        let _ = writeln!(
            out,
            "{w:<12} {mean:>9.0}   ({:.0}x below worst case)",
            worst / mean.max(1e-9)
        );
    }
    let avg = total / ws.len() as f64;
    let _ = writeln!(
        out,
        "{:<12} {avg:>9.0}   ({:.0}x below worst case)",
        "average",
        worst / avg.max(1e-9)
    );
    out
}

/// Table VI: CGF effectiveness under sequential vs strided R2SA mapping.
pub fn table6(lab: &mut Lab) -> String {
    let shrink = lab.scale().shrink;
    let mut out = format!(
        "Table VI: % of ACTs filtered by CGF (FTH values at paper scale, run at 1/{shrink})\n\
         FTH      sequential filtered   strided filtered\n"
    );
    for fth in [1400u32, 1500, 1600, 1700] {
        let mut cells = Vec::new();
        for mapping in [MappingScheme::Sequential, MappingScheme::Strided] {
            let mitigation = lab.mirza_with(MirzaConfig {
                fth,
                mapping,
                ..MirzaConfig::trhd_1000()
            });
            let (mut filtered, mut observed) = (0u64, 0u64);
            for w in lab.workloads() {
                let r = lab.run(mitigation, w);
                filtered += r.mitigation.acts_filtered;
                observed += r.mitigation.acts_observed;
            }
            cells.push(100.0 * filtered as f64 / observed.max(1) as f64);
        }
        let _ = writeln!(out, "{fth:<8} {:>14.2}%   {:>14.2}%", cells[0], cells[1]);
    }
    out
}

/// Figure 11a: per-workload slowdown of MIRZA (three thresholds) and PRAC.
pub fn fig11a(lab: &mut Lab) -> String {
    fig11(
        lab,
        "Figure 11a: slowdown (%) vs unprotected baseline",
        |lab, m, w| lab.slowdown(m, w),
    )
}

/// Figure 11b: ALERT back-offs per 100 tREFI per sub-channel.
pub fn fig11b(lab: &mut Lab) -> String {
    fig11(lab, "Figure 11b: ALERTs per 100 tREFI", |lab, m, w| {
        lab.run(m, w).alerts_per_100_trefi()
    })
}

/// One Figure 11 table: `metric` of MIRZA at TRHD 500, 1K and 2K and of
/// PRAC at 1K on every workload, then each column's average.
fn fig11(
    lab: &mut Lab,
    title: &str,
    metric: impl Fn(&mut Lab, MitigationConfig, &str) -> f64,
) -> String {
    let configs = [
        lab.mirza(500),
        lab.mirza(1000),
        lab.mirza(2000),
        MitigationConfig::PracAbo { trhd: 1000 },
    ];
    let mut out = format!("{title}\nworkload     mirza-500  mirza-1K   mirza-2K   prac\n");
    let ws = lab.workloads();
    let mut sums = vec![0.0f64; configs.len()];
    for w in &ws {
        let mut line = format!("{w:<12}");
        for (sum, &cfg) in sums.iter_mut().zip(&configs) {
            let v = metric(lab, cfg, w);
            *sum += v;
            let _ = write!(line, " {v:>9.2}");
        }
        let _ = writeln!(out, "{line}");
    }
    let mut line = format!("{:<12}", "average");
    for s in &sums {
        let _ = write!(line, " {:>9.2}", s / ws.len() as f64);
    }
    let _ = writeln!(out, "{line}");
    out
}

/// Table VIII: mitigation overhead of MINT vs MIRZA.
pub fn table8(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Table VIII: mitigations per ACT\n\
         TRHD    MINT (1/W)     MIRZA measured   reduction\n",
    );
    for (trhd, w) in [(500u32, 24u32), (1000, 48), (2000, 96)] {
        let mirza = lab.mirza(trhd);
        let (mut mit, mut acts) = (0u64, 0u64);
        for wl in lab.workloads() {
            let r = lab.run(mirza, wl);
            mit += r.mitigation.mitigations;
            acts += r.mitigation.acts_observed;
        }
        let mirza_rate = mit as f64 / acts.max(1) as f64;
        let mint_rate = 1.0 / f64::from(w);
        let _ = writeln!(
            out,
            "{trhd:<7} 1/{w:<12} 1/{:<14.0} {:.1}x",
            1.0 / mirza_rate.max(1e-12),
            mint_rate / mirza_rate.max(1e-12)
        );
    }
    out
}

/// Table IX: sensitivity of MIRZA to the (MINT-W, FTH) trade-off at TRHD=1K.
pub fn table9(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Table IX: MIRZA sensitivity at TRHD=1K\n\
         MINT-W   FTH(paper)   slowdown   remaining ACTs\n",
    );
    for w in [4u32, 8, 12, 16] {
        let cfg = lab.mirza_with(MirzaConfig::sensitivity_1000(w));
        let slow = lab.avg_slowdown(cfg);
        let (mut cand, mut acts) = (0u64, 0u64);
        for wl in lab.workloads() {
            let r = lab.run(cfg, wl);
            cand += r.mitigation.acts_candidate;
            acts += r.mitigation.acts_observed;
        }
        let fth = MirzaConfig::sensitivity_1000(w).fth;
        let _ = writeln!(
            out,
            "{w:<8} {fth:<12} {slow:>7.2}%   {:>8.2}%",
            100.0 * cand as f64 / acts.max(1) as f64
        );
    }
    out
}

/// Figure 13: refresh power overhead of MINT+RFM vs MIRZA.
pub fn fig13(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Figure 13: refresh power overhead (victim rows / demand rows)\n\
         TRHD    MINT+RFM    MIRZA\n",
    );
    for trhd in [500u32, 1000, 2000] {
        let mint = mint_rfm(trhd);
        let mirza = lab.mirza(trhd);
        let (mut a, mut b) = (0.0, 0.0);
        let ws = lab.workloads();
        for w in &ws {
            a += lab.run(mint, w).refresh_power_overhead_pct();
            b += lab.run(mirza, w).refresh_power_overhead_pct();
        }
        let n = ws.len() as f64;
        let _ = writeln!(out, "{trhd:<7} {:>7.2}%   {:>7.3}%", a / n, b / n);
    }
    out
}

/// Table XIII: average and worst-case (performance-attack) slowdowns.
pub fn table13(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Table XIII: worst-case (attack) and average slowdown\n\
         TRHD    tracker     attack     average\n",
    );
    for trhd in [500u32, 1000, 2000] {
        let (prac_atk, rfm_atk, mirza_atk) = table13_attack_column(trhd);
        let rows = [
            (
                "PRAC+ABO",
                prac_atk,
                lab.avg_slowdown(MitigationConfig::PracAbo { trhd }),
            ),
            ("MINT+RFM", rfm_atk, lab.avg_slowdown(mint_rfm(trhd))),
            ("MIRZA", mirza_atk, lab.avg_slowdown(lab.mirza(trhd))),
        ];
        for (name, atk, avg) in rows {
            let _ = writeln!(out, "{trhd:<7} {name:<11} {atk:>5.2}x   {avg:>7.2}%");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn smoke_lab() -> Lab {
        Lab::new(Scale::smoke())
    }

    #[test]
    fn table4_renders_all_workloads() {
        let mut lab = smoke_lab();
        let t = table4(&mut lab);
        for w in lab.workloads() {
            assert!(t.contains(w), "missing {w} in:\n{t}");
        }
        assert!(t.contains("average"));
    }

    #[test]
    fn fig6_reports_headroom_below_worst_case() {
        let mut lab = smoke_lab();
        let t = fig6(&mut lab);
        assert!(t.contains("below worst case"));
    }

    #[test]
    fn table6_strided_filters_more_than_sequential() {
        let mut lab = smoke_lab();
        let t = table6(&mut lab);
        // Parse the FTH=1500 row and compare the two percentages.
        let row = t
            .lines()
            .find(|l| l.starts_with("1500"))
            .expect("1500 row present");
        let nums: Vec<f64> = row
            .split_whitespace()
            .filter_map(|tok| tok.trim_end_matches('%').parse().ok())
            .collect();
        assert!(nums.len() >= 3, "row: {row}");
        let (seq, strided) = (nums[1], nums[2]);
        assert!(
            strided > seq,
            "strided ({strided}) must filter strictly more than sequential ({seq})"
        );
    }

    /// Both Figure 11 tables, whole, from one smoke-scale lab: MIRZA's
    /// slowdown and ALERT rate fall with TRHD, and PRAC never ALERTs.
    #[test]
    fn fig11_tables_render() {
        let mut lab = smoke_lab();
        assert_eq!(
            fig11a(&mut lab),
            "Figure 11a: slowdown (%) vs unprotected baseline\n\
             workload     mirza-500  mirza-1K   mirza-2K   prac\n\
             lbm               6.51      2.37      0.16     12.37\n\
             fotonik3d         6.03      1.42      0.00     13.31\n\
             bc                6.42      1.90      0.20      8.94\n\
             average           6.32      1.90      0.12     11.54\n"
        );
        assert_eq!(
            fig11b(&mut lab),
            "Figure 11b: ALERTs per 100 tREFI\n\
             workload     mirza-500  mirza-1K   mirza-2K   prac\n\
             lbm              38.46     15.19      2.16      0.00\n\
             fotonik3d        25.63      8.45      0.00      0.00\n\
             bc               30.90      9.79      1.28      0.00\n\
             average          31.66     11.14      1.15      0.00\n"
        );
    }

    #[test]
    fn table8_shows_reduction() {
        let mut lab = smoke_lab();
        let t = table8(&mut lab);
        assert!(t.contains("reduction"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn table13_has_nine_rows() {
        let mut lab = smoke_lab();
        let t = table13(&mut lab);
        assert_eq!(t.lines().filter(|l| l.contains('x')).count(), 9);
    }
}
