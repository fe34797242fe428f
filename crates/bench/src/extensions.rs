//! Extension studies beyond the paper's published tables: ablations of the
//! design choices DESIGN.md calls out (mapping, QTH, queue size, region
//! count) and a PARA cost comparison.

use std::fmt::Write as _;

use mirza_core::config::MirzaConfig;
use mirza_dram::address::MappingScheme;
use mirza_sim::config::MitigationConfig;

use crate::lab::Lab;

/// Ablation: strided vs sequential R2SA mapping for the full MIRZA stack
/// (slowdown, escape rate and ALERT rate — Table VI only reports
/// filtering).
pub fn ablation_mapping(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Ablation: row-to-subarray mapping (MIRZA @ TRHD=1K)\n\
         mapping      slowdown   remaining ACTs   alerts/100 tREFI\n",
    );
    for (name, mapping) in [
        ("strided", MappingScheme::Strided),
        ("sequential", MappingScheme::Sequential),
    ] {
        let cfg = lab.mirza_with(MirzaConfig {
            mapping,
            ..MirzaConfig::trhd_1000()
        });
        let slow = lab.avg_slowdown(cfg);
        let (mut cand, mut acts, mut alerts) = (0u64, 0u64, 0.0f64);
        let ws = lab.workloads();
        for w in &ws {
            let r = lab.run(cfg, w);
            cand += r.mitigation.acts_candidate;
            acts += r.mitigation.acts_observed;
            alerts += r.alerts_per_100_trefi();
        }
        let _ = writeln!(
            out,
            "{name:<12} {slow:>7.2}%   {:>12.2}%   {:>10.2}",
            100.0 * cand as f64 / acts.max(1) as f64,
            alerts / ws.len() as f64
        );
    }
    out
}

/// Ablation: Queue Tardiness Threshold. Lower QTH means earlier ALERTs
/// (more time overhead) but a tighter Phase-C budget (better TRH).
pub fn ablation_qth(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Ablation: QTH (MIRZA @ TRHD=1K structures)\n\
         QTH   slowdown   alerts/100 tREFI   safe-TRHD bound\n",
    );
    for qth in [4u32, 8, 16, 32, 64] {
        let base = MirzaConfig {
            qth,
            ..MirzaConfig::trhd_1000()
        };
        let bound = base.safe_trhd();
        let cfg = lab.mirza_with(base);
        let slow = lab.avg_slowdown(cfg);
        let mut alerts = 0.0;
        let ws = lab.workloads();
        for w in &ws {
            alerts += lab.run(cfg, w).alerts_per_100_trefi();
        }
        let _ = writeln!(
            out,
            "{qth:<5} {slow:>7.2}%   {:>12.2}       {bound}",
            alerts / ws.len() as f64
        );
    }
    out
}

/// Ablation: MIRZA-Q capacity for the *full* design (Table V covers only
/// the naive variant).
pub fn ablation_queue(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Ablation: MIRZA-Q capacity (full MIRZA @ TRHD=1K)\n\
         entries   slowdown   alerts/100 tREFI\n",
    );
    for q in [1usize, 2, 4, 8] {
        let cfg = lab.mirza_with(MirzaConfig {
            queue_capacity: q,
            ..MirzaConfig::trhd_1000()
        });
        let slow = lab.avg_slowdown(cfg);
        let mut alerts = 0.0;
        let ws = lab.workloads();
        for w in &ws {
            alerts += lab.run(cfg, w).alerts_per_100_trefi();
        }
        let _ = writeln!(
            out,
            "{q:<9} {slow:>7.2}%   {:>12.2}",
            alerts / ws.len() as f64
        );
    }
    out
}

/// Ablation: RCT region count at fixed FTH budget. Fewer, larger regions
/// cost less SRAM but aggregate more traffic per counter (escaping more).
pub fn ablation_regions(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Ablation: RCT regions per bank (FTH scaled as at TRHD=1K)\n\
         regions   SRAM/bank   slowdown   remaining ACTs\n",
    );
    for regions in [32u32, 64, 128, 256] {
        let base = MirzaConfig {
            regions_per_bank: regions,
            ..MirzaConfig::trhd_1000()
        };
        let sram = base.sram_bytes_per_bank();
        let cfg = lab.mirza_with(base);
        let slow = lab.avg_slowdown(cfg);
        let (mut cand, mut acts) = (0u64, 0u64);
        for w in lab.workloads() {
            let r = lab.run(cfg, w);
            cand += r.mitigation.acts_candidate;
            acts += r.mitigation.acts_observed;
        }
        let _ = writeln!(
            out,
            "{regions:<9} {sram:<11} {slow:>7.2}%   {:>10.2}%",
            100.0 * cand as f64 / acts.max(1) as f64
        );
    }
    out
}

/// PARA comparison: the classic stateless baseline pays with victim
/// refresh energy where MIRZA pays (almost) nothing.
pub fn para_comparison(lab: &mut Lab) -> String {
    let mut out = String::from(
        "Extension: PARA vs MIRZA at TRHD=1K\n\
         tracker   slowdown   refresh power overhead\n",
    );
    let para = MitigationConfig::Para { p: 23.0 / 1000.0 };
    let mirza = lab.mirza(1000);
    for (name, cfg) in [("para", para), ("mirza", mirza)] {
        let slow = lab.avg_slowdown(cfg);
        let mut pow = 0.0;
        let ws = lab.workloads();
        for w in &ws {
            pow += lab.run(cfg, w).refresh_power_overhead_pct();
        }
        let _ = writeln!(
            out,
            "{name:<9} {slow:>7.2}%   {:>10.2}%",
            pow / ws.len() as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn mapping_ablation_prefers_strided() {
        let mut lab = Lab::new(Scale::smoke());
        let t = ablation_mapping(&mut lab);
        let grab = |name: &str| -> f64 {
            let line = t.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace()
                .nth(2)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        // Remaining-ACT share: strided must escape less.
        assert!(grab("strided") <= grab("sequential") + 1e-9, "{t}");
    }

    #[test]
    fn qth_bound_tightens_with_lower_qth() {
        let mut lab = Lab::new(Scale::smoke());
        let t = ablation_qth(&mut lab);
        let bounds: Vec<u32> = t
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect();
        assert_eq!(bounds.len(), 5, "{t}");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
    }

    #[test]
    fn region_ablation_shows_sram_tradeoff() {
        let mut lab = Lab::new(Scale::smoke());
        let t = ablation_regions(&mut lab);
        assert!(t.contains("32"), "{t}");
        assert!(t.contains("256"), "{t}");
    }

    #[test]
    fn para_pays_refresh_power() {
        let mut lab = Lab::new(Scale::smoke());
        let t = para_comparison(&mut lab);
        let grab = |name: &str| -> f64 {
            let line = t.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!(grab("para") > grab("mirza"), "{t}");
    }
}
