//! Cross-crate integration: the full pipeline (workload generator -> cores
//! -> LLC -> MC -> DRAM -> mitigation) produces the paper's qualitative
//! orderings at reduced scale.

use mirza::core::config::MirzaConfig;
use mirza::core::rct::ResetPolicy;
use mirza::dram::time::Ps;
use mirza::sim::prelude::*;
use mirza_bench::scale::Scale;

/// The smoke scale's 1/64 config (see DESIGN.md §5) on 4 cores: keeps
/// per-tREFW proportions.
fn scaled(mit: MitigationConfig, instr: u64) -> SimConfig {
    let mut cfg = Scale::smoke().sim_config(mit);
    cfg.instructions_per_core = instr;
    cfg.cores = 4;
    cfg
}

fn mirza_mit(trhd: u32) -> MitigationConfig {
    let base = match trhd {
        500 => MirzaConfig::trhd_500(),
        1000 => MirzaConfig::trhd_1000(),
        _ => MirzaConfig::trhd_2000(),
    };
    MitigationConfig::Mirza {
        cfg: Scale::smoke().mirza_config(base),
        policy: ResetPolicy::Safe,
    }
}

#[test]
fn prac_is_slower_than_mirza_on_memory_bound_workloads() {
    let instr = 400_000;
    let base = run_workload(&scaled(MitigationConfig::None, instr), "lbm");
    let mirza = run_workload(&scaled(mirza_mit(1000), instr), "lbm");
    let prac = run_workload(
        &scaled(MitigationConfig::PracAbo { trhd: 1000 }, instr),
        "lbm",
    );
    let mirza_slow = mirza.slowdown_pct(&base);
    let prac_slow = prac.slowdown_pct(&base);
    assert!(
        prac_slow > mirza_slow,
        "paper's headline: MIRZA ({mirza_slow:.2}%) beats PRAC ({prac_slow:.2}%)"
    );
    assert!(prac_slow > 0.5, "PRAC timing tax must be visible");
}

#[test]
fn mint_rfm_pays_more_refresh_power_than_mirza() {
    let instr = 400_000;
    let mint = run_workload(&scaled(MitigationConfig::MintRfm { bat: 48 }, instr), "lbm");
    let mirza = run_workload(&scaled(mirza_mit(1000), instr), "lbm");
    assert!(
        mint.refresh_power_overhead_pct() > mirza.refresh_power_overhead_pct(),
        "MINT {:.2}% vs MIRZA {:.2}%",
        mint.refresh_power_overhead_pct(),
        mirza.refresh_power_overhead_pct()
    );
    assert!(mint.device.rfms_proactive > 0);
}

#[test]
fn mirza_filters_the_overwhelming_majority_of_acts() {
    let r = run_workload(&scaled(mirza_mit(2000), 400_000), "bc");
    let m = r.mitigation;
    assert!(m.acts_observed > 0);
    let filtered = m.acts_filtered as f64 / m.acts_observed as f64;
    assert!(
        filtered > 0.8,
        "CGF should absorb most benign ACTs, got {:.1}%",
        100.0 * filtered
    );
}

#[test]
fn tighter_thresholds_cost_more() {
    let instr = 400_000;
    let base = run_workload(&scaled(MitigationConfig::None, instr), "fotonik3d");
    let s500 = run_workload(&scaled(mirza_mit(500), instr), "fotonik3d").slowdown_pct(&base);
    let s2000 = run_workload(&scaled(mirza_mit(2000), instr), "fotonik3d").slowdown_pct(&base);
    assert!(
        s500 >= s2000 - 0.05,
        "TRHD=500 ({s500:.2}%) should cost at least TRHD=2K ({s2000:.2}%)"
    );
}

#[test]
fn naive_mirza_queue_size_one_is_catastrophic() {
    let instr = 200_000;
    let base = run_workload(&scaled(MitigationConfig::None, instr), "lbm");
    let q1 = run_workload(
        &scaled(
            MitigationConfig::MirzaNaive {
                mint_w: 24,
                queue: 1,
            },
            instr,
        ),
        "lbm",
    );
    let q4 = run_workload(
        &scaled(
            MitigationConfig::MirzaNaive {
                mint_w: 24,
                queue: 4,
            },
            instr,
        ),
        "lbm",
    );
    let s1 = q1.slowdown_pct(&base);
    let s4 = q4.slowdown_pct(&base);
    assert!(
        s1 > s4,
        "Table V: buffering amortizes ALERTs (q1 {s1:.1}% vs q4 {s4:.1}%)"
    );
    assert!(s1 > 10.0, "q=1 should be dramatic, got {s1:.1}%");
}

#[test]
fn alert_rate_is_low_for_benign_workloads() {
    let r = run_workload(&scaled(mirza_mit(1000), 400_000), "xz");
    // Figure 11b: a few ALERTs per 100 tREFI at most for benign runs.
    assert!(
        r.alerts_per_100_trefi() < 50.0,
        "got {:.1}",
        r.alerts_per_100_trefi()
    );
}

#[test]
fn demand_refresh_continues_under_all_mitigations() {
    for mit in [
        MitigationConfig::None,
        mirza_mit(1000),
        MitigationConfig::PracAbo { trhd: 1000 },
        MitigationConfig::MintRfm { bat: 48 },
    ] {
        let r = run_workload(&scaled(mit, 200_000), "mcf");
        let expected_refs = r.elapsed.as_ps() / Ps::from_ns(3900).as_ps();
        assert!(
            r.device.refs as u64 * 10 >= expected_refs * 2 * 9,
            "{}: {} REFs over {} expected slots",
            r.label,
            r.device.refs,
            expected_refs * 2
        );
    }
}
