//! Denial-of-service analysis (Section IX): what an ALERT-storm attacker
//! costs co-running applications, analytically and in simulation.
//!
//! Run with: `cargo run --release --example dos_attack`

use mirza::core::config::MirzaConfig;
use mirza::core::rct::ResetPolicy;
use mirza::dram::timing::TimingParams;
use mirza::security::dos;
use mirza::sim::prelude::*;
use mirza_bench::scale::Scale;

fn main() {
    let timing = TimingParams::ddr5_6000();

    // --- Analytic model (Table XI) -------------------------------------
    println!("analytic ACT-throughput model (Table XI):");
    println!("MINT-W   throughput   slowdown");
    for row in dos::table11(&timing) {
        println!(
            "{:<8} {:>6.1}%      {:.2}x",
            row.mint_w, row.throughput_pct, row.slowdown
        );
    }
    println!(
        "continuous ALERT storm bound: {:.1}x\n",
        dos::alert_storm_slowdown(&timing)
    );

    // --- Simulated attack (Figure 12 kernel) ---------------------------
    // 1/64-scale system: 3 benign lbm cores + 1 attacker core cycling 16
    // rows of one RCT region to keep MIRZA's queue full.
    let scale = Scale::smoke();
    let base = MirzaConfig::trhd_1000();
    let mut cfg = scale.sim_config(MitigationConfig::Mirza {
        cfg: scale.mirza_config(base),
        policy: ResetPolicy::Safe,
    });
    cfg.instructions_per_core = 400_000;
    cfg.cores = 4;
    cfg.attacker = Some(Attacker::figure12(&cfg.geometry));

    let attacked = run_workload(&cfg, "lbm");

    let mut solo_cfg = cfg.clone();
    solo_cfg.cores = 3;
    solo_cfg.attacker = None;
    let solo = run_workload(&solo_cfg, "lbm");

    let rel = attacked.weighted_speedup(&solo) / solo.core_ipc.len() as f64;
    println!("simulated attack (MINT-W = {}):", base.mint_w);
    println!(
        "  benign throughput under attack: {:.1}% of solo ({}x slowdown)",
        100.0 * rel,
        (1.0 / rel * 100.0).round() / 100.0
    );
    println!(
        "  ALERT rate: {:.1} per 100 tREFI  (solo: {:.2})",
        attacked.alerts_per_100_trefi(),
        solo.alerts_per_100_trefi()
    );
    println!(
        "  analytic bound for W=12: {:.2}x",
        dos::mirza_attack_slowdown(&timing, base.mint_w)
    );
}
