//! Reproducibility: every stochastic component is seeded, so identical
//! configurations produce bit-identical results, and different seeds
//! genuinely change the randomized components.

use mirza::core::config::MirzaConfig;
use mirza::core::rct::ResetPolicy;
use mirza::sim::prelude::*;
use mirza_bench::scale::Scale;

/// MIRZA-1K at the smoke scale's 1/64 config on 2 cores.
fn cfg(seed: u64) -> SimConfig {
    let scale = Scale::smoke();
    let mut c = scale.sim_config(MitigationConfig::Mirza {
        cfg: scale.mirza_config(MirzaConfig::trhd_1000()),
        policy: ResetPolicy::Safe,
    });
    c.instructions_per_core = 200_000;
    c.cores = 2;
    c.seed = seed;
    c
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = run_workload(&cfg(7), "mcf");
    let b = run_workload(&cfg(7), "mcf");
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.device.acts, b.device.acts);
    assert_eq!(a.device.alerts, b.device.alerts);
    assert_eq!(a.mitigation.mitigations, b.mitigation.mitigations);
    assert_eq!(a.core_ipc, b.core_ipc);
    assert_eq!(a.acts_per_subarray, b.acts_per_subarray);
}

#[test]
fn different_seeds_change_the_traffic() {
    let a = run_workload(&cfg(7), "mcf");
    let b = run_workload(&cfg(8), "mcf");
    // Same statistical workload, different realization.
    assert_ne!(
        a.acts_per_subarray, b.acts_per_subarray,
        "seed must steer the generators"
    );
}

#[test]
fn attack_harness_is_deterministic() {
    use mirza::attacks::rig::run_attack;
    use mirza::attacks::schedule::Burst;
    use mirza::attacks::strategy::PatternStrategy;
    use mirza::attacks::victim::AnyRow;
    use mirza::core::mirza::Mirza;
    use mirza::dram::geometry::Geometry;
    use mirza::dram::timing::TimingParams;
    use mirza::workloads::attacks::RowPattern;

    let geom = Geometry::ddr5_32gb();
    let timing = TimingParams::ddr5_6000();
    let run = |seed| {
        let cfg = MirzaConfig::trhd_1000();
        let mut m = Mirza::new(cfg, &geom, seed);
        let mut s = PatternStrategy::from_pattern("single-sided", RowPattern::single_sided(1234));
        let bound = cfg.safe_trhd();
        run_attack(
            &mut m, &geom, &timing, 0, &mut s, &mut Burst, &AnyRow, bound, 512,
        )
    };
    let r = run(3);
    assert_eq!(r, run(3));
    assert!(r.outcome.total_acts > 0, "harness must actually hammer");
}
