//! Workload study: characterize a handful of Table-IV workloads (MPKI,
//! ACT-PKI, bus utilization, ACTs/subarray) and compare MIRZA's filtering
//! effectiveness under the two row-to-subarray mappings.
//!
//! Run with: `cargo run --release --example workload_study`

use mirza::core::config::MirzaConfig;
use mirza::core::rct::ResetPolicy;
use mirza::dram::address::MappingScheme;
use mirza::sim::prelude::*;
use mirza_bench::scale::Scale;

fn scaled(mit: MitigationConfig) -> SimConfig {
    // The smoke scale's 1/64 setup (see DESIGN.md): 2048-row banks,
    // 0.5 ms tREFW, 256 KB LLC, footprints/64 — keeps per-window
    // proportions.
    let mut cfg = Scale::smoke().sim_config(mit);
    cfg.instructions_per_core = 400_000;
    cfg
}

fn main() {
    let workloads = ["lbm", "fotonik3d", "bc", "xz", "mix_1"];

    println!("workload characteristics (1/64 scale):");
    println!("workload     MPKI   ACT-PKI   bus%   ACT/SA per window");
    for w in workloads {
        let r = run_workload(&scaled(MitigationConfig::None), w);
        let (mean, sd) = r.acts_per_subarray_per_trefw();
        println!(
            "{w:<12} {:>5.1} {:>8.1} {:>6.1}   {mean:>5.0} +- {sd:.0}",
            r.mpki(),
            r.act_pki(),
            r.bus_utilization_pct()
        );
    }

    println!("\nCGF filtering: sequential vs strided R2SA (FTH = 1500/64):");
    println!("workload     sequential   strided");
    for w in workloads {
        let mut filtered = Vec::new();
        for mapping in [MappingScheme::Sequential, MappingScheme::Strided] {
            let cfg = MirzaConfig {
                mapping,
                ..Scale::smoke().mirza_config(MirzaConfig::trhd_1000())
            };
            let r = run_workload(
                &scaled(MitigationConfig::Mirza {
                    cfg,
                    policy: ResetPolicy::Safe,
                }),
                w,
            );
            let m = r.mitigation;
            filtered.push(100.0 * m.acts_filtered as f64 / m.acts_observed.max(1) as f64);
        }
        println!("{w:<12} {:>9.1}%   {:>6.1}%", filtered[0], filtered[1]);
    }
    println!("\n(strided spreads page locality over all RCT counters, so far");
    println!("more ACTs stay below the filtering threshold — Table VI's insight)");
}
