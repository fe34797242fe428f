//! `spotcheck` — paper-scale validation run: one memory-intensive workload
//! at the *unscaled* configuration (128K-row banks, 32 ms tREFW, 16 MB LLC,
//! FTH=1500), under baseline / MIRZA-1K / PRAC. Confirms that the fast-mode
//! scaling preserves the operating point (escape rate, ALERT rate,
//! slowdown ordering) at the paper's own scale.
//!
//! Usage: `spotcheck [workload] [instructions-per-core-in-millions]`

use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_sim::config::MitigationConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args
        .first()
        .map(String::as_str)
        .unwrap_or("lbm")
        .to_string();
    let millions: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(150);
    let mut scale = Scale::full();
    scale.instructions = millions * 1_000_000;
    scale.workloads = vec![Box::leak(workload.clone().into_boxed_str())];
    let mut lab = Lab::new(scale);
    lab.verbose = true;
    // The three runs are independent; run them side by side. Three
    // fotonik3d runs of 80 M instructions per core took 49 s on 2 workers
    // of a 2-vCPU Xeon VM.
    lab.jobs = mirza_runner::default_jobs();

    let mirza_cfg = lab.mirza(1000);
    let (base, mirza, prac) = lab.sweep(|lab| {
        (
            lab.baseline(&workload),
            lab.run(mirza_cfg, &workload),
            lab.run(MitigationConfig::PracAbo { trhd: 1000 }, &workload),
        )
    });
    eprintln!(
        "baseline done: {} ACTs over {} ({} windows)",
        base.device.acts,
        base.elapsed,
        base.elapsed.as_ps() as f64 / base.t_refw.as_ps() as f64
    );

    println!("paper-scale spot check: {workload}, {millions}M instructions/core");
    println!(
        "windows simulated: {:.2} (tREFW = 32 ms)",
        base.elapsed.as_ps() as f64 / base.t_refw.as_ps() as f64
    );
    let (mean, sd) = base.acts_per_subarray_per_trefw();
    println!("ACT/subarray/tREFW: {mean:.0} +- {sd:.0}  (paper Table IV scale)");
    println!(
        "MIRZA-1K:  slowdown {:+.2}%, escapes {:.3}%, {:.2} ALERTs/100 tREFI, refresh power {:.3}%",
        mirza.slowdown_pct(&base),
        100.0 * mirza.mitigation.escape_fraction(),
        mirza.alerts_per_100_trefi(),
        mirza.refresh_power_overhead_pct(),
    );
    println!(
        "PRAC:      slowdown {:+.2}%, ALERTs {:.2}/100 tREFI",
        prac.slowdown_pct(&base),
        prac.alerts_per_100_trefi(),
    );
}
