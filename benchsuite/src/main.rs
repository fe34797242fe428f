//! `benchsuite --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the repository root. Untraced, it repeats passes of the
//! workload for `S` seconds and reports the end-to-end metrics as medians
//! over passes; traced, it makes one traced pass and reports the per-layer
//! metrics. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a readable metric list and the
//! provenance block precede it. Per-cell output digests and failures go
//! to stderr. Exits 2 on bad arguments or missing reference files.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mirza_benchsuite::host;
use mirza_benchsuite::suite::{self, Checker, References, WORKLOADS};
use mirza_telemetry::Json;

const USAGE: &str = "usage: benchsuite --workload <table4-baseline|mitigated|attack-matrix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Where campaign journals go: beside the build, inside the checkout.
fn journal_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchsuite/target"), PathBuf::from)
        .join("benchsuite-journal")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchsuite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Only the default seed has committed outputs to compare against.
    let refs = if args.seed == 0 {
        match References::load() {
            Ok(refs) => Some(refs),
            Err(e) => {
                eprintln!("benchsuite: cannot load references: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let journal_dir = journal_dir();
    if let Err(e) = std::fs::create_dir_all(&journal_dir) {
        eprintln!("benchsuite: {}: {e}", journal_dir.display());
        return ExitCode::from(2);
    }
    let roster = suite::roster(&args.workload, args.seed).expect("workload validated");
    let mut checker = Checker::new(&args.workload, refs.as_ref());
    let result = if args.trace {
        suite::traced(&roster, &mut checker, &journal_dir)
    } else {
        suite::timed(
            &roster,
            Duration::from_secs(args.seconds),
            &mut checker,
            &journal_dir,
        )
    };

    println!(
        "provenance {}",
        host::provenance(&journal_dir).to_string_compact()
    );
    println!(
        "workload {} seed {} (workload seed {:#x}) trace {}",
        args.workload,
        args.seed,
        suite::workload_seed(args.seed),
        u8::from(args.trace)
    );
    let mut metrics = Json::obj();
    for &(name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
        let mut m = Json::obj();
        m.push("value", value).push("unit", unit);
        metrics.push(name, m);
    }
    let mut doc = Json::obj();
    doc.push("correct", result.failed == 0)
        .push("attempted", result.attempted)
        .push("failed", result.failed)
        .push("metrics", metrics);
    println!("{}", doc.to_string_compact());
    ExitCode::SUCCESS
}
