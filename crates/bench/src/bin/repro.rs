//! `repro` — regenerate any table or figure of the MIRZA paper.
//!
//! ```text
//! repro <experiment|all|PATH.trace> [--smoke|--fast|--full] [--seed N]
//!       [--jobs N] [--resume] [--csv FILE] [--json FILE] [--epochs NS]
//!       [--epoch-dir DIR] [--strict-audit] [--compare BASELINE.json]
//!       [--faults PLAN] [--watchdog SECS] [--trace-chrome FILE]
//!       [--out FILE] [--list] [--quiet]
//!
//! experiments:
//!   table1 table2 table3 table4 table5 table6 table7 table8 table9
//!   table10 table11 table12 table13
//!   fig3 fig6 fig9 fig11a fig11b fig13 fig14
//!   security dos-sim attack-matrix attribution report
//! ```
//!
//! `--fast` (default) runs the self-consistent 1/32-scaled setup; `--full`
//! runs the paper-scale configuration (hours); `--smoke` is a seconds-long
//! sanity pass over three workloads.
//!
//! Probe flags: `--epochs NS` samples registered metrics every NS simulated
//! nanoseconds into per-run JSONL streams (`--epoch-dir`, default
//! `epochs/`); `--strict-audit` attaches the independent DDR5 protocol
//! auditor and fails the run on any violation; `--compare BASELINE.json`
//! re-runs the named experiments and exits nonzero if the deterministic
//! manifest sections diverge from the baseline.
//!
//! Artifact flags: `--csv FILE` writes a header and one row of raw
//! counters per simulated run, replacing what FILE held; `--json FILE`
//! writes the run manifest.
//!
//! Each target honours a fixed set of the artifact and probe flags (one
//! table in `main`); any other one that is set is a usage error (exit 1)
//! and nothing runs.
//!
//! Robustness flags: `--faults PLAN` injects a canned fault plan
//! (`rct-seu`, `abo-drop`, `queue-loss`, each tunable as
//! `name:key=value,...`) into every simulation and adds a fault summary
//! plus security verdict to each manifest run record; `--watchdog SECS`
//! arms a wall-clock forward-progress watchdog per run.
//!
//! Trace replay: a target ending in `.trace` or containing `/` names a
//! plain-text trace file (see `mirza_workloads::tracefile`). It runs as a
//! one-cell lab sweep, the unmitigated baseline replaying the file on
//! every core, prints one summary line and takes every lab flag.
//!
//! Observability flags: `--trace-chrome FILE` attaches the request-
//! lifecycle span layer to every simulated run and writes one Chrome
//! trace-event JSON per run (`<stem>_<label>-<workload>.<ext>` next to
//! FILE; load in `chrome://tracing` or Perfetto). The `attribution`
//! target sweeps the Table-4 mitigators over four representative
//! workloads with spans armed and writes the per-bucket stall breakdown
//! to `results/attribution.csv` (`--csv` overrides; `--json` adds a
//! manifest-style summary).
//!
//! Report: `report` assembles `results/report.html` (`--out` overrides)
//! from the attribution CSV, attack-matrix CSV, and epoch streams.
//! Simulator speed is measured by the benchmark in `benchsuite/`.
//!
//! Parallelism: `--jobs N` runs independent simulation/matrix cells on the
//! supervised work-pool (default: `available_parallelism`; `--jobs 1` is
//! a pool of one worker on the main thread, not a separate serial path).
//! Output is bit-identical at any job count — results merge into canonical
//! enumeration order before anything is written. The pool runs every cell
//! once. A lab cell that fails, by an error or a panic, ends the run the
//! same way at any job count: the runs recorded before it keep their CSV
//! rows, the partial manifest lists it under `failures`, and the process
//! exits with its error's code (a panicking cell exits 7).
//! The attack matrix checkpoints each completed cell into
//! `<csv>.journal.jsonl` (fsync'd); after a crash or kill, `--resume`
//! replays the journal's completed cells and schedules only the remainder,
//! and the journal is deleted on a fully-successful run. Failed cells
//! degrade the campaign: the other cells still run, partial outputs are
//! written, the failures are listed, and the process exits 7.
//!
//! Exit codes mirror `SimError`: 0 success, 1 usage/comparison failure,
//! 2 unknown workload, 3 trace parse, 4 config, 5 I/O, 6 watchdog,
//! 7 cell panic / degraded parallel campaign. A reader that closes stdout
//! early (`repro --list | head -1`) ends the run quietly with 0.

use std::process::ExitCode;

use mirza_bench::analytic;
use mirza_bench::attack_matrix::{run_matrix_supervised, MatrixRunConfig, MatrixSpec};
use mirza_bench::attacks_exp;
use mirza_bench::attribution::run_attribution;
use mirza_bench::compare::compare_manifests;
use mirza_bench::experiments;
use mirza_bench::extensions;
use mirza_bench::lab::Lab;
use mirza_bench::report;
use mirza_bench::scale::Scale;
use mirza_sim::faults::{FaultPlan, CANNED_PLANS};
use mirza_sim::runner::is_trace_path;
use mirza_sim::SimError;
use mirza_telemetry::{EventSink, Json, Telemetry};

const SIM_EXPERIMENTS: &[&str] = &[
    // Ordered so the cheapest, highest-value experiments complete first;
    // the ALERT-storm-heavy Table V and the attacker simulation come last.
    "table4", "fig6", "fig11a", "fig11b", "table8", "fig13", "table9", "table6", "fig3", "table13",
    "table5", "dos-sim",
];
const ANALYTIC_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "table7", "fig9", "table10", "table11", "table12",
];
const ATTACK_EXPERIMENTS: &[&str] = &["fig14", "security"];
// Deliberately not part of `all`: keeps `--compare` manifests
// bit-identical to the pre-framework baselines.
const MATRIX_EXPERIMENTS: &[&str] = &["attack-matrix", "attribution"];
// Also standalone: the report reads results/ artifacts rather than
// producing paper tables.
const REPORT_EXPERIMENTS: &[&str] = &["report"];
const EXTENSION_EXPERIMENTS: &[&str] = &[
    "ablation-mapping",
    "ablation-qth",
    "ablation-queue",
    "ablation-regions",
    "para",
];

/// Runs one named experiment or replays one trace file. Lab drivers go
/// through [`Lab::sweep`], so their cells run on the work pool at any
/// `--jobs`; the analytic and attack tables run no lab cells and are
/// called directly.
fn run_experiment(name: &str, lab: &mut Lab) -> Option<String> {
    Some(match name {
        "table1" => analytic::table1(),
        "table2" => analytic::table2_report(),
        "table3" => analytic::table3(),
        "table7" => analytic::table7(),
        "fig9" => analytic::fig9(),
        "table10" => analytic::table10_report(),
        "table11" => analytic::table11_report(),
        "table12" => analytic::table12(),
        "table4" => lab.sweep(experiments::table4),
        "fig3" => lab.sweep(experiments::fig3),
        "table5" => lab.sweep(experiments::table5),
        "fig6" => lab.sweep(experiments::fig6),
        "table6" => lab.sweep(experiments::table6),
        "fig11a" => lab.sweep(experiments::fig11a),
        "fig11b" => lab.sweep(experiments::fig11b),
        "table8" => lab.sweep(experiments::table8),
        "table9" => lab.sweep(experiments::table9),
        "fig13" => lab.sweep(experiments::fig13),
        "table13" => lab.sweep(experiments::table13),
        "fig14" => attacks_exp::fig14(),
        "security" => attacks_exp::security_sweep(1),
        "dos-sim" => lab.sweep(attacks_exp::dos_sim),
        "ablation-mapping" => lab.sweep(extensions::ablation_mapping),
        "ablation-qth" => lab.sweep(extensions::ablation_qth),
        "ablation-queue" => lab.sweep(extensions::ablation_queue),
        "ablation-regions" => lab.sweep(extensions::ablation_regions),
        "para" => lab.sweep(extensions::para_comparison),
        path if is_trace_path(path) => {
            let report = lab.sweep(|lab| lab.baseline(path));
            format!(
                "replayed {path}: {} instructions, mpki {:.2}, {} ACTs",
                report.instructions,
                report.mpki(),
                report.device.acts
            )
        }
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment|all|ablations|PATH.trace> [--smoke|--fast|--full] \
         [--seed N] [--csv FILE] [--json FILE] [--epochs NS] [--epoch-dir DIR] \
         [--strict-audit] [--compare BASELINE.json] [--faults PLAN] [--watchdog SECS] \
         [--trace-chrome FILE] [--out FILE] [--jobs N] [--resume] \
         [--list] [--quiet]\n\
         experiments: {} {} {} {} {} {}\n\
         fault plans: {} (tunable as name:key=value,...)",
        ANALYTIC_EXPERIMENTS.join(" "),
        SIM_EXPERIMENTS.join(" "),
        ATTACK_EXPERIMENTS.join(" "),
        MATRIX_EXPERIMENTS.join(" "),
        EXTENSION_EXPERIMENTS.join(" "),
        REPORT_EXPERIMENTS.join(" "),
        CANNED_PLANS.join(" "),
    );
    ExitCode::FAILURE
}

/// Prints a `SimError` in structured form and maps it to its dedicated
/// process exit code (see the module docs for the table).
fn fail(err: &SimError) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::from(err.exit_code())
}

/// Writes `text` and a newline to stdout: every stdout write of `repro`
/// goes through here. A reader that went away early (`repro --list |
/// head -1`) ends the process quietly with exit 0; any other write error
/// is an I/O failure (exit 5).
fn emit(text: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        let err = SimError::io("stdout", &e);
        eprintln!("error: {err}");
        std::process::exit(i32::from(err.exit_code()));
    }
}

/// Runs the strategy x schedule x mitigator sweep on the supervised
/// work-pool. Writes the per-cell CSV (default
/// `results/attack_matrix.csv`, `--csv` overrides), a JSONL `attack_cell`
/// event stream next to it, and — with `--json` — a manifest-style
/// summary. Fully deterministic for a fixed `--seed` at any `--jobs`
/// count. Every completed cell is checkpointed into a journal next to the
/// CSV; `--resume` replays it after a crash. A campaign with failed
/// cells writes partial outputs, keeps the journal for `--resume`, and
/// exits 7.
fn attack_matrix_cmd(
    scale: Scale,
    csv: Option<std::path::PathBuf>,
    json: Option<std::path::PathBuf>,
    jobs: usize,
    resume: bool,
    verbose: bool,
) -> ExitCode {
    let spec = MatrixSpec::for_scale(scale);
    let csv_path = csv.unwrap_or_else(|| std::path::PathBuf::from("results/attack_matrix.csv"));
    let events_path = csv_path.with_file_name("attack_events.jsonl");
    let journal_path = csv_path.with_file_name(format!(
        "{}.journal.jsonl",
        csv_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "attack_matrix".to_string())
    ));
    if let Some(dir) = csv_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let events_file = match std::fs::File::create(&events_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", events_path.display());
            return ExitCode::FAILURE;
        }
    };
    let telemetry = Telemetry::enabled().with_events(EventSink::new(Box::new(
        std::io::BufWriter::new(events_file),
    )));
    let run_cfg = MatrixRunConfig {
        jobs,
        journal: Some(journal_path.clone()),
        resume,
    };
    let outcome = run_matrix_supervised(&spec, &telemetry, &run_cfg);
    let result = &outcome.result;
    if let Err(e) = std::fs::write(&csv_path, result.to_csv()) {
        eprintln!("error: cannot write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, result.to_json().to_string_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = telemetry.flush() {
        eprintln!("error: cannot write {}: {e}", events_path.display());
        return ExitCode::FAILURE;
    }
    emit(&result.summary());
    if verbose {
        eprintln!(
            "wrote {} ({} cells) and {}",
            csv_path.display(),
            result.cells.len(),
            events_path.display()
        );
        if outcome.resumed > 0 {
            eprintln!(
                "resumed {} completed cell(s) from {}",
                outcome.resumed,
                journal_path.display()
            );
        }
    }
    if !outcome.complete() {
        eprintln!(
            "error: {} cell(s) failed; partial outputs written, \
             journal kept at {} (rerun with --resume):",
            outcome.failures.len(),
            journal_path.display()
        );
        for f in &outcome.failures {
            eprintln!("  {}: {}", f.id, f.error);
        }
        // Exit with the CellPanic code: the campaign is degraded, not dead.
        return ExitCode::from(
            SimError::CellPanic {
                cell: String::new(),
                payload: String::new(),
            }
            .exit_code(),
        );
    }
    ExitCode::SUCCESS
}

/// Runs the attribution sweep: Table-4 mitigators x representative
/// workloads with the span layer armed. Writes the per-bucket CSV
/// (default `results/attribution.csv`, `--csv` overrides) and — with
/// `--json` — a manifest-style summary. `--trace-chrome` additionally
/// writes one Chrome trace per run.
fn attribution_cmd(
    scale: Scale,
    csv: Option<std::path::PathBuf>,
    json: Option<std::path::PathBuf>,
    trace_chrome: Option<std::path::PathBuf>,
    jobs: usize,
    verbose: bool,
) -> ExitCode {
    let csv_path = csv.unwrap_or_else(|| std::path::PathBuf::from("results/attribution.csv"));
    if let Some(dir) = csv_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut lab = Lab::new(scale);
    lab.verbose = verbose;
    lab.jobs = jobs;
    lab.attribution = true;
    lab.trace_chrome = trace_chrome;
    let result = lab.sweep(run_attribution);
    if let Err(e) = std::fs::write(&csv_path, result.to_csv()) {
        eprintln!("error: cannot write {}: {e}", csv_path.display());
        return ExitCode::FAILURE;
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, result.to_json().to_string_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    emit(&result.summary());
    if verbose {
        eprintln!("wrote {} ({} rows)", csv_path.display(), result.rows.len());
    }
    ExitCode::SUCCESS
}

/// Assembles the unified HTML run report from `results/` (default output
/// `results/report.html`, `--out` overrides).
fn report_cmd(out: Option<std::path::PathBuf>, verbose: bool) -> ExitCode {
    let results = std::path::Path::new("results");
    let path = out.unwrap_or_else(|| results.join("report.html"));
    if let Err(e) = report::write(results, &path) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if verbose {
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn list_experiments() -> ExitCode {
    for (category, names) in [
        (
            "analytic (closed-form, no simulation)",
            ANALYTIC_EXPERIMENTS,
        ),
        ("simulation (run by `all`)", SIM_EXPERIMENTS),
        ("attack (run by `all`)", ATTACK_EXPERIMENTS),
        ("attack matrix (standalone)", MATRIX_EXPERIMENTS),
        ("extensions (run by `ablations`)", EXTENSION_EXPERIMENTS),
        ("report (standalone)", REPORT_EXPERIMENTS),
    ] {
        emit(&format!("{category}:"));
        for name in names {
            emit(&format!("  {name}"));
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::fast();
    let mut seed: Option<u64> = None;
    let mut target: Option<String> = None;
    let mut verbose = true;
    let mut csv: Option<std::path::PathBuf> = None;
    let mut json: Option<std::path::PathBuf> = None;
    let mut epochs_ns: Option<u64> = None;
    let mut epoch_dir: Option<std::path::PathBuf> = None;
    let mut strict_audit = false;
    let mut compare: Option<std::path::PathBuf> = None;
    let mut faults: Option<String> = None;
    let mut watchdog: Option<u64> = None;
    let mut trace_chrome: Option<std::path::PathBuf> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut jobs: usize = mirza_runner::default_jobs();
    let mut resume = false;
    let mut given: Vec<&str> = Vec::new(); // every flag, as typed, once
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !given.contains(&a.as_str()) {
            given.push(a);
        }
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => return usage(),
            },
            "--resume" => resume = true,
            "--faults" => match it.next() {
                Some(p) => faults = Some(p.clone()),
                None => return usage(),
            },
            "--watchdog" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) if s > 0 => watchdog = Some(s),
                _ => return usage(),
            },
            "--smoke" => scale = Scale::smoke(),
            "--fast" => scale = Scale::fast(),
            "--full" => scale = Scale::full(),
            "--quiet" => verbose = false,
            "--list" => return list_experiments(),
            "--strict-audit" => strict_audit = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage(),
            },
            "--epochs" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ns) if ns > 0 => epochs_ns = Some(ns),
                _ => return usage(),
            },
            "--epoch-dir" => match it.next() {
                Some(p) => epoch_dir = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--csv" => match it.next() {
                Some(p) => csv = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--json" => match it.next() {
                Some(p) => json = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--compare" => match it.next() {
                Some(p) => compare = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            "--trace-chrome" => match it.next() {
                Some(p) => trace_chrome = Some(std::path::PathBuf::from(p)),
                None => return usage(),
            },
            name if !name.starts_with('-') && target.is_none() => {
                target = Some(name.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(target) = target else {
        return usage();
    };
    // After the loop: a scale flag replaces the whole scale, seed included.
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    // The artifact and probe flags each target honours; scale flags,
    // `--seed`, `--jobs` and `--quiet` apply to all. Any other flag would
    // be silently ignored, so it is refused before anything runs. Lab
    // targets run every simulation through `Lab`, which writes the CSV,
    // manifest and epoch streams and arms the probes.
    let honoured = match target.as_str() {
        "attack-matrix" => "--csv --json --resume",
        "attribution" => "--csv --json --trace-chrome",
        "report" => "--out",
        _ => {
            "--csv --json --epochs --epoch-dir --strict-audit --compare --faults --watchdog \
             --trace-chrome"
        }
    };
    let listed = |list: &str, flag: &str| list.split(' ').any(|f| f == flag);
    given.retain(|flag| !listed("--smoke --fast --full --seed --jobs --quiet", flag));
    let refused: Vec<&str> = given
        .iter()
        .copied()
        .filter(|flag| !listed(honoured, flag))
        .collect();
    if !refused.is_empty() {
        eprintln!("error: `{target}` cannot honour {}", refused.join(", "));
        return ExitCode::FAILURE;
    }
    let fault_plan = match faults.as_deref().map(FaultPlan::parse) {
        Some(Ok(plan)) => Some(plan),
        Some(Err(e)) => return fail(&e),
        None => None,
    };
    if target == "attack-matrix" {
        return attack_matrix_cmd(scale, csv, json, jobs, resume, verbose);
    }
    if target == "attribution" {
        return attribution_cmd(scale, csv, json, trace_chrome, jobs, verbose);
    }
    if target == "report" {
        return report_cmd(out, verbose);
    }
    let mut lab = Lab::new(scale);
    lab.jobs = jobs;
    lab.fault_plan = fault_plan;
    lab.watchdog_wall_secs = watchdog;
    lab.manifest_path = json.clone();
    lab.verbose = verbose;
    lab.csv_path = csv;
    lab.epoch_ps = epochs_ns.map(|ns| ns.saturating_mul(1_000));
    if let Some(dir) = epoch_dir {
        lab.epoch_dir = dir;
    }
    lab.audit = strict_audit;
    lab.trace_chrome = trace_chrome;
    if json.is_some() || compare.is_some() {
        lab.enable_manifest();
    }
    let names: Vec<&str> = if target == "all" {
        ANALYTIC_EXPERIMENTS
            .iter()
            .chain(SIM_EXPERIMENTS)
            .chain(ATTACK_EXPERIMENTS)
            .copied()
            .collect()
    } else if target == "ablations" {
        EXTENSION_EXPERIMENTS.to_vec()
    } else {
        vec![target.as_str()]
    };
    for name in names {
        lab.begin_experiment(name);
        match run_experiment(name, &mut lab) {
            Some(table) => emit(&table),
            None => return usage(),
        }
    }
    if let Some(path) = json {
        if let Err(e) = lab.write_manifest(&path) {
            eprintln!("error: cannot write manifest {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if verbose {
            eprintln!("wrote manifest {}", path.display());
        }
    }
    if strict_audit && !lab.audit_failures().is_empty() {
        eprintln!("error: protocol audit failed:");
        for (key, count) in lab.audit_failures() {
            eprintln!("  {key}: {count} violation(s)");
        }
        return ExitCode::FAILURE;
    }
    if let Some(path) = compare {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("error: cannot parse baseline {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let current = lab.manifest_json().expect("manifest mode is on");
        let diffs = compare_manifests(&baseline, &current);
        if !diffs.is_empty() {
            eprintln!(
                "error: {} difference(s) vs baseline {}:",
                diffs.len(),
                path.display()
            );
            for d in diffs.iter().take(50) {
                eprintln!("  {d}");
            }
            if diffs.len() > 50 {
                eprintln!("  ... and {} more", diffs.len() - 50);
            }
            return ExitCode::FAILURE;
        }
        if verbose {
            eprintln!("manifest matches baseline {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
