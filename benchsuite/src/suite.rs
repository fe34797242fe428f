//! The three workloads: rosters, the timed run, the traced run, and the
//! output checks behind `pass_frac`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use mirza_attacks::rig::run_attack;
use mirza_attacks::victim::{AnyRow, TargetRows};
use mirza_bench::attack_matrix::{
    run_matrix_supervised, MatrixCell, MatrixOutcome, MatrixRunConfig, MatrixSpec,
};
use mirza_bench::attribution;
use mirza_bench::scale::Scale;
use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::address::{RegionMap, RowMapping};
use mirza_dram::mitigation::Mitigator;
use mirza_dram::time::Ps;
use mirza_dram::timing::TimingParams;
use mirza_runner::{cell_hash, Journal};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::report::SimReport;
use mirza_sim::runner::try_build_traces;
use mirza_sim::system::{CoreSetup, System};
use mirza_sim::SimError;
use mirza_telemetry::{names, Json, Telemetry};
use mirza_trackers::mint_rfm::MintRfm;

use crate::host::{self, SpeedProbe};
use crate::layers::{self, Sampler, TimedMitigator, TimedStream, TrackerTally};
use crate::median;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table4-baseline", "mitigated", "attack-matrix"];

/// Monte-Carlo seeds per attack-matrix column. The standard roster has
/// two; more seeds, not shorter cells, make a pass long enough to time
/// steadily, so every journal append still follows a cell of rig work.
pub const MATRIX_SEEDS: u64 = 20;

/// Set-ups per pass behind `setup_s`: per simulation cell, or empty-roster
/// campaign calls on the attack matrix. Its median is reported.
const SETUP_REPEATS: usize = 25;

/// Largest allowed distance of `trace.layer_sum_frac` from 1. The layer
/// self times add up to the traced total by construction; they exceed it
/// only where a replay outran the real call it stands for and a residual
/// was clamped at zero, so this bounds the profiler's over-attribution.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// Table-IV reports every `table4-baseline` cell must reproduce.
pub const BASELINE_REFERENCE: &str = "results/baseline_fast.json";
/// Attack-matrix rows the two standard seeds must reproduce.
pub const MATRIX_REFERENCE: &str = "results/attack_matrix.csv";
/// Committed output digests of the other cells on the default seed.
pub const DIGEST_REFERENCE: &str = "benchsuite/refs/default-seed.digests";

/// Workload seed for `--seed n`: `n = 0` is the repository's master seed,
/// whose outputs are committed; any other value is a held-out seed.
pub fn workload_seed(seed: u64) -> u64 {
    Scale::fast().seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Pool workers for the attack matrix: two, or one on a one-CPU host.
pub fn matrix_workers() -> usize {
    host::nproc().min(2)
}

/// One (mitigation, workload) simulation.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Stable cell id, `<mitigation>/<workload>`.
    pub id: String,
    /// Table-IV workload name.
    pub workload: &'static str,
    /// Full simulation configuration.
    pub cfg: SimConfig,
}

/// A workload's cells.
#[derive(Debug, Clone)]
pub enum Roster {
    /// Simulations, run one at a time on the caller thread.
    Sims(Vec<SimCell>),
    /// An attack-matrix campaign on the runner pool.
    Matrix(MatrixSpec),
}

/// The cells of workload `name` on `--seed seed`; `None` for an unknown name.
pub fn roster(name: &str, seed: u64) -> Option<Roster> {
    let scale = Scale {
        seed: workload_seed(seed),
        ..Scale::fast()
    };
    let cell = |label: &str, workload: &'static str, mitigation: MitigationConfig| SimCell {
        id: format!("{label}/{workload}"),
        workload,
        cfg: scale.sim_config(mitigation),
    };
    match name {
        "table4-baseline" => Some(Roster::Sims(
            scale
                .workloads
                .iter()
                .map(|&w| cell("baseline", w, MitigationConfig::None))
                .collect(),
        )),
        "mitigated" => {
            let mitigators = [
                (
                    "mirza-1k",
                    MitigationConfig::Mirza {
                        cfg: scale.mirza_config(MirzaConfig::trhd_1000()),
                        policy: ResetPolicy::Safe,
                    },
                ),
                ("prac-1k", MitigationConfig::PracAbo { trhd: 1000 }),
                (
                    "mint-rfm-1k",
                    MitigationConfig::MintRfm {
                        bat: MintRfm::bat_for_trhd(1000),
                    },
                ),
            ];
            // Grouped by workload: four input traces, three mitigators each.
            Some(Roster::Sims(
                attribution::WORKLOADS
                    .iter()
                    .flat_map(|&w| mitigators.iter().map(move |&(l, m)| (l, w, m)))
                    .map(|(l, w, m)| cell(l, w, m))
                    .collect(),
            ))
        }
        "attack-matrix" => {
            let mut spec = MatrixSpec::for_scale(scale.clone());
            // The standard roster's two seeds come first, as `for_scale` has them.
            spec.seeds = (0..MATRIX_SEEDS)
                .map(|i| scale.seed.wrapping_add(i))
                .collect();
            Some(Roster::Matrix(spec))
        }
        _ => None,
    }
}

/// Host seconds of the three calls that make up one simulation cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTimes {
    /// `try_build_traces`.
    pub build_s: f64,
    /// `System::new`.
    pub new_s: f64,
    /// `System::try_run`.
    pub run_s: f64,
}

/// The machine of one cell: `try_build_traces` then `System::new`, each
/// timed into `t`, with every trace stream behind a [`TimedStream`] when
/// `tally` is given.
fn build_system(
    cell: &SimCell,
    tally: Option<&Rc<RefCell<Sampler>>>,
    t: &mut SimTimes,
) -> Result<System, SimError> {
    let t0 = Instant::now();
    let mut streams = try_build_traces(
        cell.workload,
        cell.cfg.cores,
        cell.cfg.seed,
        cell.cfg.footprint_divisor,
    )?;
    t.build_s = t0.elapsed().as_secs_f64();
    if let Some(tally) = tally {
        streams = TimedStream::wrap(streams, tally);
    }
    let setups = streams
        .into_iter()
        .map(|s| CoreSetup::benign(s, cell.cfg.instructions_per_core))
        .collect();
    let t1 = Instant::now();
    let system = System::new(cell.cfg.clone(), cell.workload, setups);
    t.new_s = t1.elapsed().as_secs_f64();
    Ok(system)
}

/// Median host seconds of [`SETUP_REPEATS`] set-ups of `cell`, each
/// machine dropped unrun. Repeated set-ups run warm, so the median does
/// not hinge on what the previous cell left in the caches. A set-up that
/// fails or panics is left to the cell's own run, which counts it.
fn setup_seconds(cell: &SimCell) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let mut t = SimTimes::default();
            let _ = catch_unwind(AssertUnwindSafe(|| build_system(cell, None, &mut t)));
            t.build_s + t.new_s
        })
        .collect();
    median(&times)
}

/// Runs one cell — `try_build_traces`, `System::new`, `System::try_run`,
/// each timed — with every trace stream behind a [`TimedStream`] when
/// `tally` is given. An error or a panic is the cell's failure.
pub fn run_sim_cell(
    cell: &SimCell,
    tally: Option<&Rc<RefCell<Sampler>>>,
) -> (SimTimes, Result<SimReport, String>) {
    let mut t = SimTimes::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut system = build_system(cell, tally, &mut t)?;
        let t2 = Instant::now();
        let report = system.try_run();
        t.run_s = t2.elapsed().as_secs_f64();
        report
    }));
    let outcome = match outcome {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(panic_message(payload.as_ref())),
    };
    (t, outcome)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}

/// A cell's output as the text its reference holds (a report's compact
/// JSON, a matrix row's CSV line), or why the cell failed.
pub type CellOutput = Result<String, String>;

/// A report as checkable output: conservation invariants first, so a
/// held-out seed without references still catches a broken report.
fn sim_output(cell: &SimCell, outcome: &Result<SimReport, String>) -> CellOutput {
    let r = outcome.as_ref().map_err(Clone::clone)?;
    let retired = cell.cfg.instructions_per_core * cell.cfg.cores as u64;
    let conserved = r.instructions >= retired
        && r.core_ipc.len() == cell.cfg.cores
        && r.mc.reads_done == r.device.reads
        && r.mc.writes_done == r.device.writes;
    if conserved {
        Ok(r.to_json().to_string_compact())
    } else {
        Err("report breaks a conservation invariant".to_string())
    }
}

/// The committed outputs of the default seed.
#[derive(Debug)]
pub struct References {
    table4: HashMap<String, String>,
    matrix_rows: HashMap<String, String>,
    digests: HashMap<String, u64>,
}

impl References {
    /// Loads every reference file, relative to the repository root.
    ///
    /// # Errors
    /// A missing or malformed reference file.
    pub fn load() -> Result<References, String> {
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let doc = Json::parse(&read(BASELINE_REFERENCE)?)?;
        let runs = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .and_then(|exps| {
                exps.iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some("table4"))
            })
            .and_then(|e| e.get("runs"))
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{BASELINE_REFERENCE}: no table4 runs"))?;
        let mut table4 = HashMap::new();
        for run in runs {
            if run.get("label").and_then(Json::as_str) != Some("baseline") {
                continue;
            }
            if let (Some(w), Some(report)) = (
                run.get("workload").and_then(Json::as_str),
                run.get("report"),
            ) {
                table4.insert(format!("baseline/{w}"), report.to_string_compact());
            }
        }
        let matrix_rows = read(MATRIX_REFERENCE)?
            .lines()
            .skip(1)
            .map(|row| (matrix_row_id(row), row.to_string()))
            .collect();
        let mut digests = HashMap::new();
        for line in read(DIGEST_REFERENCE)?.lines() {
            let mut f = line.split('\t');
            let (Some(workload), Some(id), Some(hex)) = (f.next(), f.next(), f.next()) else {
                return Err(format!("{DIGEST_REFERENCE}: bad line {line:?}"));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("{DIGEST_REFERENCE}: {e} in {line:?}"))?;
            digests.insert(format!("{workload}\t{id}"), digest);
        }
        Ok(References {
            table4,
            matrix_rows,
            digests,
        })
    }

    /// Whether `output` equals the committed reference of cell `id`.
    pub fn matches(&self, workload: &str, id: &str, output: &str) -> bool {
        let digest = || {
            self.digests
                .get(&format!("{workload}\t{id}"))
                .is_some_and(|d| *d == cell_hash(output))
        };
        match workload {
            "table4-baseline" => self.table4.get(id).is_some_and(|r| r == output),
            // The two standard seeds' rows must also match the repository's
            // own attack-matrix artifact.
            "attack-matrix" => digest() && self.matrix_rows.get(id).is_none_or(|r| r == output),
            _ => digest(),
        }
    }
}

/// A matrix row's identity: its strategy, schedule, mitigator and seed.
fn matrix_row_id(row: &str) -> String {
    row.splitn(5, ',').take(4).collect::<Vec<_>>().join(",")
}

/// Decides whether each cell's output is correct: on the default seed it
/// must equal its committed reference, and on any seed it must equal the
/// cell's first output in this run. The first output's digest goes to
/// stderr, so a parent and a change can be compared on a held-out seed.
#[derive(Debug)]
pub struct Checker<'a> {
    workload: &'a str,
    refs: Option<&'a References>,
    first: HashMap<String, u64>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl<'a> Checker<'a> {
    /// A checker for `workload`, with the default seed's references when given.
    pub fn new(workload: &'a str, refs: Option<&'a References>) -> Self {
        Checker {
            workload,
            refs,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one cell's output; returns whether it passed.
    pub fn check(&mut self, id: &str, output: &CellOutput) -> bool {
        let workload = self.workload;
        let verdict = output.as_ref().map_err(Clone::clone).and_then(|text| {
            let digest = cell_hash(text);
            let first = *self.first.entry(id.to_string()).or_insert_with(|| {
                eprintln!("digest\t{workload}\t{id}\t{digest:016x}");
                digest
            });
            if digest != first {
                Err("output differs from this run's first output".to_string())
            } else if self.refs.is_some_and(|r| !r.matches(workload, id, text)) {
                Err("output differs from the committed reference".to_string())
            } else {
                Ok(())
            }
        });
        self.verdict(id, verdict)
    }

    /// Counts one check with a known verdict; returns whether it passed.
    pub fn verdict(&mut self, id: &str, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &verdict {
            self.failed += 1;
            eprintln!("fail\t{}\t{id}\t{e}", self.workload);
        }
        verdict.is_ok()
    }

    /// Share of checks passed.
    pub fn pass_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// What one run reports: checks made and failed, and `(name, value, unit)`.
#[derive(Debug)]
pub struct RunResult {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One pass over a workload's cells, telemetry off. Every time is
/// adjusted to the reference host speed except `wall_s`, the raw one.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Per cell (sims) or per campaign (matrix): wall seconds of the cell,
    /// setup included, and seconds inside its timed simulation call.
    cell_wall: Vec<f64>,
    cell_work: Vec<f64>,
    instructions: u64,
    acts: u64,
    /// Sims: per-cell median of build + `System::new`. Matrix: empty-roster
    /// calls.
    setup: Vec<f64>,
}

fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.journal.jsonl"))
}

fn matrix_run_config(journal_dir: &Path) -> MatrixRunConfig {
    MatrixRunConfig {
        jobs: matrix_workers(),
        journal: Some(journal_path(journal_dir, "attack-matrix")),
        resume: false,
    }
}

/// One pass over simulation cells. Each cell's run is adjusted by the
/// memory probe walks right before and after it; its set-ups, which run
/// warm, by the compute probe run before and after the pass.
fn sim_pass(cells: &[SimCell], probe: &mut SpeedProbe, checker: &mut Checker) -> Pass {
    let compute_before = host::compute_probe_seconds();
    let cpu0 = host::cpu_seconds();
    // Single-threaded seconds outside the cells' runs: probes and set-ups.
    let mut outside_s = 0.0;
    let runs: Vec<_> = cells
        .iter()
        .map(|c| {
            let t = Instant::now();
            let setup = setup_seconds(c);
            let before = probe.seconds();
            outside_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let run = run_sim_cell(c, None);
            let wall = t.elapsed().as_secs_f64();
            let after = probe.seconds();
            outside_s += after;
            let scale = host::speed_scale(before, after).powf(host::MEMORY_EXPONENT);
            (wall, scale, setup, run)
        })
        .collect();
    let cpu_s = host::cpu_seconds() - cpu0 - outside_s;
    let compute_scale = host::speed_scale(compute_before, host::compute_probe_seconds());
    let wall_s: f64 = runs.iter().map(|r| r.0).sum();
    // CPU time is read per pass, so it takes the cells' scales weighted by
    // their wall time.
    let adjusted: f64 = runs.iter().map(|r| r.0 * r.1).sum();
    let mut pass = Pass {
        wall_s,
        cpu_s: cpu_s * adjusted / wall_s,
        ..Pass::default()
    };
    for (cell, (wall, scale, setup, (times, outcome))) in cells.iter().zip(runs) {
        pass.cell_wall.push(wall * scale);
        pass.cell_work.push(times.run_s * scale);
        pass.setup.push(setup * compute_scale);
        if let Ok(r) = &outcome {
            pass.instructions += r.instructions;
            pass.acts += r.mitigation.acts_observed;
        }
        checker.check(&cell.id, &sim_output(cell, &outcome));
    }
    pass
}

/// Checks every cell of a campaign; returns its completed cells.
fn check_matrix(
    spec: &MatrixSpec,
    outcome: std::thread::Result<MatrixOutcome>,
    checker: &mut Checker,
) -> Vec<MatrixCell> {
    let outcome = match outcome {
        Ok(o) => o,
        Err(payload) => {
            let e = panic_message(payload.as_ref());
            for i in 0..spec.cells() {
                checker.verdict(&format!("campaign-cell-{i}"), Err(e.clone()));
            }
            return Vec::new();
        }
    };
    for f in &outcome.failures {
        checker.verdict(&f.id, Err(f.error.to_string()));
    }
    let csv = outcome.result.to_csv();
    for row in csv.lines().skip(1) {
        checker.check(&matrix_row_id(row), &Ok(row.to_string()));
    }
    outcome.result.cells
}

/// One campaign and its set-up calls, adjusted by the compute probe run
/// before and after them (the campaign by its [`host::RIG_EXPONENT`]
/// power): the rig's work is cache-resident and runs on two workers, so
/// the memory probe does not track it.
fn matrix_pass(spec: &MatrixSpec, journal_dir: &Path, checker: &mut Checker) -> Pass {
    let probe_before = host::compute_probe_seconds();
    let run_cfg = matrix_run_config(journal_dir);
    // The campaign's fixed cost: journal open, pool and reduction with no cells.
    let mut empty = spec.clone();
    empty.strategies.clear();
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let _ = run_matrix_supervised(&empty, &Telemetry::disabled(), &run_cfg);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_matrix_supervised(spec, &Telemetry::disabled(), &run_cfg)
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let setup_scale = host::speed_scale(probe_before, host::compute_probe_seconds());
    let scale = setup_scale.powf(host::RIG_EXPONENT);
    let acts = check_matrix(spec, outcome, checker)
        .iter()
        .map(|c| c.total_acts)
        .sum();
    // The rig retires one attacker instruction per ACT, as an attacker
    // core's uncached load stream does in the full-system model.
    Pass {
        wall_s,
        cpu_s: cpu_s * scale,
        cell_wall: vec![wall_s * scale],
        cell_work: vec![wall_s * scale],
        instructions: acts,
        acts,
        setup: setup.iter().map(|s| s * setup_scale).collect(),
    }
}

fn rate_m(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds / 1e6
    } else {
        0.0
    }
}

/// Per-cell medians over passes, summed: a slow phase of the host that
/// hits one pass's cells moves the total less than a median of pass totals.
fn sum_of_medians(passes: &[Pass], field: fn(&Pass) -> &[f64]) -> f64 {
    let cells = passes.first().map_or(0, |p| field(p).len());
    (0..cells)
        .map(|i| median(&passes.iter().map(|p| field(p)[i]).collect::<Vec<_>>()))
        .sum()
}

/// Runs passes until `budget` has elapsed (at least one) and reports the
/// end-to-end metrics as medians over passes.
pub fn timed(
    roster: &Roster,
    budget: Duration,
    checker: &mut Checker,
    journal_dir: &Path,
) -> RunResult {
    let deadline = Instant::now() + budget;
    let mut probe = None;
    let mut passes = Vec::new();
    loop {
        let pass = match roster {
            Roster::Sims(cells) => sim_pass(
                cells,
                probe.get_or_insert_with(SpeedProbe::default),
                checker,
            ),
            Roster::Matrix(spec) => matrix_pass(spec, journal_dir, checker),
        };
        eprintln!(
            "pass\t{}\twall_s {:.4}\tadjusted {:.4}",
            passes.len(),
            pass.wall_s,
            pass.cell_wall.iter().sum::<f64>()
        );
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let cpu_s = median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let wall_s = sum_of_medians(&passes, |p| &p.cell_wall);
    let work_s = sum_of_medians(&passes, |p| &p.cell_work);
    let setup_s = match roster {
        Roster::Sims(_) => sum_of_medians(&passes, |p| &p.setup),
        Roster::Matrix(_) => median(
            &passes
                .iter()
                .flat_map(|p| p.setup.iter().copied())
                .collect::<Vec<_>>(),
        ),
    };
    // Counts repeat exactly across passes; the first pass's stand for all.
    let (instructions, acts) = (passes[0].instructions, passes[0].acts);
    RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("cpu_s", cpu_s, "s"),
            ("setup_s", setup_s, "s"),
            ("sim_mips", rate_m(instructions, work_s), "Minstr/s"),
            ("rig_macts_per_s", rate_m(acts, work_s), "MACT/s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
            ("pass_frac", checker.pass_frac(), "fraction"),
        ],
    }
}

/// Per-layer sums of one traced pass. `*_raw` self times may be negative
/// (a replay outran the call it stands for); they are clamped when reported.
#[derive(Debug, Default)]
pub struct Trace {
    /// Wall seconds of the untraced pass over the same cells.
    pub untraced_s: f64,
    /// Wall seconds of the traced pass (the campaign call on the matrix).
    pub traced_s: f64,
    /// Threads the traced pass ran cells on.
    pub workers: usize,
    /// `next_op` calls made by the traced pass.
    pub ops: u64,
    /// Seconds in `try_build_traces`.
    pub build_s: f64,
    /// Estimated seconds in `next_op` within `System::try_run`.
    pub next_op_s: f64,
    /// Instructions retired by the traced pass.
    pub instructions: u64,
    /// LLC hits and misses of the traced pass.
    pub llc_hits: u64,
    /// LLC misses of the traced pass.
    pub llc_misses: u64,
    /// Frontend replay seconds less its `next_op` time.
    pub frontend_raw: f64,
    /// Instructions the frontend replay retired.
    pub frontend_instr: u64,
    /// Requests the controllers completed.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer hits, misses and conflicts.
    pub row_accesses: u64,
    /// ALERT back-offs the controllers serviced.
    pub alerts_serviced: u64,
    /// Proactive RFMs the controllers issued.
    pub rfms_issued: u64,
    /// Memctrl replay seconds less the dram replay's.
    pub memctrl_raw: f64,
    /// Requests the memctrl replay served.
    pub memctrl_requests: u64,
    /// DRAM commands of the traced pass.
    pub commands: u64,
    /// ACTs of the traced pass.
    pub acts: u64,
    /// Dram replay seconds less its tracker time.
    pub dram_raw: f64,
    /// Commands the dram replay issued.
    pub dram_commands: u64,
    /// ACTs the trackers observed.
    pub acts_observed: u64,
    /// ACTs MIRZA's coarse-grained filter dropped.
    pub acts_filtered: u64,
    /// ALERTs the trackers raised.
    pub tracker_alerts: u64,
    /// Estimated tracker seconds.
    pub trackers_raw: f64,
    /// ACTs the timed trackers observed (the ns-per-ACT base).
    pub tracker_acts: u64,
    /// Simulated picoseconds covered.
    pub elapsed_ps: u64,
    /// Seconds in `System::new`.
    pub new_s: f64,
    /// `System::try_run` seconds less the replayed layers.
    pub sim_raw: f64,
    /// Attacker ACTs replayed.
    pub attack_acts: u64,
    /// ALERT back-offs in the attack rig.
    pub attack_alerts: u64,
    /// Rig seconds less tracker time.
    pub attacks_raw: f64,
    /// Cells completed.
    pub cells: u64,
    /// Cells retried by the pool.
    pub retries: u64,
    /// Cells failed.
    pub failed: u64,
    /// Worker seconds spent inside cells.
    pub busy_s: f64,
    /// Mean ns per fsync'd journal append of this workload's records.
    pub journal_ns: f64,
}

fn per_unit_ns(seconds: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        seconds * 1e9 / units as f64
    }
}

impl Trace {
    /// Worker-seconds of the traced pass: the total the layers split.
    pub fn total_s(&self) -> f64 {
        self.workers as f64 * self.traced_s
    }

    /// Sum of the layers' self times over [`Trace::total_s`].
    pub fn layer_sum_frac(&self) -> f64 {
        let total = self.total_s();
        if total <= 0.0 {
            return 0.0;
        }
        let layers = [
            self.build_s + self.next_op_s,
            self.frontend_raw.max(0.0),
            self.memctrl_raw.max(0.0),
            self.dram_raw.max(0.0),
            self.trackers_raw.max(0.0),
            self.new_s,
            self.sim_raw.max(0.0),
            self.attacks_raw.max(0.0),
            (total - self.busy_s).max(0.0),
        ];
        layers.iter().sum::<f64>() / total
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let frontend_s = self.frontend_raw.max(0.0);
        let memctrl_s = self.memctrl_raw.max(0.0);
        let dram_s = self.dram_raw.max(0.0);
        let trackers_s = self.trackers_raw.max(0.0);
        let attacks_s = self.attacks_raw.max(0.0);
        let total = self.total_s();
        let overhead = if self.untraced_s > 0.0 {
            self.traced_s / self.untraced_s - 1.0
        } else {
            0.0
        };
        vec![
            ("workloads.ops", self.ops as f64, "count"),
            ("workloads.build_s", self.build_s, "s"),
            (
                "workloads.ns_per_op",
                per_unit_ns(self.next_op_s, self.ops),
                "ns",
            ),
            ("frontend.instructions", self.instructions as f64, "count"),
            (
                "frontend.llc_miss_frac",
                share(
                    self.llc_misses as f64,
                    (self.llc_hits + self.llc_misses) as f64,
                ),
                "fraction",
            ),
            ("frontend.self_s", frontend_s, "s"),
            (
                "frontend.ns_per_instr",
                per_unit_ns(frontend_s, self.frontend_instr),
                "ns",
            ),
            ("memctrl.requests", self.requests as f64, "count"),
            (
                "memctrl.row_hit_frac",
                share(self.row_hits as f64, self.row_accesses as f64),
                "fraction",
            ),
            (
                "memctrl.alerts_serviced",
                self.alerts_serviced as f64,
                "count",
            ),
            ("memctrl.rfms_issued", self.rfms_issued as f64, "count"),
            ("memctrl.self_s", memctrl_s, "s"),
            (
                "memctrl.ns_per_request",
                per_unit_ns(memctrl_s, self.memctrl_requests),
                "ns",
            ),
            ("dram.commands", self.commands as f64, "count"),
            ("dram.acts", self.acts as f64, "count"),
            ("dram.self_s", dram_s, "s"),
            (
                "dram.ns_per_command",
                per_unit_ns(dram_s, self.dram_commands),
                "ns",
            ),
            ("trackers.acts_observed", self.acts_observed as f64, "count"),
            (
                "trackers.filtered_frac",
                share(self.acts_filtered as f64, self.acts_observed as f64),
                "fraction",
            ),
            ("trackers.alerts", self.tracker_alerts as f64, "count"),
            ("trackers.self_s", trackers_s, "s"),
            (
                "trackers.ns_per_act",
                per_unit_ns(trackers_s, self.tracker_acts),
                "ns",
            ),
            ("sim.elapsed_ps", self.elapsed_ps as f64, "ps"),
            ("sim.new_s", self.new_s, "s"),
            ("sim.self_s", self.sim_raw.max(0.0), "s"),
            ("attacks.acts", self.attack_acts as f64, "count"),
            ("attacks.alerts", self.attack_alerts as f64, "count"),
            ("attacks.self_s", attacks_s, "s"),
            (
                "attacks.ns_per_act",
                per_unit_ns(attacks_s, self.attack_acts),
                "ns",
            ),
            ("runner.cells", self.cells as f64, "count"),
            ("runner.retries", self.retries as f64, "count"),
            ("runner.failed", self.failed as f64, "count"),
            ("runner.busy_s", self.busy_s, "s"),
            ("runner.idle_s", (total - self.busy_s).max(0.0), "s"),
            ("runner.parallel_eff", share(self.busy_s, total), "fraction"),
            ("runner.journal_ns_per_append", self.journal_ns, "ns"),
            ("trace.overhead_frac", overhead, "fraction"),
            ("trace.layer_sum_frac", self.layer_sum_frac(), "fraction"),
        ]
    }
}

/// `part / whole`, or 0 for an empty whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Appends every record to a fresh journal in `dir`, fsync'd like the
/// campaign's own appends, and returns the mean ns per append.
fn journal_ns_per_append(dir: &Path, records: &[(String, Json)]) -> f64 {
    let run = || -> std::io::Result<f64> {
        let path = journal_path(dir, "trace");
        let (journal, _) = Journal::open(&path, cell_hash("benchsuite-trace"), false)?;
        let t0 = Instant::now();
        for (id, record) in records {
            journal.append(id, record)?;
        }
        let ns = t0.elapsed().as_nanos() as f64 / records.len().max(1) as f64;
        journal.finalize()?;
        Ok(ns)
    };
    run().unwrap_or_else(|e| {
        eprintln!("warning: journal timing failed: {e}");
        0.0
    })
}

/// Time split of one cell's replays (see [`crate::layers`]).
struct Split {
    frontend_s: f64,
    next_op_s: f64,
    instructions: u64,
    memctrl_s: f64,
    requests: u64,
    dram_s: f64,
    commands: u64,
    tracker_s: f64,
    tracker_acts: u64,
}

fn replay_cell(cell: &SimCell, report: &SimReport, floor_ns: f64) -> Result<Split, String> {
    let latency = Ps::from_ps(report.mc.read_latency_ps / report.mc.reads_done.max(1));
    let fe =
        layers::frontend(&cell.cfg, cell.workload, latency, floor_ns).map_err(|e| e.to_string())?;
    let mc = layers::memctrl(&cell.cfg, &fe.requests);
    if !mc.deterministic {
        return Err("memctrl replay changed between its two passes".to_string());
    }
    let dr = layers::dram(&cell.cfg, &mc.commands, floor_ns);
    if dr.device != mc.device {
        return Err("dram replay diverged from the memctrl replay's DeviceStats".to_string());
    }
    Ok(Split {
        frontend_s: fe.seconds,
        next_op_s: fe.next_op_s,
        instructions: fe.instructions,
        memctrl_s: mc.seconds,
        requests: fe.requests.len() as u64,
        dram_s: dr.seconds,
        commands: dr.commands,
        tracker_s: dr.tracker_s,
        tracker_acts: dr.device.iter().map(|(_, m)| m.acts_observed).sum(),
    })
}

/// The traced run over simulation cells: an untraced pass, then every
/// cell again with its streams wrapped, each followed by its replays.
pub fn trace_sims(
    cells: &[SimCell],
    checker: &mut Checker,
    floor_ns: f64,
    journal_dir: &Path,
) -> Trace {
    let mut t = Trace {
        workers: 1,
        ..Trace::default()
    };
    for cell in cells {
        let t0 = Instant::now();
        let (_, outcome) = run_sim_cell(cell, None);
        t.untraced_s += t0.elapsed().as_secs_f64();
        checker.check(&cell.id, &sim_output(cell, &outcome));
    }
    let mut records = Vec::new();
    for cell in cells {
        let tally = Rc::new(RefCell::new(Sampler::default()));
        let t0 = Instant::now();
        let (times, outcome) = run_sim_cell(cell, Some(&tally));
        t.traced_s += t0.elapsed().as_secs_f64();
        t.busy_s += times.build_s + times.new_s + times.run_s;
        t.build_s += times.build_s;
        t.new_s += times.new_s;
        let next_op_s = tally.borrow().seconds(floor_ns);
        t.next_op_s += next_op_s;
        t.ops += tally.borrow().calls;
        // The stream wrapper must leave the report bit-identical.
        let passed = checker.check(&cell.id, &sim_output(cell, &outcome));
        let report = match outcome {
            Ok(r) if passed => r,
            _ => {
                t.failed += 1;
                t.sim_raw += times.run_s - next_op_s;
                continue;
            }
        };
        t.cells += 1;
        t.instructions += report.instructions;
        t.llc_hits += report.llc_hits;
        t.llc_misses += report.llc_misses;
        t.requests += report.mc.reads_done + report.mc.writes_done;
        t.row_hits += report.mc.row_hits;
        t.row_accesses += report.mc.row_hits + report.mc.row_misses + report.mc.row_conflicts;
        t.alerts_serviced += report.mc.alerts_serviced;
        t.rfms_issued += report.mc.rfms_issued;
        let d = &report.device;
        t.commands +=
            d.acts + d.pres + d.reads + d.writes + d.refs + d.rfms_proactive + d.rfms_alert;
        t.acts += d.acts;
        t.acts_observed += report.mitigation.acts_observed;
        t.acts_filtered += report.mitigation.acts_filtered;
        t.tracker_alerts += report.mitigation.alerts_requested;
        t.elapsed_ps += report.elapsed.as_ps();
        records.push((cell.id.clone(), report.to_json()));
        let split = catch_unwind(AssertUnwindSafe(|| replay_cell(cell, &report, floor_ns)))
            .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
        let replay_id = format!("{}/replay", cell.id);
        match split {
            Ok(s) => {
                checker.verdict(&replay_id, Ok(()));
                let frontend = s.frontend_s - s.next_op_s;
                t.frontend_raw += frontend;
                t.frontend_instr += s.instructions;
                t.memctrl_raw += s.memctrl_s - s.dram_s;
                t.memctrl_requests += s.requests;
                t.dram_raw += s.dram_s - s.tracker_s;
                t.dram_commands += s.commands;
                t.trackers_raw += s.tracker_s;
                t.tracker_acts += s.tracker_acts;
                t.sim_raw += times.run_s - next_op_s - frontend - s.memctrl_s;
            }
            Err(e) => {
                checker.verdict(&replay_id, Err(e));
                t.sim_raw += times.run_s - next_op_s;
            }
        }
    }
    t.journal_ns = journal_ns_per_append(journal_dir, &records);
    t
}

/// Cells of a serial matrix replay with the time split it measured.
#[derive(Debug, Default)]
pub struct MatrixReplay {
    /// Cells in enumeration order, as the campaign reduces them.
    pub cells: Vec<MatrixCell>,
    /// Seconds in the replayed cells.
    pub cell_s: f64,
    /// Estimated seconds inside the trackers.
    pub tracker_s: f64,
    /// ACTs the trackers observed.
    pub observed: u64,
    /// ACTs MIRZA's filter dropped.
    pub filtered: u64,
}

/// Re-runs every cell's trials serially through the public builders and
/// `rig::run_attack`, exactly as a campaign cell composes them, with each
/// mitigator wrapped so tracker time splits out of rig time.
pub fn replay_matrix(spec: &MatrixSpec, floor_ns: f64) -> MatrixReplay {
    let geom = spec.scale.geometry();
    let timing = TimingParams::ddr5_6000();
    let refs = spec.walks * u64::from(geom.refs_per_full_walk());
    let regions = RegionMap::new(
        geom.rows_per_bank,
        MirzaConfig::trhd_1000().regions_per_bank,
    );
    let tally = Rc::new(RefCell::new(TrackerTally::default()));
    let mut out = MatrixReplay::default();
    for strat in &spec.strategies {
        for sched in &spec.schedules {
            for mit in &spec.mitigators {
                for &seed in &spec.seeds {
                    let mut cell = MatrixCell {
                        strategy: String::new(),
                        schedule: String::new(),
                        mitigator: mit.label(),
                        seed,
                        trials: spec.trials,
                        successes: 0,
                        max_row_acts: 0,
                        bound: 0,
                        total_acts: 0,
                        alerts: 0,
                    };
                    let t0 = Instant::now();
                    for trial in 0..spec.trials {
                        let trial_seed = seed.wrapping_mul(1_000).wrapping_add(u64::from(trial));
                        let (inner, bound) = mit.build(&spec.scale, &geom, trial_seed);
                        let mut mitigator = TimedMitigator::new(inner, &tally);
                        let mapping = mitigator
                            .mapping()
                            .copied()
                            .unwrap_or_else(|| RowMapping::for_geometry(Default::default(), &geom));
                        let mut strategy = strat.build(&mapping, &regions, trial_seed);
                        let mut schedule = sched.build();
                        cell.strategy = strategy.label();
                        cell.schedule = schedule.label();
                        let targets = strategy.target_rows();
                        let report = if targets.is_empty() {
                            run_attack(
                                &mut mitigator,
                                &geom,
                                &timing,
                                0,
                                strategy.as_mut(),
                                schedule.as_mut(),
                                &AnyRow,
                                bound,
                                refs,
                            )
                        } else {
                            run_attack(
                                &mut mitigator,
                                &geom,
                                &timing,
                                0,
                                strategy.as_mut(),
                                schedule.as_mut(),
                                &TargetRows::new(targets),
                                bound,
                                refs,
                            )
                        };
                        let stats = mitigator.stats();
                        out.observed += stats.acts_observed;
                        out.filtered += stats.acts_filtered;
                        cell.bound = report.bound;
                        cell.successes += u32::from(report.success);
                        cell.max_row_acts = cell.max_row_acts.max(report.max_row_acts);
                        cell.total_acts += report.outcome.total_acts;
                        cell.alerts += report.outcome.alerts;
                    }
                    out.cell_s += t0.elapsed().as_secs_f64();
                    out.cells.push(cell);
                }
            }
        }
    }
    out.tracker_s = tally.borrow().seconds(floor_ns);
    out
}

/// The traced run over the attack matrix: an untraced campaign, a campaign
/// whose pool reports through telemetry, and a serial replay that checks
/// every cell and splits the pool's busy time between rig and trackers.
pub fn trace_matrix(
    spec: &MatrixSpec,
    checker: &mut Checker,
    floor_ns: f64,
    journal_dir: &Path,
) -> Trace {
    let run_cfg = matrix_run_config(journal_dir);
    let mut t = Trace {
        workers: matrix_workers(),
        ..Trace::default()
    };
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_matrix_supervised(spec, &Telemetry::disabled(), &run_cfg)
    }));
    t.untraced_s = t0.elapsed().as_secs_f64();
    check_matrix(spec, outcome, checker);

    let telemetry = Telemetry::enabled();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_matrix_supervised(spec, &telemetry, &run_cfg)
    }));
    t.traced_s = t0.elapsed().as_secs_f64();
    let cells = check_matrix(spec, outcome, checker);
    // The pool's own per-cell wall times: busy worker time, never more
    // than workers x wall, so idle time cannot come out negative.
    let busy_us = telemetry
        .with_recorder(|r| {
            r.registry
                .histogram(names::RUNNER_CELL_WALL_US)
                .map_or(0, |h| h.sum())
        })
        .unwrap_or(0);
    t.busy_s = busy_us as f64 / 1e6;
    t.cells = telemetry.counter(names::RUNNER_CELLS_COMPLETED);
    t.retries = telemetry.counter(names::RUNNER_CELLS_RETRIED);
    t.failed = telemetry.counter(names::RUNNER_CELLS_FAILED);

    let replay = catch_unwind(AssertUnwindSafe(|| replay_matrix(spec, floor_ns)));
    match replay {
        Ok(replay) => {
            let by_id: HashMap<String, &MatrixCell> = replay
                .cells
                .iter()
                .map(|c| (matrix_cell_id(c), c))
                .collect();
            for c in &cells {
                let id = matrix_cell_id(c);
                let verdict = match by_id.get(&id) {
                    Some(r) if *r == c => Ok(()),
                    Some(_) => Err("serial replay disagrees with the campaign".to_string()),
                    None => Err("serial replay has no such cell".to_string()),
                };
                checker.verdict(&format!("{id}/replay"), verdict);
            }
            t.attack_acts = replay.cells.iter().map(|c| c.total_acts).sum();
            t.attack_alerts = replay.cells.iter().map(|c| c.alerts).sum();
            t.acts_observed = replay.observed;
            t.acts_filtered = replay.filtered;
            t.tracker_alerts = t.attack_alerts;
            t.tracker_acts = replay.observed;
            // A sampled estimate cannot exceed the span it sits in; on very
            // short cells one preempted sample can push it past.
            let tracker_share = share(replay.tracker_s, replay.cell_s).min(1.0);
            t.trackers_raw = t.busy_s * tracker_share;
            t.attacks_raw = t.busy_s - t.trackers_raw;
        }
        Err(payload) => {
            checker.verdict("serial-replay", Err(panic_message(payload.as_ref())));
            t.attacks_raw = t.busy_s;
        }
    }
    let records: Vec<(String, Json)> = cells
        .iter()
        .map(|c| (matrix_cell_id(c), c.to_json()))
        .collect();
    t.journal_ns = journal_ns_per_append(journal_dir, &records);
    t
}

/// A matrix cell's identity, as [`matrix_row_id`] reads it off a CSV row.
fn matrix_cell_id(c: &MatrixCell) -> String {
    format!("{},{},{},{}", c.strategy, c.schedule, c.mitigator, c.seed)
}

/// The traced run of `roster`, reported as per-layer metrics.
pub fn traced(roster: &Roster, checker: &mut Checker, journal_dir: &Path) -> RunResult {
    let floor_ns = layers::clock_floor_ns();
    let trace = match roster {
        Roster::Sims(cells) => trace_sims(cells, checker, floor_ns, journal_dir),
        Roster::Matrix(spec) => trace_matrix(spec, checker, floor_ns, journal_dir),
    };
    let frac = trace.layer_sum_frac();
    if (frac - 1.0).abs() > LAYER_SUM_TOLERANCE {
        eprintln!("warning: trace.layer_sum_frac {frac:.4} is outside 1 +/- {LAYER_SUM_TOLERANCE}");
    }
    RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: trace.metrics(),
    }
}
