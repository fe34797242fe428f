//! Run cache: experiments share simulation runs (the baseline run of each
//! workload backs every slowdown column), so the lab memoizes reports by
//! (mitigation label, run name).
//!
//! Every fresh run is a cell of a supervised work-pool campaign
//! (`mirza-runner`), at any job count; at `jobs = 1` the pool is one
//! worker on the calling thread. [`Lab::sweep`] takes a lab driver, any
//! function that asks [`Lab::run`] for reports, and calls it twice. In the
//! planning pass every uncached request is noted, in first-request order,
//! and answered with a zeroed stand-in report. The planned cells then run
//! as one campaign, and their results go through the serial bookkeeping
//! (audit warnings, epoch streams, manifest record, CSV row, cache insert)
//! in plan order. In the real pass every request is a cache hit. No
//! driver's requests depend on a report's values, so plan order is the
//! order the driver makes them in, and manifests and CSVs are
//! bit-identical at any job count whatever order the workers finish in.
//! Were a driver's requests to depend on them, the cells the plan missed
//! would run on demand as one-cell campaigns, as an uncached [`Lab::run`]
//! outside a sweep does: the same output, with less parallelism.
//!
//! A failing cell ends the process the same way at any job count. A
//! simulation error is the pool's failure for that cell, as a panic is,
//! and the pool runs every cell once. Once a cell has failed, the
//! cells after it in plan order that have not started return without
//! running. The completed cells before the first failed one in plan order
//! are recorded, and the failure exits with its error's code (a watchdog
//! abort exits 6, a panic 7), leaving the partial manifest with the cell
//! under `failures`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::mitigation::MitigationStats;
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_memctrl::request::McStats;
use mirza_runner::{scale_wall_budget, Cell, CellFailure, Outcome, Pool};
use mirza_sim::config::{Attacker, MitigationConfig, SimConfig};
use mirza_sim::faults::{FaultInjector, FaultPlan};
use mirza_sim::report::SimReport;
use mirza_sim::runner::{run_name, try_run_workload_with};
use mirza_sim::SimError;
use mirza_telemetry::{
    names, progress, AttributionSummary, ChromeTraceSink, EpochSampler, Json, SpanCollector,
    StallBucket, Telemetry,
};

use crate::analytic::mirza_preset;
use crate::scale::Scale;

/// Retired instructions between the heartbeat lines of a verbose lab's
/// runs: often enough to show a paper-scale run is alive, rarely enough
/// not to flood fast mode.
const HEARTBEAT_EVERY: u64 = 10_000_000;

/// Memoizing experiment runner.
pub struct Lab {
    scale: Scale,
    cache: HashMap<String, SimReport>,
    /// Print progress lines, and a heartbeat from every run, while
    /// running (on for the CLI, off in tests).
    pub verbose: bool,
    /// Write the CSV header and one row per fresh run to this file,
    /// replacing what it held.
    pub csv_path: Option<std::path::PathBuf>,
    /// The CSV file, created at the first recorded run.
    csv: Option<std::fs::File>,
    /// Epoch sampling period in picoseconds (`None` = sampler off). Each
    /// simulated run leaves `epochs_<label>-<run name>.jsonl` in
    /// [`Lab::epoch_dir`] and a per-series summary in the manifest.
    pub epoch_ps: Option<u64>,
    /// Directory for epoch JSONL streams (created on demand).
    pub epoch_dir: std::path::PathBuf,
    /// Attach the independent DDR5 protocol auditor to every run.
    pub audit: bool,
    /// Runs that flagged protocol violations, as `(run key, count)`.
    audit_failures: Vec<(String, u64)>,
    /// Per-experiment run records, collected when manifest mode is on.
    manifest: Option<Vec<(String, Vec<Json>)>>,
    /// Fault plan injected into every fresh simulation (`None` = no
    /// faults). Turning a plan on also arms the auditor's per-row ACT
    /// census so each run record carries a security verdict.
    pub fault_plan: Option<FaultPlan>,
    /// Wall-clock watchdog budget per simulation, in seconds.
    pub watchdog_wall_secs: Option<u64>,
    /// Attach the request-lifecycle span collector to every fresh run, so
    /// each report carries per-bucket stall attribution.
    pub attribution: bool,
    /// Base path for Chrome trace-event JSON. Each fresh run writes
    /// `<stem>_<label>-<run name>.<ext>` next to it (implies spans).
    pub trace_chrome: Option<std::path::PathBuf>,
    /// Where the manifest will be written; a fatal error flushes the
    /// partial document here before exiting.
    pub manifest_path: Option<std::path::PathBuf>,
    /// Pool workers for every campaign (the CLI stamps `--jobs` here).
    /// Any value gives the same output: see the module docs.
    pub jobs: usize,
    /// The cells a sweep's planning pass has asked for, deduplicated and
    /// in first-request order (`None` outside a planning pass).
    plan: Option<Vec<LabCellSpec>>,
    /// Aggregate pool statistics across campaigns (manifest top-level
    /// `runner` section; absent when no pool ever ran).
    runner_stats: Option<RunnerStats>,
}

/// Pool rollup stamped into the manifest (top level, like `provenance`,
/// so neither gate ever diffs it).
#[derive(Debug, Default, Clone)]
struct RunnerStats {
    campaigns: u64,
    cells: u64,
    failures: u64,
    wall_secs: f64,
}

impl RunnerStats {
    /// Adds one campaign. `cells` counts the cells that ran, not those
    /// skipped after a failure; `failures` counts the cell that ended the
    /// run, a simulation error or a panic, the one [`Lab::fatal`] names.
    fn absorb(&mut self, outcome: &Outcome<Option<CompletedRun>>) {
        self.campaigns += 1;
        let ran = outcome.results.iter().filter(|r| !matches!(r, Some(None)));
        self.cells += ran.count() as u64;
        self.failures += u64::from(!outcome.complete());
        self.wall_secs += outcome.wall.as_secs_f64();
    }

    fn to_json(&self, jobs: usize) -> Json {
        let mut doc = Json::obj();
        doc.push("jobs", jobs as u64)
            .push("campaigns", self.campaigns)
            .push("cells", self.cells)
            .push("failures", self.failures)
            .push("wall_secs", self.wall_secs);
        doc
    }
}

/// One (mitigation, workload, core mix) cell: plain data, shareable
/// across threads. Every other setting of the run is read from the lab.
struct LabCellSpec {
    key: String,
    workload: String,
    cfg: SimConfig,
    chrome_path: Option<std::path::PathBuf>,
}

impl LabCellSpec {
    /// The planning pass's answer to a request: the right label and run
    /// name, one zero IPC per benign core, every counter zero, and an
    /// empty attribution when spans are armed. Never cached or recorded.
    fn stand_in(&self, spanning: bool) -> SimReport {
        SimReport {
            label: self.cfg.mitigation.label(),
            workload: run_name(&self.cfg, &self.workload),
            core_ipc: vec![0.0; self.cfg.cores - usize::from(self.cfg.attacker.is_some())],
            instructions: 0,
            elapsed: Ps::ZERO,
            device: DeviceStats::default(),
            mitigation: MitigationStats::default(),
            mc: McStats::default(),
            acts_per_subarray: Vec::new(),
            llc_hits: 0,
            llc_misses: 0,
            t_refi: Ps::ZERO,
            t_refw: Ps::ZERO,
            subchannels: 0,
            attribution: spanning.then_some(AttributionSummary {
                requests: 0,
                total_stall_ps: 0,
                buckets_ps: [0; StallBucket::ALL.len()],
                conserved: true,
            }),
        }
    }
}

/// A cell of one campaign: its plan index and spec, the lab it runs
/// under, and the campaign's lowest failed plan index (`usize::MAX` while
/// no cell has failed; it publishes no data, so it is read and written
/// `Relaxed`).
struct LabCell<'a> {
    lab: &'a Lab,
    index: usize,
    spec: &'a LabCellSpec,
    first_failed: &'a AtomicUsize,
}

impl Cell for LabCell<'_> {
    /// `None` when the cell did not start: a cell before it in plan order
    /// had failed, so its run could never be recorded.
    type Out = Option<CompletedRun>;

    fn id(&self) -> String {
        self.spec.key.clone()
    }

    /// A simulation error is the cell's pool failure, as a panic is, and
    /// either one stops the cells after it.
    fn run(&self) -> Result<Option<CompletedRun>, SimError> {
        if self.first_failed.load(Ordering::Relaxed) < self.index {
            return Ok(None);
        }
        let guard = MarkFailed(self);
        let run = self.lab.execute_spec(self.spec)?;
        std::mem::forget(guard);
        Ok(Some(run))
    }
}

/// Marks its cell failed when dropped, so an error return and a panic's
/// unwind out of [`LabCell::run`] both mark it; a completed run forgets
/// the guard instead.
struct MarkFailed<'a>(&'a LabCell<'a>);

impl Drop for MarkFailed<'_> {
    fn drop(&mut self) {
        let cell = self.0;
        cell.first_failed.fetch_min(cell.index, Ordering::Relaxed);
    }
}

/// A completed run on its way to [`Lab::record`]: the report plus its
/// finished manifest record, so recording touches no telemetry and stays
/// byte-deterministic on whichever worker the run executed.
struct CompletedRun {
    report: SimReport,
    /// The run's manifest record (`None` unless manifest mode is on).
    record: Option<Json>,
    violations: u64,
    epochs_jsonl: Option<String>,
}

impl Lab {
    /// Creates a lab at the given scale.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            cache: HashMap::new(),
            verbose: false,
            csv_path: None,
            csv: None,
            epoch_ps: None,
            epoch_dir: std::path::PathBuf::from("epochs"),
            audit: false,
            audit_failures: Vec::new(),
            manifest: None,
            fault_plan: None,
            watchdog_wall_secs: None,
            manifest_path: None,
            attribution: false,
            trace_chrome: None,
            jobs: 1,
            plan: None,
            runner_stats: None,
        }
    }

    /// Starts collecting run manifests: every simulation from here on runs
    /// with telemetry enabled and leaves a JSON record (config, report,
    /// metric summaries) in the document returned by [`Lab::manifest_json`].
    pub fn enable_manifest(&mut self) {
        if self.manifest.is_none() {
            self.manifest = Some(Vec::new());
        }
    }

    /// Opens a new experiment group; subsequent runs are recorded under
    /// `name`. No-op unless manifest mode is on.
    pub fn begin_experiment(&mut self, name: &str) {
        if let Some(groups) = &mut self.manifest {
            groups.push((name.to_string(), Vec::new()));
        }
    }

    /// Compares the auditor's maximum per-row ACT census against the NBO
    /// activation bound of the configured mitigation. The bound is the
    /// maximum unmitigated ACTs plus one, so a run holds while every row
    /// stays below it, the rule the rig's `AnyRow` victim applies. The
    /// census is a conservative upper bound (targeted mitigations are not
    /// credited), so `holds == true` means the Rowhammer guarantee
    /// survived the injected faults; `holds == false` flags a run for
    /// inspection, not a proven break. Non-MIRZA mitigations have no NBO
    /// bound, so the verdict degrades to reporting the observed maximum.
    fn security_verdict(cfg: &SimConfig, telemetry: &Telemetry) -> Json {
        let max_row_acts = telemetry.counter(names::AUDIT_MAX_ROW_ACTS);
        let nbo_bound = match &cfg.mitigation {
            MitigationConfig::Mirza { cfg: mirza, .. } => Some(u64::from(mirza.safe_trhd())),
            _ => None,
        };
        let mut v = Json::obj();
        v.push("max_row_acts", max_row_acts);
        match nbo_bound {
            Some(bound) => {
                v.push("nbo_bound", bound)
                    .push("holds", max_row_acts < bound);
            }
            None => {
                v.push("nbo_bound", Json::Null).push("holds", Json::Null);
            }
        }
        v
    }

    /// The manifest document collected so far (`None` unless enabled).
    /// Cache recalls are not re-recorded: each simulated run appears once,
    /// under the experiment that first triggered it.
    pub fn manifest_json(&self) -> Option<Json> {
        let groups = self.manifest.as_ref()?;
        let experiments: Vec<Json> = groups
            .iter()
            .map(|(name, runs)| {
                let mut e = Json::obj();
                e.push("name", name.as_str()).push("runs", runs.clone());
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.push("scale", self.scale.to_json())
            .push("seed", self.scale.seed)
            // Top-level only: the gate (compare.rs) keys on scale/seed/runs,
            // so provenance never trips a regression diff.
            .push(
                "provenance",
                crate::provenance::to_json_with_jobs(self.jobs),
            )
            .push("experiments", experiments);
        if let Some(stats) = &self.runner_stats {
            doc.push("runner", stats.to_json(self.jobs));
        }
        Some(doc)
    }

    /// Writes the collected manifest to `path` as pretty-printed JSON.
    pub fn write_manifest(&self, path: &std::path::Path) -> std::io::Result<()> {
        let doc = self.manifest_json().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "manifest mode is off")
        })?;
        std::fs::write(path, doc.to_string_pretty() + "\n")
    }

    /// Writes `report`'s row to the CSV file. The first recorded run
    /// creates the file, replacing any old one, and writes the header. The
    /// file is unbuffered, so every row written survives [`Lab::fatal`].
    fn write_csv_row(&mut self, report: &SimReport) {
        use std::io::Write as _;
        let Some(path) = &self.csv_path else {
            return;
        };
        let mut text = String::new();
        if self.csv.is_none() {
            match std::fs::File::create(path) {
                Ok(f) => self.csv = Some(f),
                Err(e) => {
                    eprintln!("warning: cannot create {}: {e}", path.display());
                    return;
                }
            }
            text = format!("{}\n", SimReport::csv_header());
        }
        text = text + &report.csv_row() + "\n";
        let file = self.csv.as_mut().expect("created above");
        if let Err(e) = file.write_all(text.as_bytes()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// The scale in force.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The workloads in scope.
    pub fn workloads(&self) -> Vec<&'static str> {
        self.scale.workloads.clone()
    }

    /// [`Lab::run_on`] with Table III's [`SimConfig::CORES`] cores.
    pub fn run(&mut self, mitigation: MitigationConfig, workload: &str) -> SimReport {
        self.run_on(mitigation, workload, SimConfig::CORES, None)
    }

    /// Runs (or recalls) `workload` under `mitigation` on `benign` cores,
    /// plus `attacker` as one more core when set; the cell is keyed
    /// `<label>/<run name>` (see [`run_name`]). Probe collectors (epoch
    /// sampler, protocol auditor) attach only to fresh simulations; cache
    /// recalls return the memoized report. Outside a sweep an uncached
    /// request runs as a one-cell pool campaign. In a sweep's planning
    /// pass it joins the plan and gets a stand-in report (see
    /// [`Lab::sweep`]).
    pub fn run_on(
        &mut self,
        mitigation: MitigationConfig,
        workload: &str,
        benign: usize,
        attacker: Option<Attacker>,
    ) -> SimReport {
        let mut cfg = self.scale.sim_config(mitigation);
        cfg.cores = benign + usize::from(attacker.is_some());
        cfg.attacker = attacker;
        let key = format!("{}/{}", mitigation.label(), run_name(&cfg, workload));
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        let spanning = self.spanning();
        let spec = self.cell_spec(cfg, workload, key.clone());
        let Some(plan) = &mut self.plan else {
            self.run_cells(vec![spec]);
            return self.cache[&key].clone();
        };
        let stand_in = spec.stand_in(spanning);
        if plan.iter().all(|planned| planned.key != spec.key) {
            plan.push(spec);
        }
        stand_in
    }

    /// Runs a lab driver, any function that asks [`Lab::run`] for reports,
    /// and returns what it returns. A planning pass of the driver collects
    /// its uncached cells, they run as one pool campaign of
    /// [`Lab::jobs`] workers and are recorded in plan order, and the
    /// driver runs again on a warm cache. This is the one path at every
    /// job count. A failed cell ends the process after the cells before it
    /// are recorded (see the module docs).
    pub fn sweep<T>(&mut self, mut driver: impl FnMut(&mut Lab) -> T) -> T {
        self.plan = Some(Vec::new());
        driver(self);
        let cells = self.plan.take().unwrap_or_default();
        self.run_cells(cells);
        driver(self)
    }

    /// Runs `specs` as one pool campaign, then walks the results in plan
    /// order: each completed cell is recorded, and the first failed one
    /// ends the process through [`Lab::fatal`].
    fn run_cells(&mut self, specs: Vec<LabCellSpec>) {
        if specs.is_empty() {
            return;
        }
        let first_failed = AtomicUsize::new(usize::MAX);
        let lab: &Lab = self;
        let cells: Vec<LabCell> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| LabCell {
                lab,
                index,
                spec,
                first_failed: &first_failed,
            })
            .collect();
        let outcome = Pool::with_jobs(self.jobs).run(&cells, None);
        self.runner_stats
            .get_or_insert_with(RunnerStats::default)
            .absorb(&outcome);
        let end = outcome.failures.first().map_or(specs.len(), |f| f.index);
        for (spec, result) in specs.into_iter().zip(outcome.results).take(end) {
            if let Some(Some(run)) = result {
                self.record(spec.key, run);
            }
        }
        if let Some(failure) = outcome.failures.first() {
            self.fatal(failure);
        }
    }

    /// Whether runs carry the request-lifecycle span collector.
    fn spanning(&self) -> bool {
        self.attribution || self.trace_chrome.is_some()
    }

    /// Builds the plain-data execution spec for one cell. The wall-clock
    /// watchdog budget scales with the active job count so oversubscribed
    /// hosts don't trip spurious aborts; the simulated-time idle budget is
    /// per-cell and deliberately unscaled.
    fn cell_spec(&self, mut cfg: SimConfig, workload: &str, key: String) -> LabCellSpec {
        cfg.heartbeat_every = self.verbose.then_some(HEARTBEAT_EVERY);
        // Fault injection arms the auditor (and its per-row ACT census) so
        // the security verdict has shadow state to compare against.
        cfg.audit = self.audit || self.fault_plan.is_some();
        cfg.track_row_acts = self.fault_plan.is_some();
        cfg.watchdog_wall = self
            .watchdog_wall_secs
            .map(|s| scale_wall_budget(std::time::Duration::from_secs(s), self.jobs));
        LabCellSpec {
            workload: workload.to_string(),
            cfg,
            chrome_path: self.chrome_path(&key),
            key,
        }
    }

    /// Executes one cell on a pool worker: telemetry session, optional
    /// fault injector, the simulation itself, and the manifest record —
    /// everything that needs the run's live telemetry. Each worker builds
    /// its own `Telemetry`; the handle is single-threaded by design and
    /// never crosses. A failed run writes its partial epoch stream and
    /// flushes its Chrome trace before it returns the error.
    fn execute_spec(&self, spec: &LabCellSpec) -> Result<CompletedRun, SimError> {
        if self.verbose {
            progress::line(&format!("  running {} ...", spec.key));
        }
        let probing = self.epoch_ps.is_some() || spec.cfg.audit;
        let spanning = self.spanning();
        let mut telemetry = if self.manifest.is_some() || probing || spanning {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        if let Some(ps) = self.epoch_ps {
            telemetry = telemetry.with_epochs(EpochSampler::new(ps));
        }
        if spanning {
            let mut spans = SpanCollector::new();
            if let Some(sink) = Self::open_chrome(spec.chrome_path.as_deref(), self.verbose) {
                spans = spans.with_chrome(sink);
            }
            telemetry = telemetry.with_spans(spans);
        }
        let injector = self
            .fault_plan
            .clone()
            .map(|plan| FaultInjector::new(plan, telemetry.clone()));
        let report = match try_run_workload_with(
            &spec.cfg,
            &spec.workload,
            telemetry.clone(),
            injector.as_ref(),
        ) {
            Ok(r) => r,
            Err(err) => {
                if let Some(jsonl) = telemetry.epochs_jsonl() {
                    self.write_epoch_jsonl(&spec.key, &jsonl);
                }
                Self::flush_chrome(spec, &telemetry);
                return Err(err);
            }
        };
        let violations = if spec.cfg.audit {
            telemetry.counter(names::AUDIT_VIOLATIONS)
        } else {
            0
        };
        // Each optional section is attached only when its collector ran,
        // so probe-off manifests stay byte-compatible with earlier ones.
        let record = self.manifest.is_some().then(|| {
            let mut run = Json::obj();
            run.push("label", report.label.as_str())
                .push("workload", report.workload.as_str())
                .push("config", spec.cfg.to_json())
                .push("report", report.to_json())
                .push("telemetry", telemetry.to_json().unwrap_or(Json::Null));
            if let Some(e) = telemetry.epochs_summary_json() {
                run.push("epochs", e);
            }
            if spec.cfg.audit {
                run.push("audit_violations", violations);
            }
            if let Some(injector) = &injector {
                run.push("faults", injector.summary_json()).push(
                    "security_verdict",
                    Self::security_verdict(&spec.cfg, &telemetry),
                );
            }
            run
        });
        let epochs_jsonl = telemetry.epochs_jsonl();
        Self::flush_chrome(spec, &telemetry);
        Ok(CompletedRun {
            report,
            record,
            violations,
            epochs_jsonl,
        })
    }

    /// The serial bookkeeping every completed run goes through, in this
    /// order: audit warning, epoch stream, manifest record, CSV row, cache
    /// insert. Runs pass through here in plan order, which pins manifest
    /// grouping and CSV row order to the driver's call order.
    fn record(&mut self, key: String, run: CompletedRun) {
        if run.violations > 0 {
            eprintln!(
                "warning: {key}: {} protocol violation(s) flagged",
                run.violations
            );
            self.audit_failures.push((key.clone(), run.violations));
        }
        if let Some(jsonl) = &run.epochs_jsonl {
            self.write_epoch_jsonl(&key, jsonl);
        }
        if let (Some(groups), Some(record)) = (&mut self.manifest, run.record) {
            if groups.is_empty() {
                groups.push(("ungrouped".to_string(), Vec::new()));
            }
            groups
                .last_mut()
                .expect("just ensured non-empty")
                .1
                .push(record);
        }
        self.write_csv_row(&run.report);
        self.cache.insert(key, run.report);
    }

    /// Terminal error path for the cell that ended its campaign: flush the
    /// partial manifest, which lists the cell under `failures`, so a
    /// crashed sweep still leaves evidence on disk, then exit with the
    /// error's dedicated code. Never returns. A failed simulation wrote its
    /// partial epoch stream and Chrome trace before its error got here,
    /// and the CSV rows of the recorded runs are already written.
    fn fatal(&self, failure: &CellFailure) -> ! {
        eprintln!("error: {}", failure.error);
        if let (Some(path), Some(mut doc)) = (&self.manifest_path, self.manifest_json()) {
            let mut cell = Json::obj();
            cell.push("cell", failure.id.as_str())
                .push("error", failure.error.to_string());
            doc.push("failures", Json::Arr(vec![cell]));
            match std::fs::write(path, doc.to_string_pretty() + "\n") {
                Ok(()) => eprintln!("wrote partial manifest to {}", path.display()),
                Err(e) => eprintln!("warning: cannot write partial manifest: {e}"),
            }
        }
        std::process::exit(i32::from(failure.error.exit_code()));
    }

    /// Runs that the protocol auditor flagged, as `(mitigation/workload,
    /// violation count)` pairs. Empty when auditing is off or clean.
    pub fn audit_failures(&self) -> &[(String, u64)] {
        &self.audit_failures
    }

    /// Computes the per-run Chrome trace path derived from `trace_chrome`
    /// (`<stem>_<label>-<workload>.<ext>` in the same directory) and
    /// creates the parent. Path computation stays on the serial side so
    /// cell specs carry a finished path; the worker only opens it.
    fn chrome_path(&self, key: &str) -> Option<std::path::PathBuf> {
        let base = self.trace_chrome.as_ref()?;
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
        let name = format!("{stem}_{}.{ext}", file_name_part(key));
        match base.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("warning: cannot create {}: {e}", dir.display());
                    return None;
                }
                Some(dir.join(name))
            }
            _ => Some(std::path::PathBuf::from(name)),
        }
    }

    /// Opens a Chrome trace sink at `path`.
    fn open_chrome(path: Option<&std::path::Path>, verbose: bool) -> Option<ChromeTraceSink> {
        let path = path?;
        match std::fs::File::create(path) {
            Ok(f) => {
                if verbose {
                    progress::line(&format!("  tracing to {}", path.display()));
                }
                Some(ChromeTraceSink::new(Box::new(std::io::BufWriter::new(f))))
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot create chrome trace {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Flushes a run's sinks. A Lab run's only file sink is its Chrome
    /// trace, so a write error is reported against that path.
    fn flush_chrome(spec: &LabCellSpec, telemetry: &Telemetry) {
        if let (Err(e), Some(path)) = (telemetry.flush(), &spec.chrome_path) {
            eprintln!("warning: cannot write chrome trace {}: {e}", path.display());
        }
    }

    fn write_epoch_jsonl(&self, key: &str, jsonl: &str) {
        let path = self
            .epoch_dir
            .join(format!("epochs_{}.jsonl", file_name_part(key)));
        let write =
            std::fs::create_dir_all(&self.epoch_dir).and_then(|()| std::fs::write(&path, jsonl));
        if let Err(e) = write {
            eprintln!("warning: cannot write epoch stream {}: {e}", path.display());
        } else if self.verbose {
            eprintln!("  wrote {}", path.display());
        }
    }

    /// The unprotected baseline report for `workload`.
    pub fn baseline(&mut self, workload: &str) -> SimReport {
        self.run(MitigationConfig::None, workload)
    }

    /// Percent slowdown of `mitigation` on `workload` versus baseline.
    pub fn slowdown(&mut self, mitigation: MitigationConfig, workload: &str) -> f64 {
        let base = self.baseline(workload);
        self.run(mitigation, workload).slowdown_pct(&base)
    }

    /// Mean percent slowdown over all in-scope workloads.
    pub fn avg_slowdown(&mut self, mitigation: MitigationConfig) -> f64 {
        let ws = self.workloads();
        let sum: f64 = ws.iter().map(|w| self.slowdown(mitigation, w)).sum();
        sum / ws.len() as f64
    }

    /// MIRZA mitigation config for a target TRHD, scaled to this lab.
    ///
    /// # Panics
    /// Panics for a TRHD with no preset (500, 1000, 2000 and 4800 have one).
    pub fn mirza(&self, trhd: u32) -> MitigationConfig {
        self.mirza_with(mirza_preset(trhd))
    }

    /// MIRZA at design point `cfg` with the safe RCT reset, its FTH
    /// scaled to this lab.
    pub fn mirza_with(&self, cfg: MirzaConfig) -> MitigationConfig {
        MitigationConfig::Mirza {
            cfg: self.scale.mirza_config(cfg),
            policy: ResetPolicy::Safe,
        }
    }
}

/// `key` with every `/` and space turned into `-`, for a run's epoch
/// stream and Chrome trace file names.
fn file_name_part(key: &str) -> String {
    key.chars()
        .map(|c| if c == '/' || c == ' ' { '-' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_identical_reports() {
        let mut lab = Lab::new(Scale::smoke());
        let a = lab.run(MitigationConfig::None, "lbm");
        let b = lab.run(MitigationConfig::None, "lbm");
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.device.acts, b.device.acts);
    }

    #[test]
    fn baseline_slowdown_is_zero() {
        let mut lab = Lab::new(Scale::smoke());
        let s = lab.slowdown(MitigationConfig::None, "lbm");
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn mirza_config_is_scaled() {
        let lab = Lab::new(Scale::smoke());
        match lab.mirza(1000) {
            MitigationConfig::Mirza { cfg, .. } => {
                assert_eq!(cfg.fth, 1500 / 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `safe_trhd` is the maximum unmitigated ACTs plus one, so a row
    /// that reached it broke the guarantee, as the rig's `AnyRow` judges.
    #[test]
    fn a_row_at_the_bound_fails_the_verdict() {
        let lab = Lab::new(Scale::smoke());
        let mitigation = lab.mirza(1000);
        let MitigationConfig::Mirza { cfg: mirza, .. } = mitigation else {
            unreachable!("lab.mirza builds MIRZA")
        };
        let cfg = lab.scale().sim_config(mitigation);
        let bound = u64::from(mirza.safe_trhd());
        let telemetry = Telemetry::enabled();
        for (max_row_acts, holds) in [(bound - 1, true), (bound, false)] {
            telemetry.set_counter(names::AUDIT_MAX_ROW_ACTS, max_row_acts);
            let v = Lab::security_verdict(&cfg, &telemetry);
            assert_eq!(v.get("nbo_bound").unwrap().as_u64(), Some(bound));
            assert_eq!(
                v.get("holds"),
                Some(&Json::Bool(holds)),
                "max_row_acts {max_row_acts}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no Table VII preset")]
    fn unknown_trhd_panics() {
        let lab = Lab::new(Scale::smoke());
        let _ = lab.mirza(750);
    }

    #[test]
    fn manifest_groups_runs_by_experiment_without_duplicating_cache_hits() {
        let mut lab = Lab::new(Scale::smoke());
        lab.enable_manifest();
        lab.begin_experiment("exp-a");
        let _ = lab.run(MitigationConfig::None, "lbm");
        lab.begin_experiment("exp-b");
        let _ = lab.run(MitigationConfig::None, "bc");
        let _ = lab.run(MitigationConfig::None, "lbm"); // cache recall
        let doc = lab.manifest_json().expect("manifest mode is on");
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(0xC0FFEE));
        assert!(doc.get("scale").unwrap().get("shrink").is_some());
        let exps = doc.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("name").unwrap().as_str(), Some("exp-a"));
        let runs_a = exps[0].get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs_a.len(), 1);
        let run = &runs_a[0];
        assert_eq!(run.get("workload").unwrap().as_str(), Some("lbm"));
        assert!(run.get("config").unwrap().get("seed").is_some());
        assert!(run.get("report").unwrap().get("instructions").is_some());
        let hists = run.get("telemetry").unwrap().get("histograms").unwrap();
        assert!(hists.get("mc.read_latency_ns").is_some());
        let runs_b = exps[1].get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs_b.len(), 1, "cache recall must not add a run record");
    }

    /// The core count is part of a cell's key: table9 runs a MIRZA
    /// sensitivity config on 8 `lbm` cores and dos-sim on 7, under one label.
    #[test]
    fn a_smaller_core_mix_is_its_own_cell() {
        let mut lab = Lab::new(Scale::bench());
        lab.enable_manifest();
        let m = lab.mirza_with(MirzaConfig::sensitivity_1000(12));
        assert_eq!(lab.run(m, "lbm").core_ipc.len(), SimConfig::CORES);
        let solo = lab.run_on(m, "lbm", 7, None);
        assert_eq!(solo.core_ipc.len(), 7);
        assert_eq!(solo.workload, "lbm x7");
        let doc = lab.manifest_json().unwrap();
        let runs = doc.get("experiments").unwrap().as_arr().unwrap()[0]
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()
            .len();
        assert_eq!(runs, 2, "the 7-core run is recorded beside the 8-core one");
    }

    #[test]
    fn manifest_off_means_no_document() {
        let lab = Lab::new(Scale::smoke());
        assert!(lab.manifest_json().is_none());
    }

    /// `--csv` holds the header and this lab's rows, whatever the path
    /// held before (here an earlier run's header and row); a cache recall
    /// adds no row.
    #[test]
    fn an_existing_csv_is_replaced() {
        let path = std::env::temp_dir().join(format!("mirza_lab_csv_{}.csv", std::process::id()));
        let old = format!("{}\nbaseline,mcf,1,2,3\n", SimReport::csv_header());
        std::fs::write(&path, old).unwrap();
        let mut lab = Lab::new(Scale::smoke());
        lab.csv_path = Some(path.clone());
        let lbm = lab.run(MitigationConfig::None, "lbm");
        let bc = lab.run(MitigationConfig::None, "bc");
        let _ = lab.run(MitigationConfig::None, "lbm"); // cache recall
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = [
            SimReport::csv_header().to_string(),
            lbm.csv_row(),
            bc.csv_row(),
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected, "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_sections_land_in_the_manifest() {
        let dir = std::env::temp_dir().join(format!("mirza_lab_epochs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut lab = Lab::new(Scale::smoke());
        lab.enable_manifest();
        lab.epoch_ps = Some(1_000_000);
        lab.epoch_dir = dir.clone();
        lab.audit = true;
        lab.begin_experiment("probe");
        let _ = lab.run(MitigationConfig::None, "lbm");
        assert!(lab.audit_failures().is_empty(), "clean run must stay clean");
        let doc = lab.manifest_json().unwrap();
        let run = &doc.get("experiments").unwrap().as_arr().unwrap()[0]
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        let epochs = run.get("epochs").expect("epoch summary section");
        assert!(epochs.get("epochs").unwrap().as_u64().unwrap() > 0);
        assert_eq!(run.get("audit_violations").unwrap().as_u64(), Some(0));
        let stream = dir.join("epochs_baseline-lbm.jsonl");
        let text = std::fs::read_to_string(&stream).expect("epoch JSONL written");
        assert!(text.lines().count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_chrome_writes_one_loadable_file_per_run() {
        let dir = std::env::temp_dir().join(format!("mirza_lab_chrome_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut lab = Lab::new(Scale::bench());
        lab.trace_chrome = Some(dir.join("trace.json"));
        let report = lab.run(MitigationConfig::None, "lbm");
        let a = report.attribution.expect("chrome tracing implies spans");
        assert!(a.conserved);
        let text = std::fs::read_to_string(dir.join("trace_baseline-lbm.json"))
            .expect("per-run chrome trace written");
        let doc = mirza_telemetry::Json::parse(&text).expect("loadable trace-event array");
        assert!(!doc.as_arr().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attribution_lands_inside_the_manifest_report() {
        let mut lab = Lab::new(Scale::bench());
        lab.enable_manifest();
        lab.attribution = true;
        lab.begin_experiment("attribution");
        let _ = lab.run(MitigationConfig::None, "lbm");
        let doc = lab.manifest_json().unwrap();
        let run = &doc.get("experiments").unwrap().as_arr().unwrap()[0]
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        let attribution = run
            .get("report")
            .expect("run record carries the report")
            .get("attribution")
            .expect("report carries the attribution section");
        assert_eq!(
            attribution.get("conserved").unwrap(),
            &mirza_telemetry::Json::Bool(true)
        );
    }
}
