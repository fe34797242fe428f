//! Run cache: experiments share simulation runs (the baseline run of each
//! workload backs every slowdown column), so the lab memoizes reports by
//! (mitigation label, run name).
//!
//! With `jobs > 1` the lab also fronts the supervised work-pool
//! (`mirza-runner`). [`Lab::sweep`] takes a lab driver, any function that
//! asks [`Lab::run`] for reports, and calls it twice. In the planning pass
//! every uncached request is noted, in first-request order, and answered
//! with a zeroed stand-in report. The pool then runs the planned cells,
//! and their results go through the serial bookkeeping (audit warnings,
//! epoch streams, manifest record, CSV append, cache insert) in plan
//! order. In the real pass every request is a cache hit. No driver's
//! requests depend on a report's values, so plan order is the order a
//! serial run makes them in, and manifests and CSVs are bit-identical to
//! a `jobs = 1` run whatever order the workers finish in. Were a driver's
//! requests to depend on them, the cells the plan missed would run
//! serially on demand: the same output, with less parallelism.

use std::collections::HashMap;

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::mitigation::MitigationStats;
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_memctrl::request::McStats;
use mirza_runner::{scale_wall_budget, Cell, CellFailure, Pool};
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

/// Memoizing experiment runner.
pub struct Lab {
    scale: Scale,
    cache: HashMap<String, SimReport>,
    /// Print progress lines while running (on for the CLI, off in tests).
    pub verbose: bool,
    /// Append one CSV row per completed run to this file.
    pub csv_path: Option<std::path::PathBuf>,
    /// Whether this lab has written the CSV header (consulted only when
    /// the CSV path is not a regular file).
    csv_header_sent: bool,
    /// Progress heartbeat period in retired instructions (`None` = silent).
    pub heartbeat_every: Option<u64>,
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
    /// Worker threads for [`Lab::sweep`] (1 = fully serial; the CLI
    /// stamps `--jobs` here). Any value preserves serial output: see the
    /// module docs.
    pub jobs: usize,
    /// The cells a sweep's planning pass has asked for, deduplicated and
    /// in first-request order (`None` outside a planning pass).
    plan: Option<Vec<LabCellSpec>>,
    /// Cells that failed in the pool after supervision. Each is re-run on
    /// the caller thread; persistent errors still end in [`Lab::fatal`]
    /// with the underlying error's exit code, and the manifest carries
    /// this list as a top-level `failures` section.
    pool_failures: Vec<CellFailure>,
    /// Aggregate pool statistics across sweeps (manifest top-level
    /// `runner` section; absent when no pool ever ran).
    runner_stats: Option<RunnerStats>,
}

/// Pool rollup stamped into the manifest (top level, like `provenance`,
/// so neither gate ever diffs it).
#[derive(Debug, Default, Clone)]
struct RunnerStats {
    campaigns: u64,
    cells: u64,
    retries: u64,
    failures: u64,
    wall_secs: f64,
    per_worker: Vec<u64>,
}

impl RunnerStats {
    fn absorb<T>(&mut self, outcome: &mirza_runner::Outcome<T>) {
        self.campaigns += 1;
        self.cells += outcome.results.len() as u64;
        self.retries += outcome.retries;
        self.failures += outcome.failures.len() as u64;
        self.wall_secs += outcome.wall.as_secs_f64();
        if self.per_worker.len() < outcome.per_worker.len() {
            self.per_worker.resize(outcome.per_worker.len(), 0);
        }
        for (slot, cells) in outcome.per_worker.iter().enumerate() {
            self.per_worker[slot] += cells;
        }
    }

    fn to_json(&self, jobs: usize) -> Json {
        let mut doc = Json::obj();
        doc.push("jobs", jobs as u64)
            .push("campaigns", self.campaigns)
            .push("cells", self.cells)
            .push("retries", self.retries)
            .push("failures", self.failures)
            .push("wall_secs", self.wall_secs)
            .push(
                "per_worker",
                Json::Arr(self.per_worker.iter().map(|&c| Json::U64(c)).collect()),
            );
        doc
    }
}

/// Everything a worker needs to execute one (mitigation, workload, core
/// mix) cell — plain data, shareable across threads.
struct LabCellSpec {
    key: String,
    workload: String,
    cfg: SimConfig,
    manifest_on: bool,
    epoch_ps: Option<u64>,
    spanning: bool,
    chrome_path: Option<std::path::PathBuf>,
    fault_plan: Option<FaultPlan>,
    verbose: bool,
}

impl LabCellSpec {
    /// The planning pass's answer to a request: the right label and run
    /// name, one zero IPC per benign core, every counter zero, and an
    /// empty attribution when spans are armed. Never cached or recorded.
    fn stand_in(&self) -> SimReport {
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
            attribution: self.spanning.then_some(AttributionSummary {
                requests: 0,
                total_stall_ps: 0,
                buckets_ps: [0; StallBucket::ALL.len()],
                conserved: true,
            }),
        }
    }
}

impl Cell for LabCellSpec {
    type Out = CompletedRun;

    fn id(&self) -> String {
        self.key.clone()
    }

    fn run(&self) -> Result<CompletedRun, SimError> {
        // Partial epoch streams of failed cells are dropped here; the
        // serial retry regenerates (and on a persistent error, flushes)
        // them via `Lab::fatal`.
        Lab::execute_spec(self).map_err(|(err, _epochs)| err)
    }
}

/// A completed run on its way to [`Lab::record`]: the report plus every
/// manifest section precomputed, so recording touches no telemetry and
/// stays byte-deterministic wherever the run executed.
struct CompletedRun {
    cfg: SimConfig,
    report: SimReport,
    sections: RunSections,
    violations: u64,
    epochs_jsonl: Option<String>,
}

/// The optional per-run manifest sections, gathered while the run's
/// telemetry is still live (worker-side for pooled runs, inline for
/// serial ones).
struct RunSections {
    telemetry: Json,
    epochs: Option<Json>,
    audit_violations: Option<u64>,
    faults: Option<Json>,
    verdict: Option<Json>,
}

impl Lab {
    /// Creates a lab at the given scale.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            cache: HashMap::new(),
            verbose: false,
            csv_path: None,
            csv_header_sent: false,
            heartbeat_every: None,
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
            pool_failures: Vec::new(),
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

    /// Gathers every optional manifest section from a run's live
    /// telemetry. Each is attached only when its collector ran, so
    /// probe-off manifests stay byte-compatible with earlier versions.
    /// Static (no `&self`) so pool workers can call it for pooled runs.
    fn collect_sections(
        cfg: &SimConfig,
        telemetry: &Telemetry,
        injector: Option<&FaultInjector>,
    ) -> RunSections {
        RunSections {
            telemetry: telemetry.to_json().unwrap_or(Json::Null),
            epochs: telemetry.epochs_summary_json(),
            audit_violations: cfg
                .audit
                .then(|| telemetry.counter(names::AUDIT_VIOLATIONS)),
            faults: injector.map(FaultInjector::summary_json),
            verdict: injector
                .is_some()
                .then(|| Self::security_verdict(cfg, telemetry)),
        }
    }

    fn push_manifest_run(&mut self, cfg: &SimConfig, report: &SimReport, sections: RunSections) {
        let Some(groups) = &mut self.manifest else {
            return;
        };
        if groups.is_empty() {
            groups.push(("ungrouped".to_string(), Vec::new()));
        }
        let mut run = Json::obj();
        run.push("label", report.label.as_str())
            .push("workload", report.workload.as_str())
            .push("config", cfg.to_json())
            .push("report", report.to_json())
            .push("telemetry", sections.telemetry);
        if let Some(e) = sections.epochs {
            run.push("epochs", e);
        }
        if let Some(v) = sections.audit_violations {
            run.push("audit_violations", v);
        }
        if let Some(f) = sections.faults {
            run.push("faults", f);
        }
        if let Some(v) = sections.verdict {
            run.push("security_verdict", v);
        }
        groups
            .last_mut()
            .expect("just ensured non-empty")
            .1
            .push(run);
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
        if !self.pool_failures.is_empty() {
            let failures: Vec<Json> = self
                .pool_failures
                .iter()
                .map(|f| {
                    let mut j = Json::obj();
                    j.push("cell", f.id.as_str())
                        .push("attempts", u64::from(f.attempts))
                        .push("error", f.error.to_string());
                    j
                })
                .collect();
            doc.push("failures", Json::Arr(failures));
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

    /// Rotates `path` to `path.old` when it is a regular file whose first
    /// line is not the current [`SimReport::csv_header`]: appending rows to
    /// a file written by an older binary would silently shift every column
    /// under the stale header. Pipes and devices (`/dev/stdout`) are never
    /// read: a read could block on them or never end.
    fn rotate_stale_csv(path: &std::path::Path) {
        use std::io::Read as _;
        if !std::fs::metadata(path).is_ok_and(|m| m.is_file()) {
            return; // absent (the append path creates it) or not a file
        }
        let Ok(f) = std::fs::File::open(path) else {
            return;
        };
        // The header's length plus one byte decides whether the first line
        // is the header.
        let header = SimReport::csv_header();
        let mut head = Vec::with_capacity(header.len() + 1);
        let Ok(_) = f.take(header.len() as u64 + 1).read_to_end(&mut head) else {
            return;
        };
        let first = head.split(|&b| b == b'\n').next().unwrap_or_default();
        let first = first.strip_suffix(b"\r").unwrap_or(first);
        if first.is_empty() || first == header.as_bytes() {
            return;
        }
        let mut old = path.as_os_str().to_os_string();
        old.push(".old");
        match std::fs::rename(path, &old) {
            Ok(()) => eprintln!(
                "warning: {} had a stale CSV header; rotated to {}",
                path.display(),
                std::path::Path::new(&old).display()
            ),
            Err(e) => eprintln!("warning: cannot rotate stale CSV {}: {e}", path.display()),
        }
    }

    fn append_csv(&mut self, report: &SimReport) {
        use std::io::Write as _;
        let Some(path) = &self.csv_path else {
            return;
        };
        Self::rotate_stale_csv(path);
        let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        else {
            eprintln!("warning: cannot open {}", path.display());
            return;
        };
        // A regular file gets the header iff it is empty *after* opening:
        // probing `exists()` beforehand writes a second header when the
        // path appears between the probe and the open, and skips it for
        // pre-created empty files. A pipe or device reads as empty on every
        // open, so it gets the header once per lab.
        let header = match f.metadata() {
            Ok(m) if m.is_file() => m.len() == 0,
            _ => !self.csv_header_sent,
        };
        let text = if header {
            format!("{}\n{}\n", SimReport::csv_header(), report.csv_row())
        } else {
            format!("{}\n", report.csv_row())
        };
        match f.write_all(text.as_bytes()) {
            Ok(()) => self.csv_header_sent |= header,
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
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
    /// recalls return the memoized report. In a sweep's planning pass an
    /// uncached request joins the plan and gets a stand-in report (see
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
        let spec = self.cell_spec(cfg, workload, key);
        let Some(plan) = &mut self.plan else {
            return self.execute(spec);
        };
        let stand_in = spec.stand_in();
        if plan.iter().all(|planned| planned.key != spec.key) {
            plan.push(spec);
        }
        stand_in
    }

    /// Runs a lab driver, any function that asks [`Lab::run`] for reports,
    /// and returns what it returns. At `jobs > 1` a planning pass of the
    /// driver collects its uncached cells, the pool runs them, they are
    /// recorded in plan order, and the driver runs again on a warm cache
    /// (see the module docs). A cell that fails in the pool is listed in
    /// the manifest `failures` section and re-run on the caller thread. At
    /// `jobs <= 1` this just calls `driver`.
    pub fn sweep<T>(&mut self, mut driver: impl FnMut(&mut Lab) -> T) -> T {
        if self.jobs <= 1 {
            return driver(self);
        }
        self.plan = Some(Vec::new());
        driver(self);
        let cells = self.plan.take().unwrap_or_default();
        if !cells.is_empty() {
            let outcome = Pool::with_jobs(self.jobs).run(&cells, None);
            self.runner_stats
                .get_or_insert_with(RunnerStats::default)
                .absorb(&outcome);
            for f in &outcome.failures {
                eprintln!(
                    "warning: cell {} failed after {} attempt(s): {} (retrying serially)",
                    f.id, f.attempts, f.error
                );
            }
            self.pool_failures.extend(outcome.failures);
            for (spec, result) in cells.into_iter().zip(outcome.results) {
                match result {
                    Some(run) => self.record(spec.key, run),
                    None => self.execute(spec),
                };
            }
        }
        driver(self)
    }

    /// Builds the plain-data execution spec for one cell. The wall-clock
    /// watchdog budget scales with the active job count so oversubscribed
    /// hosts don't trip spurious aborts; the simulated-time idle budget is
    /// per-cell and deliberately unscaled.
    fn cell_spec(&self, mut cfg: SimConfig, workload: &str, key: String) -> LabCellSpec {
        cfg.heartbeat_every = self.heartbeat_every;
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
            manifest_on: self.manifest.is_some(),
            epoch_ps: self.epoch_ps,
            spanning: self.attribution || self.trace_chrome.is_some(),
            chrome_path: self.chrome_path(&key),
            fault_plan: self.fault_plan.clone(),
            verbose: self.verbose,
            key,
        }
    }

    /// Executes one cell: telemetry session, optional fault injector, the
    /// simulation itself, and the section gathering — everything that
    /// needs the run's live telemetry. Runs on the caller thread for
    /// serial cells and on pool workers for pooled ones (each worker
    /// builds its own `Telemetry`; the handle is single-threaded by
    /// design and never crosses). On error, any partial epoch stream rides
    /// along so the fatal path can still flush it.
    fn execute_spec(spec: &LabCellSpec) -> Result<CompletedRun, (SimError, Option<String>)> {
        if spec.verbose {
            progress::line(&format!("  running {} ...", spec.key));
        }
        let probing = spec.epoch_ps.is_some() || spec.cfg.audit;
        let mut telemetry = if spec.manifest_on || probing || spec.spanning {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        if let Some(ps) = spec.epoch_ps {
            telemetry = telemetry.with_epochs(EpochSampler::new(ps));
        }
        if spec.spanning {
            let mut spans = SpanCollector::new();
            if let Some(sink) = Self::open_chrome(spec.chrome_path.as_deref(), spec.verbose) {
                spans = spans.with_chrome(sink);
            }
            telemetry = telemetry.with_spans(spans);
        }
        let injector = spec
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
                let epochs = telemetry.epochs_jsonl();
                Self::flush_chrome(spec, &telemetry);
                return Err((err, epochs));
            }
        };
        let violations = if spec.cfg.audit {
            telemetry.counter(names::AUDIT_VIOLATIONS)
        } else {
            0
        };
        let sections = Self::collect_sections(&spec.cfg, &telemetry, injector.as_ref());
        let epochs_jsonl = telemetry.epochs_jsonl();
        Self::flush_chrome(spec, &telemetry);
        Ok(CompletedRun {
            cfg: spec.cfg.clone(),
            report,
            sections,
            violations,
            epochs_jsonl,
        })
    }

    /// Executes one cell on the caller thread and records it; an error
    /// ends the process through [`Lab::fatal`].
    fn execute(&mut self, spec: LabCellSpec) -> SimReport {
        match Self::execute_spec(&spec) {
            Ok(run) => self.record(spec.key, run),
            Err((err, epochs_jsonl)) => self.fatal(&spec.key, epochs_jsonl.as_deref(), &err),
        }
    }

    /// The serial bookkeeping every completed run goes through, in this
    /// order: audit warning, epoch stream, manifest record, CSV append,
    /// cache insert. Pooled runs pass through here in plan order, which
    /// pins manifest grouping and CSV row order to the driver's call
    /// order.
    fn record(&mut self, key: String, run: CompletedRun) -> SimReport {
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
        self.push_manifest_run(&run.cfg, &run.report, run.sections);
        self.append_csv(&run.report);
        self.cache.insert(key, run.report.clone());
        run.report
    }

    /// Terminal error path: flush what the run produced (epoch stream,
    /// partial manifest) so a crashed sweep still leaves evidence on disk,
    /// then exit with the error's dedicated code. Never returns. Sinks
    /// were already flushed inside [`Lab::execute_spec`] before the error
    /// propagated here; only the lab-level artifacts remain.
    fn fatal(&self, key: &str, epochs_jsonl: Option<&str>, err: &SimError) -> ! {
        eprintln!("error: {err}");
        if let Some(jsonl) = epochs_jsonl {
            self.write_epoch_jsonl(key, jsonl);
        }
        if let Some(path) = &self.manifest_path {
            if self.manifest.is_some() {
                match self.write_manifest(path) {
                    Ok(()) => eprintln!("wrote partial manifest to {}", path.display()),
                    Err(e) => eprintln!("warning: cannot write partial manifest: {e}"),
                }
            }
        }
        std::process::exit(i32::from(err.exit_code()));
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

    /// Opens a Chrome trace sink at `path` (worker-safe: no `&self`).
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

    #[test]
    fn stale_csv_header_rotates_old_file_aside() {
        let path = std::env::temp_dir().join(format!("mirza_lab_stale_{}.csv", std::process::id()));
        let old = std::path::PathBuf::from(format!("{}.old", path.display()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&old);
        std::fs::write(&path, "ancient,header,layout\n1,2,3\n").unwrap();
        let mut lab = Lab::new(Scale::smoke());
        lab.csv_path = Some(path.clone());
        let _ = lab.run(MitigationConfig::None, "lbm");
        let rotated = std::fs::read_to_string(&old).expect("stale file rotated to .old");
        assert!(rotated.starts_with("ancient,header,layout"));
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fresh.lines().next(), Some(SimReport::csv_header()));
        assert_eq!(fresh.lines().count(), 2, "header + one data row");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&old);
    }

    #[test]
    fn matching_csv_header_is_not_rotated() {
        let path = std::env::temp_dir().join(format!("mirza_lab_keep_{}.csv", std::process::id()));
        let old = std::path::PathBuf::from(format!("{}.old", path.display()));
        let _ = std::fs::remove_file(&old);
        let mut lab = Lab::new(Scale::smoke());
        lab.csv_path = Some(path.clone());
        let _ = lab.run(MitigationConfig::None, "lbm");
        let _ = lab.run(MitigationConfig::None, "bc");
        assert!(
            !old.exists(),
            "current-header file must be appended, not rotated"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two data rows");
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

    #[test]
    fn csv_header_written_once_even_into_a_precreated_empty_file() {
        let path = std::env::temp_dir().join(format!("mirza_lab_csv_{}.csv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Pre-created empty file, as a shell redirect would leave behind:
        // the old `!path.exists()` probe never wrote the header here.
        std::fs::write(&path, "").unwrap();
        let mut lab = Lab::new(Scale::smoke());
        lab.csv_path = Some(path.clone());
        let _ = lab.run(MitigationConfig::None, "lbm");
        let _ = lab.run(MitigationConfig::None, "bc");
        let text = std::fs::read_to_string(&path).unwrap();
        let headers = text
            .lines()
            .filter(|l| *l == SimReport::csv_header())
            .count();
        assert_eq!(headers, 1, "exactly one header:\n{text}");
        assert_eq!(text.lines().count(), 3, "header + two data rows");
        let _ = std::fs::remove_file(&path);
    }
}
