//! Run cache: experiments share simulation runs (the baseline run of each
//! workload backs every slowdown column), so the lab memoizes reports by
//! (mitigation label, workload).
//!
//! With `jobs > 1` the lab also fronts the supervised work-pool
//! (`mirza-runner`): [`Lab::prewarm`] executes a set of (mitigation,
//! workload) cells on worker threads and parks the finished runs in a
//! pending map. The experiment drivers stay serial and call [`Lab::run`]
//! in their natural order; a pending hit replays the parked run through
//! the exact serial bookkeeping sequence (audit warnings, epoch streams,
//! manifest record, CSV append, cache insert), so manifests and CSVs are
//! bit-identical to a `jobs = 1` run in their gated sections regardless of
//! worker completion order. Prewarming a pair no driver ever asks for
//! wastes compute but cannot alter any output.

use std::collections::{HashMap, HashSet};

use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_runner::{scale_wall_budget, Cell, CellFailure, Pool};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::faults::{FaultInjector, FaultPlan};
use mirza_sim::report::SimReport;
use mirza_sim::runner::try_run_workload_with;
use mirza_sim::SimError;
use mirza_telemetry::{
    names, progress, ChromeTraceSink, EpochSampler, Json, SpanCollector, Telemetry,
};

use crate::scale::Scale;

/// Memoizing experiment runner.
pub struct Lab {
    scale: Scale,
    cache: HashMap<String, SimReport>,
    /// Print progress lines while running (on for the CLI, off in tests).
    pub verbose: bool,
    /// Append one CSV row per completed run to this file.
    pub csv_path: Option<std::path::PathBuf>,
    /// Progress heartbeat period in retired instructions (`None` = silent).
    pub heartbeat_every: Option<u64>,
    /// Epoch sampling period in picoseconds (`None` = sampler off). Each
    /// simulated run leaves `epochs_<label>_<workload>.jsonl` in
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
    /// Arm the hot-path opportunity counters (`mc.opp_*`) on every fresh
    /// run; each run record then carries an `opportunity` summary of the
    /// scheduler passes that issued nothing.
    pub opportunity: bool,
    /// Base path for Chrome trace-event JSON. Each fresh run writes
    /// `<stem>_<label>-<workload>.<ext>` next to it (implies spans).
    pub trace_chrome: Option<std::path::PathBuf>,
    /// Where the manifest will be written; a fatal error flushes the
    /// partial document here before exiting.
    pub manifest_path: Option<std::path::PathBuf>,
    /// Worker threads for [`Lab::prewarm`] campaigns (1 = fully serial;
    /// the CLI stamps `--jobs` here). Any value preserves serial output:
    /// see the module docs.
    pub jobs: usize,
    /// Completed parallel runs awaiting their serial-order replay.
    prewarmed: HashMap<String, PrewarmedRun>,
    /// Cells that failed in the pool after supervision. The serial pass
    /// re-attempts each on demand; persistent errors still end in
    /// [`Lab::fatal`] with the underlying error's exit code, and the
    /// manifest carries this list as a top-level `failures` section.
    prewarm_failures: Vec<CellFailure>,
    /// Aggregate pool statistics across prewarm campaigns (manifest
    /// top-level `runner` section; absent when no pool ever ran).
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

/// Everything a worker needs to execute one (mitigation, workload) cell —
/// plain data, shareable across threads.
struct LabCellSpec {
    key: String,
    label: String,
    workload: String,
    cfg: SimConfig,
    manifest_on: bool,
    epoch_ps: Option<u64>,
    opportunity: bool,
    spanning: bool,
    chrome_path: Option<std::path::PathBuf>,
    fault_plan: Option<FaultPlan>,
    verbose: bool,
}

/// A completed run carried from a worker back to the serial replay: the
/// report plus every manifest section precomputed, so the replay touches
/// no telemetry and stays byte-deterministic.
struct PrewarmedRun {
    label: String,
    workload: String,
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
    host_profile: Option<Json>,
    audit_violations: Option<u64>,
    faults: Option<Json>,
    verdict: Option<Json>,
    opportunity: Option<Json>,
}

/// [`Cell`] adapter for the pool.
struct LabCell {
    spec: LabCellSpec,
}

impl Cell for LabCell {
    type Out = PrewarmedRun;

    fn id(&self) -> String {
        self.spec.key.clone()
    }

    fn run(&self) -> Result<PrewarmedRun, SimError> {
        // Partial epoch streams of failed cells are dropped here; the
        // serial retry regenerates (and on a persistent error, flushes)
        // them via `Lab::fatal`.
        Lab::execute_spec(&self.spec).map_err(|(err, _epochs)| err)
    }
}

impl Lab {
    /// Creates a lab at the given scale.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            cache: HashMap::new(),
            verbose: false,
            csv_path: None,
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
            opportunity: false,
            trace_chrome: None,
            jobs: 1,
            prewarmed: HashMap::new(),
            prewarm_failures: Vec::new(),
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
    /// Static (no `&self`) so pool workers can call it for prewarmed runs.
    fn collect_sections(
        opportunity_on: bool,
        cfg: &SimConfig,
        telemetry: &Telemetry,
        injector: Option<&FaultInjector>,
    ) -> RunSections {
        RunSections {
            telemetry: telemetry.to_json().unwrap_or(Json::Null),
            epochs: telemetry.epochs_summary_json(),
            host_profile: telemetry.profile_json(),
            audit_violations: cfg
                .audit
                .then(|| telemetry.counter(names::AUDIT_VIOLATIONS)),
            faults: injector.map(FaultInjector::summary_json),
            verdict: injector
                .is_some()
                .then(|| Self::security_verdict(cfg, telemetry)),
            opportunity: opportunity_on.then(|| Self::opportunity_summary(telemetry)),
        }
    }

    fn record_run(
        &mut self,
        label: &str,
        workload: &str,
        cfg: &SimConfig,
        report: &SimReport,
        sections: RunSections,
    ) {
        let Some(groups) = &mut self.manifest else {
            return;
        };
        if groups.is_empty() {
            groups.push(("ungrouped".to_string(), Vec::new()));
        }
        let mut run = Json::obj();
        run.push("label", label)
            .push("workload", workload)
            .push("config", cfg.to_json())
            .push("report", report.to_json())
            .push("telemetry", sections.telemetry);
        if let Some(e) = sections.epochs {
            run.push("epochs", e);
        }
        if let Some(h) = sections.host_profile {
            run.push("host_profile", h);
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
        if let Some(o) = sections.opportunity {
            run.push("opportunity", o);
        }
        groups
            .last_mut()
            .expect("just ensured non-empty")
            .1
            .push(run);
    }

    /// Compares the auditor's maximum per-row ACT census against the NBO
    /// activation bound of the configured mitigation. The census is a
    /// conservative upper bound (targeted mitigations are not credited),
    /// so `holds == true` means the Rowhammer guarantee survived the
    /// injected faults; `holds == false` flags a run for inspection, not
    /// a proven break. Non-MIRZA mitigations have no NBO bound, so the
    /// verdict degrades to reporting the observed maximum.
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
                    .push("holds", max_row_acts <= bound);
            }
            None => {
                v.push("nbo_bound", Json::Null).push("holds", Json::Null);
            }
        }
        v
    }

    /// Distills the run's opportunity counters into the manifest section
    /// that audits the scheduler: how many passes do no work (quanta that
    /// held no command) and how far ahead the next pending command sat
    /// when a pass went idle.
    pub(crate) fn opportunity_summary(telemetry: &Telemetry) -> Json {
        let passes = telemetry.counter(names::MC_OPP_SCHED_PASSES);
        let idle = telemetry.counter(names::MC_OPP_IDLE_PASSES);
        let mut o = Json::obj();
        o.push("sched_passes", passes)
            .push("idle_passes", idle)
            .push(
                "idle_pass_frac",
                if passes > 0 {
                    idle as f64 / passes as f64
                } else {
                    0.0
                },
            );
        let gap = telemetry
            .with_recorder(|r| {
                r.registry
                    .histogram(names::MC_OPP_SKIP_GAP_NS)
                    .map(mirza_telemetry::Histogram::summary)
            })
            .flatten();
        match gap {
            Some(s) => {
                let mut g = Json::obj();
                g.push("count", s.count)
                    .push("p50", s.p50)
                    .push("p90", s.p90)
                    .push("p99", s.p99)
                    .push("max", s.max);
                o.push("skip_gap_ns", g);
            }
            None => {
                o.push("skip_gap_ns", Json::Null);
            }
        }
        o
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
        if !self.prewarm_failures.is_empty() {
            let failures: Vec<Json> = self
                .prewarm_failures
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

    /// Rotates `path` to `path.old` when its first line is not the current
    /// [`SimReport::csv_header`]: appending rows to a file written by an
    /// older binary would silently shift every column under the stale
    /// header.
    fn rotate_stale_csv(path: &std::path::Path) {
        use std::io::BufRead as _;
        let Ok(f) = std::fs::File::open(path) else {
            return; // absent (or unreadable): the append path handles it
        };
        let mut first = String::new();
        if std::io::BufReader::new(f).read_line(&mut first).is_err() {
            return;
        }
        let first = first.trim_end_matches(['\r', '\n']);
        if first.is_empty() || first == SimReport::csv_header() {
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

    fn append_csv(&self, report: &SimReport) {
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
        // Header iff the file is empty *after* opening: probing `exists()`
        // beforehand writes a second header when the path appears between
        // the probe and the open, and skips it for pre-created empty files.
        let empty = f.metadata().map(|m| m.len() == 0).unwrap_or(false);
        if empty {
            let _ = writeln!(f, "{}", SimReport::csv_header());
        }
        let _ = writeln!(f, "{}", report.csv_row());
    }

    /// The scale in force.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The workloads in scope.
    pub fn workloads(&self) -> Vec<&'static str> {
        self.scale.workloads.clone()
    }

    /// Runs (or recalls) `workload` under `mitigation`. Probe collectors
    /// (epoch sampler, host profiler, protocol auditor) attach only to
    /// fresh simulations — cache recalls return the memoized report, and a
    /// [`Lab::prewarm`]-completed run replays its parked result through
    /// the same serial bookkeeping a fresh run would perform.
    pub fn run(&mut self, mitigation: MitigationConfig, workload: &str) -> SimReport {
        let key = format!("{}/{workload}", mitigation.label());
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        if let Some(p) = self.prewarmed.remove(&key) {
            return self.replay(key, p);
        }
        let spec = self.cell_spec(mitigation, workload, key.clone());
        match Self::execute_spec(&spec) {
            Ok(p) => self.replay(key, p),
            Err((err, epochs_jsonl)) => self.fatal(&key, epochs_jsonl.as_deref(), &err),
        }
    }

    /// Builds the plain-data execution spec for one cell. The wall-clock
    /// watchdog budget scales with the active job count so oversubscribed
    /// hosts don't trip spurious aborts; the simulated-time idle budget is
    /// per-cell and deliberately unscaled.
    fn cell_spec(&self, mitigation: MitigationConfig, workload: &str, key: String) -> LabCellSpec {
        let mut cfg = self.scale.sim_config(mitigation);
        cfg.heartbeat_every = self.heartbeat_every;
        // Fault injection arms the auditor (and its per-row ACT census) so
        // the security verdict has shadow state to compare against.
        cfg.audit = self.audit || self.fault_plan.is_some();
        cfg.track_row_acts = self.fault_plan.is_some();
        cfg.watchdog_wall = self
            .watchdog_wall_secs
            .map(|s| scale_wall_budget(std::time::Duration::from_secs(s), self.jobs));
        LabCellSpec {
            label: mitigation.label(),
            workload: workload.to_string(),
            cfg,
            manifest_on: self.manifest.is_some(),
            epoch_ps: self.epoch_ps,
            opportunity: self.opportunity,
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
    /// serial cells and on pool workers for prewarmed ones (each worker
    /// builds its own `Telemetry`; the handle is single-threaded by
    /// design and never crosses). On error, any partial epoch stream rides
    /// along so the fatal path can still flush it.
    fn execute_spec(spec: &LabCellSpec) -> Result<PrewarmedRun, (SimError, Option<String>)> {
        if spec.verbose {
            progress::line(&format!("  running {} ...", spec.key));
        }
        let probing = spec.epoch_ps.is_some() || spec.cfg.audit;
        let mut telemetry = if spec.manifest_on || probing || spec.spanning || spec.opportunity {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        if spec.opportunity {
            telemetry = telemetry.with_opportunity();
        }
        if let Some(ps) = spec.epoch_ps {
            telemetry = telemetry.with_epochs(EpochSampler::new(ps));
        }
        if spec.manifest_on {
            telemetry = telemetry.with_profiler();
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
                telemetry.flush();
                return Err((err, epochs));
            }
        };
        let violations = if spec.cfg.audit {
            telemetry.counter(names::AUDIT_VIOLATIONS)
        } else {
            0
        };
        let sections =
            Self::collect_sections(spec.opportunity, &spec.cfg, &telemetry, injector.as_ref());
        let epochs_jsonl = telemetry.epochs_jsonl();
        telemetry.flush();
        Ok(PrewarmedRun {
            label: spec.label.clone(),
            workload: spec.workload.clone(),
            cfg: spec.cfg.clone(),
            report,
            sections,
            violations,
            epochs_jsonl,
        })
    }

    /// The serial bookkeeping tail every completed run goes through, in
    /// the exact order the pre-pool serial path used: audit warning,
    /// epoch stream, manifest record, CSV append, cache insert. Pooled
    /// runs pass through here at `Lab::run` time, which is what pins
    /// manifest grouping and CSV row order to the drivers' call order.
    fn replay(&mut self, key: String, p: PrewarmedRun) -> SimReport {
        if p.violations > 0 {
            eprintln!(
                "warning: {key}: {} protocol violation(s) flagged",
                p.violations
            );
            self.audit_failures.push((key.clone(), p.violations));
        }
        if let Some(jsonl) = &p.epochs_jsonl {
            self.write_epoch_jsonl(&key, jsonl);
        }
        let PrewarmedRun {
            label,
            workload,
            cfg,
            report,
            sections,
            ..
        } = p;
        self.record_run(&label, &workload, &cfg, &report, sections);
        self.append_csv(&report);
        self.cache.insert(key, report.clone());
        report
    }

    /// Runs the given (mitigation, workload) cells on the supervised pool
    /// and parks the results for later [`Lab::run`] replay. No-op at
    /// `jobs <= 1` (the serial path stays byte-for-byte untouched) and for
    /// pairs already cached, parked, or duplicated in `pairs`. Cells that
    /// fail after supervision are recorded in the manifest `failures`
    /// section and retried serially when (and if) a driver asks for them.
    pub fn prewarm(&mut self, pairs: &[(MitigationConfig, &'static str)]) {
        if self.jobs <= 1 {
            return;
        }
        let mut seen = HashSet::new();
        let mut cells = Vec::new();
        for &(mitigation, workload) in pairs {
            let key = format!("{}/{workload}", mitigation.label());
            if self.cache.contains_key(&key)
                || self.prewarmed.contains_key(&key)
                || !seen.insert(key.clone())
            {
                continue;
            }
            cells.push(LabCell {
                spec: self.cell_spec(mitigation, workload, key),
            });
        }
        if cells.is_empty() {
            return;
        }
        let outcome = Pool::with_jobs(self.jobs).run(&cells, None);
        self.runner_stats
            .get_or_insert_with(RunnerStats::default)
            .absorb(&outcome);
        for (cell, result) in cells.iter().zip(outcome.results) {
            if let Some(p) = result {
                self.prewarmed.insert(cell.spec.key.clone(), p);
            }
        }
        for f in &outcome.failures {
            eprintln!(
                "warning: cell {} failed after {} attempt(s): {} (will retry serially on demand)",
                f.id, f.attempts, f.error
            );
        }
        self.prewarm_failures.extend(outcome.failures);
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
        let sanitized: String = key
            .chars()
            .map(|c| if c == '/' || c == ' ' { '-' } else { c })
            .collect();
        let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
        let name = format!("{stem}_{sanitized}.{ext}");
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

    fn write_epoch_jsonl(&self, key: &str, jsonl: &str) {
        let name: String = format!("epochs_{key}.jsonl")
            .chars()
            .map(|c| if c == '/' || c == ' ' { '-' } else { c })
            .collect();
        let path = self.epoch_dir.join(name);
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
    pub fn mirza(&self, trhd: u32) -> MitigationConfig {
        let cfg = match trhd {
            500 => MirzaConfig::trhd_500(),
            1000 => MirzaConfig::trhd_1000(),
            2000 => MirzaConfig::trhd_2000(),
            4800 => MirzaConfig::trhd_4800(),
            _ => panic!("no Table VII preset for TRHD {trhd}"),
        };
        MitigationConfig::Mirza {
            cfg: self.scale.mirza_config(cfg),
            policy: ResetPolicy::Safe,
        }
    }

    /// MIRZA sensitivity config (Table IX) for a MINT window, scaled.
    pub fn mirza_sensitivity(&self, mint_w: u32) -> MitigationConfig {
        MitigationConfig::Mirza {
            cfg: self
                .scale
                .mirza_config(MirzaConfig::sensitivity_1000(mint_w)),
            policy: ResetPolicy::Safe,
        }
    }
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
        let host = run.get("host_profile").expect("host profiler section");
        assert!(host.get("total_secs").unwrap().as_f64().unwrap() >= 0.0);
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
