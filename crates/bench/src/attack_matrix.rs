//! Attack-matrix sweep: strategy x schedule x mitigator, Monte-Carlo over
//! seeds (`repro attack-matrix`).
//!
//! Each cell of the matrix composes one [`AddressStrategy`], one
//! [`Schedule`] and one mitigator, runs `trials` seeded trials of the
//! [`mirza_attacks::rig`], and reports the success probability — the
//! fraction of trials in which the victim model's worst row met the
//! mitigation's NBO bound — plus the worst per-row ACT burden observed.
//! The swept schedule axis includes two pacings of the inter-ACT gap, so
//! the matrix doubles as a one-parameter sweep (burst, paced-1, paced-4
//! are gap = 0, 1, 4).
//!
//! Determinism: a cell's trials derive their seeds from the cell seed
//! alone, every strategy draws randomness only from those seeds, and the
//! rig is RNG-free — so a re-run with the same master seed produces a
//! bit-identical CSV (there is an integration test pinning this).
//!
//! Supervision: [`run_matrix_supervised`] executes the cells on the
//! `mirza-runner` work-pool (any `--jobs`), checkpoints each completed
//! cell into a fsync'd journal, and merges results back into canonical
//! enumeration order — so the CSV, JSON, and `attack_cell` event stream
//! are bit-identical to a serial run, and a `kill -9` mid-campaign loses
//! at most the in-flight cells (`--resume` replays the rest).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use mirza_attacks::rig::run_attack;
use mirza_attacks::schedule::{AlertAdaptive, Burst, Paced, Schedule};
use mirza_attacks::strategy::{
    AddressStrategy, DecoyFlood, Feinting, PatternStrategy, RefreshSyncStrategy,
};
use mirza_attacks::victim::{AnyRow, TargetRows, Victim};
use mirza_core::config::MirzaConfig;
use mirza_core::rct::ResetPolicy;
use mirza_dram::address::{RegionMap, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::Mitigator;
use mirza_dram::timing::TimingParams;
use mirza_runner::{cell_hash, Cell, CellFailure, Journal, Pool};
use mirza_sim::config::MitigationConfig;
use mirza_sim::SimError;
use mirza_telemetry::{names, Json, Telemetry};

use crate::scale::Scale;

/// Fixed CSV header; root `tests/attack_matrix_golden.rs` fails on any
/// drift.
pub const CSV_HEADER: &str =
    "strategy,schedule,mitigator,seed,trials,successes,success_prob,max_row_acts,bound,total_acts,alerts";

/// Strategy roster entries: constructors deferred so each trial gets a
/// fresh instance built from its own derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Classic double-sided pair around a mid-bank victim.
    DoubleSided,
    /// TRRespass-style many-sided pattern.
    ManySided,
    /// Blacksmith-style non-uniform pattern (uses the trial seed).
    Blacksmith,
    /// CGF-evading same-region kernel.
    SameRegion,
    /// Feinting attack on the mitigation queue.
    Feint,
    /// Decoy flood that breaks sampling trackers.
    DecoyFlood,
    /// Refresh-pointer chasing attack.
    RefreshSync,
}

impl StrategyKind {
    /// Every implemented strategy.
    pub fn all() -> Vec<StrategyKind> {
        vec![
            StrategyKind::DoubleSided,
            StrategyKind::ManySided,
            StrategyKind::Blacksmith,
            StrategyKind::SameRegion,
            StrategyKind::Feint,
            StrategyKind::DecoyFlood,
            StrategyKind::RefreshSync,
        ]
    }

    /// Builds the strategy for one trial. Parameters derive from the
    /// geometry so every scale hosts the pattern.
    pub fn build(
        &self,
        mapping: &RowMapping,
        regions: &RegionMap,
        trial_seed: u64,
    ) -> Box<dyn AddressStrategy> {
        let rps = mapping.rows_per_subarray();
        // A mid-bank, mid-subarray victim: away from subarray edges at
        // every supported shrink.
        let victim = mapping.rows_per_bank() / 2 + rps / 2;
        match self {
            StrategyKind::DoubleSided => Box::new(PatternStrategy::double_sided(mapping, victim)),
            StrategyKind::ManySided => {
                let pairs = (rps / 8).max(1);
                Box::new(PatternStrategy::many_sided(mapping, 3, pairs))
            }
            StrategyKind::Blacksmith => {
                let k = (rps / 4).max(2);
                Box::new(PatternStrategy::blacksmith(mapping, 5, k, trial_seed))
            }
            StrategyKind::SameRegion => {
                let k = (regions.rows_per_region() / 4).max(2);
                Box::new(PatternStrategy::same_region(mapping, regions, 3, k))
            }
            StrategyKind::Feint => {
                let feints = (regions.rows_per_region() - 4).clamp(1, 4);
                Box::new(Feinting::new(mapping, regions, 3, feints, 6))
            }
            StrategyKind::DecoyFlood => {
                let decoys = (mapping.rows_per_bank() / 128).clamp(8, 56);
                Box::new(DecoyFlood::new(mapping, victim, decoys, 2))
            }
            StrategyKind::RefreshSync => Box::new(RefreshSyncStrategy::new(*mapping)),
        }
    }
}

/// Schedule roster entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Hammer every slot.
    Burst,
    /// Hammer once every `gap + 1` slots (the swept parameter).
    Paced(u32),
    /// Back off while ALERT is asserted plus a cooldown.
    Adaptive(u64),
}

impl ScheduleKind {
    /// The default swept roster: flat-out, two pacings, ALERT-adaptive.
    pub fn roster() -> Vec<ScheduleKind> {
        vec![
            ScheduleKind::Burst,
            ScheduleKind::Paced(1),
            ScheduleKind::Paced(4),
            ScheduleKind::Adaptive(64),
        ]
    }

    /// Builds the schedule for one trial.
    pub fn build(&self) -> Box<dyn Schedule> {
        match self {
            ScheduleKind::Burst => Box::new(Burst),
            ScheduleKind::Paced(gap) => Box::new(Paced::new(*gap)),
            ScheduleKind::Adaptive(cooldown) => Box::new(AlertAdaptive::new(*cooldown)),
        }
    }
}

/// Mitigator roster entries, with the NBO bound each is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigatorKind {
    /// MIRZA at the Table VII TRHD=1000 design point (FTH scaled).
    Mirza1000,
    /// PRAC + MOAT provisioned for the scaled TRHD.
    PracMoat,
    /// Mithril with a 2K-entry (scaled) table.
    Mithril,
    /// DDR4-era sampling TRR (known-broken baseline).
    Trr,
}

impl MitigatorKind {
    /// Every implemented mitigator.
    pub fn all() -> Vec<MitigatorKind> {
        vec![
            MitigatorKind::Mirza1000,
            MitigatorKind::PracMoat,
            MitigatorKind::Mithril,
            MitigatorKind::Trr,
        ]
    }

    /// Stable CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            MitigatorKind::Mirza1000 => "mirza-1000",
            MitigatorKind::PracMoat => "prac-moat",
            MitigatorKind::Mithril => "mithril-2k",
            MitigatorKind::Trr => "trr",
        }
    }

    /// Builds the mitigator for one trial, through the [`MitigationConfig`]
    /// a simulated system would install, and returns it with the bound its
    /// guarantee promises at this scale. Tracker design thresholds divide
    /// by `shrink` like every other per-window quantity.
    pub fn build(
        &self,
        scale: &Scale,
        geom: &Geometry,
        trial_seed: u64,
    ) -> (Box<dyn Mitigator>, u32) {
        let scaled_trh = ((4_800 / scale.shrink) as u32).max(16);
        let (config, bound) = match self {
            MitigatorKind::Mirza1000 => {
                let cfg = scale.mirza_config(MirzaConfig::trhd_1000());
                let policy = ResetPolicy::Safe;
                (MitigationConfig::Mirza { cfg, policy }, cfg.safe_trhd())
            }
            MitigatorKind::PracMoat => {
                let trhd = ((1_000 / scale.shrink) as u32).max(16);
                (MitigationConfig::PracAbo { trhd }, trhd)
            }
            MitigatorKind::Mithril => (scale.mithril(), scaled_trh),
            MitigatorKind::Trr => (MitigationConfig::Trr, scaled_trh),
        };
        (config.build(geom, trial_seed), bound)
    }
}

/// One matrix sweep specification.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Evaluation scale (geometry shrink and master seed).
    pub scale: Scale,
    /// Strategy axis.
    pub strategies: Vec<StrategyKind>,
    /// Schedule axis.
    pub schedules: Vec<ScheduleKind>,
    /// Mitigator axis.
    pub mitigators: Vec<MitigatorKind>,
    /// Monte-Carlo cell seeds (derived from the master seed).
    pub seeds: Vec<u64>,
    /// Trials per cell.
    pub trials: u32,
    /// Full refresh-pointer walks per trial.
    pub walks: u64,
}

impl MatrixSpec {
    /// The standard roster at `scale`: full strategy/schedule/mitigator
    /// axes, two seeds, three trials per cell, two walks per trial.
    pub fn for_scale(scale: Scale) -> Self {
        let seeds = vec![scale.seed, scale.seed.wrapping_add(1)];
        MatrixSpec {
            scale,
            strategies: StrategyKind::all(),
            schedules: ScheduleKind::roster(),
            mitigators: MitigatorKind::all(),
            seeds,
            trials: 3,
            walks: 2,
        }
    }

    /// Number of matrix cells (rows of the CSV).
    pub fn cells(&self) -> usize {
        self.strategies.len() * self.schedules.len() * self.mitigators.len() * self.seeds.len()
    }
}

/// One evaluated matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Strategy label (from the built strategy, so it carries parameters).
    pub strategy: String,
    /// Schedule label.
    pub schedule: String,
    /// Mitigator label.
    pub mitigator: &'static str,
    /// Cell seed.
    pub seed: u64,
    /// Trials run.
    pub trials: u32,
    /// Trials whose victim reached the bound.
    pub successes: u32,
    /// Worst per-row unmitigated ACT burden across trials.
    pub max_row_acts: u32,
    /// The bound the cell was judged against.
    pub bound: u32,
    /// Attacker ACTs summed over trials.
    pub total_acts: u64,
    /// ALERT back-offs summed over trials.
    pub alerts: u64,
}

impl MatrixCell {
    /// Success probability over the cell's trials.
    pub fn success_prob(&self) -> f64 {
        f64::from(self.successes) / f64::from(self.trials.max(1))
    }

    /// Serializes the cell (manifest `cells` entries and journal records).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("strategy", self.strategy.as_str())
            .push("schedule", self.schedule.as_str())
            .push("mitigator", self.mitigator)
            .push("seed", self.seed)
            .push("trials", self.trials)
            .push("successes", self.successes)
            .push("success_prob", self.success_prob())
            .push("max_row_acts", self.max_row_acts)
            .push("bound", self.bound)
            .push("total_acts", self.total_acts)
            .push("alerts", self.alerts);
        j
    }

    /// Parses a [`MatrixCell::to_json`] document back (journal replay).
    /// `None` on any missing field or an unknown mitigator label — a
    /// record the current roster cannot own is corruption, not data.
    pub fn from_json(doc: &Json) -> Option<MatrixCell> {
        let label = doc.get("mitigator")?.as_str()?;
        let mitigator = MitigatorKind::all()
            .into_iter()
            .map(|m| m.label())
            .find(|l| *l == label)?;
        Some(MatrixCell {
            strategy: doc.get("strategy")?.as_str()?.to_string(),
            schedule: doc.get("schedule")?.as_str()?.to_string(),
            mitigator,
            seed: doc.get("seed")?.as_u64()?,
            trials: u32::try_from(doc.get("trials")?.as_u64()?).ok()?,
            successes: u32::try_from(doc.get("successes")?.as_u64()?).ok()?,
            max_row_acts: u32::try_from(doc.get("max_row_acts")?.as_u64()?).ok()?,
            bound: u32::try_from(doc.get("bound")?.as_u64()?).ok()?,
            total_acts: doc.get("total_acts")?.as_u64()?,
            alerts: doc.get("alerts")?.as_u64()?,
        })
    }
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Every cell, in deterministic roster order.
    pub cells: Vec<MatrixCell>,
    /// The spec that produced it.
    pub spec: MatrixSpec,
}

/// Supervision policy for a matrix campaign: worker count plus optional
/// checkpoint journal. The default (`jobs <= 1`, no journal) reproduces
/// the historical serial sweep exactly.
#[derive(Debug, Clone, Default)]
pub struct MatrixRunConfig {
    /// Pool workers (`0` or `1` = serial on the caller thread).
    pub jobs: usize,
    /// Checkpoint journal path (`results/<run>.journal.jsonl`); every
    /// completed cell is fsync'd here as it lands.
    pub journal: Option<PathBuf>,
    /// Replay completed cells from an existing journal of the same
    /// campaign and schedule only the remainder.
    pub resume: bool,
}

/// A supervised sweep: the (possibly partial) result in canonical order,
/// plus whatever failed after retry and how many cells the journal
/// replayed.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Completed cells, canonical enumeration order.
    pub result: MatrixResult,
    /// Cells that failed after the pool's bounded retry, enumeration
    /// order. Non-empty means `result` is partial (degraded campaign).
    pub failures: Vec<CellFailure>,
    /// Cells replayed from the journal instead of re-run.
    pub resumed: usize,
}

impl MatrixOutcome {
    /// True when every cell of the spec completed.
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Stable cell identity — the journal key (via [`cell_hash`]) and the
/// failure label. Derived purely from the cell's coordinates.
fn matrix_cell_id(
    strat: StrategyKind,
    sched: ScheduleKind,
    mit: MitigatorKind,
    seed: u64,
) -> String {
    format!("{strat:?}/{sched:?}/{}/{seed}", mit.label())
}

/// Campaign identity string: every input that shapes a cell's result.
/// Hashing it binds a journal to one exact sweep, so `--resume` can never
/// graft records from a different scale, roster, or seed set.
fn campaign_id(spec: &MatrixSpec) -> String {
    format!(
        "attack-matrix/v1/shrink={}/seed={}/trials={}/walks={}/strategies={:?}/schedules={:?}/mitigators={:?}/seeds={:?}",
        spec.scale.shrink,
        spec.scale.seed,
        spec.trials,
        spec.walks,
        spec.strategies,
        spec.schedules,
        spec.mitigators,
        spec.seeds,
    )
}

/// One matrix cell as a pool task: plain data, pure compute.
struct MatrixTask<'a> {
    spec: &'a MatrixSpec,
    geom: &'a Geometry,
    timing: &'a TimingParams,
    regions_per_bank: u32,
    refs: u64,
    strat: StrategyKind,
    sched: ScheduleKind,
    mit: MitigatorKind,
    seed: u64,
}

impl Cell for MatrixTask<'_> {
    type Out = MatrixCell;

    fn id(&self) -> String {
        matrix_cell_id(self.strat, self.sched, self.mit, self.seed)
    }

    /// Runs the cell's seeded trials and pools them into one row.
    fn run(&self) -> Result<MatrixCell, SimError> {
        let geom = self.geom;
        let regions = RegionMap::new(geom.rows_per_bank, self.regions_per_bank);
        let mut cell = MatrixCell {
            strategy: String::new(),
            schedule: String::new(),
            mitigator: self.mit.label(),
            seed: self.seed,
            trials: self.spec.trials,
            successes: 0,
            max_row_acts: 0,
            bound: 0,
            total_acts: 0,
            alerts: 0,
        };
        for trial in 0..self.spec.trials {
            let trial_seed = self.seed.wrapping_mul(1_000).wrapping_add(u64::from(trial));
            let (mut mitigator, bound) = self.mit.build(&self.spec.scale, geom, trial_seed);
            // Strategies address rows through the mitigator's own mapping
            // when it exposes one (MIRZA randomizes R2SA), else the plain
            // geometry.
            let mapping = mitigator
                .mapping()
                .copied()
                .unwrap_or_else(|| RowMapping::for_geometry(Default::default(), geom));
            let mut strategy = self.strat.build(&mapping, &regions, trial_seed);
            let mut schedule = self.sched.build();
            cell.strategy = strategy.label();
            cell.schedule = schedule.label();
            let targets = strategy.target_rows();
            let victim: Box<dyn Victim> = if targets.is_empty() {
                Box::new(AnyRow)
            } else {
                Box::new(TargetRows::new(targets))
            };
            let report = run_attack(
                mitigator.as_mut(),
                geom,
                self.timing,
                0,
                strategy.as_mut(),
                schedule.as_mut(),
                victim.as_ref(),
                bound,
                self.refs,
            );
            cell.bound = report.bound;
            cell.successes += u32::from(report.success);
            cell.max_row_acts = cell.max_row_acts.max(report.max_row_acts);
            cell.total_acts += report.outcome.total_acts;
            cell.alerts += report.outcome.alerts;
        }
        Ok(cell)
    }
}

/// Runs the full matrix serially. Emits one `attack_cell` event per cell
/// through `telemetry` (greppable from the JSONL event stream).
pub fn run_matrix(spec: &MatrixSpec, telemetry: &Telemetry) -> MatrixResult {
    run_matrix_supervised(spec, telemetry, &MatrixRunConfig::default()).result
}

/// Runs the matrix on the supervised work-pool. Completion order is up to
/// the scheduler; the reduction is not: results (pooled or journal-
/// replayed) merge by cell id into canonical enumeration order, and the
/// `attack_cell` events are emitted at reduction time in that same order —
/// so CSV, JSON, and event stream are bit-identical to a serial run. On a
/// fully-successful campaign the journal is deleted; a degraded or killed
/// one leaves it behind for `--resume`.
pub fn run_matrix_supervised(
    spec: &MatrixSpec,
    telemetry: &Telemetry,
    cfg: &MatrixRunConfig,
) -> MatrixOutcome {
    let geom = spec.scale.geometry();
    let timing = TimingParams::ddr5_6000();
    let refs = spec.walks * u64::from(geom.refs_per_full_walk());
    let regions_per_bank = MirzaConfig::trhd_1000().regions_per_bank;
    let mut tasks = Vec::with_capacity(spec.cells());
    for strat in &spec.strategies {
        for sched in &spec.schedules {
            for mit in &spec.mitigators {
                for &seed in &spec.seeds {
                    tasks.push(MatrixTask {
                        spec,
                        geom: &geom,
                        timing: &timing,
                        regions_per_bank,
                        refs,
                        strat: *strat,
                        sched: *sched,
                        mit: *mit,
                        seed,
                    });
                }
            }
        }
    }

    let campaign = cell_hash(&campaign_id(spec));
    let mut completed: Vec<Option<MatrixCell>> = vec![None; tasks.len()];
    let mut resumed = 0usize;
    let journal = match &cfg.journal {
        Some(path) => match Journal::open(path, campaign, cfg.resume) {
            Ok((journal, records)) => {
                if !records.is_empty() {
                    let index_of: HashMap<String, usize> =
                        tasks.iter().enumerate().map(|(i, t)| (t.id(), i)).collect();
                    for record in &records {
                        if let (Some(&i), Some(cell)) = (
                            index_of.get(&record.id),
                            MatrixCell::from_json(&record.result),
                        ) {
                            if completed[i].is_none() {
                                resumed += 1;
                            }
                            completed[i] = Some(cell);
                        }
                    }
                }
                Some(journal)
            }
            Err(e) => {
                eprintln!(
                    "warning: cannot open journal {}: {e} (running without checkpoints)",
                    path.display()
                );
                None
            }
        },
        None => None,
    };

    let pending_indices: Vec<usize> = (0..tasks.len())
        .filter(|&i| completed[i].is_none())
        .collect();
    let pending: Vec<&MatrixTask> = pending_indices.iter().map(|&i| &tasks[i]).collect();
    let checkpoint = |_: usize, id: &str, cell: &MatrixCell| {
        if let Some(j) = &journal {
            if let Err(e) = j.append(id, &cell.to_json()) {
                eprintln!("warning: journal append failed for {id}: {e}");
            }
        }
    };
    let outcome = Pool::with_jobs(cfg.jobs.max(1)).run(&pending, Some(&checkpoint));
    outcome.record(telemetry, resumed as u64);
    let mut failures = Vec::new();
    for f in outcome.failures {
        failures.push(CellFailure {
            index: pending_indices[f.index],
            ..f
        });
    }
    for (slot, result) in pending_indices.iter().zip(outcome.results) {
        completed[*slot] = result;
    }

    // Deterministic reduction: canonical enumeration order, events at
    // reduction time (bit-identical to the historical serial stream).
    let mut cells = Vec::with_capacity(tasks.len());
    for cell in completed.into_iter().flatten() {
        telemetry.event(
            0,
            names::EV_ATTACK_CELL,
            &[
                ("strategy", Json::from(cell.strategy.as_str())),
                ("schedule", Json::from(cell.schedule.as_str())),
                ("mitigator", Json::from(cell.mitigator)),
                ("seed", Json::from(cell.seed)),
                ("trials", Json::from(cell.trials)),
                ("successes", Json::from(cell.successes)),
                ("success", Json::from(cell.successes > 0)),
                ("max_row_acts", Json::from(cell.max_row_acts)),
                ("bound", Json::from(cell.bound)),
            ],
        );
        cells.push(cell);
    }
    if let Some(journal) = journal {
        if failures.is_empty() {
            if let Err(e) = journal.finalize() {
                eprintln!("warning: cannot remove finished journal: {e}");
            }
        }
        // Degraded: the journal stays on disk; `--resume` replays its
        // completed cells and retries only the failures.
    }
    MatrixOutcome {
        result: MatrixResult {
            cells,
            spec: spec.clone(),
        },
        failures,
        resumed,
    }
}

impl MatrixResult {
    /// Serializes the matrix as CSV with the pinned [`CSV_HEADER`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.4},{},{},{},{}",
                c.strategy,
                c.schedule,
                c.mitigator,
                c.seed,
                c.trials,
                c.successes,
                c.success_prob(),
                c.max_row_acts,
                c.bound,
                c.total_acts,
                c.alerts
            );
        }
        out
    }

    /// Human-readable summary: per (strategy, mitigator), the schedules
    /// that succeeded, worst burden vs bound.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "Attack matrix: {} cells ({} strategies x {} schedules x {} mitigators x {} seeds, {} trials each)\n\
             strategy             schedule      mitigator    p(success)  max row ACTs  bound\n",
            self.cells.len(),
            self.spec.strategies.len(),
            self.spec.schedules.len(),
            self.spec.mitigators.len(),
            self.spec.seeds.len(),
            self.spec.trials,
        );
        // One line per (strategy, schedule, mitigator): pool the seeds. A
        // degraded result lacks its failed cells, so group by coordinates.
        let same = |a: &MatrixCell, b: &MatrixCell| {
            (&a.strategy, &a.schedule, a.mitigator) == (&b.strategy, &b.schedule, b.mitigator)
        };
        for group in self.cells.chunk_by(same) {
            let first = &group[0];
            let trials: u32 = group.iter().map(|c| c.trials).sum();
            let successes: u32 = group.iter().map(|c| c.successes).sum();
            let max: u32 = group.iter().map(|c| c.max_row_acts).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<20} {:<13} {:<12} {:>9.2}   {:>12}  {:>5}",
                first.strategy,
                first.schedule,
                first.mitigator,
                f64::from(successes) / f64::from(trials.max(1)),
                max,
                first.bound,
            );
        }
        let broken: Vec<&MatrixCell> = self.cells.iter().filter(|c| c.successes > 0).collect();
        let _ = writeln!(
            out,
            "\n{} of {} cells compromised their mitigator",
            broken.len(),
            self.cells.len()
        );
        out
    }

    /// JSON summary for run manifests.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        let cells: Vec<Json> = self.cells.iter().map(MatrixCell::to_json).collect();
        doc.push("scale", self.spec.scale.to_json())
            .push("cells", cells);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        let mut spec = MatrixSpec::for_scale(Scale::smoke());
        spec.strategies = vec![StrategyKind::DoubleSided, StrategyKind::DecoyFlood];
        spec.schedules = vec![ScheduleKind::Burst, ScheduleKind::Paced(4)];
        spec.mitigators = vec![MitigatorKind::Mirza1000, MitigatorKind::Trr];
        spec.seeds = vec![1];
        spec.trials = 1;
        spec.walks = 1;
        spec
    }

    #[test]
    fn matrix_covers_the_roster() {
        let spec = tiny_spec();
        let r = run_matrix(&spec, &Telemetry::disabled());
        assert_eq!(r.cells.len(), spec.cells());
        let csv = r.to_csv();
        assert!(csv.starts_with(CSV_HEADER));
        assert_eq!(csv.lines().count(), 1 + spec.cells());
    }

    #[test]
    fn mirza_holds_where_trr_breaks() {
        let spec = tiny_spec();
        let r = run_matrix(&spec, &Telemetry::disabled());
        let cell = |strategy: &str, mitigator: &str, schedule: &str| {
            r.cells
                .iter()
                .find(|c| {
                    c.strategy.starts_with(strategy)
                        && c.mitigator == mitigator
                        && c.schedule == schedule
                })
                .unwrap()
        };
        assert_eq!(cell("double-sided", "mirza-1000", "burst").successes, 0);
        assert!(
            cell("decoy", "trr", "burst").successes > 0,
            "decoy flood must break sampling TRR: {:?}",
            cell("decoy", "trr", "burst")
        );
    }

    /// A degraded campaign's result lacks its failed cells, so the summary
    /// must pool cells by their coordinates, not by position.
    #[test]
    fn degraded_summary_keeps_mitigators_apart() {
        let mut spec = tiny_spec();
        spec.strategies = vec![StrategyKind::DoubleSided];
        spec.schedules = vec![ScheduleKind::Burst];
        spec.seeds = vec![1, 2];
        let complete = run_matrix(&spec, &Telemetry::disabled());
        let mut degraded = complete.clone();
        degraded.cells.remove(1); // MIRZA's seed-2 cell failed
        let alone = MatrixResult {
            cells: vec![complete.cells[0].clone()],
            spec,
        };
        let line = |r: &MatrixResult, mitigator: &str| {
            let summary = r.summary();
            summary
                .lines()
                .find(|l| l.contains(mitigator))
                .map(str::to_owned)
        };
        assert_eq!(line(&degraded, "mirza-1000"), line(&alone, "mirza-1000"));
        assert_eq!(line(&degraded, "trr"), line(&complete, "trr"));
    }

    #[test]
    fn default_fast_spec_meets_the_issue_floor() {
        let spec = MatrixSpec::for_scale(Scale::fast());
        assert!(spec.cells() >= 48);
        assert!(spec.strategies.len() >= 4);
        assert!(spec.schedules.len() >= 3);
        assert!(spec.mitigators.len() >= 2);
        assert!(spec.seeds.len() >= 2);
    }

    #[test]
    fn attack_cell_events_are_emitted() {
        let mut spec = tiny_spec();
        spec.strategies = vec![StrategyKind::DoubleSided];
        spec.schedules = vec![ScheduleKind::Burst];
        spec.mitigators = vec![MitigatorKind::Trr];
        let t = Telemetry::enabled();
        let _ = run_matrix(&spec, &t);
        let n = t
            .with_recorder(|r| r.event_counts.get("attack_cell").copied())
            .unwrap();
        assert_eq!(n, Some(spec.cells() as u64));
    }
}
