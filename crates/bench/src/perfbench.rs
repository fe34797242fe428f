//! Performance benchmark harness: times end-to-end `table4`-style
//! baseline runs per workload (warmup + N repeats) and writes one
//! schema'd `BENCH_<gitrev>.json` document per invocation.
//!
//! Timed repeats run with `Telemetry::disabled()` so they measure the
//! production hot path. One extra *profiled* pass over the suite runs
//! with the host-phase profiler and the opportunity counters armed,
//! supplying the phase breakdown and idle-pass share that the timed
//! numbers alone cannot give. The documents accumulate in `results/` and
//! feed [`crate::trajectory`] and `scripts/perf_gate.py`.

use std::time::Instant;

use mirza_sim::config::MitigationConfig;
use mirza_sim::runner::run_workload_with;
use mirza_telemetry::{Json, Telemetry};

use crate::lab::Lab;
use crate::provenance;
use crate::scale::Scale;

/// Document schema identifier; bump on incompatible layout changes.
pub const SCHEMA: &str = "mirza-perfbench-v1";

/// Order statistics over one sample vector. The kernel under golden-value
/// test: median (midpoint-averaged), sample stddev, nearest-rank p99.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Raw samples in recording order.
    pub samples: Vec<f64>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median; mean of the two middle samples for even counts.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub stddev: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Stats {
    /// Computes all statistics; panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "stats over zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let stddev = if n > 1 {
            let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Stats {
            samples: samples.to_vec(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
            mean,
            stddev,
            p99: sorted[rank - 1],
        }
    }

    /// Serializes as `{samples, min, max, median, mean, stddev, p99}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push(
            "samples",
            Json::Arr(self.samples.iter().map(|&v| Json::F64(v)).collect()),
        )
        .push("min", self.min)
        .push("max", self.max)
        .push("median", self.median)
        .push("mean", self.mean)
        .push("stddev", self.stddev)
        .push("p99", self.p99);
        o
    }

    /// Parses a value produced by [`Stats::to_json`].
    pub fn from_json(v: &Json) -> Option<Stats> {
        let samples: Vec<f64> = v
            .get("samples")?
            .as_arr()?
            .iter()
            .map(|s| s.as_f64())
            .collect::<Option<_>>()?;
        Some(Stats {
            samples,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            mean: v.get("mean")?.as_f64()?,
            stddev: v.get("stddev")?.as_f64()?,
            p99: v.get("p99")?.as_f64()?,
        })
    }
}

/// Result of one benchmark target (one workload's baseline run).
#[derive(Debug, Clone)]
pub struct Target {
    /// Target name, `table4/<workload>`.
    pub name: String,
    /// Wall-clock seconds per repeat.
    pub wall_secs: Stats,
    /// Simulated DRAM nanoseconds advanced per wall-clock second, per
    /// repeat — the "simulated cycles per second" throughput axis.
    pub sim_ns_per_sec: Stats,
    /// Simulated time covered by one run, picoseconds.
    pub sim_time_ps: u64,
    /// Instructions retired by one run.
    pub instructions: u64,
    /// DRAM commands issued by one run (ACT+PRE+RD+WR+REF+RFM).
    pub commands: u64,
    /// Simulation quanta stepped by one run.
    pub quanta: u64,
}

impl Target {
    fn throughput_json(&self) -> Json {
        // Derived rates use the median repeat so one noisy sample cannot
        // skew the trajectory.
        let med = self.wall_secs.median.max(1e-12);
        let mut t = Json::obj();
        t.push("instructions_per_sec", self.instructions as f64 / med)
            .push("commands_per_sec", self.commands as f64 / med)
            .push("quanta_per_sec", self.quanta as f64 / med);
        t
    }

    /// Serializes one target entry.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("name", self.name.as_str())
            .push("wall_secs", self.wall_secs.to_json())
            .push("sim_ns_per_sec", self.sim_ns_per_sec.to_json())
            .push("sim_time_ps", self.sim_time_ps)
            .push("instructions", self.instructions)
            .push("commands", self.commands)
            .push("quanta", self.quanta)
            .push("throughput", self.throughput_json());
        o
    }

    /// Parses a value produced by [`Target::to_json`].
    pub fn from_json(v: &Json) -> Option<Target> {
        Some(Target {
            name: v.get("name")?.as_str()?.to_string(),
            wall_secs: Stats::from_json(v.get("wall_secs")?)?,
            sim_ns_per_sec: Stats::from_json(v.get("sim_ns_per_sec")?)?,
            sim_time_ps: v.get("sim_time_ps")?.as_u64()?,
            instructions: v.get("instructions")?.as_u64()?,
            commands: v.get("commands")?.as_u64()?,
            quanta: v.get("quanta")?.as_u64()?,
        })
    }
}

/// One complete `BENCH_<gitrev>.json` document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Provenance object (`{git_rev, cargo_profile, host}`).
    pub provenance: Json,
    /// Seconds since the Unix epoch when the run started (trajectory
    /// ordering key; the only nondeterministic field besides timings).
    pub unix_time: u64,
    /// The scale preset serialized (`Scale::to_json`).
    pub scale: Json,
    /// Warmup repeats discarded per target.
    pub warmup: u64,
    /// Timed repeats per target.
    pub repeats: u64,
    /// Per-workload timing results.
    pub targets: Vec<Target>,
    /// Wall-clock seconds for the whole invocation (warmup + timed +
    /// profiled passes).
    pub total_wall_secs: f64,
    /// Suite-wide host-phase breakdown (`PhaseProfiler::to_json` over the
    /// profiled pass), `Null` if the pass was skipped.
    pub phase_breakdown: Json,
    /// Suite-wide opportunity summary from the profiled pass, `Null` if
    /// the pass was skipped.
    pub opportunity: Json,
    /// Parallel-suite measurement (`{jobs, wall_secs, speedup_vs_serial}`)
    /// when the harness ran with `jobs > 1`, `Null` otherwise. Informative
    /// only: it is deliberately not a perf-gate target, so serial medians
    /// stay comparable across hosts and job counts.
    pub parallel: Json,
}

impl BenchDoc {
    /// The git revision this document was produced from.
    pub fn git_rev(&self) -> &str {
        self.provenance
            .get("git_rev")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
    }

    /// Canonical file name, `BENCH_<gitrev>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.git_rev())
    }

    /// Sum of per-target median wall seconds — the headline trajectory
    /// number (per-invocation `total_wall_secs` includes warmup and the
    /// profiled pass, so it is not comparable across repeat counts).
    pub fn suite_median_secs(&self) -> f64 {
        self.targets.iter().map(|t| t.wall_secs.median).sum()
    }

    /// Serializes the full document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", SCHEMA)
            .push("provenance", self.provenance.clone())
            .push("unix_time", self.unix_time)
            .push("scale", self.scale.clone())
            .push("warmup", self.warmup)
            .push("repeats", self.repeats)
            .push(
                "targets",
                Json::Arr(self.targets.iter().map(Target::to_json).collect()),
            )
            .push("total_wall_secs", self.total_wall_secs)
            .push("phase_breakdown", self.phase_breakdown.clone())
            .push("opportunity", self.opportunity.clone())
            .push("parallel", self.parallel.clone());
        doc
    }

    /// Parses a document, rejecting unknown schemas.
    pub fn from_json(v: &Json) -> Option<BenchDoc> {
        if v.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        Some(BenchDoc {
            provenance: v.get("provenance")?.clone(),
            unix_time: v.get("unix_time")?.as_u64()?,
            scale: v.get("scale")?.clone(),
            warmup: v.get("warmup")?.as_u64()?,
            repeats: v.get("repeats")?.as_u64()?,
            targets: v
                .get("targets")?
                .as_arr()?
                .iter()
                .map(Target::from_json)
                .collect::<Option<_>>()?,
            total_wall_secs: v.get("total_wall_secs")?.as_f64()?,
            phase_breakdown: v.get("phase_breakdown").cloned().unwrap_or(Json::Null),
            opportunity: v.get("opportunity").cloned().unwrap_or(Json::Null),
            parallel: v.get("parallel").cloned().unwrap_or(Json::Null),
        })
    }

    /// Writes the document to `path` as pretty-printed JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json().to_string_pretty() + "\n")
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PerfBench {
    /// Scale preset (workload set, shrink, instruction budget).
    pub scale: Scale,
    /// Discarded repeats per target before timing starts.
    pub warmup: u64,
    /// Timed repeats per target.
    pub repeats: u64,
    /// Skip the extra profiled pass (phase breakdown + opportunity).
    pub skip_profile: bool,
    /// Work-pool width for the extra parallel-suite measurement; `1`
    /// (the default) skips that pass. Timed per-target repeats are always
    /// serial — parallel numbers land in the separate `parallel` field.
    pub jobs: usize,
    /// Print one progress line per target.
    pub verbose: bool,
}

impl PerfBench {
    /// Default harness at the given scale: 1 warmup, 3 timed repeats,
    /// profiled pass on.
    pub fn new(scale: Scale) -> Self {
        PerfBench {
            scale,
            warmup: 1,
            repeats: 3,
            skip_profile: false,
            jobs: 1,
            verbose: false,
        }
    }

    /// Runs the whole suite and assembles the document.
    pub fn run(&self) -> BenchDoc {
        let started = Instant::now();
        let cfg = self.scale.sim_config(MitigationConfig::None);
        let quantum_ps = cfg.quantum.as_ps().max(1);
        let mut targets = Vec::new();
        for w in &self.scale.workloads {
            if self.verbose {
                eprintln!("  perfbench table4/{w} ...");
            }
            for _ in 0..self.warmup {
                let _ = run_workload_with(&cfg, w, Telemetry::disabled());
            }
            let mut wall = Vec::new();
            let mut rates = Vec::new();
            let mut last = None;
            for _ in 0..self.repeats.max(1) {
                let t0 = Instant::now();
                let report = run_workload_with(&cfg, w, Telemetry::disabled());
                let secs = t0.elapsed().as_secs_f64();
                wall.push(secs);
                rates.push(report.elapsed.as_ps() as f64 / 1000.0 / secs.max(1e-12));
                last = Some(report);
            }
            let report = last.expect("at least one repeat");
            let d = &report.device;
            let commands =
                d.acts + d.pres + d.reads + d.writes + d.refs + d.rfms_proactive + d.rfms_alert;
            targets.push(Target {
                name: format!("table4/{w}"),
                wall_secs: Stats::from_samples(&wall),
                sim_ns_per_sec: Stats::from_samples(&rates),
                sim_time_ps: report.elapsed.as_ps(),
                instructions: report.instructions,
                commands,
                quanta: report.elapsed.as_ps().div_ceil(quantum_ps),
            });
        }
        // One profiled pass over the suite with a single shared recorder:
        // the phase profiler and opportunity counters accumulate across
        // workloads into suite-level totals.
        let (phase_breakdown, opportunity) = if self.skip_profile {
            (Json::Null, Json::Null)
        } else {
            if self.verbose {
                eprintln!("  perfbench profiled pass ...");
            }
            let tel = Telemetry::enabled().with_profiler().with_opportunity();
            for w in &self.scale.workloads {
                let _ = run_workload_with(&cfg, w, tel.clone());
            }
            (
                tel.profile_json().unwrap_or(Json::Null),
                Lab::opportunity_summary(&tel),
            )
        };
        // Optional parallel pass: the whole suite once on the work pool,
        // reported as wall time + speedup over the sum of serial medians.
        let parallel = if self.jobs > 1 {
            if self.verbose {
                eprintln!("  perfbench parallel pass ({} jobs) ...", self.jobs);
            }
            let t0 = Instant::now();
            let _ = mirza_runner::parallel_map(&self.scale.workloads, self.jobs, |_, w| {
                run_workload_with(&cfg, w, Telemetry::disabled())
            });
            let wall = t0.elapsed().as_secs_f64();
            let serial: f64 = targets.iter().map(|t| t.wall_secs.median).sum();
            let mut p = Json::obj();
            p.push("jobs", self.jobs as u64)
                .push("wall_secs", wall)
                .push("speedup_vs_serial", serial / wall.max(1e-12));
            p
        } else {
            Json::Null
        };
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        BenchDoc {
            provenance: provenance::to_json(),
            unix_time,
            scale: self.scale.to_json(),
            warmup: self.warmup,
            repeats: self.repeats.max(1),
            targets,
            total_wall_secs: started.elapsed().as_secs_f64(),
            phase_breakdown,
            opportunity,
            parallel,
        }
    }
}

/// Formats the per-target summary table printed by `repro perfbench`.
pub fn summary_table(doc: &BenchDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "perfbench @ {} ({} targets, {} warmup + {} repeats)\n",
        doc.git_rev(),
        doc.targets.len(),
        doc.warmup,
        doc.repeats
    ));
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>12}\n",
        "target", "min_s", "median_s", "mean_s", "stddev_s", "sim_ns/s"
    ));
    for t in &doc.targets {
        out.push_str(&format!(
            "{:<22} {:>9.3} {:>9.3} {:>9.3} {:>9.4} {:>12.3e}\n",
            t.name,
            t.wall_secs.min,
            t.wall_secs.median,
            t.wall_secs.mean,
            t.wall_secs.stddev,
            t.sim_ns_per_sec.median
        ));
    }
    out.push_str(&format!(
        "suite median {:.3}s, invocation total {:.1}s\n",
        doc.suite_median_secs(),
        doc.total_wall_secs
    ));
    if let Some(frac) = doc.opportunity.get("idle_pass_frac").and_then(Json::as_f64) {
        out.push_str(&format!(
            "opportunity: {:.1}% idle scheduler passes, skip-gap p50 {} ns\n",
            frac * 100.0,
            doc.opportunity
                .get("skip_gap_ns")
                .and_then(|g| g.get("p50"))
                .and_then(Json::as_f64)
                .map_or_else(|| "?".to_string(), |v| format!("{v:.0}"))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_golden_values_odd() {
        let s = Stats::from_samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        // Sample stddev of 1..5 = sqrt(2.5).
        assert!((s.stddev - 2.5f64.sqrt()).abs() < 1e-12);
        // Nearest-rank p99 of 5 samples = the maximum.
        assert_eq!(s.p99, 5.0);
    }

    #[test]
    fn stats_golden_values_even_and_singleton() {
        let s = Stats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let one = Stats::from_samples(&[7.5]);
        assert_eq!(one.median, 7.5);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.p99, 7.5);
    }

    #[test]
    fn stats_p99_uses_nearest_rank_on_large_sets() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Stats::from_samples(&samples);
        // ceil(0.99 * 200) = 198th order statistic.
        assert_eq!(s.p99, 198.0);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let s = Stats::from_samples(&[0.25, 0.5, 0.125]);
        let back = Stats::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn bench_doc_round_trips_and_rejects_foreign_schemas() {
        let bench = PerfBench {
            scale: Scale::bench(),
            warmup: 0,
            repeats: 2,
            skip_profile: false,
            jobs: 2,
            verbose: false,
        };
        let doc = bench.run();
        assert_eq!(doc.targets.len(), 1, "bench scale has one workload");
        let t = &doc.targets[0];
        assert_eq!(t.name, "table4/lbm");
        assert_eq!(t.wall_secs.samples.len(), 2);
        assert!(t.sim_time_ps > 0 && t.commands > 0 && t.quanta > 0);
        assert!(
            doc.opportunity
                .get("sched_passes")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0,
            "profiled pass arms the opportunity counters"
        );
        assert!(doc
            .phase_breakdown
            .get("phases")
            .and_then(|p| p.get("device"))
            .is_some());
        assert!(doc.file_name().starts_with("BENCH_"));
        let speedup = doc
            .parallel
            .get("speedup_vs_serial")
            .and_then(Json::as_f64)
            .expect("jobs > 1 produces the parallel field");
        assert!(speedup > 0.0);

        let text = doc.to_json().to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = BenchDoc::from_json(&parsed).expect("round trip");
        assert_eq!(back.targets.len(), doc.targets.len());
        assert_eq!(
            back.parallel.get("jobs").and_then(Json::as_u64),
            Some(2),
            "parallel field survives the round trip"
        );
        assert_eq!(back.targets[0].wall_secs, doc.targets[0].wall_secs);
        assert_eq!(back.unix_time, doc.unix_time);
        assert_eq!(back.git_rev(), doc.git_rev());
        assert!(
            (back.suite_median_secs() - doc.suite_median_secs()).abs() < 1e-12,
            "suite rollup survives the round trip"
        );

        let mut foreign = parsed.clone();
        if let Json::Obj(pairs) = &mut foreign {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::Str("someone-elses-v9".to_string());
                }
            }
        }
        assert!(BenchDoc::from_json(&foreign).is_none());
    }
}
