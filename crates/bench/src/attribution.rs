//! Attribution sweep: per-bucket slowdown attribution across mitigators
//! (`repro attribution`).
//!
//! Runs every mitigator of the Table-4 roster (plus the unprotected
//! baseline) over a small set of representative workloads with the
//! request-lifecycle span layer attached, and emits one CSV row per run
//! breaking the total request stall into the six attribution buckets
//! (queue conflict, bank timing, ABO/ALERT, mitigative refresh, regular
//! refresh, RFM). The rows answer *why* a mitigator is slow, where the
//! Table-4 manifest only says *how much* slower it is.
//!
//! Root `tests/artifacts.rs` fails when the committed CSV's header
//! drifts, when any row's buckets fail to sum exactly to its total stall,
//! or when the baseline rows diverge from `results/baseline_fast.json`.

use std::fmt::Write as _;

use mirza_sim::config::MitigationConfig;
use mirza_telemetry::{Json, StallBucket};

use crate::lab::Lab;

/// Fixed CSV header; root `tests/artifacts.rs` fails on any drift. The
/// six `*_ps` bucket columns follow [`StallBucket::ALL`] order.
pub const CSV_HEADER: &str = "label,workload,elapsed_ps,ipc_sum,slowdown_pct,requests,\
     total_stall_ps,queue_conflict_ps,bank_timing_ps,abo_alert_ps,mitigative_ref_ps,\
     refresh_ps,rfm_ps";

/// Representative workloads for the sweep: two memory-bound SPEC codes,
/// one mixed, one GAP graph kernel. Intersected with the scale's roster
/// so `--smoke` (three workloads) still runs.
pub const WORKLOADS: &[&str] = &["lbm", "fotonik3d", "mcf", "bc"];

/// The mitigators swept, in presentation order: unprotected baseline
/// first, then the four Table-4 mechanisms (MIRZA, PRAC+ABO, Mithril,
/// TRR).
pub fn roster(lab: &Lab) -> Vec<MitigationConfig> {
    // Same table scaling as the attack matrix: 2K entries at full scale.
    let entries = (2_048 / lab.scale().shrink as usize).max(64);
    vec![
        MitigationConfig::None,
        lab.mirza(1000),
        MitigationConfig::PracAbo { trhd: 1000 },
        MitigationConfig::Mithril {
            entries,
            refs_per_mit: 1,
        },
        MitigationConfig::Trr,
    ]
}

/// One CSV row: a (mitigator, workload) run with its attribution totals.
#[derive(Debug, Clone)]
pub struct AttributionRow {
    /// Mitigator label (`MitigationConfig::label`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Simulated run length in picoseconds.
    pub elapsed_ps: u64,
    /// Sum of per-core IPCs.
    pub ipc_sum: f64,
    /// Percent slowdown vs the unprotected baseline of the same workload.
    pub slowdown_pct: f64,
    /// Completed memory requests the span layer attributed.
    pub requests: u64,
    /// Total attributed stall in picoseconds.
    pub total_stall_ps: u64,
    /// Per-bucket stall, indexed by [`StallBucket::index`].
    pub buckets_ps: [u64; StallBucket::ALL.len()],
}

impl AttributionRow {
    /// Percentage of total stall charged to `bucket` (0 when idle).
    pub fn pct(&self, bucket: StallBucket) -> f64 {
        if self.total_stall_ps == 0 {
            0.0
        } else {
            100.0 * self.buckets_ps[bucket.index()] as f64 / self.total_stall_ps as f64
        }
    }

    fn to_json(&self) -> Json {
        let mut buckets = Json::obj();
        for b in StallBucket::ALL {
            buckets.push(b.key(), self.buckets_ps[b.index()]);
        }
        let mut doc = Json::obj();
        doc.push("label", self.label.as_str())
            .push("workload", self.workload.as_str())
            .push("elapsed_ps", self.elapsed_ps)
            .push("ipc_sum", self.ipc_sum)
            .push("slowdown_pct", self.slowdown_pct)
            .push("requests", self.requests)
            .push("total_stall_ps", self.total_stall_ps)
            .push("buckets_ps", buckets);
        doc
    }
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct AttributionResult {
    /// One row per (mitigator, workload), roster-major.
    pub rows: Vec<AttributionRow>,
}

impl AttributionResult {
    /// Serializes to CSV, header first.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for r in &self.rows {
            let _ = write!(
                out,
                "{},{},{},{:.6},{:.4},{},{}",
                r.label,
                r.workload,
                r.elapsed_ps,
                r.ipc_sum,
                r.slowdown_pct,
                r.requests,
                r.total_stall_ps
            );
            for b in StallBucket::ALL {
                let _ = write!(out, ",{}", r.buckets_ps[b.index()]);
            }
            out.push('\n');
        }
        out
    }

    /// Manifest-style JSON (`--json`).
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self.rows.iter().map(AttributionRow::to_json).collect();
        let mut doc = Json::obj();
        doc.push("experiment", "attribution").push("rows", rows);
        doc
    }

    /// Human-readable table: stall share per bucket, plus the manifest
    /// slowdown the shares explain.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "Attribution: stall share by bucket (% of total request stall)\n\
             label                workload    slowdown   queue    bank     abo    mref     ref     rfm\n",
        );
        for r in &self.rows {
            let _ = write!(
                out,
                "{:<20} {:<11} {:>7.2}%",
                r.label, r.workload, r.slowdown_pct
            );
            for b in StallBucket::ALL {
                let _ = write!(out, " {:>6.1}%", r.pct(b));
            }
            out.push('\n');
        }
        out
    }
}

/// The cells [`run_attribution`] will request, for [`Lab::prewarm`]:
/// the full roster (baseline included) over the in-scope workloads.
pub fn planned_runs(lab: &Lab) -> Vec<(MitigationConfig, &'static str)> {
    let in_scope: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| lab.workloads().contains(w))
        .collect();
    roster(lab)
        .into_iter()
        .flat_map(|m| in_scope.iter().map(move |&w| (m, w)))
        .collect()
}

/// Runs the sweep. The caller must arm `lab.attribution` (the `repro
/// attribution` command does) so every report carries an attribution
/// summary. At `lab.jobs > 1` the cells are prewarmed on the work pool
/// first; the reduction below stays serial and roster-major either way.
pub fn run_attribution(lab: &mut Lab) -> AttributionResult {
    assert!(
        lab.attribution || lab.trace_chrome.is_some(),
        "attribution sweep needs lab.attribution (or a chrome trace) armed"
    );
    let planned = planned_runs(lab);
    lab.prewarm(&planned);
    let in_scope: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| lab.workloads().contains(w))
        .collect();
    let mut rows = Vec::new();
    for mitigation in roster(lab) {
        let label = mitigation.label();
        for workload in &in_scope {
            let baseline = lab.baseline(workload);
            let report = lab.run(mitigation, workload);
            let a = report
                .attribution
                .as_ref()
                .expect("span layer was armed, report must carry attribution");
            rows.push(AttributionRow {
                label: label.clone(),
                workload: (*workload).to_string(),
                elapsed_ps: report.elapsed.as_ps(),
                ipc_sum: report.core_ipc.iter().sum(),
                slowdown_pct: report.slowdown_pct(&baseline),
                requests: a.requests,
                total_stall_ps: a.total_stall_ps,
                buckets_ps: a.buckets_ps,
            });
        }
    }
    AttributionResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn sweep_covers_the_roster_and_conserves_every_row() {
        let mut lab = Lab::new(Scale::bench());
        lab.attribution = true;
        let result = run_attribution(&mut lab);
        // bench scale hosts only lbm; 5 roster entries x 1 workload.
        assert_eq!(result.rows.len(), 5);
        let labels: Vec<&str> = result.rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"baseline"));
        assert!(labels.contains(&"trr"));
        assert!(labels.iter().any(|l| l.starts_with("prac-trhd")));
        assert!(labels.iter().any(|l| l.starts_with("mithril-")));
        assert!(labels.iter().any(|l| l.starts_with("mirza-")));
        for r in &result.rows {
            assert!(
                r.requests > 0,
                "{}/{} attributed no requests",
                r.label,
                r.workload
            );
            let sum: u64 = r.buckets_ps.iter().sum();
            assert_eq!(
                sum, r.total_stall_ps,
                "{}/{} leaks stall",
                r.label, r.workload
            );
        }
        let baseline = &result.rows[0];
        assert_eq!(baseline.label, "baseline");
        assert!(baseline.slowdown_pct.abs() < 1e-9);
    }

    #[test]
    fn csv_round_trips_through_the_header() {
        let mut lab = Lab::new(Scale::bench());
        lab.attribution = true;
        let result = run_attribution(&mut lab);
        let csv = result.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let cols = CSV_HEADER.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
    }
}
