//! Simulation output: everything the paper's tables and figures report.

use mirza_dram::mitigation::MitigationStats;
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_memctrl::request::McStats;
use mirza_telemetry::{AttributionSummary, Json};

/// Aggregated result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Mitigation label (see `MitigationConfig::label`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Per-core IPC.
    pub core_ipc: Vec<f64>,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Wall-clock simulated time (slowest core's finish).
    pub elapsed: Ps,
    /// Merged device counters (both sub-channels).
    pub device: DeviceStats,
    /// Merged mitigation counters.
    pub mitigation: MitigationStats,
    /// Merged controller counters.
    pub mc: McStats,
    /// ACT counts per (sub-channel, bank, subarray), concatenated.
    pub acts_per_subarray: Vec<u64>,
    /// LLC hits and misses.
    pub llc_hits: u64,
    /// LLC misses (fills from DRAM).
    pub llc_misses: u64,
    /// tREFI of the run (for ALERT-rate normalization).
    pub t_refi: Ps,
    /// tREFW of the run (for per-window subarray statistics).
    pub t_refw: Ps,
    /// Sub-channels the device/controller counters were summed over
    /// (from the geometry; used to normalize per-sub-channel metrics).
    pub subchannels: u32,
    /// Per-bucket stall attribution, when the span layer ran. Absent on
    /// plain runs so their manifests stay byte-identical.
    pub attribution: Option<AttributionSummary>,
}

impl SimReport {
    /// Weighted speedup against a baseline run of the same workload:
    /// `sum_i IPC_i / IPC_i^base`.
    pub fn weighted_speedup(&self, baseline: &SimReport) -> f64 {
        assert_eq!(
            self.core_ipc.len(),
            baseline.core_ipc.len(),
            "core counts differ"
        );
        self.core_ipc
            .iter()
            .zip(&baseline.core_ipc)
            .map(|(a, b)| if *b > 0.0 { a / b } else { 0.0 })
            .sum()
    }

    /// Percent slowdown versus the baseline (positive = slower), the
    /// quantity every performance figure reports.
    pub fn slowdown_pct(&self, baseline: &SimReport) -> f64 {
        let n = self.core_ipc.len() as f64;
        (1.0 - self.weighted_speedup(baseline) / n) * 100.0
    }

    /// L3 misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// DRAM activations per kilo-instruction.
    pub fn act_pki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.device.acts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Data-bus utilization percentage (mean of the two sub-channels).
    pub fn bus_utilization_pct(&self) -> f64 {
        if self.elapsed == Ps::ZERO {
            0.0
        } else {
            // bus_busy_ps was summed over all sub-channels.
            let subch = f64::from(self.subchannels.max(1));
            100.0 * self.device.bus_busy_ps as f64 / (subch * self.elapsed.as_ps() as f64)
        }
    }

    /// ALERT back-offs per 100 tREFI per sub-channel (Figure 11b).
    pub fn alerts_per_100_trefi(&self) -> f64 {
        if self.elapsed == Ps::ZERO {
            0.0
        } else {
            let trefis = self.elapsed.as_ps() as f64 / self.t_refi.as_ps() as f64;
            // Alerts were summed over all sub-channels.
            let subch = f64::from(self.subchannels.max(1));
            self.device.alerts as f64 / subch / trefis * 100.0
        }
    }

    /// Refresh power overhead percentage (victim rows / demand rows).
    pub fn refresh_power_overhead_pct(&self) -> f64 {
        self.device.refresh_power_overhead_pct(&self.mitigation)
    }

    /// Mitigations per activation (Table VIII's overhead metric).
    pub fn mitigation_rate(&self) -> f64 {
        self.mitigation.mitigation_rate()
    }

    /// CSV header matching [`SimReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "label,workload,instructions,elapsed_ps,ipc_sum,acts,reads,writes,refs,\
         rfms_proactive,rfms_alert,alerts,demand_refresh_rows,victim_rows,\
         mitigations,acts_filtered,acts_candidate,llc_hits,llc_misses,\
         row_hits,row_misses,row_conflicts,bus_busy_ps"
    }

    /// One CSV row of raw counters (post-process with the tool of your
    /// choice; slowdowns need the matching baseline row). A workload that
    /// holds a comma, a quote or a line break (a trace path can) is
    /// quoted, its quotes doubled.
    pub fn csv_row(&self) -> String {
        let workload = if self.workload.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", self.workload.replace('"', "\"\""))
        } else {
            self.workload.clone()
        };
        format!(
            "{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.label,
            workload,
            self.instructions,
            self.elapsed.as_ps(),
            self.core_ipc.iter().sum::<f64>(),
            self.device.acts,
            self.device.reads,
            self.device.writes,
            self.device.refs,
            self.device.rfms_proactive,
            self.device.rfms_alert,
            self.device.alerts,
            self.device.demand_refresh_rows,
            self.mitigation.victim_rows_refreshed,
            self.mitigation.mitigations,
            self.mitigation.acts_filtered,
            self.mitigation.acts_candidate,
            self.llc_hits,
            self.llc_misses,
            self.mc.row_hits,
            self.mc.row_misses,
            self.mc.row_conflicts,
            self.device.bus_busy_ps,
        )
    }

    /// Serializes the report for run manifests: raw counters plus the
    /// derived metrics the paper's tables quote.
    pub fn to_json(&self) -> Json {
        let (sa_mean, sa_sd) = self.acts_per_subarray_per_trefw();
        let mut doc = Json::obj();
        doc.push("label", self.label.as_str())
            .push("workload", self.workload.as_str())
            .push(
                "core_ipc",
                Json::Arr(self.core_ipc.iter().map(|&v| Json::F64(v)).collect()),
            )
            .push("instructions", self.instructions)
            .push("elapsed_ps", self.elapsed.as_ps())
            .push("subchannels", self.subchannels)
            .push("acts", self.device.acts)
            .push("pres", self.device.pres)
            .push("reads", self.device.reads)
            .push("writes", self.device.writes)
            .push("refs", self.device.refs)
            .push("rfms_proactive", self.device.rfms_proactive)
            .push("rfms_alert", self.device.rfms_alert)
            .push("alerts", self.device.alerts)
            .push("demand_refresh_rows", self.device.demand_refresh_rows)
            .push("acts_observed", self.mitigation.acts_observed)
            .push("acts_filtered", self.mitigation.acts_filtered)
            .push("acts_candidate", self.mitigation.acts_candidate)
            .push("mitigations", self.mitigation.mitigations)
            .push(
                "victim_rows_refreshed",
                self.mitigation.victim_rows_refreshed,
            )
            .push("alerts_requested", self.mitigation.alerts_requested)
            .push("row_hits", self.mc.row_hits)
            .push("row_misses", self.mc.row_misses)
            .push("row_conflicts", self.mc.row_conflicts)
            .push("reads_done", self.mc.reads_done)
            .push("writes_done", self.mc.writes_done)
            .push("llc_hits", self.llc_hits)
            .push("llc_misses", self.llc_misses)
            .push("mpki", self.mpki())
            .push("act_pki", self.act_pki())
            .push("bus_utilization_pct", self.bus_utilization_pct())
            .push("alerts_per_100_trefi", self.alerts_per_100_trefi())
            .push(
                "refresh_power_overhead_pct",
                self.refresh_power_overhead_pct(),
            )
            .push("mitigation_rate", self.mitigation_rate())
            .push("acts_per_subarray_per_trefw_mean", sa_mean)
            .push("acts_per_subarray_per_trefw_sd", sa_sd);
        if let Some(a) = &self.attribution {
            doc.push("attribution", a.to_json());
        }
        doc
    }

    /// Mean and standard deviation of ACTs per subarray per tREFW
    /// (Table IV's last column, Figure 6), scaled linearly when the run is
    /// shorter than one refresh window.
    pub fn acts_per_subarray_per_trefw(&self) -> (f64, f64) {
        if self.acts_per_subarray.is_empty() || self.elapsed == Ps::ZERO {
            return (0.0, 0.0);
        }
        let windows = self.elapsed.as_ps() as f64 / self.t_refw.as_ps() as f64;
        let scaled: Vec<f64> = self
            .acts_per_subarray
            .iter()
            .map(|&a| a as f64 / windows)
            .collect();
        let n = scaled.len() as f64;
        let mean = scaled.iter().sum::<f64>() / n;
        let var = scaled.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ipc: Vec<f64>) -> SimReport {
        SimReport {
            label: "x".into(),
            workload: "w".into(),
            core_ipc: ipc,
            instructions: 1_000_000,
            elapsed: Ps::from_ms(32),
            device: DeviceStats::default(),
            mitigation: MitigationStats::default(),
            mc: McStats::default(),
            acts_per_subarray: vec![],
            llc_hits: 0,
            llc_misses: 25_000,
            t_refi: Ps::from_ns(3900),
            t_refw: Ps::from_ms(32),
            subchannels: 2,
            attribution: None,
        }
    }

    #[test]
    fn weighted_speedup_and_slowdown() {
        let base = report(vec![2.0, 2.0]);
        let slower = report(vec![1.8, 2.0]);
        assert!((slower.weighted_speedup(&base) - 1.9).abs() < 1e-12);
        assert!((slower.slowdown_pct(&base) - 5.0).abs() < 1e-9);
        assert_eq!(base.slowdown_pct(&base), 0.0);
    }

    #[test]
    fn mpki_metric() {
        let r = report(vec![1.0]);
        assert!((r.mpki() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn subarray_stats_scale_to_one_window() {
        let mut r = report(vec![1.0]);
        r.elapsed = Ps::from_ms(16); // half a window
        r.acts_per_subarray = vec![100, 300];
        let (mean, sd) = r.acts_per_subarray_per_trefw();
        // Scaled x2: 200 and 600 -> mean 400, sd 200.
        assert!((mean - 400.0).abs() < 1e-9);
        assert!((sd - 200.0).abs() < 1e-9);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let mut r = report(vec![1.0]);
        let header_cols = SimReport::csv_header().split(',').count();
        let row_cols = r.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.csv_row().starts_with("x,w,1000000,"));
        // A trace path may hold a comma or a quote: it stays one field.
        r.workload = "t/a,\"b\".trace".into();
        let quoted = "x,\"t/a,\"\"b\"\".trace\",1000000,";
        assert!(r.csv_row().starts_with(quoted), "{}", r.csv_row());
    }

    #[test]
    fn alert_rate_normalization() {
        let mut r = report(vec![1.0]);
        r.elapsed = Ps::from_ns(3900 * 100); // 100 tREFI
        r.device.alerts = 4; // 2 per sub-channel
        assert!((r.alerts_per_100_trefi() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_subchannel_metrics_use_configured_count() {
        let mut r = report(vec![1.0]);
        r.elapsed = Ps::from_ns(3900 * 100);
        r.device.alerts = 4;
        r.device.bus_busy_ps = r.elapsed.as_ps(); // one sub-channel's worth
        let two_sc = (r.alerts_per_100_trefi(), r.bus_utilization_pct());
        r.subchannels = 1;
        let one_sc = (r.alerts_per_100_trefi(), r.bus_utilization_pct());
        assert!((one_sc.0 - 2.0 * two_sc.0).abs() < 1e-9);
        assert!((one_sc.1 - 2.0 * two_sc.1).abs() < 1e-9);
        assert!((one_sc.1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_section_only_present_when_spans_ran() {
        let mut r = report(vec![1.0]);
        assert!(r.to_json().get("attribution").is_none());
        r.attribution = Some(AttributionSummary {
            requests: 2,
            total_stall_ps: 10,
            buckets_ps: [10, 0, 0, 0, 0, 0],
            conserved: true,
        });
        let doc = r.to_json();
        let a = doc.get("attribution").unwrap();
        assert_eq!(a.get("total_stall_ps").unwrap().as_u64(), Some(10));
        let qc = a.get("buckets").unwrap().get("queue_conflict").unwrap();
        assert_eq!(qc.get("pct").unwrap().as_f64(), Some(100.0));
    }

    #[test]
    fn json_report_round_trips() {
        let mut r = report(vec![1.5, 2.0]);
        r.device.acts = 123;
        let doc = r.to_json();
        assert_eq!(doc.get("acts").unwrap().as_u64(), Some(123));
        assert_eq!(doc.get("subchannels").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("core_ipc").unwrap().as_arr().unwrap().len(), 2);
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
