//! Device-level activity counters used for performance and refresh-power
//! metrics.

use crate::mitigation::MitigationStats;

/// Raw command counters for one sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued (including per-bank closes before REF).
    pub pres: u64,
    /// RD bursts issued.
    pub reads: u64,
    /// WR bursts issued.
    pub writes: u64,
    /// REF commands issued.
    pub refs: u64,
    /// Proactive (MC-scheduled) RFM commands issued.
    pub rfms_proactive: u64,
    /// Reactive (ALERT back-off) RFM commands issued.
    pub rfms_alert: u64,
    /// ALERT assertions observed by the controller.
    pub alerts: u64,
    /// Rows refreshed by demand (REF) refresh, summed over banks.
    pub demand_refresh_rows: u64,
    /// Row-buffer hits (RD/WR to already-open row).
    pub row_hits: u64,
    /// Row-buffer misses (ACT needed on an idle bank).
    pub row_misses: u64,
    /// Row-buffer conflicts (PRE + ACT needed).
    pub row_conflicts: u64,
    /// Picoseconds of data-bus occupancy (for bus-utilization reporting).
    pub bus_busy_ps: u64,
    /// RowPress activation-equivalents charged on row closure (Section
    /// II-A weighting; zero unless RowPress weighting is enabled).
    pub rowpress_equiv_acts: u64,
}

impl DeviceStats {
    /// Data-bus utilization over `elapsed_ps` picoseconds, in percent.
    pub fn bus_utilization_pct(&self, elapsed_ps: u64) -> f64 {
        if elapsed_ps == 0 {
            0.0
        } else {
            100.0 * self.bus_busy_ps as f64 / elapsed_ps as f64
        }
    }

    /// Refresh power overhead (paper Section II-F): victim-refresh rows as a
    /// fraction of demand-refresh rows, in percent.
    pub fn refresh_power_overhead_pct(&self, mitigation: &MitigationStats) -> f64 {
        if self.demand_refresh_rows == 0 {
            0.0
        } else {
            100.0 * mitigation.victim_rows_refreshed as f64 / self.demand_refresh_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_utilization() {
        let s = DeviceStats {
            bus_busy_ps: 500,
            ..Default::default()
        };
        assert_eq!(s.bus_utilization_pct(1000), 50.0);
        assert_eq!(s.bus_utilization_pct(0), 0.0);
    }

    #[test]
    fn refresh_power_overhead() {
        let d = DeviceStats {
            demand_refresh_rows: 1000,
            ..Default::default()
        };
        let m = MitigationStats {
            victim_rows_refreshed: 41,
            ..Default::default()
        };
        assert!((d.refresh_power_overhead_pct(&m) - 4.1).abs() < 1e-12);
        let empty = DeviceStats::default();
        assert_eq!(empty.refresh_power_overhead_pct(&m), 0.0);
    }
}
