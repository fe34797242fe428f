//! Experiment scaling.
//!
//! The paper simulates 250 M-instruction SimPoints against a full 32 ms
//! refresh window. To keep the whole table/figure suite runnable on a
//! laptop, the default modes shrink the *time axis* self-consistently by a
//! factor `shrink`: bank height, tREFW, LLC capacity, workload footprints
//! and MIRZA's FTH all divide by the same factor, so per-window
//! accumulation (the quantity CGF filtering keys on) keeps the paper's
//! proportions. `--full` runs the unscaled configuration.

use mirza_core::config::MirzaConfig;
use mirza_dram::geometry::Geometry;
use mirza_dram::time::Ps;
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_telemetry::Json;
use mirza_workloads::spec::all_workload_names;

/// A consistent scaling of the evaluation setup.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Divisor on bank height / tREFW / LLC / footprints / FTH (1 = paper).
    pub shrink: u64,
    /// Instructions per core per run.
    pub instructions: u64,
    /// Workloads included.
    pub workloads: Vec<&'static str>,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Default mode: 32x shrink, about one scaled refresh window of
    /// execution for memory-bound workloads, all 24 workloads.
    pub fn fast() -> Self {
        Scale {
            shrink: 32,
            instructions: 2_500_000,
            workloads: all_workload_names(),
            seed: 0xC0FFEE,
        }
    }

    /// Tiny mode for unit tests and `--smoke` runs.
    pub fn smoke() -> Self {
        Scale {
            shrink: 64,
            instructions: 400_000,
            workloads: vec!["lbm", "fotonik3d", "bc"],
            seed: 0xC0FFEE,
        }
    }

    /// Minimal mode for unit tests: one workload, one bank-walk.
    pub fn bench() -> Self {
        Scale {
            shrink: 64,
            instructions: 100_000,
            workloads: vec!["lbm"],
            seed: 0xC0FFEE,
        }
    }

    /// Paper-scale mode (hours of wall clock).
    pub fn full() -> Self {
        Scale {
            shrink: 1,
            instructions: 150_000_000,
            workloads: all_workload_names(),
            seed: 0xC0FFEE,
        }
    }

    /// The scaled channel geometry.
    ///
    /// # Panics
    /// Panics if `shrink` does not divide the bank height into a power of
    /// two of at least 2048 rows.
    pub fn geometry(&self) -> Geometry {
        let mut g = Geometry::ddr5_32gb();
        g.rows_per_bank = (u64::from(g.rows_per_bank) / self.shrink) as u32;
        assert!(
            g.rows_per_bank >= 2048 && g.rows_per_bank.is_power_of_two(),
            "invalid shrink factor {}",
            self.shrink
        );
        g.validate().expect("scaled geometry is consistent");
        g
    }

    /// The scaled refresh window (32 ms / shrink).
    pub fn t_refw(&self) -> Ps {
        Ps::from_ms(32) / self.shrink
    }

    /// Scales a MIRZA configuration: FTH divides with the window.
    pub fn mirza_config(&self, mut cfg: MirzaConfig) -> MirzaConfig {
        cfg.fth = ((u64::from(cfg.fth) / self.shrink) as u32).max(8);
        cfg
    }

    /// Mithril with a 2K-entry table per bank at full scale, divided like
    /// every other per-window quantity (at least 64 entries), mitigating
    /// on every REF: the attack matrix's and the attribution sweep's.
    pub(crate) fn mithril(&self) -> MitigationConfig {
        MitigationConfig::Mithril {
            entries: (2_048 / self.shrink as usize).max(64),
            refs_per_mit: 1,
        }
    }

    /// Builds the simulation configuration for a mitigation at this scale.
    pub fn sim_config(&self, mitigation: MitigationConfig) -> SimConfig {
        let mut cfg = SimConfig::new(mitigation, self.instructions);
        cfg.geometry = self.geometry();
        cfg.t_refw = Some(self.t_refw());
        cfg.llc_sets = ((16 * 1024) / self.shrink as usize).max(64);
        cfg.footprint_divisor = self.shrink;
        cfg.seed = self.seed;
        cfg
    }

    /// Serializes the scale for run manifests.
    pub fn to_json(&self) -> Json {
        let workloads: Vec<Json> = self.workloads.iter().map(|w| Json::from(*w)).collect();
        let mut doc = Json::obj();
        doc.push("shrink", self.shrink)
            .push("instructions", self.instructions)
            .push("workloads", workloads)
            .push("seed", self.seed);
        doc
    }

    /// The worst-case ACTs per bank per (scaled) tREFW — the paper's 621K
    /// at shrink = 1.
    pub fn worst_case_acts_per_refw(&self) -> f64 {
        let t = mirza_dram::timing::TimingParams::ddr5_6000();
        let per_interval = (t.t_refi.as_ps() - t.t_rfc.as_ps()) as f64 / t.t_rc.as_ps() as f64;
        let refs = self.t_refw().as_ps() / t.t_refi.as_ps();
        per_interval * refs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_geometry_is_consistent() {
        let s = Scale::fast();
        let g = s.geometry();
        assert_eq!(g.rows_per_bank, 4096);
        // The refresh walk still exactly covers the bank within tREFW.
        let refs_in_window = s.t_refw().as_ps() / 3_900_000;
        assert_eq!(refs_in_window, u64::from(g.refs_per_full_walk()));
    }

    #[test]
    fn smoke_geometry_is_consistent() {
        let g = Scale::smoke().geometry();
        assert_eq!(g.rows_per_bank, 2048);
        assert_eq!(g.rows_per_subarray(), 16);
    }

    #[test]
    fn full_scale_is_the_paper_config() {
        let s = Scale::full();
        assert_eq!(s.geometry(), Geometry::ddr5_32gb());
        assert_eq!(s.t_refw(), Ps::from_ms(32));
        assert!((s.worst_case_acts_per_refw() - 621_000.0).abs() < 15_000.0);
    }

    #[test]
    fn mirza_fth_scales_with_window() {
        let s = Scale::fast();
        let cfg = s.mirza_config(MirzaConfig::trhd_1000());
        assert_eq!(cfg.fth, 1500 / 32);
        assert_eq!(cfg.mint_w, 12, "window is a rate, not a budget");
    }

    #[test]
    fn sim_config_carries_the_scaling() {
        let s = Scale::fast();
        let cfg = s.sim_config(MitigationConfig::None);
        assert_eq!(cfg.llc_sets, 512);
        assert_eq!(cfg.footprint_divisor, 32);
        assert_eq!(cfg.t_refw, Some(Ps::from_ms(1)));
    }

    #[test]
    fn scale_serializes_for_manifests() {
        let j = Scale::smoke().to_json();
        assert_eq!(j.get("shrink").unwrap().as_u64(), Some(64));
        assert_eq!(j.get("instructions").unwrap().as_u64(), Some(400_000));
        let ws = j.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].as_str(), Some("lbm"));
    }

    #[test]
    #[should_panic(expected = "invalid shrink")]
    fn rejects_overshrink() {
        let s = Scale {
            shrink: 1024,
            ..Scale::fast()
        };
        let _ = s.geometry();
    }
}
