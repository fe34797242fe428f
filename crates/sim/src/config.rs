//! Simulation configuration: which mitigation runs, with which timing
//! overlay and controller policy (Table III baseline system).

use mirza_core::config::MirzaConfig;
use mirza_core::mirza::Mirza;
use mirza_core::rct::ResetPolicy;
use mirza_dram::address::{BankId, MappingScheme, RegionMap, RowMapping};
use mirza_dram::geometry::Geometry;
use mirza_dram::mitigation::{Mitigator, NullMitigator};
use mirza_dram::time::Ps;
use mirza_dram::timing::TimingParams;
use mirza_frontend::core::CoreParams;
use mirza_memctrl::controller::McConfig;
use mirza_telemetry::Json;
use mirza_trackers::mint_rfm::MintRfm;
use mirza_trackers::mithril::Mithril;
use mirza_trackers::para::Para;
use mirza_trackers::prac::PracMoat;
use mirza_trackers::trr::Trr;
use mirza_workloads::attacks::RowPattern;

/// Which Rowhammer mitigation the simulated system runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationConfig {
    /// Unprotected baseline.
    None,
    /// Full MIRZA (Section V) with the given config and RCT reset policy.
    Mirza {
        /// Tracker parameters (Table VII presets).
        cfg: MirzaConfig,
        /// RCT reset policy (Safe in all performance experiments).
        policy: ResetPolicy,
    },
    /// Naive MIRZA: MINT+ABO without filtering (Table V).
    MirzaNaive {
        /// MINT window (24/48/96 in Table V).
        mint_w: u32,
        /// MIRZA-Q entries (1/2/4/8 in Table V).
        queue: usize,
    },
    /// MINT with proactive RFM every `bat` ACTs (Figure 3).
    MintRfm {
        /// Bank activation threshold (24/48/96 for TRHD 500/1K/2K).
        bat: u32,
    },
    /// PRAC + ABO with MOAT policy; runs with the inflated PRAC timings.
    PracAbo {
        /// Target double-sided threshold (sets ATH).
        trhd: u32,
    },
    /// Mithril-style counter tracker mitigating under REF.
    Mithril {
        /// Counter entries per bank.
        entries: usize,
        /// REFs between mitigations.
        refs_per_mit: u64,
    },
    /// DDR4-style TRR (28 entries, 1 mitigation per 4 REF).
    Trr,
    /// PARA with per-ACT probability `p`.
    Para {
        /// Mitigation probability.
        p: f64,
    },
}

impl MitigationConfig {
    /// Human-readable identifier for reports.
    pub fn label(&self) -> String {
        match self {
            MitigationConfig::None => "baseline".into(),
            MitigationConfig::Mirza { cfg, policy } => {
                // Every distinguishing parameter appears so run caches
                // keyed on the label never collide across configurations.
                format!(
                    "mirza-trhd{}-f{}-w{}-r{}-c{}-qth{}-{}{}",
                    cfg.target_trhd,
                    cfg.fth,
                    cfg.mint_w,
                    cfg.regions_per_bank,
                    cfg.queue_capacity,
                    cfg.qth,
                    match cfg.mapping {
                        mirza_dram::address::MappingScheme::Strided => "str",
                        mirza_dram::address::MappingScheme::Sequential => "seq",
                    },
                    match policy {
                        ResetPolicy::Safe => "",
                        ResetPolicy::Eager => "-eager",
                        ResetPolicy::Lazy => "-lazy",
                    }
                )
            }
            MitigationConfig::MirzaNaive { mint_w, queue } => {
                format!("naive-w{mint_w}-q{queue}")
            }
            MitigationConfig::MintRfm { bat } => format!("mint-rfm-bat{bat}"),
            MitigationConfig::PracAbo { trhd } => format!("prac-trhd{trhd}"),
            MitigationConfig::Mithril {
                entries,
                refs_per_mit,
            } => format!("mithril-{entries}-k{refs_per_mit}"),
            MitigationConfig::Trr => "trr".into(),
            MitigationConfig::Para { p } => format!("para-{p}"),
        }
    }

    /// The DRAM timing parameter set this mitigation requires (PRAC inflates
    /// tRP/tRAS/tRC; everything else runs baseline DDR5-6000).
    pub fn timing(&self) -> TimingParams {
        match self {
            MitigationConfig::PracAbo { .. } => TimingParams::ddr5_6000_prac(),
            _ => TimingParams::ddr5_6000(),
        }
    }

    /// Controller policy: MINT+RFM installs the proactive BAT counter.
    pub fn mc_config(&self) -> McConfig {
        match self {
            MitigationConfig::MintRfm { bat } => McConfig {
                rfm_bat: Some(*bat),
            },
            _ => McConfig::default(),
        }
    }

    /// Instantiates the in-DRAM engine for one sub-channel.
    pub fn build(&self, geom: &Geometry, seed: u64) -> Box<dyn Mitigator> {
        match *self {
            MitigationConfig::None => Box::new(NullMitigator::new()),
            MitigationConfig::Mirza { cfg, policy } => {
                Box::new(Mirza::with_reset_policy(cfg, geom, seed, policy))
            }
            MitigationConfig::MirzaNaive { mint_w, queue } => {
                Box::new(Mirza::naive(mint_w, queue, geom, seed))
            }
            MitigationConfig::MintRfm { .. } => Box::new(MintRfm::new(geom, seed)),
            MitigationConfig::PracAbo { trhd } => Box::new(PracMoat::for_trhd(trhd, geom)),
            MitigationConfig::Mithril {
                entries,
                refs_per_mit,
            } => Box::new(Mithril::new(entries, refs_per_mit, geom)),
            MitigationConfig::Trr => Box::new(Trr::ddr4_like(geom)),
            MitigationConfig::Para { p } => Box::new(Para::new(p, geom, seed)),
        }
    }
}

/// An attacker core (Section IX's performance attack): it replays
/// `pattern`'s rows of `bank`, uncached and physically addressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Attacker {
    /// The bank the kernel hammers.
    pub bank: BankId,
    /// The rows it cycles through.
    pub pattern: RowPattern,
}

impl Attacker {
    /// The Figure-12 kernel: 16 rows of RCT region 3 of bank 0, under
    /// MIRZA-1K's strided mapping and 128 regions. Every Table IX config
    /// shares that mapping and region count, so one kernel serves each W.
    pub fn figure12(geom: &Geometry) -> Self {
        let mirza = MirzaConfig::trhd_1000();
        let mapping = RowMapping::new(mirza.mapping, geom.rows_per_bank, geom.subarrays_per_bank);
        let regions = RegionMap::new(geom.rows_per_bank, mirza.regions_per_bank);
        Attacker {
            bank: BankId::new(0, 0, 0),
            pattern: RowPattern::same_region(&mapping, &regions, 3, 16),
        }
    }
}

/// Full simulation configuration (Table III defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Channel geometry.
    pub geometry: Geometry,
    /// Installed mitigation.
    pub mitigation: MitigationConfig,
    /// Core count (8 in the paper, rate mode), the attacker's included.
    pub cores: usize,
    /// An attacker core, run as the last of `cores`.
    pub attacker: Option<Attacker>,
    /// Instructions each core retires before the run ends (250 M simpoints
    /// in the paper; scaled down in fast mode).
    pub instructions_per_core: u64,
    /// Core microarchitecture.
    pub core_params: CoreParams,
    /// Mapping used for the ACTs-per-subarray metric histogram.
    pub metrics_mapping: MappingScheme,
    /// Master seed (workloads, trackers).
    pub seed: u64,
    /// Simulation quantum for core/MC interleaving.
    pub quantum: Ps,
    /// LLC sets (16-way, 64 B lines); 16384 = the paper's 16 MB.
    pub llc_sets: usize,
    /// Divisor applied to workload footprints (scaled-mode experiments
    /// shrink DRAM, LLC and footprints together; see DESIGN.md).
    pub footprint_divisor: u64,
    /// Overrides tREFW (scaled-mode experiments shorten the refresh window
    /// together with the bank height so the walk stays consistent).
    pub t_refw: Option<Ps>,
    /// RowPress weighting: convert long row-open times into activation
    /// equivalents charged to the tracker (Section II-A).
    pub rowpress: bool,
    /// Progress heartbeat: print a status line every this many retired
    /// instructions (`None` = silent).
    pub heartbeat_every: Option<u64>,
    /// Enable the independent DDR5 protocol auditor on every sub-channel.
    /// Pure observability: it never alters simulated behavior, so it is
    /// deliberately excluded from [`SimConfig::to_json`] (audited and
    /// unaudited manifests stay comparable).
    pub audit: bool,
    /// Enable the auditor's per-row ACT census (security verdicts under
    /// fault injection). Pure observability; excluded from
    /// [`SimConfig::to_json`] like `audit`.
    pub track_row_acts: bool,
    /// Forward-progress watchdog: optional total wall-clock budget for the
    /// run; exceeded ⇒ `SimError::Watchdog`. Excluded from
    /// [`SimConfig::to_json`]: it only decides when a broken run dies,
    /// never what a healthy run computes.
    pub watchdog_wall: Option<std::time::Duration>,
}

impl SimConfig {
    /// Table III's core count.
    pub const CORES: usize = 8;

    /// Baseline system with the given per-core instruction budget.
    pub fn new(mitigation: MitigationConfig, instructions_per_core: u64) -> Self {
        SimConfig {
            geometry: Geometry::ddr5_32gb(),
            mitigation,
            cores: Self::CORES,
            attacker: None,
            instructions_per_core,
            core_params: CoreParams::default(),
            metrics_mapping: MappingScheme::Strided,
            seed: 0xC0FFEE,
            quantum: Ps::from_ns(1000),
            llc_sets: 16 * 1024,
            footprint_divisor: 1,
            t_refw: None,
            rowpress: false,
            heartbeat_every: None,
            audit: false,
            track_row_acts: false,
            watchdog_wall: None,
        }
    }

    /// The effective timing parameters (mitigation overlay + tREFW override).
    pub fn timing(&self) -> TimingParams {
        let mut t = self.mitigation.timing();
        if let Some(w) = self.t_refw {
            t.t_refw = w;
        }
        t
    }

    /// Serializes the full configuration for run manifests.
    pub fn to_json(&self) -> Json {
        let g = &self.geometry;
        let mut geom = Json::obj();
        geom.push("subchannels", g.subchannels)
            .push("ranks", g.ranks)
            .push("banks", g.banks)
            .push("rows_per_bank", g.rows_per_bank)
            .push("row_bytes", g.row_bytes)
            .push("line_bytes", g.line_bytes)
            .push("subarrays_per_bank", g.subarrays_per_bank)
            .push("rows_per_ref", g.rows_per_ref);
        let t = self.timing();
        let mut doc = Json::obj();
        doc.push("mitigation", self.mitigation.label())
            .push("geometry", geom)
            .push("cores", self.cores)
            .push("instructions_per_core", self.instructions_per_core)
            .push(
                "metrics_mapping",
                match self.metrics_mapping {
                    MappingScheme::Strided => "strided",
                    MappingScheme::Sequential => "sequential",
                },
            )
            .push("seed", self.seed)
            .push("quantum_ps", self.quantum.as_ps())
            .push("llc_sets", self.llc_sets)
            .push("footprint_divisor", self.footprint_divisor)
            .push("t_refi_ps", t.t_refi.as_ps())
            .push("t_refw_ps", t.t_refw.as_ps())
            .push("rowpress", self.rowpress);
        if let Some(a) = &self.attacker {
            let rows = a.pattern.rows().iter().map(|&r| Json::from(r)).collect();
            let mut attacker = Json::obj();
            attacker
                .push("bank", a.bank.flat_in_channel(&self.geometry))
                .push("rows", Json::Arr(rows));
            doc.push("attacker", attacker);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prac_gets_inflated_timings() {
        let m = MitigationConfig::PracAbo { trhd: 1000 };
        assert_eq!(m.timing().t_rp, Ps::from_ns(36));
        let m = MitigationConfig::None;
        assert_eq!(m.timing().t_rp, Ps::from_ns(14));
    }

    #[test]
    fn mint_rfm_installs_bat() {
        let m = MitigationConfig::MintRfm { bat: 48 };
        assert_eq!(m.mc_config().rfm_bat, Some(48));
        assert_eq!(MitigationConfig::None.mc_config().rfm_bat, None);
    }

    #[test]
    fn build_produces_right_engine() {
        let g = Geometry::ddr5_32gb();
        let cases: Vec<(MitigationConfig, &str)> = vec![
            (MitigationConfig::None, "none"),
            (
                MitigationConfig::Mirza {
                    cfg: MirzaConfig::trhd_1000(),
                    policy: ResetPolicy::Safe,
                },
                "mirza",
            ),
            (
                MitigationConfig::MirzaNaive {
                    mint_w: 48,
                    queue: 4,
                },
                "mirza-naive",
            ),
            (MitigationConfig::MintRfm { bat: 48 }, "mint-rfm"),
            (MitigationConfig::PracAbo { trhd: 1000 }, "prac-moat"),
            (
                MitigationConfig::Mithril {
                    entries: 64,
                    refs_per_mit: 1,
                },
                "mithril",
            ),
            (MitigationConfig::Trr, "trr"),
            (MitigationConfig::Para { p: 0.01 }, "para"),
        ];
        for (cfg, expected) in cases {
            assert_eq!(cfg.build(&g, 1).name(), expected, "{}", cfg.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            MitigationConfig::None,
            MitigationConfig::MintRfm { bat: 48 },
            MitigationConfig::PracAbo { trhd: 1000 },
            MitigationConfig::Trr,
        ]
        .iter()
        .map(MitigationConfig::label)
        .collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
    }
}
