//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* to perturb (SEUs in RCT counters and
//! MIRZA-Q tardiness fields, dropped ALERT raises, lost/duplicated queue
//! entries) and *when* (a periodic schedule per fault kind, in simulated
//! time). The [`FaultInjector`] executes the plan against the live memory
//! controllers once per simulation quantum, emitting a structured
//! `fault_injected` telemetry event per attempt and keeping a summary for
//! the run manifest.
//!
//! Determinism: all randomness comes from a `SmallRng` seeded from the
//! plan's seed, and the schedule is driven by simulated time only. Same
//! seed + same plan ⇒ bit-identical fault summaries; no plan ⇒ the
//! injector is never constructed and the run is bit-identical to an
//! unfaulted one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use mirza_dram::mitigation::DeviceFault;
use mirza_dram::time::Ps;
use mirza_frontend::error::SimError;
use mirza_memctrl::controller::MemController;
use mirza_telemetry::{names, Json, Telemetry};

/// The fault kinds the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// SEU in an RCT counter (random bank/region/bit).
    RctSeu,
    /// SEU in a MIRZA-Q tardiness field (random bank/slot/bit).
    QueueSeu,
    /// Lose one MIRZA-Q entry (random bank/slot).
    QueueLoss,
    /// Duplicate one MIRZA-Q entry (random bank/slot).
    QueueDup,
    /// Suppress ALERT assertion for `mask` of simulated time (a dropped
    /// or delayed raise).
    AboDrop {
        /// How long the ALERT pin reads deasserted.
        mask: Ps,
    },
}

impl FaultKind {
    /// Stable identifier used in telemetry events and manifest summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::RctSeu => "rct_seu",
            FaultKind::QueueSeu => "queue_seu",
            FaultKind::QueueLoss => "queue_loss",
            FaultKind::QueueDup => "queue_dup",
            FaultKind::AboDrop { .. } => "abo_drop",
        }
    }
}

/// One scheduled fault process: `kind` fires at `start`, then every
/// `period`, at most `max` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// What to inject.
    pub kind: FaultKind,
    /// First injection instant (simulated time).
    pub start: Ps,
    /// Injection period after `start`.
    pub period: Ps,
    /// Maximum number of injections.
    pub max: u64,
}

/// Names of the canned plans, for diagnostics and CLI help.
pub const CANNED_PLANS: [&str; 3] = ["rct-seu", "abo-drop", "queue-loss"];

/// A named, seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name (appears in manifests).
    pub name: String,
    /// Seed for all fault randomness (target and bit selection).
    pub seed: u64,
    /// The scheduled fault processes.
    pub entries: Vec<PlannedFault>,
}

impl FaultPlan {
    /// The canned plan `name`, or `None` for an unknown name.
    pub fn canned(name: &str) -> Option<FaultPlan> {
        let every = |kind, start_us: u64, period_us: u64| PlannedFault {
            kind,
            start: Ps::from_us(start_us),
            period: Ps::from_us(period_us),
            max: u64::MAX,
        };
        let entries = match name {
            // SEUs in the tracker's SRAM: RCT counters and MIRZA-Q
            // tardiness fields.
            "rct-seu" => vec![
                every(FaultKind::RctSeu, 5, 25),
                every(FaultKind::QueueSeu, 7, 40),
            ],
            "abo-drop" => vec![every(
                FaultKind::AboDrop {
                    mask: Ps::from_us(2),
                },
                10,
                60,
            )],
            "queue-loss" => vec![
                every(FaultKind::QueueLoss, 8, 40),
                every(FaultKind::QueueDup, 12, 90),
            ],
            _ => return None,
        };
        Some(FaultPlan {
            name: name.to_string(),
            seed: 0xFA017,
            entries,
        })
    }

    /// Parses a CLI plan spec: `NAME` or `NAME:key=value,key=value,...`.
    ///
    /// Keys: `seed`, `period_us`, `start_us`, `max` (every entry) and
    /// `mask_us` (abo-drop).
    ///
    /// # Errors
    /// [`SimError::Config`] naming the unknown plan or key.
    pub fn parse(spec: &str) -> Result<FaultPlan, SimError> {
        let (name, overrides) = match spec.split_once(':') {
            Some((n, o)) => (n, o),
            None => (spec, ""),
        };
        let mut plan = FaultPlan::canned(name).ok_or_else(|| SimError::Config {
            key: name.to_string(),
            reason: format!("unknown fault plan (known: {})", CANNED_PLANS.join(", ")),
        })?;
        for kv in overrides.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = kv.split_once('=').ok_or_else(|| SimError::Config {
                key: kv.to_string(),
                reason: "expected key=value".into(),
            })?;
            let num: u64 = value.parse().map_err(|_| SimError::Config {
                key: key.to_string(),
                reason: format!("expected an unsigned integer, got {value:?}"),
            })?;
            match key {
                "seed" => plan.seed = num,
                "period_us" => {
                    for e in &mut plan.entries {
                        e.period = Ps::from_us(num.max(1));
                    }
                }
                "start_us" => {
                    for e in &mut plan.entries {
                        e.start = Ps::from_us(num);
                    }
                }
                "max" => {
                    for e in &mut plan.entries {
                        e.max = num;
                    }
                }
                "mask_us" => {
                    for e in &mut plan.entries {
                        if let FaultKind::AboDrop { mask } = &mut e.kind {
                            *mask = Ps::from_us(num);
                        }
                    }
                }
                other => {
                    return Err(SimError::Config {
                        key: other.to_string(),
                        reason: "unknown fault-plan key (known: seed, period_us, \
                                 start_us, max, mask_us)"
                            .into(),
                    })
                }
            }
        }
        Ok(plan)
    }
}

/// Per-scheduled-entry runtime state.
#[derive(Debug, Clone, Copy)]
struct EntryState {
    next_due: Ps,
    fired: u64,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    rng: SmallRng,
    states: Vec<EntryState>,
    /// Applied injections per fault-kind label (BTreeMap: deterministic
    /// manifest ordering).
    applied: BTreeMap<&'static str, u64>,
    attempted: u64,
    injected: u64,
    telemetry: Telemetry,
}

impl Inner {
    fn record(&mut self, label: &'static str, t_ps: u64, target: u64, applied: bool) {
        self.attempted += 1;
        self.telemetry.inc(names::FAULTS_ATTEMPTED, 1);
        if applied {
            self.injected += 1;
            *self.applied.entry(label).or_insert(0) += 1;
            self.telemetry.inc(names::FAULTS_INJECTED, 1);
        }
        self.telemetry.event(
            t_ps,
            names::EV_FAULT_INJECTED,
            &[
                ("kind", Json::Str(label.into())),
                ("target", Json::U64(target)),
                ("applied", Json::Bool(applied)),
            ],
        );
    }
}

/// Executes a [`FaultPlan`] against the live system. Cheap to clone
/// (shared handle); the `System` ticks it once per quantum.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    inner: Rc<RefCell<Inner>>,
}

impl FaultInjector {
    /// An injector executing `plan`, reporting through `telemetry`.
    pub fn new(plan: FaultPlan, telemetry: Telemetry) -> Self {
        let states = plan
            .entries
            .iter()
            .map(|e| EntryState {
                next_due: e.start,
                fired: 0,
            })
            .collect();
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultInjector {
            inner: Rc::new(RefCell::new(Inner {
                plan,
                rng,
                states,
                applied: BTreeMap::new(),
                attempted: 0,
                injected: 0,
                telemetry,
            })),
        }
    }

    /// Fires every scheduled fault due at or before `t_end` against `mcs`
    /// (one controller per sub-channel). Called once per quantum.
    pub fn tick(&self, t_end: Ps, mcs: &mut [MemController]) {
        if mcs.is_empty() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        for i in 0..inner.plan.entries.len() {
            let entry = inner.plan.entries[i];
            loop {
                let state = inner.states[i];
                if state.next_due > t_end || state.fired >= entry.max {
                    break;
                }
                let at = state.next_due;
                inner.states[i] = EntryState {
                    next_due: at + entry.period,
                    fired: state.fired + 1,
                };
                // Draw all selectors unconditionally so the RNG stream (and
                // with it every later draw) is independent of what applied.
                let target = inner.rng.next_u64() % mcs.len() as u64;
                let (a, b, c) = (
                    inner.rng.next_u64(),
                    inner.rng.next_u64(),
                    inner.rng.next_u64() as u32,
                );
                let mc = &mut mcs[target as usize];
                let applied = match entry.kind {
                    FaultKind::RctSeu => mc.inject_device_fault(
                        &DeviceFault::RctCounterBitFlip {
                            bank: a,
                            region: b,
                            bit: c,
                        },
                        at,
                    ),
                    FaultKind::QueueSeu => mc.inject_device_fault(
                        &DeviceFault::QueueTardinessBitFlip {
                            bank: a,
                            slot: b,
                            bit: c,
                        },
                        at,
                    ),
                    FaultKind::QueueLoss => mc
                        .inject_device_fault(&DeviceFault::QueueDropEntry { bank: a, slot: b }, at),
                    FaultKind::QueueDup => mc.inject_device_fault(
                        &DeviceFault::QueueDuplicateEntry { bank: a, slot: b },
                        at,
                    ),
                    FaultKind::AboDrop { mask } => {
                        mc.mask_alert_until(at + mask);
                        true
                    }
                };
                inner.record(entry.kind.label(), at.as_ps(), target, applied);
            }
        }
    }

    /// Total faults that changed state.
    pub fn total_injected(&self) -> u64 {
        self.inner.borrow().injected
    }

    /// Total injection attempts (including no-ops on empty structures).
    pub fn total_attempted(&self) -> u64 {
        self.inner.borrow().attempted
    }

    /// Manifest summary: plan identity, totals, applied counts per kind.
    pub fn summary_json(&self) -> Json {
        let inner = self.inner.borrow();
        let mut by_kind = Json::obj();
        for (&kind, &count) in &inner.applied {
            by_kind.push(kind, count);
        }
        let mut doc = Json::obj();
        doc.push("plan", inner.plan.name.as_str())
            .push("seed", inner.plan.seed)
            .push("attempted", inner.attempted)
            .push("injected", inner.injected)
            .push("injected_by_kind", by_kind);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_parse_and_unknown_names_fail() {
        for name in CANNED_PLANS {
            let plan = FaultPlan::parse(name).unwrap();
            assert_eq!(plan.name, name);
            assert!(!plan.entries.is_empty());
        }
        let err = FaultPlan::parse("cosmic-rays").unwrap_err();
        assert!(matches!(err, SimError::Config { .. }), "{err}");
        assert!(err.to_string().contains("cosmic-rays"), "{err}");
    }

    #[test]
    fn overrides_apply_and_unknown_keys_fail() {
        let plan = FaultPlan::parse("rct-seu:seed=9,period_us=3,start_us=1,max=5").unwrap();
        assert_eq!(plan.seed, 9);
        for e in &plan.entries {
            assert_eq!(e.period, Ps::from_us(3));
            assert_eq!(e.start, Ps::from_us(1));
            assert_eq!(e.max, 5);
        }
        let err = FaultPlan::parse("rct-seu:bogus=1").unwrap_err();
        assert!(
            matches!(err, SimError::Config { ref key, .. } if key == "bogus"),
            "{err}"
        );
        let err = FaultPlan::parse("rct-seu:period_us").unwrap_err();
        assert!(err.to_string().contains("key=value"), "{err}");
        let err = FaultPlan::parse("rct-seu:max=many").unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }
}
