//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* to perturb (SEUs in RCT counters and
//! MIRZA-Q tardiness fields, dropped ALERT raises, skipped refresh-pointer
//! steps, lost/duplicated queue entries, corrupted trace records) and
//! *when* (a periodic schedule per fault kind, in simulated time). The
//! [`FaultInjector`] executes the plan against the live memory controllers
//! once per simulation quantum, emitting a structured `fault_injected`
//! telemetry event per attempt and keeping a summary for the run manifest.
//!
//! Determinism: all randomness comes from `SmallRng`s seeded from the
//! plan's seed (trace corruption uses a per-core stream so its draws never
//! interleave with the scheduler's), and the schedule is driven by
//! simulated time only. Same seed + same plan ⇒ bit-identical fault
//! summaries; no plan ⇒ the injector is never constructed and the run is
//! bit-identical to an unfaulted one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use mirza_dram::mitigation::DeviceFault;
use mirza_dram::time::Ps;
use mirza_frontend::error::SimError;
use mirza_frontend::trace::{AccessStream, TraceOp};
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
    /// Jump the refresh pointer forward, skipping rows for one walk.
    RefreshSkip {
        /// REF slots skipped per injection.
        steps: u32,
    },
    /// Corrupt roughly 1-in-`one_in` trace records at the frontend
    /// boundary (not scheduled; applies continuously).
    TraceCorrupt {
        /// Expected records per corruption.
        one_in: u32,
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
            FaultKind::RefreshSkip { .. } => "refresh_skip",
            FaultKind::TraceCorrupt { .. } => "trace_corrupt",
        }
    }
}

/// One scheduled fault process: `kind` fires at `start`, then every
/// `period`, at most `max` times. `TraceCorrupt` entries ignore the
/// schedule (they act per trace record instead).
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
pub const CANNED_PLANS: [&str; 5] = [
    "rct-seu",
    "abo-drop",
    "queue-loss",
    "refresh-skip",
    "trace-corrupt",
];

/// A named, seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name (appears in manifests).
    pub name: String,
    /// Seed for all fault randomness (target/bit selection, corruption).
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
            "refresh-skip" => vec![every(FaultKind::RefreshSkip { steps: 4 }, 9, 70)],
            "trace-corrupt" => vec![PlannedFault {
                kind: FaultKind::TraceCorrupt { one_in: 4096 },
                start: Ps::ZERO,
                period: Ps::ZERO,
                max: u64::MAX,
            }],
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
    /// Keys: `seed`, `period_us`, `start_us`, `max` (all scheduled
    /// entries), `mask_us` (abo-drop), `steps` (refresh-skip), `one_in`
    /// (trace-corrupt).
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
                    for e in plan.entries.iter_mut().filter(|e| e.period > Ps::ZERO) {
                        e.period = Ps::from_us(num.max(1));
                    }
                }
                "start_us" => {
                    for e in plan.entries.iter_mut().filter(|e| e.period > Ps::ZERO) {
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
                "steps" => {
                    for e in &mut plan.entries {
                        if let FaultKind::RefreshSkip { steps } = &mut e.kind {
                            *steps = num as u32;
                        }
                    }
                }
                "one_in" => {
                    for e in &mut plan.entries {
                        if let FaultKind::TraceCorrupt { one_in } = &mut e.kind {
                            *one_in = (num as u32).max(1);
                        }
                    }
                }
                other => {
                    return Err(SimError::Config {
                        key: other.to_string(),
                        reason: "unknown fault-plan key (known: seed, period_us, \
                                 start_us, max, mask_us, steps, one_in)"
                            .into(),
                    })
                }
            }
        }
        Ok(plan)
    }

    /// The corruption rate of the plan's `TraceCorrupt` entry, if any.
    pub fn trace_one_in(&self) -> Option<u32> {
        self.entries.iter().find_map(|e| match e.kind {
            FaultKind::TraceCorrupt { one_in } => Some(one_in),
            _ => None,
        })
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
            if entry.period == Ps::ZERO {
                continue; // trace corruption acts per record, not per tick
            }
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
                    FaultKind::RefreshSkip { steps } => {
                        mc.skip_refresh_steps(steps);
                        true
                    }
                    FaultKind::TraceCorrupt { .. } => unreachable!("not scheduled"),
                };
                inner.record(entry.kind.label(), at.as_ps(), target, applied);
            }
        }
    }

    /// True when the plan corrupts trace records (the runner then wraps
    /// every core's stream in a [`CorruptingStream`]).
    pub fn corrupts_trace(&self) -> bool {
        self.inner.borrow().plan.trace_one_in().is_some()
    }

    /// Wraps `stream` so ~1-in-`one_in` records are corrupted, with a
    /// per-core RNG (seed ⊕ core) so corruption draws never interleave
    /// with the scheduler's.
    pub fn corrupting(&self, stream: Box<dyn AccessStream>, core: u32) -> Box<dyn AccessStream> {
        let inner = self.inner.borrow();
        let one_in = inner.plan.trace_one_in().unwrap_or(u32::MAX);
        let rng = SmallRng::seed_from_u64(
            inner.plan.seed ^ (u64::from(core).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        drop(inner);
        Box::new(CorruptingStream {
            stream,
            rng,
            one_in: u64::from(one_in.max(1)),
            injector: self.clone(),
            core,
            index: 0,
        })
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

/// An [`AccessStream`] adapter that flips bits in ~1-in-`one_in` records:
/// address bit flips, load/store inversions, or instruction-count upsets.
struct CorruptingStream {
    stream: Box<dyn AccessStream>,
    rng: SmallRng,
    one_in: u64,
    injector: FaultInjector,
    core: u32,
    index: u64,
}

impl AccessStream for CorruptingStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        let mut op = self.stream.next_op()?;
        self.index += 1;
        if self.rng.next_u64().is_multiple_of(self.one_in) {
            match self.rng.next_u64() % 3 {
                0 => op.vaddr ^= 1 << (self.rng.next_u64() % 48),
                1 => op.is_store = !op.is_store,
                _ => op.nonmem ^= 1 << (self.rng.next_u64() % 8),
            }
            // Trace faults have no device timestamp; the event carries the
            // record's stream position instead.
            self.injector
                .inner
                .borrow_mut()
                .record("trace_corrupt", 0, u64::from(self.core), true);
        }
        Some(op)
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

    #[test]
    fn trace_plan_is_unscheduled() {
        let plan = FaultPlan::parse("trace-corrupt:one_in=7").unwrap();
        assert_eq!(plan.trace_one_in(), Some(7));
        let inj = FaultInjector::new(plan, Telemetry::disabled());
        assert!(inj.corrupts_trace());
        // No controllers: tick must be a no-op, not a panic.
        inj.tick(Ps::from_us(1_000), &mut []);
        assert_eq!(inj.total_attempted(), 0);
    }

    #[test]
    fn corrupting_stream_is_deterministic_and_bounded() {
        use mirza_frontend::trace::VecStream;
        let ops: Vec<TraceOp> = (0..4096u64)
            .map(|i| TraceOp {
                nonmem: 3,
                vaddr: i * 64,
                is_store: false,
            })
            .collect();
        let run = || {
            let plan = FaultPlan::parse("trace-corrupt:one_in=64").unwrap();
            let inj = FaultInjector::new(plan, Telemetry::disabled());
            let mut s = inj.corrupting(Box::new(VecStream::once(ops.clone())), 0);
            let mut out = Vec::new();
            while let Some(op) = s.next_op() {
                out.push(op);
            }
            (out, inj.total_injected())
        };
        let (a, na) = run();
        let (b, nb) = run();
        assert_eq!(a, b, "same seed must corrupt identically");
        assert_eq!(na, nb);
        assert!(na > 0, "expected some corruption at 1-in-64 over 4096 ops");
        let flipped = a.iter().zip(&ops).filter(|(x, y)| x != y).count() as u64;
        assert!(flipped <= na, "corruptions {na} < visible flips {flipped}");
    }
}
