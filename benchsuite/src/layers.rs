//! Layer timing from outside the program.
//!
//! `System` exposes no seam below its input streams, so two pass-through
//! wrappers time the calls that do cross a public boundary (trace streams
//! and mitigators), and three replays drive the layers under `System` with
//! one cell's own traffic:
//!
//! * frontend: `Core::run` with `PageAllocator::translate` and
//!   `SetAssocCache::access`; each LLC miss completes after the cell's
//!   measured mean read latency. The replay produces the request stream.
//! * memctrl: one fresh `MemController` per sub-channel, fed that stream
//!   through `enqueue` and `run_until`, each core held to its MSHRs so the
//!   replay stays closed-loop. An untimed pass captures the
//!   command stream through the `TraceSink`; a second pass, with telemetry
//!   off, is the timed one. The controller's own device timing queries
//!   (`earliest_local_*`, `act_floor`, `col_floor`) fall into memctrl time.
//! * dram: `Subchannel::issue` over the captured commands, with the
//!   mitigator wrapped so tracker time splits out of device time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use mirza_dram::address::{BankId, RowMapping};
use mirza_dram::command::Command;
use mirza_dram::device::Subchannel;
use mirza_dram::mitigation::{DeviceFault, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_frontend::cache::{CacheOutcome, SetAssocCache};
use mirza_frontend::core::{AccessResult, Core, RunStatus};
use mirza_frontend::paging::PageAllocator;
use mirza_frontend::trace::{AccessStream, TraceOp};
use mirza_memctrl::controller::MemController;
use mirza_memctrl::mapping::AddressMapper;
use mirza_memctrl::request::{AccessKind, Request};
use mirza_sim::config::SimConfig;
use mirza_sim::runner::try_build_traces;
use mirza_sim::SimError;
use mirza_telemetry::{Telemetry, TraceSink};

use crate::median;

/// One call in `SAMPLE` is timed and scaled back up, as the device's own
/// tracker profiler does, so the two clock reads of a timed call do not
/// swamp calls that cost nanoseconds.
pub const SAMPLE: u64 = 16;

/// Counts calls and times a one-in-[`SAMPLE`] subset of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sampler {
    /// Calls made.
    pub calls: u64,
    samples: u64,
    sampled_ns: u128,
}

impl Sampler {
    /// Runs `f`, timing it when this call falls on the sampling grid.
    #[inline]
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.calls % SAMPLE != 1 {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.sampled_ns += t0.elapsed().as_nanos();
        self.samples += 1;
        r
    }

    /// Estimated seconds over every call: the mean sampled duration, less
    /// the clock's own cost `floor_ns`, times the number of calls.
    pub fn seconds(&self, floor_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let mean_ns = self.sampled_ns as f64 / self.samples as f64 - floor_ns;
        mean_ns.max(0.0) * self.calls as f64 / 1e9
    }
}

/// Cost of timing nothing: the median of back-to-back clock-read pairs,
/// subtracted from every sampled call.
pub fn clock_floor_ns() -> f64 {
    let pairs: Vec<f64> = (0..10_001)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .collect();
    median(&pairs)
}

/// Pass-through [`AccessStream`] that times `next_op` on a shared tally.
pub struct TimedStream {
    inner: Box<dyn AccessStream>,
    tally: Rc<RefCell<Sampler>>,
}

impl TimedStream {
    /// Wraps every stream of one cell around the same tally.
    pub fn wrap(
        streams: Vec<Box<dyn AccessStream>>,
        tally: &Rc<RefCell<Sampler>>,
    ) -> Vec<Box<dyn AccessStream>> {
        streams
            .into_iter()
            .map(|inner| {
                Box::new(TimedStream {
                    inner,
                    tally: Rc::clone(tally),
                }) as Box<dyn AccessStream>
            })
            .collect()
    }
}

impl AccessStream for TimedStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        let inner = &mut self.inner;
        self.tally.borrow_mut().call(|| inner.next_op())
    }
}

/// Sampled timers of one tracker, one per group of hooks, so a frequent
/// cheap hook and a rare costly one never share a sampling grid.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackerTally {
    /// `on_activate`.
    pub activate: Sampler,
    /// `alert_pending`.
    pub alert: Sampler,
    /// `on_ref`, `on_rfm` and `drain_mitigations`.
    pub refresh: Sampler,
}

impl TrackerTally {
    /// Estimated seconds inside the tracker.
    pub fn seconds(&self, floor_ns: f64) -> f64 {
        self.activate.seconds(floor_ns)
            + self.alert.seconds(floor_ns)
            + self.refresh.seconds(floor_ns)
    }
}

/// Pass-through [`Mitigator`]: delegates every method, the defaulted ones
/// included, and times the per-ACT, ALERT and refresh hooks.
pub struct TimedMitigator {
    inner: Box<dyn Mitigator>,
    tally: Rc<RefCell<TrackerTally>>,
}

impl TimedMitigator {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: Box<dyn Mitigator>, tally: &Rc<RefCell<TrackerTally>>) -> Self {
        TimedMitigator {
            inner,
            tally: Rc::clone(tally),
        }
    }
}

impl Mitigator for TimedMitigator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_activate(&mut self, bank: usize, row: u32, now: Ps) {
        let inner = &mut self.inner;
        self.tally
            .borrow_mut()
            .activate
            .call(|| inner.on_activate(bank, row, now));
    }

    fn alert_pending(&self) -> bool {
        self.tally
            .borrow_mut()
            .alert
            .call(|| self.inner.alert_pending())
    }

    fn on_ref(&mut self, slice: &RefreshSlice, now: Ps) {
        let inner = &mut self.inner;
        self.tally
            .borrow_mut()
            .refresh
            .call(|| inner.on_ref(slice, now));
    }

    fn on_rfm(&mut self, alert: bool, now: Ps) {
        let inner = &mut self.inner;
        self.tally
            .borrow_mut()
            .refresh
            .call(|| inner.on_rfm(alert, now));
    }

    fn stats(&self) -> MitigationStats {
        self.inner.stats()
    }

    fn mapping(&self) -> Option<&RowMapping> {
        self.inner.mapping()
    }

    fn drain_mitigations(&mut self) -> Vec<(usize, u32)> {
        let inner = &mut self.inner;
        self.tally
            .borrow_mut()
            .refresh
            .call(|| inner.drain_mitigations())
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    fn inject_fault(&mut self, fault: &DeviceFault, now: Ps) -> bool {
        self.inner.inject_fault(fault, now)
    }
}

/// An LLC miss or write-back the frontend replay sends towards memory.
#[derive(Debug, Clone, Copy)]
pub struct MemRequest {
    /// End of the quantum that produced it.
    pub horizon: Ps,
    /// Issue instant at the core.
    pub arrival: Ps,
    /// Issuing core.
    pub core: u32,
    /// Physical address.
    pub pa: u64,
    /// Demand read or write-back.
    pub kind: AccessKind,
}

/// What the frontend replay measured and produced.
#[derive(Debug)]
pub struct FrontendReplay {
    /// Host seconds in the replay loop, trace reads included.
    pub seconds: f64,
    /// Estimated host seconds inside `next_op` (the workloads layer).
    pub next_op_s: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Requests sent, in issue order.
    pub requests: Vec<MemRequest>,
}

/// The memory side of the frontend replay: paging, the LLC, and a fixed
/// latency standing in for the controller.
struct FrontState {
    pager: PageAllocator,
    llc: SetAssocCache,
    requests: Vec<MemRequest>,
    inflight: Vec<(u64, Ps)>,
    next_token: u64,
    horizon: Ps,
    latency: Ps,
}

impl FrontState {
    /// The same translate-then-LLC path as `System`'s benign cores.
    fn access(&mut self, core: usize, vaddr: u64, is_store: bool, now: Ps) -> AccessResult {
        let pa = self.pager.translate(core as u32, vaddr);
        match self.llc.access(pa / 64, is_store) {
            CacheOutcome::Hit => AccessResult::Ready,
            CacheOutcome::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.send(core, line * 64, AccessKind::Write, now);
                }
                self.send(core, pa, AccessKind::Read, now);
                let token = self.next_token;
                self.next_token += 1;
                self.inflight.push((token, now + self.latency));
                AccessResult::Pending(token)
            }
        }
    }

    fn send(&mut self, core: usize, pa: u64, kind: AccessKind, arrival: Ps) {
        self.requests.push(MemRequest {
            horizon: self.horizon,
            arrival,
            core: core as u32,
            pa,
            kind,
        });
    }
}

/// Replays `cfg`'s cores over freshly built traces of `workload`; every
/// LLC miss completes `latency` after it issues.
///
/// # Errors
/// The trace build's error for an unknown workload.
pub fn frontend(
    cfg: &SimConfig,
    workload: &str,
    latency: Ps,
    floor_ns: f64,
) -> Result<FrontendReplay, SimError> {
    let tally = Rc::new(RefCell::new(Sampler::default()));
    let streams = try_build_traces(workload, cfg.cores, cfg.seed, cfg.footprint_divisor)?;
    let mut cores: Vec<Core> = TimedStream::wrap(streams, &tally)
        .into_iter()
        .enumerate()
        .map(|(i, trace)| Core::new(i as u32, cfg.core_params, trace, cfg.instructions_per_core))
        .collect();
    let mut st = FrontState {
        pager: PageAllocator::new(cfg.geometry.total_bytes()),
        llc: SetAssocCache::new(cfg.llc_sets, 16),
        requests: Vec::new(),
        inflight: Vec::new(),
        next_token: 1,
        horizon: cfg.quantum,
        latency,
    };
    let t0 = Instant::now();
    while !cores.iter().all(Core::finished) {
        for (i, core) in cores.iter_mut().enumerate() {
            while !core.finished() {
                let horizon = st.horizon;
                let status = core.run(horizon, |v, s, now| st.access(i, v, s, now));
                let delivered = !st.inflight.is_empty();
                for (token, done) in st.inflight.drain(..) {
                    core.complete(token, done);
                }
                if status != RunStatus::Blocked || !delivered {
                    break;
                }
            }
        }
        st.horizon += cfg.quantum;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let next_op_s = tally.borrow().seconds(floor_ns);
    Ok(FrontendReplay {
        seconds,
        next_op_s,
        instructions: cores.iter().map(Core::instructions).sum(),
        requests: st.requests,
    })
}

/// Device and tracker counters of every sub-channel.
pub type DeviceState = Vec<(DeviceStats, MitigationStats)>;

/// Issued commands with their instants, per sub-channel.
pub type Commands = Vec<Vec<(Ps, Command)>>;

/// The command stream and device state of one memctrl replay.
#[derive(Debug)]
pub struct MemctrlReplay {
    /// Host seconds of the timed pass.
    pub seconds: f64,
    /// Commands issued per sub-channel, in issue order.
    pub commands: Commands,
    /// Device state after the timed pass.
    pub device: DeviceState,
    /// Whether the capture pass ended in the same device state.
    pub deterministic: bool,
}

/// The tracker `System::new` builds for sub-channel `subch`, same seed.
fn tracker(cfg: &SimConfig, subch: u32) -> Box<dyn Mitigator> {
    cfg.mitigation.build(
        &cfg.geometry,
        cfg.seed.wrapping_add(u64::from(subch) * 7919),
    )
}

/// A sub-channel configured as `System::new` configures it.
fn subchannel(cfg: &SimConfig, mitigator: Box<dyn Mitigator>) -> Subchannel {
    let mut device = Subchannel::new(
        cfg.timing(),
        cfg.geometry,
        RowMapping::for_geometry(cfg.metrics_mapping, &cfg.geometry),
        mitigator,
    );
    device.set_rowpress_weighting(cfg.rowpress);
    device
}

fn controllers(cfg: &SimConfig) -> Vec<MemController> {
    (0..cfg.geometry.subchannels)
        .map(|s| {
            MemController::new(
                subchannel(cfg, tracker(cfg, s)),
                cfg.mitigation.mc_config(),
                s,
            )
        })
        .collect()
}

fn device_state(mcs: &[MemController]) -> DeviceState {
    mcs.iter()
        .map(|mc| (*mc.device().stats(), mc.device().mitigation_stats()))
        .collect()
}

/// Feeds `requests` quantum by quantum, as the simulation loop does, then
/// runs on until every controller has drained. Each core keeps at most
/// `mshr` demand reads outstanding: a read that finds them full waits for
/// one of the core's reads to complete, and the core's later requests slip
/// by the same delay. That keeps the replay closed-loop, so controller
/// queues stay as deep as the simulation's instead of growing unbounded.
fn feed(
    mcs: &mut [MemController],
    mapper: &AddressMapper,
    requests: &[MemRequest],
    cores: usize,
    mshr: usize,
    quantum: Ps,
) {
    let mut queues = vec![VecDeque::new(); cores];
    for r in requests {
        queues[r.core as usize].push_back(*r);
    }
    let mut remaining = requests.len();
    // Owning core of each request id, `None` for write-backs.
    let mut reader: Vec<Option<usize>> = Vec::with_capacity(requests.len());
    let mut outstanding = vec![0usize; cores];
    let mut blocked = vec![false; cores];
    let mut last_free = vec![Ps::ZERO; cores];
    let mut lag = vec![Ps::ZERO; cores];
    let mut done = Vec::new();
    let mut horizon = quantum;
    loop {
        loop {
            let mut sent = false;
            for c in 0..cores {
                while let Some(r) = queues[c].front().copied() {
                    if r.horizon + lag[c] > horizon {
                        break;
                    }
                    let read = r.kind == AccessKind::Read;
                    let mut arrival = r.arrival + lag[c];
                    if read {
                        if outstanding[c] >= mshr {
                            blocked[c] = true;
                            break;
                        }
                        if std::mem::take(&mut blocked[c]) && last_free[c] > arrival {
                            lag[c] += last_free[c] - arrival;
                            arrival = last_free[c];
                        }
                        outstanding[c] += 1;
                    }
                    queues[c].pop_front();
                    remaining -= 1;
                    sent = true;
                    reader.push(read.then_some(c));
                    let addr = mapper.decode(r.pa);
                    mcs[addr.bank.subch as usize].enqueue(Request {
                        id: reader.len() as u64,
                        addr,
                        kind: r.kind,
                        arrival,
                    });
                }
            }
            for mc in mcs.iter_mut() {
                mc.run_until(horizon, &mut done);
            }
            let mut freed = false;
            for d in done.drain(..) {
                if let Some(c) = reader[(d.id - 1) as usize] {
                    outstanding[c] -= 1;
                    last_free[c] = last_free[c].max(d.done_at);
                    freed = true;
                }
            }
            if !(sent || freed) {
                break;
            }
        }
        if remaining == 0 && mcs.iter().all(|mc| mc.pending_requests() == 0) {
            return;
        }
        horizon += quantum;
    }
}

/// Line sink that parses `TraceSink` command lines back into commands.
struct CommandCapture {
    line: Vec<u8>,
    commands: Rc<RefCell<Commands>>,
}

impl Write for CommandCapture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b != b'\n' {
                self.line.push(b);
                continue;
            }
            let text = String::from_utf8_lossy(&self.line);
            let (subch, at, cmd) = parse_command(&text)
                .unwrap_or_else(|| panic!("unparsable command trace line {text:?}"));
            self.commands.borrow_mut()[subch].push((at, cmd));
            self.line.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parses one `<t_ps> <CMD> sc<n> [ra<r> ba<b> row<r>|col<c>]` line.
fn parse_command(line: &str) -> Option<(usize, Ps, Command)> {
    let mut f = line.split_whitespace();
    let at = Ps::from_ps(f.next()?.parse().ok()?);
    let kind = f.next()?;
    let subch: u32 = f.next()?.strip_prefix("sc")?.parse().ok()?;
    let mut num = |prefix: &str| -> Option<u32> { f.next()?.strip_prefix(prefix)?.parse().ok() };
    let cmd = match kind {
        "PREA" => Command::PreAll,
        "REF" => Command::Ref,
        "RFM" => Command::Rfm { alert: false },
        "RFM-ABO" => Command::Rfm { alert: true },
        _ => {
            let bank = BankId::new(subch, num("ra")?, num("ba")?);
            match kind {
                "ACT" => Command::Act {
                    bank,
                    row: num("row")?,
                },
                "PRE" => Command::Pre { bank },
                "RD" => Command::Rd {
                    bank,
                    col: num("col")?,
                },
                "WR" => Command::Wr {
                    bank,
                    col: num("col")?,
                },
                _ => return None,
            }
        }
    };
    Some((subch as usize, at, cmd))
}

/// Replays `requests` through fresh controllers: an untimed pass that
/// captures the command stream, then the timed pass with telemetry off.
pub fn memctrl(cfg: &SimConfig, requests: &[MemRequest]) -> MemctrlReplay {
    let mapper = AddressMapper::mop4(cfg.geometry);
    let captured = Rc::new(RefCell::new(vec![
        Vec::new();
        cfg.geometry.subchannels as usize
    ]));
    let capture = CommandCapture {
        line: Vec::new(),
        commands: Rc::clone(&captured),
    };
    let telemetry = Telemetry::enabled().with_trace(TraceSink::new(Box::new(capture)));
    let mut mcs = controllers(cfg);
    for mc in &mut mcs {
        mc.set_telemetry(telemetry.clone());
    }
    feed(
        &mut mcs,
        &mapper,
        requests,
        cfg.cores,
        cfg.core_params.mshr,
        cfg.quantum,
    );
    let captured_state = device_state(&mcs);
    drop(mcs);
    drop(telemetry);

    let mut mcs = controllers(cfg);
    let t0 = Instant::now();
    feed(
        &mut mcs,
        &mapper,
        requests,
        cfg.cores,
        cfg.core_params.mshr,
        cfg.quantum,
    );
    let seconds = t0.elapsed().as_secs_f64();
    let device = device_state(&mcs);
    MemctrlReplay {
        seconds,
        commands: captured.take(),
        deterministic: device == captured_state,
        device,
    }
}

/// What the dram replay measured.
#[derive(Debug)]
pub struct DramReplay {
    /// Host seconds issuing commands, tracker calls included.
    pub seconds: f64,
    /// Estimated host seconds inside the trackers.
    pub tracker_s: f64,
    /// Commands issued.
    pub commands: u64,
    /// Device state after the replay.
    pub device: DeviceState,
}

/// Re-issues the captured commands on fresh devices whose mitigators are
/// wrapped in [`TimedMitigator`].
pub fn dram(cfg: &SimConfig, commands: &Commands, floor_ns: f64) -> DramReplay {
    let mut out = DramReplay {
        seconds: 0.0,
        tracker_s: 0.0,
        commands: 0,
        device: Vec::new(),
    };
    for (subch, cmds) in (0u32..).zip(commands) {
        let tally = Rc::new(RefCell::new(TrackerTally::default()));
        let timed = TimedMitigator::new(tracker(cfg, subch), &tally);
        let mut device = subchannel(cfg, Box::new(timed));
        let t0 = Instant::now();
        for &(at, cmd) in cmds {
            device.issue(cmd, at);
        }
        out.seconds += t0.elapsed().as_secs_f64();
        out.tracker_s += tally.borrow().seconds(floor_ns);
        out.commands += cmds.len() as u64;
        out.device
            .push((*device.stats(), device.mitigation_stats()));
    }
    out
}
