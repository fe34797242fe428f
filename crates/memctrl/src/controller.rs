//! The per-sub-channel memory controller: FR-FCFS scheduling with a soft
//! close-page policy, on-time refresh, proactive RFM (Bank-Activation
//!-Threshold counters) and reactive ALERT back-off servicing.

use std::collections::VecDeque;

use mirza_dram::address::BankId;
use mirza_dram::command::Command;
use mirza_dram::device::Subchannel;
use mirza_dram::mitigation::DeviceFault;
use mirza_dram::time::Ps;
use mirza_telemetry::{names, Json, StallBucket, Telemetry};

use crate::request::{AccessKind, Completion, McStats, Request};

/// Controller policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McConfig {
    /// Proactive RFM: issue an RFM once any bank accumulates this many ACTs
    /// (`None` disables proactive RFM).
    pub rfm_bat: Option<u32>,
    /// Refresh postponement budget: demand traffic may run up to this many
    /// tREFI past a due REF before refresh preempts it (DDR5 permits up to
    /// 4 postponed REFs; 0 = strict on-time refresh).
    pub postpone_refs: u32,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: Request,
    needed_act: bool,
    needed_pre: bool,
    /// When the first ACT/PRE was issued on this request's behalf — the
    /// instant it became the oldest request needing its bank. `None` for
    /// pure row hits; feeds the span layer's queue-vs-bank stall split.
    own_cmd_at: Option<Ps>,
}

/// Candidate kinds. The five demand kinds double as indices into
/// `MemController::groups`.
const KIND_RD: usize = 0;
const KIND_WR: usize = 1;
const KIND_ACT: usize = 2;
const KIND_CONFLICT: usize = 3;
const KIND_SOFTCLOSE: usize = 4;
const KIND_IDLE: usize = 5;
const GROUPS: usize = 5;

/// FR-FCFS scheduling class per demand kind: column > activate >
/// precharge > soft close.
const CLASS: [u8; GROUPS] = [0, 0, 1, 2, 3];

/// One bank's next demand command: its kind (`KIND_*`), the row (ACT) or
/// column (RD/WR) it names, and the floor-free candidate pre-packed at
/// re-plan time, `pack_cand(max(local, arrival), class, arrival, flat)`
/// (`u128::MAX` when idle). The selection instant is that key folded with
/// the kind's shared floor (see [`with_floor`]), because
/// `max(local, floor, block, arrival, now)` factors into
/// `max(max(local, arrival), max(floor, block, now))`.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    kind: usize,
    arg: u32,
    packed: u128,
}

const IDLE_ENTRY: ScanEntry = ScanEntry {
    kind: KIND_IDLE,
    arg: 0,
    packed: u128::MAX,
};

/// Packed scan-candidate layout: `[at:48 | class:8 | arr:48 | flat:8]`.
/// Ordering a candidate by this u128 is exactly the FR-FCFS selection rule
/// — `(at, class, arrival)` strict `<` with the lowest flat index winning
/// ties (the bank a full ascending scan would visit first). 48 bits hold
/// any real instant (2^48 ps ≈ 78 h of simulated time); arrivals saturate
/// so the SoftClose `Ps::MAX` sentinel still compares above every real one.
const PACK_MASK48: u64 = (1 << 48) - 1;
const PACK_ARR: u32 = 8;
const PACK_CLASS: u32 = 8 + 48;
const PACK_AT: u32 = 8 + 48 + 8;
/// Everything below the `at` field: `[class | arr | flat]`.
const PACK_LOW_MASK: u128 = (1u128 << PACK_AT) - 1;

#[inline]
fn pack_cand(at: Ps, class: u8, arr: Ps, flat: usize) -> u128 {
    debug_assert!(at.as_ps() <= PACK_MASK48, "instant exceeds 48-bit pack");
    debug_assert!(flat <= 0xff, "flat bank index exceeds 8-bit pack");
    (u128::from(at.as_ps()) << PACK_AT)
        | (u128::from(class) << PACK_CLASS)
        | (u128::from(arr.as_ps().min(PACK_MASK48)) << PACK_ARR)
        | flat as u128
}

/// Folds a packed floor (an instant in the `at` field, zeros below) into a
/// floor-free candidate: identical to re-packing `max(key, floor)`, since
/// the low bits match, and branchless, so a scan's `min` compiles to
/// compare+cmov instead of the unpredictable branch chain a tuple compare
/// produces.
#[inline]
fn with_floor(packed: u128, floor: u128) -> u128 {
    packed.max(floor | (packed & PACK_LOW_MASK))
}

/// The flat bank index a packed candidate names.
#[inline]
fn cand_flat(packed: u128) -> usize {
    (packed & 0xff) as usize
}

/// A set of flat bank indices, one bit each: at most 64 banks, two DDR5
/// ranks. One word keeps a scan to a `trailing_zeros` per member.
#[derive(Debug, Clone, Copy, Default)]
struct BankSet(u64);

impl BankSet {
    fn insert(&mut self, flat: usize) {
        self.0 |= 1 << flat;
    }

    fn remove(&mut self, flat: usize) {
        self.0 &= !(1 << flat);
    }

    /// Members in ascending order: a full scan's visit order.
    fn iter(self) -> impl Iterator<Item = usize> {
        let mut word = self.0;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let flat = word.trailing_zeros() as usize;
                word &= word - 1;
                flat
            })
        })
    }
}

/// The banks whose next demand command is of one kind, with their
/// smallest candidate cached.
#[derive(Debug, Clone, Copy)]
struct Group {
    members: BankSet,
    /// The members' smallest candidate with the kind's shared floor applied
    /// (`u128::MAX` when empty). Meaningless while `dirty`.
    best: u128,
    /// Set when the kind's floor moved or the winner left the group: the
    /// next pick rescans the members.
    dirty: bool,
}

const DIRTY_GROUP: Group = Group {
    members: BankSet(0),
    best: u128::MAX,
    dirty: true,
};

/// Memory controller driving one [`Subchannel`].
///
/// The controller is event-driven: [`MemController::run_until`] issues every
/// command whose legal issue instant falls inside the window and returns the
/// read/write completions produced.
pub struct MemController {
    device: Subchannel,
    cfg: McConfig,
    subch: u32,
    queues: Vec<VecDeque<Queued>>,
    /// Each bank's next demand command, flat-indexed alongside `queues`.
    /// Valid unless the bank is in `stale`.
    entries: Vec<ScanEntry>,
    /// The banks of each demand kind, indexed by `KIND_*`, each with its
    /// cached winner. A pick re-plans the `stale` banks, rescans only the
    /// dirty groups and takes the smallest of the five winners.
    groups: [Group; GROUPS],
    /// Banks mutated since the last pick (a command issued to them or a
    /// request enqueued on them). They belong to no group until re-planned.
    stale: BankSet,
    /// Each flat index's bank, so the hot path never divides by the
    /// banks per rank.
    bank_ids: Vec<BankId>,
    /// Banks whose activation counter has crossed `cfg.rfm_bat` since the
    /// last proactive RFM — the O(1) stand-in for scanning `raa`.
    raa_armed: u32,
    /// Outstanding requests across all bank queues (see
    /// [`MemController::pending_requests`]).
    pending: usize,
    /// The already-computed next command and its instant, carried across
    /// [`MemController::run_until`] calls. Valid until a command issues, a
    /// request arrives or a fault hook fires.
    cached_next: Option<(Command, Ps)>,
    /// Per-bank activation counters for proactive RFM (reset on RFM).
    raa: Vec<u32>,
    now: Ps,
    /// Instant the current ALERT was observed, if one is being serviced.
    alert_observed_at: Option<Ps>,
    stats: McStats,
    telemetry: Telemetry,
    /// Cached `telemetry.has_spans()` so the hot path tests one local bool
    /// instead of borrowing the recorder.
    spans: bool,
    /// Length of the current streak of row-buffer hits (for the
    /// `mc.row_hit_run` histogram; flushed when a miss/conflict breaks it).
    hit_run: u64,
}

impl std::fmt::Debug for MemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemController")
            .field("subch", &self.subch)
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemController {
    /// Creates a controller for sub-channel index `subch` of the channel.
    pub fn new(mut device: Subchannel, cfg: McConfig, subch: u32) -> Self {
        let nbanks = device.geometry().banks_per_subchannel() as usize;
        assert!(nbanks <= 64, "a sub-channel holds at most 64 banks");
        device.set_subch_index(subch);
        let mut mc = MemController {
            cfg,
            subch,
            queues: vec![VecDeque::new(); nbanks],
            entries: vec![IDLE_ENTRY; nbanks],
            groups: [DIRTY_GROUP; GROUPS],
            stale: BankSet::default(),
            bank_ids: (0..nbanks as u32)
                .map(|flat| {
                    let banks = device.geometry().banks;
                    BankId::new(subch, flat / banks, flat % banks)
                })
                .collect(),
            raa_armed: 0,
            pending: 0,
            cached_next: None,
            raa: vec![0; nbanks],
            now: Ps::ZERO,
            alert_observed_at: None,
            stats: McStats::default(),
            telemetry: Telemetry::disabled(),
            spans: false,
            hit_run: 0,
            device,
        };
        mc.mark_all_stale();
        mc
    }

    /// Marks bank `flat`'s entry out of date until the next pick re-plans
    /// it. The bank leaves its group; a group losing its winner goes dirty.
    #[inline]
    fn stale_bank(&mut self, flat: usize) {
        let entry = &mut self.entries[flat];
        if let Some(g) = self.groups.get_mut(entry.kind) {
            g.members.remove(flat);
            g.dirty |= cand_flat(g.best) == flat;
        }
        *entry = IDLE_ENTRY;
        self.stale.insert(flat);
    }

    /// Marks every bank stale, after a command that blocks them all.
    fn mark_all_stale(&mut self) {
        self.entries.fill(IDLE_ENTRY);
        self.groups = [DIRTY_GROUP; GROUPS];
        self.stale = BankSet(u64::MAX >> (64 - self.entries.len()));
    }

    /// Attaches a telemetry handle (cloned down into the device and its
    /// mitigator). Both sub-channel controllers share one handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.device.set_telemetry(telemetry.clone());
        self.spans = telemetry.has_spans();
        self.telemetry = telemetry;
    }

    /// Flushes end-of-run telemetry state (the trailing row-hit streak).
    pub fn finish_telemetry(&mut self) {
        if self.hit_run > 0 {
            self.telemetry.observe(names::MC_ROW_HIT_RUN, self.hit_run);
            self.hit_run = 0;
        }
    }

    /// The device this controller drives.
    pub fn device(&self) -> &Subchannel {
        &self.device
    }

    /// Fault-injection hook: forwards a state fault to the device's
    /// mitigation engine, returning whether it changed anything.
    pub fn inject_device_fault(&mut self, fault: &DeviceFault, now: Ps) -> bool {
        self.cached_next = None;
        self.device.inject_fault(fault, now)
    }

    /// Fault-injection hook: suppresses the device's ALERT assertion until
    /// device time reaches `until` (a dropped/delayed raise).
    pub fn mask_alert_until(&mut self, until: Ps) {
        self.cached_next = None;
        self.device.mask_alert_until(until);
    }

    /// Fault-injection hook: jumps the device's refresh pointer forward by
    /// `steps` REF slots without refreshing the skipped rows.
    pub fn skip_refresh_steps(&mut self, steps: u32) {
        self.cached_next = None;
        self.device.skip_refresh_steps(steps);
    }

    /// Scheduling statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The controller's current time (last command issue instant).
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Outstanding requests across all bank queues (running counter; the
    /// queue-occupancy histogram samples this on every arrival, so summing
    /// the per-bank queue lengths each time would be O(banks) on a hot
    /// path).
    pub fn pending_requests(&self) -> usize {
        self.pending
    }

    /// Enqueues a request.
    ///
    /// # Panics
    /// Panics if the request targets a different sub-channel.
    pub fn enqueue(&mut self, req: Request) {
        assert_eq!(
            req.addr.bank.subch, self.subch,
            "request routed to wrong sub-channel"
        );
        let flat = req.addr.bank.flat_in_subchannel(self.device.geometry());
        self.queues[flat].push_back(Queued {
            req,
            needed_act: false,
            needed_pre: false,
            own_cmd_at: None,
        });
        self.pending += 1;
        self.stale_bank(flat);
        self.cached_next = None;
        if self.telemetry.is_enabled() {
            self.telemetry
                .observe(names::MC_QUEUE_OCCUPANCY, self.pending_requests() as u64);
        }
    }

    /// Bank `flat`'s next demand command from its queue and row state,
    /// with the *bank-local* release: the shared floors are applied at
    /// selection time (see [`MemController::floor`]).
    fn plan(&self, flat: usize) -> ScanEntry {
        let q = &self.queues[flat];
        let open = self.device.open_row_flat(flat);
        let (kind, arg, key, arrival) = match (open, q.front()) {
            (None, None) => return IDLE_ENTRY,
            // Soft close-page: close an idle open row once tRAS allows.
            (Some(_), None) => (
                KIND_SOFTCLOSE,
                0,
                self.device.earliest_local_pre(flat).expect("row open"),
                Ps::MAX,
            ),
            // Row hits anywhere in the queue are served first (FR-FCFS).
            (Some(row), Some(oldest)) => match q.iter().find(|x| x.req.addr.row == row) {
                Some(hit) => {
                    let write = matches!(hit.req.kind, AccessKind::Write);
                    let local = if write {
                        self.device.earliest_local_wr(flat, row)
                    } else {
                        self.device.earliest_local_rd(flat, row)
                    }
                    .expect("open row matches hit");
                    (
                        if write { KIND_WR } else { KIND_RD },
                        hit.req.addr.col,
                        local.max(hit.req.arrival),
                        hit.req.arrival,
                    )
                }
                // Conflict: close the open row for the oldest request.
                None => (
                    KIND_CONFLICT,
                    0,
                    self.device
                        .earliest_local_pre(flat)
                        .expect("row open")
                        .max(oldest.req.arrival),
                    oldest.req.arrival,
                ),
            },
            // Bank closed: activate for the oldest request.
            (None, Some(oldest)) => (
                KIND_ACT,
                oldest.req.addr.row,
                self.device
                    .earliest_local_act(flat)
                    .expect("bank closed")
                    .max(oldest.req.arrival),
                oldest.req.arrival,
            ),
        };
        ScanEntry {
            kind,
            arg,
            packed: pack_cand(key, CLASS[kind], arrival, flat),
        }
    }

    /// The shared floor under a `kind` candidate on bank `flat`'s rank,
    /// packed into the `at` field: the kind's device floor (rank ACT window
    /// or column/bus), the global block floor and `now`.
    fn floor(&self, kind: usize, flat: usize) -> u128 {
        let base = self.device.block_floor().max(self.now);
        let floor = match kind {
            KIND_RD => self.device.col_floor(false),
            KIND_WR => self.device.col_floor(true),
            KIND_ACT => self.device.act_floor(self.bank_ids[flat].rank as usize),
            _ => base,
        }
        .max(base);
        u128::from(floor.as_ps().min(PACK_MASK48)) << PACK_AT
    }

    /// Recomputes group `kind`'s winner over all its members. Members come
    /// in ascending flat order, so the floor is recomputed only when the
    /// scan crosses into the next rank.
    fn rescan(&mut self, kind: usize) {
        let mut best = u128::MAX;
        let (mut rank, mut floor) = (u32::MAX, 0);
        for flat in self.groups[kind].members.iter() {
            if self.bank_ids[flat].rank != rank {
                rank = self.bank_ids[flat].rank;
                floor = self.floor(kind, flat);
            }
            best = best.min(with_floor(self.entries[flat].packed, floor));
        }
        let g = &mut self.groups[kind];
        g.best = best;
        g.dirty = false;
    }

    /// Picks the best demand-side candidate (column > activate > precharge,
    /// earliest issue time first, oldest request breaking ties): re-plans
    /// the stale banks, folding each into its group, rescans the dirty
    /// groups and takes the smallest winner.
    ///
    /// Exact without a full scan. A clean group's winner still stands: no
    /// member changed (a mutated bank leaves its group until re-planned,
    /// and a group that loses its winner goes dirty) and its floor did not
    /// move (a command that moves a shared floor dirties that floor's
    /// group; PREA, REF and RFM mark every bank stale). `now` moves only
    /// when a command issues, and a demand command issues at the minimum
    /// over every candidate, so no candidate's `max` with `now` changes.
    fn best_demand(&mut self) -> Option<(Command, Ps)> {
        for flat in std::mem::take(&mut self.stale).iter() {
            let e = self.plan(flat);
            self.entries[flat] = e;
            if e.kind == KIND_IDLE {
                continue;
            }
            self.groups[e.kind].members.insert(flat);
            if !self.groups[e.kind].dirty {
                let cand = with_floor(e.packed, self.floor(e.kind, flat));
                let g = &mut self.groups[e.kind];
                g.best = g.best.min(cand);
            }
        }
        for kind in 0..GROUPS {
            if self.groups[kind].dirty {
                self.rescan(kind);
            }
        }
        let best = self.groups.iter().fold(u128::MAX, |b, g| b.min(g.best));
        let pick = self.decode(best, |flat| self.entries[flat]);
        #[cfg(test)]
        assert_eq!(
            pick,
            self.reference_demand(),
            "cached pick diverged from the full fold"
        );
        pick
    }

    /// The command and instant a packed winner names, reading the winning
    /// bank's entry from `entry`; `None` for `u128::MAX` (no candidate).
    fn decode(&self, best: u128, entry: impl FnOnce(usize) -> ScanEntry) -> Option<(Command, Ps)> {
        if best == u128::MAX {
            return None;
        }
        let flat = cand_flat(best);
        let e = entry(flat);
        let bank = self.bank_ids[flat];
        let cmd = match e.kind {
            KIND_RD => Command::Rd { bank, col: e.arg },
            KIND_WR => Command::Wr { bank, col: e.arg },
            KIND_ACT => Command::Act { bank, row: e.arg },
            _ => Command::Pre { bank },
        };
        Some((cmd, Ps::from_ps((best >> PACK_AT) as u64)))
    }

    /// The full fold the groups replace: every bank re-planned and folded
    /// with its floor. Tests check every pick against it.
    #[cfg(test)]
    fn reference_demand(&self) -> Option<(Command, Ps)> {
        let best = (0..self.queues.len())
            .map(|flat| {
                let e = self.plan(flat);
                match e.kind {
                    KIND_IDLE => u128::MAX,
                    kind => with_floor(e.packed, self.floor(kind, flat)),
                }
            })
            .min()?;
        self.decode(best, |flat| self.plan(flat))
    }

    /// The next command the controller wants to issue, with its instant.
    fn next_action(&mut self) -> Option<(Command, Ps)> {
        let t = self.device.timing();
        // 1. ALERT back-off has absolute priority.
        if let Some(t0) = self.alert_observed_at {
            if !self.device.all_precharged() {
                let e = self.device.earliest(&Command::PreAll)?;
                return Some((Command::PreAll, e.max(self.now)));
            }
            let e = self
                .device
                .earliest(&Command::Rfm { alert: true })
                .expect("all banks precharged");
            let at = e.max(t0 + t.t_alert_prologue).max(self.now);
            return Some((Command::Rfm { alert: true }, at));
        }
        // 2. Proactive RFM when a bank's activation counter reaches BAT.
        if let Some(bat) = self.cfg.rfm_bat {
            if bat == 0 || self.raa_armed > 0 {
                if !self.device.all_precharged() {
                    let e = self.device.earliest(&Command::PreAll)?;
                    return Some((Command::PreAll, e.max(self.now)));
                }
                let e = self
                    .device
                    .earliest(&Command::Rfm { alert: false })
                    .expect("all banks precharged");
                return Some((Command::Rfm { alert: false }, e.max(self.now)));
            }
        }
        // 3. Demand traffic until refresh is due (plus any postponement
        // budget). Postponed REFs are repaid back-to-back afterwards.
        let ref_deadline =
            self.device.next_ref_due().max(self.now) + t.t_refi * u64::from(self.cfg.postpone_refs);
        if let Some((cmd, at)) = self.best_demand() {
            if at < ref_deadline {
                return Some((cmd, at));
            }
        }
        let ref_at = self.device.next_ref_due().max(self.now);
        // 4. Refresh path: precharge everything, then REF on time.
        if self.device.all_precharged() {
            let e = self.device.earliest(&Command::Ref).expect("precharged");
            Some((Command::Ref, e.max(ref_at)))
        } else {
            let e = self.device.earliest(&Command::PreAll)?;
            Some((Command::PreAll, e.max(self.now)))
        }
    }

    /// The next command and its instant, computed at most once per state
    /// change: the cache survives across `run_until` calls while nothing
    /// issues, arrives, or faults.
    fn peek_next(&mut self) -> (Command, Ps) {
        if let Some(n) = self.cached_next {
            return n;
        }
        let n = self
            .next_action()
            .expect("controller always has a next action (refresh fallback)");
        self.cached_next = Some(n);
        n
    }

    fn mark_head(&mut self, flat: usize, act: bool) {
        let spans = self.spans;
        let now = self.now;
        if let Some(head) = self.queues[flat].front_mut() {
            if act {
                head.needed_act = true;
            } else {
                head.needed_pre = true;
            }
            if spans && head.own_cmd_at.is_none() {
                head.own_cmd_at = Some(now);
            }
        }
    }

    /// Issues every command whose legal instant is at or before `t_end`,
    /// appending read/write completions to `out`.
    ///
    /// The next command is served from the cross-call cache
    /// ([`MemController::peek_next`]), so a pass with nothing to issue costs
    /// one comparison.
    pub fn run_until(&mut self, t_end: Ps, out: &mut Vec<Completion>) {
        let (mut batch_reads, mut batch_writes) = (0u64, 0u64);
        let (mut batch_acts, mut batch_refs) = (0u64, 0u64);
        loop {
            let (cmd, at) = self.peek_next();
            if at > t_end {
                // Nothing issuable in the window: keep the cache for the
                // next pass.
                break;
            }
            self.cached_next = None;
            self.now = at;
            self.telemetry
                .trace_line(|| trace_line(self.subch, &cmd, at));
            match cmd {
                Command::Rd { bank, col } | Command::Wr { bank, col } => {
                    let flat = bank.flat_in_subchannel(self.device.geometry());
                    let row = self.device.open_row(bank).expect("column to open row");
                    let pos = self.queues[flat]
                        .iter()
                        .position(|x| x.req.addr.row == row && x.req.addr.col == col)
                        .expect("queued request for column command");
                    let q = self.queues[flat].remove(pos).expect("position valid");
                    self.pending -= 1;
                    let issued = self.device.issue(cmd, at);
                    self.stale_bank(flat);
                    // A column command moves both column floors.
                    self.groups[KIND_RD].dirty = true;
                    self.groups[KIND_WR].dirty = true;
                    let done = issued.data_ready.expect("column returns data time");
                    if self.spans {
                        self.telemetry.span_request(
                            self.subch,
                            flat,
                            q.req.arrival.as_ps(),
                            q.own_cmd_at.map(Ps::as_ps),
                            at.as_ps(),
                        );
                    }
                    // Row-buffer classification.
                    if q.needed_pre {
                        self.stats.row_conflicts += 1;
                    } else if q.needed_act {
                        self.stats.row_misses += 1;
                    } else {
                        self.stats.row_hits += 1;
                    }
                    if self.telemetry.is_enabled() {
                        if q.needed_pre || q.needed_act {
                            self.finish_telemetry();
                        } else {
                            self.hit_run += 1;
                        }
                    }
                    match q.req.kind {
                        AccessKind::Read => {
                            self.stats.reads_done += 1;
                            self.stats.read_latency_ps += (done - q.req.arrival).as_ps();
                            batch_reads += 1;
                            self.telemetry.observe(
                                names::MC_READ_LATENCY_NS,
                                (done - q.req.arrival).as_ps() / 1000,
                            );
                            out.push(Completion {
                                id: q.req.id,
                                done_at: done,
                            });
                        }
                        AccessKind::Write => {
                            self.stats.writes_done += 1;
                            batch_writes += 1;
                            out.push(Completion {
                                id: q.req.id,
                                done_at: at,
                            });
                        }
                    }
                }
                Command::Act { bank, .. } => {
                    let flat = bank.flat_in_subchannel(self.device.geometry());
                    self.mark_head(flat, true);
                    self.raa[flat] += 1;
                    if self.cfg.rfm_bat == Some(self.raa[flat]) {
                        self.raa_armed += 1;
                    }
                    self.device.issue(cmd, at);
                    // The ACT moved its rank's ACT floor; its group went
                    // dirty when the winner left it.
                    self.stale_bank(flat);
                    batch_acts += 1;
                }
                Command::Pre { bank } => {
                    let flat = bank.flat_in_subchannel(self.device.geometry());
                    // Mark only when the close is on behalf of a waiting miss.
                    if !self.queues[flat].is_empty() {
                        self.mark_head(flat, false);
                    }
                    self.device.issue(cmd, at);
                    self.stale_bank(flat);
                }
                Command::PreAll => {
                    self.device.issue(cmd, at);
                    self.mark_all_stale();
                }
                Command::Ref => {
                    if self.spans {
                        // Classify the whole tRFC window by whether the
                        // mitigator piggybacked victim refreshes on this
                        // REF (TRR-style) — the delta in its counter across
                        // the issue tells us.
                        let before = self.device.mitigation_stats().ref_mitigations;
                        self.device.issue(cmd, at);
                        let bucket = if self.device.mitigation_stats().ref_mitigations > before {
                            StallBucket::MitigativeRef
                        } else {
                            StallBucket::Refresh
                        };
                        let t_rfc = self.device.timing().t_rfc;
                        self.telemetry.span_block(
                            self.subch,
                            bucket,
                            at.as_ps(),
                            (at + t_rfc).as_ps(),
                        );
                    } else {
                        self.device.issue(cmd, at);
                    }
                    self.mark_all_stale();
                    batch_refs += 1;
                }
                Command::Rfm { alert } => {
                    self.device.issue(cmd, at);
                    self.mark_all_stale();
                    if alert {
                        if let Some(t0) = self.alert_observed_at.take() {
                            let stall = at - t0;
                            self.telemetry
                                .observe(names::MC_ALERT_STALL_NS, stall.as_ps() / 1000);
                            self.telemetry.event(
                                at.as_ps(),
                                names::EV_ALERT_CLEARED,
                                &[
                                    ("subch", Json::U64(u64::from(self.subch))),
                                    ("stall_ns", Json::U64(stall.as_ps() / 1000)),
                                ],
                            );
                            if self.spans {
                                // The whole back-off — from observing
                                // ALERT_n through the recovery RFM's tRFM —
                                // is ABO stall.
                                let t_rfm = self.device.timing().t_rfm;
                                self.telemetry.span_block(
                                    self.subch,
                                    StallBucket::AboAlert,
                                    t0.as_ps(),
                                    (at + t_rfm).as_ps(),
                                );
                            }
                        }
                        self.stats.alerts_serviced += 1;
                        self.telemetry.inc(names::MC_ALERTS, 1);
                    } else {
                        self.stats.rfms_issued += 1;
                        self.telemetry.inc(names::MC_RFMS, 1);
                        self.telemetry.event(
                            at.as_ps(),
                            names::EV_RFM_ISSUED,
                            &[("subch", Json::U64(u64::from(self.subch)))],
                        );
                        if self.spans {
                            let t_rfm = self.device.timing().t_rfm;
                            self.telemetry.span_block(
                                self.subch,
                                StallBucket::Rfm,
                                at.as_ps(),
                                (at + t_rfm).as_ps(),
                            );
                        }
                        for c in &mut self.raa {
                            *c = 0;
                        }
                        self.raa_armed = 0;
                    }
                }
            }
            // Sample the ALERT line after every command.
            if self.alert_observed_at.is_none() && self.device.alert_asserted() {
                self.alert_observed_at = Some(self.now);
                self.telemetry.event(
                    self.now.as_ps(),
                    names::EV_ALERT_RAISED,
                    &[("subch", Json::U64(u64::from(self.subch)))],
                );
            }
        }
        // Flush the batched command counters once per pass (before any
        // epoch boundary can read them) instead of per command. Zero
        // deltas are skipped so untouched counters never materialize.
        if batch_reads > 0 {
            self.telemetry.inc(names::MC_READS, batch_reads);
        }
        if batch_writes > 0 {
            self.telemetry.inc(names::MC_WRITES, batch_writes);
        }
        if batch_acts > 0 {
            self.telemetry.inc(names::MC_ACTS, batch_acts);
        }
        if batch_refs > 0 {
            self.telemetry.inc(names::MC_REFS, batch_refs);
        }
    }
}

/// One DRAMSim3-style command-trace line: `<t_ps> <CMD> sc<n> [location]`.
fn trace_line(subch: u32, cmd: &Command, at: Ps) -> String {
    let t = at.as_ps();
    match *cmd {
        Command::Act { bank, row } => {
            format!("{t} ACT sc{subch} ra{} ba{} row{row}", bank.rank, bank.bank)
        }
        Command::Pre { bank } => {
            format!("{t} PRE sc{subch} ra{} ba{}", bank.rank, bank.bank)
        }
        Command::PreAll => format!("{t} PREA sc{subch}"),
        Command::Rd { bank, col } => {
            format!("{t} RD sc{subch} ra{} ba{} col{col}", bank.rank, bank.bank)
        }
        Command::Wr { bank, col } => {
            format!("{t} WR sc{subch} ra{} ba{} col{col}", bank.rank, bank.bank)
        }
        Command::Ref => format!("{t} REF sc{subch}"),
        Command::Rfm { alert: true } => format!("{t} RFM-ABO sc{subch}"),
        Command::Rfm { alert: false } => format!("{t} RFM sc{subch}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirza_dram::address::{DramAddr, MappingScheme, RowMapping};
    use mirza_dram::geometry::Geometry;
    use mirza_dram::mitigation::NullMitigator;
    use mirza_dram::timing::TimingParams;
    use proptest::prelude::*;

    fn mc(cfg: McConfig) -> MemController {
        mc_ranks(cfg, 1)
    }

    fn mc_ranks(cfg: McConfig, ranks: u32) -> MemController {
        let geom = Geometry {
            ranks,
            ..Geometry::ddr5_32gb()
        };
        let device = Subchannel::new(
            TimingParams::ddr5_6000(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            Box::new(NullMitigator::new()),
        );
        MemController::new(device, cfg, 0)
    }

    fn read(id: u64, bank: u32, row: u32, col: u32, at_ns: u64) -> Request {
        Request {
            id,
            addr: DramAddr {
                bank: BankId::new(0, 0, bank),
                row,
                col,
            },
            kind: AccessKind::Read,
            arrival: Ps::from_ns(at_ns),
        }
    }

    #[test]
    fn single_read_latency_is_rcd_plus_cl_plus_burst() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 1);
        let t = TimingParams::ddr5_6000();
        assert_eq!(out[0].done_at, t.t_rcd + t.cl + t.t_burst);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn row_hits_are_served_first_and_classified() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        mc.enqueue(read(2, 0, 100, 1, 0));
        mc.enqueue(read(3, 0, 100, 2, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().row_hits, 2);
    }

    #[test]
    fn conflicting_rows_classified_as_conflicts() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        mc.enqueue(read(2, 0, 200, 0, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(2), &mut out);
        assert_eq!(out.len(), 2);
        // Depending on the soft-close timing the second is a conflict (PRE
        // on its behalf) or a miss (already closed); either way it needed
        // an ACT.
        assert_eq!(mc.stats().row_hits, 0);
        assert_eq!(mc.stats().row_misses + mc.stats().row_conflicts, 2);
    }

    #[test]
    fn refresh_happens_on_schedule() {
        let mut mc = mc(McConfig::default());
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(40), &mut out);
        // 40 us / 3.9 us ~ 10 REFs.
        let refs = mc.device().stats().refs;
        assert!((9..=11).contains(&refs), "got {refs}");
    }

    #[test]
    fn postponed_refresh_yields_to_demand_then_repays() {
        let strict = {
            let mut mc = mc(McConfig::default());
            for i in 0..64 {
                mc.enqueue(read(i, (i % 8) as u32, i as u32 * 3, 0, 3800));
            }
            let mut out = Vec::new();
            mc.run_until(Ps::from_us(20), &mut out);
            assert_eq!(out.len(), 64);
            (
                out.iter().map(|c| c.done_at).max().unwrap(),
                mc.device().stats().refs,
            )
        };
        let relaxed = {
            let mut mc = mc(McConfig {
                postpone_refs: 4,
                ..McConfig::default()
            });
            for i in 0..64 {
                mc.enqueue(read(i, (i % 8) as u32, i as u32 * 3, 0, 3800));
            }
            let mut out = Vec::new();
            mc.run_until(Ps::from_us(20), &mut out);
            assert_eq!(out.len(), 64);
            (
                out.iter().map(|c| c.done_at).max().unwrap(),
                mc.device().stats().refs,
            )
        };
        // The burst lands right at the first REF due time (3.9 us): with
        // postponement the batch finishes no later, and the REF debt is
        // repaid by the horizon (same REF count over the window).
        assert!(relaxed.0 <= strict.0, "postponement must not slow demand");
        assert_eq!(relaxed.1, strict.1, "refresh debt fully repaid");
    }

    #[test]
    fn proactive_rfm_fires_at_bat() {
        let mut mc = mc(McConfig {
            rfm_bat: Some(4),
            ..McConfig::default()
        });
        // 8 conflicting reads to one bank -> 8 ACTs -> 2 RFMs.
        for i in 0..8 {
            mc.enqueue(read(i, 0, i as u32 * 7, 0, 0));
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(5), &mut out);
        assert_eq!(out.len(), 8);
        assert!(mc.stats().rfms_issued >= 1, "BAT of 4 must trigger RFM");
        assert_eq!(mc.device().stats().rfms_proactive, mc.stats().rfms_issued);
    }

    #[test]
    fn writes_complete_at_issue() {
        let mut mc = mc(McConfig::default());
        let mut w = read(9, 0, 50, 0, 0);
        w.kind = AccessKind::Write;
        mc.enqueue(w);
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(mc.stats().writes_done, 1);
    }

    #[test]
    #[should_panic(expected = "wrong sub-channel")]
    fn rejects_cross_subchannel_requests() {
        let mut mc = mc(McConfig::default());
        let mut r = read(1, 0, 0, 0, 0);
        r.addr.bank.subch = 1;
        mc.enqueue(r);
    }

    #[test]
    fn span_attribution_conserves_across_a_backlog_with_refreshes() {
        use mirza_telemetry::{SpanCollector, Telemetry};
        let mut mc = mc(McConfig::default());
        let tel = Telemetry::enabled().with_spans(SpanCollector::new());
        mc.set_telemetry(tel.clone());
        for i in 0..48u64 {
            mc.enqueue(read(i, (i % 8) as u32, (i * 7) as u32, 0, i / 4));
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(60), &mut out);
        assert_eq!(out.len(), 48);
        let s = tel.spans_summary().unwrap();
        assert_eq!(s.requests, 48);
        assert!(s.conserved, "buckets must sum to total stall");
        assert!(s.total_stall_ps > 0);
        // A backlog of conflicting rows waits on ordering and bank timing.
        assert!(s.buckets_ps[StallBucket::QueueConflict.index()] > 0);
        assert!(s.buckets_ps[StallBucket::BankTiming.index()] > 0);
        for (_, b) in tel.spans_bank_attributions() {
            assert!(b.conserved(), "per-bank conservation");
        }
    }

    #[test]
    fn drains_large_backlog_without_violations() {
        let mut mc = mc(McConfig::default());
        let mut id = 0;
        for row in 0..32u32 {
            for bank in 0..8u32 {
                for col in 0..4u32 {
                    mc.enqueue(read(id, bank, row * 13, col, 0));
                    id += 1;
                }
            }
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_ms(1), &mut out);
        assert_eq!(out.len(), id as usize);
        assert_eq!(mc.pending_requests(), 0);
        // Device saw at least one REF along the way.
        assert!(mc.device().stats().refs > 0);
    }

    proptest! {
        /// Every pick the kind groups make equals the full fold:
        /// `best_demand` checks each one against `reference_demand` in
        /// test builds. Requests arrive between `run_until` windows of
        /// random width, on one or two ranks (two ranks exercise the
        /// per-rank ACT floor), with and without proactive RFM and refresh
        /// postponement.
        #[test]
        fn cached_picks_match_the_full_fold(
            ranks in 1u32..3,
            bat in prop::option::of(2u32..12),
            postpone_refs in 0u32..5,
            windows in proptest::collection::vec(
                (
                    0u64..60_000,
                    proptest::collection::vec(
                        (0u32..64, 0u32..4, 0u32..64, any::<bool>(), 0u64..60_000),
                        0..6,
                    ),
                ),
                1..120,
            ),
        ) {
            let cfg = McConfig { rfm_bat: bat, postpone_refs };
            let mut mc = mc_ranks(cfg, ranks);
            let mut t = Ps::ZERO;
            let mut id = 0;
            let mut out = Vec::new();
            for (width_ps, arrivals) in &windows {
                for &(bank, row, col, write, offset_ps) in arrivals {
                    let bank = bank % (32 * ranks);
                    mc.enqueue(Request {
                        id,
                        addr: DramAddr {
                            bank: BankId::new(0, bank / 32, bank % 32),
                            row: row * 97,
                            col,
                        },
                        kind: if write { AccessKind::Write } else { AccessKind::Read },
                        arrival: t + Ps::from_ps(offset_ps),
                    });
                    id += 1;
                }
                t += Ps::from_ps(*width_ps);
                mc.run_until(t, &mut out);
            }
            mc.run_until(t + Ps::from_us(100), &mut out);
            prop_assert_eq!(out.len() as u64, id);
        }
    }
}
