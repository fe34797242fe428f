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

/// FR-FCFS groups, one per scheduling class and indexed by it: column
/// (RD and WR) > activate > conflict precharge > soft close. A bank with
/// nothing to do is in no group.
const GROUP_COL: u8 = 0;
const GROUP_ACT: u8 = 1;
const GROUP_CONFLICT: u8 = 2;
const GROUP_SOFTCLOSE: u8 = 3;
const GROUP_IDLE: u8 = 4;
const GROUPS: usize = 4;

/// Slots of the per-pick floor table (see [`MemController::fill_floors`]):
/// the shared floor under a RD, a WR or a PRE, and from `SLOT_ACT` on one
/// slot per rank for the rank's ACT floor.
const SLOT_RD: u8 = 0;
const SLOT_WR: u8 = 1;
const SLOT_PRE: u8 = 2;
const SLOT_ACT: u8 = 3;

/// One bank's next demand command, built at re-plan time, with its group
/// and the floor slot under it. The floor-free key sits beside it in
/// `MemController::keys`; a pick copies the winning bank's command.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    cmd: Command,
    group: u8,
    slot: u8,
}

/// A bank with nothing to do; its command is never issued.
const IDLE_ENTRY: ScanEntry = ScanEntry {
    cmd: Command::PreAll,
    group: GROUP_IDLE,
    slot: SLOT_PRE,
};

/// Packed scan-candidate layout: `[at:64 | class:8 | arr:48 | flat:8]`.
/// Ordering a candidate by this u128 is exactly the FR-FCFS selection rule
/// — `(at, class, arrival)` strict `<` with the lowest flat index winning
/// ties (the bank a full ascending scan would visit first). The instant is
/// the whole high word; arrivals saturate at 48 bits (2^48 ps ≈ 78 h of
/// simulated time) so the SoftClose `Ps::MAX` sentinel still compares
/// above every real one.
const PACK_MASK48: u64 = (1 << 48) - 1;
const PACK_ARR: u32 = 8;
const PACK_CLASS: u32 = 8 + 48;
const PACK_AT: u32 = 8 + 48 + 8;
/// Everything below the `at` field, the low word: `[class | arr | flat]`.
const PACK_LOW_MASK: u128 = (1u128 << PACK_AT) - 1;

#[inline]
fn pack_cand(at: Ps, class: u8, arr: Ps, flat: usize) -> u128 {
    debug_assert!(flat <= 0xff, "flat bank index exceeds 8-bit pack");
    (u128::from(at.as_ps()) << PACK_AT)
        | (u128::from(class) << PACK_CLASS)
        | (u128::from(arr.as_ps().min(PACK_MASK48)) << PACK_ARR)
        | flat as u128
}

/// Folds a shared floor into a floor-free candidate: the candidate
/// re-packed at `max(at, floor)`. The instant is the high word, so this is
/// one u64 `max` that compiles to compare+cmov, and a scan's u128 `min`
/// over the results stays branchless. (A u128 `max` against the floor
/// with the candidate's low word compiled to an unpredictable branch.)
#[inline]
fn with_floor(packed: u128, floor: Ps) -> u128 {
    let at = ((packed >> PACK_AT) as u64).max(floor.as_ps());
    (u128::from(at) << PACK_AT) | (packed & PACK_LOW_MASK)
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

/// The banks whose next demand command is in one group, with their
/// smallest candidate cached.
#[derive(Debug, Clone, Copy)]
struct Group {
    members: BankSet,
    /// The members' smallest candidate with their floors applied
    /// (`u128::MAX` when empty). Meaningless while the group is dirty.
    best: u128,
}

const EMPTY_GROUP: Group = Group {
    members: BankSet(0),
    best: u128::MAX,
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
    /// Each bank's floor-free candidate, pre-packed at re-plan time as
    /// `pack_cand(max(local, arrival), class, arrival, flat)`. The
    /// selection instant is that key folded with its slot's floor (see
    /// [`with_floor`]), because `max(local, floor, block, arrival, now)`
    /// factors into `max(max(local, arrival), max(floor, block, now))`.
    keys: Vec<u128>,
    /// The shared floors of the current pick, one per `SLOT_*` (see
    /// [`MemController::fill_floors`]).
    floors: Vec<Ps>,
    /// The banks of each group, indexed by `GROUP_*`, each with its cached
    /// winner. A pick re-plans the `stale` banks, rescans only the dirty
    /// groups and takes the smallest of the four winners.
    groups: [Group; GROUPS],
    /// One bit per group whose winner must be recomputed: its winner left
    /// it. The next pick rescans the members.
    dirty: u8,
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
            keys: vec![u128::MAX; nbanks],
            floors: vec![Ps::ZERO; usize::from(SLOT_ACT) + device.geometry().ranks as usize],
            groups: [EMPTY_GROUP; GROUPS],
            dirty: 0,
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
        let group = self.entries[flat].group;
        if let Some(g) = self.groups.get_mut(usize::from(group)) {
            g.members.remove(flat);
            self.dirty |= u8::from(cand_flat(g.best) == flat) << group;
        }
        self.entries[flat] = IDLE_ENTRY;
        self.stale.insert(flat);
    }

    /// Marks every bank stale, after a command that blocks them all. The
    /// groups empty out, so the next pick's re-plans fold every bank in
    /// and no group needs a rescan.
    fn mark_all_stale(&mut self) {
        self.entries.fill(IDLE_ENTRY);
        self.groups = [EMPTY_GROUP; GROUPS];
        self.dirty = 0;
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
    /// with its floor-free key: the *bank-local* release, the shared
    /// floors being applied at selection time (see
    /// [`MemController::fill_floors`]).
    fn plan(&self, flat: usize) -> (ScanEntry, u128) {
        let q = &self.queues[flat];
        let bank = self.bank_ids[flat];
        let (cmd, group, slot, key, arrival) = match (self.device.open_row_flat(flat), q.front()) {
            (None, None) => return (IDLE_ENTRY, u128::MAX),
            // Soft close-page: close an idle open row once tRAS allows.
            (Some(_), None) => (
                Command::Pre { bank },
                GROUP_SOFTCLOSE,
                SLOT_PRE,
                self.device.earliest_local_pre(flat).expect("row open"),
                Ps::MAX,
            ),
            // Row hits anywhere in the queue are served first (FR-FCFS).
            (Some(row), Some(oldest)) => match q.iter().find(|x| x.req.addr.row == row) {
                Some(hit) => {
                    let col = hit.req.addr.col;
                    let (cmd, slot, local) = match hit.req.kind {
                        AccessKind::Read => (
                            Command::Rd { bank, col },
                            SLOT_RD,
                            self.device.earliest_local_rd(flat, row),
                        ),
                        AccessKind::Write => (
                            Command::Wr { bank, col },
                            SLOT_WR,
                            self.device.earliest_local_wr(flat, row),
                        ),
                    };
                    let local = local.expect("open row matches hit");
                    (
                        cmd,
                        GROUP_COL,
                        slot,
                        local.max(hit.req.arrival),
                        hit.req.arrival,
                    )
                }
                // Conflict: close the open row for the oldest request.
                None => (
                    Command::Pre { bank },
                    GROUP_CONFLICT,
                    SLOT_PRE,
                    self.device
                        .earliest_local_pre(flat)
                        .expect("row open")
                        .max(oldest.req.arrival),
                    oldest.req.arrival,
                ),
            },
            // Bank closed: activate for the oldest request.
            (None, Some(oldest)) => (
                Command::Act {
                    bank,
                    row: oldest.req.addr.row,
                },
                GROUP_ACT,
                SLOT_ACT + bank.rank as u8,
                self.device
                    .earliest_local_act(flat)
                    .expect("bank closed")
                    .max(oldest.req.arrival),
                oldest.req.arrival,
            ),
        };
        (
            ScanEntry { cmd, group, slot },
            pack_cand(key, group, arrival, flat),
        )
    }

    /// Computes the pick's shared floors into `floors`: the column floor
    /// for RD and for WR, each rank's ACT window, and for PRE none; each
    /// folded with the global block floor and `now`.
    fn fill_floors(&mut self) {
        let base = self.device.block_floor().max(self.now);
        let (floors, device) = (&mut self.floors, &self.device);
        floors[usize::from(SLOT_RD)] = device.col_floor(false).max(base);
        floors[usize::from(SLOT_WR)] = device.col_floor(true).max(base);
        floors[usize::from(SLOT_PRE)] = base;
        for (rank, floor) in floors[usize::from(SLOT_ACT)..].iter_mut().enumerate() {
            *floor = device.act_floor(rank).max(base);
        }
    }

    /// Bank `flat`'s candidate under the current pick's floors.
    #[inline]
    fn floored(&self, flat: usize) -> u128 {
        with_floor(
            self.keys[flat],
            self.floors[usize::from(self.entries[flat].slot)],
        )
    }

    /// Recomputes group `group`'s winner over all its members.
    fn rescan(&mut self, group: usize) {
        let best = self.groups[group]
            .members
            .iter()
            .fold(u128::MAX, |best, flat| best.min(self.floored(flat)));
        self.groups[group].best = best;
    }

    /// Picks the best demand-side candidate (column > activate > precharge,
    /// earliest issue time first, oldest request breaking ties): fills the
    /// floor table, re-plans the stale banks, folding each into its group,
    /// rescans the dirty groups and takes the smallest winner.
    ///
    /// Exact without a full scan. A clean group's winner still stands: no
    /// member changed (a mutated bank leaves its group until re-planned,
    /// and a group that loses its winner goes dirty) and no member's floor
    /// moved. A demand command moves only floors of its own group, which
    /// its winner just left: RD and WR move the two column floors, an ACT
    /// its rank's ACT floor, a PRE none. PREA, REF and RFM mark every bank
    /// stale. `now` moves only when a command issues, and a demand command
    /// issues at the minimum over every candidate, so no candidate's `max`
    /// with `now` changes.
    fn best_demand(&mut self) -> Option<(Command, Ps)> {
        self.fill_floors();
        for flat in std::mem::take(&mut self.stale).iter() {
            let (e, key) = self.plan(flat);
            self.entries[flat] = e;
            self.keys[flat] = key;
            let cand = with_floor(key, self.floors[usize::from(e.slot)]);
            // An idle bank joins no group; a dirty group's fold is
            // overwritten by its rescan below.
            if let Some(g) = self.groups.get_mut(usize::from(e.group)) {
                g.members.insert(flat);
                g.best = g.best.min(cand);
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        while dirty != 0 {
            self.rescan(dirty.trailing_zeros() as usize);
            dirty &= dirty - 1;
        }
        let best = self.groups.iter().fold(u128::MAX, |b, g| b.min(g.best));
        let pick = (best != u128::MAX).then(|| {
            let at = Ps::from_ps((best >> PACK_AT) as u64);
            (self.entries[cand_flat(best)].cmd, at)
        });
        #[cfg(test)]
        assert_eq!(
            pick,
            self.reference_demand(),
            "cached pick diverged from the full fold"
        );
        pick
    }

    /// The full fold the groups replace, without their floor split: each
    /// bank's planned command at the instant [`Subchannel::earliest`]
    /// gives it, no earlier than `now` and, unless it is a soft close, the
    /// request's arrival; the smallest `(instant, class, arrival, bank)`
    /// wins. Tests check every pick against it.
    #[cfg(test)]
    fn reference_demand(&self) -> Option<(Command, Ps)> {
        (0..self.queues.len())
            .filter_map(|flat| {
                let e = self.plan(flat).0;
                if e.group == GROUP_IDLE {
                    return None;
                }
                let cmd = e.cmd;
                let q = &self.queues[flat];
                let arrival = match cmd {
                    Command::Rd { col, .. } | Command::Wr { col, .. } => {
                        let row = self.device.open_row_flat(flat);
                        q.iter()
                            .find(|x| Some(x.req.addr.row) == row && x.req.addr.col == col)
                            .expect("a column command serves a queued request")
                            .req
                            .arrival
                    }
                    // The oldest request, or none for a soft close.
                    _ => q.front().map_or(Ps::MAX, |oldest| oldest.req.arrival),
                };
                let at = self
                    .device
                    .earliest(&cmd)
                    .expect("a planned command is legal")
                    .max(self.now);
                let at = if q.is_empty() { at } else { at.max(arrival) };
                Some(((at, e.group, arrival, flat), cmd))
            })
            .min_by_key(|&(order, _)| order)
            .map(|((at, ..), cmd)| (cmd, at))
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
        // 3. Demand traffic until refresh is due.
        let ref_at = self.device.next_ref_due().max(self.now);
        if let Some((cmd, at)) = self.best_demand() {
            if at < ref_at {
                return Some((cmd, at));
            }
        }
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
    /// The next command is served from the cross-call cache (`peek_next`),
    /// so a pass with nothing to issue costs one comparison.
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
                    // The column command moved both column floors; its
                    // group went dirty when the winner left it.
                    self.stale_bank(flat);
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
    use mirza_dram::mitigation::{MitigationStats, Mitigator, NullMitigator, RefreshSlice};
    use mirza_dram::timing::TimingParams;
    use proptest::prelude::*;

    fn mc(cfg: McConfig) -> MemController {
        mc_ranks(cfg, 1, Box::new(NullMitigator::new()))
    }

    fn mc_ranks(cfg: McConfig, ranks: u32, mitigator: Box<dyn Mitigator>) -> MemController {
        let geom = Geometry {
            ranks,
            ..Geometry::ddr5_32gb()
        };
        let device = Subchannel::new(
            TimingParams::ddr5_6000(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            mitigator,
        );
        MemController::new(device, cfg, 0)
    }

    /// Raises ALERT on every `every`-th ACT and holds it until the
    /// back-off RFM, so the PREA and RFM-ABO paths run between picks. The
    /// back-off closes every row, so `every` must exceed the ACTs that can
    /// issue before the first column command after an RFM (five per rank
    /// in DDR5-6000's tRCD) or no request ever completes.
    struct AlertEvery {
        every: u64,
        stats: MitigationStats,
        pending: bool,
    }

    impl Mitigator for AlertEvery {
        fn name(&self) -> &'static str {
            "alert-every"
        }

        fn on_activate(&mut self, _bank: usize, _row: u32, _now: Ps) {
            self.stats.acts_observed += 1;
            if self.stats.acts_observed.is_multiple_of(self.every) {
                self.pending = true;
                self.stats.alerts_requested += 1;
            }
        }

        fn alert_pending(&self) -> bool {
            self.pending
        }

        fn on_ref(&mut self, _slice: &RefreshSlice, _now: Ps) {}

        fn on_rfm(&mut self, alert: bool, _now: Ps) {
            self.pending &= !alert;
        }

        fn stats(&self) -> MitigationStats {
            self.stats
        }
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
    fn proactive_rfm_fires_at_bat() {
        let mut mc = mc(McConfig { rfm_bat: Some(4) });
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
        /// Every pick the groups make equals the full fold:
        /// `best_demand` checks each one against `reference_demand` in
        /// test builds. Requests arrive between `run_until` windows of
        /// random width, on one or two ranks (two ranks exercise the
        /// per-rank ACT floor), with and without proactive RFM, and with
        /// and without a mitigator raising ALERT every few ACTs (the
        /// back-off's PREA and RFM-ABO).
        #[test]
        fn cached_picks_match_the_full_fold(
            ranks in 1u32..3,
            bat in prop::option::of(2u32..12),
            alert_every in prop::option::of(12u64..48),
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
            let cfg = McConfig { rfm_bat: bat };
            let mitigator: Box<dyn Mitigator> = match alert_every {
                Some(every) => Box::new(AlertEvery {
                    every,
                    stats: MitigationStats::default(),
                    pending: false,
                }),
                None => Box::new(NullMitigator::new()),
            };
            let mut mc = mc_ranks(cfg, ranks, mitigator);
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
            mc.run_until(t + Ps::from_ms(2), &mut out);
            prop_assert_eq!(out.len() as u64, id);
            if let Some(every) = alert_every {
                let acts = mc.device().stats().acts;
                prop_assert_eq!(mc.stats().alerts_serviced, acts / every);
            }
        }
    }
}
