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

/// Winning demand command with its earliest legal instant. The scheduling
/// class and arrival that decided the FR-FCFS tie-break live in
/// [`ScanEntry`] and are consumed inside the scan; only the materialized
/// command survives.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cmd: Command,
    at: Ps,
}

/// Candidate kind codes for the scan mirror (`MemController::entries`):
/// the scan hot loop reads these packed entries instead of matching on
/// [`BankPlan`].
const KIND_RD: u8 = 0;
const KIND_WR: u8 = 1;
const KIND_ACT: u8 = 2;
const KIND_CONFLICT: u8 = 3;
const KIND_SOFTCLOSE: u8 = 4;
const KIND_IDLE: u8 = 5;
const KIND_STALE: u8 = 6;

/// One bank's scan-loop state, packed so a visit touches a single array
/// slot: candidate kind (`KIND_*`, with staleness folded in), scheduling
/// class (column > activate > precharge > soft close), the floor-free key
/// `max(local, arrival)`, and the arrival tie-break. The selection `at`
/// is `key.max(per-class shared floor)`, because
/// `max(local, floor, block, arrival, now)` factors into
/// `max(max(local, arrival), max(floor, block, now))`.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    kind: u8,
    class: u8,
    key: Ps,
    arr: Ps,
    /// The floor-free candidate pre-packed at refresh time:
    /// `pack_cand(key, class, arr, flat)` (`u128::MAX` when no candidate).
    /// A scan visit folds the per-class floor in with one AND/OR/`max`
    /// instead of re-packing, since entries are visited many times per
    /// refresh.
    packed: u128,
}

const STALE_ENTRY: ScanEntry = ScanEntry {
    kind: KIND_STALE,
    class: u8::MAX,
    key: Ps::MAX,
    arr: Ps::MAX,
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

/// Cached per-bank scheduling plan: what this bank's queue wants next,
/// with the *bank-local* release instant. The shared floors — rank ACT
/// window ([`Subchannel::act_floor`]), column/bus
/// ([`Subchannel::col_floor`]), global block and `now` — are applied at
/// selection time, so a plan only goes `Stale` when the bank itself is
/// mutated (a command issued to it, a request enqueued on it, or a
/// blocking command touching every bank). Staleness lives in the
/// [`ScanEntry`] kind, not here: a `KIND_STALE` entry means this plan is
/// out of date and `refresh_plan` must run before it is read.
#[derive(Debug, Clone, Copy)]
enum BankPlan {
    /// Empty queue, bank precharged: nothing to do.
    Idle,
    /// Empty queue, row open: soft close-page PRE (class 3).
    SoftClose { local: Ps },
    /// Row hit waiting in the queue (class 0).
    Hit {
        local: Ps,
        col: u32,
        write: bool,
        arrival: Ps,
    },
    /// Row conflict: PRE on behalf of the oldest request (class 2).
    Conflict { local: Ps, arrival: Ps },
    /// Bank closed: ACT for the oldest request (class 1).
    Act { local: Ps, row: u32, arrival: Ps },
}

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
    /// Per-bank plan cache, flat-indexed alongside `queues` — the hot
    /// state the scheduler scans instead of re-deriving every bank's
    /// candidate per pick.
    plans: Vec<BankPlan>,
    /// Bitmask words over `plans`: a set bit means the bank may hold a
    /// candidate (plan `Stale` or non-`Idle`). The scan walks set bits in
    /// ascending flat order — identical visit order to the full loop — and
    /// clears a bit when a refresh lands on `Idle`, so a quiet bank costs
    /// nothing until an enqueue or an all-bank command re-arms it.
    active: Vec<u64>,
    /// Scan mirror of `plans` for the hot loop, one slot per bank (see
    /// [`ScanEntry`]). Maintained by `refresh_plan`; staling a bank only
    /// writes the entry's kind.
    entries: Vec<ScanEntry>,
    /// Per-rank shared ACT floor (already folded with the global floor),
    /// recomputed once per scan instead of once per closed bank.
    act_floor_buf: Vec<Ps>,
    /// `geometry().banks`, cached for the flat-index → rank division.
    banks_per_rank: usize,
    /// Banks whose activation counter has crossed `cfg.rfm_bat` since the
    /// last proactive RFM — the O(1) stand-in for scanning `raa`.
    raa_armed: u32,
    /// Outstanding requests across all bank queues (see
    /// [`MemController::pending_requests`]).
    pending: usize,
    /// The already-computed next command and its instant, carried across
    /// [`MemController::run_until`] calls. Valid until a command issues,
    /// a fault hook fires, or an arriving request *wins* the incremental
    /// re-check in [`MemController::enqueue`] — losing arrivals keep it.
    cached_next: Option<(Command, Ps)>,
    /// The packed winning scan candidate (see [`pack_cand`]) behind
    /// `cached_next` when it came from the demand arm (`None` for
    /// ALERT/RFM/refresh commands). Lets `enqueue` compare a new request's
    /// candidate against the cached winner exactly instead of always
    /// rescanning: floors and `now` only move on issue, and issue drops
    /// the cache anyway.
    cached_demand: Option<u128>,
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
    /// Cached `telemetry.has_opportunity()`: arms the per-pass work
    /// counters and skip-gap histogram in `run_until`.
    opp: bool,
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
        let ranks = device.geometry().ranks as usize;
        device.set_subch_index(subch);
        let mut mc = MemController {
            cfg,
            subch,
            queues: vec![VecDeque::new(); nbanks],
            plans: vec![BankPlan::Idle; nbanks],
            active: vec![0; nbanks.div_ceil(64)],
            entries: vec![STALE_ENTRY; nbanks],
            act_floor_buf: vec![Ps::ZERO; ranks],
            banks_per_rank: 0,
            raa_armed: 0,
            pending: 0,
            cached_next: None,
            cached_demand: None,
            raa: vec![0; nbanks],
            now: Ps::ZERO,
            alert_observed_at: None,
            stats: McStats::default(),
            telemetry: Telemetry::disabled(),
            spans: false,
            opp: false,
            hit_run: 0,
            device,
        };
        mc.banks_per_rank = mc.device.geometry().banks as usize;
        mc.set_all_active();
        mc
    }

    #[inline]
    fn set_active(&mut self, flat: usize) {
        self.active[flat >> 6] |= 1 << (flat & 63);
    }

    /// Marks bank `flat`'s plan out of date and re-arms its scan bit.
    #[inline]
    fn stale_bank(&mut self, flat: usize) {
        self.entries[flat].kind = KIND_STALE;
        self.set_active(flat);
    }

    fn set_all_active(&mut self) {
        let n = self.plans.len();
        for (w, word) in self.active.iter_mut().enumerate() {
            let bits = n.saturating_sub(w * 64).min(64);
            *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
    }

    /// Attaches a telemetry handle (cloned down into the device and its
    /// mitigator). Both sub-channel controllers share one handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.device.set_telemetry(telemetry.clone());
        self.spans = telemetry.has_spans();
        self.opp = telemetry.has_opportunity();
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
        if self.cached_next.is_some() {
            // Floors and `now` are untouched since the cached peek (issuing
            // clears the cache), so this arrival can only change the next
            // action through its own bank's candidate. Re-plan just that
            // bank and keep the cache when the fresh candidate loses — the
            // common case, and what turns the post-arrival re-peek from a
            // full bank scan into O(1).
            let e = self.refresh_plan(flat);
            self.set_active(flat);
            if !self.cache_survives_arrival(flat, e) {
                self.cached_next = None;
            }
        } else {
            self.stale_bank(flat);
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .observe(names::MC_QUEUE_OCCUPANCY, self.pending_requests() as u64);
        }
    }

    fn bank_id(&self, flat: usize) -> BankId {
        let g = self.device.geometry();
        BankId::new(self.subch, flat as u32 / g.banks, flat as u32 % g.banks)
    }

    /// Recomputes the plan for bank `flat` from its queue and row state.
    /// Mirrors the legacy FR-FCFS walk, but stores only the bank-local
    /// release: the shared floors are layered on in `best_demand`.
    fn bank_plan(&self, flat: usize) -> BankPlan {
        let q = &self.queues[flat];
        let open = self.device.open_row_flat(flat);
        if q.is_empty() {
            // Soft close-page: close an idle open row once tRAS allows.
            return match open {
                Some(_) => BankPlan::SoftClose {
                    local: self.device.earliest_local_pre(flat).expect("row open"),
                },
                None => BankPlan::Idle,
            };
        }
        if let Some(row) = open {
            // Row hits anywhere in the queue are served first (FR-FCFS).
            if let Some(hit) = q.iter().find(|x| x.req.addr.row == row) {
                let write = matches!(hit.req.kind, AccessKind::Write);
                let local = if write {
                    self.device.earliest_local_wr(flat, row)
                } else {
                    self.device.earliest_local_rd(flat, row)
                }
                .expect("open row matches hit");
                return BankPlan::Hit {
                    local,
                    col: hit.req.addr.col,
                    write,
                    arrival: hit.req.arrival,
                };
            }
            // Conflict: close the open row for the oldest request.
            BankPlan::Conflict {
                local: self.device.earliest_local_pre(flat).expect("row open"),
                arrival: q[0].req.arrival,
            }
        } else {
            // Bank closed: activate for the oldest request.
            BankPlan::Act {
                local: self.device.earliest_local_act(flat).expect("bank closed"),
                row: q[0].req.addr.row,
                arrival: q[0].req.arrival,
            }
        }
    }

    /// Refreshes the plan *and* its structure-of-arrays scan mirror for
    /// bank `flat`. The key stores `max(local, arrival)` — the selection
    /// `at` is then a single `max` against the per-class shared floor,
    /// because `max(local, floor, block, arrival, now)` factors into
    /// `max(max(local, arrival), max(floor, block, now))`.
    #[inline]
    fn refresh_plan(&mut self, flat: usize) -> ScanEntry {
        let p = self.bank_plan(flat);
        self.plans[flat] = p;
        let (kind, class, key, arr) = match p {
            BankPlan::Idle => (KIND_IDLE, u8::MAX, Ps::MAX, Ps::MAX),
            BankPlan::SoftClose { local } => (KIND_SOFTCLOSE, 3, local, Ps::MAX),
            BankPlan::Hit {
                local,
                write,
                arrival,
                ..
            } => (
                if write { KIND_WR } else { KIND_RD },
                0,
                local.max(arrival),
                arrival,
            ),
            BankPlan::Conflict { local, arrival } => {
                (KIND_CONFLICT, 2, local.max(arrival), arrival)
            }
            BankPlan::Act { local, arrival, .. } => (KIND_ACT, 1, local.max(arrival), arrival),
        };
        let packed = if kind == KIND_IDLE {
            u128::MAX
        } else {
            pack_cand(key, class, arr, flat)
        };
        let e = ScanEntry {
            kind,
            class,
            key,
            arr,
            packed,
        };
        self.entries[flat] = e;
        e
    }

    /// Picks the best demand-side candidate (column > activate > precharge,
    /// earliest issue time first, oldest request breaking ties) from the
    /// per-bank plan cache, visiting only banks whose `active` bit is set
    /// and refreshing only banks whose state changed since the last pick.
    /// The winning [`Command`] is materialized once, after the scan.
    fn best_demand(&mut self) -> Option<Candidate> {
        // Per-class floors with the global block floor and `now` folded in,
        // indexed by kind (masked, so the lookup is provably in bounds).
        // With a single rank the shared ACT floor is uniform and lives in
        // the same table; multi-rank devices take the per-rank branch.
        let base = self.device.block_floor().max(self.now);
        for (r, f) in self.act_floor_buf.iter_mut().enumerate() {
            *f = self.device.act_floor(r).max(base);
        }
        let single_rank = self.act_floor_buf.len() == 1;
        let floors = [
            self.device.col_floor(false).max(base),
            self.device.col_floor(true).max(base),
            if single_rank {
                self.act_floor_buf[0]
            } else {
                Ps::MAX
            },
            base,
            base,
            Ps::MAX,
            Ps::MAX,
            Ps::MAX,
        ];
        // Winner fold, branchless: candidates are pre-packed at refresh
        // time (see [`ScanEntry::packed`]), so a visit folds the floor in
        // with `max(packed, floor<<AT | low)` — identical to re-packing
        // `max(key, floor)`, since the low bits match — and the selection
        // rule is then a plain u128 `min`, which compiles to compare+cmov
        // instead of the data-dependent branch chain a tuple compare
        // produces; the branches of a min-reduction are inherently
        // unpredictable.
        let floors_packed = floors.map(|f| u128::from(f.as_ps().min(PACK_MASK48)) << PACK_AT);
        let mut best: u128 = u128::MAX;
        for w in 0..self.active.len() {
            let mut word = self.active[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let flat = (w << 6) | bit;
                let mut e = self.entries[flat];
                if e.kind >= KIND_IDLE {
                    if e.kind == KIND_STALE {
                        e = self.refresh_plan(flat);
                    }
                    if e.kind >= KIND_IDLE {
                        self.active[w] &= !(1u64 << bit);
                        continue;
                    }
                }
                let floor = if single_rank || e.kind != KIND_ACT {
                    floors_packed[(e.kind & 7) as usize]
                } else {
                    u128::from(self.act_floor_buf[flat / self.banks_per_rank].as_ps()) << PACK_AT
                };
                let cand = e.packed.max(floor | (e.packed & PACK_LOW_MASK));
                best = best.min(cand);
            }
        }
        if best == u128::MAX {
            return None;
        }
        self.cached_demand = Some(best);
        let best_at = Ps::from_ps((best >> PACK_AT) as u64);
        let flat = (best & 0xff) as usize;
        let cmd = match self.plans[flat] {
            BankPlan::SoftClose { .. } | BankPlan::Conflict { .. } => Command::Pre {
                bank: self.bank_id(flat),
            },
            BankPlan::Hit { col, write, .. } => {
                let bank = self.bank_id(flat);
                if write {
                    Command::Wr { bank, col }
                } else {
                    Command::Rd { bank, col }
                }
            }
            BankPlan::Act { row, .. } => Command::Act {
                bank: self.bank_id(flat),
                row,
            },
            BankPlan::Idle => unreachable!("winner holds a candidate"),
        };
        Some(Candidate { cmd, at: best_at })
    }

    /// Whether `cached_next` still names the controller's next action after
    /// a request arrived on bank `flat` with fresh scan entry `e`.
    ///
    /// Exactness argument: between the cached peek and this arrival no
    /// command issued (issue drops the cache), so `now`, every shared
    /// floor, the ALERT latch and the RAA counters are all unchanged — a
    /// full re-peek would differ from the cached one only in bank `flat`'s
    /// candidate. It therefore suffices to rebuild that single candidate
    /// and replay the two decisions it could flip: the FR-FCFS winner
    /// comparison (same `(at, class, arrival)` tuple with the ascending-
    /// flat tie-break) and the demand-before-refresh deadline check.
    fn cache_survives_arrival(&mut self, flat: usize, e: ScanEntry) -> bool {
        // ALERT and proactive-RFM arms outrank demand entirely: no arrival
        // can preempt them, and the arrival does not change their state.
        if self.alert_observed_at.is_some() {
            return true;
        }
        if let Some(bat) = self.cfg.rfm_bat {
            if bat == 0 || self.raa_armed > 0 {
                return true;
            }
        }
        // A bank with a queued request always yields a demand candidate.
        debug_assert!(e.kind <= KIND_CONFLICT, "arrival must plan a command");
        let base = self.device.block_floor().max(self.now);
        let floor = match e.kind {
            KIND_RD => self.device.col_floor(false).max(base),
            KIND_WR => self.device.col_floor(true).max(base),
            KIND_ACT => self.device.act_floor(flat / self.banks_per_rank).max(base),
            _ => base,
        };
        let at = e.key.max(floor);
        match self.cached_demand {
            // Cached demand command: survives unless the arrival lands on
            // the winning bank itself (its plan may have changed) or the
            // fresh candidate beats the cached one under the packed
            // selection order.
            Some(winner) => {
                (winner & 0xff) as usize != flat && winner <= pack_cand(at, e.class, e.arr, flat)
            }
            // Cached refresh path (PreAll/Ref): demand preempts it only
            // strictly before the postponement deadline.
            None => {
                let deadline = self.device.next_ref_due().max(self.now)
                    + self.device.timing().t_refi * u64::from(self.cfg.postpone_refs);
                at >= deadline
            }
        }
    }

    /// The next command the controller wants to issue, with its instant.
    fn next_action(&mut self) -> Option<(Command, Ps)> {
        // Rewritten by `best_demand` when the demand arm wins; every other
        // arm leaves it cleared so `enqueue`'s re-check takes the
        // refresh-preemption branch.
        self.cached_demand = None;
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
        if let Some(c) = self.best_demand() {
            if c.at < ref_deadline {
                return Some((c.cmd, c.at));
            }
        }
        self.cached_demand = None;
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

    fn mark_all_stale(&mut self) {
        for e in &mut self.entries {
            e.kind = KIND_STALE;
        }
        self.set_all_active();
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
    /// ([`MemController::peek_next`]) and per-bank candidates from the plan
    /// cache, so a pass with nothing to issue costs O(1) instead of a full
    /// bank scan. With opportunity counters armed, each call is one
    /// "scheduler pass": commands issued and the gap to the next pending
    /// command past the window are recorded.
    pub fn run_until(&mut self, t_end: Ps, out: &mut Vec<Completion>) {
        let opp = self.opp;
        let mut pass_cmds: u64 = 0;
        let (mut batch_reads, mut batch_writes) = (0u64, 0u64);
        let (mut batch_acts, mut batch_refs) = (0u64, 0u64);
        loop {
            let (cmd, at) = self.peek_next();
            if at > t_end {
                // Nothing issuable in the window: keep the cache for the
                // next pass.
                if opp {
                    self.telemetry
                        .observe(names::MC_OPP_SKIP_GAP_NS, (at - t_end).as_ps() / 1000);
                }
                break;
            }
            self.cached_next = None;
            pass_cmds += 1;
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
        if opp {
            self.telemetry.inc(names::MC_OPP_SCHED_PASSES, 1);
            if pass_cmds == 0 {
                // The window held no command; the cached next command made
                // that one comparison, not a bank scan.
                self.telemetry.inc(names::MC_OPP_IDLE_PASSES, 1);
            }
            self.telemetry
                .observe(names::MC_OPP_CMDS_PER_PASS, pass_cmds);
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

    fn mc(cfg: McConfig) -> MemController {
        let geom = Geometry::ddr5_32gb();
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
}
