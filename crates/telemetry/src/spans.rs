//! Request-lifecycle spans and slowdown attribution in **simulated** time.
//!
//! The memory controller reports three things per subchannel while a run
//! executes:
//!
//! * [`SpanCollector::block_span`] — an interval during which the whole
//!   subchannel could not issue demand commands (REF tRFC, proactive RFM,
//!   ALERT back-off recovery), tagged with the [`StallBucket`] that caused
//!   it. Intervals arrive in start order and are clipped against the
//!   previous one, so the per-subchannel timeline is ordered and
//!   non-overlapping.
//! * [`SpanCollector::request_done`] — one finished read/write with its
//!   arrival time, the time it became the oldest request needing its bank
//!   (`own_ps`), and its column-command issue time. The stall
//!   `issue − arrival` is decomposed exactly (integer picoseconds) into the
//!   six buckets; any part overlapping a blocking interval goes to that
//!   interval's bucket, the pre-ownership residual is queue conflict, and
//!   the post-ownership residual is bank timing.
//! * [`SpanCollector::bank_span`] — a row's open interval on a bank, for
//!   the Chrome trace only.
//!
//! Conservation is structural: every picosecond of each request's stall
//! lands in exactly one bucket, so per-bank and global bucket sums equal
//! the respective total stall — checked by a debug assert per request and
//! re-checked downstream on the committed `results/attribution.csv` by
//! the root `tests/artifacts.rs`.

use crate::chrome::ChromeTraceSink;
use crate::json::Json;
use std::collections::BTreeMap;

/// Where a stalled picosecond of a request's life is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallBucket {
    /// Waiting behind older requests for the same bank (scheduler order),
    /// outside any blocking interval.
    QueueConflict,
    /// Oldest for its bank but blocked by DDR5 bank/bus timing
    /// (tRCD/tRP/tCCD/tRRD/tFAW/bus turnaround), outside any blocking
    /// interval.
    BankTiming,
    /// ALERT back-off: from the controller observing ALERT_n to the end of
    /// the recovery RFM's tRFM window.
    AboAlert,
    /// tRFC of a REF that performed mitigative (TRR-style) refreshes.
    MitigativeRef,
    /// tRFC of a regular REF.
    Refresh,
    /// tRFM of a proactive (RAA-triggered) RFM.
    Rfm,
}

/// Number of buckets; arrays indexed by [`StallBucket::index`].
pub const BUCKETS: usize = 6;

impl StallBucket {
    /// All buckets in index order.
    pub const ALL: [StallBucket; BUCKETS] = [
        StallBucket::QueueConflict,
        StallBucket::BankTiming,
        StallBucket::AboAlert,
        StallBucket::MitigativeRef,
        StallBucket::Refresh,
        StallBucket::Rfm,
    ];

    /// Position in per-bucket arrays and CSV column order.
    pub fn index(self) -> usize {
        match self {
            StallBucket::QueueConflict => 0,
            StallBucket::BankTiming => 1,
            StallBucket::AboAlert => 2,
            StallBucket::MitigativeRef => 3,
            StallBucket::Refresh => 4,
            StallBucket::Rfm => 5,
        }
    }

    /// Stable manifest/CSV key.
    pub fn key(self) -> &'static str {
        match self {
            StallBucket::QueueConflict => "queue_conflict",
            StallBucket::BankTiming => "bank_timing",
            StallBucket::AboAlert => "abo_alert",
            StallBucket::MitigativeRef => "mitigative_ref",
            StallBucket::Refresh => "refresh",
            StallBucket::Rfm => "rfm",
        }
    }
}

/// One subchannel-wide blocking interval `[start, end)`.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u64,
    end: u64,
    bucket: StallBucket,
}

#[derive(Debug, Default)]
struct SubchState {
    /// Ordered, non-overlapping blocking timeline (clipped on insert).
    blocks: Vec<Block>,
}

/// Stall attribution for one `(subchannel, bank)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankAttribution {
    /// Requests completed on this bank.
    pub requests: u64,
    /// Total stall (`issue − arrival` summed), integer picoseconds.
    pub total_stall_ps: u64,
    /// Per-bucket stall, indexed by [`StallBucket::index`].
    pub buckets_ps: [u64; BUCKETS],
}

impl BankAttribution {
    /// Whether this bank's buckets sum exactly to its total stall.
    pub fn conserved(&self) -> bool {
        self.buckets_ps.iter().sum::<u64>() == self.total_stall_ps
    }
}

/// Run-level attribution rollup, embedded in `SimReport`/manifests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributionSummary {
    /// Requests attributed.
    pub requests: u64,
    /// Total stall across all requests, integer picoseconds.
    pub total_stall_ps: u64,
    /// Per-bucket stall, indexed by [`StallBucket::index`].
    pub buckets_ps: [u64; BUCKETS],
    /// The conservation invariant, re-evaluated at summary time.
    pub conserved: bool,
}

impl AttributionSummary {
    /// Percentage of total stall in `bucket` (0 when there was no stall).
    pub fn pct(&self, bucket: StallBucket) -> f64 {
        if self.total_stall_ps == 0 {
            0.0
        } else {
            self.buckets_ps[bucket.index()] as f64 * 100.0 / self.total_stall_ps as f64
        }
    }

    /// Manifest shape: `{requests, total_stall_ps, conserved,
    /// buckets: {<key>: {ps, pct}}}`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("requests", self.requests);
        doc.push("total_stall_ps", self.total_stall_ps);
        doc.push("conserved", self.conserved);
        let mut buckets = Json::obj();
        for b in StallBucket::ALL {
            let mut entry = Json::obj();
            entry.push("ps", self.buckets_ps[b.index()]);
            entry.push("pct", self.pct(b));
            buckets.push(b.key(), entry);
        }
        doc.push("buckets", buckets);
        doc
    }
}

/// Accumulates spans for a whole run. Held inside the telemetry recorder;
/// all methods are driven through the `Telemetry` handle's `span_*`
/// wrappers so the disabled path stays one branch.
#[derive(Debug, Default)]
pub struct SpanCollector {
    subch: Vec<SubchState>,
    banks: BTreeMap<(u32, usize), BankAttribution>,
    requests: u64,
    total_stall_ps: u64,
    buckets_ps: [u64; BUCKETS],
    chrome: Option<ChromeTraceSink>,
}

impl SpanCollector {
    /// An attribution-only collector (no Chrome trace).
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Also mirror blocking and bank-occupancy spans into `sink`.
    pub fn with_chrome(mut self, sink: ChromeTraceSink) -> Self {
        self.chrome = Some(sink);
        self
    }

    fn subch_mut(&mut self, subch: u32) -> &mut SubchState {
        let i = subch as usize;
        if self.subch.len() <= i {
            self.subch.resize_with(i + 1, SubchState::default);
        }
        &mut self.subch[i]
    }

    /// Records a subchannel-wide blocking interval `[start_ps, end_ps)`
    /// charged to `bucket`. Must be called in issue order per subchannel;
    /// the start is clipped to the previous interval's end (the only
    /// overlap the controller produces is an ALERT observed at the instant
    /// a REF/RFM issued).
    pub fn block_span(&mut self, subch: u32, bucket: StallBucket, start_ps: u64, end_ps: u64) {
        let state = self.subch_mut(subch);
        let floor = state.blocks.last().map_or(0, |b| b.end);
        let start = start_ps.max(floor);
        let end = end_ps.max(start);
        if end > start {
            state.blocks.push(Block { start, end, bucket });
        }
        if let Some(chrome) = &mut self.chrome {
            if end > start {
                chrome.span(&format!("sc{subch} blocking"), bucket.key(), start, end);
            }
        }
    }

    /// Total overlap of `[start, end)` with the blocking timeline,
    /// accumulated per bucket into `per`. Returns the overlapped total.
    fn charge_blocked(state: &SubchState, start: u64, end: u64, per: &mut [u64; BUCKETS]) -> u64 {
        if end <= start {
            return 0;
        }
        let mut covered = 0;
        let from = state.blocks.partition_point(|b| b.end <= start);
        for b in &state.blocks[from..] {
            if b.start >= end {
                break;
            }
            let lo = b.start.max(start);
            let hi = b.end.min(end);
            per[b.bucket.index()] += hi - lo;
            covered += hi - lo;
        }
        covered
    }

    /// Attributes one finished request on `(subch, bank)`.
    ///
    /// `arrival_ps` ≤ `issue_ps` is the request's stall window. `own_ps` is
    /// when it became the oldest request needing its bank (absent for pure
    /// row hits that never owned an ACT/PRE — their whole wait is ordering,
    /// i.e. queue conflict, so `own` defaults to `issue`).
    pub fn request_done(
        &mut self,
        subch: u32,
        bank: usize,
        arrival_ps: u64,
        own_ps: Option<u64>,
        issue_ps: u64,
    ) {
        let issue = issue_ps.max(arrival_ps);
        let own = own_ps.map_or(issue, |o| o.clamp(arrival_ps, issue));
        let total = issue - arrival_ps;

        let mut per = [0u64; BUCKETS];
        let state = self.subch_mut(subch);
        let blocked_queue = Self::charge_blocked(state, arrival_ps, own, &mut per);
        let blocked_bank = Self::charge_blocked(state, own, issue, &mut per);
        per[StallBucket::QueueConflict.index()] += (own - arrival_ps) - blocked_queue;
        per[StallBucket::BankTiming.index()] += (issue - own) - blocked_bank;
        debug_assert_eq!(
            per.iter().sum::<u64>(),
            total,
            "stall attribution must conserve: sc{subch} bank{bank} \
             arrival={arrival_ps} own={own} issue={issue}"
        );

        let bank_attr = self.banks.entry((subch, bank)).or_default();
        bank_attr.requests += 1;
        bank_attr.total_stall_ps += total;
        self.requests += 1;
        self.total_stall_ps += total;
        for (i, ps) in per.iter().enumerate() {
            bank_attr.buckets_ps[i] += ps;
            self.buckets_ps[i] += ps;
        }
    }

    /// Records a row's open interval on a bank (Chrome trace only; no
    /// effect on attribution). Called at precharge, when both endpoints
    /// are known.
    pub fn bank_span(&mut self, subch: u32, bank: usize, row: u64, opened_ps: u64, closed_ps: u64) {
        if let Some(chrome) = &mut self.chrome {
            chrome.span(
                &format!("sc{subch}/bank{bank:02}"),
                &format!("row{row}"),
                opened_ps,
                closed_ps,
            );
        }
    }

    /// Run-level rollup.
    pub fn summary(&self) -> AttributionSummary {
        AttributionSummary {
            requests: self.requests,
            total_stall_ps: self.total_stall_ps,
            buckets_ps: self.buckets_ps,
            conserved: self.buckets_ps.iter().sum::<u64>() == self.total_stall_ps
                && self.banks.values().all(BankAttribution::conserved),
        }
    }

    /// Per-bank attributions in deterministic `(subch, bank)` order.
    pub fn bank_attributions(&self) -> Vec<((u32, usize), BankAttribution)> {
        self.banks.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Flushes the Chrome sink's buffered bytes (error paths).
    pub fn flush(&mut self) {
        if let Some(chrome) = &mut self.chrome {
            chrome.flush();
        }
    }

    /// Terminates the Chrome trace array (success path).
    pub fn finish(&mut self) {
        if let Some(chrome) = &mut self.chrome {
            chrome.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SharedBuf;

    #[test]
    fn residuals_split_into_queue_conflict_and_bank_timing() {
        let mut c = SpanCollector::new();
        // No blocking: 40 ps waiting for ownership, 60 ps on bank timing.
        c.request_done(0, 3, 100, Some(140), 200);
        let s = c.summary();
        assert_eq!(s.requests, 1);
        assert_eq!(s.total_stall_ps, 100);
        assert_eq!(s.buckets_ps[StallBucket::QueueConflict.index()], 40);
        assert_eq!(s.buckets_ps[StallBucket::BankTiming.index()], 60);
        assert!(s.conserved);
    }

    #[test]
    fn own_defaults_to_issue_for_pure_row_hits() {
        let mut c = SpanCollector::new();
        c.request_done(0, 0, 100, None, 175);
        let s = c.summary();
        assert_eq!(s.buckets_ps[StallBucket::QueueConflict.index()], 75);
        assert_eq!(s.buckets_ps[StallBucket::BankTiming.index()], 0);
    }

    #[test]
    fn blocking_overlap_charges_the_blocking_bucket() {
        let mut c = SpanCollector::new();
        // REF blocks [120, 160); request waits [100, own=150, issue=200).
        c.block_span(0, StallBucket::Refresh, 120, 160);
        c.request_done(0, 1, 100, Some(150), 200);
        let s = c.summary();
        assert_eq!(s.total_stall_ps, 100);
        // [100,150) ∩ [120,160) = 30 → refresh; residual 20 → queue.
        // [150,200) ∩ [120,160) = 10 → refresh; residual 40 → bank timing.
        assert_eq!(s.buckets_ps[StallBucket::Refresh.index()], 40);
        assert_eq!(s.buckets_ps[StallBucket::QueueConflict.index()], 20);
        assert_eq!(s.buckets_ps[StallBucket::BankTiming.index()], 40);
        assert!(s.conserved);
    }

    #[test]
    fn block_spans_clip_against_the_previous_interval() {
        let mut c = SpanCollector::new();
        c.block_span(0, StallBucket::Refresh, 100, 200);
        // ALERT observed at 150 while the REF was still blocking: the ABO
        // span starts where the REF span ends.
        c.block_span(0, StallBucket::AboAlert, 150, 300);
        c.request_done(0, 0, 100, Some(100), 300);
        let s = c.summary();
        assert_eq!(s.buckets_ps[StallBucket::Refresh.index()], 100);
        assert_eq!(s.buckets_ps[StallBucket::AboAlert.index()], 100);
        assert!(s.conserved);
    }

    #[test]
    fn empty_clipped_blocks_are_dropped() {
        let mut c = SpanCollector::new();
        c.block_span(0, StallBucket::Refresh, 100, 300);
        c.block_span(0, StallBucket::Rfm, 150, 250); // fully shadowed
        c.request_done(0, 0, 100, Some(100), 300);
        let s = c.summary();
        assert_eq!(s.buckets_ps[StallBucket::Refresh.index()], 200);
        assert_eq!(s.buckets_ps[StallBucket::Rfm.index()], 0);
    }

    #[test]
    fn per_bank_attribution_tracks_separately_and_conserves() {
        let mut c = SpanCollector::new();
        c.block_span(1, StallBucket::Rfm, 0, 50);
        c.request_done(1, 2, 0, Some(0), 100);
        c.request_done(1, 5, 40, None, 60);
        c.request_done(0, 2, 0, Some(10), 30);
        let banks = c.bank_attributions();
        assert_eq!(
            banks.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![(0, 2), (1, 2), (1, 5)]
        );
        for (_, b) in &banks {
            assert!(b.conserved());
        }
        let b12 = banks.iter().find(|(k, _)| *k == (1, 2)).unwrap().1;
        assert_eq!(b12.buckets_ps[StallBucket::Rfm.index()], 50);
        assert_eq!(b12.buckets_ps[StallBucket::BankTiming.index()], 50);
        // Subchannel 1's block does not leak into subchannel 0.
        let b02 = banks.iter().find(|(k, _)| *k == (0, 2)).unwrap().1;
        assert_eq!(b02.buckets_ps[StallBucket::Rfm.index()], 0);
        assert_eq!(c.summary().total_stall_ps, 100 + 20 + 30);
        assert!(c.summary().conserved);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let mut c = SpanCollector::new();
        // issue before arrival and own outside the window: clamp, zero stall.
        c.request_done(0, 0, 100, Some(500), 90);
        let s = c.summary();
        assert_eq!(s.total_stall_ps, 0);
        assert!(s.conserved);
    }

    #[test]
    fn summary_json_shape_and_percentages() {
        let mut c = SpanCollector::new();
        c.block_span(0, StallBucket::AboAlert, 0, 25);
        c.request_done(0, 0, 0, Some(25), 100);
        let doc = c.summary().to_json();
        assert_eq!(doc.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("total_stall_ps").unwrap().as_u64(), Some(100));
        let buckets = doc.get("buckets").unwrap();
        let abo = buckets.get("abo_alert").unwrap();
        assert_eq!(abo.get("ps").unwrap().as_u64(), Some(25));
        assert_eq!(abo.get("pct").unwrap().as_f64(), Some(25.0));
        for b in StallBucket::ALL {
            assert!(buckets.get(b.key()).is_some(), "missing bucket {}", b.key());
        }
    }

    #[test]
    fn chrome_mirror_receives_block_and_bank_spans() {
        let buf = SharedBuf::new();
        let mut c = SpanCollector::new().with_chrome(ChromeTraceSink::new(buf.writer()));
        c.block_span(0, StallBucket::Refresh, 100_000, 200_000);
        c.bank_span(0, 4, 1234, 50_000, 150_000);
        c.finish();
        let doc = Json::parse(&buf.contents()).unwrap();
        let events = doc.as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["refresh", "row1234"]);
        let tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(tracks, vec!["sc0 blocking", "sc0/bank04"]);
    }
}
