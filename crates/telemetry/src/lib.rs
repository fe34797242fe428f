//! Dependency-free telemetry for the MIRZA simulator stack.
//!
//! Three concerns live here, all hand-rolled because the build environment
//! has no crates.io access (no serde, no tracing):
//!
//! * **Metrics** — a [`Registry`] of named counters, gauges, and
//!   log2-bucketed [`Histogram`]s with p50/p90/p99 summaries.
//! * **Traces** — an [`EventSink`] emitting one JSON object per rare
//!   episode (ALERT raised/cleared, RFM, queue overflow, ...) and a
//!   [`TraceSink`] emitting a DRAMSim3-style per-command text trace.
//! * **Manifests** — the [`Json`] value type plus writer/parser used by the
//!   bench layer to emit one machine-readable document per experiment run.
//!
//! The whole layer is reached through one cheap handle, [`Telemetry`]:
//! a disabled handle is a `None` and every recording method is a single
//! branch, so the simulator's hot path pays nothing when observability is
//! off. The simulator is single-threaded, so the enabled handle is an
//! `Rc<RefCell<Recorder>>` clone shared by every component.

pub mod chrome;
pub mod epoch;
pub mod heartbeat;
pub mod histogram;
pub mod json;
pub mod names;
pub mod progress;
pub mod registry;
pub mod report;
pub mod sink;
pub mod spans;

pub use chrome::ChromeTraceSink;
pub use epoch::{EpochRecord, EpochSampler};
pub use heartbeat::Heartbeat;
pub use histogram::{Histogram, Summary};
pub use json::Json;
pub use registry::Registry;
pub use report::HtmlReport;
pub use sink::{EventSink, SharedBuf, TraceSink};
pub use spans::{AttributionSummary, BankAttribution, SpanCollector, StallBucket};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Everything one enabled telemetry session accumulates.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Named counters, gauges, histograms.
    pub registry: Registry,
    /// Structured JSONL event sink, when attached.
    pub events: Option<EventSink>,
    /// Per-command text trace sink, when attached.
    pub trace: Option<TraceSink>,
    /// Events seen per kind — counted even with no sink attached, so
    /// manifests can report episode counts without paying for I/O.
    pub event_counts: BTreeMap<String, u64>,
    /// Epoch time-series sampler, when attached.
    pub epochs: Option<EpochSampler>,
    /// Request-lifecycle span collector (simulated-time stall
    /// attribution, optional Chrome trace), when attached.
    pub spans: Option<SpanCollector>,
}

/// Cheap, cloneable handle to a telemetry session.
///
/// `Telemetry::disabled()` costs one `Option` check per call site;
/// `Telemetry::enabled()` records into a shared [`Recorder`]. Components
/// must not hold a borrow of the recorder across calls into other
/// components — each method here borrows and releases within the call.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A no-op handle: every method is one branch and returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle with metrics only (no sinks).
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder::default()))),
        }
    }

    /// Attaches a structured-event sink (JSONL).
    pub fn with_events(self, sink: EventSink) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().events = Some(sink);
        }
        self
    }

    /// Attaches a per-command text trace sink.
    pub fn with_trace(self, sink: TraceSink) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().trace = Some(sink);
        }
        self
    }

    /// Attaches an epoch time-series sampler.
    pub fn with_epochs(self, sampler: EpochSampler) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().epochs = Some(sampler);
        }
        self
    }

    /// Attaches a request-lifecycle span collector.
    pub fn with_spans(self, spans: SpanCollector) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().spans = Some(spans);
        }
        self
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an epoch sampler is attached (callers skip per-quantum gauge
    /// updates entirely when not).
    pub fn has_epochs(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.borrow().epochs.is_some())
    }

    /// Whether a span collector is attached. The controller and device
    /// cache this at `set_telemetry` time so the disabled hot path stays
    /// one local bool test.
    pub fn has_spans(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.borrow().spans.is_some())
    }

    /// Adds `by` to a named counter.
    pub fn inc(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.inc(name, by);
        }
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.observe(name, v);
        }
    }

    /// Sets a named gauge.
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.set_gauge(name, v);
        }
    }

    /// Sets a named counter to an absolute (cumulative) value.
    pub fn set_counter(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().registry.set_counter(name, v);
        }
    }

    /// Advances the epoch sampler to simulated time `t_ps` (no-op unless a
    /// sampler is attached). Call once per simulation quantum, after
    /// updating any per-quantum counters/gauges.
    pub fn epoch_tick(&self, t_ps: u64) {
        if let Some(inner) = &self.inner {
            let rec = &mut *inner.borrow_mut();
            if let Some(s) = rec.epochs.as_mut() {
                s.tick(t_ps, &rec.registry);
            }
        }
    }

    /// Closes the epoch series at simulated time `t_ps`, emitting a final
    /// partial epoch if needed.
    pub fn epoch_finish(&self, t_ps: u64) {
        if let Some(inner) = &self.inner {
            let rec = &mut *inner.borrow_mut();
            if let Some(s) = rec.epochs.as_mut() {
                s.finish(t_ps, &rec.registry);
            }
        }
    }

    /// The epoch series as compact JSONL; `None` unless a sampler is
    /// attached.
    pub fn epochs_jsonl(&self) -> Option<String> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().epochs.as_ref().map(EpochSampler::to_jsonl))
    }

    /// Per-series epoch summaries for the manifest; `None` unless a
    /// sampler is attached.
    pub fn epochs_summary_json(&self) -> Option<Json> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().epochs.as_ref().map(EpochSampler::summary_json))
    }

    /// Records a structured event: counted always, written to the event
    /// sink when one is attached. `fields` are only built by the caller
    /// when enabled — guard with [`Telemetry::is_enabled`] if building
    /// them is not free.
    pub fn event(&self, t_ps: u64, kind: &str, fields: &[(&str, Json)]) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            *rec.event_counts.entry(kind.to_string()).or_insert(0) += 1;
            if let Some(sink) = rec.events.as_mut() {
                sink.emit(t_ps, kind, fields);
            }
        }
    }

    /// Writes one command-trace line; `line` is only invoked when a trace
    /// sink is attached, so the hot path never formats.
    pub fn trace_line(&self, line: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            if let Some(sink) = rec.trace.as_mut() {
                let text = line();
                sink.line(&text);
            }
        }
    }

    /// Records a subchannel-wide blocking interval (REF/RFM/ALERT) for
    /// stall attribution; see [`SpanCollector::block_span`].
    pub fn span_block(&self, subch: u32, bucket: StallBucket, start_ps: u64, end_ps: u64) {
        if let Some(inner) = &self.inner {
            if let Some(s) = inner.borrow_mut().spans.as_mut() {
                s.block_span(subch, bucket, start_ps, end_ps);
            }
        }
    }

    /// Attributes one finished memory request; see
    /// [`SpanCollector::request_done`].
    pub fn span_request(
        &self,
        subch: u32,
        bank: usize,
        arrival_ps: u64,
        own_ps: Option<u64>,
        issue_ps: u64,
    ) {
        if let Some(inner) = &self.inner {
            if let Some(s) = inner.borrow_mut().spans.as_mut() {
                s.request_done(subch, bank, arrival_ps, own_ps, issue_ps);
            }
        }
    }

    /// Records a row's open interval for the Chrome trace; see
    /// [`SpanCollector::bank_span`].
    pub fn span_bank(&self, subch: u32, bank: usize, row: u64, opened_ps: u64, closed_ps: u64) {
        if let Some(inner) = &self.inner {
            if let Some(s) = inner.borrow_mut().spans.as_mut() {
                s.bank_span(subch, bank, row, opened_ps, closed_ps);
            }
        }
    }

    /// Run-level attribution rollup; `None` unless a span collector is
    /// attached.
    pub fn spans_summary(&self) -> Option<AttributionSummary> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().spans.as_ref().map(SpanCollector::summary))
    }

    /// Per-bank attributions in deterministic order; empty unless a span
    /// collector is attached.
    pub fn spans_bank_attributions(&self) -> Vec<((u32, usize), BankAttribution)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.borrow()
                .spans
                .as_ref()
                .map_or_else(Vec::new, SpanCollector::bank_attributions)
        })
    }

    /// Terminates the span collector's Chrome trace array; the next
    /// [`Telemetry::flush`] (or the drop) writes it out.
    pub fn spans_finish(&self) {
        if let Some(inner) = &self.inner {
            if let Some(s) = inner.borrow_mut().spans.as_mut() {
                s.finish();
            }
        }
    }

    /// Runs `f` with the recorder (no-op when disabled). For reads at
    /// report time, not for the hot path.
    pub fn with_recorder<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&mut i.borrow_mut()))
    }

    /// Snapshot of a counter value (0 when disabled or never set).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().registry.counter(name))
    }

    /// Snapshot of a histogram's sample count.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.borrow().registry.histogram(name).map_or(0, |h| h.count())
        })
    }

    /// Serializes the registry plus event counts (for manifests); `None`
    /// when disabled.
    pub fn to_json(&self) -> Option<Json> {
        self.inner.as_ref().map(|i| {
            let rec = i.borrow();
            let mut doc = rec.registry.to_json();
            let mut events = Json::obj();
            for (kind, n) in &rec.event_counts {
                events.push(kind, *n);
            }
            doc.push("events", events);
            doc
        })
    }

    /// Flushes every attached sink — events, command trace, and the span
    /// collector's Chrome trace — and returns the first write error any of
    /// them kept since the last flush: a sink never fails a write in place,
    /// so this is where a lost artifact surfaces. Error paths that bypass
    /// destructors (`std::process::exit`) must call this so no buffered
    /// records are lost.
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut rec = inner.borrow_mut();
        let events = rec.events.as_mut().map_or(Ok(()), EventSink::flush);
        let trace = rec.trace.as_mut().map_or(Ok(()), TraceSink::flush);
        let spans = rec.spans.as_mut().map_or(Ok(()), SpanCollector::flush);
        events.and(trace).and(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.inc("c", 1);
        t.observe("h", 10);
        t.set_gauge("g", 1.0);
        t.event(0, "x", &[]);
        t.trace_line(|| panic!("must not format when disabled"));
        assert_eq!(t.counter("c"), 0);
        assert_eq!(t.histogram_count("h"), 0);
        assert!(t.to_json().is_none());
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.inc("c", 2);
        u.inc("c", 3);
        assert_eq!(t.counter("c"), 5);
        u.observe("h", 9);
        assert_eq!(t.histogram_count("h"), 1);
    }

    #[test]
    fn events_counted_without_sink_and_written_with_one() {
        let t = Telemetry::enabled();
        t.event(1, "alert_raised", &[]);
        let counts = t
            .with_recorder(|r| r.event_counts.get("alert_raised").copied())
            .unwrap();
        assert_eq!(counts, Some(1));

        let buf = SharedBuf::new();
        let t = Telemetry::enabled().with_events(EventSink::new(buf.writer()));
        t.event(7, "rfm", &[("bank", Json::U64(3))]);
        t.flush().unwrap();
        let line = buf.contents();
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("t_ps").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("bank").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn trace_lines_only_format_when_sink_attached() {
        let t = Telemetry::enabled();
        t.trace_line(|| panic!("no sink attached"));

        let buf = SharedBuf::new();
        let t = Telemetry::enabled().with_trace(TraceSink::new(buf.writer()));
        t.trace_line(|| "100 ACT sc0 ba1 row2".to_string());
        t.flush().unwrap();
        assert_eq!(buf.contents(), "100 ACT sc0 ba1 row2\n");
    }

    #[test]
    fn epoch_sampler_through_handle() {
        let t = Telemetry::enabled().with_epochs(EpochSampler::new(100));
        assert!(t.has_epochs());
        t.inc("c", 3);
        t.epoch_tick(100);
        t.inc("c", 4);
        t.epoch_finish(150);
        let jsonl = t.epochs_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        let sum = t.epochs_summary_json().unwrap();
        assert_eq!(sum.get("epochs").unwrap().as_u64(), Some(2));

        let d = Telemetry::disabled().with_epochs(EpochSampler::new(100));
        assert!(!d.has_epochs());
        d.epoch_tick(100);
        assert!(d.epochs_jsonl().is_none());
    }

    #[test]
    fn span_collector_through_handle() {
        let t = Telemetry::enabled().with_spans(SpanCollector::new());
        assert!(t.has_spans());
        t.span_block(0, StallBucket::Refresh, 50, 100);
        t.span_request(0, 1, 0, Some(40), 120);
        let s = t.spans_summary().unwrap();
        assert_eq!(s.requests, 1);
        assert_eq!(s.total_stall_ps, 120);
        assert!(s.conserved);
        assert_eq!(t.spans_bank_attributions().len(), 1);

        let d = Telemetry::disabled().with_spans(SpanCollector::new());
        assert!(!d.has_spans());
        d.span_request(0, 0, 0, None, 10);
        assert!(d.spans_summary().is_none());
        assert!(d.spans_bank_attributions().is_empty());
    }

    #[test]
    fn flush_covers_the_chrome_sink() {
        // Stage bytes behind a flush boundary (like a BufWriter) and prove
        // Telemetry::flush pushes them through — the SimError exit paths
        // depend on this.
        let buf = SharedBuf::new();
        let sink = ChromeTraceSink::new(sink::test_writers::LazyBuf::boxed(&buf));
        let t = Telemetry::enabled().with_spans(SpanCollector::new().with_chrome(sink));
        t.span_bank(0, 0, 7, 0, 1_000_000);
        assert_eq!(buf.contents(), "", "bytes staged until flush");
        t.flush().unwrap();
        assert!(buf.contents().contains("row7"));
        t.spans_finish();
        t.flush().unwrap();
        assert!(Json::parse(&buf.contents()).is_ok());
    }

    #[test]
    fn flush_returns_the_first_error_any_sink_kept() {
        let buf = SharedBuf::new();
        let t = Telemetry::enabled()
            .with_events(EventSink::new(buf.writer()))
            .with_trace(TraceSink::new(Box::new(
                sink::test_writers::FullDisk::default(),
            )));
        t.event(5, "rfm", &[]);
        t.trace_line(|| "5 RFM sc0".to_string());
        let err = t.flush().expect_err("the trace sink lost a line");
        assert_eq!(err.to_string(), "write 1 failed");
        assert!(
            buf.contents().contains("\"rfm\""),
            "healthy sinks still flush"
        );
        assert!(Telemetry::disabled().flush().is_ok());
    }

    #[test]
    fn set_counter_is_absolute() {
        let t = Telemetry::enabled();
        t.set_counter("core0.instructions", 10);
        t.set_counter("core0.instructions", 25);
        assert_eq!(t.counter("core0.instructions"), 25);
    }

    #[test]
    fn to_json_includes_event_counts() {
        let t = Telemetry::enabled();
        t.inc("acts", 4);
        t.event(0, "rfm", &[]);
        t.event(1, "rfm", &[]);
        let doc = t.to_json().unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("acts").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            doc.get("events").unwrap().get("rfm").unwrap().as_u64(),
            Some(2)
        );
    }
}
