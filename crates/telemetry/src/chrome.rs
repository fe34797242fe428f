//! Chrome trace-event / Perfetto JSON exporter.
//!
//! Emits the JSON Array Format understood by `chrome://tracing`,
//! <https://ui.perfetto.dev>, and Speedscope: one object per event, `ph:"B"`
//! / `ph:"E"` duration pairs plus `ph:"M"` thread-name metadata. Timestamps
//! are **simulated** time in microseconds (the format's unit), so a loaded
//! trace shows bank occupancy and blocking commands (REF/RFM/ALERT) on the
//! simulator's own clock.
//!
//! The array's closing `]` is written by [`ChromeTraceSink::finish`] (or on
//! drop). Both viewers accept a truncated array without the terminator, so
//! a run that dies mid-way still leaves a loadable file as long as buffered
//! bytes were flushed — which the `Drop` impl and
//! [`crate::Telemetry::flush`] guarantee on the error paths. Like the
//! other sinks, this one keeps its first write error for the next flush.

use crate::sink::Output;
use std::io::{self, Write};

/// Writes Chrome trace-event JSON. Tracks (named horizontal lanes in the
/// viewer) map to `tid`s, allocated on first use; everything shares `pid` 0.
pub struct ChromeTraceSink {
    out: Output,
    /// Track names in tid order (tid = index).
    tracks: Vec<String>,
    events: u64,
    finished: bool,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("tracks", &self.tracks.len())
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl ChromeTraceSink {
    /// A sink writing the event array to `out`.
    pub fn new(out: Box<dyn Write>) -> Self {
        let mut sink = ChromeTraceSink {
            out: Output::new(out),
            tracks: Vec::new(),
            events: 0,
            finished: false,
        };
        sink.out.write_all(b"[");
        sink
    }

    fn tid(&mut self, track: &str) -> u64 {
        if let Some(i) = self.tracks.iter().position(|t| t == track) {
            return i as u64;
        }
        let tid = self.tracks.len() as u64;
        self.tracks.push(track.to_string());
        // Name the lane so the viewer shows the track string, not a number.
        self.raw(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{track}\"}}}}"
        ));
        tid
    }

    fn raw(&mut self, event: &str) {
        let sep = if self.events == 0 { "\n" } else { ",\n" };
        self.out.write_all(sep.as_bytes());
        self.out.write_all(event.as_bytes());
        self.events += 1;
    }

    fn ts(t_ps: u64) -> f64 {
        t_ps as f64 / 1e6
    }

    /// Emits a complete `[start_ps, end_ps)` span named `name` on `track`.
    /// Spans on one track must be recorded in start order and must not
    /// overlap — exactly what the span collector's clipped timeline and the
    /// one-open-row-per-bank invariant provide — so `ts` stays monotone per
    /// track and every `B` has a matching `E`.
    pub fn span(&mut self, track: &str, name: &str, start_ps: u64, end_ps: u64) {
        if self.finished {
            return;
        }
        let tid = self.tid(track);
        let b = Self::ts(start_ps);
        let e = Self::ts(end_ps.max(start_ps));
        self.raw(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{b:?},\"pid\":0,\"tid\":{tid}}}"
        ));
        self.raw(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{e:?},\"pid\":0,\"tid\":{tid}}}"
        ));
    }

    /// Flushes buffered output without terminating the array (the partial
    /// file stays loadable); returns the first write error since the last
    /// flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Writes the closing `]`; the next [`ChromeTraceSink::flush`] (or the
    /// drop) pushes it out. Idempotent; further spans are dropped.
    pub fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.out.write_all(b"\n]\n");
        }
    }
}

/// Terminate and flush on drop so early exits still leave a complete file —
/// see `EventSink`'s `Drop` impl for the staged-bytes rationale.
impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        self.finish();
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::sink::test_writers::{FullDisk, LazyBuf};
    use crate::sink::SharedBuf;

    #[test]
    fn emits_parseable_array_with_named_tracks() {
        let buf = SharedBuf::new();
        {
            let mut sink = ChromeTraceSink::new(buf.writer());
            sink.span("sc0/bank00", "row42", 1_000_000, 3_000_000);
            sink.span("sc0 mitigations", "refresh", 2_000_000, 4_000_000);
            sink.finish();
        }
        let doc = Json::parse(&buf.contents()).expect("valid JSON array");
        let events = doc.as_arr().expect("array format");
        // 2 metadata + 2 B/E pairs.
        assert_eq!(events.len(), 6);
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("sc0/bank00")
        );
        let begins: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(begins[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(begins[0].get("name").unwrap().as_str(), Some("row42"));
    }

    #[test]
    fn tracks_reuse_one_tid_and_spans_pair_up() {
        let buf = SharedBuf::new();
        {
            let mut sink = ChromeTraceSink::new(buf.writer());
            sink.span("t", "a", 0, 10);
            sink.span("t", "b", 10, 25);
            sink.finish();
        }
        let doc = Json::parse(&buf.contents()).unwrap();
        let events = doc.as_arr().unwrap();
        let tids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        assert!(tids.iter().all(|&t| t == 0), "one track, one tid");
        let mut open = 0i64;
        let mut last_ts = f64::NEG_INFINITY;
        for e in events {
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => open += 1,
                Some("E") => {
                    open -= 1;
                    assert!(open >= 0, "E without matching B");
                }
                _ => continue,
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "ts must be monotone per track");
            last_ts = ts;
        }
        assert_eq!(open, 0, "every B matched by an E");
    }

    #[test]
    fn drop_terminates_and_flushes() {
        let buf = SharedBuf::new();
        {
            let mut sink = ChromeTraceSink::new(LazyBuf::boxed(&buf));
            sink.span("t", "a", 0, 5);
            assert_eq!(buf.contents(), "", "bytes still staged before drop");
        }
        let doc = Json::parse(&buf.contents()).expect("dropped sink left a complete array");
        assert_eq!(doc.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn flush_preserves_loadable_truncated_array() {
        let buf = SharedBuf::new();
        let mut sink = ChromeTraceSink::new(LazyBuf::boxed(&buf));
        sink.span("t", "a", 0, 5);
        sink.flush().unwrap();
        // No `]` yet: the fatal-exit path leaves this shape behind. Both
        // viewers accept it; completing the array must make it parse.
        let truncated = buf.contents();
        assert!(!truncated.trim_end().ends_with(']'));
        let completed = format!("{truncated}\n]");
        assert!(Json::parse(&completed).is_ok());
        sink.finish();
        sink.flush().unwrap();
        assert!(Json::parse(&buf.contents()).is_ok());
    }

    #[test]
    fn finish_is_idempotent_and_closes_the_sink() {
        let buf = SharedBuf::new();
        let mut sink = ChromeTraceSink::new(buf.writer());
        sink.span("t", "a", 0, 5);
        sink.finish();
        sink.finish();
        sink.span("t", "late", 10, 20);
        let doc = Json::parse(&buf.contents()).expect("still one valid array");
        assert_eq!(doc.as_arr().unwrap().len(), 3, "post-finish span dropped");
    }

    #[test]
    fn reports_its_first_write_error_at_flush() {
        let mut sink = ChromeTraceSink::new(Box::new(FullDisk::default()));
        sink.span("t", "a", 0, 5);
        sink.finish();
        let err = sink.flush().expect_err("a lost trace must be reported");
        assert_eq!(err.to_string(), "write 1 failed", "the opening `[`");
    }
}
