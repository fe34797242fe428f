//! Output sinks: JSONL structured events and DRAMSim3-style command traces.
//!
//! Both sinks write through `Box<dyn Write>` so callers can point them at
//! files, stdout, or an in-memory buffer ([`SharedBuf`]) in tests. Sinks are
//! only constructed when tracing is requested; the disabled path never
//! allocates or formats.
//!
//! Each sink formats a full line into one `String` and hands it to the
//! writer as a single `write_all` call. A sink never fails a write in
//! place: it keeps the first I/O error and returns it from its next
//! `flush`, so a lost artifact surfaces where the caller can report it.

use crate::json::Json;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// A sink's writer plus the first error it returned since the last flush.
pub(crate) struct Output {
    out: Box<dyn Write>,
    error: Option<io::Error>,
}

impl std::fmt::Debug for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Output").finish_non_exhaustive()
    }
}

impl Output {
    pub(crate) fn new(out: Box<dyn Write>) -> Self {
        Output { out, error: None }
    }

    /// Writes `bytes`, keeping an error for the next [`Output::flush`].
    pub(crate) fn write_all(&mut self, bytes: &[u8]) {
        if let Err(e) = self.out.write_all(bytes) {
            self.error.get_or_insert(e);
        }
    }

    /// Flushes the writer; returns the first error since the last flush.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        let flushed = self.out.flush();
        self.error.take().map_or(flushed, Err)
    }
}

/// Writes one JSON object per line for rare, structured events
/// (ALERT raised/cleared, RFM issued, queue overflow, ...).
#[derive(Debug)]
pub struct EventSink {
    out: Output,
}

impl EventSink {
    /// A sink writing JSONL to `out`.
    pub fn new(out: Box<dyn Write>) -> Self {
        EventSink {
            out: Output::new(out),
        }
    }

    /// Emits `{"t_ps": <t>, "event": <kind>, ...fields}` on one line.
    pub fn emit(&mut self, t_ps: u64, kind: &str, fields: &[(&str, Json)]) {
        let mut doc = Json::obj();
        doc.push("t_ps", t_ps).push("event", kind);
        for (k, v) in fields {
            doc.push(k, v.clone());
        }
        let mut line = doc.to_string_compact();
        line.push('\n');
        self.out.write_all(line.as_bytes());
    }

    /// Flushes buffered output; returns the first write error since the
    /// last flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Flush on drop so panics and early exits still leave every fully-emitted
/// JSONL line on disk (a truncated run stays parseable line-by-line).
impl Drop for EventSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Writes a per-command text trace, one line per DRAM command, in the
/// DRAMSim3 spirit: `<t_ps> <command> <location>`.
#[derive(Debug)]
pub struct TraceSink {
    out: Output,
}

impl TraceSink {
    /// A sink writing text lines to `out`.
    pub fn new(out: Box<dyn Write>) -> Self {
        TraceSink {
            out: Output::new(out),
        }
    }

    /// Writes one trace line (no trailing newline needed).
    pub fn line(&mut self, text: &str) {
        let mut line = String::with_capacity(text.len() + 1);
        line.push_str(text);
        line.push('\n');
        self.out.write_all(line.as_bytes());
    }

    /// Flushes buffered output; returns the first write error since the
    /// last flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Flush on drop — see [`EventSink`]'s `Drop` impl.
impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A shared in-memory buffer usable as a sink target in tests.
#[derive(Debug, Default, Clone)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `Write` handle feeding this buffer.
    pub fn writer(&self) -> Box<dyn Write> {
        Box::new(SharedBuf(Rc::clone(&self.0)))
    }

    /// The buffer contents decoded as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.borrow().clone()).expect("sink output is utf-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writers that misbehave the way files do, for the sinks' tests.
#[cfg(test)]
pub(crate) mod test_writers {
    use super::SharedBuf;
    use std::io::{self, Write};

    /// Stages bytes and forwards them to a [`SharedBuf`] only on `flush`,
    /// like a `BufWriter` whose bytes a sink's `Drop` guard must push out.
    pub(crate) struct LazyBuf {
        staged: Vec<u8>,
        out: SharedBuf,
    }

    impl LazyBuf {
        pub(crate) fn boxed(out: &SharedBuf) -> Box<dyn Write> {
            Box::new(LazyBuf {
                staged: Vec::new(),
                out: out.clone(),
            })
        }
    }

    impl Write for LazyBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.staged.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.out.write_all(&std::mem::take(&mut self.staged))
        }
    }

    /// Fails every write, numbering its errors so a test can tell the
    /// first from later ones (a file on a full disk).
    #[derive(Default)]
    pub(crate) struct FullDisk(u32);

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Err(io::Error::other(format!("write {} failed", self.0)))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_writers::{FullDisk, LazyBuf};
    use super::*;

    #[test]
    fn event_sink_writes_jsonl() {
        let buf = SharedBuf::new();
        let mut sink = EventSink::new(buf.writer());
        sink.emit(100, "alert_raised", &[("subch", Json::U64(1))]);
        sink.emit(250, "rfm", &[]);
        sink.flush().unwrap();
        let lines: Vec<String> = buf.contents().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("t_ps").unwrap().as_u64(), Some(100));
        assert_eq!(first.get("event").unwrap().as_str(), Some("alert_raised"));
        assert_eq!(first.get("subch").unwrap().as_u64(), Some(1));
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("event").unwrap().as_str(), Some("rfm"));
    }

    #[test]
    fn sinks_flush_on_drop() {
        let buf = SharedBuf::new();
        {
            let mut sink = EventSink::new(LazyBuf::boxed(&buf));
            sink.emit(42, "truncated_run", &[]);
            assert_eq!(buf.contents(), "", "bytes still staged before drop");
        }
        let line = buf.contents();
        let parsed = Json::parse(line.trim()).expect("dropped sink left parseable JSONL");
        assert_eq!(parsed.get("t_ps").unwrap().as_u64(), Some(42));

        let buf = SharedBuf::new();
        {
            let mut sink = TraceSink::new(LazyBuf::boxed(&buf));
            sink.line("100 ACT sc0 ba0 row0");
        }
        assert_eq!(buf.contents(), "100 ACT sc0 ba0 row0\n");
    }

    #[test]
    fn trace_sink_counts_lines() {
        let buf = SharedBuf::new();
        let mut sink = TraceSink::new(buf.writer());
        sink.line("100 ACT ch0 ba3 row42");
        sink.line("250 RD ch0 ba3 col7");
        assert_eq!(buf.contents().lines().count(), 2);
        assert_eq!(
            buf.contents(),
            "100 ACT ch0 ba3 row42\n250 RD ch0 ba3 col7\n"
        );
    }

    #[test]
    fn event_sink_reports_its_first_write_error_at_flush() {
        let mut sink = EventSink::new(Box::new(FullDisk::default()));
        sink.emit(1, "rfm", &[]);
        sink.emit(2, "rfm", &[]);
        let err = sink.flush().expect_err("lost lines must be reported");
        assert_eq!(err.to_string(), "write 1 failed");
        assert!(sink.flush().is_ok(), "each error is reported once");
    }

    #[test]
    fn trace_sink_reports_its_first_write_error_at_flush() {
        let mut sink = TraceSink::new(Box::new(FullDisk::default()));
        sink.line("100 ACT sc0 ra0 ba0 row0");
        sink.line("200 PRE sc0 ra0 ba0");
        let err = sink.flush().expect_err("lost lines must be reported");
        assert_eq!(err.to_string(), "write 1 failed");
    }
}
