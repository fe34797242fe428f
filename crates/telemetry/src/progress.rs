//! Locked stderr progress lines.
//!
//! Heartbeats, `running <key>`-style status lines, and pool progress all
//! land on stderr. Serial code could `eprintln!` freely, but parallel sweep
//! workers racing the same stream can splice partial lines together. This
//! module is the one shared chokepoint: a process-wide mutex plus a single
//! `write_all` per line, so concurrent emitters interleave only at line
//! granularity. (The lock is writer-side, here — call sites never manage
//! their own.)
//!
//! `std::io::Stderr` is itself line-locked per call, but formatting through
//! `eprintln!` may issue several writes for one logical line; routing
//! through [`line()`] closes that gap and gives non-stderr consumers (tests)
//! a capture hook.

use std::io::Write;
use std::sync::Mutex;

static PROGRESS: Mutex<()> = Mutex::new(());

/// Writes one complete progress line to stderr, atomically with respect to
/// every other [`line()`] caller in the process.
pub fn line(text: &str) {
    let mut buf = String::with_capacity(text.len() + 1);
    buf.push_str(text);
    buf.push('\n');
    let _guard = PROGRESS.lock().expect("progress mutex poisoned");
    let _ = std::io::stderr().write_all(buf.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    // Deadlock smoke only — stderr writes bypass the test harness's output
    // capture, so keep the noise to one line per thread.
    #[test]
    fn concurrent_lines_do_not_deadlock() {
        std::thread::scope(|scope| {
            for w in 0..2 {
                scope.spawn(move || line(&format!("progress-test worker {w}")));
            }
        });
    }
}
