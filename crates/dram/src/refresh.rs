//! Refresh-pointer bookkeeping (Appendix B, Figure 14).
//!
//! DDR5 performs an all-bank REF roughly every tREFI. Each REF refreshes a
//! contiguous slice of physical rows (16 in the paper's configuration) at the
//! position of a per-bank `RefPtr` that walks the bank sequentially, one
//! subarray at a time, completing a full pass every tREFW.
//!
//! Refresh is also the controller's liveness anchor: the device's next REF
//! deadline (`Subchannel::next_ref_due`) guarantees the controller always
//! has a bounded next action, even when every queue is empty.

use crate::mitigation::RefreshSlice;

/// Walks the physical rows of a bank in REF-sized steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshPointer {
    rows_per_bank: u32,
    rows_per_ref: u32,
    steps_per_walk: u32,
    step: u64,
}

impl RefreshPointer {
    /// Creates a pointer for a bank of `rows_per_bank` rows refreshed
    /// `rows_per_ref` rows at a time.
    ///
    /// # Panics
    /// Panics if `rows_per_ref` is zero or does not divide `rows_per_bank`.
    pub fn new(rows_per_bank: u32, rows_per_ref: u32) -> Self {
        assert!(rows_per_ref > 0, "rows_per_ref must be non-zero");
        assert!(
            rows_per_bank.is_multiple_of(rows_per_ref),
            "rows_per_ref must divide the bank"
        );
        RefreshPointer {
            rows_per_bank,
            rows_per_ref,
            steps_per_walk: rows_per_bank / rows_per_ref,
            step: 0,
        }
    }

    /// Total REF steps in one full walk of the bank.
    pub fn steps_per_walk(&self) -> u32 {
        self.steps_per_walk
    }

    /// Number of REF commands consumed so far.
    pub fn refs_issued(&self) -> u64 {
        self.step
    }

    /// Completed full walks of the bank.
    pub fn walks_completed(&self) -> u64 {
        self.step / u64::from(self.steps_per_walk)
    }

    /// The slice the *next* REF will refresh, without advancing.
    pub fn peek(&self) -> RefreshSlice {
        let pos = (self.step % u64::from(self.steps_per_walk)) as u32;
        let start = pos * self.rows_per_ref;
        RefreshSlice {
            index: self.step,
            phys_rows: start..start + self.rows_per_ref,
        }
    }

    /// Advances by one REF and returns the slice it refreshed.
    pub fn advance(&mut self) -> RefreshSlice {
        let slice = self.peek();
        self.step += 1;
        slice
    }

    /// Jumps the pointer forward by `steps` positions without refreshing
    /// anything — a fault-injection hook modeling a corrupted RefPtr. The
    /// skipped rows simply miss this walk's refresh.
    pub fn skip(&mut self, steps: u32) {
        self.step += u64::from(steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_the_whole_bank() {
        let mut p = RefreshPointer::new(128 * 1024, 16);
        assert_eq!(p.steps_per_walk(), 8192);
        let first = p.advance();
        assert_eq!(first.index, 0);
        assert_eq!(first.phys_rows, 0..16);
        // Fast-forward to the last step of the first walk.
        for _ in 1..8191 {
            p.advance();
        }
        let last = p.advance();
        assert_eq!(last.phys_rows, (128 * 1024 - 16)..(128 * 1024));
        assert_eq!(p.walks_completed(), 1);
        // Wraps around.
        assert_eq!(p.advance().phys_rows, 0..16);
    }

    #[test]
    fn subarray_takes_64_refs() {
        // A 1024-row subarray at 16 rows/REF takes 64 REFs (Section V-C).
        let mut p = RefreshPointer::new(128 * 1024, 16);
        for i in 0..64 {
            let s = p.advance();
            assert!(s.phys_rows.end <= 1024, "step {i} left subarray 0");
        }
        assert_eq!(p.peek().phys_rows.start, 1024);
    }

    #[test]
    #[should_panic(expected = "divide the bank")]
    fn rejects_uneven_step() {
        let _ = RefreshPointer::new(100, 16);
    }
}
