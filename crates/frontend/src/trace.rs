//! Trace vocabulary shared between workload generators and the core model.
//!
//! Traces are expressed at the last-level-cache access level (Ramulator
//! style): each record is "`nonmem` non-memory instructions, then one LLC
//! access". The generators in `mirza-workloads` produce these streams.

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions preceding the access.
    pub nonmem: u32,
    /// Virtual byte address of the access.
    pub vaddr: u64,
    /// True for stores (write-allocate, dirty fill).
    pub is_store: bool,
}

/// A stream of trace records; generators may be infinite (the core model
/// bounds execution by instruction count).
pub trait AccessStream {
    /// Produces the next record, or `None` when the trace is exhausted.
    fn next_op(&mut self) -> Option<TraceOp>;
}

/// Replays a fixed vector of records (test and attack-kernel helper).
#[derive(Debug, Clone)]
pub struct VecStream {
    ops: Vec<TraceOp>,
    pos: usize,
    looping: bool,
}

impl VecStream {
    /// A stream that ends after one pass.
    pub fn once(ops: Vec<TraceOp>) -> Self {
        VecStream {
            ops,
            pos: 0,
            looping: false,
        }
    }

    /// A stream that repeats forever.
    ///
    /// # Panics
    /// Panics if `ops` is empty.
    pub fn looping(ops: Vec<TraceOp>) -> Self {
        assert!(!ops.is_empty(), "cannot loop an empty trace");
        VecStream {
            ops,
            pos: 0,
            looping: true,
        }
    }
}

impl AccessStream for VecStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.pos == self.ops.len() {
            if !self.looping {
                return None;
            }
            self.pos = 0;
        }
        let op = self.ops[self.pos];
        self.pos += 1;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(v: u64) -> TraceOp {
        TraceOp {
            nonmem: 1,
            vaddr: v,
            is_store: false,
        }
    }

    #[test]
    fn once_ends() {
        let mut s = VecStream::once(vec![op(1), op(2)]);
        assert_eq!(s.next_op().unwrap().vaddr, 1);
        assert_eq!(s.next_op().unwrap().vaddr, 2);
        assert!(s.next_op().is_none());
    }

    #[test]
    fn looping_wraps() {
        let mut s = VecStream::looping(vec![op(1), op(2)]);
        for _ in 0..3 {
            assert_eq!(s.next_op().unwrap().vaddr, 1);
            assert_eq!(s.next_op().unwrap().vaddr, 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_loop_panics() {
        let _ = VecStream::looping(vec![]);
    }
}
