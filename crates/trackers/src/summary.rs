//! Space-Saving frequent-item summary: the counter-table core shared by
//! Mithril-style and TRR-style trackers.
//!
//! Maintains at most `k` (row, count) pairs. A hit increments the row's
//! count; a miss on a full table evicts the minimum-count entry and adopts
//! its count plus one (the classic Space-Saving over-estimate, which is what
//! gives Misra-Gries-style trackers their security bound).

/// One tracked row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryEntry {
    /// Tracked row address.
    pub row: u32,
    /// Estimated activation count (never an under-estimate).
    pub count: u32,
}

/// Bounded counter table.
///
/// Rows and counts live in two index-aligned flat arrays, so the per-ACT
/// row lookup and the eviction's minimum search each scan one contiguous
/// `u32` slice.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    k: usize,
    rows: Vec<u32>,
    counts: Vec<u32>,
}

impl SpaceSaving {
    /// Creates an empty table of capacity `k`.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "summary capacity must be non-zero");
        SpaceSaving {
            k,
            rows: Vec::with_capacity(k),
            counts: Vec::with_capacity(k),
        }
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Entries currently tracked.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Estimated count for `row`, zero if untracked.
    pub fn count(&self, row: u32) -> u32 {
        position(&self.rows, row).map_or(0, |i| self.counts[i])
    }

    /// Iterates over tracked entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = SummaryEntry> + '_ {
        self.rows
            .iter()
            .zip(&self.counts)
            .map(|(&row, &count)| SummaryEntry { row, count })
    }

    /// Records one activation of `row`.
    pub fn observe(&mut self, row: u32) {
        if let Some(i) = position(&self.rows, row) {
            self.counts[i] += 1;
        } else if self.rows.len() < self.k {
            self.rows.push(row);
            self.counts.push(1);
        } else {
            // The first minimum, as `min_by_key` picks it.
            let i = position(&self.counts, min(&self.counts)).expect("the minimum is tracked");
            self.rows[i] = row;
            self.counts[i] += 1;
        }
    }

    /// Removes and returns the maximum-count entry (the mitigation target).
    pub fn pop_max(&mut self) -> Option<SummaryEntry> {
        let i = last_max(&self.counts)?;
        Some(SummaryEntry {
            row: self.rows.swap_remove(i),
            count: self.counts.swap_remove(i),
        })
    }

    /// The maximum count currently tracked (zero when empty).
    pub fn max_count(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Values the flat scans test at once: eight `u32`s, two SSE2 registers.
const LANES: usize = 8;

/// Index of the first `x` in `values`. Each chunk of [`LANES`] is tested
/// with a branch-free fold, which compiles to SIMD compares; only the
/// chunk that holds `x` is then searched value by value.
pub(crate) fn position(values: &[u32], x: u32) -> Option<usize> {
    let mut chunks = values.chunks_exact(LANES);
    for (c, chunk) in chunks.by_ref().enumerate() {
        if chunk.iter().fold(false, |hit, &v| hit | (v == x)) {
            return chunk.iter().position(|&v| v == x).map(|i| c * LANES + i);
        }
    }
    let tail = values.len() - chunks.remainder().len();
    chunks
        .remainder()
        .iter()
        .position(|&v| v == x)
        .map(|i| tail + i)
}

/// The smallest of `values` (`u32::MAX` when empty), folded into
/// [`LANES`] independent minima so it compiles to SIMD.
fn min(values: &[u32]) -> u32 {
    let mut lanes = [u32::MAX; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = (*m).min(v);
        }
    }
    lanes
        .iter()
        .chain(chunks.remainder())
        .fold(u32::MAX, |m, &v| m.min(v))
}

/// Index of the *last* maximum of `counts` (the entry `max_by_key`
/// picks), `None` when empty.
pub(crate) fn last_max(counts: &[u32]) -> Option<usize> {
    let max = counts.iter().copied().max()?;
    counts.iter().rposition(|&c| c == max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The array-of-structs table the flat one replaced: the reference for
    /// its tie rules (first minimum evicted, last maximum popped).
    struct Reference {
        k: usize,
        entries: Vec<SummaryEntry>,
    }

    impl Reference {
        fn observe(&mut self, row: u32) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.row == row) {
                e.count += 1;
                return;
            }
            if self.entries.len() < self.k {
                self.entries.push(SummaryEntry { row, count: 1 });
                return;
            }
            let min = self
                .entries
                .iter_mut()
                .min_by_key(|e| e.count)
                .expect("table is full, hence non-empty");
            min.row = row;
            min.count += 1;
        }

        fn pop_max(&mut self) -> Option<SummaryEntry> {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.count)?;
            Some(self.entries.swap_remove(i))
        }
    }

    proptest! {
        /// Random `observe`/`pop_max` sequences over a small row alphabet
        /// (hits, misses, evictions, count ties) leave the flat table and
        /// the reference equal entry for entry, and pop the same entries.
        #[test]
        fn flat_table_matches_reference(
            k in 1usize..20,
            alphabet in 1u32..40,
            ops in prop::collection::vec((0u8..8, any::<u32>()), 0..400),
        ) {
            let mut flat = SpaceSaving::new(k);
            let mut reference = Reference { k, entries: Vec::new() };
            for (op, r) in ops {
                if op == 0 {
                    prop_assert_eq!(flat.pop_max(), reference.pop_max());
                } else {
                    flat.observe(r % alphabet);
                    reference.observe(r % alphabet);
                }
                prop_assert_eq!(flat.iter().collect::<Vec<_>>(), reference.entries.clone());
            }
        }
    }

    #[test]
    fn scans_agree_with_iterator_rules_across_chunk_edges() {
        for len in 0..=2 * LANES + 3 {
            let values: Vec<u32> = (0..len as u32).map(|i| (i * 7) % 5).collect();
            for x in 0..6 {
                assert_eq!(position(&values, x), values.iter().position(|&v| v == x));
            }
            if len > 0 {
                assert_eq!(min(&values), *values.iter().min().unwrap());
            }
            let last = values
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, _)| i);
            assert_eq!(last_max(&values), last);
        }
    }

    #[test]
    fn hits_increment() {
        let mut s = SpaceSaving::new(2);
        s.observe(1);
        s.observe(1);
        s.observe(1);
        assert_eq!(s.count(1), 3);
        assert_eq!(s.count(2), 0);
    }

    #[test]
    fn eviction_adopts_min_plus_one() {
        let mut s = SpaceSaving::new(2);
        s.observe(1); // {1:1}
        s.observe(2); // {1:1, 2:1}
        s.observe(2); // {1:1, 2:2}
        s.observe(3); // evicts 1 -> {3:2, 2:2}
        assert_eq!(s.count(1), 0);
        assert_eq!(s.count(3), 2, "over-estimate preserved");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn count_never_underestimates_true_frequency() {
        // Space-Saving invariant: tracked count >= true count.
        let mut s = SpaceSaving::new(4);
        let stream: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let mut truth = [0u32; 7];
        for &r in &stream {
            s.observe(r);
            truth[r as usize] += 1;
            let est = s.count(r);
            if est > 0 {
                assert!(est >= truth[r as usize] / 2, "gross underestimate");
            }
        }
    }

    #[test]
    fn pop_max_returns_hottest() {
        let mut s = SpaceSaving::new(4);
        for _ in 0..5 {
            s.observe(10);
        }
        s.observe(20);
        let top = s.pop_max().unwrap();
        assert_eq!(top.row, 10);
        assert_eq!(top.count, 5);
        assert_eq!(s.max_count(), 1);
    }

    #[test]
    fn empty_behaviour() {
        let mut s = SpaceSaving::new(1);
        assert!(s.is_empty());
        assert_eq!(s.pop_max(), None);
        assert_eq!(s.max_count(), 0);
    }
}
