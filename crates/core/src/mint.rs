//! MINT: the Minimalist In-DRAM Tracker (Section II-E, Figure 2).
//!
//! MINT operates on windows of `W` candidate activations. Before each window
//! it uniformly picks which of the next `W` candidates will be *selected*;
//! when that candidate arrives its row is emitted for mitigation. A single
//! register of state per bank suffices.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One MINT sampling window over a stream of candidate activations.
///
/// ```
/// use mirza_core::mint::MintSampler;
/// let mut mint = MintSampler::new(4, 7);
/// let mut selected = Vec::new();
/// for row in 0..8u32 {
///     if let Some(sel) = mint.observe(row) {
///         selected.push(sel);
///     }
/// }
/// // Exactly one selection per window of four candidates.
/// assert_eq!(selected.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MintSampler {
    w: u32,
    seen: u32,
    target: u32,
    rng: SmallRng,
}

impl MintSampler {
    /// Creates a sampler with window size `w`, seeded deterministically.
    ///
    /// # Panics
    /// Panics if `w` is zero.
    pub fn new(w: u32, seed: u64) -> Self {
        assert!(w > 0, "MINT window must be non-zero");
        let mut rng = SmallRng::seed_from_u64(seed);
        let target = rng.gen_range(1..=w);
        MintSampler {
            w,
            seen: 0,
            target,
            rng,
        }
    }

    /// Window size.
    pub fn window(&self) -> u32 {
        self.w
    }

    /// Feeds one candidate activation. Returns `Some(row)` when this
    /// candidate is the one selected for the current window.
    pub fn observe(&mut self, row: u32) -> Option<u32> {
        self.seen += 1;
        let hit = self.seen == self.target;
        if self.seen == self.w {
            self.seen = 0;
            self.target = self.rng.gen_range(1..=self.w);
        }
        hit.then_some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exactly_one_selection_per_window() {
        for w in [1u32, 4, 12, 75] {
            let mut mint = MintSampler::new(w, 42);
            let mut selections = 0;
            for i in 0..(w * 100) {
                if mint.observe(i).is_some() {
                    selections += 1;
                }
            }
            assert_eq!(selections, 100, "window {w}");
        }
    }

    #[test]
    fn selection_is_uniform_over_positions() {
        let w = 8u32;
        let trials = 40_000;
        let mut counts: HashMap<u32, u32> = HashMap::new();
        let mut mint = MintSampler::new(w, 7);
        for _ in 0..trials {
            for pos in 0..w {
                if mint.observe(pos).is_some() {
                    *counts.entry(pos).or_default() += 1;
                }
            }
        }
        let expect = trials as f64 / w as f64;
        for pos in 0..w {
            let c = f64::from(*counts.get(&pos).unwrap_or(&0));
            assert!(
                (c - expect).abs() < expect * 0.1,
                "position {pos} selected {c} times, expected ~{expect}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = MintSampler::new(12, seed);
            (0..1000u32)
                .filter_map(|i| m.observe(i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn window_of_one_selects_everything() {
        let mut m = MintSampler::new(1, 0);
        for i in 0..10u32 {
            assert_eq!(m.observe(i), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = MintSampler::new(0, 0);
    }
}
