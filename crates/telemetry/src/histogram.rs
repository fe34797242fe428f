//! Log2-bucketed histograms with percentile estimation.
//!
//! Values are `u64` (the simulator records picoseconds, nanoseconds, queue
//! depths and counts). Bucket 0 holds exactly the value 0; bucket `i >= 1`
//! holds `[2^(i-1), 2^i - 1]`. Percentiles interpolate linearly inside a
//! bucket and are clamped to the observed `[min, max]`, so a histogram fed
//! a single distinct value reports that value exactly.

/// Number of buckets: one for zero plus one per power of two up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A fixed-size log2 histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The index of the bucket holding `v`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value bounds `(lo, hi)` of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples recorded in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside the
    /// containing bucket and clamped to the observed range. 0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        // 1-based rank of the sample that bounds the quantile from above.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let into = (rank - seen - 1) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// A compact summary (for manifests and log lines).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// Percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u128,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn counts_sum_min_max() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_count(0), 1); // the zero
        assert_eq!(h.bucket_count(1), 1); // the one
        assert_eq!(h.bucket_count(3), 2); // the fives
        assert_eq!(h.bucket_count(10), 1); // 1000 in [512, 1023]
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 777.0, "q={q}");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_bracketed() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Log2 buckets: the median of 1..=1000 (500) lies in [256, 511].
        assert!((256.0..=511.0).contains(&p50), "p50={p50}");
        assert!((512.0..=1000.0).contains(&p90), "p90={p90}");
        assert!((512.0..=1000.0).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(1.0), 1000.0);
    }

    #[test]
    fn summary_carries_all_fields() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-12);
        assert!(s.p50 >= 10.0 && s.p99 <= 30.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_quantile() {
        let _ = Histogram::new().percentile(1.5);
    }
}
