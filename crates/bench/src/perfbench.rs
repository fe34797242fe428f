//! The median that the benchmark (`benchsuite/`) reduces its repeated
//! runs with.

/// Statistics over one sample vector: the median is all the benchmark
/// reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Median; mean of the two middle samples for even counts.
    pub median: f64,
}

impl Stats {
    /// Computes the median; panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "stats over zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Stats { median }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_golden_values_odd() {
        let s = Stats::from_samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn stats_golden_values_even_and_singleton() {
        let s = Stats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        let one = Stats::from_samples(&[7.5]);
        assert_eq!(one.median, 7.5);
    }
}
