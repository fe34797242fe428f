//! Order statistics over timing samples: the median, spread and tail
//! that the benchmark (`benchsuite/`) reduces its repeated runs with.

/// Order statistics over one sample vector. The kernel under golden-value
/// test: median (midpoint-averaged), sample stddev, nearest-rank p99.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Raw samples in recording order.
    pub samples: Vec<f64>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median; mean of the two middle samples for even counts.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub stddev: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Stats {
    /// Computes all statistics; panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "stats over zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let stddev = if n > 1 {
            let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Stats {
            samples: samples.to_vec(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
            mean,
            stddev,
            p99: sorted[rank - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_golden_values_odd() {
        let s = Stats::from_samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        // Sample stddev of 1..5 = sqrt(2.5).
        assert!((s.stddev - 2.5f64.sqrt()).abs() < 1e-12);
        // Nearest-rank p99 of 5 samples = the maximum.
        assert_eq!(s.p99, 5.0);
    }

    #[test]
    fn stats_golden_values_even_and_singleton() {
        let s = Stats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let one = Stats::from_samples(&[7.5]);
        assert_eq!(one.median, 7.5);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.p99, 7.5);
    }

    #[test]
    fn stats_p99_uses_nearest_rank_on_large_sets() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Stats::from_samples(&samples);
        // ceil(0.99 * 200) = 198th order statistic.
        assert_eq!(s.p99, 198.0);
    }
}
