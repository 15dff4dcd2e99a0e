//! Small descriptive-statistics helpers used by every report.

use vizsched_core::time::SimDuration;

/// Summary statistics over a sample of non-negative values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarize a sample of floats. Returns the zero summary for an empty
    /// sample.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            std_dev: var.sqrt(),
        }
    }

    /// Summarize durations, in seconds.
    pub fn of_durations(values: &[SimDuration]) -> Summary {
        let secs: Vec<f64> = values.iter().map(|d| d.as_secs_f64()).collect();
        Summary::of(&secs)
    }
}

/// Nearest-rank percentile over an already-sorted sample, `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 0.25), 10.0);
        assert_eq!(percentile(&sorted, 0.26), 20.0);
        assert_eq!(percentile(&sorted, 1.0), 40.0);
    }

    #[test]
    fn durations_convert_to_seconds() {
        let s = Summary::of_durations(&[
            SimDuration::from_millis(500),
            SimDuration::from_millis(1500),
        ]);
        assert!((s.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn order_invariance() {
        let a = Summary::of(&[3.0, 1.0, 2.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
