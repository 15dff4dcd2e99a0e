//! Order statistics with the sample-count rule the benchmark reports by.

/// A percentile is only reported with at least this many samples on its
/// thin side, so one slow frame cannot move it.
pub const MIN_BEYOND: usize = 10;

/// Sort in place (samples are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Nearest-rank value at quantile `q` of an ascending slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The `q` quantile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (above for `q >= 0.5`, below
/// otherwise).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let thin_side = q.max(1.0 - q);
    // The epsilon keeps 100 x (1 - 0.9) = 9.999... from flooring to 9.
    let beyond = (sorted.len() as f64 * (1.0 - thin_side) + 1e-9).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| rank(sorted, q))
}

/// One reported quantile: the value, the samples behind it, and whether
/// the sample count supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
    pub supported: bool,
}

/// The `q` quantile for reporting: always a value (0 for no samples, so a
/// one-second smoke run still prints every metric), flagged `supported`
/// only under the [`percentile`] rule.
pub fn quantile(sorted: &[f64], q: f64) -> Quantile {
    match percentile(sorted, q) {
        Some(value) => Quantile {
            value,
            samples: sorted.len(),
            supported: true,
        },
        None => Quantile {
            value: if sorted.is_empty() {
                0.0
            } else {
                rank(sorted, q)
            },
            samples: sorted.len(),
            supported: false,
        },
    }
}

/// Median of an unsorted sample (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    if values.is_empty() {
        0.0
    } else {
        rank(&values, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // p95 of 199 samples has 9 beyond it; of 200, ten.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(189.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert!(percentile(&ramp(100), 0.90).is_some());
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(21), 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quantile_always_has_a_value_but_flags_thin_samples() {
        let q = quantile(&[1.0, 2.0, 3.0], 0.5);
        assert_eq!((q.value, q.samples, q.supported), (2.0, 3, false));
        assert_eq!(quantile(&[], 0.9).value, 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
