//! Seeded random arrival helpers. All sampling goes through explicit
//! [`SplitMix64`] streams (`vizsched_core::rng`) so every workload is
//! reproducible bit-for-bit.

use vizsched_core::rng::SplitMix64;
use vizsched_core::time::SimDuration;

/// Sample an exponentially distributed duration with the given mean
/// (inter-arrival times, action/think durations).
pub fn exp_duration(rng: &mut SplitMix64, mean: SimDuration) -> SimDuration {
    if mean.is_zero() {
        return SimDuration::ZERO;
    }
    let u = rng.unit();
    // Inverse CDF; (1 - u) never hits 0 because the range excludes 1.
    let x = -(1.0 - u).ln();
    mean.mul_f64(x)
}

/// Sample a uniform duration in `[lo, hi]`.
pub fn uniform_duration(rng: &mut SplitMix64, lo: SimDuration, hi: SimDuration) -> SimDuration {
    assert!(lo <= hi, "empty duration range");
    SimDuration::from_micros(rng.range_inclusive(lo.as_micros(), hi.as_micros()))
}

/// Sample a uniform integer in `[lo, hi]`.
pub fn uniform_u32(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    assert!(lo <= hi, "empty integer range");
    rng.range_inclusive(lo.into(), hi.into()) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_duration_has_roughly_the_right_mean() {
        let mut rng = SplitMix64::seeded(1);
        let mean = SimDuration::from_millis(100);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| exp_duration(&mut rng, mean).as_micros())
            .sum();
        let sample_mean = total as f64 / n as f64;
        let expected = mean.as_micros() as f64;
        assert!(
            (sample_mean - expected).abs() / expected < 0.05,
            "sample mean {sample_mean} vs expected {expected}"
        );
    }

    #[test]
    fn exp_duration_zero_mean_is_zero() {
        let mut rng = SplitMix64::seeded(1);
        assert_eq!(exp_duration(&mut rng, SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn uniform_duration_stays_in_range() {
        let mut rng = SplitMix64::seeded(2);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1000 {
            let d = uniform_duration(&mut rng, lo, hi);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::seeded(seed);
            (0..10)
                .map(|_| exp_duration(&mut rng, SimDuration::from_secs(1)).as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
