//! Transfer functions: the mapping from scalar value to color and opacity
//! applied at every sample point during ray casting (§II-A).

use crate::image::Rgba;

/// One control point: scalar value in `[0, 1]` to straight (not
/// premultiplied) RGBA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlPoint {
    /// Scalar value.
    pub value: f32,
    /// Straight RGBA color at this value.
    pub color: [f32; 4],
}

/// A piecewise-linear transfer function, sampled into a lookup table.
///
/// ```
/// use vizsched_render::{ControlPoint, TransferFunction};
///
/// let tf = TransferFunction::from_points(vec![
///     ControlPoint { value: 0.0, color: [0.0, 0.0, 0.0, 0.0] },
///     ControlPoint { value: 1.0, color: [1.0, 0.5, 0.2, 0.8] },
/// ]);
/// let mid = tf.classify(0.5);
/// assert!((mid[3] - 0.4).abs() < 0.01); // opacity interpolates linearly
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TransferFunction {
    table: Vec<[f32; 4]>,
}

impl TransferFunction {
    /// Resolution of the lookup table.
    pub const RESOLUTION: usize = 256;

    /// Build from control points (sorted by value internally). At least
    /// two points are required; values outside the first/last point clamp.
    pub fn from_points(mut points: Vec<ControlPoint>) -> Self {
        assert!(points.len() >= 2, "need at least two control points");
        points.sort_by(|a, b| a.value.partial_cmp(&b.value).expect("finite values"));
        let mut table = Vec::with_capacity(Self::RESOLUTION);
        for i in 0..Self::RESOLUTION {
            let v = i as f32 / (Self::RESOLUTION - 1) as f32;
            table.push(Self::interp(&points, v));
        }
        TransferFunction { table }
    }

    fn interp(points: &[ControlPoint], v: f32) -> [f32; 4] {
        if v <= points[0].value {
            return points[0].color;
        }
        if v >= points[points.len() - 1].value {
            return points[points.len() - 1].color;
        }
        let hi = points
            .iter()
            .position(|p| p.value >= v)
            .expect("v below last point");
        let (a, b) = (&points[hi - 1], &points[hi]);
        let span = (b.value - a.value).max(1e-9);
        let t = (v - a.value) / span;
        let mut c = [0.0; 4];
        for (i, slot) in c.iter_mut().enumerate() {
            *slot = a.color[i] + (b.color[i] - a.color[i]) * t;
        }
        c
    }

    /// Classify a scalar: straight RGBA.
    #[inline]
    pub fn classify(&self, value: f32) -> [f32; 4] {
        let i = (value.clamp(0.0, 1.0) * (Self::RESOLUTION - 1) as f32).round() as usize;
        self.table[i]
    }

    /// Classify and convert to a premultiplied sample with opacity
    /// corrected for the integration `step` relative to one voxel —
    /// the standard `1 - (1 - α)^step` correction, so image opacity is
    /// step-size invariant.
    #[inline]
    pub fn sample(&self, value: f32, step: f32) -> Rgba {
        let c = self.classify(value);
        let alpha = 1.0 - (1.0 - c[3]).powf(step);
        [c[0] * alpha, c[1] * alpha, c[2] * alpha, alpha]
    }

    /// Every answer [`sample`](Self::sample) can give at one `step`:
    /// `premultiplied(s)[table_index(v)]` is `sample(v, s)` bit for bit,
    /// without a `powf` per sample.
    pub fn premultiplied(&self, step: f32) -> Vec<Rgba> {
        // Entry `i` was built from, and classifies back to, `i / 255`.
        let values = (0..Self::RESOLUTION).map(|i| i as f32 / (Self::RESOLUTION - 1) as f32);
        values.map(|v| self.sample(v, step)).collect()
    }

    /// The table entry [`classify`](Self::classify) picks for `value`: in
    /// `[0, 255]` its `round` is truncation plus a test of the fraction.
    /// The truncation is a 32-bit cast, which agrees with `as usize` on
    /// that range and on NaN (0 in both) and costs half the instructions.
    #[inline]
    pub fn table_index(value: f32) -> usize {
        let scaled = value.clamp(0.0, 1.0) * (Self::RESOLUTION - 1) as f32;
        let below = scaled as i32;
        below as usize + usize::from(scaled - below as f32 >= 0.5)
    }

    /// The table entries `[a, b]` a value in `[lo, hi]` can classify to,
    /// widened to the `floor` of the low index and the `ceil` of the high.
    /// On a clamped, non-negative value the `floor` is a cast and the
    /// `ceil` a cast plus a test of the fraction.
    #[inline]
    fn span(lo: f32, hi: f32) -> (usize, usize) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let scale = |v: f32| v.clamp(0.0, 1.0) * (Self::RESOLUTION - 1) as f32;
        let (a, high) = (scale(lo) as i32, scale(hi));
        let b = high as i32 + i32::from(high > (high as i32) as f32);
        (a as usize, (b as usize).min(Self::RESOLUTION - 1))
    }

    /// The maximum opacity the function assigns anywhere in `[lo, hi]` —
    /// the emptiness test behind min–max empty-space skipping.
    pub fn max_opacity_between(&self, lo: f32, hi: f32) -> f32 {
        let (a, b) = Self::span(lo, hi);
        self.table[a..=b].iter().map(|c| c[3]).fold(0.0, f32::max)
    }

    /// The emptiness test of [`max_opacity_between`](Self::max_opacity_between)
    /// for many ranges, one table pass up front and O(1) per range.
    pub fn transparency(&self) -> Transparency {
        let mut visible_before = [0u16; Self::RESOLUTION + 1];
        for (i, entry) in self.table.iter().enumerate() {
            visible_before[i + 1] = visible_before[i] + u16::from(entry[3] > 0.0);
        }
        Transparency { visible_before }
    }

    /// How many distinct [`preset`](Self::preset)s there are.
    pub const PRESETS: u32 = 3;

    /// The paper's presets, indexed by `FrameParams::transfer_fn`.
    pub fn preset(index: u32) -> TransferFunction {
        match index % Self::PRESETS {
            // 0: "bone and tissue" — low values transparent blue haze,
            // high values opaque warm.
            0 => TransferFunction::from_points(vec![
                ControlPoint {
                    value: 0.0,
                    color: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.15,
                    color: [0.1, 0.2, 0.5, 0.0],
                },
                ControlPoint {
                    value: 0.4,
                    color: [0.2, 0.5, 0.9, 0.15],
                },
                ControlPoint {
                    value: 0.7,
                    color: [0.9, 0.6, 0.2, 0.5],
                },
                ControlPoint {
                    value: 1.0,
                    color: [1.0, 0.95, 0.9, 0.95],
                },
            ]),
            // 1: iso-surface-ish ridge around 0.5.
            1 => TransferFunction::from_points(vec![
                ControlPoint {
                    value: 0.0,
                    color: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 0.42,
                    color: [0.1, 0.8, 0.3, 0.0],
                },
                ControlPoint {
                    value: 0.5,
                    color: [0.2, 0.9, 0.4, 0.8],
                },
                ControlPoint {
                    value: 0.58,
                    color: [0.1, 0.8, 0.3, 0.0],
                },
                ControlPoint {
                    value: 1.0,
                    color: [0.0, 0.0, 0.0, 0.0],
                },
            ]),
            // 2: smoke — monotone density.
            _ => TransferFunction::from_points(vec![
                ControlPoint {
                    value: 0.0,
                    color: [0.0, 0.0, 0.0, 0.0],
                },
                ControlPoint {
                    value: 1.0,
                    color: [0.9, 0.9, 0.95, 0.6],
                },
            ]),
        }
    }
}

/// A prefix count of a [`TransferFunction`]'s table entries with opacity
/// above zero: built by [`TransferFunction::transparency`].
#[derive(Clone, Debug)]
pub struct Transparency {
    /// `visible_before[i]`: entries below `i` whose opacity is `> 0`.
    visible_before: [u16; TransferFunction::RESOLUTION + 1],
}

impl Transparency {
    /// `max_opacity_between(lo, hi) <= 0.0`: no entry a value in `[lo, hi]`
    /// can classify to has opacity above zero.
    #[inline]
    pub fn is_clear(&self, lo: f32, hi: f32) -> bool {
        let (a, b) = TransferFunction::span(lo, hi);
        self.visible_before[b + 1] == self.visible_before[a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_tf() -> TransferFunction {
        TransferFunction::from_points(vec![
            ControlPoint {
                value: 0.0,
                color: [0.0, 0.0, 0.0, 0.0],
            },
            ControlPoint {
                value: 1.0,
                color: [1.0, 1.0, 1.0, 1.0],
            },
        ])
    }

    #[test]
    fn classify_interpolates_linearly() {
        let tf = ramp_tf();
        let mid = tf.classify(0.5);
        for c in mid {
            assert!((c - 0.5).abs() < 0.01);
        }
        assert_eq!(tf.classify(0.0), [0.0; 4]);
        assert_eq!(tf.classify(1.0), [1.0; 4]);
    }

    #[test]
    fn classify_clamps_out_of_range() {
        let tf = ramp_tf();
        assert_eq!(tf.classify(-2.0), [0.0; 4]);
        assert_eq!(tf.classify(5.0), [1.0; 4]);
    }

    #[test]
    fn opacity_correction_is_step_invariant() {
        let tf = ramp_tf();
        // Two half-steps composited should equal one full step.
        let full = tf.sample(0.6, 1.0);
        let half = tf.sample(0.6, 0.5);
        let two_halves = crate::image::over(half, half);
        for i in 0..4 {
            assert!(
                (two_halves[i] - full[i]).abs() < 0.02,
                "channel {i}: {} vs {}",
                two_halves[i],
                full[i]
            );
        }
    }

    #[test]
    fn premultiplied_table_reproduces_sample_bit_for_bit() {
        let tf = TransferFunction::preset(0);
        let lut = tf.premultiplied(0.4);
        // Dense sweep past both clamps, plus every rounding tie k + 0.5
        // and its neighbours one ulp away.
        let sweep = (-50..=2600).map(|i| i as f32 / 2550.0);
        let ties = (0..255).map(|k| (k as f32 + 0.5) / 255.0).flat_map(|tie| {
            let bits = tie.to_bits();
            [bits - 1, bits, bits + 1].map(f32::from_bits)
        });
        for v in sweep.chain(ties).chain([f32::NAN, f32::INFINITY, -0.0]) {
            let scaled = v.clamp(0.0, 1.0) * 255.0;
            let index = TransferFunction::table_index(v);
            assert_eq!(index, scaled.round() as usize, "index of {v}");
            let bits = |px: Rgba| px.map(f32::to_bits);
            assert_eq!(bits(lut[index]), bits(tf.sample(v, 0.4)), "at {v}");
        }
        for (i, entry) in lut.iter().enumerate() {
            assert_eq!(TransferFunction::table_index(i as f32 / 255.0), i);
            assert_eq!(entry[3] > 0.0, tf.table[i][3] > 0.0);
        }
    }

    #[test]
    fn unsorted_control_points_are_sorted() {
        let tf = TransferFunction::from_points(vec![
            ControlPoint {
                value: 1.0,
                color: [1.0; 4],
            },
            ControlPoint {
                value: 0.0,
                color: [0.0; 4],
            },
        ]);
        assert!(tf.classify(0.75)[0] > tf.classify(0.25)[0]);
    }

    #[test]
    fn presets_build_and_differ() {
        let a = TransferFunction::preset(0);
        let b = TransferFunction::preset(1);
        let c = TransferFunction::preset(2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        // Index wraps.
        assert_eq!(TransferFunction::preset(3), a);
    }

    #[test]
    fn max_opacity_between_scans_the_range() {
        let tf = ramp_tf();
        assert!((tf.max_opacity_between(0.0, 1.0) - 1.0).abs() < 1e-6);
        assert!((tf.max_opacity_between(0.0, 0.5) - 0.5).abs() < 0.01);
        assert!(tf.max_opacity_between(0.0, 0.0) < 0.01);
        // Order-insensitive.
        assert_eq!(
            tf.max_opacity_between(0.8, 0.2),
            tf.max_opacity_between(0.2, 0.8)
        );
    }

    #[test]
    #[should_panic(expected = "two control points")]
    fn single_point_rejected() {
        TransferFunction::from_points(vec![ControlPoint {
            value: 0.5,
            color: [1.0; 4],
        }]);
    }
}
