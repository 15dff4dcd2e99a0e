//! The brick ray caster: [`integrate`](crate::raycast::integrate) over a
//! [`BrickSampler`], bit for bit, on fewer samples and with the per-frame
//! and per-brick invariants hoisted out of the sample loop.
//!
//! **Skipping keeps the lattice.** `t` advances by the reference's own
//! repeated `t += step`, so a sample that is taken sits where the
//! reference takes it. At each lattice point the [`MinMaxGrid`] block of
//! the point's floor voxel is looked up in a per-frame mask; a masked
//! block's `[min, max]` classifies to zero opacity, so the reference would
//! composite `[0; 4]` there and `over(acc, [0; 4])` is `acc`: not fetching
//! is exact. The padding makes the mask sound — one voxel beyond each high
//! face covers all eight trilinear corners of a point whose floor lies in
//! the block, an interpolant stays within its corners' range up to
//! rounding, and [`TransferFunction::max_opacity_between`] scans from the
//! `floor` of the low table index to the `ceil` of the high one, half an
//! entry wider on each side than `classify`'s `round` can reach.

use crate::camera::{vec3, Camera};
use crate::image::{over, Rgba, RgbaImage};
use crate::raycast::{normalize, BrickSampler, RenderSettings, VolumeSampler};
use crate::transfer::TransferFunction;
use vizsched_volume::brick::Brick;
use vizsched_volume::grid::Scalar;
use vizsched_volume::skip::MinMaxGrid;

/// Ranges reaching past this magnitude (the unbounded one of a non-finite
/// block included) are never masked: the half-entry margin absorbs
/// interpolation rounding only near the transfer function's `[0, 1]`.
const MASKABLE_MAGNITUDE: f32 = 16.0;

/// Per block of `grid`: can nothing in it be visible under `tf`?
fn transparent_blocks(grid: &MinMaxGrid, tf: &TransferFunction) -> Vec<bool> {
    let in_scale = |v: f32| v.abs() <= MASKABLE_MAGNITUDE;
    let transparent = |&(lo, hi): &(f32, f32)| {
        in_scale(lo) && in_scale(hi) && tf.max_opacity_between(lo, hi) <= 0.0
    };
    grid.ranges().iter().map(transparent).collect()
}

/// `Brick::sample_global` over the raw voxel slice: the global→local shift
/// is computed once per frame, the floor of a clamped, non-negative
/// coordinate is a cast, and a gradient fetch reuses the sample's other axes.
struct FlatBrick<'a, T> {
    data: &'a [T],
    dims: [usize; 3],
    shift: [f32; 3],
}

/// One brick-local coordinate of a sample, clamped to the grid, and its floor.
#[derive(Clone, Copy)]
struct Axis {
    at: f32,
    floor: usize,
}

impl<'a, T: Scalar> FlatBrick<'a, T> {
    fn new(brick: &'a Brick<T>) -> Self {
        FlatBrick {
            data: &brick.volume.data,
            dims: brick.volume.dims,
            shift: [0, 1, 2].map(|a| brick.offset[a] as f32 - brick.ghost_lo[a] as f32),
        }
    }

    #[inline(always)]
    fn axis(&self, a: usize, global: f32) -> Axis {
        let at = (global - self.shift[a]).clamp(0.0, (self.dims[a] - 1) as f32);
        let floor = at as usize;
        Axis { at, floor }
    }

    /// Trilinear interpolation, every lerp in `Volume::sample`'s order.
    #[inline(always)]
    fn interpolate(&self, x: Axis, y: Axis, z: Axis) -> f32 {
        let next = |a: usize, axis: Axis| (axis.floor + 1).min(self.dims[a] - 1);
        let (x1, y1, z1) = (next(0, x), next(1, y), next(2, z));
        let frac = |axis: Axis| axis.at - axis.floor as f32;
        let (tx, ty, tz) = (frac(x), frac(y), frac(z));
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let along_x = |y: usize, z: usize| {
            let row = (z * self.dims[1] + y) * self.dims[0];
            let (a, b) = (self.data[row + x.floor], self.data[row + x1]);
            lerp(a.to_f32(), b.to_f32(), tx)
        };
        let c0 = lerp(along_x(y.floor, z.floor), along_x(y1, z.floor), ty);
        let c1 = lerp(along_x(y.floor, z1), along_x(y1, z1), ty);
        lerp(c0, c1, tz)
    }

    /// `VolumeSampler::gradient` at the point `p` whose axes are `x`, `y`, `z`.
    #[inline(always)]
    fn gradient(&self, p: [f32; 3], x: Axis, y: Axis, z: Axis) -> [f32; 3] {
        const H: f32 = 0.5;
        let (x_hi, x_lo) = (self.axis(0, p[0] + H), self.axis(0, p[0] - H));
        let (y_hi, y_lo) = (self.axis(1, p[1] + H), self.axis(1, p[1] - H));
        let (z_hi, z_lo) = (self.axis(2, p[2] + H), self.axis(2, p[2] - H));
        [
            self.interpolate(x_hi, y, z) - self.interpolate(x_lo, y, z),
            self.interpolate(x, y_hi, z) - self.interpolate(x, y_lo, z),
            self.interpolate(x, y, z_hi) - self.interpolate(x, y, z_lo),
        ]
    }
}

/// Ray-cast `brick`'s core region. Returns the image and `[fetched,
/// lattice]`: of the `lattice` samples the reference takes, those not skipped.
pub fn render<T: Scalar>(
    brick: &Brick<T>,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> (RgbaImage, [u64; 2]) {
    let bounds = BrickSampler::new(brick).bounds();
    let voxels = FlatBrick::new(brick);
    let grid = brick.minmax_grid();
    let masked = transparent_blocks(grid, tf);
    let lut = tf.premultiplied(settings.step, settings.base_step);
    let rays = camera.rays(settings.width, settings.height);

    let mut img = RgbaImage::transparent(settings.width, settings.height);
    let [mut fetched, mut lattice] = [0u64; 2];
    for py in 0..settings.height {
        for px in 0..settings.width {
            let ray = rays(px, py);
            let Some((t0, t1)) = bounds.intersect(&ray) else {
                continue;
            };
            let mut acc: Rgba = [0.0; 4];
            let mut t = t0;
            while t <= t1 {
                lattice += 1;
                let p = ray.at(t);
                let [x, y, z] = [0, 1, 2].map(|a| voxels.axis(a, p[a]));
                if !masked[grid.block_of(x.floor, y.floor, z.floor)] {
                    fetched += 1;
                    let v = voxels.interpolate(x, y, z);
                    let mut s = lut[TransferFunction::table_index(v)];
                    if s[3] > 0.0 && settings.shading {
                        if let Some(n) = normalize(voxels.gradient(p, x, y, z)) {
                            let diffuse = vec3::dot(n, ray.dir).abs();
                            let shade = settings.ambient + (1.0 - settings.ambient) * diffuse;
                            s[0] *= shade;
                            s[1] *= shade;
                            s[2] *= shade;
                        }
                    }
                    acc = over(acc, s);
                }
                if acc[3] >= settings.early_termination {
                    break;
                }
                t += settings.step;
            }
            *img.at_mut(px, py) = acc;
        }
    }
    (img, [fetched, lattice])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::ControlPoint;
    use vizsched_volume::grid::Volume;

    fn tf(points: &[(f32, [f32; 4])]) -> TransferFunction {
        let point = |&(value, color)| ControlPoint { value, color };
        TransferFunction::from_points(points.iter().map(point).collect())
    }

    #[test]
    fn emptiness_depends_on_the_transfer_function() {
        // Left half zeros, right half dense.
        let v: Volume<f32> = Volume::from_fn([16, 8, 8], |x, _, _| if x < 0.5 { 0.0 } else { 0.9 });
        let g = MinMaxGrid::build(&v);
        let opaque_above_half = tf(&[
            (0.0, [0.0; 4]),
            (0.5, [0.0; 4]),
            (0.6, [1.0, 1.0, 1.0, 0.8]),
            (1.0, [1.0, 1.0, 1.0, 0.8]),
        ]);
        let masked = transparent_blocks(&g, &opaque_above_half);
        assert!(masked[g.block_of(1, 1, 1)], "zero-valued block is empty");
        assert!(!masked[g.block_of(14, 1, 1)], "dense block is not");
        // A TF that maps *low* values to opacity flips the verdict.
        let opaque_low = tf(&[
            (0.0, [1.0, 0.0, 0.0, 0.5]),
            (0.3, [0.0; 4]),
            (1.0, [0.0; 4]),
        ]);
        let masked = transparent_blocks(&g, &opaque_low);
        assert!(!masked[g.block_of(1, 1, 1)]);
        assert!(masked[g.block_of(14, 1, 1)]);
    }

    #[test]
    fn out_of_scale_and_non_finite_blocks_are_never_masked() {
        let mut v: Volume<f32> = Volume::zeros([8, 8, 8]);
        *v.at_mut(1, 1, 1) = -1.0e6;
        *v.at_mut(6, 6, 6) = f32::NAN;
        let g = MinMaxGrid::build(&v);
        // Transparent everywhere the data can classify to.
        let clear = tf(&[(0.0, [0.0; 4]), (1.0, [0.0; 4])]);
        let masked = transparent_blocks(&g, &clear);
        assert!(!masked[g.block_of(1, 1, 1)]);
        assert!(!masked[g.block_of(6, 6, 6)]);
        assert!(masked[g.block_of(6, 1, 1)]);
    }
}
