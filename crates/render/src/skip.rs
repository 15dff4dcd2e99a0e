//! The brick ray caster: [`integrate`](crate::raycast::integrate) over a
//! [`BrickSampler`], bit for bit, on fewer samples and with the per-frame
//! and per-brick invariants hoisted out of the sample loop.
//!
//! **Skipping keeps the lattice.** `t` advances by the reference's own
//! repeated `t += step`, so a sample that is taken sits where the
//! reference takes it. At a lattice point the [`MinMaxGrid`] block of the
//! point's floor voxel is looked up in a per-frame mask; a masked block's
//! `[min, max]` classifies to zero opacity, so the reference would
//! composite `[0; 4]` there and `over(acc, [0; 4])` is `acc`: not fetching
//! is exact. The padding makes the mask sound — one voxel beyond each high
//! face covers all eight trilinear corners of a point whose floor lies in
//! the block, an interpolant stays within its corners' range up to
//! rounding, and [`TransferFunction::max_opacity_between`] scans from the
//! `floor` of the low table index to the `ceil` of the high one, half an
//! entry wider on each side than `classify`'s `round` can reach.
//!
//! **Leaping keeps it too.** A point in a masked block also reads the
//! block's clearance `r`: every block within Chebyshev distance `r - 1` is
//! masked. Along each axis `ray.at(t)` is monotone in `t` (each `f32`
//! operation in it rounds monotonically), so the lattice points before the
//! ray's exit from that cube of blocks all land in masked blocks; `t`
//! walks over them with `t += step` alone, and since `acc` cannot change
//! there, neither can the early-termination test. The exit faces are
//! pulled in by `GUARD`, which covers the rounding of `ray.at(t)` and of
//! the exit division while every magnitude stays within `LEAP_MAGNITUDE`.

use crate::camera::{vec3, Camera};
use crate::image::{over, Rgba, RgbaImage};
use crate::ray::Ray;
use crate::raycast::{
    assert_step, normalize, BrickSampler, RenderSettings, VolumeSampler, AMBIENT,
};
use crate::transfer::TransferFunction;
use vizsched_volume::brick::Brick;
use vizsched_volume::grid::Scalar;
use vizsched_volume::skip::{MinMaxGrid, BLOCK};

/// Ranges reaching past this magnitude (the unbounded one of a non-finite
/// block included) are never masked: the half-entry margin absorbs
/// interpolation rounding only near the transfer function's `[0, 1]`.
const MASKABLE_MAGNITUDE: f32 = 16.0;

/// A ray leaps only while its origin's coordinates, its exit parameter and
/// the brick's extent stay within this many voxels: below `2^15` every
/// rounding in `ray.at(t)`, the global→local shift and the exit division
/// is at most `2^-9` of a voxel.
const LEAP_MAGNITUDE: f32 = 16384.0;

/// How far, in voxels, a leap stops short of its cube's exit faces. The
/// roundings under [`LEAP_MAGNITUDE`] add up to less than `2^-6`.
const GUARD: f32 = 1.0 / 16.0;

/// Per block of `grid`: can nothing in it be visible under `tf`?
fn transparent_blocks(grid: &MinMaxGrid, tf: &TransferFunction) -> Vec<bool> {
    let in_scale = |v: f32| v.abs() <= MASKABLE_MAGNITUDE;
    let clear = tf.transparency();
    let transparent = |&(lo, hi): &(f32, f32)| in_scale(lo) & in_scale(hi) & clear.is_clear(lo, hi);
    grid.ranges().iter().map(transparent).collect()
}

/// Per block of `grid`, its Chebyshev clearance in blocks: 0 on a visible
/// block; `r > 0` on a masked one, whose cube of blocks within distance
/// `r - 1` is masked. Blocks beyond the grid count as masked (a clamped
/// coordinate never reaches them), and `u8::MAX` caps a distance — a
/// smaller cube is still a masked one. Two chamfer passes over a copy
/// padded by one block: the backward pass is the forward one over the
/// reversed array, which flips all three axes.
fn clearance(grid: &MinMaxGrid, masked: &[bool]) -> Vec<u8> {
    let [nx, ny, nz] = grid.dims;
    let (px, py) = (nx + 2, ny + 2);
    let mut d = vec![u8::MAX; px * py * (nz + 2)];
    // Where each row of blocks starts in `d`, in `masked`'s order.
    let rows = (1..=nz).flat_map(|z| (1..=ny).map(move |y| (z * py + y) * px + 1));
    for (start, row) in rows.clone().zip(masked.chunks_exact(nx)) {
        for (cell, &m) in d[start..start + nx].iter_mut().zip(row) {
            *cell = if m { u8::MAX } else { 0 };
        }
    }
    chamfer(&mut d, px, py);
    d.reverse();
    chamfer(&mut d, px, py);
    d.reverse();
    rows.flat_map(|start| d[start..start + nx].iter().copied())
        .collect()
}

/// One raster pass over a padded `px`×`py`×`_` grid of distances: each
/// interior cell takes one more than the least of its 13 neighbours
/// already visited — the 3×3 of the plane below, the 3 of the row before
/// and the cell before — when that is less than its own.
fn chamfer(d: &mut [u8], px: usize, py: usize) {
    let row = |y: usize, z: usize| (z * py + y) * px;
    let mut near = vec![u8::MAX; px - 2];
    for z in 1..d.len() / (px * py) - 1 {
        for y in 1..py - 1 {
            near.fill(u8::MAX);
            for (y, z) in [(y - 1, z - 1), (y, z - 1), (y + 1, z - 1), (y - 1, z)] {
                let visited = &d[row(y, z)..row(y, z) + px];
                for (n, w) in near.iter_mut().zip(visited.windows(3)) {
                    *n = (*n).min(w[0]).min(w[1]).min(w[2]);
                }
            }
            let cells = &mut d[row(y, z)..row(y, z) + px];
            for x in 1..px - 1 {
                let least = near[x - 1].min(cells[x - 1]);
                cells[x] = cells[x].min(least.saturating_add(1));
            }
        }
    }
}

/// `Brick::sample_global` over the raw voxel slice: the global→local shift
/// and the clamp's bounds are computed once per frame, the floor of a
/// clamped, non-negative coordinate is a 32-bit cast, and a gradient fetch
/// reuses the sample's other axes.
struct FlatBrick<'a, T> {
    data: &'a [T],
    dims: [usize; 3],
    /// `dims - 1` per axis, as the clamp's upper bound.
    top: [f32; 3],
    shift: [f32; 3],
}

/// One brick-local coordinate of a sample, clamped to the grid, and its floor.
#[derive(Clone, Copy)]
struct Axis {
    at: f32,
    floor: usize,
}

impl Axis {
    /// The trilinear weight. The floor fits an `i32`, which converts to
    /// `f32` without `usize`'s sign test and rounds to the same `f32`.
    #[inline(always)]
    fn frac(self) -> f32 {
        self.at - self.floor as i32 as f32
    }
}

impl<'a, T: Scalar> FlatBrick<'a, T> {
    fn new(brick: &'a Brick<T>) -> Self {
        let shift = [0, 1, 2].map(|a| brick.offset[a] as f32 - brick.ghost_lo[a] as f32);
        Self::over(&brick.volume.data, brick.volume.dims, shift)
    }

    fn over(data: &'a [T], dims: [usize; 3], shift: [f32; 3]) -> Self {
        let top = dims.map(|n| (n - 1) as f32);
        // `axis` and `interpolate` cast lattice coordinates through `i32`.
        assert!(top.iter().all(|&t| t < i32::MAX as f32), "{dims:?}");
        FlatBrick {
            data,
            dims,
            top,
            shift,
        }
    }

    /// The clamped coordinate is NaN or lies in `[0, dims - 1]`, where
    /// `as i32` truncates exactly as `as usize` does (NaN to 0 in both)
    /// with one truncating conversion instead of two and a sign fix-up.
    #[inline(always)]
    fn axis(&self, a: usize, global: f32) -> Axis {
        let at = (global - self.shift[a]).clamp(0.0, self.top[a]);
        let floor = at as i32 as usize;
        Axis { at, floor }
    }

    /// Trilinear interpolation, every lerp in `Volume::sample`'s order.
    /// Each voxel row is one checked slice: `x0` is `x.floor` (the clamp
    /// keeps it below `nx`), and its `min` lets both loads go unchecked.
    #[inline(always)]
    fn interpolate(&self, x: Axis, y: Axis, z: Axis) -> f32 {
        let nx = self.dims[0];
        let next = |a: usize, axis: Axis| (axis.floor + 1).min(self.dims[a] - 1);
        let (x0, x1, y1, z1) = (x.floor.min(nx - 1), next(0, x), next(1, y), next(2, z));
        let (tx, ty, tz) = (x.frac(), y.frac(), z.frac());
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let along_x = |y: usize, z: usize| {
            let start = (z * self.dims[1] + y) * nx;
            let row = &self.data[start..start + nx];
            lerp(row[x0].to_f32(), row[x1].to_f32(), tx)
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

/// Where a leap over masked space must end, for one brick.
struct Leap {
    /// The brick's global→local shift, as [`FlatBrick`] applies it.
    shift: [f32; 3],
    /// Blocks per axis.
    blocks: [usize; 3],
    /// Does the brick itself fit under [`LEAP_MAGNITUDE`]?
    fits: bool,
}

impl Leap {
    fn new(grid: &MinMaxGrid, voxels: &FlatBrick<'_, impl Scalar>) -> Self {
        let reach = (0..3).map(|a| voxels.shift[a].abs() + voxels.dims[a] as f32);
        Leap {
            shift: voxels.shift,
            blocks: grid.dims,
            fits: reach.fold(0.0, f32::max) <= LEAP_MAGNITUDE,
        }
    }

    /// May `ray`, marching to `t1`, leap at all?
    fn allows(&self, ray: &Ray, t1: f32) -> bool {
        let near = |v: f32| v.abs() <= LEAP_MAGNITUDE;
        self.fits && near(t1) && ray.origin.iter().all(|&o| near(o))
    }

    /// The parameter below which every lattice point of `ray` lies in the
    /// cube of masked blocks of clearance `r` around the block whose floor
    /// voxel is `floor`, guard band included. Kept out of line, so the
    /// sample loop stays small on data with little to skip, where it is
    /// rarely called.
    #[inline(never)]
    fn exit(&self, ray: &Ray, floor: [usize; 3], r: u8) -> f32 {
        let r = usize::from(r);
        let mut exit = f32::INFINITY;
        for (a, &f) in floor.iter().enumerate() {
            let (d, block) = (ray.dir[a], f / BLOCK);
            let face = if d > 0.0 && block + r < self.blocks[a] {
                ((block + r) * BLOCK) as f32 - GUARD
            } else if d < 0.0 && block >= r {
                ((block + 1 - r) * BLOCK) as f32 + GUARD
            } else {
                // Not moving on this axis, or the cube reaches the grid's
                // face: a clamped coordinate stays inside.
                continue;
            };
            exit = exit.min((face + self.shift[a] - ray.origin[a]) / d);
        }
        exit
    }
}

/// Ray-cast `brick`'s core region. Returns the image and `[fetched,
/// classified, lattice]`: of the `lattice` samples the reference takes,
/// those not leapt over were looked up in the mask, and of those, the
/// ones in visible blocks were fetched.
pub fn render<T: Scalar>(
    brick: &Brick<T>,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> (RgbaImage, [u64; 3]) {
    assert_step(settings);
    let bounds = BrickSampler::new(brick).bounds();
    let voxels = FlatBrick::new(brick);
    let grid = brick.minmax_grid();
    let clear = clearance(grid, &transparent_blocks(grid, tf));
    let leap = Leap::new(grid, &voxels);
    let lut = tf.premultiplied(settings.step);
    let rays = camera.rays(settings.width, settings.height);

    let mut img = RgbaImage::transparent(settings.width, settings.height);
    let [mut fetched, mut classified, mut leapt] = [0u64; 3];
    for py in 0..settings.height {
        for px in 0..settings.width {
            let ray = rays(px, py);
            let Some((t0, t1)) = bounds.intersect(&ray) else {
                continue;
            };
            let leaps = leap.allows(&ray, t1);
            let mut acc: Rgba = [0.0; 4];
            let mut t = t0;
            while t <= t1 {
                classified += 1;
                let p = ray.at(t);
                let [x, y, z] = [0, 1, 2].map(|a| voxels.axis(a, p[a]));
                let r = clear[grid.block_of(x.floor, y.floor, z.floor)];
                if r == 0 {
                    fetched += 1;
                    let v = voxels.interpolate(x, y, z);
                    let mut s = lut[TransferFunction::table_index(v)];
                    if s[3] > 0.0 && settings.shading {
                        if let Some(n) = normalize(voxels.gradient(p, x, y, z)) {
                            let diffuse = vec3::dot(n, ray.dir).abs();
                            let shade = AMBIENT + (1.0 - AMBIENT) * diffuse;
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
                if r > 0 && leaps {
                    let exit = leap.exit(&ray, [x.floor, y.floor, z.floor], r).min(t1);
                    while t < exit {
                        leapt += 1;
                        t += settings.step;
                    }
                }
            }
            *img.at_mut(px, py) = acc;
        }
    }
    (img, [fetched, classified, classified + leapt])
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
    fn clearance_is_the_chebyshev_distance_to_a_visible_block() {
        let v: Volume<f32> = Volume::zeros([40, 24, 12]);
        let g = MinMaxGrid::build(&v);
        let mut masked = vec![true; g.ranges().len()];
        masked[g.block_of(8, 8, 4)] = false;
        let clear = clearance(&g, &masked);
        for (bz, by, bx) in (0usize..3)
            .flat_map(|z| (0usize..6).flat_map(move |y| (0usize..10).map(move |x| (z, y, x))))
        {
            let chebyshev = [bx.abs_diff(2), by.abs_diff(2), bz.abs_diff(1)]
                .into_iter()
                .max();
            let b = g.block_of(bx * BLOCK, by * BLOCK, bz * BLOCK);
            assert_eq!(
                usize::from(clear[b]),
                chebyshev.unwrap(),
                "block {bx} {by} {bz}"
            );
        }
        // Nothing visible: every cube is masked, however large.
        assert!(clearance(&g, &vec![true; masked.len()])
            .iter()
            .all(|&r| r == u8::MAX));
    }

    #[test]
    fn a_leap_stops_inside_its_cube_at_the_largest_magnitudes() {
        // A brick 14 000 voxels from the origin, rays from up to 2 000 voxels
        // away: `ray.at(t)` rounds by up to 2^-10 of a voxel at these
        // magnitudes, more than a face may be missed by.
        let voxels = FlatBrick::<f32>::over(&[], [64, 64, 33], [14_000.0, -13_000.0, 12_000.0]);
        let leap = Leap {
            shift: voxels.shift,
            blocks: [16, 16, 9],
            fits: true,
        };
        let floors = |p: [f32; 3]| [0, 1, 2].map(|a| voxels.axis(a, p[a]).floor);
        let (rays, mut leapt) = (20_000, 0);
        for i in 0..rays {
            // Directions on a Fibonacci sphere, starts spread over the brick.
            let z = 1.0 - 2.0 * (i as f32 + 0.5) / rays as f32;
            let (s, c) = (i as f32 * 2.399_963).sin_cos();
            let dir = [(1.0 - z * z).sqrt() * c, (1.0 - z * z).sqrt() * s, z];
            let frac = |k: f32| (i as f32 * k).fract();
            let start =
                [0, 1, 2].map(|a| voxels.shift[a] + 4.0 + frac([0.618, 0.414, 0.732][a]) * 24.0);
            let back = 2_000.0 * frac(0.271);
            let ray = Ray {
                origin: [0, 1, 2].map(|a| start[a] - dir[a] * back),
                dir,
            };
            let (step, mut t, t1) = ([0.5, 0.75, 1.0][i % 3], back, back + 100.0);
            assert!(leap.allows(&ray, t1));
            let floor = floors(ray.at(t));
            let r = 1 + (i % 3) as u8;
            let exit = leap.exit(&ray, floor, r).min(t1);
            let reach = usize::from(r) - 1;
            let cube = |a: usize, f: usize| (f / BLOCK).abs_diff(floor[a] / BLOCK) <= reach;
            t += step;
            while t < exit {
                let inside = floors(ray.at(t));
                assert!(
                    (0..3).all(|a| cube(a, inside[a])),
                    "ray {i} left its cube at t = {t}"
                );
                leapt += 1;
                t += step;
            }
        }
        assert!(leapt > rays, "the sweep leapt only {leapt} samples");
    }

    #[test]
    fn lattice_casts_through_i32_agree_with_usize_bit_for_bit() {
        let dims = [2, 64, (1 << 20) + 1];
        let voxels = FlatBrick::<f32>::over(&[], dims, [0.0; 3]);
        let ulps = |v: f32| {
            let bits = v.to_bits();
            let down = if v == 0.0 { 0x8000_0001 } else { bits - 1 };
            [f32::from_bits(down), v, f32::from_bits(bits + 1)]
        };
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MAX,
            -f32::MAX,
        ];
        let powers = (-24..=20).map(|e| 2f32.powi(e)).flat_map(|p| [p, -p]);
        for (a, &n) in dims.iter().enumerate() {
            let integers = (0..n + 2).map(|k| k as f32);
            let halves = (0..n).map(|k| k as f32 + 0.5);
            let values = specials.into_iter().chain(powers.clone()).chain(integers);
            for v in values.chain(halves).flat_map(ulps) {
                let at = v.clamp(0.0, (n - 1) as f32);
                let (floor, frac) = (at as usize, at - (at as usize) as f32);
                let axis = voxels.axis(a, v);
                assert_eq!(axis.floor, floor, "floor of {v} on axis {a}");
                // A NaN's payload is not specified, only that it is NaN.
                let bits = |f: f32| if f.is_nan() { f32::NAN } else { f }.to_bits();
                assert_eq!(bits(axis.frac()), bits(frac), "frac of {v} on axis {a}");
            }
        }
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
