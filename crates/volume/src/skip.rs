//! The data half of empty-space skipping (Krüger–Westermann's second
//! acceleration, §II-A): the min and max scalar of each block of voxels.
//! It is a property of the data, like [`Volume::value_range`], so a
//! [`Brick`](crate::Brick) builds it once per residency; the renderer
//! classifies it against the transfer function once per frame.

use crate::grid::{Scalar, Volume};

/// Voxels per block edge. On the frame benchmark's plume bricks 4 lets
/// the ray caster skip 90 % of its samples; 8 skips 83 %, and 2 skips
/// 93 % for eight times the blocks to build and to classify per frame.
const BLOCK: usize = 4;

/// A coarse grid storing the min and max scalar value of each block.
#[derive(Clone, Debug, PartialEq)]
pub struct MinMaxGrid {
    /// Blocks per axis.
    pub dims: [usize; 3],
    ranges: Vec<(f32, f32)>,
}

impl MinMaxGrid {
    /// Build over `volume`. Each block's range also covers the one voxel
    /// beyond each of its high faces, so it bounds all eight trilinear
    /// corners (`floor` and `floor + 1` per axis) of any sample point
    /// whose floor lies in the block. A block touching a non-finite voxel
    /// gets the unbounded range: nothing brackets what NaN interpolates to.
    pub fn build<T: Scalar>(volume: &Volume<T>) -> MinMaxGrid {
        let [nx, ny, nz] = volume.dims;
        let dims = [nx.div_ceil(BLOCK), ny.div_ceil(BLOCK), nz.div_ceil(BLOCK)];
        let padded = |b: usize, n: usize| (b * BLOCK)..((b + 1) * BLOCK + 1).min(n);
        let mut ranges = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for bz in 0..dims[2] {
            for by in 0..dims[1] {
                for bx in 0..dims[0] {
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    let xs = padded(bx, nx);
                    for z in padded(bz, nz) {
                        for y in padded(by, ny) {
                            let row = (z * ny + y) * nx;
                            for v in &volume.data[row + xs.start..row + xs.end] {
                                let v = v.to_f32();
                                let finite = v.is_finite();
                                lo = lo.min(if finite { v } else { f32::NEG_INFINITY });
                                hi = hi.max(if finite { v } else { f32::INFINITY });
                            }
                        }
                    }
                    ranges.push((lo, hi));
                }
            }
        }
        MinMaxGrid { dims, ranges }
    }

    /// Index into [`ranges`](Self::ranges) of the block holding a voxel.
    #[inline]
    pub fn block_of(&self, x: usize, y: usize, z: usize) -> usize {
        ((z / BLOCK) * self.dims[1] + y / BLOCK) * self.dims[0] + x / BLOCK
    }

    /// The padded `(min, max)` of every block, x-fastest.
    pub fn ranges(&self) -> &[(f32, f32)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_empty_volume() -> Volume<f32> {
        // Left half zeros, right half dense.
        Volume::from_fn([16, 8, 8], |x, _, _| if x < 0.5 { 0.0 } else { 0.9 })
    }

    #[test]
    fn grid_covers_volume() {
        let g = MinMaxGrid::build(&half_empty_volume());
        assert_eq!(g.dims, [4, 2, 2]);
        assert_eq!(g.ranges.len(), 16);
        // Dims that are not a multiple of the block round up.
        let odd: Volume<f32> = Volume::zeros([9, 4, 5]);
        assert_eq!(MinMaxGrid::build(&odd).dims, [3, 1, 2]);
    }

    #[test]
    fn ranges_bracket_block_values() {
        let g = MinMaxGrid::build(&half_empty_volume());
        // Deep in the empty half, then in the dense half.
        assert_eq!(g.ranges[g.block_of(1, 1, 1)], (0.0, 0.0));
        assert_eq!(g.ranges[g.block_of(14, 1, 1)], (0.9, 0.9));
    }

    #[test]
    fn boundary_blocks_are_padded() {
        // The first voxel past a block's high face counts toward its
        // range too, so interpolation across the face is safe.
        let v: Volume<f32> =
            Volume::from_fn([8, 4, 4], |x, _, _| if x >= 0.49 { 1.0 } else { 0.0 });
        let g = MinMaxGrid::build(&v);
        let (_, hi_left) = g.ranges[g.block_of(1, 1, 1)];
        assert_eq!(
            hi_left, 1.0,
            "padding pulls the neighbor's boundary voxel in"
        );
    }

    #[test]
    fn non_finite_voxels_unbound_their_blocks() {
        let mut v = half_empty_volume();
        *v.at_mut(5, 5, 5) = f32::NAN;
        let g = MinMaxGrid::build(&v);
        assert_eq!(
            g.ranges[g.block_of(5, 5, 5)],
            (f32::NEG_INFINITY, f32::INFINITY)
        );
        assert_eq!(g.ranges[g.block_of(14, 1, 1)], (0.9, 0.9));
    }
}
