//! Bricking: splitting a volume into block-shaped chunks for distribution
//! across rendering nodes (§III-C). Bricks carry one layer of ghost voxels
//! on interior faces so trilinear sampling and gradients stay seamless at
//! brick boundaries.

use crate::grid::{Scalar, Volume};
use crate::skip::MinMaxGrid;
use std::sync::OnceLock;

/// One brick of a decomposed volume.
#[derive(Clone, Debug)]
pub struct Brick<T> {
    /// Index of this brick within the decomposition.
    pub index: usize,
    /// Offset of the brick's *core* region in the source volume (x, y, z).
    pub offset: [usize; 3],
    /// Dimensions of the core region (without ghosts).
    pub core_dims: [usize; 3],
    /// Ghost layers present on the low/high side of each axis (0 or 1).
    pub ghost_lo: [usize; 3],
    /// Ghost layers present on the high side of each axis.
    pub ghost_hi: [usize; 3],
    /// The voxel data including ghosts.
    pub volume: Volume<T>,
    /// Filled by [`minmax_grid`](Brick::minmax_grid); construct it empty.
    pub minmax: OnceLock<MinMaxGrid>,
}

impl<T: Scalar> Brick<T> {
    /// Bounding box of the core region in source-volume voxel coordinates:
    /// `(min, max)` inclusive.
    pub fn core_bounds(&self) -> ([usize; 3], [usize; 3]) {
        let max = [
            self.offset[0] + self.core_dims[0] - 1,
            self.offset[1] + self.core_dims[1] - 1,
            self.offset[2] + self.core_dims[2] - 1,
        ];
        (self.offset, max)
    }

    /// The min–max grid over `volume`: built on first use, dropped with the brick.
    pub fn minmax_grid(&self) -> &MinMaxGrid {
        self.minmax.get_or_init(|| MinMaxGrid::build(&self.volume))
    }

    /// Sample the brick at *source-volume* continuous coordinates; the
    /// caller must keep coordinates within the core bounds (ghosts make the
    /// interpolation correct right up to the boundary).
    pub fn sample_global(&self, x: f32, y: f32, z: f32) -> f32 {
        let lx = x - (self.offset[0] as f32 - self.ghost_lo[0] as f32);
        let ly = y - (self.offset[1] as f32 - self.ghost_lo[1] as f32);
        let lz = z - (self.offset[2] as f32 - self.ghost_lo[2] as f32);
        self.volume.sample(lx, ly, lz)
    }
}

/// Split `volume` into `count` slabs along the z axis, each with one ghost
/// layer toward its neighbors. The slab boundaries are as even as possible;
/// `count` must not exceed the z extent.
pub fn split_z<T: Scalar>(volume: &Volume<T>, count: usize) -> Vec<Brick<T>> {
    assert!(count > 0, "need at least one brick");
    let [nx, ny, nz] = volume.dims;
    assert!(count <= nz, "cannot split {nz} slices into {count} bricks");

    let mut bricks = Vec::with_capacity(count);
    let base = nz / count;
    let rem = nz % count;
    let mut z0 = 0usize;
    for i in 0..count {
        let core_z = base + usize::from(i < rem);
        let glo = usize::from(i > 0);
        let ghi = usize::from(i + 1 < count);
        let zlo = z0 - glo;
        let zhi = z0 + core_z + ghi; // exclusive
        let mut data = Vec::with_capacity(nx * ny * (zhi - zlo));
        for z in zlo..zhi {
            for y in 0..ny {
                for x in 0..nx {
                    data.push(volume.at(x, y, z));
                }
            }
        }
        bricks.push(Brick {
            index: i,
            offset: [0, 0, z0],
            core_dims: [nx, ny, core_z],
            ghost_lo: [0, 0, glo],
            ghost_hi: [0, 0, ghi],
            volume: Volume {
                dims: [nx, ny, zhi - zlo],
                spacing: volume.spacing,
                data,
            },
            minmax: OnceLock::new(),
        });
        z0 += core_z;
    }
    bricks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Volume<f32> {
        // Value = global z index, so cross-brick sampling is easy to check.
        let mut v = Volume::zeros([4, 3, 10]);
        for z in 0..10 {
            for y in 0..3 {
                for x in 0..4 {
                    *v.at_mut(x, y, z) = z as f32;
                }
            }
        }
        v
    }

    #[test]
    fn split_covers_volume_without_overlap() {
        let v = ramp();
        let bricks = split_z(&v, 3);
        assert_eq!(bricks.len(), 3);
        let mut covered = [false; 10];
        for b in &bricks {
            let (lo, hi) = b.core_bounds();
            for slot in covered.iter_mut().take(hi[2] + 1).skip(lo[2]) {
                assert!(!*slot, "slice covered twice");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every slice covered");
        // 10 = 4 + 3 + 3.
        assert_eq!(bricks[0].core_dims[2], 4);
        assert_eq!(bricks[1].core_dims[2], 3);
        assert_eq!(bricks[2].core_dims[2], 3);
    }

    #[test]
    fn ghost_layers_only_on_interior_faces() {
        let v = ramp();
        let bricks = split_z(&v, 3);
        assert_eq!(bricks[0].ghost_lo[2], 0);
        assert_eq!(bricks[0].ghost_hi[2], 1);
        assert_eq!(bricks[1].ghost_lo[2], 1);
        assert_eq!(bricks[1].ghost_hi[2], 1);
        assert_eq!(bricks[2].ghost_lo[2], 1);
        assert_eq!(bricks[2].ghost_hi[2], 0);
        // Brick 1 holds core z=4..6 plus ghosts z=3 and z=7.
        assert_eq!(bricks[1].volume.dims[2], 5);
    }

    #[test]
    fn global_sampling_matches_source_within_core() {
        let v = ramp();
        let bricks = split_z(&v, 3);
        for b in &bricks {
            let (lo, hi) = b.core_bounds();
            for z10 in (lo[2] * 10)..=(hi[2] * 10) {
                let z = z10 as f32 / 10.0;
                let from_brick = b.sample_global(1.5, 1.0, z);
                let from_volume = v.sample(1.5, 1.0, z);
                assert!(
                    (from_brick - from_volume).abs() < 1e-5,
                    "brick {} mismatch at z = {z}: {from_brick} vs {from_volume}",
                    b.index
                );
            }
        }
    }

    #[test]
    fn single_brick_is_whole_volume() {
        let v = ramp();
        let bricks = split_z(&v, 1);
        assert_eq!(bricks.len(), 1);
        assert_eq!(bricks[0].volume.dims, v.dims);
        assert_eq!(bricks[0].ghost_lo, [0, 0, 0]);
        assert_eq!(bricks[0].ghost_hi, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_bricks_rejected() {
        let v = ramp();
        split_z(&v, 11);
    }
}
