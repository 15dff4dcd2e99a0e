//! Regular scalar grids: the in-memory representation of volumetric data.

/// Scalar voxel types the renderer can sample.
pub trait Scalar: Copy + Send + Sync + 'static {
    /// Convert to a normalized `f32` (u8 maps to `[0, 1]`).
    fn to_f32(self) -> f32;
    /// Convert back from an `f32` in the type's natural range.
    fn from_f32(v: f32) -> Self;
}

impl Scalar for f32 {
    fn to_f32(self) -> f32 {
        self
    }
    fn from_f32(v: f32) -> Self {
        v
    }
}

impl Scalar for u8 {
    fn to_f32(self) -> f32 {
        self as f32 / 255.0
    }
    fn from_f32(v: f32) -> Self {
        (v.clamp(0.0, 1.0) * 255.0).round() as u8
    }
}

/// A dense regular grid of scalars in x-fastest (row-major z-slowest) order.
#[derive(Clone, Debug, PartialEq)]
pub struct Volume<T> {
    /// Grid dimensions `[nx, ny, nz]`.
    pub dims: [usize; 3],
    /// Physical spacing per axis (isotropic `[1,1,1]` by default).
    pub spacing: [f32; 3],
    /// Voxel data, `dims[0] * dims[1] * dims[2]` entries.
    pub data: Vec<T>,
}

impl<T: Scalar> Volume<T> {
    /// An all-zero volume (via `from_f32(0.0)`).
    pub fn zeros(dims: [usize; 3]) -> Self {
        let len = dims[0] * dims[1] * dims[2];
        Volume {
            dims,
            spacing: [1.0; 3],
            data: vec![T::from_f32(0.0); len],
        }
    }

    /// Build by evaluating `f` at every voxel center, with coordinates
    /// normalized to `[0, 1]^3`.
    pub fn from_fn(dims: [usize; 3], mut f: impl FnMut(f32, f32, f32) -> f32) -> Self {
        let [nx, ny, nz] = dims;
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "volume dimensions must be positive"
        );
        let mut data = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            let fz = (z as f32 + 0.5) / nz as f32;
            for y in 0..ny {
                let fy = (y as f32 + 0.5) / ny as f32;
                for x in 0..nx {
                    let fx = (x as f32 + 0.5) / nx as f32;
                    data.push(T::from_f32(f(fx, fy, fz)));
                }
            }
        }
        Volume {
            dims,
            spacing: [1.0; 3],
            data,
        }
    }

    /// Total voxel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a degenerate empty volume.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of voxel `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        (z * self.dims[1] + y) * self.dims[0] + x
    }

    /// Voxel value at integer coordinates.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.index(x, y, z)]
    }

    /// Mutable voxel access.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let i = self.index(x, y, z);
        &mut self.data[i]
    }

    /// Trilinear sample at continuous voxel coordinates (voxel centers at
    /// integer positions). Coordinates outside the grid clamp to the edge.
    pub fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        let fx = x.clamp(0.0, (self.dims[0] - 1) as f32);
        let fy = y.clamp(0.0, (self.dims[1] - 1) as f32);
        let fz = z.clamp(0.0, (self.dims[2] - 1) as f32);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let z0 = fz.floor() as usize;
        let x1 = (x0 + 1).min(self.dims[0] - 1);
        let y1 = (y0 + 1).min(self.dims[1] - 1);
        let z1 = (z0 + 1).min(self.dims[2] - 1);
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let tz = fz - z0 as f32;

        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(
            self.at(x0, y0, z0).to_f32(),
            self.at(x1, y0, z0).to_f32(),
            tx,
        );
        let c10 = lerp(
            self.at(x0, y1, z0).to_f32(),
            self.at(x1, y1, z0).to_f32(),
            tx,
        );
        let c01 = lerp(
            self.at(x0, y0, z1).to_f32(),
            self.at(x1, y0, z1).to_f32(),
            tx,
        );
        let c11 = lerp(
            self.at(x0, y1, z1).to_f32(),
            self.at(x1, y1, z1).to_f32(),
            tx,
        );
        let c0 = lerp(c00, c10, ty);
        let c1 = lerp(c01, c11, ty);
        lerp(c0, c1, tz)
    }

    /// Minimum and maximum voxel values (as `f32`).
    pub fn value_range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for v in &self.data {
            let f = v.to_f32();
            lo = lo.min(f);
            hi = hi.max(f);
        }
        (lo, hi)
    }

    /// Byte size of the raw voxel data.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_x_fastest() {
        let mut v: Volume<f32> = Volume::zeros([3, 4, 5]);
        assert_eq!(v.index(0, 0, 0), 0);
        assert_eq!(v.index(1, 0, 0), 1);
        assert_eq!(v.index(0, 1, 0), 3);
        assert_eq!(v.index(0, 0, 1), 12);
        *v.at_mut(2, 3, 4) = 7.5;
        assert_eq!(v.at(2, 3, 4), 7.5);
        assert_eq!(v.len(), 60);
    }

    #[test]
    fn from_fn_evaluates_normalized_coordinates() {
        let v: Volume<f32> = Volume::from_fn([2, 2, 2], |x, y, z| x + y + z);
        // Voxel (0,0,0) center is (0.25, 0.25, 0.25).
        assert!((v.at(0, 0, 0) - 0.75).abs() < 1e-6);
        // Voxel (1,1,1) center is (0.75, 0.75, 0.75).
        assert!((v.at(1, 1, 1) - 2.25).abs() < 1e-6);
    }

    #[test]
    fn trilinear_sample_interpolates() {
        let mut v: Volume<f32> = Volume::zeros([2, 1, 1]);
        *v.at_mut(0, 0, 0) = 0.0;
        *v.at_mut(1, 0, 0) = 1.0;
        assert!((v.sample(0.5, 0.0, 0.0) - 0.5).abs() < 1e-6);
        assert!((v.sample(0.25, 0.0, 0.0) - 0.25).abs() < 1e-6);
        // At voxel centers the sample is exact.
        assert_eq!(v.sample(0.0, 0.0, 0.0), 0.0);
        assert_eq!(v.sample(1.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn sample_clamps_outside_grid() {
        let mut v: Volume<f32> = Volume::zeros([2, 2, 2]);
        *v.at_mut(0, 0, 0) = 3.0;
        assert_eq!(v.sample(-5.0, -5.0, -5.0), 3.0);
    }

    #[test]
    fn u8_round_trips_through_f32() {
        assert_eq!(u8::from_f32(0.5).to_f32(), 128.0 / 255.0);
        assert_eq!(u8::from_f32(2.0), 255);
        assert_eq!(u8::from_f32(-1.0), 0);
    }

    #[test]
    fn value_range_scans_all_voxels() {
        let v: Volume<f32> = Volume::from_fn([4, 4, 4], |x, _, _| x);
        let (lo, hi) = v.value_range();
        assert!((lo - 0.125).abs() < 1e-6);
        assert!((hi - 0.875).abs() < 1e-6);
    }
}
