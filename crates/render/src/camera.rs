//! Perspective cameras and view rays. World space is the source volume's
//! voxel coordinate system (voxel centers at integer positions), so bricks
//! and full volumes share one geometry.

use crate::ray::Ray;

/// Vector helpers over `[f32; 3]`.
pub mod vec3 {
    /// Component-wise subtraction.
    pub fn sub(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }
    /// Component-wise addition.
    pub fn add(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
    }
    /// Scalar multiply.
    pub fn scale(a: [f32; 3], s: f32) -> [f32; 3] {
        [a[0] * s, a[1] * s, a[2] * s]
    }
    /// Dot product.
    pub fn dot(a: [f32; 3], b: [f32; 3]) -> f32 {
        a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    }
    /// Cross product.
    pub fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    }
    /// Euclidean length.
    pub fn length(a: [f32; 3]) -> f32 {
        dot(a, a).sqrt()
    }
    /// Unit vector (panics on zero input).
    pub fn normalize(a: [f32; 3]) -> [f32; 3] {
        let l = length(a);
        assert!(l > 0.0, "cannot normalize the zero vector");
        scale(a, 1.0 / l)
    }
}

/// A perspective pinhole camera.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Camera {
    /// Eye position (world = voxel coordinates).
    pub eye: [f32; 3],
    /// Look-at target.
    pub target: [f32; 3],
    /// Up hint.
    pub up: [f32; 3],
    /// Vertical field of view in radians.
    pub fov_y: f32,
}

impl Camera {
    /// Orbit camera around the center of a volume with the given grid
    /// dimensions: `azimuth`/`elevation` in radians, `distance` in units of
    /// half the grid diagonal — the parameterization carried by
    /// `FrameParams` in the scheduling layer.
    pub fn orbit(dims: [usize; 3], azimuth: f32, elevation: f32, distance: f32) -> Camera {
        let center = [
            (dims[0] as f32 - 1.0) / 2.0,
            (dims[1] as f32 - 1.0) / 2.0,
            (dims[2] as f32 - 1.0) / 2.0,
        ];
        let radius = vec3::length([
            dims[0] as f32 / 2.0,
            dims[1] as f32 / 2.0,
            dims[2] as f32 / 2.0,
        ]) * distance.max(0.1);
        let (saz, caz) = azimuth.sin_cos();
        let (sel, cel) = elevation.clamp(-1.5, 1.5).sin_cos();
        let eye = [
            center[0] + radius * cel * saz,
            center[1] + radius * sel,
            center[2] + radius * cel * caz,
        ];
        Camera {
            eye,
            target: center,
            up: [0.0, 1.0, 0.0],
            fov_y: 45f32.to_radians(),
        }
    }

    /// [`ray`](Camera::ray) as a function of the pixel alone: the view
    /// basis and image-plane scale are computed here, once per frame.
    pub fn rays(&self, width: usize, height: usize) -> impl Fn(usize, usize) -> Ray {
        let eye = self.eye;
        let forward = vec3::normalize(vec3::sub(self.target, self.eye));
        let right = vec3::normalize(vec3::cross(forward, self.up));
        let up = vec3::cross(right, forward);
        let aspect = width as f32 / height as f32;
        let tan_half = (self.fov_y * 0.5).tan();
        move |px, py| {
            // NDC in [-1, 1], y flipped so row 0 is the top.
            let ndc_x = ((px as f32 + 0.5) / width as f32) * 2.0 - 1.0;
            let ndc_y = 1.0 - ((py as f32 + 0.5) / height as f32) * 2.0;
            let dir = vec3::normalize(vec3::add(
                forward,
                vec3::add(
                    vec3::scale(right, ndc_x * tan_half * aspect),
                    vec3::scale(up, ndc_y * tan_half),
                ),
            ));
            Ray { origin: eye, dir }
        }
    }

    /// Generate the view ray through pixel `(px, py)` of a `width`×`height`
    /// image (pixel centers, y down).
    pub fn ray(&self, px: usize, py: usize, width: usize, height: usize) -> Ray {
        self.rays(width, height)(px, py)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orbit_looks_at_center() {
        let cam = Camera::orbit([64, 64, 64], 0.3, 0.2, 2.5);
        assert_eq!(cam.target, [31.5, 31.5, 31.5]);
        let to_center = vec3::sub(cam.target, cam.eye);
        assert!(vec3::length(to_center) > 10.0);
    }

    #[test]
    fn center_pixel_ray_points_at_target() {
        let cam = Camera::orbit([32, 32, 32], 0.7, -0.3, 2.0);
        // Rays through the four center pixels should straddle the
        // target direction.
        let forward = vec3::normalize(vec3::sub(cam.target, cam.eye));
        let ray = cam.ray(64, 64, 128, 128);
        let cos = vec3::dot(ray.dir, forward);
        assert!(cos > 0.999, "center ray deviates: cos = {cos}");
    }

    #[test]
    fn corner_rays_diverge_symmetrically() {
        let cam = Camera::orbit([32, 32, 32], 0.0, 0.0, 2.0);
        let forward = vec3::normalize(vec3::sub(cam.target, cam.eye));
        let tl = cam.ray(0, 0, 100, 100);
        let br = cam.ray(99, 99, 100, 100);
        let ctl = vec3::dot(tl.dir, forward);
        let cbr = vec3::dot(br.dir, forward);
        assert!((ctl - cbr).abs() < 1e-4, "corners should be symmetric");
        assert!(ctl < 0.999, "corner rays must diverge from center");
    }

    #[test]
    fn azimuth_rotates_eye() {
        let a = Camera::orbit([10, 10, 10], 0.0, 0.0, 2.0);
        let b = Camera::orbit([10, 10, 10], std::f32::consts::FRAC_PI_2, 0.0, 2.0);
        // At azimuth 0 the eye sits along +z; at pi/2 along +x.
        assert!(a.eye[2] > a.target[2]);
        assert!((a.eye[0] - a.target[0]).abs() < 1e-3);
        assert!(b.eye[0] > b.target[0]);
        assert!((b.eye[2] - b.target[2]).abs() < 1e-3);
    }

    #[test]
    fn vec3_basics() {
        assert_eq!(
            vec3::cross([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            [0.0, 0.0, 1.0]
        );
        assert_eq!(vec3::dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), 32.0);
        let n = vec3::normalize([0.0, 3.0, 4.0]);
        assert!((vec3::length(n) - 1.0).abs() < 1e-6);
    }
}
