//! Front-to-back ray-casting integration (§II-A): for each pixel a ray
//! marches through the volume; at every sample a transfer function maps
//! the interpolated scalar to color and opacity, which accumulate with the
//! *over* operator until the ray leaves the volume or saturates (early ray
//! termination). A gradient-based headlight Phong term is applied where
//! the field has structure.
//!
//! The integrator is generic over a [`VolumeSampler`] so a full volume and
//! a distributed brick share the same code path — the brick case simply
//! restricts the box to the brick's core region (sort-last task
//! decomposition). It is the executable reference: [`render_brick`], the
//! one entry point the live service calls, must draw the same bits.

use crate::camera::{vec3, Camera};
use crate::image::{over, Rgba, RgbaImage};
use crate::ray::{Aabb, Ray};
use crate::transfer::TransferFunction;
use vizsched_volume::brick::Brick;
use vizsched_volume::grid::{Scalar, Volume};

/// Anything a ray can march through.
pub trait VolumeSampler: Sync {
    /// The world-space (voxel-coordinate) box to march within.
    fn bounds(&self) -> Aabb;
    /// Scalar value at a world-space point.
    fn value(&self, p: [f32; 3]) -> f32;

    /// Gradient at a world-space point (central differences by default).
    fn gradient(&self, p: [f32; 3]) -> [f32; 3] {
        const H: f32 = 0.5;
        [
            self.value([p[0] + H, p[1], p[2]]) - self.value([p[0] - H, p[1], p[2]]),
            self.value([p[0], p[1] + H, p[2]]) - self.value([p[0], p[1] - H, p[2]]),
            self.value([p[0], p[1], p[2] + H]) - self.value([p[0], p[1], p[2] - H]),
        ]
    }
}

impl<T: Scalar> VolumeSampler for Volume<T> {
    fn bounds(&self) -> Aabb {
        Aabb::of_grid(self.dims)
    }

    fn value(&self, p: [f32; 3]) -> f32 {
        self.sample(p[0], p[1], p[2])
    }
}

/// A brick restricted to its core region, sampling with ghost support.
pub struct BrickSampler<'a, T> {
    brick: &'a Brick<T>,
}

impl<'a, T: Scalar> BrickSampler<'a, T> {
    /// Wrap a brick.
    pub fn new(brick: &'a Brick<T>) -> Self {
        BrickSampler { brick }
    }
}

impl<T: Scalar> VolumeSampler for BrickSampler<'_, T> {
    fn bounds(&self) -> Aabb {
        let (lo, hi) = self.brick.core_bounds();
        Aabb {
            min: [lo[0] as f32, lo[1] as f32, lo[2] as f32],
            max: [hi[0] as f32, hi[1] as f32, hi[2] as f32],
        }
    }

    fn value(&self, p: [f32; 3]) -> f32 {
        self.brick.sample_global(p[0], p[1], p[2])
    }
}

/// Integration and shading parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RenderSettings {
    /// Output image width.
    pub width: usize,
    /// Output image height.
    pub height: usize,
    /// Ray step in voxels: positive and finite. Opacity is corrected
    /// relative to a one-voxel step.
    pub step: f32,
    /// Stop marching once accumulated alpha exceeds this.
    pub early_termination: f32,
    /// Apply gradient headlight shading.
    pub shading: bool,
}

/// The ambient term of headlight shading: the share of a sample's colour
/// kept when its gradient is perpendicular to the ray.
pub(crate) const AMBIENT: f32 = 0.35;

impl Default for RenderSettings {
    fn default() -> Self {
        RenderSettings {
            width: 256,
            height: 256,
            step: 0.5,
            early_termination: 0.99,
            shading: true,
        }
    }
}

/// March one ray, returning the premultiplied pixel color.
pub fn integrate<S: VolumeSampler>(
    sampler: &S,
    ray: &Ray,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> Rgba {
    let Some((t0, t1)) = sampler.bounds().intersect(ray) else {
        return [0.0; 4];
    };
    let mut acc: Rgba = [0.0; 4];
    let mut t = t0;
    while t <= t1 {
        let p = ray.at(t);
        let v = sampler.value(p);
        let mut s = tf.sample(v, settings.step);
        if s[3] > 0.0 && settings.shading {
            if let Some(n) = normalize(sampler.gradient(p)) {
                // Headlight: light comes from the eye.
                let diffuse = vec3::dot(n, ray.dir).abs();
                let shade = AMBIENT + (1.0 - AMBIENT) * diffuse;
                s[0] *= shade;
                s[1] *= shade;
                s[2] *= shade;
            }
        }
        acc = over(acc, s);
        if acc[3] >= settings.early_termination {
            break;
        }
        t += settings.step;
    }
    acc
}

pub(crate) fn normalize(g: [f32; 3]) -> Option<[f32; 3]> {
    let len = vec3::length(g);
    if len < 1e-6 {
        return None;
    }
    Some(vec3::scale(g, 1.0 / len))
}

/// A ray advances by `settings.step` per sample: a zero, negative or
/// non-finite step would never reach the far side of the volume.
pub(crate) fn assert_step(settings: &RenderSettings) {
    assert!(
        settings.step > 0.0 && settings.step.is_finite(),
        "RenderSettings::step must be positive and finite, got {}",
        settings.step
    );
}

/// Render single-threaded (reference implementation).
pub fn render<S: VolumeSampler>(
    sampler: &S,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> RgbaImage {
    assert_step(settings);
    let mut img = RgbaImage::transparent(settings.width, settings.height);
    for y in 0..settings.height {
        for x in 0..settings.width {
            let ray = camera.ray(x, y, settings.width, settings.height);
            *img.at_mut(x, y) = integrate(sampler, &ray, tf, settings);
        }
    }
    img
}

/// A rendered sub-image tagged with its view depth, the unit sort-last
/// compositing works on.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    /// The rendered sub-image (full frame size, transparent outside the
    /// brick's footprint).
    pub image: RgbaImage,
    /// Distance from the eye to the brick center — the visibility sort key.
    pub depth: f32,
}

/// Render one brick of a distributed volume into a depth-tagged layer:
/// [`render`] over a [`BrickSampler`], bit for bit, by [`crate::skip`].
pub fn render_brick<T: Scalar>(
    brick: &Brick<T>,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> Layer {
    let (image, _work) = crate::skip::render(brick, camera, tf, settings);
    let center = BrickSampler::new(brick).bounds().center();
    let depth = vec3::length(vec3::sub(center, camera.eye));
    Layer { image, depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_volume::synth::Field;

    fn small_settings() -> RenderSettings {
        RenderSettings {
            width: 32,
            height: 32,
            ..RenderSettings::default()
        }
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let v: Volume<f32> = Volume::zeros([8, 8, 8]);
        let cam = Camera::orbit(v.dims, 0.4, 0.3, 2.5);
        let tf = TransferFunction::preset(0);
        let img = render(&v, &cam, &tf, &small_settings());
        assert_eq!(img.coverage(), 0.0);
    }

    #[test]
    fn dense_volume_renders_something() {
        let v: Volume<f32> = Field::Shells.sample([16, 16, 16]);
        let cam = Camera::orbit(v.dims, 0.4, 0.3, 2.5);
        let tf = TransferFunction::preset(0);
        let img = render(&v, &cam, &tf, &small_settings());
        assert!(img.coverage() > 0.02, "coverage = {}", img.coverage());
        assert!(img.pixels.iter().all(|p| p.iter().all(|c| c.is_finite())));
    }

    #[test]
    fn early_termination_caps_alpha() {
        // A fully opaque TF saturates immediately.
        let v: Volume<f32> = Volume::from_fn([8, 8, 8], |_, _, _| 1.0);
        let tf = TransferFunction::from_points(vec![
            crate::transfer::ControlPoint {
                value: 0.0,
                color: [1.0, 0.0, 0.0, 1.0],
            },
            crate::transfer::ControlPoint {
                value: 1.0,
                color: [1.0, 0.0, 0.0, 1.0],
            },
        ]);
        let cam = Camera::orbit(v.dims, 0.0, 0.0, 2.5);
        let img = render(&v, &cam, &tf, &small_settings());
        let center = img.at(16, 16);
        assert!(center[3] >= 0.99, "center alpha = {}", center[3]);
        assert!(center[3] <= 1.0 + 1e-6);
    }

    #[test]
    fn brick_layers_have_monotone_depths_along_view() {
        let v: Volume<f32> = Field::Shells.sample([8, 8, 16]);
        let bricks = vizsched_volume::split_z(&v, 4);
        let cam = Camera::orbit(v.dims, 0.0, 0.0, 2.5); // eye on the +z side
        let tf = TransferFunction::preset(0);
        let layers: Vec<Layer> = bricks
            .iter()
            .map(|b| render_brick(b, &cam, &tf, &small_settings()))
            .collect();
        // With the eye on +z, brick 3 (highest z) is nearest.
        for w in layers.windows(2) {
            assert!(
                w[0].depth > w[1].depth,
                "depths must decrease toward the eye"
            );
        }
    }

    #[test]
    #[should_panic(expected = "step must be positive and finite")]
    fn render_refuses_a_step_that_never_advances() {
        let v: Volume<f32> = Volume::zeros([8, 8, 8]);
        let cam = Camera::orbit(v.dims, 0.4, 0.3, 2.5);
        let settings = RenderSettings {
            step: 0.0,
            ..small_settings()
        };
        render(&v, &cam, &TransferFunction::preset(0), &settings);
    }

    #[test]
    #[should_panic(expected = "step must be positive and finite")]
    fn render_brick_refuses_a_negative_step() {
        let v: Volume<f32> = Volume::zeros([8, 8, 8]);
        let brick = &vizsched_volume::split_z(&v, 1)[0];
        let cam = Camera::orbit(v.dims, 0.4, 0.3, 2.5);
        let settings = RenderSettings {
            step: -0.5,
            ..small_settings()
        };
        render_brick(brick, &cam, &TransferFunction::preset(0), &settings);
    }

    #[test]
    fn shading_darkens_grazing_surfaces() {
        let v: Volume<f32> = Field::Shells.sample([16, 16, 16]);
        let cam = Camera::orbit(v.dims, 0.4, 0.3, 2.5);
        let tf = TransferFunction::preset(0);
        let mut s = small_settings();
        s.shading = false;
        let unshaded = render(&v, &cam, &tf, &s);
        s.shading = true;
        let shaded = render(&v, &cam, &tf, &s);
        let sum = |img: &RgbaImage| -> f64 {
            img.pixels.iter().map(|p| (p[0] + p[1] + p[2]) as f64).sum()
        };
        assert!(
            sum(&shaded) < sum(&unshaded),
            "shading should remove some light"
        );
        // Alpha is unaffected by shading.
        assert!((shaded.coverage() - unshaded.coverage()).abs() < 1e-9);
    }
}
