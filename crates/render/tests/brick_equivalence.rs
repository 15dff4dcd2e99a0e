//! `render_brick` against the reference it replaces: the same picture bit
//! for bit (`render` over a `BrickSampler`), from fewer fetched samples.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use vizsched_render::camera::vec3;
use vizsched_render::raycast::{render, render_brick, BrickSampler, VolumeSampler};
use vizsched_render::skip;
use vizsched_render::{Aabb, Camera, ControlPoint, Layer, RenderSettings, TransferFunction};
use vizsched_volume::grid::Scalar;
use vizsched_volume::{split_z, Field, Volume};

/// The three presets, a function opaque at *low* values (the empty space
/// of every field is visible: nothing to skip) and an all-transparent one
/// (everything to skip).
fn transfer_fn(which: usize) -> TransferFunction {
    let points = |points: &[(f32, [f32; 4])]| {
        let point = |&(value, color)| ControlPoint { value, color };
        TransferFunction::from_points(points.iter().map(point).collect())
    };
    match which {
        0..=2 => TransferFunction::preset(which as u32),
        3 => points(&[
            (0.0, [1.0, 0.4, 0.1, 0.6]),
            (0.3, [0.0; 4]),
            (1.0, [0.0; 4]),
        ]),
        _ => points(&[(0.0, [0.3, 0.3, 0.3, 0.0]), (1.0, [0.9, 0.9, 0.9, 0.0])]),
    }
}

/// Orbits at a seeded angle, the two axis-aligned views an orbit can reach
/// (rays with exactly zero direction components), and two eyes inside the
/// volume (rays that start mid-brick or behind a brick).
fn camera(which: usize, dims: [usize; 3], angle: u32) -> Camera {
    let turn = angle as f32 * 0.01;
    let center = dims.map(|n| (n as f32 - 1.0) / 2.0);
    match which {
        0 => Camera::orbit(dims, turn, (turn * 0.37).sin(), 2.5),
        1 => Camera::orbit(dims, turn, -0.9, 1.2),
        2 => Camera::orbit(dims, 0.0, 0.0, 2.0),
        3 => Camera::orbit(dims, std::f32::consts::FRAC_PI_2, 0.0, 2.0),
        4 => Camera {
            eye: [center[0] + 0.7, center[1] - 0.4, center[2] + 1.1],
            target: [0.0, center[1], 0.0],
            ..Camera::orbit(dims, turn, 0.2, 2.5)
        },
        _ => Camera {
            eye: [1.5, center[1] + 2.0, dims[2] as f32 * 0.8],
            target: [dims[0] as f32, 0.0, 0.0],
            ..Camera::orbit(dims, turn, 0.2, 2.5)
        },
    }
}

fn bits(layer: &Layer) -> impl Iterator<Item = u32> + '_ {
    let channels = layer.image.pixels.iter().flatten();
    channels.chain([&layer.depth]).map(|c| c.to_bits())
}

/// `render_brick` ≡ the seed's `render_brick` body, for every brick of a
/// split; returns the share of pixels that drew something.
fn assert_equivalent<T: Scalar>(
    volume: &Volume<T>,
    bricks: usize,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> f64 {
    let mut coverage = 0.0;
    for brick in split_z(volume, bricks) {
        let sampler = BrickSampler::new(&brick);
        let reference = Layer {
            image: render(&sampler, camera, tf, settings),
            depth: vec3::length(vec3::sub(sampler.bounds().center(), camera.eye)),
        };
        let layer = render_brick(&brick, camera, tf, settings);
        assert!(
            bits(&layer).eq(bits(&reference)),
            "brick {} of {bricks} differs from the reference",
            brick.index
        );
        // A second render reuses the brick's grid: same picture again.
        let again = render_brick(&brick, camera, tf, settings);
        assert!(bits(&again).eq(bits(&reference)), "re-render differs");
        coverage += layer.image.coverage();
    }
    coverage
}

/// Grid extents that are never a multiple of the skip block (4).
fn odd_extent(n: usize) -> usize {
    if n % 4 == 0 {
        n + 1
    } else {
        n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn render_brick_matches_the_reference_bit_for_bit(
        (field, nx, ny, nz, bricks) in (0usize..5, 6usize..20, 6usize..20, 9usize..26, 1usize..5),
        (tf, view, angle) in (0usize..5, 0usize..6, 0u32..628),
        (shading, early, step, bytes) in (
            any::<bool>(),
            prop::sample::select(&[0.5f32, 0.99]),
            prop::sample::select(&[0.5f32, 1.0]),
            any::<bool>(),
        ),
    ) {
        let dims = [odd_extent(nx), odd_extent(ny), odd_extent(nz)];
        let settings = RenderSettings {
            width: 28,
            height: 22,
            step,
            early_termination: early,
            shading,
            ..RenderSettings::default()
        };
        let camera = camera(view, dims, angle);
        let tf = transfer_fn(tf);
        let field = Field::ALL[field];
        if bytes {
            assert_equivalent(&field.sample::<u8>(dims), bricks, &camera, &tf, &settings);
        } else {
            assert_equivalent(&field.sample::<f32>(dims), bricks, &camera, &tf, &settings);
        }
    }
}

#[test]
fn the_property_draws_pictures_and_not_only_empty_frames() {
    // Guards the property above against passing vacuously: its views do
    // hit the data, under the visible transfer functions.
    let dims = [13, 17, 21];
    let settings = RenderSettings {
        width: 28,
        height: 22,
        ..RenderSettings::default()
    };
    let volume: Volume<f32> = Field::Supernova.sample(dims);
    for view in 0..6 {
        for tf in 0..4 {
            let covered = assert_equivalent(
                &volume,
                2,
                &camera(view, dims, 60),
                &transfer_fn(tf),
                &settings,
            );
            assert!(covered > 0.02, "view {view} tf {tf} drew {covered}");
        }
    }
    let clear = assert_equivalent(&volume, 2, &camera(0, dims, 60), &transfer_fn(4), &settings);
    assert_eq!(clear, 0.0);
}

/// Counts the reference's lattice samples: `integrate` calls `value` once
/// per sample, and the gradient's six extra fetches go around the counter.
struct Counting<'a> {
    inner: BrickSampler<'a, f32>,
    samples: AtomicU64,
}

impl VolumeSampler for Counting<'_> {
    fn bounds(&self) -> Aabb {
        self.inner.bounds()
    }
    fn value(&self, p: [f32; 3]) -> f32 {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.inner.value(p)
    }
    fn gradient(&self, p: [f32; 3]) -> [f32; 3] {
        self.inner.gradient(p)
    }
}

/// `(fetched by render_brick, lattice samples of the reference)` over the
/// frame benchmark's canary shape: 64³ in 2 bricks at 128², azimuth 0.6,
/// elevation 0.3.
fn canary_work(field: Field, preset: u32) -> (u64, u64) {
    let volume: Volume<f32> = field.sample([64; 3]);
    let camera = Camera::orbit(volume.dims, 0.6, 0.3, 2.5);
    let tf = TransferFunction::preset(preset);
    let settings = RenderSettings {
        width: 128,
        height: 128,
        ..RenderSettings::default()
    };
    let (mut fetched, mut lattice) = (0, 0);
    for brick in split_z(&volume, 2) {
        let counting = Counting {
            inner: BrickSampler::new(&brick),
            samples: AtomicU64::new(0),
        };
        let reference = render(&counting, &camera, &tf, &settings);
        let (image, work) = skip::render(&brick, &camera, &tf, &settings);
        assert!(image == reference, "canary brick {} differs", brick.index);
        // The lattice `skip::render` reports is the one the reference walks.
        assert_eq!(work[1], counting.samples.into_inner());
        fetched += work[0];
        lattice += work[1];
    }
    (fetched, lattice)
}

#[test]
fn sparse_data_is_mostly_skipped_and_dense_data_never() {
    // Counts, not timings: they repeat exactly on every machine.
    let (fetched, lattice) = canary_work(Field::Plume, 0);
    assert!(
        fetched * 5 <= lattice,
        "plume: fetched {fetched} of {lattice} lattice samples"
    );
    // Marschner–Lobb under the smoke preset is visible everywhere: a
    // skipped sample there would be a sample the picture needed.
    let (fetched, lattice) = canary_work(Field::MarschnerLobb, 2);
    assert_eq!(fetched, lattice, "dense data must not be skipped");
}
