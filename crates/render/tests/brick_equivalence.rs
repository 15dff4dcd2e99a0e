//! `render_brick` against the reference it replaces: the same picture bit
//! for bit (`render` over a `BrickSampler`), from fewer fetched samples and
//! fewer still looked up in the empty-space mask.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use vizsched_render::camera::vec3;
use vizsched_render::raycast::{render, render_brick, BrickSampler, VolumeSampler};
use vizsched_render::skip;
use vizsched_render::{Aabb, Camera, ControlPoint, Layer, RenderSettings, TransferFunction};
use vizsched_volume::grid::Scalar;
use vizsched_volume::{split_z, Brick, Field, Volume};

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

/// How many views [`camera`] has.
const VIEWS: usize = 9;

/// Orbits at a seeded angle, the two axis-aligned views an orbit can reach
/// (rays with exactly zero direction components), two eyes inside the
/// volume (rays that start mid-brick or behind a brick), a view down z
/// from an eye on a block corner (with odd image sides, a column and a row
/// of rays lie exactly in block-face planes), and two narrow views from
/// eyes far outside: one within the magnitude the brick ray caster leaps
/// at, one beyond it.
fn camera(which: usize, dims: [usize; 3], angle: u32) -> Camera {
    let turn = angle as f32 * 0.01;
    let center = dims.map(|n| (n as f32 - 1.0) / 2.0);
    let far = |distance: f32| {
        let (s, c) = (turn * 0.5 + 0.3).sin_cos();
        let spread = dims.iter().map(|&n| n as f32).fold(0.0, f32::max);
        Camera {
            eye: [
                center[0] + distance * s * 0.8,
                center[1] + distance * 0.6,
                center[2] + distance * c * 0.8,
            ],
            target: center,
            fov_y: 1.2 * spread / distance,
            ..Camera::orbit(dims, turn, 0.2, 2.5)
        }
    };
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
        5 => Camera {
            eye: [1.5, center[1] + 2.0, dims[2] as f32 * 0.8],
            target: [dims[0] as f32, 0.0, 0.0],
            ..Camera::orbit(dims, turn, 0.2, 2.5)
        },
        6 => {
            // `split_z` bricks shift only z, so x = 4i, y = 4j are block
            // faces in every brick.
            let corner = [dims[0] / 8 * 4, dims[1] / 8 * 4].map(|v| v as f32);
            Camera {
                eye: [corner[0], corner[1], dims[2] as f32 * 2.0],
                target: [corner[0], corner[1], 0.0],
                ..Camera::orbit(dims, turn, 0.2, 2.5)
            }
        }
        7 => far(12_000.0),
        _ => far(40_000.0),
    }
}

fn bits(layer: &Layer) -> impl Iterator<Item = u32> + '_ {
    let channels = layer.image.pixels.iter().flatten();
    channels.chain([&layer.depth]).map(|c| c.to_bits())
}

/// The reference's samples, counted: `integrate` calls `value` once per
/// sample (the gradient's six extra fetches go around the counter), and
/// `visible` counts those whose floor voxel's block the mask keeps —
/// an oracle for how many `render_brick` must fetch.
struct Counting<'a, T> {
    inner: BrickSampler<'a, T>,
    brick: &'a Brick<T>,
    masked: Vec<bool>,
    samples: AtomicU64,
    visible: AtomicU64,
}

impl<'a, T: Scalar> Counting<'a, T> {
    fn new(brick: &'a Brick<T>, tf: &TransferFunction) -> Self {
        let in_scale = |v: f32| v.abs() <= 16.0;
        let masked = brick.minmax_grid().ranges().iter();
        let masked = masked
            .map(|&(lo, hi)| in_scale(lo) && in_scale(hi) && tf.max_opacity_between(lo, hi) <= 0.0);
        Counting {
            inner: BrickSampler::new(brick),
            brick,
            masked: masked.collect(),
            samples: AtomicU64::new(0),
            visible: AtomicU64::new(0),
        }
    }
}

impl<T: Scalar> VolumeSampler for Counting<'_, T> {
    fn bounds(&self) -> Aabb {
        self.inner.bounds()
    }
    fn value(&self, p: [f32; 3]) -> f32 {
        self.samples.fetch_add(1, Ordering::Relaxed);
        let b = self.brick;
        let floor = |a: usize| {
            let shift = b.offset[a] as f32 - b.ghost_lo[a] as f32;
            (p[a] - shift).clamp(0.0, (b.volume.dims[a] - 1) as f32) as usize
        };
        let block = b.minmax_grid().block_of(floor(0), floor(1), floor(2));
        if !self.masked[block] {
            self.visible.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.value(p)
    }
    fn gradient(&self, p: [f32; 3]) -> [f32; 3] {
        self.inner.gradient(p)
    }
}

/// `render_brick` ≡ the seed's `render_brick` body, for every brick of a
/// split, and `skip::render`'s `[fetched, classified, lattice]` against
/// the reference's counts; returns the share of pixels that drew
/// something and the summed counts.
fn assert_equivalent<T: Scalar>(
    volume: &Volume<T>,
    bricks: usize,
    camera: &Camera,
    tf: &TransferFunction,
    settings: &RenderSettings,
) -> (f64, [u64; 3]) {
    let mut coverage = 0.0;
    let mut total = [0u64; 3];
    for brick in split_z(volume, bricks) {
        let counting = Counting::new(&brick, tf);
        let reference = Layer {
            image: render(&counting, camera, tf, settings),
            depth: vec3::length(vec3::sub(counting.bounds().center(), camera.eye)),
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
        let (image, work) = skip::render(&brick, camera, tf, settings);
        assert!(image == reference.image, "skip::render differs");
        let [fetched, classified, lattice] = work;
        assert_eq!(lattice, counting.samples.into_inner(), "lattice");
        assert_eq!(fetched, counting.visible.into_inner(), "fetched");
        assert!(fetched <= classified && classified <= lattice, "{work:?}");
        coverage += layer.image.coverage();
        total = [0, 1, 2].map(|i| total[i] + work[i]);
    }
    (coverage, total)
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
        (field, nx, ny, nz, bricks) in (0usize..5, 2usize..34, 2usize..34, 9usize..50, 1usize..5),
        (tf, view, angle) in (0usize..5, 0usize..VIEWS, 0u32..628),
        (shading, early, step, bytes) in (
            any::<bool>(),
            prop::sample::select(&[0.5f32, 0.99]),
            prop::sample::select(&[0.5f32, 0.75, 1.0]),
            any::<bool>(),
        ),
    ) {
        let dims = [odd_extent(nx), odd_extent(ny), odd_extent(nz)];
        let settings = RenderSettings {
            width: 29,
            height: 23,
            step,
            early_termination: early,
            shading,
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
    // hit the data, under the visible transfer functions, and its larger
    // grids leap (multi-block masked runs) except from beyond the leap's
    // magnitude.
    let dims = [25, 27, 33];
    let settings = RenderSettings {
        width: 29,
        height: 23,
        ..RenderSettings::default()
    };
    let volume: Volume<f32> = Field::Supernova.sample(dims);
    for view in 0..VIEWS {
        let camera = camera(view, dims, 60);
        for tf in 0..4 {
            let (covered, _) = assert_equivalent(&volume, 2, &camera, &transfer_fn(tf), &settings);
            assert!(covered > 0.02, "view {view} tf {tf} drew {covered}");
        }
        let (clear, [fetched, classified, lattice]) =
            assert_equivalent(&volume, 2, &camera, &transfer_fn(4), &settings);
        assert_eq!((clear, fetched), (0.0, 0), "view {view}");
        if view == VIEWS - 1 {
            assert_eq!(classified, lattice, "no leap from 40 000 voxels away");
        } else {
            assert!(
                classified * 4 < lattice,
                "view {view}: {classified} of {lattice}"
            );
        }
    }
}

/// `render_brick`'s `[fetched, classified, lattice]` over the frame
/// benchmark's canary shape: 64³ in 2 bricks at 128², azimuth 0.6,
/// elevation 0.3. `assert_equivalent` holds `fetched` and `lattice` to
/// the reference's counts.
fn canary_work(field: Field, preset: u32) -> [u64; 3] {
    let volume: Volume<f32> = field.sample([64; 3]);
    let camera = Camera::orbit(volume.dims, 0.6, 0.3, 2.5);
    let tf = TransferFunction::preset(preset);
    let settings = RenderSettings {
        width: 128,
        height: 128,
        ..RenderSettings::default()
    };
    assert_equivalent(&volume, 2, &camera, &tf, &settings).1
}

#[test]
fn sparse_data_is_mostly_skipped_and_dense_data_never() {
    // Counts, not timings: they repeat exactly on every machine.
    let [fetched, classified, lattice] = canary_work(Field::Plume, 0);
    assert!(
        fetched * 5 <= lattice,
        "plume: fetched {fetched} of {lattice} lattice samples"
    );
    assert!(
        classified * 5 <= lattice,
        "plume: classified {classified} of {lattice} lattice samples"
    );
    // Marschner–Lobb under the smoke preset is visible everywhere: a
    // skipped sample there would be a sample the picture needed, and
    // there is no masked space to leap.
    let work = canary_work(Field::MarschnerLobb, 2);
    assert_eq!(work, [work[2]; 3], "dense data must not be skipped");
}

#[test]
fn the_prefix_count_agrees_with_the_table_scan() {
    let values: Vec<f32> = (0..TransferFunction::RESOLUTION)
        .map(|i| i as f32 / (TransferFunction::RESOLUTION - 1) as f32)
        .chain([-1.0, 0.5 / 255.0, 2.0, 16.0])
        .collect();
    for which in 0..5 {
        let tf = transfer_fn(which);
        let clear = tf.transparency();
        for &lo in &values {
            for &hi in &values {
                assert_eq!(
                    clear.is_clear(lo, hi),
                    tf.max_opacity_between(lo, hi) <= 0.0,
                    "tf {which} on [{lo}, {hi}]"
                );
            }
        }
    }
}
