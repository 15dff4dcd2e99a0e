//! Cross-crate pipeline consistency: distributed rendering (brick +
//! compositing) must agree with monolithic rendering of the same volume,
//! and the full simulator/service stack must agree on the basics.

use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_render::raycast::{render, render_brick};
use vizsched_render::{Camera, RenderSettings, TransferFunction};
use vizsched_volume::{split_z, Field, Volume};

fn settings() -> RenderSettings {
    RenderSettings {
        width: 96,
        height: 96,
        step: 0.4,
        ..RenderSettings::default()
    }
}

/// Mean absolute per-channel difference between two images.
fn mean_diff(a: &vizsched_render::RgbaImage, b: &vizsched_render::RgbaImage) -> f64 {
    let mut total = 0.0f64;
    for (pa, pb) in a.pixels.iter().zip(&b.pixels) {
        for c in 0..4 {
            total += (pa[c] - pb[c]).abs() as f64;
        }
    }
    total / (a.pixels.len() * 4) as f64
}

#[test]
fn distributed_render_matches_monolithic() {
    // Sort-last decomposition correctness: ray casting each z-slab brick
    // and compositing by depth must reproduce the single-volume rendering
    // (up to sampling-offset differences at brick boundaries).
    let volume: Volume<f32> = Field::Supernova.sample([32, 32, 48]);
    let tf = TransferFunction::preset(0);
    let s = settings();
    for (azimuth, elevation) in [(0.0f32, 0.0f32), (0.7, 0.3), (2.5, -0.4), (4.0, 0.9)] {
        let camera = Camera::orbit(volume.dims, azimuth, elevation, 2.4);
        let monolithic = render(&volume, &camera, &tf, &s);
        for brick_count in [2usize, 3, 4] {
            let bricks = split_z(&volume, brick_count);
            let layers: Vec<_> = bricks
                .iter()
                .map(|b| render_brick(b, &camera, &tf, &s))
                .collect();
            let distributed = composite(layers, CompositeAlgo::Auto);
            let diff = mean_diff(&monolithic, &distributed);
            assert!(
                diff < 0.02,
                "{brick_count} bricks at az={azimuth} el={elevation}: mean diff {diff}"
            );
        }
    }
}

#[test]
fn brick_count_does_not_change_the_image_much() {
    let volume: Volume<f32> = Field::Plume.sample([24, 24, 48]);
    let tf = TransferFunction::preset(0);
    let s = settings();
    let camera = Camera::orbit(volume.dims, 1.2, 0.2, 2.4);
    let render_with = |count: usize| {
        let bricks = split_z(&volume, count);
        let layers: Vec<_> = bricks
            .iter()
            .map(|b| render_brick(b, &camera, &tf, &s))
            .collect();
        composite(layers, CompositeAlgo::Auto)
    };
    let two = render_with(2);
    let four = render_with(4);
    assert!(mean_diff(&two, &four) < 0.02);
}

#[test]
fn transfer_function_controls_what_is_visible() {
    // The iso-ridge preset (1) must produce a different image from the
    // density preset (0) over the same data and camera — i.e. the transfer
    // function actually participates in the pipeline.
    let volume: Volume<f32> = Field::Shells.sample([24, 24, 24]);
    let camera = Camera::orbit(volume.dims, 0.5, 0.3, 2.3);
    let s = settings();
    let a = render(&volume, &camera, &TransferFunction::preset(0), &s);
    let b = render(&volume, &camera, &TransferFunction::preset(1), &s);
    assert!(
        a.max_abs_diff(&b) > 0.05,
        "presets 0 and 1 rendered identically"
    );
}

#[test]
fn simulator_and_cost_model_agree_on_pipeline_ratios() {
    // The simulated stage costs must preserve the Fig. 2 ordering:
    // io >> render > composite at the paper's chunk sizes.
    use vizsched_core::cost::CostParams;
    // Group sizes as the clusters actually see them: 4 tasks per job on
    // the 8-node cluster (2 GB / 512 MB), 16 on the ANL cluster (8 GB).
    for (cost, group) in [
        (CostParams::eight_node_cluster(), 4u32),
        (CostParams::anl_gpu_cluster(), 16),
    ] {
        let bytes = 512u64 << 20;
        let io = cost.io_time(bytes);
        let render = cost.render_time(bytes);
        let comp = cost.composite_time(group);
        assert!(io > render * 50, "io {io} should dwarf render {render}");
        assert!(
            render > comp,
            "render {render} should exceed composite {comp}"
        );
    }
}

#[test]
fn empty_space_skipping_preserves_the_image_and_saves_samples() {
    use vizsched_render::raycast::BrickSampler;

    // Supernova: a dense shell surrounded by lots of empty space.
    let volume: Volume<f32> = Field::Supernova.sample([48, 48, 48]);
    let tf = TransferFunction::preset(0);
    let s = RenderSettings {
        width: 64,
        height: 64,
        shading: false,
        ..settings()
    };
    let camera = Camera::orbit(volume.dims, 0.6, 0.25, 2.4);

    // One brick is the whole volume: the skipping path and the plain
    // integrator see the same box and the same voxels.
    let whole = &split_z(&volume, 1)[0];
    let plain = render(&BrickSampler::new(whole), &camera, &tf, &s);
    let (skipped, [skip_samples, _, plain_samples]) =
        vizsched_render::skip::render(whole, &camera, &tf, &s);

    // The same image exactly: skipping keeps the sample lattice and only
    // leaves out samples that classify to zero opacity.
    assert!(
        plain == skipped && plain == render(&volume, &camera, &tf, &s),
        "skipping changed the image"
    );
    // And substantially fewer samples than the lattice the plain
    // integrator fetches in full (`brick_equivalence` pins that count).
    assert!(
        (skip_samples as f64) < plain_samples as f64 * 0.8,
        "skipping saved too little: {skip_samples} vs {plain_samples}"
    );
}
