//! Regenerates Fig. 10: three example renderings produced by the parallel
//! visualization pipeline — a plume, a combustion slab, and a supernova —
//! each bricked, ray-cast per brick, and merged with 2-3 swap compositing.
//! The paper's grids (252x252x1024, 2025x1600x400, 864^3) are scaled down
//! proportionally so the binary runs in seconds; pass `--full-ish` for a
//! larger rendering.
//!
//! Writes `fig10-<name>.ppm` and `fig10-<name>.png` into the working
//! directory.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin fig10_images
//! ```

use std::time::Instant;
use vizsched_bench::harness::Cli;
use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_render::raycast::render_brick;
use vizsched_render::{Camera, RenderSettings, TransferFunction};
use vizsched_volume::{split_z, Field, Volume};

fn main() {
    let bigger = Cli::parse().flag("--full-ish");
    let scale = if bigger { 2 } else { 1 };

    // Paper grids scaled by 1/4 (or 1/2 with --full-ish), aspect preserved.
    let runs: [(Field, [usize; 3], u32, f32); 3] = [
        (Field::Plume, [63 * scale, 63 * scale, 256 * scale], 0, 0.6),
        (
            Field::Combustion,
            [506 * scale / 2, 400 * scale / 2, 100 * scale / 2],
            0,
            0.2,
        ),
        (
            Field::Supernova,
            [216 * scale, 216 * scale, 216 * scale],
            0,
            0.8,
        ),
    ];

    for (field, dims, tf_index, azimuth) in runs {
        let t0 = Instant::now();
        let volume: Volume<f32> = field.sample(dims);
        let bricks = split_z(&volume, 4);
        let camera = Camera::orbit(dims, azimuth, 0.25, 2.3);
        let tf = TransferFunction::preset(tf_index);
        let settings = RenderSettings {
            width: 384,
            height: 384,
            step: 0.75,
            ..RenderSettings::default()
        };
        let layers: Vec<_> = bricks
            .iter()
            .map(|b| render_brick(b, &camera, &tf, &settings))
            .collect();
        let image = composite(layers, CompositeAlgo::Swap23);
        let path = std::path::PathBuf::from(format!("fig10-{}.ppm", field.name()));
        image.save_ppm(&path).expect("write ppm");
        let png_path = std::path::PathBuf::from(format!("fig10-{}.png", field.name()));
        vizsched_render::save_png(&image, &png_path).expect("write png");
        println!(
            "{:<12} {:>4}x{:<4}x{:<4} -> {} ({:.1}% coverage) in {:.2?}",
            field.name(),
            dims[0],
            dims[1],
            dims[2],
            path.display(),
            image.coverage() * 100.0,
            t0.elapsed(),
        );
    }
}
