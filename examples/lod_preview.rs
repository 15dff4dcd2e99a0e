//! Level-of-detail preview: render a coarse mip level for instant feedback
//! and the full level for the final frame — the "subsampling" remote-
//! visualization strategy the paper's related work weighs (Freitag & Loy),
//! combined with min–max empty-space skipping to accelerate the full pass.
//!
//! ```text
//! cargo run --release -p vizsched-integration --example lod_preview
//! ```

use std::time::Instant;
use vizsched_render::{skip, Camera, RenderSettings, TransferFunction};
use vizsched_volume::{build_pyramid, split_z, Field, Volume};

fn main() {
    let dims = [96usize, 96, 96];
    let base: Volume<f32> = Field::Supernova.sample(dims);
    let pyramid = build_pyramid(base, 12);
    println!(
        "pyramid levels: {:?}",
        pyramid.iter().map(|l| l.dims).collect::<Vec<_>>()
    );

    let tf = TransferFunction::preset(0);
    let settings = RenderSettings {
        width: 256,
        height: 256,
        ..RenderSettings::default()
    };

    // Coarse preview: render the smallest level (one brick = the whole
    // level, through the same skipping ray caster as the full pass).
    let coarse = pyramid.last().expect("non-empty pyramid");
    let cam_coarse = Camera::orbit(coarse.dims, 0.5, 0.3, 2.3);
    let coarse_brick = &split_z(coarse, 1)[0];
    let t0 = Instant::now();
    let (preview, _) = skip::render(coarse_brick, &cam_coarse, &tf, &settings);
    let preview_time = t0.elapsed();
    preview
        .save_ppm(std::path::Path::new("lod-preview.ppm"))
        .expect("write preview");

    // Full-resolution pass, accelerated by empty-space skipping.
    let full = &pyramid[0];
    let cam_full = Camera::orbit(full.dims, 0.5, 0.3, 2.3);
    let whole = &split_z(full, 1)[0];
    let t1 = Instant::now();
    let (final_frame, [samples, _, lattice]) = skip::render(whole, &cam_full, &tf, &settings);
    let full_time = t1.elapsed();
    final_frame
        .save_ppm(std::path::Path::new("lod-full.ppm"))
        .expect("write full");

    println!(
        "preview ({:?}): {:.0} ms -> lod-preview.ppm ({:.1}% coverage)",
        coarse.dims,
        preview_time.as_secs_f64() * 1e3,
        preview.coverage() * 100.0
    );
    println!(
        "full ({dims:?}): {:.0} ms, {samples} of {lattice} samples with skipping -> lod-full.ppm \
         ({:.1}% coverage)",
        full_time.as_secs_f64() * 1e3,
        final_frame.coverage() * 100.0
    );
    assert!(
        preview_time < full_time,
        "the preview should be the fast path"
    );
}
