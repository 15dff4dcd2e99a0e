//! Self-timed benchmark of the brick ray caster against its reference,
//! with a machine-readable baseline for CI regression gating.
//!
//! Times `render_brick` (lattice-preserving empty-space skipping, hoisted
//! per-frame invariants) against the retained reference integrator
//! `render(&BrickSampler::new(brick), ..)` on the frame benchmark's shape —
//! a 64³ field in 2 z-slab bricks at 128², preset 0, the canary's
//! elevation and distance, 17 azimuths around the volume — for the three
//! Fig. 10 stand-ins (sparse) and the Marschner–Lobb signal (dense: nothing
//! to skip). Every timed pair of images is compared bit for bit; a
//! difference aborts the run.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin render_hotpath                  # print table
//! cargo run --release -p vizsched-bench --bin render_hotpath -- --json BENCH_render.json
//! cargo run --release -p vizsched-bench --bin render_hotpath -- \
//!     --quick --check BENCH_render.json --json bench-render-fresh.json       # CI gate
//! ```
//!
//! `--check <path>` **fails** (exit 1) if the fresh geometric-mean speedup
//! falls below 75 % of the committed one. Like `sched_hotpath` it gates a
//! ref/opt *ratio*, so both sides move together with machine speed. It
//! also fails if plume's classified share (lattice samples looked up in
//! the empty-space mask rather than leapt over) rises above the committed
//! one: a count, so it repeats exactly on every machine. The end-to-end
//! effect is neither number: it is `frame_p50_ms` on the `e2e`
//! benchmark's `steady_warm` and `drag_overload` workloads.
//!
//! Methodology: per field, each brick's min–max grid is built once before
//! timing (as on a node, where it lives as long as the brick is resident);
//! a pass renders both bricks at all 17 azimuths; cells report the median
//! ms per brick render over all passes (default 5, `--quick` 2).

use std::time::Instant;
use vizsched_bench::harness::{geomean, summary, Cli, Gate, Reader};
use vizsched_metrics::json::{obj, Json};
use vizsched_render::raycast::{render, render_brick, BrickSampler};
use vizsched_render::{skip, Camera, RenderSettings, RgbaImage, TransferFunction};
use vizsched_volume::{split_z, Field, MinMaxGrid, Volume};

const FIELDS: [Field; 4] = [
    Field::Plume,
    Field::Combustion,
    Field::Supernova,
    Field::MarschnerLobb,
];
const DIMS: [usize; 3] = [64; 3];
const BRICKS: usize = 2;
const IMAGE: usize = 128;
const AZIMUTHS: usize = 17;
/// Fail `--check` when the fresh geomean speedup drops below this fraction
/// of the committed baseline (a >25 % regression).
const TOLERANCE: f64 = 0.75;
/// Slack on plume's classified share over the committed one: the share is
/// a ratio of counts and repeats exactly, so one unit of the report's
/// third decimal place.
const CLASSIFIED_SLACK: f64 = 0.001;

struct Cell {
    field: &'static str,
    opt_ms: f64,
    ref_ms: f64,
    /// Share of the reference's lattice samples `render_brick` fetched.
    fetched_share: f64,
    /// Share it looked up in the empty-space mask (the rest it leapt over).
    classified_share: f64,
    /// Building one brick's min–max grid: paid once per residency, by the
    /// first render after a load.
    grid_build_ms: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Every channel of every pixel, as bits: equality stricter than `f32`'s.
fn bits(img: &RgbaImage) -> impl Iterator<Item = u32> + '_ {
    img.pixels.iter().flatten().map(|c| c.to_bits())
}

fn settings() -> RenderSettings {
    RenderSettings {
        width: IMAGE,
        height: IMAGE,
        ..RenderSettings::default()
    }
}

fn time_field(field: Field, passes: usize) -> Cell {
    let volume: Volume<f32> = field.sample(DIMS);
    let bricks = split_z(&volume, BRICKS);
    let tf = TransferFunction::preset(0);
    let s = settings();
    let cameras: Vec<Camera> = (0..AZIMUTHS)
        .map(|i| {
            let azimuth = i as f32 * std::f32::consts::TAU / AZIMUTHS as f32;
            Camera::orbit(DIMS, azimuth, 0.3, 2.5)
        })
        .collect();
    let grid_builds = (0..passes * AZIMUTHS).flat_map(|_| &bricks).map(|brick| {
        let t0 = Instant::now();
        std::hint::black_box(MinMaxGrid::build(&brick.volume));
        t0.elapsed().as_secs_f64() * 1e3
    });
    let grid_build_ms = median(grid_builds.collect());
    for brick in &bricks {
        brick.minmax_grid();
    }

    let (mut opt, mut reference) = (Vec::new(), Vec::new());
    let mut work = [0u64; 3];
    for pass in 0..passes {
        for camera in &cameras {
            for brick in &bricks {
                let t0 = Instant::now();
                let layer = std::hint::black_box(render_brick(brick, camera, &tf, &s));
                opt.push(t0.elapsed().as_secs_f64() * 1e3);
                let t1 = Instant::now();
                let image =
                    std::hint::black_box(render(&BrickSampler::new(brick), camera, &tf, &s));
                reference.push(t1.elapsed().as_secs_f64() * 1e3);
                assert!(
                    bits(&layer.image).eq(bits(&image)),
                    "render_brick differs from the reference: {} brick {}",
                    field.name(),
                    brick.index
                );
                if pass == 0 {
                    let (_, counts) = skip::render(brick, camera, &tf, &s);
                    work = [0, 1, 2].map(|i| work[i] + counts[i]);
                }
            }
        }
    }
    Cell {
        field: field.name(),
        opt_ms: median(opt),
        ref_ms: median(reference),
        fetched_share: work[0] as f64 / work[2] as f64,
        classified_share: work[1] as f64 / work[2] as f64,
        grid_build_ms,
    }
}

fn to_json(cells: &[Cell], passes: usize, speedup: f64) -> Json {
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/render_hotpath/v1".into()),
        ),
        (
            "config",
            obj([
                ("passes", Json::num(passes as f64)),
                ("volume_edge", Json::num(DIMS[0] as f64)),
                ("bricks", Json::num(BRICKS as f64)),
                ("image_edge", Json::num(IMAGE as f64)),
                ("azimuths", Json::num(AZIMUTHS as f64)),
                ("transfer_fn", Json::num(0.0)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("field", Json::Str(c.field.into())),
                            ("opt_ms_per_brick", Json::num(c.opt_ms)),
                            ("ref_ms_per_brick", Json::num(c.ref_ms)),
                            ("speedup", Json::num(c.ref_ms / c.opt_ms)),
                            ("fetched_share", Json::num(c.fetched_share)),
                            ("classified_share", Json::num(c.classified_share)),
                            ("grid_build_ms", Json::num(c.grid_build_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("summary", obj([("geomean_speedup", Json::num(speedup))])),
    ])
}

fn main() {
    let cli = Cli::parse(&["--quick", "--passes <n>", "--json <path>", "--check <path>"]);
    let passes: usize = cli.number("--passes", if cli.quick() { 2 } else { 5 });

    eprintln!(
        "render_hotpath: {passes} passes x {AZIMUTHS} azimuths x {BRICKS} bricks, \
         {}^3 at {IMAGE}^2",
        DIMS[0]
    );
    let cells: Vec<Cell> = FIELDS.iter().map(|&f| time_field(f, passes)).collect();

    println!("== render_hotpath: render_brick vs reference, ms per brick (median) ==\n");
    println!(
        "{:>16} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "field", "opt ms", "ref ms", "speedup", "fetched", "classified", "grid ms"
    );
    for c in &cells {
        println!(
            "{:>16} {:>9.2} {:>9.2} {:>8.2}x {:>8.1}% {:>9.1}% {:>9.2}",
            c.field,
            c.opt_ms,
            c.ref_ms,
            c.ref_ms / c.opt_ms,
            c.fetched_share * 100.0,
            c.classified_share * 100.0,
            c.grid_build_ms
        );
    }
    let speedup = geomean(cells.iter().map(|c| c.ref_ms / c.opt_ms));
    println!("\ngeomean speedup: {speedup:.2}x");
    let doc = to_json(&cells, passes, speedup);
    cli.write_json(&doc);
    let plume_classified: Reader = Box::new(|doc| {
        let cells = doc.get("cells")?.as_arr()?;
        let is_plume = |c: &&Json| c.get("field").and_then(Json::as_str) == Some("plume");
        let plume = cells.iter().find(is_plume)?;
        plume.get("classified_share")?.as_f64()
    });
    cli.check(
        &doc,
        &[
            Gate::floor(
                "geomean speedup",
                summary("geomean_speedup"),
                TOLERANCE,
                0.0,
            ),
            Gate::ceiling(
                "plume classified share",
                plume_classified,
                1.0,
                CLASSIFIED_SLACK,
            ),
        ],
        "render_hotpath: speedup or classified-share regression beyond tolerance",
    );
}
