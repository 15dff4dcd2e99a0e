//! Regenerates Fig. 2: the visualization-pipeline stage breakdown showing
//! that data I/O dwarfs rendering and compositing.
//!
//! Two views are printed:
//!  1. the cost model's stage times at the paper's chunk sizes (what the
//!     simulator charges), and
//!  2. a *live measurement*: a real volume is bricked to disk, loaded back
//!     through a bandwidth-throttled store, ray-cast, and composited, with
//!     each stage wall-clock timed.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin fig2_pipeline
//! ```

use std::sync::Arc;
use std::time::Instant;
use vizsched_bench::harness::Cli;
use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_core::cost::CostParams;
use vizsched_core::ids::{ChunkId, DatasetId};
use vizsched_render::raycast::render_brick;
use vizsched_render::{Camera, RenderSettings, TransferFunction};
use vizsched_service::{ChunkStore, StoreDataset};
use vizsched_volume::Field;

fn main() {
    Cli::parse(&[]);
    println!("== Fig. 2: pipeline stage breakdown ==\n");

    println!("-- cost model (simulator) --");
    for (label, cost) in [
        ("8-node cluster ", CostParams::eight_node_cluster()),
        ("ANL GPU cluster", CostParams::anl_gpu_cluster()),
    ] {
        for chunk_mib in [256u64, 512] {
            let bytes = chunk_mib << 20;
            let io = cost.io_time(bytes);
            let render = cost.render_time(bytes);
            let comp = cost.composite_time(16);
            println!(
                "{label} chunk={chunk_mib:>4} MiB: io={io}  render={render}  \
                 composite(g=16)={comp}  io/render = {:.0}x",
                io.as_micros() as f64 / render.as_micros() as f64
            );
        }
    }

    println!("\n-- live pipeline (measured) --");
    let root = std::env::temp_dir().join(format!("vizsched-fig2-{}", std::process::id()));
    let dims = [96usize, 96, 96];
    let bricks = 4usize;
    let mut store = ChunkStore::create(
        &root,
        &[StoreDataset {
            field: Field::Supernova,
            dims,
            bricks,
        }],
    )
    .expect("store creation");
    // Throttle reads so the tiny test volume behaves like the paper's
    // multi-gigabyte chunks on real disks (I/O in the seconds).
    store.set_throttle(Some(4 << 20));
    let store = Arc::new(store);

    let t0 = Instant::now();
    let mut loaded = Vec::new();
    for c in 0..bricks as u32 {
        let (brick, _) = store
            .load(ChunkId::new(DatasetId(0), c))
            .expect("load brick");
        loaded.push(brick);
    }
    let io_time = t0.elapsed();

    let camera = Camera::orbit(dims, 0.5, 0.3, 2.2);
    let tf = TransferFunction::preset(0);
    let settings = RenderSettings {
        width: 256,
        height: 256,
        ..RenderSettings::default()
    };
    let t1 = Instant::now();
    let layers: Vec<_> = loaded
        .iter()
        .map(|b| render_brick(b.as_ref(), &camera, &tf, &settings))
        .collect();
    let render_time = t1.elapsed();

    let t2 = Instant::now();
    let image = composite(layers, CompositeAlgo::Swap23);
    let composite_time = t2.elapsed();

    println!(
        "volume {}x{}x{} in {bricks} bricks, 256x256 frame:",
        dims[0], dims[1], dims[2]
    );
    println!("  data I/O   : {io_time:>12.3?}   (disk -> memory, throttled store)");
    println!("  rendering  : {render_time:>12.3?}   (ray casting all bricks)");
    println!("  compositing: {composite_time:>12.3?}   (2-3 swap over {bricks} layers)");
    println!(
        "  I/O : render : composite = {:.1} : {:.2} : 1",
        io_time.as_secs_f64() / composite_time.as_secs_f64().max(1e-9),
        render_time.as_secs_f64() / composite_time.as_secs_f64().max(1e-9),
    );
    println!("  frame coverage = {:.3}", image.coverage());

    std::fs::remove_dir_all(&root).ok();
}
