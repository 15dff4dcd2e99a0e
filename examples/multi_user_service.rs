//! The headline use case: a *live* shared visualization service. Three
//! users interactively explore different datasets while a fourth submits a
//! batch animation; every frame is really ray-cast by render-node threads,
//! composited with 2-3 swap, and returned. One frame per user is saved as
//! a PPM so you can look at what the service rendered.
//!
//! ```text
//! cargo run --release -p vizsched-integration --example multi_user_service
//! ```

use std::sync::Arc;
use std::time::Duration;
use vizsched_core::ids::{ActionId, BatchId, DatasetId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_service::{ChunkStore, ServiceClient, ServiceConfig, StoreDataset, VizService};
use vizsched_volume::Field;

fn main() {
    let root = std::env::temp_dir().join(format!("vizsched-demo-{}", std::process::id()));
    println!("materializing datasets under {} ...", root.display());
    let store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Plume,
                dims: [48, 48, 96],
                bricks: 4,
            },
            StoreDataset {
                field: Field::Combustion,
                dims: [64, 64, 48],
                bricks: 4,
            },
            StoreDataset {
                field: Field::Supernova,
                dims: [56, 56, 56],
                bricks: 4,
            },
        ],
    )
    .expect("store");

    let service = VizService::start(
        ServiceConfig {
            nodes: 4,
            image_size: (192, 192),
            ..ServiceConfig::default()
        },
        Arc::new(store),
    );

    // Three interactive users on three datasets.
    let users: Vec<ServiceClient> = (0..3)
        .map(|u| ServiceClient::new(UserId(u), service.request_sender()))
        .collect();
    let mut receivers = Vec::new();
    for step in 0..8 {
        for (u, client) in users.iter().enumerate() {
            let frame = FrameParams {
                azimuth: 0.4 + step as f32 * 0.08,
                elevation: 0.25,
                ..FrameParams::default()
            };
            receivers.push((
                u,
                step,
                client.render_interactive(ActionId(u as u64), DatasetId(u as u32), frame),
            ));
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    // A fourth user submits a short batch animation over dataset 0.
    let batch_user = ServiceClient::new(UserId(9), service.request_sender());
    let frames: Vec<FrameParams> = (0..6)
        .map(|i| FrameParams {
            azimuth: i as f32 * 0.3,
            ..FrameParams::default()
        })
        .collect();
    let batch_rx = batch_user.render_batch(BatchId(0), DatasetId(0), &frames);

    // Collect interactive frames; save the last frame of each user.
    let names = ["plume", "combustion", "supernova"];
    for (u, step, rx) in receivers {
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("interactive frame")
            .expect_frame();
        if step == 7 {
            let path = format!("service-user{u}-{}.ppm", names[u]);
            result
                .image
                .save_ppm(std::path::Path::new(&path))
                .expect("write ppm");
            println!(
                "user {u} ({}) frame: latency {:.1} ms, {} cache misses -> {path}",
                names[u],
                result.latency.as_millis_f64(),
                result.cache_misses,
            );
        }
    }

    let mut batch_done = 0;
    while batch_done < frames.len() {
        batch_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("batch frame");
        batch_done += 1;
    }
    println!("batch animation: {batch_done} frames rendered");

    let stats = service.drain_and_shutdown();
    let latencies: Vec<_> = stats
        .record
        .jobs
        .iter()
        .filter_map(|j| j.timing.latency())
        .collect();
    println!(
        "service stats: {} jobs, {} hits / {} misses, mean latency {:.1} ms",
        stats.jobs_completed,
        stats.record.cache_hits,
        stats.record.cache_misses,
        vizsched_metrics::Summary::of_durations(&latencies).mean * 1e3,
    );
    // The live run reports through the same metrics pipeline as the
    // simulator.
    let report = vizsched_metrics::SchedulerReport::from_run(&stats.record);
    println!(
        "live report: scheduler {} | per-action fps {:.1} | hit rate {:.1}% | sched {:.1} us/job",
        report.scheduler,
        report.fps.mean,
        report.hit_rate * 100.0,
        report.sched_cost_us,
    );
    std::fs::remove_dir_all(&root).ok();
}
