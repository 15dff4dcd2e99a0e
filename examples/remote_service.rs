//! Remote visualization over TCP — the paper's deployment shape: the
//! rendering service runs on "the cluster" (here, this process), and a
//! client connects over a real socket, pipelines interactive frames, and
//! receives quantized RGBA images back.
//!
//! ```text
//! cargo run --release -p vizsched-integration --example remote_service
//! ```

use std::sync::Arc;
use std::time::Duration;
use vizsched_core::ids::{ActionId, DatasetId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_service::{
    ChunkStore, RemoteClient, ServiceConfig, StoreDataset, TcpServer, VizService,
};
use vizsched_volume::Field;

fn main() {
    let root = std::env::temp_dir().join(format!("vizsched-remote-{}", std::process::id()));
    let store = ChunkStore::create(
        &root,
        &[StoreDataset {
            field: Field::Supernova,
            dims: [48, 48, 48],
            bricks: 4,
        }],
    )
    .expect("store");

    let service = VizService::start(
        ServiceConfig {
            nodes: 4,
            image_size: (160, 160),
            ..ServiceConfig::default()
        },
        Arc::new(store),
    );
    let server = TcpServer::start("127.0.0.1:0", service.request_sender()).expect("bind");
    println!("service listening on {}", server.addr());

    // A remote user orbits the camera; frames are pipelined 4 deep.
    let client = RemoteClient::connect(server.addr(), UserId(0)).expect("connect");
    let receivers: Vec<_> = (0..8)
        .map(|i| {
            let frame = FrameParams {
                azimuth: i as f32 * 0.25,
                elevation: 0.3,
                ..FrameParams::default()
            };
            client
                .render_interactive(ActionId(0), DatasetId(0), frame)
                .expect("submit")
        })
        .collect();

    for (i, rx) in receivers.into_iter().enumerate() {
        let resp = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("frame over tcp")
            .into_frame()
            .expect("a frame");
        println!(
            "frame {i}: {}x{} px, latency {}, {} misses, {} KiB on the wire",
            resp.width,
            resp.height,
            resp.latency,
            resp.cache_misses,
            resp.pixels.len() / 1024,
        );
        if i == 7 {
            let image = resp.to_image();
            image
                .save_ppm(std::path::Path::new("remote-frame.ppm"))
                .expect("write frame");
            println!(
                "last frame saved to remote-frame.ppm ({:.1}% coverage)",
                image.coverage() * 100.0
            );
        }
    }

    drop(client);
    server.stop();
    let stats = service.drain_and_shutdown();
    println!(
        "served {} jobs; {} hits / {} misses",
        stats.jobs_completed, stats.record.cache_hits, stats.record.cache_misses
    );
    std::fs::remove_dir_all(&root).ok();
}
