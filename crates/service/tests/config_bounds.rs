//! `VizService::start` refuses, on the caller's thread, a configuration
//! its head thread could not run: more shards than render nodes (or none)
//! and a zero cycle `ω`. Accepted, either would panic the head thread
//! instead, leaving clients to time out and `shutdown` to panic.

use std::path::PathBuf;
use std::sync::Arc;
use vizsched_core::time::SimDuration;
use vizsched_service::{ChunkStore, ServiceConfig, StoreDataset, VizService};
use vizsched_volume::Field;

/// A scratch store directory, removed again when the test unwinds.
struct Root(PathBuf);

impl Drop for Root {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(tag: &str, config: ServiceConfig) {
    let root =
        Root(std::env::temp_dir().join(format!("vizsched-bounds-{tag}-{}", std::process::id())));
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: [8, 8, 8],
        bricks: 2,
    };
    let store = ChunkStore::create(&root.0, &[dataset]).unwrap();
    VizService::start(config, Arc::new(store)).shutdown();
}

#[test]
#[should_panic(expected = "ServiceConfig::shards must lie in 1..=2")]
fn more_shards_than_nodes_is_refused_at_start() {
    start("shards", ServiceConfig::default().nodes(2).shards(4));
}

#[test]
#[should_panic(expected = "ServiceConfig::shards must lie in 1..=2")]
fn zero_shards_is_refused_at_start() {
    let config = ServiceConfig {
        shards: 0,
        ..ServiceConfig::default().nodes(2)
    };
    start("no-shards", config);
}

#[test]
#[should_panic(expected = "ServiceConfig::cycle must be positive")]
fn a_zero_cycle_is_refused_at_start() {
    start(
        "cycle",
        ServiceConfig::default().nodes(2).cycle(SimDuration::ZERO),
    );
}
