//! End-to-end tests of the live service: real volumes on disk, real
//! ray-cast rendering in node threads, real scheduling and compositing.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use vizsched_core::ids::{ActionId, BatchId, DatasetId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_service::{
    ChunkStore, ServiceClient, ServiceConfig, ServiceStats, StoreDataset, VizService,
};
use vizsched_volume::Field;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vizsched-e2e-{tag}-{}", std::process::id()))
}

fn small_service(tag: &str) -> (VizService, PathBuf) {
    let root = temp_root(tag);
    let store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [24, 24, 32],
                bricks: 4,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [24, 24, 32],
                bricks: 4,
            },
        ],
    )
    .unwrap();
    let config = ServiceConfig {
        nodes: 4,
        mem_quota: 1 << 20, // plenty for these tiny bricks
        image_size: (64, 64),
        ..ServiceConfig::default()
    };
    (VizService::start(config, Arc::new(store)), root)
}

fn frame(azimuth: f32) -> FrameParams {
    FrameParams {
        azimuth,
        ..FrameParams::default()
    }
}

#[test]
fn interactive_frame_renders_end_to_end() {
    let (service, root) = small_service("interactive");
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let rx = client.render_interactive(ActionId(0), DatasetId(0), frame(0.3));
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("frame arrives")
        .expect_frame();
    assert_eq!(result.image.width, 64);
    assert_eq!(result.image.height, 64);
    assert!(
        result.image.coverage() > 0.01,
        "coverage = {}",
        result.image.coverage()
    );
    // First touch of a dataset is all cache misses (4 bricks).
    assert_eq!(result.cache_misses, 4);

    // Second frame over the same dataset: everything is cached.
    let rx = client.render_interactive(ActionId(0), DatasetId(0), frame(0.35));
    let warm = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("frame arrives")
        .expect_frame();
    assert_eq!(warm.cache_misses, 0, "second frame must be all hits");

    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.record.cache_misses, 4);
    assert_eq!(stats.record.cache_hits, 4);
    assert!(stats
        .record
        .jobs
        .iter()
        .all(|j| j.timing.latency().is_some_and(|l| l.as_micros() > 0)));
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn batch_animation_delivers_every_frame() {
    let (service, root) = small_service("batch");
    let client = ServiceClient::new(UserId(7), service.request_sender());
    let frames: Vec<FrameParams> = (0..6).map(|i| frame(i as f32 * 0.2)).collect();
    let rx = client.render_batch(BatchId(0), DatasetId(1), &frames);
    let mut received = 0;
    while received < 6 {
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("batch frame arrives")
            .expect_frame();
        assert!(result.image.coverage() > 0.0);
        received += 1;
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 6);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn concurrent_users_on_different_datasets() {
    let (service, root) = small_service("multiuser");
    let a = ServiceClient::new(UserId(0), service.request_sender());
    let b = ServiceClient::new(UserId(1), service.request_sender());
    let mut rxs = Vec::new();
    for i in 0..5 {
        rxs.push(a.render_interactive(ActionId(0), DatasetId(0), frame(i as f32 * 0.1)));
        rxs.push(b.render_interactive(ActionId(1), DatasetId(1), frame(-(i as f32) * 0.1)));
    }
    for rx in rxs {
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("frame arrives")
            .expect_frame();
        assert!(result
            .image
            .pixels
            .iter()
            .all(|p| p.iter().all(|c| c.is_finite())));
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs_completed, 10);
    // Two datasets x 4 bricks = 8 cold loads; the other 32 tasks hit.
    assert_eq!(stats.record.cache_misses, 8);
    assert_eq!(stats.record.cache_hits, 32);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn rendered_frames_match_between_modes() {
    // The same camera over the same dataset must produce identical images
    // whether submitted interactively or as a batch frame.
    let (service, root) = small_service("determinism");
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let f = frame(0.45);
    let rx1 = client.render_interactive(ActionId(0), DatasetId(0), f);
    let img1 = rx1
        .recv_timeout(Duration::from_secs(30))
        .unwrap()
        .expect_frame()
        .image;
    let rx2 = client.render_batch(BatchId(1), DatasetId(0), &[f]);
    let img2 = rx2
        .recv_timeout(Duration::from_secs(60))
        .unwrap()
        .expect_frame()
        .image;
    assert_eq!(
        img1.max_abs_diff(&img2),
        0.0,
        "same frame params, same pixels"
    );
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn drain_completes_all_accepted_work() {
    let (service, root) = small_service("drain");
    let client = ServiceClient::new(UserId(3), service.request_sender());
    // Queue a burst of batch frames, then drain immediately — every frame
    // must still be rendered before the service stops.
    let frames: Vec<FrameParams> = (0..10).map(|i| frame(i as f32 * 0.1)).collect();
    let rx = client.render_batch(BatchId(5), DatasetId(0), &frames);
    let stats = service.drain_and_shutdown();
    assert_eq!(
        stats.jobs_completed, 10,
        "drain must finish every accepted job"
    );
    // All results are sitting in the channel.
    let mut received = 0;
    while rx.try_recv().is_ok() {
        received += 1;
    }
    assert_eq!(received, 10);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn live_run_record_feeds_the_metrics_pipeline() {
    // The service reports through the same RunRecord/SchedulerReport path
    // as the simulator, so live and simulated results are comparable.
    let (service, root) = small_service("record");
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let mut rxs = Vec::new();
    for i in 0..8 {
        rxs.push(client.render_interactive(ActionId(0), DatasetId(0), frame(i as f32 * 0.1)));
    }
    for rx in rxs {
        rx.recv_timeout(Duration::from_secs(60)).expect("frame");
    }
    let stats = service.drain_and_shutdown();
    let record = &stats.record;
    assert_eq!(record.scheduler, "OURS");
    assert_eq!(record.jobs.len(), 8);
    assert!(record.jobs.iter().all(|j| j.timing.finish.is_some()));
    assert!(record.sched_invocations > 0);
    assert_eq!(record.cache_hits + record.cache_misses, 8 * 4);

    let report = vizsched_metrics::SchedulerReport::from_run(record);
    assert_eq!(report.interactive_jobs, 8);
    assert!(report.fps.count == 1, "one action");
    assert!(report.fps.mean > 0.0);
    assert!(report.hit_rate > 0.8, "hit rate {}", report.hit_rate);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn every_scheduler_runs_the_live_service() {
    use vizsched_core::sched::SchedulerKind;
    // Every registered policy (the paper's six and the extensions) must
    // drive the real pipeline to completion; FCFSU's fixed chunk->node
    // mapping works here because the store bricks each dataset into
    // exactly `nodes` chunks.
    for kind in SchedulerKind::ALL
        .into_iter()
        .chain(SchedulerKind::EXTENDED)
    {
        let root = temp_root(&format!("sched-{}", kind.name()));
        let store = ChunkStore::create(
            &root,
            &[StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 16],
                bricks: 4,
            }],
        )
        .unwrap();
        let config = ServiceConfig {
            nodes: 4,
            mem_quota: 1 << 20,
            image_size: (32, 32),
            scheduler: kind,
            ..ServiceConfig::default()
        };
        let service = VizService::start(config, Arc::new(store));
        let client = ServiceClient::new(UserId(0), service.request_sender());
        let rx = client.render_interactive(ActionId(0), DatasetId(0), frame(0.2));
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{} never delivered: {e}", kind.name()))
            .expect_frame();
        assert!(result
            .image
            .pixels
            .iter()
            .all(|p| p.iter().all(|c| c.is_finite())));
        let stats = service.drain_and_shutdown();
        assert_eq!(stats.jobs_completed, 1, "{}", kind.name());
        std::fs::remove_dir_all(root).ok();
    }
}

#[test]
fn datasets_with_different_brick_counts_coexist() {
    let root = temp_root("hetero");
    let store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 16],
                bricks: 2,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 48],
                bricks: 6,
            },
        ],
    )
    .unwrap();
    assert_eq!(store.catalog().task_count(DatasetId(0)), 2);
    assert_eq!(store.catalog().task_count(DatasetId(1)), 6);
    let service = VizService::start(
        ServiceConfig {
            nodes: 3,
            mem_quota: 1 << 20,
            image_size: (32, 32),
            ..ServiceConfig::default()
        },
        Arc::new(store),
    );
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let a = client.render_interactive(ActionId(0), DatasetId(0), frame(0.1));
    let b = client.render_interactive(ActionId(1), DatasetId(1), frame(0.2));
    assert_eq!(
        a.recv_timeout(Duration::from_secs(30))
            .unwrap()
            .expect_frame()
            .cache_misses,
        2
    );
    assert_eq!(
        b.recv_timeout(Duration::from_secs(30))
            .unwrap()
            .expect_frame()
            .cache_misses,
        6
    );
    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 2);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn per_node_counters_partition_the_tasks() {
    let (service, root) = small_service("pernode");
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let mut rxs = Vec::new();
    for i in 0..5 {
        rxs.push(client.render_interactive(ActionId(0), DatasetId(0), frame(i as f32 * 0.1)));
    }
    for rx in rxs {
        rx.recv_timeout(Duration::from_secs(60)).expect("frame");
    }
    let stats = service.drain_and_shutdown();
    assert_eq!(stats.per_node.len(), 4);
    let tasks: u64 = stats.per_node.iter().map(|c| c.tasks).sum();
    let hits: u64 = stats.per_node.iter().map(|c| c.hits).sum();
    let misses: u64 = stats.per_node.iter().map(|c| c.misses).sum();
    assert_eq!(tasks, 20);
    assert_eq!(hits, stats.record.cache_hits);
    assert_eq!(misses, stats.record.cache_misses);
    std::fs::remove_dir_all(root).ok();
}

/// `mixed_batch`'s batch half in miniature: four closed-loop animations
/// (each asks for its next frame when the previous lands) over `dataset`
/// of a store of dense 64³ Marschner–Lobb volumes in two bricks, at 128²,
/// until `frames` have been delivered. Returns the drained stats.
fn closed_loop_batch(
    tag: &str,
    config: ServiceConfig,
    dataset: u32,
    frames: usize,
) -> ServiceStats {
    let root = temp_root(tag);
    let dense = StoreDataset {
        field: Field::MarschnerLobb,
        dims: [64, 64, 64],
        bricks: 2,
    };
    let store = ChunkStore::create(&root, &vec![dense; dataset as usize + 1]).unwrap();
    let service = VizService::start(config.image_size(128, 128), Arc::new(store));
    let client = ServiceClient::new(UserId(9), service.request_sender());
    let mut sent = 0u64;
    let mut next = || {
        sent += 1;
        client.render_batch(
            BatchId(sent),
            DatasetId(dataset),
            &[frame(sent as f32 * 0.37)],
        )
    };
    let mut streams: Vec<_> = (0..4).map(|_| next()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    let mut delivered = 0;
    while delivered < frames {
        assert!(
            std::time::Instant::now() < deadline,
            "{delivered} of {frames} frames"
        );
        for rx in &mut streams {
            if let Ok(reply) = rx.try_recv() {
                reply.expect_frame();
                delivered += 1;
                *rx = next();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = service.drain_and_shutdown();
    std::fs::remove_dir_all(root).ok();
    stats
}

/// Both nodes of `pair` ran at least a quarter of the batch tasks. With
/// the paper's GPU `α` (≈ 3.75 ms a brick) charged for a ≈ 15 ms CPU
/// render, node-order batch fill piles every task onto the first node.
fn assert_shared(stats: &ServiceStats, pair: std::ops::Range<usize>) {
    let tasks: Vec<u64> = stats.per_node[pair].iter().map(|c| c.tasks).collect();
    let total: u64 = tasks.iter().sum();
    assert!(total > 0);
    assert!(
        tasks.iter().all(|&t| 4 * t >= total),
        "batch tasks per node {tasks:?}: one node took the pile"
    );
}

#[test]
fn measured_render_time_spreads_batch_over_both_nodes() {
    let stats = closed_loop_batch("spread", ServiceConfig::default().nodes(2), 0, 40);
    assert_shared(&stats, 0..2);
}

#[test]
fn measured_render_time_lands_on_the_shard_that_ran_the_task() {
    // Two shards of two nodes; dataset 1 homes on shard 1 (nodes 2 and 3),
    // so a measurement recorded on shard 0 would leave node 3 idle.
    let config = ServiceConfig::default().nodes(4).shards(2);
    let stats = closed_loop_batch("spread-shards", config, 1, 40);
    assert_eq!(
        stats.per_shard[0].assigned, 0,
        "dataset 1 routes to shard 1"
    );
    assert_shared(&stats, 2..4);
}

#[test]
fn remote_client_renders_over_tcp() {
    use vizsched_service::{RemoteClient, TcpServer};

    let (service, root) = small_service("tcp");
    let server = TcpServer::start("127.0.0.1:0", service.request_sender()).expect("bind");
    let addr = server.addr();

    let client = RemoteClient::connect(addr, UserId(5)).expect("connect");
    // Pipeline three frames before reading any response.
    let rx1 = client
        .render_interactive(ActionId(0), DatasetId(0), frame(0.1))
        .unwrap();
    let rx2 = client
        .render_interactive(ActionId(0), DatasetId(0), frame(0.2))
        .unwrap();
    let rx3 = client
        .render_batch_frame(BatchId(0), 0, DatasetId(1), frame(0.3))
        .unwrap();

    let r1 = rx1
        .recv_timeout(Duration::from_secs(60))
        .expect("frame 1")
        .into_frame()
        .expect("a frame");
    let r2 = rx2
        .recv_timeout(Duration::from_secs(60))
        .expect("frame 2")
        .into_frame()
        .expect("a frame");
    let r3 = rx3
        .recv_timeout(Duration::from_secs(60))
        .expect("frame 3")
        .into_frame()
        .expect("a frame");
    assert_eq!((r1.width, r1.height), (64, 64));
    // The quantized image still carries structure.
    assert!(r1.to_image().coverage() > 0.0);
    assert!(r2.to_image().coverage() > 0.0);
    assert!(r3.to_image().coverage() > 0.0);
    // Dataset 0's 4 bricks load once each in the common case; if the two
    // pipelined frames straddle a scheduling cycle the scheduler may
    // replicate a chunk, so allow up to one extra load per brick.
    let loads = r1.cache_misses + r2.cache_misses;
    assert!(
        (4..=8).contains(&loads),
        "dataset 0 loads out of range: {loads}"
    );
    assert_eq!(r3.cache_misses, 4, "dataset 1 cold");

    // A second client shares the warm service.
    let other = RemoteClient::connect(addr, UserId(6)).expect("connect");
    let rx = other
        .render_interactive(ActionId(9), DatasetId(0), frame(0.15))
        .unwrap();
    let warm = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("frame")
        .into_frame()
        .expect("a frame");
    assert_eq!(warm.cache_misses, 0, "dataset 0 fully cached by now");

    drop(client);
    drop(other);
    server.stop();
    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 4);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn probe_observes_the_live_head_loop() {
    use vizsched_metrics::{CollectingProbe, TraceEvent};

    let root = temp_root("probe");
    let store = ChunkStore::create(
        &root,
        &[StoreDataset {
            field: Field::Shells,
            dims: [24, 24, 32],
            bricks: 4,
        }],
    )
    .unwrap();
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(4)
        .mem_quota(1 << 20)
        .image_size(64, 64)
        .probe(probe.clone());
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for i in 0..3 {
        let rx = client.render_interactive(ActionId(0), DatasetId(0), frame(i as f32 * 0.1));
        rx.recv_timeout(Duration::from_secs(30)).expect("frame");
    }
    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 3);

    // The live head loop reports through the same event schema as the
    // simulator, and the stream must be internally consistent.
    let events = probe.take();
    let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let starts = count(&|e| matches!(e, TraceEvent::CycleStart { .. }));
    let ends = count(&|e| matches!(e, TraceEvent::CycleEnd { .. }));
    let assigns = count(&|e| matches!(e, TraceEvent::Assignment { .. }));
    let dones = count(&|e| matches!(e, TraceEvent::TaskDone { .. }));
    let jobs_done = count(&|e| matches!(e, TraceEvent::JobDone { .. }));
    let loads = count(&|e| matches!(e, TraceEvent::CacheLoad { .. }));
    let estimates = count(&|e| matches!(e, TraceEvent::EstimateCorrection { .. }));
    assert_eq!(starts, ends, "every cycle start has a matching end");
    assert_eq!(assigns, 12, "3 jobs x 4 bricks dispatched");
    assert_eq!(dones, 12, "every dispatched task reports back");
    assert_eq!(jobs_done, 3);
    assert_eq!(loads, 4, "first frame cold-loads each brick once");
    assert_eq!(estimates, 4, "each miss corrects Estimate[c]");
    // Observed timings are sane: start + exec never precede the report.
    for e in &events {
        if let TraceEvent::TaskDone {
            now, started, exec, ..
        } = e
        {
            assert!(*started <= *now, "task started before it finished");
            assert!(*started + *exec <= *now + vizsched_core::time::SimDuration::from_millis(1));
        }
    }
    // The JSONL serialization of a live stream parses line-per-event.
    let jsonl = vizsched_metrics::events_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    std::fs::remove_dir_all(root).ok();
}
