//! Fault tolerance of the live service: a fault plan that crashes a
//! render node mid-workload must not lose frames. The head hands each plan
//! entry to the runtime's one fault interpreter, the simulator's too: a
//! crash retires the node's epoch, kills its worker and reroutes its
//! outstanding tasks at the crash instant; a respawn brings the node back
//! cold-cached. Reports from a retired epoch — the render that was
//! underway at the kill, the worker's parting `Stopped` — never count.

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, NodeId, ShardId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_core::time::SimTime;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_runtime::shard::HashRing;
use vizsched_service::{
    ChunkStore, FaultPlan, ServiceClient, ServiceConfig, StoreDataset, VizService,
};
use vizsched_volume::Field;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vizsched-fault-{tag}-{}", std::process::id()))
}

/// A service over a deliberately slow store (throttled loads) running
/// `plan`, so a burst of frames is still in flight when a 40 ms crash
/// lands.
fn slow_service(tag: &str, plan: FaultPlan) -> (VizService, Arc<CollectingProbe>, PathBuf) {
    let root = temp_root(tag);
    let mut store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: 4,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: 4,
            },
        ],
    )
    .unwrap();
    store.set_throttle(Some(256 << 10)); // ~32 ms per 8 KiB brick load
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(4)
        .mem_quota(1 << 20)
        .image_size(64, 64)
        .probe(probe.clone())
        .fault_plan(plan);
    (VizService::start(config, Arc::new(store)), probe, root)
}

fn frame(azimuth: f32) -> FrameParams {
    FrameParams {
        azimuth,
        ..FrameParams::default()
    }
}

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

/// Queue a burst of 8 frames on each dataset, take every frame, and
/// assert each is a finite image — before the service is drained, so a
/// frame the fault lost fails here instead of hanging the drain.
fn burst_survives(service: &VizService) {
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx_a = client.render_batch(BatchId(0), DatasetId(0), &frames);
    let rx_b = client.render_batch(BatchId(1), DatasetId(1), &frames);
    for rx in [&rx_a, &rx_b] {
        for _ in 0..8 {
            let result = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("every frame survives the fault")
                .expect_frame();
            assert!(result
                .image
                .pixels
                .iter()
                .all(|p| p.iter().all(|c| c.is_finite())));
        }
    }
}

#[test]
fn killed_node_loses_no_frames() {
    // Node 1 crashes while loads are still grinding through the
    // throttled store, and never comes back.
    let plan = FaultPlan::new().crash_at(ms(40), NodeId(1));
    let (service, probe, root) = slow_service("kill", plan);
    burst_survives(&service);

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);

    let events = probe.take();
    let faults: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeFault { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    assert_eq!(
        faults,
        vec![NodeId(1)],
        "exactly one fault, on the killed node"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeUp { .. })),
        "no respawn planned: the node must stay down"
    );
    // The dead node contributes nothing after the fault: every task
    // completion from node 1 precedes the fault report.
    let fault_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeFault { now, .. } => Some(*now),
            _ => None,
        })
        .unwrap();
    assert!(events.iter().all(|e| match e {
        TraceEvent::TaskDone { now, node, .. } => *node != NodeId(1) || *now <= fault_at,
        _ => true,
    }));
    std::fs::remove_dir_all(root).ok();
}

/// A crash and its respawn at the same instant run in one pass of the
/// head's plan loop: the respawn replaces the worker before the killed
/// one's parting report can land. The crash must still re-place the
/// tasks the killed worker dropped, or their frames never arrive and the
/// drain never returns.
#[test]
fn crash_window_shorter_than_a_task_loses_no_frames() {
    let plan = FaultPlan::new()
        .crash_at(ms(40), NodeId(1))
        .respawn_at(ms(40), NodeId(1));
    let (service, probe, root) = slow_service("blink", plan);
    burst_survives(&service);

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);
    let tags: Vec<&str> = probe
        .take()
        .iter()
        .map(TraceEvent::tag)
        .filter(|tag| matches!(*tag, "node_fault" | "node_up"))
        .collect();
    assert_eq!(tags, ["node_fault", "node_up"]);
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn restarted_node_rejoins_and_serves() {
    let plan = FaultPlan::new()
        .crash_at(ms(40), NodeId(2))
        .respawn_at(ms(120), NodeId(2));
    let started = Instant::now();
    let (service, probe, root) = slow_service("restart", plan);
    let client = ServiceClient::new(UserId(0), service.request_sender());

    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx = client.render_batch(BatchId(0), DatasetId(0), &frames);
    for _ in 0..8 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every frame survives the fault");
    }
    // Work submitted *after* the respawn must also complete — the fresh
    // incarnation (or its peers) picks it up.
    std::thread::sleep(Duration::from_millis(150).saturating_sub(started.elapsed()));
    let rx2 = client.render_batch(BatchId(1), DatasetId(1), &frames);
    for _ in 0..8 {
        rx2.recv_timeout(Duration::from_secs(60))
            .expect("post-recovery frame arrives");
    }

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);

    let events = probe.take();
    let fault_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeFault { node, .. } if *node == NodeId(2)))
        .expect("fault observed");
    let up_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeUp { node, .. } if *node == NodeId(2)))
        .expect("recovery observed");
    assert!(fault_pos < up_pos, "fault precedes the respawn");
    std::fs::remove_dir_all(root).ok();
}

/// A shard crash power-cycles the dead head's slice while every slice
/// node is mid-render. Those renders still finish and report, but under
/// a retired epoch: the adopter re-runs the orphaned jobs, and only its
/// own completions may count — a stale one would join the re-admitted
/// frame's layers and complete a task the adopter never dispatched.
#[test]
fn shard_crash_mid_render_counts_only_the_adopters_work() {
    let root = temp_root("shard-mid-render");
    let datasets: Vec<StoreDataset> = (0..4)
        .map(|i| StoreDataset {
            field: [Field::Shells, Field::Plume][i % 2],
            dims: [16, 16, 32],
            bricks: 2, // one brick per node of a 2-node slice
        })
        .collect();
    let mut store = ChunkStore::create(&root, &datasets).unwrap();
    store.set_throttle(Some(64 << 10)); // ~250 ms per 16 KiB brick load
    let ring = HashRing::with_shards(2);
    let doomed: Vec<DatasetId> = (0..4)
        .map(DatasetId)
        .filter(|&d| ring.shard_for_dataset(d) == ShardId(0))
        .collect();
    assert!(!doomed.is_empty(), "some dataset routes to shard 0");

    // The first cycle dispatches at 30 ms; the loads run until ~280 ms.
    let plan = FaultPlan::new().shard_crash_at(ms(100), ShardId(0));
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(4)
        .shards(2)
        .mem_quota(1 << 20)
        .image_size(32, 32)
        .probe(probe.clone())
        .fault_plan(plan);
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let receivers: Vec<_> = (0..3u64)
        .flat_map(|i| doomed.iter().map(move |&d| (i, d)))
        .map(|(i, d)| {
            let action = ActionId(i * 4 + u64::from(d.0));
            client.render_interactive(action, d, frame(i as f32 * 0.1))
        })
        .collect();
    for rx in &receivers {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every frame survives the failover")
            .expect_frame();
    }
    let stats = service.drain_and_shutdown();
    std::fs::remove_dir_all(root).ok();
    assert!(
        receivers.iter().all(|rx| rx.try_recv().is_err()),
        "a frame arrived twice"
    );
    assert_eq!(stats.jobs_completed, receivers.len() as u64);

    let events = probe.take();
    let failed = events
        .iter()
        .position(|e| matches!(e, TraceEvent::ShardFailed { .. }))
        .expect("shard 0 failed over");
    // The crash landed inside the first load: nothing had finished, and
    // both slice nodes had work.
    assert!(matches!(
        events[failed],
        TraceEvent::ShardFailed { orphaned, .. } if orphaned == receivers.len()
    ));
    let busy: HashSet<u32> = events[..failed]
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Assignment { node, .. } => Some(node.0),
            _ => None,
        })
        .collect();
    assert_eq!(
        busy,
        HashSet::from([0, 1]),
        "both slice nodes were rendering"
    );
    let mut assigned = HashSet::new();
    for e in &events[failed..] {
        match e {
            TraceEvent::Assignment {
                job, task, node, ..
            } => {
                assigned.insert((job.0, *task, node.0));
            }
            TraceEvent::TaskDone {
                job, task, node, ..
            } => assert!(
                assigned.contains(&(job.0, *task, node.0)),
                "J{} task {task} finished on node {} without a post-failover dispatch",
                job.0,
                node.0
            ),
            _ => {}
        }
    }
}

/// Start a 4-node service under `plan` (see [`start_configured`]).
fn start_under_plan(tag: &str, plan: FaultPlan) {
    start_configured(tag, ServiceConfig::default().nodes(4).fault_plan(plan));
}

/// Start a service under `config`, letting a panic through only if it
/// came from the `start` call itself: the head thread is never joined,
/// so nothing it does later can satisfy a `should_panic`.
fn start_configured(tag: &str, config: ServiceConfig) {
    let root = temp_root(tag);
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: [16, 16, 32],
        bricks: 4,
    };
    let store = Arc::new(ChunkStore::create(&root, &[dataset]).unwrap());
    let started = catch_unwind(AssertUnwindSafe(|| VizService::start(config, store)));
    std::fs::remove_dir_all(root).ok();
    if let Err(panic) = started {
        resume_unwind(panic);
    }
}

/// A plan addressing a node the cluster does not have is refused on the
/// caller's thread, with the entry named — not by an index panic on the
/// head thread that abandons every client and only surfaces at shutdown.
#[test]
#[should_panic(expected = "NodeCrash(NodeId(99)) at 0.010000s is outside the 4-node cluster")]
fn plan_naming_a_node_outside_the_cluster_is_refused_at_start() {
    let plan = FaultPlan::new().crash_at(SimTime::from_millis(10), NodeId(99));
    start_under_plan("oob-node", plan);
}

#[test]
#[should_panic(expected = "LeafOutage { base: NodeId(3), count: 2 } at 0.020000s is outside")]
fn plan_with_a_leaf_group_straddling_the_cluster_end_is_refused_at_start() {
    // Node 3 exists, node 4 does not.
    let plan = FaultPlan::new().leaf_outage_at(SimTime::from_millis(20), NodeId(3), 2);
    start_under_plan("oob-leaf", plan);
}

/// A plan that crashes every node is refused at start as well — not by a
/// placement panic on the head thread that leaves later requests
/// unanswered and only surfaces when `shutdown` finds the thread dead.
#[test]
#[should_panic(expected = "the node_crash fault at 40000 us leaves none of the 4 nodes alive")]
fn plan_that_crashes_every_node_is_refused_at_start() {
    let plan = (0..4).fold(FaultPlan::new(), |plan, n| {
        plan.crash_at(SimTime::from_millis(10 * (n + 1)), NodeId(n as u32))
    });
    start_under_plan("all-down", plan);
}

/// A plan that downs every node of one shard is refused at start too,
/// although another shard still has a live node: that shard's jobs would
/// reach a scheduler with nothing to place on.
#[test]
#[should_panic(
    expected = "the node_crash fault at 50000 us leaves none of shard 0's 1 nodes alive"
)]
fn plan_that_downs_every_node_of_one_shard_is_refused_at_start() {
    let plan = FaultPlan::new().crash_at(SimTime::from_millis(50), NodeId(0));
    let config = ServiceConfig::default().nodes(2).shards(2).fault_plan(plan);
    start_configured("shard-down", config);
}
