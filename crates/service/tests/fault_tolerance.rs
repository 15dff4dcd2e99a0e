//! Fault tolerance of the live service: killing a render node's worker
//! mid-workload must not lose frames. The head observes the fault (the
//! worker's epoch-tagged `Stopped` report), reroutes the node's
//! outstanding tasks through the shared runtime — the same path the
//! simulator's crash injection drives — and, when configured, respawns
//! the worker cold-cached.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use vizsched_core::ids::{BatchId, DatasetId, NodeId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_core::time::SimTime;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_service::{
    ChunkStore, FaultPlan, ServiceClient, ServiceConfig, StoreDataset, VizService,
};
use vizsched_volume::Field;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vizsched-fault-{tag}-{}", std::process::id()))
}

/// A service over a deliberately slow store (throttled loads), so a burst
/// of frames is still in flight when the kill lands.
fn slow_service(tag: &str, restart: bool) -> (VizService, Arc<CollectingProbe>, PathBuf) {
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
        .restart_nodes(restart);
    (VizService::start(config, Arc::new(store)), probe, root)
}

fn frame(azimuth: f32) -> FrameParams {
    FrameParams {
        azimuth,
        ..FrameParams::default()
    }
}

#[test]
fn killed_node_loses_no_frames() {
    let (service, probe, root) = slow_service("kill", false);
    let client = ServiceClient::new(UserId(0), service.request_sender());

    // Queue a burst across both datasets, then kill node 1 while loads
    // are still grinding through the throttled store.
    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx_a = client.render_batch(BatchId(0), DatasetId(0), &frames);
    let rx_b = client.render_batch(BatchId(1), DatasetId(1), &frames);
    std::thread::sleep(Duration::from_millis(40));
    service.kill_node(1);

    let mut received = 0;
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
            received += 1;
        }
    }
    assert_eq!(received, 16);

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
        "restart disabled: the node must stay down"
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

#[test]
fn restarted_node_rejoins_and_serves() {
    let (service, probe, root) = slow_service("restart", true);
    let client = ServiceClient::new(UserId(0), service.request_sender());

    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx = client.render_batch(BatchId(0), DatasetId(0), &frames);
    std::thread::sleep(Duration::from_millis(40));
    service.kill_node(2);

    for _ in 0..8 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every frame survives the fault");
    }
    // Work submitted *after* the respawn must also complete — the fresh
    // incarnation (or its peers) picks it up.
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

/// Start a 4-node service under `plan`, letting a panic through only if
/// it came from the `start` call itself: the head thread is never joined,
/// so nothing it does later can satisfy a `should_panic`.
fn start_under_plan(tag: &str, plan: FaultPlan) {
    let root = temp_root(tag);
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: [16, 16, 32],
        bricks: 4,
    };
    let store = Arc::new(ChunkStore::create(&root, &[dataset]).unwrap());
    let config = ServiceConfig::default().nodes(4).fault_plan(plan);
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
