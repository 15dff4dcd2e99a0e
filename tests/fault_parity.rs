//! Fault-plane parity: an identical [`FaultPlan`] executed by the live
//! sharded service and by the discrete-event simulator must produce the
//! same failover behavior — the same post-crash shard routing, the same
//! global task placements, and the same `shard_failed` /
//! `shard_recovered` accounting — because both substrates drive the same
//! `vizsched-runtime` control plane through the same fault entry points.
//!
//! The live client paces the workload to the simulator's timeline (one
//! frame per second, each completing in well under half a second), so
//! every fault in the plan fires in the same inter-job gap on both
//! substrates and the interleavings coincide. The placement-determinism
//! argument of `sim_service_shard_parity.rs` then carries over across
//! the failover: adoption rebuilds cold per-node tables on both sides,
//! cold spreads resolve by index tie-breaks, warm chunks map to their
//! unique holder.
//!
//! The file also holds the respawn-under-sharding check: a node killed
//! out of a shard's slice (with `restart_nodes` on) rejoins *its own*
//! shard and serves cache-local work again.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_routing::ShardMap;
use vizsched_service::{
    ChunkStore, FaultKind, FaultPlan, ServiceClient, ServiceConfig, StoreDataset, VizService,
};
use vizsched_sim::{RunOptions, SimConfig, Simulation};
use vizsched_volume::Field;

const NODES: usize = 4;
const SHARDS: usize = 2;
const BRICKS: usize = NODES / SHARDS;
const MEM_QUOTA: u64 = 1 << 20;

/// The plan both substrates execute, timed into the gaps of a
/// one-job-per-second workload: shard 0's head dies at 2.5 s (its slice
/// fails over to shard 1), an adopted node crashes at 4.5 s, and rejoins
/// at 6.5 s.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .shard_crash_at(SimTime::from_millis(2_500), vizsched_core::ids::ShardId(0))
        .crash_at(SimTime::from_millis(4_500), NodeId(0))
        .respawn_at(SimTime::from_millis(6_500), NodeId(0))
}

fn store_datasets() -> Vec<StoreDataset> {
    [Field::Shells, Field::Plume, Field::Shells, Field::Plume]
        .into_iter()
        .map(|field| StoreDataset {
            field,
            dims: [16, 16, 32],
            bricks: BRICKS,
        })
        .collect()
}

/// Every dataset twice (cold then warm), one job per second so each
/// frame drains before the next fault can fire.
fn workload() -> Vec<(u64, f32)> {
    vec![
        (0, 0.10),
        (1, 0.20),
        (2, 0.30),
        (3, 0.40),
        (0, 0.50),
        (1, 0.60),
        (2, 0.70),
        (3, 0.80),
    ]
}

type AssignKey = (u64, u32, u64, u32);

fn assignments(events: &[TraceEvent]) -> Vec<AssignKey> {
    let mut keys: Vec<AssignKey> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Assignment {
                job,
                task,
                chunk,
                node,
                ..
            } => Some((job.0, *task, chunk.as_u64(), node.0)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn shard_assignments(events: &[TraceEvent]) -> Vec<(u64, u32)> {
    let mut keys: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShardAssigned { job, shard, .. } => Some((job.0, shard.0)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// The failover accounting a substrate reports, time-stripped: the
/// injected fault sequence plus the (shard, orphaned) / (shard, adopted)
/// pairs of the failure and recovery events.
#[derive(Debug, PartialEq, Eq)]
struct FailoverTrace {
    injected: Vec<FaultKind>,
    failed: Vec<(u32, usize)>,
    recovered: Vec<(u32, usize)>,
}

fn failover_trace(events: &[TraceEvent]) -> FailoverTrace {
    let mut trace = FailoverTrace {
        injected: Vec::new(),
        failed: Vec::new(),
        recovered: Vec::new(),
    };
    for e in events {
        match e {
            TraceEvent::FaultInjected { fault, .. } => trace.injected.push(*fault),
            TraceEvent::ShardFailed {
                shard, orphaned, ..
            } => trace.failed.push((shard.0, *orphaned)),
            TraceEvent::ShardRecovered { shard, adopted, .. } => {
                trace.recovered.push((shard.0, *adopted))
            }
            _ => {}
        }
    }
    trace
}

/// Run the paced workload through the live sharded service under the
/// plan: frame `i` is issued `i` seconds after service start, so the
/// fault timeline interleaves with the job stream exactly as in the sim.
fn run_service(kind: SchedulerKind) -> Vec<TraceEvent> {
    let root = std::env::temp_dir().join(format!(
        "vizsched-fault-parity-{}-{}",
        kind.name(),
        std::process::id()
    ));
    let mut store = ChunkStore::create(&root, &store_datasets()).unwrap();
    store.set_throttle(Some(4 << 20));
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(NODES)
        .shards(SHARDS)
        .mem_quota(MEM_QUOTA)
        .image_size(32, 32)
        .scheduler(kind)
        .fault_plan(plan())
        .probe(probe.clone());
    let start = Instant::now();
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for (i, &(dataset, azimuth)) in workload().iter().enumerate() {
        let due = Duration::from_secs(i as u64);
        let elapsed = start.elapsed();
        if elapsed < due {
            std::thread::sleep(due - elapsed);
        }
        let frame = FrameParams {
            azimuth,
            ..FrameParams::default()
        };
        let rx = client.render_interactive(ActionId(i as u64), DatasetId(dataset as u32), frame);
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{}: frame {i} never arrived: {e}", kind.name()));
    }
    service.drain_and_shutdown();
    std::fs::remove_dir_all(root).ok();
    probe.take()
}

/// Replay the same workload and plan in the sharded simulator over the
/// same physical catalog.
fn run_sim(kind: SchedulerKind) -> Vec<TraceEvent> {
    let root = std::env::temp_dir().join(format!(
        "vizsched-fault-parity-cat-{}-{}",
        kind.name(),
        std::process::id()
    ));
    let store = ChunkStore::create(&root, &store_datasets()).unwrap();
    let catalog = store.catalog().clone();
    std::fs::remove_dir_all(root).ok();

    let cluster = ClusterSpec::homogeneous(NODES, MEM_QUOTA);
    let config = SimConfig::new(cluster, CostParams::default(), 1 << 30);
    let jobs: Vec<Job> = workload()
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| Job {
            id: JobId(i as u64),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(i as u64),
            },
            dataset: DatasetId(dataset as u32),
            issue_time: SimTime::from_secs(i as u64),
            frame: FrameParams {
                azimuth,
                ..FrameParams::default()
            },
        })
        .collect();
    let probe = Arc::new(CollectingProbe::new());
    let outcome = Simulation::new(config, Vec::new()).run_opts(
        jobs,
        RunOptions::new(kind)
            .label("fault-parity")
            .catalog(catalog)
            .shards(SHARDS)
            .fault_plan(plan())
            .probe(probe.clone()),
    );
    assert_eq!(
        outcome.incomplete_jobs,
        0,
        "{}: sim lost jobs across the failover",
        kind.name()
    );
    probe.take()
}

fn assert_fault_parity(kind: SchedulerKind) {
    let sim = run_sim(kind);
    let live = run_service(kind);
    let name = kind.name();

    // Identical failover accounting: same injected faults in the same
    // order, same orphan count at the shard failure (the paced workload
    // leaves no job in flight at 2.5 s), same adoption count.
    let sim_failover = failover_trace(&sim);
    assert_eq!(
        sim_failover,
        failover_trace(&live),
        "{name}: failover accounting diverged between substrates"
    );
    assert_eq!(
        sim_failover.failed,
        vec![(0, 0)],
        "{name}: shard 0 fails exactly once, orphan-free"
    );
    assert_eq!(
        sim_failover.recovered,
        vec![(1, BRICKS)],
        "{name}: the surviving shard adopts the dead shard's full slice"
    );

    // Identical shard routing, including every re-route after the crash.
    let routed = shard_assignments(&sim);
    assert_eq!(
        routed,
        shard_assignments(&live),
        "{name}: shard routing diverged between substrates"
    );
    assert_eq!(routed.len(), workload().len(), "{name}: every job routes");
    // Jobs issued after the 2.5 s crash never route to the dead shard.
    for &(job, shard) in &routed {
        if job >= 3 {
            assert_ne!(
                shard, 0,
                "{name}: J{job} routed to the dead shard after failover"
            );
        }
    }

    // Identical global task placement across crash, adoption, node
    // crash, and respawn.
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "{name}: (job, task, chunk, node) placement diverged across the failover"
    );

    // The crashed node serves nothing inside its down window: after its
    // 4.5 s crash no placement touches it until its 6.5 s respawn.
    for events in [&sim, &live] {
        let crash_pos = events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::FaultInjected {
                        fault: FaultKind::NodeCrash(NodeId(0)),
                        ..
                    }
                )
            })
            .unwrap_or_else(|| panic!("{name}: node crash not injected"));
        let respawn_pos = events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::FaultInjected {
                        fault: FaultKind::NodeRespawn(NodeId(0)),
                        ..
                    }
                )
            })
            .unwrap_or_else(|| panic!("{name}: node respawn not injected"));
        assert!(crash_pos < respawn_pos, "{name}: crash precedes respawn");
        for e in &events[crash_pos..respawn_pos] {
            if let TraceEvent::Assignment { node, .. } = e {
                assert_ne!(node.0, 0, "{name}: placement on a crashed node");
            }
        }
    }
}

#[test]
fn ours_replays_an_identical_fault_plan_identically() {
    assert_fault_parity(SchedulerKind::Ours);
}

#[test]
fn fcfsl_replays_an_identical_fault_plan_identically() {
    assert_fault_parity(SchedulerKind::Fcfsl);
}

/// `restart_nodes` under `shards(n)`: a node killed out of a shard's
/// slice respawns, rejoins *its owning shard*, and serves cache-local
/// work for that shard's datasets again.
///
/// While node 2 is down its peers absorb its datasets' chunks, and warm
/// placement keeps mapping those chunks to their new holders — so the
/// proof that the respawned node rejoined is *fresh* data: datasets
/// first rendered after the respawn must cold-spread onto it, and a
/// repeat visit must find their chunks in its cache.
#[test]
fn respawned_node_rejoins_its_shard_slice() {
    let root = std::env::temp_dir().join(format!(
        "vizsched-fault-parity-respawn-{}",
        std::process::id()
    ));
    // Eight datasets: 0..4 feed round 1 (before the kill), 4..8 stay
    // untouched until after the respawn.
    let datasets: Vec<StoreDataset> = (0..8)
        .map(|i| StoreDataset {
            field: if i % 2 == 0 {
                Field::Shells
            } else {
                Field::Plume
            },
            dims: [16, 16, 32],
            bricks: BRICKS,
        })
        .collect();
    let mut store = ChunkStore::create(&root, &datasets).unwrap();
    store.set_throttle(Some(256 << 10)); // slow loads: the kill lands mid-burst
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(NODES)
        .shards(SHARDS)
        .mem_quota(MEM_QUOTA)
        .image_size(32, 32)
        .restart_nodes(true)
        .probe(probe.clone());
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());

    let frames: Vec<FrameParams> = (0..4)
        .map(|i| FrameParams {
            azimuth: i as f32 * 0.1,
            ..FrameParams::default()
        })
        .collect();

    // Round 1: a burst over datasets 0..4 (the ring feeds both shards),
    // with node 2 — shard 1's slice — killed while loads grind.
    let round1: Vec<_> = (0..4u32)
        .map(|d| client.render_batch(BatchId(d as u64), DatasetId(d), &frames))
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    service.kill_node(2);
    for rx in &round1 {
        for _ in 0..frames.len() {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every round-1 frame survives the kill");
        }
    }

    // Rounds 2 and 3, after the respawn, over the fresh datasets 4..8: a
    // cold round that must spread one chunk per slice node — including
    // the respawned one — and a warm round that must find those chunks
    // where round 2 cached them.
    for round in 2..4u64 {
        let receivers: Vec<_> = (4..8u32)
            .map(|d| client.render_batch(BatchId(round * 10 + d as u64), DatasetId(d), &frames))
            .collect();
        for rx in &receivers {
            for _ in 0..frames.len() {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("every post-respawn frame arrives");
            }
        }
    }

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 48, "3 rounds x 4 datasets x 4 frames");
    std::fs::remove_dir_all(root).ok();

    let events = probe.take();
    let fault_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeFault { node, .. } if node.0 == 2))
        .expect("the kill is observed");
    let up_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeUp { node, .. } if node.0 == 2))
        .expect("restart_nodes respawns the node");
    assert!(fault_pos < up_pos, "fault precedes the respawn");

    // The respawned node serves work again...
    let post_recovery: Vec<u64> = events[up_pos..]
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Assignment { chunk, node, .. } if node.0 == 2 => Some(chunk.as_u64()),
            _ => None,
        })
        .collect();
    assert!(
        !post_recovery.is_empty(),
        "the respawned node never served again"
    );
    // ...including cache-local work: some chunk lands on it twice after
    // the respawn — re-cached cold, then served warm in place.
    assert!(
        post_recovery
            .iter()
            .any(|c| post_recovery.iter().filter(|&x| x == c).count() >= 2),
        "no chunk was re-served from the respawned node's cache: {post_recovery:?}"
    );

    // ...and only for jobs its own shard owns: every placement on the
    // respawned node belongs to a job routed to the shard whose slice
    // contains node 2.
    let map = ShardMap::new(NODES, SHARDS);
    let mut owner = std::collections::HashMap::new();
    for e in &events {
        match e {
            TraceEvent::ShardAssigned { job, shard, .. } => {
                owner.insert(job.0, *shard);
            }
            TraceEvent::ShardMigrated { job, to, .. } => {
                owner.insert(job.0, *to);
            }
            TraceEvent::Assignment { job, node, .. } if node.0 == 2 => {
                let shard = owner.get(&job.0).expect("routed before dispatch");
                let span = map.span(*shard);
                assert!(
                    (span.base..span.base + span.nodes).contains(&2),
                    "J{} placed on node 2 but owned by {shard:?} (span [{}, {}))",
                    job.0,
                    span.base,
                    span.base + span.nodes,
                );
            }
            _ => {}
        }
    }
}
