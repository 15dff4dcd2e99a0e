//! Fault-plane parity: an identical [`FaultPlan`] executed by the live
//! sharded service and by the discrete-event simulator must produce the
//! same failover behavior — the same post-crash shard routing, the same
//! global task placements, and the same `shard_failed` /
//! `shard_recovered` accounting — because both substrates hand every plan
//! entry to the same interpreter, `ShardedRuntime::on_fault`, and differ
//! only in the node hooks it calls back.
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
//! The file also holds the respawn-under-sharding check: a node the plan
//! crashes out of a shard's slice and later respawns rejoins *its own*
//! shard and serves cache-local work again.

use std::time::{Duration, Instant};
use vizsched_core::prelude::*;
use vizsched_integration::parity::{
    assignments, datasets, frame, serial_jobs, shard_assignments, Pair,
};
use vizsched_metrics::TraceEvent;
use vizsched_routing::ShardMap;
use vizsched_service::{FaultKind, FaultPlan, ServiceClient};

const NODES: usize = 4;
const SHARDS: usize = 2;
const BRICKS: usize = NODES / SHARDS;

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

/// Every dataset twice (cold then warm), one job per second so each
/// frame drains before the next fault can fire.
const WORKLOAD: [(u32, f32); 8] = [
    (0, 0.10),
    (1, 0.20),
    (2, 0.30),
    (3, 0.40),
    (0, 0.50),
    (1, 0.60),
    (2, 0.70),
    (3, 0.80),
];

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

/// Both substrates run the paced workload under the plan: the sim issues
/// job `i` at `i` seconds, the live client issues frame `i` that long
/// after service start, so the fault timeline interleaves with the job
/// stream identically.
fn assert_fault_parity(kind: SchedulerKind) {
    let rig = Pair {
        scheduler: kind,
        datasets: datasets(4, BRICKS),
        nodes: NODES,
        shards: SHARDS,
        fault_plan: plan(),
        ..Pair::default()
    }
    .open();
    let (sim, _) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, _) = rig.live_traced(rig.paced(&WORKLOAD));
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
    assert_eq!(routed.len(), WORKLOAD.len(), "{name}: every job routes");
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

/// The post-paper policy through the same failover: MOBJ's objective
/// reads only the shared head tables, so it decides on no measured
/// duration across the crash, adoption and re-admission.
#[test]
fn mobj_replays_an_identical_fault_plan_identically() {
    assert_fault_parity(SchedulerKind::Mobj);
}

/// A planned crash and respawn under `shards(n)`: a node crashed out of
/// a shard's slice respawns, rejoins *its owning shard*, and serves
/// cache-local work for that shard's datasets again.
///
/// While node 2 is down its peers absorb its datasets' chunks, and warm
/// placement keeps mapping those chunks to their new holders — so the
/// proof that the respawned node rejoined is *fresh* data: datasets
/// first rendered after the respawn must cold-spread onto it, and a
/// repeat visit must find their chunks in its cache.
#[test]
fn respawned_node_rejoins_its_shard_slice() {
    // Eight datasets: 0..4 feed round 1 (before the crash), 4..8 stay
    // untouched until after the respawn.
    let respawn = Duration::from_millis(150);
    let rig = Pair {
        datasets: datasets(8, BRICKS),
        nodes: NODES,
        shards: SHARDS,
        throttle: Some(256 << 10), // slow loads: the crash lands mid-burst
        fault_plan: FaultPlan::new()
            .crash_at(SimTime::from_millis(40), NodeId(2))
            .respawn_at(SimTime::from_micros(respawn.as_micros() as u64), NodeId(2)),
        ..Pair::default()
    }
    .open();
    let (events, stats) = rig.live_traced(|service| {
        let started = Instant::now();
        let client = ServiceClient::new(UserId(0), service.request_sender());
        let frames: Vec<FrameParams> = (0..4).map(|i| frame(i as f32 * 0.1)).collect();

        // Round 1: a burst over datasets 0..4 (the ring feeds both
        // shards), with node 2 — shard 1's slice — crashed while loads
        // grind.
        let round1: Vec<_> = (0..4u32)
            .map(|d| client.render_batch(BatchId(d as u64), DatasetId(d), &frames))
            .collect();
        for rx in &round1 {
            for _ in 0..frames.len() {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("every round-1 frame survives the crash");
            }
        }
        std::thread::sleep((respawn + Duration::from_millis(50)).saturating_sub(started.elapsed()));

        // Rounds 2 and 3, after the respawn, over the fresh datasets
        // 4..8: a cold round that must spread one chunk per slice node —
        // including the respawned one — and a warm round that must find
        // those chunks where round 2 cached them.
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
    });
    assert_eq!(stats.jobs_completed, 48, "3 rounds x 4 datasets x 4 frames");

    let fault_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeFault { node, .. } if node.0 == 2))
        .expect("the crash is observed");
    let up_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeUp { node, .. } if node.0 == 2))
        .expect("the plan respawns the node");
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
