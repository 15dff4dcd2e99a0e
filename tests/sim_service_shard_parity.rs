//! Sharded simulator-vs-service parity: with the cluster split behind the
//! consistent-hash routing tier, both substrates drive the *same*
//! `vizsched-runtime` sharded control plane, so an identical serialized
//! workload over an identical catalog must route every job to the same
//! shard AND place every task on the same global node.
//!
//! The placement-determinism argument of `sim_service_parity.rs` carries
//! over per shard: each dataset bricks into exactly `NODES / SHARDS`
//! chunks — the size of one shard's node slice — so a cold job spreads
//! one chunk per in-shard node through index tie-breaks and a warm job
//! maps every chunk to its unique cache holder, never comparing measured
//! estimate magnitudes. The routing layer above is purely ring-arithmetic
//! on `(dataset, shard count)`, independent of any clock.
//!
//! The file also holds the sim-only scale check of the sharded design:
//! a 1024-node cluster under 16 shard-local cycle loops completes a mixed
//! interactive/batch workload with every job's tasks placed inside the
//! span of the shard that owned the job at dispatch time.

use std::sync::Arc;
use vizsched_core::prelude::*;
use vizsched_integration::parity::{assignments, datasets, serial_jobs, shard_assignments, Pair};
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_routing::ShardMap;
use vizsched_sim::{RunOptions, SimConfig, Simulation};
use vizsched_workload::Scenario;

const NODES: usize = 4;
const SHARDS: usize = 2;
const BRICKS: usize = NODES / SHARDS;

/// Fold the routing events into each job's final owner, then check every
/// task placement landed inside that owner's node span.
fn assert_placements_respect_shards(tag: &str, events: &[TraceEvent], map: &ShardMap) {
    let mut owner = std::collections::HashMap::new();
    for e in events {
        match e {
            TraceEvent::ShardAssigned { job, shard, .. } => {
                owner.insert(job.0, *shard);
            }
            TraceEvent::ShardMigrated { job, to, .. } => {
                owner.insert(job.0, *to);
            }
            TraceEvent::Assignment { job, node, .. } => {
                let shard = owner
                    .get(&job.0)
                    .unwrap_or_else(|| panic!("{tag}: J{} dispatched before routing", job.0));
                let span = map.span(*shard);
                assert!(
                    (span.base..span.base + span.nodes).contains(&node.0),
                    "{tag}: J{} owned by {shard} but placed on R{} outside [{}, {})",
                    job.0,
                    node.0,
                    span.base,
                    span.base + span.nodes,
                );
            }
            _ => {}
        }
    }
}

/// The serialized workload: every dataset twice (cold then warm), one job
/// in flight at a time. Four datasets are enough that the ring spreads
/// them over both shards; each bricks into exactly one shard-slice of
/// chunks.
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

/// Identical routing and identical global placement on both substrates.
fn assert_sharded_parity(kind: SchedulerKind) {
    let rig = Pair {
        scheduler: kind,
        datasets: datasets(4, BRICKS),
        nodes: NODES,
        shards: SHARDS,
        ..Pair::default()
    }
    .open();
    let (sim, outcome) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, _) = rig.live_traced(rig.serial(&WORKLOAD, |_, _| {}));
    let name = kind.name();
    assert_eq!(outcome.per_shard.len(), SHARDS, "{name}");

    let routed = shard_assignments(&sim);
    assert_eq!(
        routed,
        shard_assignments(&live),
        "{name}: shard routing diverged between substrates"
    );
    assert_eq!(
        routed.len(),
        WORKLOAD.len(),
        "{name}: every offered job routes exactly once"
    );
    let used: std::collections::BTreeSet<u32> = routed.iter().map(|&(_, s)| s).collect();
    assert_eq!(
        used.len(),
        SHARDS,
        "{name}: the workload must exercise every shard, got {used:?}"
    );
    // The workload runs every dataset twice (jobs i and i + 4): both
    // visits must route to the same shard — `Cache[c]` locality.
    for i in 0..4 {
        assert_eq!(
            routed[i].1,
            routed[i + 4].1,
            "{name}: dataset {i} split across shards"
        );
    }

    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "{name}: (shard, node) task placement diverged between substrates"
    );

    let map = ShardMap::new(NODES, SHARDS);
    assert_placements_respect_shards(&format!("{name}/sim"), &sim, &map);
    assert_placements_respect_shards(&format!("{name}/live"), &live, &map);
}

#[test]
fn ours_routes_and_places_identically_when_sharded() {
    assert_sharded_parity(SchedulerKind::Ours);
}

#[test]
fn fcfsl_routes_and_places_identically_when_sharded() {
    assert_sharded_parity(SchedulerKind::Fcfsl);
}

#[test]
fn mobj_routes_and_places_identically_when_sharded() {
    assert_sharded_parity(SchedulerKind::Mobj);
}

/// The scale target of the sharded design: 16 shard-local cycle loops
/// drive a 1024-node cluster through a mixed interactive/batch workload.
/// Sim-only — the point is the control plane at cluster scale, which no
/// thread-per-node live harness can reach in a test.
#[test]
fn sixteen_shards_drive_a_thousand_node_cluster() {
    let scenario = Scenario::sweep(
        "shard-scale",
        1024,
        2 << 30,
        64,
        1 << 30,
        32,
        vizsched_core::time::SimDuration::from_secs(2),
        8,
        42,
    );
    let config = SimConfig::new(scenario.cluster.clone(), scenario.cost);
    let probe = Arc::new(CollectingProbe::new());
    let jobs = scenario.jobs();
    let offered = jobs.len();
    assert!(offered > 500, "scale scenario must carry real load");
    let outcome = Simulation::new(config, scenario.datasets(), scenario.chunk_max).run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label(&scenario.label)
            .shards(16)
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0, "scale run stalled");
    assert_eq!(outcome.per_shard.len(), 16);
    assert_eq!(
        outcome.per_shard.iter().map(|s| s.nodes).sum::<u32>(),
        1024,
        "the shard slices must tile the cluster"
    );
    // 64 dataset keys over 16 shards: the ring feeds most shards, but a
    // shard owning zero of only 64 keys is legitimate hash dispersion —
    // balance in expectation is the ring property test's job, not this
    // one's.
    let fed = outcome.per_shard.iter().filter(|s| s.assigned > 0).count();
    assert!(
        fed >= 12,
        "only {fed}/16 shards saw work: {:?}",
        outcome
            .per_shard
            .iter()
            .map(|s| s.assigned)
            .collect::<Vec<_>>()
    );
    assert!(
        outcome.per_shard.iter().map(|s| s.assigned).sum::<u64>() >= offered as u64,
        "routing must account for every offered job"
    );

    let events = probe.take();
    // Every placement stays inside the owning shard's span, migrations
    // included.
    let map = ShardMap::new(1024, 16);
    assert_placements_respect_shards("scale", &events, &map);
    // Interactive users stay pinned: only batch jobs ever migrate.
    let interactive: std::collections::BTreeSet<u64> = outcome
        .record
        .jobs
        .iter()
        .filter(|j| j.kind.is_interactive())
        .map(|j| j.id.0)
        .collect();
    for e in &events {
        if let TraceEvent::ShardMigrated { job, .. } = e {
            assert!(
                !interactive.contains(&job.0),
                "interactive J{} migrated off its shard",
                job.0
            );
        }
    }
}
