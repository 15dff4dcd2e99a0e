//! Simulator-vs-service parity: both drive the *same* shared head-node
//! runtime (`vizsched-runtime`), so an identical serialized workload over
//! an identical catalog must produce identical scheduler-visible event
//! sequences — modulo wall-clock timestamps and measured durations, which
//! the live service observes from real disks and renders.
//!
//! The topology is chosen to make placement substrate-independent for the
//! deterministic policies: each dataset bricks into exactly `nodes`
//! chunks, so a cold job spreads one chunk per node through index
//! tie-breaks and a warm job maps every chunk to its unique cache holder
//! (zero movement strictly wins), never comparing measured estimate
//! *magnitudes* — the one quantity that legitimately differs between the
//! virtual and the wall clock.

use std::time::Duration;
use vizsched_core::prelude::*;
use vizsched_integration::parity::{
    assignments, cache_loads, dones, estimate_chunks, frame, interactive_job, job_done_order,
    policy_decisions, serial_jobs, Pair, PolicyKey, Rig, TaskKey,
};
use vizsched_metrics::{DropReason, RejectReason, TraceEvent};
use vizsched_service::{OverloadPolicy, RenderOutcome, RenderReply, ServiceClient};

fn count(events: &[TraceEvent], f: impl Fn(&TraceEvent) -> bool) -> usize {
    events.iter().filter(|e| f(e)).count()
}

/// The serialized workload both substrates replay: `(dataset, azimuth)`
/// per job, one job in flight at a time. Dataset 0 runs cold then warm,
/// dataset 1 interleaves to exercise per-node cache coexistence. The sim
/// spaces the jobs a second apart, so each completes before the next
/// issues — the virtual-clock image of the serialized client.
const WORKLOAD: [(u32, f32); 6] = [
    (0, 0.10),
    (0, 0.20),
    (1, 0.30),
    (0, 0.40),
    (1, 0.50),
    (1, 0.60),
];

/// The rig's default pair — two datasets, each bricked into exactly as
/// many chunks as there are nodes — under `kind`.
fn open(kind: SchedulerKind) -> Rig {
    Pair {
        scheduler: kind,
        ..Pair::default()
    }
    .open()
}

/// Invariants that must hold for *any* policy, placement-deterministic or
/// not: same work items, same completion order, same invocation balance.
fn assert_weak_parity(kind: SchedulerKind, sim: &[TraceEvent], live: &[TraceEvent]) {
    let name = kind.name();
    let strip_node = |keys: Vec<TaskKey>| -> Vec<(u64, u32, u64, bool)> {
        let mut k: Vec<_> = keys
            .into_iter()
            .map(|(j, t, c, _, i)| (j, t, c, i))
            .collect();
        k.sort_unstable();
        k
    };
    assert_eq!(
        strip_node(assignments(sim)),
        strip_node(assignments(live)),
        "{name}: dispatched work items differ"
    );
    let strip_done = |keys: Vec<TaskKey>| -> Vec<(u64, u32, u64)> {
        let mut k: Vec<_> = keys.into_iter().map(|(j, t, c, _, _)| (j, t, c)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(
        strip_done(dones(sim)),
        strip_done(dones(live)),
        "{name}: completed work items differ"
    );
    assert_eq!(
        job_done_order(sim),
        job_done_order(live),
        "{name}: job completion order differs"
    );
    for (tag, events) in [("sim", sim), ("live", live)] {
        let starts = count(events, |e| matches!(e, TraceEvent::CycleStart { .. }));
        let ends = count(events, |e| matches!(e, TraceEvent::CycleEnd { .. }));
        assert_eq!(starts, ends, "{name}/{tag}: unbalanced cycles");
        assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "{name}/{tag}: probe stream not time-ordered"
        );
    }
}

/// Full placement parity, for policies whose tie-breaks are substrate
/// independent (index order / locality, never the wall clock): identical
/// node choices, identical per-node cache evolution, identical hit/miss
/// realization.
fn assert_strict_parity(kind: SchedulerKind) {
    let rig = open(kind);
    let (sim, sim_outcome) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, stats) = rig.live_traced(rig.serial(&WORKLOAD, |_, _| {}));
    let name = kind.name();
    assert_weak_parity(kind, &sim, &live);
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "{name}: task placement diverged between substrates"
    );
    assert_eq!(
        dones(&sim),
        dones(&live),
        "{name}: execution (node, miss) realization diverged"
    );
    assert_eq!(
        cache_loads(&sim),
        cache_loads(&live),
        "{name}: per-node cache contents diverged"
    );
    assert_eq!(
        estimate_chunks(&sim),
        estimate_chunks(&live),
        "{name}: estimate-corrected chunk sets differ"
    );
    assert_eq!(
        (
            sim_outcome.record.cache_hits,
            sim_outcome.record.cache_misses
        ),
        (stats.record.cache_hits, stats.record.cache_misses),
        "{name}: aggregate hit/miss counters differ"
    );
}

#[test]
fn ours_places_identically_on_both_substrates() {
    assert_strict_parity(SchedulerKind::Ours);
}

#[test]
fn fcfsl_places_identically_on_both_substrates() {
    assert_strict_parity(SchedulerKind::Fcfsl);
}

#[test]
fn frac_places_identically_on_both_substrates() {
    // FRAC's interactive pass is OURS verbatim and its share EMA depends
    // only on the committed interactive stream, so placement is fully
    // substrate independent.
    assert_strict_parity(SchedulerKind::Frac);
}

#[test]
fn mobj_places_identically_on_both_substrates() {
    // MOBJ's objective terms (move, wait, fragmentation, starvation age)
    // are all derived from the shared head tables — no wall clock, no
    // substrate-visible tie-breaks.
    assert_strict_parity(SchedulerKind::Mobj);
}

#[test]
fn mobj_adaptive_places_identically_on_both_substrates() {
    // The serialized workload finishes well under retune_every
    // completions, so MOBJ-A never retunes here; this pins down that the
    // feedback plumbing itself (observe_completion on both substrates)
    // does not perturb placement.
    assert_strict_parity(SchedulerKind::MobjAdaptive);
}

#[test]
fn fcfs_work_items_match_across_substrates() {
    // FCFS breaks idle ties with a time-salted hash, so *placement* is
    // substrate-dependent by design; the scheduler-visible work stream
    // must still agree.
    let rig = open(SchedulerKind::Fcfs);
    let (sim, _) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, _) = rig.live_traced(rig.serial(&WORKLOAD, |_, _| {}));
    assert_weak_parity(SchedulerKind::Fcfs, &sim, &live);
}

/// The suite can fail: one placement moved to another node is a
/// different `assignments` projection.
#[test]
fn a_single_moved_placement_breaks_assignment_equality() {
    let (events, _) = open(SchedulerKind::Ours).sim(serial_jobs(&WORKLOAD));
    let mut moved = events.clone();
    let node = moved
        .iter_mut()
        .find_map(|e| match e {
            TraceEvent::Assignment { node, .. } => Some(node),
            _ => None,
        })
        .expect("the run places tasks");
    node.0 += 1;
    assert_ne!(assignments(&events), assignments(&moved));
}

// ---------------------------------------------------------------------
// Overload-policy parity: the admission layer lives inside the shared
// runtime, so both substrates must take identical admission, coalescing,
// expiry, and escalation decisions on identical workloads. Decisions that
// depend on *measured durations* (graduated deadlines, post-warm-up ε
// gates) are legitimately clock-dependent; the tests below pin the
// decision to the workload shape — degenerate knobs (a zero cap, a zero
// deadline, a zero escalation age) or single-cycle windows wide enough
// that wall-clock jitter cannot reorder arrivals across cycles.
// ---------------------------------------------------------------------

/// OURS over the default pair under `overload` and `cycle`.
fn policed(overload: OverloadPolicy, cycle: SimDuration) -> Rig {
    Pair {
        overload,
        cycle,
        ..Pair::default()
    }
    .open()
}

const CYCLE_30MS: SimDuration = SimDuration::from_millis(30);
/// Wide enough that a burst of back-to-back client sends always lands
/// inside one cycle, regardless of thread-scheduling jitter.
const WIDE_CYCLE: SimDuration = SimDuration::from_millis(500);

/// An active policy whose caps are far above anything the serialized
/// workload reaches: the admission layer observes without intervening.
fn permissive_policy() -> OverloadPolicy {
    OverloadPolicy {
        max_in_flight: Some(1000),
        max_per_user: Some(1000),
        deadline: Some(SimDuration::from_secs(120)),
        coalesce_interactive: true,
        batch_escalation_age: Some(SimDuration::from_secs(120)),
    }
}

#[test]
fn permissive_policy_admits_identically_and_preserves_strict_parity() {
    let rig = policed(permissive_policy(), CYCLE_30MS);
    let (sim, sim_outcome) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, stats) = rig.live_traced(rig.serial(&WORKLOAD, |_, reply| {
        reply.expect_frame();
    }));

    assert_weak_parity(SchedulerKind::Ours, &sim, &live);
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "permissive policy must not perturb placement"
    );
    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    // Every job admitted, nothing shed on either substrate.
    assert_eq!(
        decisions,
        (0..WORKLOAD.len() as u64)
            .map(PolicyKey::Admitted)
            .collect::<Vec<_>>()
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.shed(), 0);
}

/// Serial frames over one dataset: the cold first frame buffers for the
/// tick on both substrates; every warm frame after it finds its chunks on
/// free nodes and is scheduled in an early cycle at its own arrival —
/// `admitted` (the permissive policy's arrival stamp) at queue depth 0,
/// and every `assign` of the frame at that same instant.
#[test]
fn warm_frames_take_the_early_cycle_on_both_substrates() {
    const ONE_DATASET: [(u32, f32); 4] = [(0, 0.10), (0, 0.20), (0, 0.30), (0, 0.40)];
    let rig = policed(permissive_policy(), CYCLE_30MS);
    let (sim, _) = rig.sim(serial_jobs(&ONE_DATASET));
    let (live, _) = rig.live_traced(rig.serial(&ONE_DATASET, |_, reply| {
        reply.expect_frame();
    }));
    assert_weak_parity(SchedulerKind::Ours, &sim, &live);
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "early cycles must not perturb placement"
    );
    for (tag, events) in [("sim", &sim), ("live", &live)] {
        let admitted: Vec<(u64, SimTime, usize)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Admitted {
                    now,
                    job,
                    queue_depth,
                } => Some((job.0, *now, *queue_depth)),
                _ => None,
            })
            .collect();
        let depths: Vec<usize> = admitted.iter().map(|&(_, _, d)| d).collect();
        assert_eq!(depths, [1, 0, 0, 0], "{tag}: only the cold frame buffers");
        for &(job, arrival, _) in &admitted[1..] {
            let stamps: Vec<SimTime> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Assignment { now, job: j, .. } if j.0 == job => Some(*now),
                    _ => None,
                })
                .collect();
            assert_eq!(stamps.len(), 4, "{tag}: job {job} places one task per node");
            assert!(
                stamps.iter().all(|&t| t == arrival),
                "{tag}: job {job} arrived at {arrival:?}, assigned at {stamps:?}"
            );
        }
    }
}

#[test]
fn zero_cap_rejects_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        max_in_flight: Some(0),
        ..OverloadPolicy::default()
    };
    let rig = policed(policy, CYCLE_30MS);
    let (sim, sim_outcome) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, stats) = rig.live_traced(rig.serial(&WORKLOAD, |i, reply| {
        assert!(
            matches!(
                reply.outcome,
                RenderOutcome::Rejected(RejectReason::GlobalCap)
            ),
            "frame {i}: expected GlobalCap rejection, got {:?}",
            reply.outcome
        );
    }));

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert_eq!(
        decisions,
        (0..WORKLOAD.len() as u64)
            .map(|j| PolicyKey::Rejected(j, RejectReason::GlobalCap))
            .collect::<Vec<_>>()
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.jobs_completed, 0);
    assert_eq!(
        sim_outcome.record.jobs.len(),
        0,
        "shed jobs leave no record"
    );
}

#[test]
fn zero_deadline_expires_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        deadline: Some(SimDuration::ZERO),
        ..OverloadPolicy::default()
    };
    let rig = policed(policy, CYCLE_30MS);
    let (sim, sim_outcome) = rig.sim(serial_jobs(&WORKLOAD));
    let (live, stats) = rig.live_traced(rig.serial(&WORKLOAD, |i, reply| {
        assert!(
            matches!(
                reply.outcome,
                RenderOutcome::Dropped(DropReason::DeadlineExpired)
            ),
            "frame {i}: expected deadline drop, got {:?}",
            reply.outcome
        );
    }));

    let expected: Vec<PolicyKey> = (0..WORKLOAD.len() as u64)
        .flat_map(|j| [PolicyKey::Admitted(j), PolicyKey::Expired(j)])
        .collect();
    let normalize = |mut keys: Vec<PolicyKey>| {
        keys.sort();
        keys
    };
    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert_eq!(normalize(decisions), normalize(expected));
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.expired, WORKLOAD.len() as u64);
}

#[test]
fn coalescing_supersedes_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        coalesce_interactive: true,
        ..OverloadPolicy::default()
    };
    // Three frames of action 0 and one of action 1, all inside one wide
    // cycle: the two older action-0 frames must be superseded. Issue
    // times start at 1 ms — the sim fires a cycle at t = 0, and a job
    // issued exactly then would dispatch before the rest arrive (a live
    // arrival always lands after the head clock's zero, so its first
    // cycle is the next grid point).
    let jobs = vec![
        interactive_job(0, 0, 0, 1, 0.10),
        interactive_job(1, 0, 0, 2, 0.20),
        interactive_job(2, 1, 1, 3, 0.30),
        interactive_job(3, 0, 0, 4, 0.40),
    ];
    let rig = policed(policy, WIDE_CYCLE);
    let (sim, sim_outcome) = rig.sim(jobs);
    let mut replies: Vec<RenderReply> = Vec::new();
    let (live, stats) = rig.live_traced(|service| {
        let client = ServiceClient::new(UserId(0), service.request_sender());
        let receivers = [
            client.render_interactive(ActionId(0), DatasetId(0), frame(0.10)),
            client.render_interactive(ActionId(0), DatasetId(0), frame(0.20)),
            client.render_interactive(ActionId(1), DatasetId(1), frame(0.30)),
            client.render_interactive(ActionId(0), DatasetId(0), frame(0.40)),
        ];
        replies.extend(receivers.iter().map(|rx| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every frame gets a reply")
        }));
    });

    // Frames 0 and 1 superseded (by 1 then by 3); frames 2 and 3 render.
    assert!(matches!(
        replies[0].outcome,
        RenderOutcome::Dropped(DropReason::Superseded)
    ));
    assert!(matches!(
        replies[1].outcome,
        RenderOutcome::Dropped(DropReason::Superseded)
    ));
    assert!(matches!(replies[2].outcome, RenderOutcome::Frame(_)));
    assert!(matches!(replies[3].outcome, RenderOutcome::Frame(_)));

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert!(decisions.contains(&PolicyKey::Coalesced {
        superseded: 0,
        by: 1
    }));
    assert!(decisions.contains(&PolicyKey::Coalesced {
        superseded: 1,
        by: 3
    }));
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.coalesced, 2);
    assert_eq!(stats.jobs_completed, 2);
}

#[test]
fn zero_escalation_age_escalates_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        batch_escalation_age: Some(SimDuration::ZERO),
        ..OverloadPolicy::default()
    };
    // One interactive job occupies every node in the arrival cycle (the
    // parity datasets brick into exactly one chunk per node), so the ε gate
    // defers the whole cold batch on both substrates; the zero
    // anti-starvation age then escalates it wholesale at the next cycle.
    // Issue times start at 1 ms so every job buffers into the same cycle
    // (the sim fires a cycle at t = 0 that would dispatch the
    // interactive job alone and leave the batch undeferred).
    let jobs = vec![
        interactive_job(0, 0, 0, 1, 0.10),
        Job {
            id: JobId(1),
            kind: JobKind::Batch {
                user: UserId(1),
                request: BatchId(0),
                frame: 0,
            },
            dataset: DatasetId(1),
            issue_time: SimTime::from_millis(2),
            frame: frame(0.50),
        },
        Job {
            id: JobId(2),
            kind: JobKind::Batch {
                user: UserId(1),
                request: BatchId(0),
                frame: 1,
            },
            dataset: DatasetId(1),
            issue_time: SimTime::from_millis(3),
            frame: frame(0.60),
        },
    ];
    let rig = policed(policy, WIDE_CYCLE);
    let (sim, sim_outcome) = rig.sim(jobs);
    let (live, stats) = rig.live_traced(|service| {
        let interactive = ServiceClient::new(UserId(0), service.request_sender());
        let batch_user = ServiceClient::new(UserId(1), service.request_sender());
        let rx_int = interactive.render_interactive(ActionId(0), DatasetId(0), frame(0.10));
        let batch_frames = [frame(0.50), frame(0.60)];
        let rx_batch = batch_user.render_batch(BatchId(0), DatasetId(1), &batch_frames);
        rx_int
            .recv_timeout(Duration::from_secs(60))
            .expect("interactive frame")
            .expect_frame();
        for _ in 0..batch_frames.len() {
            rx_batch
                .recv_timeout(Duration::from_secs(60))
                .expect("batch frame")
                .expect_frame();
        }
    });

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert!(
        decisions.contains(&PolicyKey::Escalated(1))
            && decisions.contains(&PolicyKey::Escalated(2)),
        "both batch jobs escalate: {decisions:?}"
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.escalated, 2);
    // Escalation is a promotion, not a drop: all three jobs complete.
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(sim_outcome.incomplete_jobs, 0);
}
