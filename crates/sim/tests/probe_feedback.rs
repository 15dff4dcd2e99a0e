//! Probe-observed prediction feedback: start `Estimate[c]` from a prior
//! the cluster's disks make wrong and watch the shared runtime's
//! corrections pull the head node's predictions back to reality, cycle
//! over cycle.

use std::sync::Arc;
use vizsched_core::prelude::*;
use vizsched_metrics::{estimate_trajectory, prediction_by_cycle, CollectingProbe, TraceEvent};
use vizsched_sim::{RunOptions, SimConfig, Simulation};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

fn interactive(id: u64, action: u64, at: SimTime) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(action as u32),
            action: ActionId(action),
        },
        dataset: DatasetId(0),
        issue_time: at,
        frame: FrameParams::default(),
    }
}

/// Four nodes, one 2 GiB dataset, cold caches, execution jittered by
/// `exec_jitter`.
fn small_sim(exec_jitter: f64) -> Simulation {
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let mut config = SimConfig::new(cluster, CostParams::default());
    config.exec_jitter = exec_jitter;
    Simulation::new(config, uniform_datasets(1, 2 * GIB), 512 * MIB)
}

/// As [`small_sim`] without jitter, but every node's disk reads at 1/20
/// of the cost model's bandwidth: the model's `Estimate[c]` prior is
/// about 65 s too optimistic for each 512 MiB chunk.
fn slow_disk_sim() -> Simulation {
    let mut cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    for node in &mut cluster.nodes {
        node.disk_scale = 0.05;
    }
    let config = SimConfig::new(cluster, CostParams::default());
    Simulation::new(config, uniform_datasets(1, 2 * GIB), 512 * MIB)
}

#[test]
fn wrong_estimate_prior_converges_under_correction() {
    let probe = Arc::new(CollectingProbe::new());
    let jobs: Vec<Job> = (0..12)
        .map(|i| interactive(i, i, SimTime::from_millis(200 * i)))
        .collect();
    let outcome = slow_disk_sim().run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("feedback")
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let events = probe.take();

    // The first miss of each chunk replaces the model's prior with the
    // observed time: one large correction per chunk, nothing after.
    let trajectory = estimate_trajectory(&events);
    assert_eq!(
        trajectory.len(),
        4,
        "one correction per chunk on its first miss"
    );
    for point in &trajectory {
        assert!(
            point.error > SimDuration::from_secs(50),
            "correction must discard the wrong prior (|old-new| = {})",
            point.error
        );
    }

    // Per-cycle prediction error must collapse once the corrections land:
    // the first cycle schedules against the model's prior, later cycles
    // against measurements.
    let cycles = prediction_by_cycle(&events);
    assert!(
        cycles.len() >= 3,
        "expected several scheduling cycles, got {}",
        cycles.len()
    );
    let first = cycles.first().unwrap();
    let last = cycles.last().unwrap();
    assert!(
        first.mean_exec_error > SimDuration::from_secs(50),
        "first cycle predicts with the wrong prior (err = {})",
        first.mean_exec_error
    );
    assert!(
        last.mean_exec_error < SimDuration::from_millis(100),
        "corrected estimates must predict within jitter (err = {})",
        last.mean_exec_error
    );
    assert!(
        last.mean_exec_error * 10 < first.mean_exec_error,
        "error must shrink >10x"
    );
}

/// The simulator never learns `α`: with jittered execution, every
/// prediction is still the model's — `α` on a predicted hit, `Estimate[c]`'s
/// I/O plus `α` on a miss — although the nodes render off-model.
#[test]
fn simulated_predictions_charge_the_model_alpha() {
    let probe = Arc::new(CollectingProbe::new());
    let jobs: Vec<Job> = (0..12)
        .map(|i| interactive(i, i % 3, SimTime::from_millis(100 * i)))
        .collect();
    let outcome = small_sim(0.1).run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("model-alpha")
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let cost = CostParams::default();
    // One dataset of four 512 MiB chunks on four nodes: group 4 throughout.
    let alpha = cost.alpha(512 * MIB, 4);
    let mut io: std::collections::HashMap<ChunkId, SimDuration> = Default::default();
    let (mut hits, mut off_model) = (0, 0);
    for event in probe.take() {
        match event {
            TraceEvent::EstimateCorrection { chunk, new, .. } => {
                io.insert(chunk, new);
            }
            TraceEvent::Assignment {
                chunk,
                predicted_exec,
                ..
            } => {
                let miss = io.get(&chunk).copied().unwrap_or(cost.io_time(512 * MIB)) + alpha;
                assert!(
                    predicted_exec == alpha || predicted_exec == miss,
                    "{chunk}: predicted {predicted_exec}, model {alpha} or {miss}"
                );
                hits += usize::from(predicted_exec == alpha);
            }
            TraceEvent::TaskDone { exec, miss, .. } => {
                off_model += usize::from(!miss && exec != alpha)
            }
            _ => {}
        }
    }
    assert!(hits > 0, "some placements are predicted hits");
    assert!(off_model > 0, "jitter moves real renders off the model");
}

#[test]
fn probe_event_stream_is_conserved() {
    let probe = Arc::new(CollectingProbe::new());
    let jobs: Vec<Job> = (0..8)
        .map(|i| interactive(i, i % 2, SimTime::from_millis(150 * i)))
        .collect();
    let outcome = small_sim(0.0).run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("conserve")
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let events = probe.take();

    let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let starts = count(&|e| matches!(e, TraceEvent::CycleStart { .. }));
    let ends = count(&|e| matches!(e, TraceEvent::CycleEnd { .. }));
    let assigns = count(&|e| matches!(e, TraceEvent::Assignment { .. }));
    let dones = count(&|e| matches!(e, TraceEvent::TaskDone { .. }));
    let jobs_done = count(&|e| matches!(e, TraceEvent::JobDone { .. }));
    assert_eq!(starts, ends, "every cycle start has a matching end");
    assert_eq!(
        assigns, dones,
        "every assignment completes (no faults injected)"
    );
    assert_eq!(jobs_done, 8, "every job reports completion");
    // Events arrive in non-decreasing simulated time.
    assert!(events.windows(2).all(|w| w[0].time() <= w[1].time()));
}
