//! Property-based tests of the discrete-event engine: conservation and
//! ordering invariants over randomized workloads, schedulers, cluster
//! shapes, and fault injections.

use proptest::prelude::*;
use std::sync::Arc;
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

#[derive(Clone, Debug)]
struct WorkloadCase {
    nodes: usize,
    datasets: u32,
    jobs: Vec<(u32, bool, u64)>, // (dataset, interactive, issue_ms)
    kind_pick: usize,
    warm: bool,
    jitter: bool,
}

fn workload_case() -> impl Strategy<Value = WorkloadCase> {
    (
        1usize..6,
        1u32..4,
        prop::collection::vec((0u32..4, any::<bool>(), 0u64..2_000), 1..40),
        0usize..6,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(nodes, datasets, mut jobs, kind_pick, warm, jitter)| {
            for job in &mut jobs {
                job.0 %= datasets;
            }
            jobs.sort_by_key(|j| j.2);
            WorkloadCase {
                nodes,
                datasets,
                jobs,
                kind_pick,
                warm,
                jitter,
            }
        })
}

fn build(case: &WorkloadCase) -> (Simulation, Vec<Job>) {
    let cluster = ClusterSpec::homogeneous(case.nodes, 2 * GIB);
    let mut config = SimConfig::new(cluster, CostParams::default());
    config.warm_start = case.warm;
    config.exec_jitter = if case.jitter { 0.05 } else { 0.0 };
    let sim = Simulation::new(config, uniform_datasets(case.datasets, 2 * GIB), 512 * MIB);
    let jobs: Vec<Job> = case
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(dataset, interactive, ms))| Job {
            id: JobId(i as u64),
            kind: if interactive {
                JobKind::Interactive {
                    user: UserId((i % 3) as u32),
                    action: ActionId((i % 3) as u64),
                }
            } else {
                JobKind::Batch {
                    user: UserId(9),
                    request: BatchId(i as u64),
                    frame: 0,
                }
            },
            dataset: DatasetId(dataset),
            issue_time: SimTime::from_millis(ms),
            frame: FrameParams::default(),
        })
        .collect();
    (sim, jobs)
}

/// Every executed task as `(node, start, finish)`, read off the probe's
/// `task_done` events.
fn task_spans(probe: &CollectingProbe) -> Vec<(NodeId, SimTime, SimTime)> {
    probe
        .take()
        .into_iter()
        .filter_map(|event| match event {
            TraceEvent::TaskDone {
                node, started, now, ..
            } => Some((node, started, now)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every job completes; executed tasks equal decomposed
    /// tasks; hits + misses account for every execution.
    #[test]
    fn tasks_and_jobs_are_conserved(case in workload_case()) {
        let kind = SchedulerKind::ALL[case.kind_pick];
        let (sim, jobs) = build(&case);
        let total_jobs = jobs.len();
        let probe = Arc::new(CollectingProbe::new());
        let outcome = sim.run_opts(jobs, RunOptions::new(kind).label("prop").probe(probe.clone()));
        prop_assert_eq!(outcome.incomplete_jobs, 0, "{}", kind.name());
        prop_assert_eq!(outcome.record.jobs.len(), total_jobs);
        let decomposed: u64 = outcome.record.jobs.iter().map(|j| u64::from(j.tasks)).sum();
        prop_assert_eq!(outcome.record.cache_hits + outcome.record.cache_misses, decomposed);
        prop_assert_eq!(task_spans(&probe).len() as u64, decomposed);
    }

    /// Ordering: JS ≥ JI, JF ≥ JS, latency ≥ execution, makespan = max JF.
    #[test]
    fn timing_invariants_hold(case in workload_case()) {
        let kind = SchedulerKind::ALL[case.kind_pick];
        let (sim, jobs) = build(&case);
        let outcome = sim.run_opts(jobs, RunOptions::new(kind).label("prop"));
        let mut max_finish = SimTime::ZERO;
        for job in &outcome.record.jobs {
            let start = job.timing.start.expect("all jobs started");
            let finish = job.timing.finish.expect("all jobs finished");
            prop_assert!(start >= job.timing.issue);
            prop_assert!(finish >= start);
            prop_assert!(job.timing.latency().unwrap() >= job.timing.execution().unwrap());
            prop_assert!(job.misses <= job.tasks);
            max_finish = max_finish.max(finish);
        }
        prop_assert_eq!(outcome.record.makespan, max_finish);
    }

    /// The trace never shows a node running two tasks at once.
    #[test]
    fn nodes_never_overlap(case in workload_case()) {
        let kind = SchedulerKind::ALL[case.kind_pick];
        let (sim, jobs) = build(&case);
        let probe = Arc::new(CollectingProbe::new());
        sim.run_opts(jobs, RunOptions::new(kind).label("prop").probe(probe.clone()));
        let mut per_node: std::collections::HashMap<u32, Vec<(SimTime, SimTime)>> =
            std::collections::HashMap::new();
        for (node, start, finish) in task_spans(&probe) {
            per_node.entry(node.0).or_default().push((start, finish));
        }
        for (node, mut spans) in per_node {
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0,
                    "node {node} overlaps: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// A crash plus recovery still conserves jobs (with at least 2 nodes so
    /// the survivors can absorb the re-placed work).
    #[test]
    fn faults_do_not_lose_jobs(case in workload_case(), crash_ms in 1u64..3_000) {
        prop_assume!(case.nodes >= 2);
        let kind = SchedulerKind::ALL[case.kind_pick];
        let (sim, jobs) = build(&case);
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_millis(crash_ms), NodeId(0))
            .respawn_at(SimTime::from_millis(crash_ms + 30_000), NodeId(0));
        let total = jobs.len();
        let outcome = sim.run_opts(jobs, RunOptions::new(kind).label("fault").fault_plan(plan));
        prop_assert_eq!(outcome.incomplete_jobs, 0, "{}", kind.name());
        prop_assert_eq!(outcome.record.jobs.len(), total);
    }
}
