//! Property-based tests over every registry policy: completeness
//! (every task assigned exactly once, eventually — also when deferred work
//! is escalated mid-drain), validity (live nodes only), determinism, and
//! the head runtime's early cycle equal to the tick it replaces.

use proptest::prelude::*;
use std::sync::Arc;
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, JobId, NodeId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::sched::{Assignment, ScheduleCtx, SchedulerKind, Trigger};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::NoopProbe;
use vizsched_runtime::{Admission, Completion, HeadRuntime, Substrate};

const GIB: u64 = 1 << 30;
/// How many policies a `kind_pick` indexes: the paper's six plus the
/// extended-policy entries.
const POLICIES: usize = SchedulerKind::ALL.len() + SchedulerKind::EXTENDED.len();

#[derive(Clone, Debug)]
struct JobSpec {
    dataset: u32,
    interactive: bool,
    user: u32,
}

fn job_specs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (0u32..4, any::<bool>(), 0u32..5).prop_map(|(dataset, interactive, user)| JobSpec {
            dataset,
            interactive,
            user,
        }),
        1..25,
    )
}

fn build_jobs(specs: &[JobSpec]) -> Vec<Job> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| Job {
            id: JobId(i as u64),
            kind: if s.interactive {
                JobKind::Interactive {
                    user: UserId(s.user),
                    action: ActionId(s.user as u64),
                }
            } else {
                JobKind::Batch {
                    user: UserId(s.user),
                    request: BatchId(i as u64),
                    frame: 0,
                }
            },
            dataset: DatasetId(s.dataset),
            issue_time: SimTime::ZERO,
            frame: FrameParams::default(),
        })
        .collect()
}

/// Drive a scheduler to quiescence: invoke with the jobs, then keep
/// invoking with empty input (advancing time and freeing nodes) until
/// nothing is deferred. Before drain round `escalate_at` (0 = never) the
/// anti-starvation hook promotes everything still deferred — a no-op for
/// policies with the default hook; for the cycle policies it sends the
/// backlog through the shared escalation path and the next interactive
/// pass.
fn drain(kind: SchedulerKind, nodes: usize, jobs: Vec<Job>, escalate_at: u32) -> Vec<Assignment> {
    let cluster = ClusterSpec::homogeneous(nodes, 2 * GIB);
    let mut tables = HeadTables::new(&cluster);
    let mut sched = kind.build(SimDuration::from_millis(30));
    let catalog = Catalog::new(
        uniform_datasets(4, 2 * GIB),
        sched.decomposition(512 << 20, nodes as u32),
    );
    let cost = CostParams::default();

    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    {
        let mut ctx = ScheduleCtx {
            now,
            tables: &mut tables,
            catalog: &catalog,
            cost: &cost,
        };
        out.extend(sched.schedule(&mut ctx, jobs));
    }
    let mut rounds = 0;
    while sched.has_deferred() {
        rounds += 1;
        assert!(rounds < 10_000, "{} failed to drain", kind.name());
        now += SimDuration::from_secs(30);
        if rounds == escalate_at {
            // Everything was deferred at t = 0, so every held task is aged.
            let report = sched.escalate_deferred(now, SimDuration::from_secs(30));
            assert!(
                report.windows(2).all(|w| w[0].0 < w[1].0),
                "{}: escalation reports each job once, in job order: {report:?}",
                kind.name()
            );
            assert!(report
                .iter()
                .all(|&(_, waited)| waited == now - SimTime::ZERO));
        }
        // All nodes idle again.
        for k in 0..nodes {
            tables
                .available
                .correct(vizsched_core::ids::NodeId(k as u32), now);
        }
        let mut ctx = ScheduleCtx {
            now,
            tables: &mut tables,
            catalog: &catalog,
            cost: &cost,
        };
        out.extend(sched.schedule(&mut ctx, Vec::new()));
    }
    out
}

/// A substrate that keeps what the runtime dispatches.
#[derive(Default)]
struct Recorder(Vec<Assignment>);

impl Substrate for Recorder {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        self.0.push(*assignment);
        true
    }
}

/// A head runtime for `kind` over the four-dataset catalog.
fn head(kind: SchedulerKind, nodes: usize) -> HeadRuntime {
    let cluster = ClusterSpec::homogeneous(nodes, 2 * GIB);
    let sched = kind.build(SimDuration::from_millis(30));
    let catalog = Catalog::new(
        uniform_datasets(4, 2 * GIB),
        sched.decomposition(512 << 20, nodes as u32),
    );
    let cost = CostParams::default();
    HeadRuntime::new(
        sched,
        HeadTables::new(&cluster),
        catalog,
        cost,
        Arc::new(NoopProbe),
        "early-cycle",
    )
}

/// Arrive `jobs` at `now` (on the ω grid), then tick every 30 s until
/// nothing is buffered or held, every dispatched task completing 1 ms
/// after its cycle. Returns the last completion time: every node is free
/// by then.
fn settle(rt: &mut HeadRuntime, sub: &mut Recorder, mut now: SimTime, jobs: Vec<Job>) -> SimTime {
    for job in jobs {
        rt.on_job_arrival(sub, now, job);
    }
    for _ in 0..10_000 {
        rt.on_cycle(sub, now);
        let done = now + SimDuration::from_millis(1);
        for a in sub.0.drain(..) {
            rt.on_task_done(
                done,
                Completion {
                    node: a.node,
                    job: a.task.job,
                    task: a.task.index,
                    chunk: a.task.chunk,
                    started: now,
                    finish: done,
                    io: SimDuration::ZERO,
                    miss: false,
                    evicted: Vec::new(),
                    gpu_resident: false,
                    gpu_evicted: Vec::new(),
                },
            );
        }
        if rt.queued_jobs() == 0 && !rt.has_deferred() {
            return done;
        }
        now += SimDuration::from_secs(30);
    }
    panic!("{} failed to settle", rt.scheduler_name());
}

/// An interactive frame of user 9 over `dataset`.
fn frame_job(id: u64, dataset: u32, at: SimTime) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(9),
            action: ActionId(id),
        },
        dataset: DatasetId(dataset),
        issue_time: at,
        frame: FrameParams::default(),
    }
}

/// `kind` after random traffic, then one frame over `dataset` so its
/// chunks are cached last; the probe frame arrives 7 ms after everything
/// finished, off the ω grid, with every node free.
fn primed(
    kind: SchedulerKind,
    nodes: usize,
    specs: &[JobSpec],
    dataset: u32,
) -> (HeadRuntime, Recorder, SimTime) {
    let mut rt = head(kind, nodes);
    let mut sub = Recorder::default();
    let done = settle(&mut rt, &mut sub, SimTime::ZERO, build_jobs(specs));
    let tick = SimTime::from_secs(done.as_micros() / 1_000_000 + 30);
    let warm = frame_job(specs.len() as u64, dataset, tick);
    let done = settle(&mut rt, &mut sub, tick, vec![warm]);
    (rt, sub, done + SimDuration::from_millis(7))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every cycle policy, a warm frame that takes the early path
    /// makes exactly the placements of a twin that buffers the same frame
    /// and runs `on_cycle` at the same instant: the early cycle is that
    /// tick, moved to the arrival.
    #[test]
    fn early_cycle_equals_the_tick_at_the_same_instant(
        specs in job_specs(),
        nodes in 1usize..9,
        kind_pick in 0usize..POLICIES,
        dataset in 0u32..4,
    ) {
        let kind = *SchedulerKind::ALL
            .iter()
            .chain(SchedulerKind::EXTENDED.iter())
            .nth(kind_pick)
            .unwrap();
        prop_assume!(matches!(
            kind.build(SimDuration::from_millis(30)).trigger(),
            Trigger::Cycle(_)
        ));
        let id = specs.len() as u64 + 1;

        let (mut early, mut early_sub, now) = primed(kind, nodes, &specs, dataset);
        let admission = early.on_job_arrival(&mut early_sub, now, frame_job(id, dataset, now));
        prop_assert_eq!(admission, Admission::Scheduled, "policy {}", kind.name());
        prop_assert!(early_sub.0.iter().any(|a| a.predicted_start == now));

        // The twin hides its free nodes for the arrival so the frame
        // buffers, then ticks at the same instant.
        let (mut twin, mut twin_sub, at) = primed(kind, nodes, &specs, dataset);
        prop_assert_eq!(at, now);
        let free: Vec<SimTime> = (0..nodes as u32)
            .map(|k| twin.tables().available.get(NodeId(k)))
            .collect();
        for k in 0..nodes as u32 {
            twin.tables_mut().available.correct(NodeId(k), SimTime::MAX);
        }
        let admission = twin.on_job_arrival(&mut twin_sub, now, frame_job(id, dataset, now));
        prop_assert!(matches!(admission, Admission::Buffered { .. }));
        for (k, &t) in free.iter().enumerate() {
            twin.tables_mut().available.correct(NodeId(k as u32), t);
        }
        prop_assert!(twin.on_cycle(&mut twin_sub, now).invoked);

        let key = |a: &Assignment| (a.task, a.node, a.predicted_start, a.predicted_exec, a.group);
        let early_keys: Vec<_> = early_sub.0.iter().map(key).collect();
        let twin_keys: Vec<_> = twin_sub.0.iter().map(key).collect();
        prop_assert_eq!(early_keys, twin_keys, "policy {}", kind.name());
    }

    /// Every policy eventually assigns every task of every job exactly
    /// once, and only to valid nodes.
    #[test]
    fn all_tasks_assigned_exactly_once(
        specs in job_specs(),
        nodes in 1usize..9,
        kind_pick in 0usize..POLICIES,
        escalate_at in 0u32..4,
    ) {
        // The paper's six plus the post-paper family (MOBJ).
        let kind = *SchedulerKind::ALL
            .iter()
            .chain(SchedulerKind::EXTENDED.iter())
            .nth(kind_pick)
            .unwrap();
        let jobs = build_jobs(&specs);
        let sched = kind.build(SimDuration::from_millis(30));
        let catalog = Catalog::new(
            uniform_datasets(4, 2 * GIB),
            sched.decomposition(512 << 20, nodes as u32),
        );
        drop(sched);
        let mut expected: Vec<(JobId, u32)> = jobs
            .iter()
            .flat_map(|j| (0..catalog.task_count(j.dataset)).map(move |t| (j.id, t)))
            .collect();
        let out = drain(kind, nodes, jobs, escalate_at);
        let mut got: Vec<(JobId, u32)> =
            out.iter().map(|a| (a.task.job, a.task.index)).collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got, "policy {}", kind.name());
        prop_assert!(out.iter().all(|a| a.node.index() < nodes));
    }

    /// Scheduling is deterministic: identical inputs, identical outputs.
    #[test]
    fn scheduling_is_deterministic(
        specs in job_specs(),
        nodes in 1usize..9,
        kind_pick in 0usize..POLICIES,
        escalate_at in 0u32..4,
    ) {
        let kind = *SchedulerKind::ALL
            .iter()
            .chain(SchedulerKind::EXTENDED.iter())
            .nth(kind_pick)
            .unwrap();
        let a = drain(kind, nodes, build_jobs(&specs), escalate_at);
        let b = drain(kind, nodes, build_jobs(&specs), escalate_at);
        prop_assert_eq!(a, b);
    }

    /// Predicted start times never precede `now`, and the Available table
    /// is pushed by exactly the predicted execution.
    #[test]
    fn predictions_are_consistent(specs in job_specs(), nodes in 1usize..9) {
        let jobs = build_jobs(&specs);
        let cluster = ClusterSpec::homogeneous(nodes, 2 * GIB);
        let mut tables = HeadTables::new(&cluster);
        let mut sched = SchedulerKind::Ours.build(SimDuration::from_millis(30));
        let catalog = Catalog::new(
            uniform_datasets(4, 2 * GIB),
            sched.decomposition(512 << 20, nodes as u32),
        );
        let cost = CostParams::default();
        let now = SimTime::from_secs(5);
        let mut ctx = ScheduleCtx { now, tables: &mut tables, catalog: &catalog, cost: &cost };
        let out = sched.schedule(&mut ctx, jobs);
        for a in &out {
            prop_assert!(a.predicted_start >= now);
            prop_assert!(a.predicted_exec > SimDuration::ZERO);
        }
        // Each node's final Available equals the sum of its assignments'
        // predicted execs on top of `now` (nodes started idle).
        for k in 0..nodes {
            let node = vizsched_core::ids::NodeId(k as u32);
            let sum = out
                .iter()
                .filter(|a| a.node == node)
                .fold(SimDuration::ZERO, |acc, a| acc + a.predicted_exec);
            if sum > SimDuration::ZERO {
                prop_assert_eq!(tables.available.get(node), now + sum);
            } else {
                // Untouched nodes keep their initial availability.
                prop_assert_eq!(tables.available.get(node), SimTime::ZERO);
            }
        }
    }
}
