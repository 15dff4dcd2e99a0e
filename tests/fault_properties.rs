//! Property-based chaos tests: random seedable [`FaultPlan`] schedules —
//! node crashes/respawns, slow-node degradations, correlated leaf
//! outages, shard-head crashes — over random clusters, shard counts, and
//! workloads, across every registry policy. Two invariants must
//! hold no matter what the plan throws at the control plane:
//!
//! 1. **No admitted job is ever lost.** Every job the head admits
//!    finishes (`incomplete_jobs == 0`); faults may reroute or delay
//!    work, never drop it.
//! 2. **Pinned interactive sessions never migrate.** Batch jobs may be
//!    stolen off a saturated or failed shard, but an interactive
//!    session's frames stay on the shard the router pinned them to —
//!    failover re-admits them (`shard_assigned`), it does not migrate
//!    them (`shard_migrated`).

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// How many policies `policy` picks from: the six headline schedulers
/// plus the extended-policy entries.
const POLICIES: usize = SchedulerKind::ALL.len() + SchedulerKind::EXTENDED.len();

/// The registry policy at `pick`, which must be below [`POLICIES`].
fn policy(pick: usize) -> SchedulerKind {
    *SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::EXTENDED.iter())
        .nth(pick)
        .expect("pick < POLICIES")
}

#[derive(Clone, Debug)]
struct ChaosCase {
    nodes: usize,
    shards: usize,
    datasets: u32,
    jobs: Vec<(u32, bool, u64)>, // (dataset, interactive, issue_ms)
    kind_pick: usize,
    fault_seed: u64,
}

fn chaos_case() -> impl Strategy<Value = ChaosCase> {
    (
        2usize..10,
        0usize..4,
        1u32..4,
        prop::collection::vec((0u32..4, any::<bool>(), 0u64..6_000), 1..40),
        0usize..POLICIES,
        any::<u64>(),
    )
        .prop_map(
            |(nodes, shard_pick, datasets, mut jobs, kind_pick, fault_seed)| {
                for job in &mut jobs {
                    job.0 %= datasets;
                }
                jobs.sort_by_key(|j| j.2);
                ChaosCase {
                    nodes,
                    shards: (1 + shard_pick).min(nodes),
                    datasets,
                    jobs,
                    kind_pick,
                    fault_seed,
                }
            },
        )
}

fn build(case: &ChaosCase) -> (Simulation, Vec<Job>) {
    let cluster = ClusterSpec::homogeneous(case.nodes, 2 * GIB);
    let config = SimConfig::new(cluster, CostParams::default());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random fault schedules never lose an admitted job and never
    /// migrate a pinned interactive session, for every registry policy.
    #[test]
    fn random_fault_plans_lose_nothing_and_pin_interactives(case in chaos_case()) {
        let kind = policy(case.kind_pick);
        let (sim, jobs) = build(&case);
        let plan = FaultPlan::random(
            case.fault_seed,
            case.nodes,
            case.shards,
            SimDuration::from_secs(10),
        );
        let interactive: HashSet<u64> = jobs
            .iter()
            .filter(|j| j.kind.is_interactive())
            .map(|j| j.id.0)
            .collect();
        let total = jobs.len();

        let probe = Arc::new(CollectingProbe::new());
        let outcome = sim.run_opts(
            jobs,
            RunOptions::new(kind)
                .label("fault-prop")
                .shards(case.shards)
                .fault_plan(plan.clone())
                .probe(probe.clone()),
        );

        // Invariant 1: zero admitted-job loss. Every admitted job
        // completes; the only jobs missing from the record are the ones
        // degraded mode *refused at admission* (shed batch work), never
        // silently dropped — and degraded mode protects interactive
        // sessions, so only batch jobs may be shed.
        prop_assert_eq!(
            outcome.incomplete_jobs, 0,
            "{} lost admitted jobs under plan {:?}", kind.name(), plan
        );
        let events = probe.take();
        let mut shed = 0usize;
        for event in &events {
            if let TraceEvent::Rejected { job, reason, .. } = event {
                shed += 1;
                prop_assert_eq!(
                    *reason, vizsched_metrics::RejectReason::Degraded,
                    "{}: only degraded-mode shedding may refuse jobs here", kind.name()
                );
                prop_assert!(
                    !interactive.contains(&job.0),
                    "{}: degraded mode shed interactive job {}", kind.name(), job.0
                );
            }
        }
        prop_assert_eq!(
            outcome.record.jobs.len() + shed, total,
            "{}: completed + shed must account for the full workload", kind.name()
        );

        // Invariant 2: pinned interactive sessions never migrate. Only
        // batch jobs may appear in `shard_migrated` events; interactive
        // re-admission after a shard failure uses `shard_assigned`.
        for event in &events {
            if let TraceEvent::ShardMigrated { job, from, to, .. } = event {
                prop_assert!(
                    !interactive.contains(&job.0),
                    "{}: interactive job {} migrated {:?} -> {:?}",
                    kind.name(), job.0, from, to
                );
            }
        }

        // Every scheduled fault the run reached is visible in the trace:
        // fault injection is observable, not silent.
        let injected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
            .count();
        prop_assert!(
            injected <= plan.len(),
            "more fault_injected events ({injected}) than planned ({})",
            plan.len()
        );
    }
}
