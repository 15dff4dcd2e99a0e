//! The scheduling framework: the [`Scheduler`] trait, its invocation
//! context, the six policies evaluated in the paper, and the post-paper
//! multi-objective policy (MOBJ) built on the same surface.
//!
//! | Policy | Module | Locality | Trigger | Decomposition |
//! |--------|--------|----------|---------|---------------|
//! | FCFS   | [`fcfs`]  | no  | per arrival | `Chk_max` |
//! | FCFSL  | [`fcfsl`] | yes | per arrival | `Chk_max` |
//! | FCFSU  | [`fcfsu`] | implicit (fixed mapping) | per arrival | uniform (`m = p`) |
//! | SF     | [`sf`]    | no  | cycle window | `Chk_max` |
//! | FS     | [`fs`]    | no  | cycle | `Chk_max` |
//! | OURS   | [`ours`]  | yes + batch deferral | cycle | `Chk_max` |
//! | FSD    | [`fsd`]   | delay scheduling (extension) | cycle | `Chk_max` |
//! | MOBJ   | [`mobj`]  | weighted objective vector | cycle | `Chk_max` |
//!
//! A scheduler maps queued jobs to per-node task assignments, updating the
//! head tables optimistically as it goes; the execution substrate (the
//! discrete-event simulator or the live service) later corrects the tables
//! with observed reality. See `docs/POLICY_GUIDE.md` for the end-to-end
//! recipe for adding a policy.

mod cycle;
pub mod fcfs;
pub mod fcfsl;
pub mod fcfsu;
pub mod fs;
pub mod fsd;
pub mod mobj;
pub mod ours;
pub mod reference;
pub mod sf;

use crate::cost::CostParams;
use crate::data::{Catalog, DecompositionPolicy};
use crate::ids::{ChunkId, JobId, NodeId};
use crate::job::{Job, Task};
use crate::rng;
use crate::tables::{AvailHeap, HeadTables};
use crate::time::{SimDuration, SimTime};

pub use fcfs::FcfsScheduler;
pub use fcfsl::FcfslScheduler;
pub use fcfsu::FcfsuScheduler;
pub use fs::FsScheduler;
pub use fsd::FsdScheduler;
pub use mobj::MobjScheduler;
pub use ours::{OursParams, OursScheduler};
pub use reference::{ReferenceFcfslScheduler, ReferenceMobjScheduler, ReferenceOursScheduler};
pub use sf::SfScheduler;

/// When the dispatching thread invokes a scheduler.
///
/// The trigger is the policy's contract with the head runtime: per-arrival
/// policies are invoked once per job the moment it is queued; cycle-based
/// policies are invoked every `ω` and see *every* job that arrived during
/// the window, which is what lets them amortize one table pass over many
/// jobs (the Fig. 8 effect).
///
/// One exception keeps an idle head from charging a frame the wait for
/// the next tick: the head runtime may invoke a cycle policy off the ω
/// grid, with exactly one interactive job, when nothing is buffered or
/// deferred and every chunk of the job is cached on a node free now
/// ([`HeadTables::warm_and_free_by`]). That call equals a tick fired at
/// that instant, so a policy sees nothing it could not see on the grid.
/// It does give up grouping the job with arrivals later in the same
/// window, which now meet tables already charged with it, so later
/// placements can differ from a tick-only head's. Per-cycle state must
/// key on `ctx.now`, not on the number of calls (see
/// `docs/POLICY_GUIDE.md`).
///
/// ```
/// use vizsched_core::sched::{SchedulerKind, Trigger};
/// use vizsched_core::time::SimDuration;
///
/// let omega = SimDuration::from_millis(30);
/// let ours = SchedulerKind::Ours.build(omega);
/// assert_eq!(ours.trigger(), Trigger::Cycle(omega));
///
/// let fcfs = SchedulerKind::Fcfs.build(omega);
/// assert_eq!(fcfs.trigger(), Trigger::OnArrival);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Immediately, once per arriving job (the FCFS family).
    OnArrival,
    /// Periodically, every `ω` (OURS, FS, SF) — amortizing scheduling work
    /// over all jobs that arrived during the cycle.
    Cycle(SimDuration),
}

/// One task pinned to one rendering node.
///
/// Assignments are what every scheduler returns and what the substrate
/// executes; the predicted fields are the optimistic `Available`-table
/// bookkeeping at commit time, later corrected against reality (§V-B).
///
/// ```
/// use vizsched_core::prelude::*;
/// use vizsched_core::sched::{ScheduleCtx, Scheduler, SchedulerKind};
///
/// let cluster = ClusterSpec::homogeneous(4, 2 << 30);
/// let mut tables = HeadTables::new(&cluster);
/// let catalog = Catalog::new(
///     uniform_datasets(1, 2 << 30),
///     DecompositionPolicy::MaxChunkSize { max_bytes: 512 << 20 },
/// );
/// let cost = CostParams::default();
/// let job = Job {
///     id: JobId(1),
///     kind: JobKind::Interactive { user: UserId(0), action: ActionId(0) },
///     dataset: DatasetId(0),
///     issue_time: SimTime::ZERO,
///     frame: FrameParams::default(),
/// };
///
/// let mut sched = SchedulerKind::Ours.build(SimDuration::from_millis(30));
/// let mut ctx = ScheduleCtx {
///     now: SimTime::ZERO,
///     tables: &mut tables,
///     catalog: &catalog,
///     cost: &cost,
/// };
/// let assignments = sched.schedule(&mut ctx, vec![job]);
/// // One task per 512 MiB chunk, each pinned to a node with a prediction.
/// assert_eq!(assignments.len(), 4);
/// assert!(assignments.iter().all(|a| a.predicted_start == SimTime::ZERO));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// The task being placed.
    pub task: Task,
    /// The node it will run on.
    pub node: NodeId,
    /// Predicted start time (from the `Available` table at commit time).
    pub predicted_start: SimTime,
    /// Predicted execution time used to push the `Available` table: the
    /// I/O estimate (zero on a predicted hit) plus `Estimate[c]`'s render
    /// time.
    pub predicted_exec: SimDuration,
    /// Render-group size assumed for the compositing cost.
    pub group: u32,
}

/// Everything a scheduler sees when invoked.
pub struct ScheduleCtx<'a> {
    /// Current time (virtual or wall).
    pub now: SimTime,
    /// The head node's tables (mutated optimistically during scheduling).
    pub tables: &'a mut HeadTables,
    /// Dataset/chunk registry under this run's decomposition policy.
    pub catalog: &'a Catalog,
    /// Cost-model constants.
    pub cost: &'a CostParams,
}

impl ScheduleCtx<'_> {
    /// Render-group size for a job over `dataset`: its tasks spread over at
    /// most `min(t_i, live nodes)` nodes.
    pub fn group_size(&self, dataset: crate::ids::DatasetId) -> u32 {
        let live = self.tables.live_nodes().count().max(1) as u32;
        self.catalog.task_count(dataset).min(live)
    }

    /// Predicted data-movement cost of placing `chunk` on `node` right
    /// now: zero on a render-ready hit, otherwise the `Estimate` table
    /// value. When the tables model the GPU tier (`tables.gpu_cache`, the
    /// §VII extension), a miss also pays the PCIe upload, and a host hit
    /// that is not GPU-resident pays the upload alone.
    pub fn io_estimate(&self, node: NodeId, chunk: ChunkId, bytes: u64) -> SimDuration {
        if self.tables.cache.contains(node, chunk) {
            self.upload_estimate(node, chunk, bytes)
        } else {
            self.tables.estimate.get(chunk, bytes, self.cost) + self.miss_upload(bytes)
        }
    }

    /// The upload a host hit on `node` still pays: zero without a GPU
    /// mirror or where the mirror holds `chunk`.
    fn upload_estimate(&self, node: NodeId, chunk: ChunkId, bytes: u64) -> SimDuration {
        match &self.tables.gpu_cache {
            Some(gpu) if !gpu.contains(node, chunk) => self.cost.upload_time(bytes),
            _ => SimDuration::ZERO,
        }
    }

    /// The upload every miss pays on top of `Estimate[c]`: zero without a
    /// GPU mirror.
    fn miss_upload(&self, bytes: u64) -> SimDuration {
        if self.tables.gpu_cache.is_some() {
            self.cost.upload_time(bytes)
        } else {
            SimDuration::ZERO
        }
    }

    /// The live node with the earliest predicted availability.
    ///
    /// Ties — common whenever several nodes are idle — are broken by a
    /// deterministic hash of `(now, node)` rather than by node index. On a
    /// real head node, which idle worker "comes first" depends on heartbeat
    /// arrival order, which is arbitrary; a fixed index tie-break lets a
    /// locality-*blind* policy inherit a stable chunk→node mapping from job
    /// order alone and score paper-defying cache hit rates on perfectly
    /// periodic workloads. The hash keeps runs reproducible while denying
    /// blind policies that accidental placement memory.
    pub fn earliest_node(&self) -> NodeId {
        let now = self.now;
        self.tables
            .live_nodes()
            .min_by_key(|&k| {
                (
                    self.tables.available.ready_at(k, now),
                    idle_tie_hash(now, k),
                )
            })
            .expect("at least one live node")
    }

    /// The live node minimizing `ready_at + io_estimate` for `chunk` — the
    /// locality-aware greedy choice (Algorithm 1, line 11).
    pub fn earliest_node_with_locality(&self, chunk: ChunkId, bytes: u64) -> NodeId {
        self.tables
            .live_nodes()
            .min_by_key(|&k| {
                (
                    self.tables.available.ready_at(k, self.now) + self.io_estimate(k, chunk, bytes),
                    k,
                )
            })
            .expect("at least one live node")
    }

    /// Heap-assisted variant of
    /// [`earliest_node_with_locality`](ScheduleCtx::earliest_node_with_locality):
    /// returns the *identical* node while scanning only `Cache[c]` plus the
    /// heap's global best instead of every live node — `O(|Cache[c]| + log p)`
    /// amortized instead of O(p) per chunk group.
    ///
    /// Why the restriction is exact: every node not holding `chunk` pays
    /// the same miss cost (`Estimate[c]`, plus the upload on a GPU-modelling
    /// head), so the best non-cached candidate is the global minimum of
    /// `(ready_at, id)` with that cost added. A cached node's cost (zero,
    /// or the upload alone) never exceeds the miss cost, so if that global
    /// minimum happens to be a cached node, its true key — scanned via
    /// `Cache[c]` — dominates both the inflated proxy and every non-cached
    /// node, and the winner is still exactly the node the full scan would
    /// pick, tie-breaks included. [`reference::ReferenceOursScheduler`]
    /// retains the full scan and the placement-equivalence suite holds the
    /// two paths bit-identical.
    ///
    /// `heap` must have been rebuilt from the same tables at `self.now` and
    /// kept current (via [`AvailHeap::update`]) across commits.
    pub fn earliest_node_with_locality_via(
        &self,
        heap: &mut AvailHeap,
        chunk: ChunkId,
        bytes: u64,
    ) -> NodeId {
        let miss = self.tables.estimate.get(chunk, bytes, self.cost) + self.miss_upload(bytes);
        let (global_ready, global_node) = heap.best(self.tables);
        let mut best = (global_ready + miss, global_node);
        for &k in self.tables.cache.nodes_with(chunk) {
            if !self.tables.is_live(k) {
                continue;
            }
            let ready = self.tables.available.ready_at(k, self.now);
            let key = (ready + self.upload_estimate(k, chunk, bytes), k);
            if key < best {
                best = key;
            }
        }
        best.1
    }

    /// Commit `task` to `node`: push the `Available` table by the
    /// [`io_estimate`](ScheduleCtx::io_estimate) plus the render time,
    /// update the `Cache` prediction (load + predicted evictions on a miss,
    /// recency touch on a hit) and the GPU mirror when present, and stamp
    /// the node's interactive-idle clock.
    pub fn commit(&mut self, task: Task, node: NodeId, group: u32) -> Assignment {
        let io = self.io_estimate(node, task.chunk, task.bytes);
        let assignment = self.commit_with_prediction(task, node, group, io);
        if let Some(gpu) = &mut self.tables.gpu_cache {
            gpu.record_load(node, task.chunk, task.bytes);
        }
        assignment
    }

    /// Commit for a locality-*blind* policy (FCFS, SF, FS): the predicted
    /// execution time charges the chunk's `Estimate` regardless of where
    /// the chunk is cached, because these policies do not track per-node
    /// residency. Without this, the availability feedback loop would leak
    /// cache knowledge into policies the paper defines as locality-unaware,
    /// letting them self-organize into placements no such scheduler finds
    /// in practice.
    pub fn commit_blind(&mut self, task: Task, node: NodeId, group: u32) -> Assignment {
        let io = self.tables.estimate.get(task.chunk, task.bytes, self.cost);
        self.commit_with_prediction(task, node, group, io)
    }

    fn commit_with_prediction(
        &mut self,
        task: Task,
        node: NodeId,
        group: u32,
        predicted_io: SimDuration,
    ) -> Assignment {
        let cached = self.tables.cache.contains(node, task.chunk);
        let exec = predicted_io
            + self
                .tables
                .estimate
                .render(task.chunk, task.bytes, group, self.cost);
        let predicted_start = self.tables.available.push_work(node, self.now, exec);
        if cached {
            self.tables.cache.touch(node, task.chunk);
        } else {
            self.tables.cache.record_load(node, task.chunk, task.bytes);
        }
        if task.interactive {
            self.tables.note_interactive(node, self.now);
        }
        Assignment {
            task,
            node,
            predicted_start,
            predicted_exec: exec,
            group,
        }
    }
}

/// Splitmix-style mix of `(now, node)` used to order nodes whose predicted
/// availability ties exactly (see [`ScheduleCtx::earliest_node`]): a pure
/// function of its inputs, so runs stay reproducible, but different at every
/// instant, so no placement pattern can persist across scheduling rounds.
fn idle_tie_hash(now: SimTime, node: NodeId) -> u64 {
    rng::mix64(
        now.as_micros()
            .wrapping_mul(rng::GAMMA)
            .wrapping_add((node.0 as u64) << 32 | 0x1d1e),
    )
}

/// The cold-placement protection gate of MOBJ's batch pass (and its
/// reference twin): a node may take a batch placement that *incurs a
/// load* only if it has been free of interactive work for at least
/// MOBJ's `PROTECT_PM` per-mille (500, ε's half) of the load's estimated
/// cost: OURS's ε-idle rule recast as an integer fraction. Placements of
/// chunks the node already caches are exempt: they displace nothing,
/// so the cycle-window gate alone bounds them. Without this gate a
/// leftover batch chunk cached on node A gets placed cold on busy node B,
/// whose eviction un-caches B's own interactive working set and sets off
/// a cluster-wide churn storm (measured: 36x unloaded interactive p99).
///
/// Returns `true` when the node is protected — the caller must skip it.
pub(crate) fn cold_batch_protected(
    ctx: &ScheduleCtx<'_>,
    node: NodeId,
    chunk: ChunkId,
    bytes: u64,
) -> bool {
    if ctx.tables.cache.contains(node, chunk) {
        return false;
    }
    let est_us = ctx.tables.estimate.get(chunk, bytes, ctx.cost).as_micros();
    let idle_us = ctx.tables.interactive_idle(node, ctx.now).as_micros();
    idle_us.saturating_mul(1000) < (mobj::PROTECT_PM as u64).saturating_mul(est_us)
}

/// A job-scheduling policy. Implementations must be deterministic: the same
/// context and job sequence must produce the same assignments.
pub trait Scheduler: Send {
    /// Short policy name as used in the paper's figures ("OURS", "FCFSL", …).
    fn name(&self) -> &'static str;

    /// How the dispatcher should invoke this policy.
    fn trigger(&self) -> Trigger;

    /// The data decomposition this policy assumes. Everything uses
    /// `Chk_max` except FCFSU, which partitions uniformly across nodes.
    fn decomposition(&self, chunk_max: u64, nodes: u32) -> DecompositionPolicy {
        let _ = nodes;
        DecompositionPolicy::MaxChunkSize {
            max_bytes: chunk_max,
        }
    }

    /// Map the queued jobs to assignments. `incoming` holds every job that
    /// arrived since the previous invocation, in arrival order. A policy may
    /// defer work (OURS holds batch tasks back); deferred tasks are emitted
    /// by later invocations.
    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment>;

    /// True while the policy still holds deferred tasks, so the dispatcher
    /// keeps invoking it even with an empty queue.
    fn has_deferred(&self) -> bool {
        false
    }

    /// Drop every deferred task without placing it — the failover drain:
    /// when this policy's head dies, its orphaned jobs are re-admitted
    /// whole on surviving heads, so tasks still parked here would be
    /// duplicates (and would keep [`Scheduler::has_deferred`] latched
    /// forever on a head no cycle will ever drive again). Policies that
    /// never defer keep this default no-op.
    fn retract_deferred(&mut self) {}

    /// Anti-starvation hook: promote deferred work whose deferral age (time
    /// since the policy first held it back) is `>= age` at `now`, so the
    /// next [`Scheduler::schedule`] call places it with interactive
    /// priority, bypassing whatever gate deferred it. Returns the affected
    /// jobs with their oldest task's age, one entry per job. Policies that
    /// never defer keep this default no-op.
    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        let _ = (now, age);
        Vec::new()
    }
}

/// Which policy to run — the x-axis of every comparison figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-Come-First-Serve.
    Fcfs,
    /// FCFS with data locality.
    Fcfsl,
    /// FCFS with uniform data partition and distribution.
    Fcfsu,
    /// Shortest-First.
    Sf,
    /// Fair-Sharing.
    Fs,
    /// Fair-Sharing with delay scheduling (extension baseline; the
    /// technique of the paper's citation \[26\], not part of its own
    /// evaluation — one of [`SchedulerKind::EXTENDED`]).
    FsDelay,
    /// The paper's proposed scheduler.
    Ours,
    /// Weighted multi-objective placement scoring (post-paper extension,
    /// see [`mobj`]).
    Mobj,
}

impl SchedulerKind {
    /// All six policies in the paper's figure order.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Fs,
        SchedulerKind::Sf,
        SchedulerKind::Fcfs,
        SchedulerKind::Fcfsu,
        SchedulerKind::Fcfsl,
        SchedulerKind::Ours,
    ];

    /// The four policies of Table III.
    pub const TABLE3: [SchedulerKind; 4] = [
        SchedulerKind::Fs,
        SchedulerKind::Fcfsu,
        SchedulerKind::Fcfsl,
        SchedulerKind::Ours,
    ];

    /// The policies beyond the paper's six: the multi-objective scorer
    /// and FS with delay scheduling. Not part of [`SchedulerKind::ALL`] —
    /// the paper's figures stay the paper's.
    pub const EXTENDED: [SchedulerKind; 2] = [SchedulerKind::Mobj, SchedulerKind::FsDelay];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::Fcfsl => "FCFSL",
            SchedulerKind::Fcfsu => "FCFSU",
            SchedulerKind::Sf => "SF",
            SchedulerKind::Fs => "FS",
            SchedulerKind::FsDelay => "FSD",
            SchedulerKind::Ours => "OURS",
            SchedulerKind::Mobj => "MOBJ",
        }
    }

    /// Instantiate the policy. `cycle` is the scheduling cycle `ω` for the
    /// cycle-based policies (ignored by the FCFS family).
    pub fn build(&self, cycle: SimDuration) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
            SchedulerKind::Fcfsl => Box::new(FcfslScheduler::new()),
            SchedulerKind::Fcfsu => Box::new(FcfsuScheduler::new()),
            SchedulerKind::Sf => Box::new(SfScheduler::new(cycle)),
            SchedulerKind::Fs => Box::new(FsScheduler::new(cycle)),
            SchedulerKind::FsDelay => Box::new(FsdScheduler::new(cycle, 3)),
            SchedulerKind::Ours => Box::new(OursScheduler::new(OursParams {
                cycle,
                ..OursParams::default()
            })),
            SchedulerKind::Mobj => Box::new(MobjScheduler::new(cycle)),
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "FCFS" => Ok(SchedulerKind::Fcfs),
            "FCFSL" => Ok(SchedulerKind::Fcfsl),
            "FCFSU" => Ok(SchedulerKind::Fcfsu),
            "SF" => Ok(SchedulerKind::Sf),
            "FS" => Ok(SchedulerKind::Fs),
            "FSD" => Ok(SchedulerKind::FsDelay),
            "OURS" => Ok(SchedulerKind::Ours),
            "MOBJ" => Ok(SchedulerKind::Mobj),
            other => Err(format!("unknown scheduler '{other}'")),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::data::{uniform_datasets, Catalog};
    use crate::ids::{ActionId, BatchId, DatasetId, JobId, UserId};
    use crate::job::{FrameParams, JobKind};

    pub const GIB: u64 = 1 << 30;
    pub const MIB: u64 = 1 << 20;

    /// A small fixture: `p` nodes with 2 GiB quota, `d` datasets of 2 GiB,
    /// 512 MiB chunks (4 tasks per job), under `policy`.
    pub struct Fixture {
        #[allow(dead_code)]
        pub cluster: ClusterSpec,
        pub tables: HeadTables,
        pub catalog: Catalog,
        pub cost: CostParams,
        next_job: u64,
    }

    impl Fixture {
        pub fn new(p: usize, d: u32, policy: DecompositionPolicy) -> Self {
            let cluster = ClusterSpec::homogeneous(p, 2 * GIB);
            let tables = HeadTables::new(&cluster);
            let catalog = Catalog::new(uniform_datasets(d, 2 * GIB), policy);
            Fixture {
                cluster,
                tables,
                catalog,
                cost: CostParams::default(),
                next_job: 0,
            }
        }

        pub fn standard(p: usize, d: u32) -> Self {
            Self::new(
                p,
                d,
                DecompositionPolicy::MaxChunkSize {
                    max_bytes: 512 * MIB,
                },
            )
        }

        pub fn ctx(&mut self, now: SimTime) -> ScheduleCtx<'_> {
            ScheduleCtx {
                now,
                tables: &mut self.tables,
                catalog: &self.catalog,
                cost: &self.cost,
            }
        }

        pub fn interactive_job(&mut self, dataset: u32, action: u64, at: SimTime) -> Job {
            self.next_job += 1;
            Job {
                id: JobId(self.next_job),
                kind: JobKind::Interactive {
                    user: UserId(action as u32),
                    action: ActionId(action),
                },
                dataset: DatasetId(dataset),
                issue_time: at,
                frame: FrameParams::default(),
            }
        }

        pub fn batch_job(&mut self, dataset: u32, request: u64, at: SimTime) -> Job {
            self.next_job += 1;
            Job {
                id: JobId(self.next_job),
                kind: JobKind::Batch {
                    user: UserId(1000),
                    request: BatchId(request),
                    frame: 0,
                },
                dataset: DatasetId(dataset),
                issue_time: at,
                frame: FrameParams::default(),
            }
        }
    }

    /// Every task of every job appears in the output exactly once.
    pub fn assert_complete_assignment(jobs: &[Job], catalog: &Catalog, out: &[Assignment]) {
        let mut expected: Vec<(JobId, u32)> = jobs
            .iter()
            .flat_map(|j| (0..catalog.task_count(j.dataset)).map(move |t| (j.id, t)))
            .collect();
        let mut got: Vec<(JobId, u32)> = out.iter().map(|a| (a.task.job, a.task.index)).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(
            expected, got,
            "assignment must cover every task exactly once"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn kind_round_trips_from_str() {
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::EXTENDED)
        {
            let parsed: SchedulerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nope".parse::<SchedulerKind>().is_err());
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::EXTENDED)
        {
            let s = kind.build(SimDuration::from_millis(30));
            assert_eq!(s.name(), kind.name());
        }
    }

    /// The failover-livelock shape: a head that escalated aged batch work
    /// and then died must come out of `retract_deferred` holding nothing,
    /// or `has_deferred` stays latched on a head no cycle will drive again.
    /// OURS and MOBJ are the policies that escalate.
    #[test]
    fn retract_after_escalate_leaves_nothing_deferred() {
        let cycle = SimDuration::from_millis(30);
        for kind in [SchedulerKind::Ours, SchedulerKind::Mobj] {
            // One node, busy with interactive work: the batch job is held.
            let mut fx = Fixture::standard(1, 2);
            let jobs = vec![
                fx.interactive_job(0, 0, SimTime::ZERO),
                fx.batch_job(1, 0, SimTime::ZERO),
            ];
            let mut sched = kind.build(cycle);
            let out = sched.schedule(&mut fx.ctx(SimTime::ZERO), jobs);
            assert!(out.iter().all(|a| a.task.interactive), "{}", kind.name());
            assert!(sched.has_deferred(), "{}", kind.name());

            // Half the backlog is promoted, half stays in the store.
            let younger = fx.batch_job(1, 1, SimTime::from_millis(60));
            let out = sched.schedule(&mut fx.ctx(SimTime::from_millis(60)), vec![younger]);
            assert!(out.is_empty(), "{}", kind.name());
            let report = sched.escalate_deferred(SimTime::from_millis(90), cycle * 2);
            assert_eq!(report.len(), 1, "{}: only the older job", kind.name());
            assert!(sched.has_deferred());

            sched.retract_deferred();
            assert!(!sched.has_deferred(), "{}", kind.name());
            let out = sched.schedule(&mut fx.ctx(SimTime::from_secs(600)), vec![]);
            assert!(out.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn commit_pushes_available_and_caches() {
        let mut fx = Fixture::standard(4, 2);
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let task = job.decompose(&fx.catalog)[0];
        let mut ctx = fx.ctx(SimTime::ZERO);
        let group = ctx.group_size(job.dataset);
        let a = ctx.commit(task, NodeId(2), group);
        assert_eq!(a.node, NodeId(2));
        assert_eq!(a.predicted_start, SimTime::ZERO);
        // Cold commit: exec includes the I/O estimate.
        let cost = CostParams::default();
        assert_eq!(
            a.predicted_exec,
            cost.io_time(task.bytes) + cost.alpha(task.bytes, group)
        );
        assert!(fx.tables.cache.contains(NodeId(2), task.chunk));
        assert_eq!(
            fx.tables.available.get(NodeId(2)),
            SimTime::ZERO + a.predicted_exec
        );
    }

    #[test]
    fn commit_on_cached_chunk_skips_io() {
        let mut fx = Fixture::standard(4, 2);
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let task = job.decompose(&fx.catalog)[0];
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            ctx.commit(task, NodeId(0), 4);
        }
        let mut ctx = fx.ctx(SimTime::ZERO);
        let a = ctx.commit(task, NodeId(0), 4);
        assert_eq!(a.predicted_exec, CostParams::default().alpha(task.bytes, 4));
    }

    /// §V-B over `α`: once the chunk's render time is measured, commits
    /// charge it instead of the model — cached, and on top of the I/O
    /// estimate where the chunk is absent — while other chunks keep the
    /// model.
    #[test]
    fn commit_charges_the_measured_render_time() {
        let mut fx = Fixture::standard(4, 2);
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let tasks = job.decompose(&fx.catalog);
        let (task, other) = (tasks[0], tasks[1]);
        let cost = CostParams::default();
        let measured = SimDuration::from_millis(11);
        let mut ctx = fx.ctx(SimTime::ZERO);
        ctx.commit(task, NodeId(0), 4);
        let cached = ctx.commit(task, NodeId(0), 4);
        assert_eq!(cached.predicted_exec, cost.alpha(task.bytes, 4));

        ctx.tables.estimate.record_render(task.chunk, measured);
        assert_eq!(ctx.commit(task, NodeId(0), 4).predicted_exec, measured);
        assert_eq!(
            ctx.commit(task, NodeId(1), 4).predicted_exec,
            cost.io_time(task.bytes) + measured
        );
        assert_eq!(
            ctx.commit(other, NodeId(2), 4).predicted_exec,
            cost.io_time(other.bytes) + cost.alpha(other.bytes, 4)
        );
    }

    #[test]
    fn earliest_node_with_locality_prefers_cached() {
        let mut fx = Fixture::standard(4, 2);
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let task = job.decompose(&fx.catalog)[0];
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            ctx.commit(task, NodeId(3), 4);
        }
        // The load has completed: node 3 is free again and holds the chunk.
        fx.tables.available.correct(NodeId(3), SimTime::ZERO);
        let ctx = fx.ctx(SimTime::ZERO);
        assert_eq!(
            ctx.earliest_node_with_locality(task.chunk, task.bytes),
            NodeId(3)
        );
        // The blind pick still lands on *a* node tied at the minimum (the
        // tie-break hash decides which), and is stable for a fixed instant.
        let blind = ctx.earliest_node();
        assert!(blind.0 < 4);
        assert_eq!(ctx.earliest_node(), blind);
    }

    /// `HeadTables::warm_and_free_by`, one case at a time: a cold chunk, a
    /// busy caching node, a down node, and an idle replica on a second
    /// node.
    #[test]
    fn warm_and_free_by_needs_every_chunk_on_a_free_holder() {
        let t = SimTime::from_millis;
        let warm = |fx: &Fixture, by| {
            fx.tables
                .warm_and_free_by(&fx.catalog, crate::ids::DatasetId(0), by)
        };
        let mut fx = Fixture::standard(2, 1);
        let tasks = fx
            .interactive_job(0, 0, SimTime::ZERO)
            .decompose(&fx.catalog);
        // Three of four chunks cached on node 0, which is free at 0.
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            for &task in &tasks[..3] {
                ctx.commit(task, NodeId(0), 2);
            }
        }
        fx.tables.available.correct(NodeId(0), SimTime::ZERO);
        assert!(!warm(&fx, t(1000)), "cold chunk");

        // The last chunk lands too; node 0 is now busy until 50 ms.
        fx.ctx(SimTime::ZERO).commit(tasks[3], NodeId(0), 2);
        fx.tables.available.correct(NodeId(0), t(50));
        assert!(!warm(&fx, t(49)), "busy holder");
        assert!(warm(&fx, t(50)));

        // An idle replica of every chunk on node 1 answers for the busy
        // node 0.
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            for &task in &tasks {
                ctx.commit(task, NodeId(1), 2);
            }
        }
        fx.tables.available.correct(NodeId(1), SimTime::ZERO);
        assert!(warm(&fx, SimTime::ZERO), "idle replica");

        // The replica's node goes down: only the busy holder is left.
        fx.tables.mark_down(NodeId(1));
        assert!(!warm(&fx, SimTime::ZERO), "down node");
        assert!(warm(&fx, t(50)));
    }

    #[test]
    fn blind_tie_break_varies_over_time() {
        let mut fx = Fixture::standard(8, 2);
        // All eight nodes idle: the winner must not be pinned to one index
        // across scheduling instants, or blind policies inherit a stable
        // placement from job order alone.
        let winners: std::collections::HashSet<NodeId> = (0..50u64)
            .map(|ms| fx.ctx(SimTime::from_millis(ms)).earliest_node())
            .collect();
        assert!(winners.len() > 1, "idle tie-break must vary with time");
    }

    #[test]
    fn group_size_capped_by_cluster() {
        let mut fx = Fixture::standard(2, 1); // 4 chunks, 2 nodes
        let ctx = fx.ctx(SimTime::ZERO);
        assert_eq!(ctx.group_size(crate::ids::DatasetId(0)), 2);
    }
}
