//! # vizsched-runtime
//!
//! The head node's control loop, written once and shared by every
//! execution substrate. Algorithm 1 and its surrounding machinery — job
//! intake, `Trigger`-aware scheduler invocation, assignment commit, the
//! run-time table corrections of §V-B (`Estimate` from measurements,
//! `Cache` reconciled against real loads and evictions, `Available`
//! recomputed from the true backlog), node fault/recovery handling, and
//! all probe emission — live in [`HeadRuntime`].
//!
//! What varies between the discrete-event simulator (`vizsched-sim`) and
//! the live threaded service (`vizsched-service`) is only *how a task
//! actually runs*: the [`Substrate`] trait carries exactly that seam. The
//! substrate delivers jobs and completions to the runtime on its own
//! clock (virtual or wall) and executes whatever the runtime dispatches;
//! the runtime owns every scheduling decision and every table mutation.
//! One implementation of the paper's head node, two drivers — which is
//! what keeps simulator-vs-service comparisons honest.
//!
//! The usual way to drive this crate is *through* a substrate; here, the
//! simulator's. Every scheduling decision below — the 30 ms cycle, the
//! table corrections, the completion bookkeeping — is this crate's
//! [`HeadRuntime`], with `vizsched-sim` supplying only the virtual clock
//! and node model:
//!
//! ```
//! use vizsched_core::prelude::*;
//! use vizsched_sim::{RunOptions, SimConfig, Simulation};
//!
//! // A 4-node cluster with one 2 GiB dataset in 512 MiB chunks.
//! let cluster = ClusterSpec::homogeneous(4, 2 << 30);
//! let config = SimConfig::new(cluster, CostParams::default());
//! let sim = Simulation::new(config, uniform_datasets(1, 2 << 30), 512 << 20);
//!
//! let jobs: Vec<Job> = (0..3)
//!     .map(|i| Job {
//!         id: JobId(i),
//!         kind: JobKind::Interactive { user: UserId(0), action: ActionId(0) },
//!         dataset: DatasetId(0),
//!         issue_time: SimTime::from_millis(10 * i),
//!         frame: FrameParams::default(),
//!     })
//!     .collect();
//!
//! // run_opts hands the jobs to the head runtime, which invokes OURS on
//! // its cycle trigger and dispatches assignments into the substrate.
//! let outcome = sim.run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("doc"));
//! assert_eq!(outcome.incomplete_jobs, 0);
//! assert_eq!(outcome.record.jobs.len(), 3);
//! // The runtime recorded its own scheduling cost (the Fig. 8 metric).
//! assert!(outcome.record.sched_invocations > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod queue;
pub mod shard;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
use queue::Ledger;
pub use shard::{ShardOutcome, ShardedRuntime};

use std::iter::Sum;
use std::ops::AddAssign;
use std::sync::Arc;
use std::time::Instant;
use vizsched_core::cost::{CostParams, JobTiming};
use vizsched_core::data::Catalog;
use vizsched_core::fxhash::FxHashMap;
use vizsched_core::ids::{ChunkId, JobId, NodeId, UserId};
use vizsched_core::job::{FrameParams, Job};
use vizsched_core::sched::{Assignment, ScheduleCtx, Scheduler, Trigger};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};
pub use vizsched_metrics::{DropReason, RejectReason};
use vizsched_metrics::{JobRecord, Probe, RunRecord, TraceEvent};

/// Admission-control and overload knobs, applied by [`HeadRuntime`] ahead
/// of Algorithm 1 so the simulator and the live service shed identically.
///
/// The default policy is fully permissive — every knob off reproduces the
/// pre-overload runtime bit for bit. Each knob generalizes the paper's
/// ε rule (the idle-headroom gate that keeps batch work from crowding out
/// interactive frames) to the admission layer; see DESIGN.md §10 for the
/// mapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Global cap on admitted-but-unfinished *interactive* jobs. Arrivals
    /// beyond it are rejected with [`RejectReason::GlobalCap`]. Batch
    /// submissions are admitted unconditionally: an animation is a
    /// deliberate bulk enqueue of 60+ frames at one instant, throttled by
    /// the ε-deferral and the anti-starvation escalation rather than by
    /// admission caps (any useful cap would mass-reject it on arrival).
    pub max_in_flight: Option<usize>,
    /// Per-user cap on admitted-but-unfinished *interactive* jobs.
    /// Arrivals beyond it are rejected with [`RejectReason::UserCap`].
    pub max_per_user: Option<usize>,
    /// How long an *interactive* frame may sit in the admission buffer
    /// before the next cycle drops it with
    /// [`DropReason::DeadlineExpired`]. Only buffered frames can expire:
    /// on-arrival policies never buffer, and a frame a cycle policy
    /// schedules in an early cycle never waits. Admitted batch frames are
    /// never dropped (admission is a completion promise).
    pub deadline: Option<SimDuration>,
    /// Coalesce stale interactive frames: a newer request from the same
    /// `(user, action)` supersedes older *buffered* ones, which are
    /// dropped with [`DropReason::Superseded`]. An early cycle only runs
    /// with the buffer empty, so there is never anything to supersede.
    pub coalesce_interactive: bool,
    /// Anti-starvation bound: once a deferred batch task's age exceeds
    /// this, its job is escalated into the interactive scheduling pass
    /// (bypassing the ε gate it was deferred behind).
    pub batch_escalation_age: Option<SimDuration>,
}

impl OverloadPolicy {
    /// True when any knob deviates from the fully permissive default.
    pub fn is_active(&self) -> bool {
        *self != OverloadPolicy::default()
    }
}

/// What [`HeadRuntime::on_job_arrival`] decided about one arriving job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted and scheduled immediately: every arrival under an
    /// on-arrival policy, and an early cycle under a cycle policy (a warm
    /// interactive job whose nodes are free, arriving while nothing is
    /// buffered or deferred).
    Scheduled,
    /// Admitted and buffered for the next cycle (cycle policies), so
    /// [`ShardedRuntime::next_cycle`] reports one due. `superseded`
    /// lists any stale same-action frames this arrival coalesced away —
    /// the substrate owes their submitters a drop notice.
    Buffered {
        /// Older buffered frames dropped in favor of this one.
        superseded: Vec<JobId>,
    },
    /// Refused by an [`OverloadPolicy`] cap; the job never entered the
    /// runtime and the substrate owes its submitter a reject notice.
    Rejected(RejectReason),
}

impl Admission {
    /// True unless the job was rejected.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, Admission::Rejected(_))
    }
}

/// What one [`HeadRuntime::on_cycle`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Whether the scheduler was invoked (false for an idle cycle).
    pub invoked: bool,
    /// Buffered jobs dropped this cycle because they outlived
    /// [`OverloadPolicy::deadline`]; the substrate owes their submitters
    /// a drop notice.
    pub expired: Vec<JobId>,
}

/// Aggregate overload-control counters for one run. All zero when no
/// [`OverloadPolicy`] was set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Jobs admitted past the caps.
    pub admitted: u64,
    /// Jobs refused at arrival.
    pub rejected: u64,
    /// Stale interactive frames superseded by newer same-action frames.
    pub coalesced: u64,
    /// Buffered jobs dropped at a cycle boundary for outliving their
    /// deadline.
    pub expired: u64,
    /// Batch jobs escalated into the interactive pass by the
    /// anti-starvation bound.
    pub escalated: u64,
}

impl OverloadStats {
    /// Jobs shed before reaching a render node (rejected + coalesced +
    /// expired).
    pub fn shed(&self) -> u64 {
        self.rejected + self.coalesced + self.expired
    }
}

impl AddAssign for OverloadStats {
    fn add_assign(&mut self, other: Self) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.coalesced += other.coalesced;
        self.expired += other.expired;
        self.escalated += other.escalated;
    }
}

impl Sum for OverloadStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut total, s| {
            total += s;
            total
        })
    }
}

/// The execution seam between the head runtime and whatever actually runs
/// tasks: a discrete-event node model, a pool of render threads, or (in
/// tests) a recording stub.
///
/// The three node hooks are what [`ShardedRuntime::on_fault`] asks of a
/// substrate, with cluster-global node ids. A substrate without nodes of
/// its own keeps the no-op defaults.
pub trait Substrate {
    /// Hand one committed assignment to the execution layer.
    ///
    /// Return `true` if the task is now in flight (the runtime starts
    /// tracking it as outstanding work on its node) or `false` if the
    /// owning job is gone and the assignment should be dropped on the
    /// floor. A substrate whose transport to the node has failed should
    /// still return `true` and surface the failure as a node fault — the
    /// fault path reroutes every outstanding task, this one included.
    fn dispatch(&mut self, assignment: &Assignment) -> bool;

    /// Crash a node: its queue, its running task and its cache are lost,
    /// and every report that incarnation has yet to send is stale. The
    /// runtime re-places the lost tasks from its own outstanding ledger,
    /// so none of them may still complete here.
    fn crash_node(&mut self, _node: NodeId) {}

    /// Bring a crashed node back as a new, cold-cached incarnation.
    fn respawn_node(&mut self, _node: NodeId) {}

    /// Stretch every later execution on a node by `factor_pm / 1000`;
    /// `1000` restores full speed.
    fn degrade_node(&mut self, _node: NodeId, _factor_pm: u32) {}
}

/// One finished task, as reported by a substrate back to the runtime.
///
/// The simulator fills this from its authoritative node model; the live
/// service from a render node's completion message. Times are on the
/// substrate's clock (virtual or wall — the runtime never compares them
/// across substrates).
#[derive(Clone, Debug)]
pub struct Completion {
    /// The node that executed the task.
    pub node: NodeId,
    /// Owning job.
    pub job: JobId,
    /// Task index within the job.
    pub task: u32,
    /// The chunk rendered.
    pub chunk: ChunkId,
    /// When execution started.
    pub started: SimTime,
    /// When execution finished.
    pub finish: SimTime,
    /// Measured I/O time (zero on a cache hit) — the `Estimate[c]`
    /// correction input.
    pub io: SimDuration,
    /// True if the chunk was fetched from storage.
    pub miss: bool,
    /// Chunks the node evicted to make room — the `Cache` reconciliation
    /// input.
    pub evicted: Vec<ChunkId>,
    /// True if the chunk was already resident in the node's GPU tier
    /// (always false for substrates without the two-tier extension).
    pub gpu_resident: bool,
    /// Chunks evicted from the GPU tier specifically.
    pub gpu_evicted: Vec<ChunkId>,
}

/// Returned by [`HeadRuntime::on_task_done`] when the completion was the
/// job's last task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobFinish {
    /// The finished job.
    pub job: JobId,
    /// Finish time of the job's last task.
    pub finish: SimTime,
    /// Issue-to-finish latency (Definition 3).
    pub latency: SimDuration,
}

/// Per-node completion counters, maintained from the completions the
/// runtime observes (the simulator replaces them with its node model's
/// own, which also count work lost to crashes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Tasks completed on this node.
    pub tasks: u64,
    /// Completions served from the node's cache.
    pub hits: u64,
    /// Completions that performed storage I/O.
    pub misses: u64,
}

impl AddAssign for NodeCounters {
    fn add_assign(&mut self, other: Self) {
        self.tasks += other.tasks;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl Sum for NodeCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut total, c| {
            total += c;
            total
        })
    }
}

/// How a run ended: the one end-of-run type. [`HeadRuntime::into_outcome`],
/// [`ShardedRuntime::into_outcome`], the simulator's `run_opts` and the
/// live service's shutdown all return it, so a simulated and a live run
/// report through the same fields (the live service names it
/// `ServiceStats`).
///
/// No field copies another: the hit and miss totals live in `record`
/// only, and equal the sums over `per_node`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeOutcome {
    /// The run record consumed by `vizsched-metrics`: one [`JobRecord`]
    /// per admitted job, in arrival order. Hit/miss counters and makespan
    /// come from observed completions; GPU hits and eviction totals are
    /// zero (only an authoritative node model knows them — the simulator
    /// overwrites the four cache counters from its own).
    pub record: RunRecord,
    /// Per-node counters, indexed by node (cluster-global in every
    /// outcome a run returns).
    pub per_node: Vec<NodeCounters>,
    /// Jobs that never completed (nonzero only if nodes stayed down or
    /// the run was cut short). Jobs the overload policy shed are counted
    /// in [`RuntimeOutcome::overload`], not here.
    pub incomplete_jobs: usize,
    /// Jobs fully completed.
    pub jobs_completed: u64,
    /// Overload-control counters (all zero without an [`OverloadPolicy`]).
    pub overload: OverloadStats,
    /// Per-shard routing and completion counters, in shard order; empty
    /// for a one-shard run (there is no routing to break down).
    pub per_shard: Vec<ShardOutcome>,
    /// Batch arrivals shed by the routing tier while in degraded mode
    /// (they never reached a shard, so they are in no shard's overload
    /// counters). Always zero for a one-shard run.
    pub degraded_shed: u64,
}

struct JobState {
    /// Arrival sequence number on this runtime: the run record's order.
    seq: u64,
    record: JobRecord,
    remaining: u32,
    max_finish: SimTime,
    /// The job's frame parameters, kept so shard-head failover can
    /// reconstruct and re-admit an in-flight job elsewhere.
    frame: FrameParams,
}

/// The shared head-node runtime: one instance per run, driven by a
/// substrate-specific event loop.
///
/// The driving loop's contract:
/// * call [`on_job_arrival`](HeadRuntime::on_job_arrival) for every
///   accepted job — on-arrival policies are invoked immediately, cycle
///   policies buffer unless the arrival qualifies for an early cycle;
/// * call [`on_cycle`](HeadRuntime::on_cycle) when
///   [`ShardedRuntime::next_cycle`] says a cycle is due — a no-op unless
///   jobs are buffered or the policy holds deferred work;
/// * call [`on_task_done`](HeadRuntime::on_task_done) for every
///   completion — this applies the full §V-B correction set;
/// * call [`on_node_fault`](HeadRuntime::on_node_fault) /
///   [`on_node_recover`](HeadRuntime::on_node_recover) when the substrate
///   loses or regains a node;
/// * call [`into_outcome`](HeadRuntime::into_outcome) once at the end.
pub struct HeadRuntime {
    scheduler: Box<dyn Scheduler>,
    tables: HeadTables,
    catalog: Catalog,
    cost: CostParams,
    probe: Arc<dyn Probe>,
    scenario: String,
    /// Arrival buffer for cycle-triggered policies.
    buffer: Vec<Job>,
    jobs: FxHashMap<JobId, JobState>,
    /// The next `JobState::seq`.
    arrivals: u64,
    /// Each node's dispatched-but-unfinished work, mirrored: the
    /// `Available` correction reads its backlog, and on a fault it is
    /// exactly the tasks to re-place.
    ledgers: Vec<Ledger>,
    per_node: Vec<NodeCounters>,
    /// Each node's cluster id, by this runtime's own node index: the
    /// names its assignments and probe events carry out. As long as the
    /// tables; the identity unless a [`ShardedRuntime`] names a slice.
    names: Vec<NodeId>,
    jobs_completed: u64,
    last_finish: SimTime,
    sched_wall_micros: u64,
    sched_invocations: u64,
    jobs_scheduled: u64,
    policy: OverloadPolicy,
    overload: OverloadStats,
    /// Admitted-but-unfinished jobs (maintained only while a policy is
    /// active, since only the caps read it).
    in_flight: usize,
    in_flight_by_user: FxHashMap<UserId, usize>,
}

impl HeadRuntime {
    /// Build a runtime over pre-constructed tables (the substrate chooses
    /// quotas, eviction policy, and whether a GPU tier exists).
    pub fn new(
        scheduler: Box<dyn Scheduler>,
        tables: HeadTables,
        catalog: Catalog,
        cost: CostParams,
        probe: Arc<dyn Probe>,
        scenario: &str,
    ) -> Self {
        let nodes = tables.node_count();
        HeadRuntime {
            scheduler,
            tables,
            catalog,
            cost,
            probe,
            scenario: scenario.to_string(),
            buffer: Vec::new(),
            jobs: FxHashMap::default(),
            arrivals: 0,
            ledgers: (0..nodes).map(|_| Ledger::default()).collect(),
            per_node: vec![NodeCounters::default(); nodes],
            names: (0..nodes as u32).map(NodeId).collect(),
            jobs_completed: 0,
            last_finish: SimTime::ZERO,
            sched_wall_micros: 0,
            sched_invocations: 0,
            jobs_scheduled: 0,
            policy: OverloadPolicy::default(),
            overload: OverloadStats::default(),
            in_flight: 0,
            in_flight_by_user: FxHashMap::default(),
        }
    }

    /// Install an overload policy. The default is fully permissive; set
    /// this before the first arrival — mid-run changes apply to subsequent
    /// arrivals and cycles only.
    pub fn set_overload_policy(&mut self, policy: OverloadPolicy) {
        self.policy = policy;
    }

    /// Overload-control counters so far.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload
    }

    /// The policy's invocation trigger.
    pub fn trigger(&self) -> Trigger {
        self.scheduler.trigger()
    }

    /// Whether the policy is holding deferred work for a later cycle.
    pub fn has_deferred(&self) -> bool {
        self.scheduler.has_deferred()
    }

    /// The policy's display name.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// The head tables (read access).
    pub fn tables(&self) -> &HeadTables {
        &self.tables
    }

    /// The head tables (mutable — for pre-run seeding such as
    /// `Estimate[c]` priors).
    pub fn tables_mut(&mut self) -> &mut HeadTables {
        &mut self.tables
    }

    /// The decomposition catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Jobs buffered for the next cycle.
    pub fn queued_jobs(&self) -> usize {
        self.buffer.len()
    }

    /// Jobs fully completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Whether `node` is currently marked down.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.tables.down[node.index()]
    }

    /// Record a pre-run cache placement (the paper's initialization "test
    /// run"): the substrate has already loaded `chunk` on `node`; mirror
    /// it into the `Cache` table (and GPU tier, when present) and report
    /// it to the probe at time zero.
    pub fn record_warm_load(&mut self, node: NodeId, chunk: ChunkId, bytes: u64) {
        self.tables.cache.record_load(node, chunk, bytes);
        if let Some(gpu) = &mut self.tables.gpu_cache {
            gpu.record_load(node, chunk, bytes);
        }
        if self.probe.enabled() {
            self.probe.on_event(&TraceEvent::CacheLoad {
                now: SimTime::ZERO,
                node: self.names[node.index()],
                chunk,
            });
        }
    }

    /// Accept one job, subject to the overload policy's caps.
    ///
    /// Admitted jobs follow the trigger: on-arrival policies are invoked
    /// immediately ([`Admission::Scheduled`]); cycle policies buffer the
    /// job until the next [`on_cycle`](HeadRuntime::on_cycle)
    /// ([`Admission::Buffered`]). One exception, the *early cycle*: an
    /// interactive job that arrives while nothing is buffered or
    /// deferred, and whose every chunk is cached on a node free now
    /// ([`HeadTables::warm_and_free_by`]), is scheduled at once through
    /// the same invocation a tick uses (`cycle_start { queued: 1 }` /
    /// `cycle_end` at `now`) and returns [`Admission::Scheduled`]. It
    /// equals a tick fired at `now`, but it no longer shares the next tick
    /// with later arrivals in the window, so their placements can differ
    /// (see DESIGN.md §9.2). With coalescing on, a buffered interactive arrival
    /// supersedes any still-buffered frames of the same `(user, action)`
    /// — those are dropped and listed in the returned
    /// [`Admission::Buffered`].
    /// Capped-out arrivals return [`Admission::Rejected`] without touching
    /// the scheduler.
    pub fn on_job_arrival<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        job: Job,
    ) -> Admission {
        let policing = self.policy.is_active();
        let tracing = self.probe.enabled();
        if policing {
            // Caps police interactive frames only; batch is admitted
            // unconditionally (see the `OverloadPolicy` field docs).
            if job.kind.is_interactive() {
                let reason = if self
                    .policy
                    .max_in_flight
                    .is_some_and(|cap| self.in_flight >= cap)
                {
                    Some(RejectReason::GlobalCap)
                } else if self.policy.max_per_user.is_some_and(|cap| {
                    self.in_flight_by_user
                        .get(&job.kind.user())
                        .is_some_and(|&n| n >= cap)
                }) {
                    Some(RejectReason::UserCap)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    self.overload.rejected += 1;
                    if tracing {
                        self.probe.on_event(&TraceEvent::Rejected {
                            now,
                            job: job.id,
                            reason,
                        });
                    }
                    return Admission::Rejected(reason);
                }
                self.in_flight += 1;
                *self.in_flight_by_user.entry(job.kind.user()).or_insert(0) += 1;
            }
            self.overload.admitted += 1;
        }
        let tasks = self.catalog.task_count(job.dataset);
        self.jobs.insert(
            job.id,
            JobState {
                seq: self.arrivals,
                record: JobRecord {
                    id: job.id,
                    kind: job.kind,
                    dataset: job.dataset,
                    timing: JobTiming::issued_at(job.issue_time),
                    tasks,
                    misses: 0,
                },
                remaining: tasks,
                max_finish: SimTime::ZERO,
                frame: job.frame,
            },
        );
        self.arrivals += 1;
        let trigger = self.scheduler.trigger();
        if trigger == Trigger::OnArrival || self.early_cycle_ready(now, &job) {
            if policing && tracing {
                self.probe.on_event(&TraceEvent::Admitted {
                    now,
                    job: job.id,
                    queue_depth: 0,
                });
            }
            self.invoke(sub, now, vec![job]);
            return Admission::Scheduled;
        }
        let id = job.id;
        let superseded = if self.policy.coalesce_interactive {
            self.coalesce_stale_frames(now, &job)
        } else {
            Vec::new()
        };
        self.buffer.push(job);
        if policing && tracing {
            self.probe.on_event(&TraceEvent::Admitted {
                now,
                job: id,
                queue_depth: self.buffer.len(),
            });
        }
        Admission::Buffered { superseded }
    }

    /// The early-cycle gate for a cycle policy: `job` is interactive,
    /// nothing is buffered or held, and every chunk of its dataset is
    /// cached on a node that is free now. A tick firing at `now` would
    /// then see exactly `[job]` with nothing deferred, so scheduling it at
    /// once places what that tick would, with batch fill, ε, λ and
    /// escalation untouched.
    fn early_cycle_ready(&self, now: SimTime, job: &Job) -> bool {
        job.kind.is_interactive()
            && self.buffer.is_empty()
            && !self.scheduler.has_deferred()
            && self
                .tables
                .warm_and_free_by(&self.catalog, job.dataset, now)
    }

    /// Drop buffered interactive frames that `newer` supersedes: same
    /// user, same action, issued earlier. Returns the dropped job ids.
    fn coalesce_stale_frames(&mut self, now: SimTime, newer: &Job) -> Vec<JobId> {
        let Some(action) = newer.kind.action() else {
            return Vec::new();
        };
        let user = newer.kind.user();
        let mut superseded = Vec::new();
        self.buffer.retain(|queued| {
            let stale = queued.kind.action() == Some(action) && queued.kind.user() == user;
            if stale {
                superseded.push(queued.id);
            }
            !stale
        });
        for &stale in &superseded {
            self.drop_admitted(stale);
            self.overload.coalesced += 1;
            if self.probe.enabled() {
                self.probe.on_event(&TraceEvent::Coalesced {
                    now,
                    superseded: stale,
                    by: newer.id,
                });
            }
        }
        superseded
    }

    /// Forget an admitted-but-never-scheduled job: release its in-flight
    /// slot and remove its record (shed jobs belong in [`OverloadStats`],
    /// not in the run record).
    fn drop_admitted(&mut self, job: JobId) {
        if let Some(state) = self.jobs.remove(&job) {
            if state.record.kind.is_interactive() {
                self.release_in_flight(state.record.kind.user());
            }
        }
    }

    /// Release one in-flight slot (no-op while no policy is active, since
    /// admission never acquired one).
    fn release_in_flight(&mut self, user: UserId) {
        if !self.policy.is_active() {
            return;
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        if let Some(n) = self.in_flight_by_user.get_mut(&user) {
            *n = n.saturating_sub(1);
        }
    }

    /// Remove every buffered (admitted but not yet scheduled) *batch* job
    /// so the sharded control plane can migrate it to a less-loaded
    /// shard's runtime. Interactive frames stay put — their users are
    /// pinned to this shard for `Cache[c]` locality.
    ///
    /// Each taken job's bookkeeping is unwound as if it had never arrived
    /// here (batch holds no in-flight slots, so only the job record is
    /// removed); re-arrival on the destination runtime re-admits it
    /// there, which also means a migrated job counts toward `admitted` on
    /// every shard it visits.
    pub fn take_buffered_batch(&mut self) -> Vec<Job> {
        let (batch, kept): (Vec<Job>, Vec<Job>) = std::mem::take(&mut self.buffer)
            .into_iter()
            .partition(|job| !job.kind.is_interactive());
        self.buffer = kept;
        for job in &batch {
            self.drop_admitted(job.id);
        }
        batch
    }

    /// Drain every admitted-but-incomplete job out of this runtime so the
    /// sharded control plane can re-admit it elsewhere after this head
    /// dies. Buffered jobs come back verbatim; in-flight jobs are
    /// reconstructed from their records (original issue time, so latency
    /// keeps measuring from first submission), in arrival order.
    /// Outstanding dispatch bookkeeping is cleared — the dead head's
    /// nodes are power-cycled by the caller, so none of it will ever
    /// complete here. Completed-job records stay for the final merge.
    pub fn drain_for_failover(&mut self) -> Vec<Job> {
        let mut buffered: FxHashMap<JobId, Job> = std::mem::take(&mut self.buffer)
            .into_iter()
            .map(|j| (j.id, j))
            .collect();
        let mut incomplete: Vec<(u64, JobId)> = self
            .jobs
            .iter()
            .filter(|(_, s)| s.remaining > 0)
            .map(|(&id, s)| (s.seq, id))
            .collect();
        incomplete.sort_unstable();
        let mut drained = Vec::with_capacity(incomplete.len());
        for (_, id) in incomplete {
            let state = self.jobs.remove(&id).expect("incomplete job is tracked");
            if state.record.kind.is_interactive() {
                self.release_in_flight(state.record.kind.user());
            }
            drained.push(buffered.remove(&id).unwrap_or(Job {
                id,
                kind: state.record.kind,
                dataset: state.record.dataset,
                issue_time: state.record.timing.issue,
                frame: state.frame,
            }));
        }
        debug_assert!(buffered.is_empty(), "buffered jobs are tracked jobs");
        self.ledgers.fill_with(Ledger::default);
        // Tasks still parked inside the policy belong to the jobs just
        // drained; retract them so this dead head's `has_deferred` can
        // never keep a dispatcher ticking against it.
        self.scheduler.retract_deferred();
        drained
    }

    /// Adopt one extra node into this head's control plane, empty-cached
    /// and available at `now` — the shard-head failover primitive. The
    /// new node takes the next local index, which is returned, and goes
    /// out under the cluster id `name`.
    pub fn adopt_node(&mut self, now: SimTime, name: NodeId, mem_quota: u64) -> NodeId {
        let node = self.tables.adopt_node(now, mem_quota);
        self.ledgers.push(Ledger::default());
        self.per_node.push(NodeCounters::default());
        self.names.push(name);
        node
    }

    /// Run one scheduling cycle: expire buffered jobs past the policy
    /// deadline, escalate starved batch work, then invoke the scheduler
    /// over whatever remains buffered. Does nothing (and emits nothing)
    /// when the buffer is empty and no work is deferred.
    pub fn on_cycle<S: Substrate>(&mut self, sub: &mut S, now: SimTime) -> CycleOutcome {
        let tracing = self.probe.enabled();
        let mut expired = Vec::new();
        if let Some(deadline) = self.policy.deadline {
            let mut kept = Vec::with_capacity(self.buffer.len());
            for job in std::mem::take(&mut self.buffer) {
                let waited = now.saturating_since(job.issue_time);
                if job.kind.is_interactive() && waited >= deadline {
                    if tracing {
                        self.probe.on_event(&TraceEvent::Expired {
                            now,
                            job: job.id,
                            waited,
                        });
                    }
                    self.drop_admitted(job.id);
                    self.overload.expired += 1;
                    expired.push(job.id);
                } else {
                    kept.push(job);
                }
            }
            self.buffer = kept;
        }
        if let Some(age) = self.policy.batch_escalation_age {
            for (job, waited) in self.scheduler.escalate_deferred(now, age) {
                self.overload.escalated += 1;
                if tracing {
                    self.probe
                        .on_event(&TraceEvent::BatchEscalated { now, job, waited });
                }
            }
        }
        if self.buffer.is_empty() && !self.scheduler.has_deferred() {
            return CycleOutcome {
                invoked: false,
                expired,
            };
        }
        let jobs = std::mem::take(&mut self.buffer);
        self.invoke(sub, now, jobs);
        CycleOutcome {
            invoked: true,
            expired,
        }
    }

    /// Apply one completion: probe the observation, then the §V-B
    /// correction set — `Estimate[c]` gets the measured I/O time, `Cache`
    /// is reconciled with the real load and evictions, `Available` is
    /// recomputed from the node's true remaining backlog — then job
    /// bookkeeping. Returns the job's finish summary when this was its
    /// last task.
    pub fn on_task_done(&mut self, now: SimTime, done: Completion) -> Option<JobFinish> {
        let tracing = self.probe.enabled();
        let name = self.names[done.node.index()];
        if tracing {
            self.probe.on_event(&TraceEvent::TaskDone {
                now,
                job: done.job,
                task: done.task,
                chunk: done.chunk,
                node: name,
                started: done.started,
                exec: done.finish.saturating_since(done.started),
                io: done.io,
                miss: done.miss,
            });
        }
        let counters = &mut self.per_node[done.node.index()];
        counters.tasks += 1;
        if done.miss {
            counters.misses += 1;
        } else {
            counters.hits += 1;
        }

        // Estimate + Cache corrections (misses only: a hit measures no
        // I/O and moves no data).
        if done.miss {
            let bytes = self.catalog.chunk_bytes(done.chunk);
            if tracing {
                let old = self.tables.estimate.get(done.chunk, bytes, &self.cost);
                self.probe.on_event(&TraceEvent::EstimateCorrection {
                    now,
                    chunk: done.chunk,
                    old,
                    new: done.io,
                });
                for &victim in &done.evicted {
                    self.probe.on_event(&TraceEvent::CacheEvict {
                        now,
                        node: name,
                        chunk: victim,
                    });
                }
                self.probe.on_event(&TraceEvent::CacheLoad {
                    now,
                    node: name,
                    chunk: done.chunk,
                });
            }
            self.tables.estimate.record(done.chunk, done.io);
            self.tables
                .cache
                .reconcile_load(done.node, done.chunk, bytes, &done.evicted);
        }
        if let Some(gpu) = &mut self.tables.gpu_cache {
            if !done.gpu_resident {
                // The node pulled the chunk onto its GPU; mirror it.
                let bytes = self.catalog.chunk_bytes(done.chunk);
                let mut evicted = done.gpu_evicted.clone();
                evicted.extend_from_slice(&done.evicted);
                gpu.reconcile_load(done.node, done.chunk, bytes, &evicted);
            }
        }

        // Available correction from the true backlog.
        let ledger = &mut self.ledgers[done.node.index()];
        ledger.complete(done.job, done.task, now);
        let backlog_end = ledger.backlog_end(now);
        if tracing {
            self.probe.on_event(&TraceEvent::AvailableCorrection {
                now,
                node: name,
                old: self.tables.available.get(done.node),
                new: backlog_end,
            });
        }
        self.tables.available.correct(done.node, backlog_end);
        self.last_finish = self.last_finish.max(done.finish);

        // Job bookkeeping.
        let state = self.jobs.get_mut(&done.job)?;
        state.remaining -= 1;
        state.max_finish = state.max_finish.max(done.finish);
        if done.miss {
            state.record.misses += 1;
        }
        state.record.timing.record_start(done.started);
        if state.remaining > 0 {
            return None;
        }
        state.record.timing.record_finish(state.max_finish);
        let kind = state.record.kind;
        let finish = JobFinish {
            job: done.job,
            finish: state.max_finish,
            latency: state.max_finish.saturating_since(state.record.timing.issue),
        };
        self.jobs_completed += 1;
        if kind.is_interactive() {
            self.release_in_flight(kind.user());
        }
        if tracing {
            self.probe.on_event(&TraceEvent::JobDone {
                now,
                job: done.job,
                latency: finish.latency,
            });
        }
        Some(finish)
    }

    /// Handle a node fault (crash, or an unplanned death): mark the
    /// node down, report it, and re-place its outstanding tasks on live
    /// nodes, locality-aware — the fault-tolerance path of §VI-D. Safe to
    /// call again for an already-down node (stragglers dispatched in the
    /// fault window are rerouted; nothing is re-reported). Returns how
    /// many outstanding tasks the fault orphaned.
    pub fn on_node_fault<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        node: NodeId,
    ) -> usize {
        let fresh = !self.tables.down[node.index()];
        let lost = self.ledgers[node.index()].take();
        if fresh {
            self.tables.mark_down(node);
            if self.probe.enabled() {
                self.probe.on_event(&TraceEvent::NodeFault {
                    now,
                    node: self.names[node.index()],
                    lost_tasks: lost.len(),
                });
            }
        }
        if lost.is_empty() {
            return 0;
        }
        if self.tables.live_nodes().next().is_none() {
            // Whole cluster down: the lost work is gone for good.
            return lost.len();
        }
        let count = lost.len();
        let mut ctx = ScheduleCtx {
            now,
            tables: &mut self.tables,
            catalog: &self.catalog,
            cost: &self.cost,
        };
        let reassigned: Vec<Assignment> = lost
            .into_iter()
            .map(|a| {
                let target = ctx.earliest_node_with_locality(a.task.chunk, a.task.bytes);
                ctx.commit(a.task, target, a.group)
            })
            .collect();
        self.dispatch_all(sub, now, reassigned);
        count
    }

    /// Handle a node rejoining, cold-cached.
    pub fn on_node_recover(&mut self, now: SimTime, node: NodeId) {
        self.tables.mark_up(node, now);
        if self.probe.enabled() {
            self.probe.on_event(&TraceEvent::NodeUp {
                now,
                node: self.names[node.index()],
            });
        }
    }

    /// Consume the runtime into its outcome, node counters in this
    /// runtime's own numbering.
    pub fn into_outcome(self) -> RuntimeOutcome {
        let mut states: Vec<&JobState> = self.jobs.values().collect();
        states.sort_unstable_by_key(|s| s.seq);
        let total: NodeCounters = self.per_node.iter().copied().sum();
        RuntimeOutcome {
            record: RunRecord {
                scheduler: self.scheduler.name().to_string(),
                scenario: self.scenario,
                jobs: states.iter().map(|s| s.record).collect(),
                cache_hits: total.hits,
                cache_misses: total.misses,
                gpu_hits: 0,
                evictions: 0,
                sched_wall_micros: self.sched_wall_micros,
                sched_invocations: self.sched_invocations,
                jobs_scheduled: self.jobs_scheduled,
                makespan: self.last_finish,
            },
            incomplete_jobs: states.iter().filter(|s| s.remaining > 0).count(),
            per_node: self.per_node,
            jobs_completed: self.jobs_completed,
            overload: self.overload,
            per_shard: Vec::new(),
            degraded_shed: 0,
        }
    }

    /// One scheduler invocation: probe the cycle, time the `schedule`
    /// call (host wall clock — Table III's "avg. cost"), dispatch the
    /// assignments.
    fn invoke<S: Substrate>(&mut self, sub: &mut S, now: SimTime, jobs: Vec<Job>) {
        let tracing = self.probe.enabled();
        if tracing {
            self.probe.on_event(&TraceEvent::CycleStart {
                now,
                queued: jobs.len(),
            });
        }
        self.jobs_scheduled += jobs.len() as u64;
        self.sched_invocations += 1;
        let t0 = Instant::now();
        let assignments = {
            let mut ctx = ScheduleCtx {
                now,
                tables: &mut self.tables,
                catalog: &self.catalog,
                cost: &self.cost,
            };
            self.scheduler.schedule(&mut ctx, jobs)
        };
        let wall_micros = t0.elapsed().as_micros() as u64;
        self.sched_wall_micros += wall_micros;
        let dispatched = self.dispatch_all(sub, now, assignments);
        if tracing {
            self.probe.on_event(&TraceEvent::CycleEnd {
                now,
                assignments: dispatched,
                wall_micros,
            });
        }
    }

    /// Dispatch committed assignments through the substrate under their
    /// nodes' names, tracking each accepted one as outstanding on its own
    /// node index and probing the placement.
    fn dispatch_all<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        assignments: Vec<Assignment>,
    ) -> usize {
        let tracing = self.probe.enabled();
        let mut dispatched = 0;
        for a in assignments {
            let named = Assignment {
                node: self.names[a.node.index()],
                ..a
            };
            if !sub.dispatch(&named) {
                continue;
            }
            dispatched += 1;
            if tracing {
                self.probe.on_event(&TraceEvent::Assignment {
                    now,
                    job: a.task.job,
                    task: a.task.index,
                    chunk: a.task.chunk,
                    node: named.node,
                    predicted_start: a.predicted_start,
                    predicted_exec: a.predicted_exec,
                    interactive: a.task.interactive,
                });
            }
            self.ledgers[a.node.index()].dispatch(a, now);
        }
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::cluster::ClusterSpec;
    use vizsched_core::data::{uniform_datasets, DecompositionPolicy};
    use vizsched_core::ids::{ActionId, DatasetId, UserId};
    use vizsched_core::job::{FrameParams, JobKind};
    use vizsched_core::sched::SchedulerKind;
    use vizsched_metrics::CollectingProbe;

    const GIB: u64 = 1 << 30;

    /// A substrate that records dispatches and lets the test complete them.
    #[derive(Default)]
    struct StubSubstrate {
        dispatched: Vec<Assignment>,
    }

    impl Substrate for StubSubstrate {
        fn dispatch(&mut self, assignment: &Assignment) -> bool {
            self.dispatched.push(*assignment);
            true
        }
    }

    fn runtime(kind: SchedulerKind, probe: Arc<dyn Probe>) -> HeadRuntime {
        let cluster = ClusterSpec::homogeneous(2, 2 * GIB);
        let catalog = Catalog::new(
            uniform_datasets(1, 2 * GIB),
            DecompositionPolicy::MaxChunkSize { max_bytes: GIB },
        );
        let cycle = SimDuration::from_millis(30);
        HeadRuntime::new(
            kind.build(cycle),
            HeadTables::new(&cluster),
            catalog,
            CostParams::default(),
            probe,
            "unit",
        )
    }

    fn job(id: u64, at: SimTime) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(id),
            },
            dataset: DatasetId(0),
            issue_time: at,
            frame: FrameParams::default(),
        }
    }

    fn completion_for(a: &Assignment, now: SimTime) -> Completion {
        Completion {
            node: a.node,
            job: a.task.job,
            task: a.task.index,
            chunk: a.task.chunk,
            started: now,
            finish: now + SimDuration::from_millis(5),
            io: SimDuration::from_millis(2),
            miss: true,
            evicted: Vec::new(),
            gpu_resident: false,
            gpu_evicted: Vec::new(),
        }
    }

    #[test]
    fn arrival_trigger_dispatches_immediately() {
        let mut rt = runtime(SchedulerKind::Fcfsl, Arc::new(vizsched_metrics::NoopProbe));
        let mut sub = StubSubstrate::default();
        let admission = rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        assert_eq!(
            admission,
            Admission::Scheduled,
            "FCFSL is an on-arrival policy"
        );
        assert_eq!(sub.dispatched.len(), 2, "one task per chunk");
        assert_eq!(rt.queued_jobs(), 0);
    }

    #[test]
    fn cycle_trigger_buffers_until_on_cycle() {
        let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
        let mut sub = StubSubstrate::default();
        let admission = rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        assert_eq!(
            admission,
            Admission::Buffered {
                superseded: Vec::new()
            },
            "OURS schedules on the cycle"
        );
        assert_eq!(rt.queued_jobs(), 1);
        assert!(sub.dispatched.is_empty());
        assert!(rt.on_cycle(&mut sub, SimTime::from_millis(30)).invoked);
        assert_eq!(sub.dispatched.len(), 2);
        // Idle cycles are free: nothing buffered, nothing deferred.
        assert!(!rt.on_cycle(&mut sub, SimTime::from_millis(60)).invoked);
    }

    /// Job 0 goes through the tick cold and completes at 40 ms, leaving
    /// both chunks cached on free nodes. Returns the two placements.
    fn warmed(rt: &mut HeadRuntime, sub: &mut StubSubstrate) -> Vec<Assignment> {
        rt.on_job_arrival(sub, SimTime::ZERO, job(0, SimTime::ZERO));
        assert!(rt.on_cycle(sub, SimTime::from_millis(30)).invoked);
        let placed = std::mem::take(&mut sub.dispatched);
        let now = SimTime::from_millis(40);
        for a in &placed {
            rt.on_task_done(now, completion_for(a, now));
        }
        placed
    }

    #[test]
    fn early_cycle_schedules_a_warm_frame_at_its_arrival() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Ours, probe.clone());
        let mut sub = StubSubstrate::default();
        let placed = warmed(&mut rt, &mut sub);
        probe.take();
        let now = SimTime::from_millis(47);
        assert_eq!(
            rt.on_job_arrival(&mut sub, now, job(1, now)),
            Admission::Scheduled
        );
        assert_eq!(rt.queued_jobs(), 0);
        // Each chunk goes back to its holder, starting at the arrival.
        let mut got: Vec<(ChunkId, NodeId, SimTime)> = sub
            .dispatched
            .iter()
            .map(|a| (a.task.chunk, a.node, a.predicted_start))
            .collect();
        let mut want: Vec<(ChunkId, NodeId, SimTime)> =
            placed.iter().map(|a| (a.task.chunk, a.node, now)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // An ordinary cycle, stamped at the arrival instant.
        let cycle: Vec<_> = probe
            .take()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::CycleStart { .. } | TraceEvent::CycleEnd { .. }
                )
            })
            .collect();
        assert!(matches!(&cycle[..], [
            TraceEvent::CycleStart { now: s, queued: 1 },
            TraceEvent::CycleEnd { now: e, assignments: 2, .. },
        ] if *s == now && *e == now));
        // The tick that follows has nothing to do.
        assert!(!rt.on_cycle(&mut sub, SimTime::from_millis(60)).invoked);
    }

    #[test]
    fn early_cycle_needs_every_gate_condition() {
        let buffered = Admission::Buffered {
            superseded: Vec::new(),
        };
        let now = SimTime::from_millis(47);
        let arrive = |rt: &mut HeadRuntime, sub: &mut StubSubstrate, j: Job| {
            let before = sub.dispatched.len();
            let admission = rt.on_job_arrival(sub, now, j);
            assert_eq!(
                sub.dispatched.len(),
                before,
                "a buffered job dispatches nothing"
            );
            admission
        };
        let fresh = || {
            let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
            let mut sub = StubSubstrate::default();
            let placed = warmed(&mut rt, &mut sub);
            (rt, sub, placed)
        };

        // A cold chunk: the very first frame.
        let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
        let mut sub = StubSubstrate::default();
        assert_eq!(arrive(&mut rt, &mut sub, job(0, now)), buffered, "cold");

        // A chunk's only holder is busy past the arrival.
        let (mut rt, mut sub, placed) = fresh();
        let busy = placed[0].node;
        rt.tables_mut()
            .available
            .correct(busy, now + SimDuration::from_micros(1));
        assert_eq!(arrive(&mut rt, &mut sub, job(1, now)), buffered, "busy");
        // ...and the next arrival finds the buffer holding it, even with
        // the holder free again.
        rt.tables_mut().available.correct(busy, now);
        assert_eq!(arrive(&mut rt, &mut sub, job(2, now)), buffered, "buffer");
        assert_eq!(rt.queued_jobs(), 2);

        // A chunk's only holder is down.
        let (mut rt, mut sub, placed) = fresh();
        rt.on_node_fault(&mut sub, now, placed[1].node);
        assert_eq!(arrive(&mut rt, &mut sub, job(1, now)), buffered, "down");

        // The job is batch.
        let batch = |id: u64| Job {
            id: JobId(id),
            kind: JobKind::Batch {
                user: UserId(3),
                request: vizsched_core::ids::BatchId(0),
                frame: 0,
            },
            dataset: DatasetId(0),
            issue_time: now,
            frame: FrameParams::default(),
        };
        let (mut rt, mut sub, _) = fresh();
        assert_eq!(arrive(&mut rt, &mut sub, batch(1)), buffered, "batch");

        // H_B holds batch: both nodes are busy past λ at the tick, so the
        // batch job is deferred; once they free up, an interactive
        // arrival still waits for the tick that owes H_B its fill.
        let (mut rt, mut sub, placed) = fresh();
        arrive(&mut rt, &mut sub, batch(1));
        let tick = SimTime::from_millis(60);
        for a in &placed {
            rt.tables_mut()
                .available
                .correct(a.node, SimTime::from_secs(60));
        }
        assert!(rt.on_cycle(&mut sub, tick).invoked);
        assert!(rt.has_deferred());
        for a in &placed {
            rt.tables_mut().available.correct(a.node, tick);
        }
        let later = SimTime::from_millis(70);
        assert_eq!(
            rt.on_job_arrival(&mut sub, later, job(2, later)),
            buffered,
            "H_B holds batch"
        );
    }

    #[test]
    fn completions_correct_tables_and_finish_jobs() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Fcfsl, probe.clone());
        let mut sub = StubSubstrate::default();
        rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        let dispatched = std::mem::take(&mut sub.dispatched);
        let now = SimTime::from_millis(10);
        let first = rt.on_task_done(now, completion_for(&dispatched[0], now));
        assert!(first.is_none(), "job has a second task in flight");
        let fin = rt
            .on_task_done(now, completion_for(&dispatched[1], now))
            .expect("last completion finishes the job");
        assert_eq!(fin.job, JobId(0));
        assert_eq!(rt.jobs_completed(), 1);
        // Both measured I/O times landed in Estimate[c].
        assert_eq!(rt.tables().estimate.measured_count(), 2);
        // Both chunks are now cached where they ran.
        for a in &dispatched {
            assert!(rt.tables().cache.contains(a.node, a.task.chunk));
        }
        let events = probe.take();
        let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(count(&|e| matches!(e, TraceEvent::TaskDone { .. })), 2);
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::EstimateCorrection { .. })),
            2
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::AvailableCorrection { .. })),
            2
        );
        assert_eq!(count(&|e| matches!(e, TraceEvent::JobDone { .. })), 1);
        let outcome = rt.into_outcome();
        assert_eq!(outcome.incomplete_jobs, 0);
        assert_eq!(outcome.record.cache_misses, 2);
        assert_eq!(outcome.record.makespan, now + SimDuration::from_millis(5));
    }

    #[test]
    fn fault_reroutes_outstanding_work_to_live_nodes() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Fcfsl, probe.clone());
        let mut sub = StubSubstrate::default();
        rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        let placed = sub.dispatched.clone();
        // FCFSL spreads the two cold tasks over both nodes; fault node 0.
        let victim = placed[0].node;
        let survivor = placed[1].node;
        assert_ne!(victim, survivor);
        let lost = rt.on_node_fault(&mut sub, SimTime::from_millis(1), victim);
        assert_eq!(lost, 1);
        assert!(rt.is_node_down(victim));
        // The orphaned task was re-dispatched, necessarily to the survivor.
        let rerouted = sub.dispatched.last().unwrap();
        assert_eq!(rerouted.task.chunk, placed[0].task.chunk);
        assert_eq!(rerouted.node, survivor);
        // A repeat fault report is quiet: no new NodeFault, nothing to move.
        assert_eq!(
            rt.on_node_fault(&mut sub, SimTime::from_millis(2), victim),
            0
        );
        let events = probe.take();
        let faults = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeFault { .. }))
            .count();
        assert_eq!(faults, 1);
        rt.on_node_recover(SimTime::from_millis(3), victim);
        assert!(!rt.is_node_down(victim));
    }

    #[test]
    fn drain_for_failover_returns_each_incomplete_job_once() {
        let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
        let mut sub = StubSubstrate::default();
        // Job 0 gets dispatched (in flight); job 1 stays buffered; job 2
        // completes fully before the failover.
        rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        rt.on_cycle(&mut sub, SimTime::from_millis(30));
        rt.on_job_arrival(&mut sub, SimTime::ZERO, job(2, SimTime::ZERO));
        rt.on_cycle(&mut sub, SimTime::from_millis(60));
        let now = SimTime::from_millis(70);
        for a in sub
            .dispatched
            .clone()
            .iter()
            .filter(|a| a.task.job == JobId(2))
        {
            rt.on_task_done(now, completion_for(a, now));
        }
        assert_eq!(rt.jobs_completed(), 1);
        rt.on_job_arrival(&mut sub, now, job(1, now));
        assert_eq!(rt.queued_jobs(), 1);

        let drained = rt.drain_for_failover();
        let ids: Vec<u64> = drained.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1], "in-flight then buffered, arrival order");
        assert_eq!(drained[0].issue_time, SimTime::ZERO, "issue time survives");
        assert_eq!(rt.queued_jobs(), 0);
        // A straggler completion for a drained job is ignored harmlessly.
        let stray = sub
            .dispatched
            .iter()
            .find(|a| a.task.job == JobId(0))
            .copied()
            .unwrap();
        assert!(rt.on_task_done(now, completion_for(&stray, now)).is_none());
        // The completed job's record survives; drained jobs leave none.
        let outcome = rt.into_outcome();
        assert_eq!(outcome.record.jobs.len(), 1);
        assert_eq!(outcome.record.jobs[0].id, JobId(2));
        assert_eq!(outcome.incomplete_jobs, 0);
    }

    #[test]
    fn adopt_node_extends_the_control_plane() {
        let mut rt = runtime(SchedulerKind::Fcfsl, Arc::new(vizsched_metrics::NoopProbe));
        let adopted = rt.adopt_node(SimTime::from_millis(5), NodeId(2), 2 * GIB);
        assert_eq!(adopted, NodeId(2));
        assert_eq!(rt.tables().node_count(), 3);
        assert!(!rt.is_node_down(adopted));
        let mut sub = StubSubstrate::default();
        rt.on_job_arrival(
            &mut sub,
            SimTime::from_millis(5),
            job(0, SimTime::from_millis(5)),
        );
        // Completions on the adopted node correct its tables normally.
        if let Some(a) = sub.dispatched.iter().find(|a| a.node == adopted) {
            let now = SimTime::from_millis(9);
            rt.on_task_done(now, completion_for(a, now));
            assert!(rt.tables().cache.contains(adopted, a.task.chunk));
        }
    }

    fn job_for_user(id: u64, user: u32, action: u64, at: SimTime) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(user),
                action: ActionId(action),
            },
            dataset: DatasetId(0),
            issue_time: at,
            frame: FrameParams::default(),
        }
    }

    #[test]
    fn global_cap_rejects_then_readmits_after_completion() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Fcfsl, probe.clone());
        rt.set_overload_policy(OverloadPolicy {
            max_in_flight: Some(1),
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        assert_eq!(
            rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO)),
            Admission::Scheduled
        );
        assert_eq!(
            rt.on_job_arrival(&mut sub, SimTime::ZERO, job(1, SimTime::ZERO)),
            Admission::Rejected(RejectReason::GlobalCap)
        );
        // The rejected job left no trace in the run record.
        let dispatched = std::mem::take(&mut sub.dispatched);
        assert!(dispatched.iter().all(|a| a.task.job == JobId(0)));
        // Finish job 0; the slot frees and job 2 is admitted.
        let now = SimTime::from_millis(10);
        for a in &dispatched {
            rt.on_task_done(now, completion_for(a, now));
        }
        assert_eq!(
            rt.on_job_arrival(&mut sub, now, job(2, now)),
            Admission::Scheduled
        );
        let stats = rt.overload_stats();
        assert_eq!((stats.admitted, stats.rejected), (2, 1));
        assert_eq!(stats.shed(), 1);
        let events = probe.take();
        let rejected: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Rejected { job, reason, .. } => Some((job.0, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(rejected, vec![(1, RejectReason::GlobalCap)]);
        let outcome = rt.into_outcome();
        assert_eq!(outcome.record.jobs.len(), 2, "rejected job not recorded");
        assert_eq!(outcome.overload.rejected, 1);
    }

    #[test]
    fn per_user_cap_is_isolated_per_user() {
        let mut rt = runtime(SchedulerKind::Fcfsl, Arc::new(vizsched_metrics::NoopProbe));
        rt.set_overload_policy(OverloadPolicy {
            max_per_user: Some(1),
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        assert!(rt
            .on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                job_for_user(0, 7, 0, SimTime::ZERO)
            )
            .is_admitted());
        assert_eq!(
            rt.on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                job_for_user(1, 7, 1, SimTime::ZERO)
            ),
            Admission::Rejected(RejectReason::UserCap)
        );
        // A different user is unaffected by user 7's backlog.
        assert!(rt
            .on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                job_for_user(2, 8, 2, SimTime::ZERO)
            )
            .is_admitted());
    }

    #[test]
    fn batch_is_exempt_from_caps_and_deadlines() {
        let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
        rt.set_overload_policy(OverloadPolicy {
            max_in_flight: Some(1),
            max_per_user: Some(1),
            deadline: Some(SimDuration::from_millis(10)),
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        let batch = |id: u64, frame: u32| Job {
            id: JobId(id),
            kind: JobKind::Batch {
                user: UserId(3),
                request: vizsched_core::ids::BatchId(0),
                frame,
            },
            dataset: DatasetId(0),
            issue_time: SimTime::ZERO,
            frame: FrameParams::default(),
        };
        // A whole animation lands at one instant, far past both caps...
        for i in 0..4 {
            assert!(rt
                .on_job_arrival(&mut sub, SimTime::ZERO, batch(i, i as u32))
                .is_admitted());
        }
        // ...and an old buffered batch frame outlives the deadline
        // without being expired.
        let cycle = rt.on_cycle(&mut sub, SimTime::from_millis(30));
        assert!(cycle.invoked);
        assert!(cycle.expired.is_empty(), "batch never expires");
        let stats = rt.overload_stats();
        assert_eq!((stats.admitted, stats.rejected, stats.expired), (4, 0, 0));
        // Interactive arrivals still see the caps, untouched by the batch
        // backlog (batch holds no in-flight slots).
        assert!(rt
            .on_job_arrival(
                &mut sub,
                SimTime::from_millis(30),
                job(10, SimTime::from_millis(30))
            )
            .is_admitted());
        assert_eq!(
            rt.on_job_arrival(
                &mut sub,
                SimTime::from_millis(30),
                job(11, SimTime::from_millis(30))
            ),
            Admission::Rejected(RejectReason::GlobalCap)
        );
    }

    #[test]
    fn coalescing_supersedes_stale_frames_of_same_action() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Ours, probe.clone());
        rt.set_overload_policy(OverloadPolicy {
            coalesce_interactive: true,
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        // Three frames of action 0 and one of action 1 arrive in one cycle.
        rt.on_job_arrival(
            &mut sub,
            SimTime::ZERO,
            job_for_user(0, 0, 0, SimTime::ZERO),
        );
        rt.on_job_arrival(
            &mut sub,
            SimTime::ZERO,
            job_for_user(1, 0, 1, SimTime::ZERO),
        );
        let am = rt.on_job_arrival(
            &mut sub,
            SimTime::from_millis(10),
            job_for_user(2, 0, 0, SimTime::from_millis(10)),
        );
        assert_eq!(
            am,
            Admission::Buffered {
                superseded: vec![JobId(0)]
            }
        );
        let am = rt.on_job_arrival(
            &mut sub,
            SimTime::from_millis(20),
            job_for_user(3, 0, 0, SimTime::from_millis(20)),
        );
        assert_eq!(
            am,
            Admission::Buffered {
                superseded: vec![JobId(2)]
            }
        );
        assert_eq!(rt.queued_jobs(), 2, "action 0's latest + action 1");
        assert!(rt.on_cycle(&mut sub, SimTime::from_millis(30)).invoked);
        // Only jobs 1 and 3 ever reach the nodes.
        let scheduled: std::collections::BTreeSet<u64> =
            sub.dispatched.iter().map(|a| a.task.job.0).collect();
        assert_eq!(scheduled, [1, 3].into_iter().collect());
        assert_eq!(rt.overload_stats().coalesced, 2);
        let events = probe.take();
        let coalesced: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Coalesced { superseded, by, .. } => Some((superseded.0, by.0)),
                _ => None,
            })
            .collect();
        assert_eq!(coalesced, vec![(0, 2), (2, 3)]);
        let outcome = rt.into_outcome();
        assert_eq!(outcome.record.jobs.len(), 2, "superseded jobs dropped");
        assert_eq!(outcome.incomplete_jobs, 2, "dispatched but not completed");
    }

    #[test]
    fn deadline_expires_buffered_jobs_at_cycle_boundary() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = runtime(SchedulerKind::Ours, probe.clone());
        rt.set_overload_policy(OverloadPolicy {
            deadline: Some(SimDuration::from_millis(20)),
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        // Job 0 is 30 ms old at the cycle — expired; job 1 is 5 ms old.
        rt.on_job_arrival(&mut sub, SimTime::ZERO, job(0, SimTime::ZERO));
        rt.on_job_arrival(
            &mut sub,
            SimTime::from_millis(25),
            job(1, SimTime::from_millis(25)),
        );
        let cycle = rt.on_cycle(&mut sub, SimTime::from_millis(30));
        assert!(cycle.invoked);
        assert_eq!(cycle.expired, vec![JobId(0)]);
        assert!(sub.dispatched.iter().all(|a| a.task.job == JobId(1)));
        assert_eq!(rt.overload_stats().expired, 1);
        let events = probe.take();
        let expired: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Expired { job, waited, .. } => Some((job.0, *waited)),
                _ => None,
            })
            .collect();
        assert_eq!(expired, vec![(0, SimDuration::from_millis(30))]);
    }

    #[test]
    fn inactive_policy_changes_nothing() {
        let mut rt = runtime(SchedulerKind::Ours, Arc::new(vizsched_metrics::NoopProbe));
        assert!(!rt.policy.is_active());
        let mut sub = StubSubstrate::default();
        // Same (user, action) frames pile up without coalescing or caps.
        for i in 0..5 {
            let am = rt.on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                job_for_user(i, 0, 0, SimTime::ZERO),
            );
            assert_eq!(
                am,
                Admission::Buffered {
                    superseded: Vec::new()
                }
            );
        }
        assert_eq!(rt.queued_jobs(), 5);
        assert!(rt.on_cycle(&mut sub, SimTime::from_millis(30)).invoked);
        assert_eq!(rt.overload_stats(), OverloadStats::default());
    }
}
