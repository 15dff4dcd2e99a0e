//! Scheduler observability: structured trace events, the [`Probe`] sink
//! trait, and derived prediction-accuracy reports.
//!
//! The paper's scheduler is built on *predictions* — the head node's
//! `Available[R_k]` and `Estimate[c]` tables forecast when a node frees up
//! and how long a chunk load takes — and on *run-time correction* (§V-B)
//! when completions contradict those forecasts. This module makes that
//! feedback loop observable: the execution substrates (the discrete-event
//! simulator and the live service) emit a [`TraceEvent`] at every
//! scheduling decision, completion, and table correction, and the reports
//! here turn the stream into per-cycle prediction-error summaries, an
//! `Estimate[c]` convergence trajectory, and per-node activity timelines.
//!
//! A probe is deliberately passive: it receives shared references on hot
//! paths, so implementations should do at most an append or a buffered
//! write. The default [`NoopProbe`] reports [`Probe::enabled`] ` = false`,
//! letting emitters skip event construction entirely — tracing costs
//! nothing unless a run opts in.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};
use vizsched_core::fault::FaultKind;
use vizsched_core::ids::{ChunkId, JobId, NodeId, ShardId};
use vizsched_core::job::Job;
use vizsched_core::time::{SimDuration, SimTime};

/// Why an arriving job was refused admission (the overload-control layer's
/// reject verdicts; see `OverloadPolicy` in `vizsched-runtime`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// The global in-flight cap was reached.
    GlobalCap,
    /// The submitting user's per-user in-flight cap was reached.
    UserCap,
    /// The bounded admission queue in front of the head node was full
    /// (emitted by transport fronts, never by the head runtime itself).
    QueueFull,
    /// The control plane is in degraded mode under sustained fault
    /// pressure: new batch work is shed to protect interactive latency.
    Degraded,
    /// The request names a dataset outside the service's catalog. Like
    /// [`RejectReason::QueueFull`] this is a boundary verdict — answered
    /// before the request becomes a job — and emits no trace event.
    UnknownDataset,
}

impl RejectReason {
    /// Stable lowercase label, as written to JSONL traces.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::GlobalCap => "global_cap",
            RejectReason::UserCap => "user_cap",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Degraded => "degraded",
            RejectReason::UnknownDataset => "unknown_dataset",
        }
    }

    /// Stable wire code (inverse of [`RejectReason::from_code`]).
    pub fn code(self) -> u8 {
        match self {
            RejectReason::GlobalCap => 0,
            RejectReason::UserCap => 1,
            RejectReason::QueueFull => 2,
            RejectReason::Degraded => 3,
            RejectReason::UnknownDataset => 4,
        }
    }

    /// Decode a wire code produced by [`RejectReason::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectReason::GlobalCap),
            1 => Some(RejectReason::UserCap),
            2 => Some(RejectReason::QueueFull),
            3 => Some(RejectReason::Degraded),
            4 => Some(RejectReason::UnknownDataset),
            _ => None,
        }
    }
}

/// Why an admitted-but-unscheduled job was dropped before reaching a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The job sat in the admission buffer past its deadline.
    DeadlineExpired,
    /// A newer frame from the same interactive action superseded it
    /// (stale-frame coalescing).
    Superseded,
}

impl DropReason {
    /// Stable lowercase label, as written to JSONL traces.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::DeadlineExpired => "deadline_expired",
            DropReason::Superseded => "superseded",
        }
    }

    /// Stable wire code (inverse of [`DropReason::from_code`]).
    pub fn code(self) -> u8 {
        match self {
            DropReason::DeadlineExpired => 0,
            DropReason::Superseded => 1,
        }
    }

    /// Decode a wire code produced by [`DropReason::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(DropReason::DeadlineExpired),
            1 => Some(DropReason::Superseded),
            _ => None,
        }
    }
}

/// One observable moment in a scheduling run.
///
/// Every variant carries `now` — virtual time in the simulator, elapsed
/// wall time in the live service. Variants map one-to-one onto the JSONL
/// records written by [`JsonlProbe`] (see the `t` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A scheduler invocation began (`t = "cycle_start"`). Cycle-triggered
    /// policies emit one per cycle `ω`; arrival-triggered policies one per
    /// arriving job.
    CycleStart {
        /// Invocation time.
        now: SimTime,
        /// Jobs handed to the scheduler this invocation.
        queued: usize,
    },
    /// The matching end of a scheduler invocation (`t = "cycle_end"`).
    CycleEnd {
        /// Invocation time (the cycle's virtual timestamp, not its end).
        now: SimTime,
        /// Assignments the scheduler produced.
        assignments: usize,
        /// Host wall-clock time spent inside `schedule`, microseconds —
        /// the per-invocation basis of Table III's "avg. cost".
        wall_micros: u64,
    },
    /// A task was pinned to a node (`t = "assign"`), with the predictions
    /// the placement was based on.
    Assignment {
        /// Decision time.
        now: SimTime,
        /// Owning job.
        job: JobId,
        /// Task index within the job.
        task: u32,
        /// The chunk the task renders.
        chunk: ChunkId,
        /// The chosen node.
        node: NodeId,
        /// Predicted start (from `Available[R_k]` at commit time).
        predicted_start: SimTime,
        /// Predicted execution time (I/O estimate + render + composite).
        predicted_exec: SimDuration,
        /// Whether the owning job is interactive.
        interactive: bool,
    },
    /// A task finished on its node (`t = "task_done"`), with the observed
    /// reality to hold against the matching [`TraceEvent::Assignment`].
    TaskDone {
        /// Completion time.
        now: SimTime,
        /// Owning job.
        job: JobId,
        /// Task index within the job.
        task: u32,
        /// The chunk rendered.
        chunk: ChunkId,
        /// The node that executed it.
        node: NodeId,
        /// Observed start time.
        started: SimTime,
        /// Observed execution time.
        exec: SimDuration,
        /// Measured disk I/O portion (zero on a cache hit).
        io: SimDuration,
        /// True if the chunk was fetched from disk.
        miss: bool,
    },
    /// `Estimate[c]` was corrected from a measured load (`t = "estimate"`).
    EstimateCorrection {
        /// Correction time.
        now: SimTime,
        /// The chunk whose estimate changed.
        chunk: ChunkId,
        /// The estimate used for predictions up to now.
        old: SimDuration,
        /// The measured replacement.
        new: SimDuration,
    },
    /// `Available[R_k]` was recomputed from a node's real backlog
    /// (`t = "available"`).
    AvailableCorrection {
        /// Correction time.
        now: SimTime,
        /// The node whose availability was corrected.
        node: NodeId,
        /// The optimistic prediction being replaced.
        old: SimTime,
        /// The recomputed availability.
        new: SimTime,
    },
    /// A node loaded a chunk into its cache (`t = "cache_load"`), as
    /// reconciled into the head's `Cache` table.
    CacheLoad {
        /// Reconciliation time.
        now: SimTime,
        /// The loading node.
        node: NodeId,
        /// The chunk now resident.
        chunk: ChunkId,
    },
    /// A node evicted a chunk (`t = "cache_evict"`).
    CacheEvict {
        /// Reconciliation time.
        now: SimTime,
        /// The evicting node.
        node: NodeId,
        /// The chunk dropped.
        chunk: ChunkId,
    },
    /// A node faulted — crash or channel disconnect (`t = "node_fault"`).
    NodeFault {
        /// Fault time.
        now: SimTime,
        /// The failed node.
        node: NodeId,
        /// Queued or running tasks lost and re-placed elsewhere.
        lost_tasks: usize,
    },
    /// A crashed node rejoined, cold-cached (`t = "node_up"`).
    NodeUp {
        /// Recovery time.
        now: SimTime,
        /// The recovered node.
        node: NodeId,
    },
    /// Every task of a job has completed (`t = "job_done"`).
    JobDone {
        /// Completion time of the job's last task.
        now: SimTime,
        /// The finished job.
        job: JobId,
        /// Issue-to-finish latency (Definition 3).
        latency: SimDuration,
    },
    /// The overload policy admitted an arriving job (`t = "admitted"`).
    /// Emitted only when an `OverloadPolicy` is active.
    Admitted {
        /// Arrival time.
        now: SimTime,
        /// The admitted job.
        job: JobId,
        /// Jobs buffered for the next scheduler invocation *after* this
        /// admission (cycle-triggered policies; zero when the scheduler
        /// runs on arrival).
        queue_depth: usize,
    },
    /// The overload policy refused an arriving job (`t = "rejected"`);
    /// the job never reaches the scheduler.
    Rejected {
        /// Arrival time.
        now: SimTime,
        /// The refused job.
        job: JobId,
        /// Which cap refused it.
        reason: RejectReason,
    },
    /// A buffered interactive frame was superseded by a newer frame from
    /// the same `(user, action)` before it was ever scheduled
    /// (`t = "coalesced"`).
    Coalesced {
        /// Arrival time of the newer frame.
        now: SimTime,
        /// The stale frame that was dropped.
        superseded: JobId,
        /// The newer frame that replaced it.
        by: JobId,
    },
    /// A buffered job sat past its admission deadline and was dropped at
    /// the next cycle boundary (`t = "expired"`).
    Expired {
        /// The cycle time at which the drop happened.
        now: SimTime,
        /// The dropped job.
        job: JobId,
        /// How long it had been buffered.
        waited: SimDuration,
    },
    /// A deferred batch task's deferral age crossed the anti-starvation
    /// bound and the job was escalated into the interactive scheduling
    /// pass (`t = "batch_escalated"`).
    BatchEscalated {
        /// The cycle time at which the escalation happened.
        now: SimTime,
        /// The escalated batch job.
        job: JobId,
        /// How long its oldest task had been deferred.
        waited: SimDuration,
    },
    /// The routing tier pinned an arriving job to a shard
    /// (`t = "shard_assigned"`). Emitted only on sharded runs, before the
    /// shard's own admission events.
    ShardAssigned {
        /// Arrival time.
        now: SimTime,
        /// The routed job.
        job: JobId,
        /// The shard whose cycle loop now owns it.
        shard: ShardId,
    },
    /// A buffered batch job was migrated off a saturated shard
    /// (`t = "shard_migrated"`). Interactive jobs never migrate — their
    /// users stay pinned for `Cache[c]` locality.
    ShardMigrated {
        /// Migration time (a cycle boundary on the saturated shard).
        now: SimTime,
        /// The migrated batch job.
        job: JobId,
        /// The shard it left.
        from: ShardId,
        /// The shard that stole it.
        to: ShardId,
    },
    /// A shard's buffered backlog crossed the saturation threshold
    /// (`t = "shard_saturated"`), making its batch jobs eligible for
    /// migration at the next routing decision.
    ShardSaturated {
        /// Detection time (a cycle boundary on the shard).
        now: SimTime,
        /// The saturated shard.
        shard: ShardId,
        /// Jobs buffered on the shard at detection.
        queued: usize,
    },
    /// The adaptive multi-objective policy (MOBJ-A) retuned its placement
    /// weights from completion feedback (`t = "weights_updated"`). All
    /// weights are per-mille; the sum is preserved across retunes.
    WeightsUpdated {
        /// Retune time (the cycle at which the policy events drained).
        now: SimTime,
        /// New cache-locality weight.
        locality_pm: u32,
        /// New load-balance weight.
        balance_pm: u32,
        /// New fragmentation weight.
        fragmentation_pm: u32,
        /// New starvation-age weight.
        starvation_pm: u32,
    },
    /// The fractional policy (FRAC) adjusted a node's interactive share
    /// (`t = "share_adjusted"`). The batch window of the node is
    /// `ω · (1000 − interactive_pm) / 1000` for the following cycles.
    ShareAdjusted {
        /// Adjustment time (the cycle the share EMA stepped).
        now: SimTime,
        /// The node whose share moved.
        node: NodeId,
        /// The new interactive share, per-mille of the cycle.
        interactive_pm: u32,
    },
    /// A scheduled fault from the deterministic `FaultPlan` fired
    /// (`t = "fault_injected"`). Emitted by the executing substrate at the
    /// moment the fault takes effect, before the recovery events it
    /// triggers.
    FaultInjected {
        /// Injection time (the plan's scheduled time, substrate clock).
        now: SimTime,
        /// The fault, serialized as its [`FaultKind::wire`] triple
        /// (`kind`, `target`, `param`).
        fault: FaultKind,
    },
    /// A shard head's cycle loop died (`t = "shard_failed"`). Its node
    /// slice, buffered jobs, and in-flight work are orphaned until the
    /// routing tier rebalances them onto survivors.
    ShardFailed {
        /// Detection time.
        now: SimTime,
        /// The dead shard.
        shard: ShardId,
        /// Admitted jobs orphaned on the dead head (buffered plus
        /// in-flight), all of which must be re-admitted exactly once.
        orphaned: usize,
    },
    /// Failover completed for a dead shard (`t = "shard_recovered"`):
    /// its node slice was adopted by survivors via the minimal-disruption
    /// ring rebalance and every orphaned job was re-admitted.
    ShardRecovered {
        /// Completion time of the failover.
        now: SimTime,
        /// The shard whose slice was rebalanced away.
        shard: ShardId,
        /// Nodes adopted by surviving shards.
        adopted: usize,
    },
    /// Sustained fault pressure crossed the degraded-mode enter threshold
    /// (`t = "degraded_entered"`): new batch arrivals are shed with
    /// `reason = "degraded"` until pressure decays below the exit
    /// threshold (hysteresis).
    DegradedEntered {
        /// Entry time.
        now: SimTime,
        /// The fault-pressure score at entry.
        pressure: u32,
    },
    /// Fault pressure decayed below the exit threshold
    /// (`t = "degraded_exited"`): batch admission resumes.
    DegradedExited {
        /// Exit time.
        now: SimTime,
        /// The fault-pressure score at exit.
        pressure: u32,
    },
}

impl TraceEvent {
    /// Every `t` tag a [`TraceEvent`] can serialize to, in declaration
    /// order. The docs-consistency test checks each of these appears in
    /// DESIGN.md's trace-schema table.
    pub const TAGS: [&'static str; 26] = [
        "cycle_start",
        "cycle_end",
        "assign",
        "task_done",
        "estimate",
        "available",
        "cache_load",
        "cache_evict",
        "node_fault",
        "node_up",
        "job_done",
        "admitted",
        "rejected",
        "coalesced",
        "expired",
        "batch_escalated",
        "shard_assigned",
        "shard_migrated",
        "shard_saturated",
        "weights_updated",
        "share_adjusted",
        "fault_injected",
        "shard_failed",
        "shard_recovered",
        "degraded_entered",
        "degraded_exited",
    ];

    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::CycleStart { now, .. }
            | TraceEvent::CycleEnd { now, .. }
            | TraceEvent::Assignment { now, .. }
            | TraceEvent::TaskDone { now, .. }
            | TraceEvent::EstimateCorrection { now, .. }
            | TraceEvent::AvailableCorrection { now, .. }
            | TraceEvent::CacheLoad { now, .. }
            | TraceEvent::CacheEvict { now, .. }
            | TraceEvent::NodeFault { now, .. }
            | TraceEvent::NodeUp { now, .. }
            | TraceEvent::JobDone { now, .. }
            | TraceEvent::Admitted { now, .. }
            | TraceEvent::Rejected { now, .. }
            | TraceEvent::Coalesced { now, .. }
            | TraceEvent::Expired { now, .. }
            | TraceEvent::BatchEscalated { now, .. }
            | TraceEvent::ShardAssigned { now, .. }
            | TraceEvent::ShardMigrated { now, .. }
            | TraceEvent::ShardSaturated { now, .. }
            | TraceEvent::WeightsUpdated { now, .. }
            | TraceEvent::ShareAdjusted { now, .. }
            | TraceEvent::FaultInjected { now, .. }
            | TraceEvent::ShardFailed { now, .. }
            | TraceEvent::ShardRecovered { now, .. }
            | TraceEvent::DegradedEntered { now, .. }
            | TraceEvent::DegradedExited { now, .. } => now,
        }
    }

    /// The `t` tag this event serializes under (one of [`TraceEvent::TAGS`]).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::CycleStart { .. } => "cycle_start",
            TraceEvent::CycleEnd { .. } => "cycle_end",
            TraceEvent::Assignment { .. } => "assign",
            TraceEvent::TaskDone { .. } => "task_done",
            TraceEvent::EstimateCorrection { .. } => "estimate",
            TraceEvent::AvailableCorrection { .. } => "available",
            TraceEvent::CacheLoad { .. } => "cache_load",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::NodeFault { .. } => "node_fault",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::JobDone { .. } => "job_done",
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::Rejected { .. } => "rejected",
            TraceEvent::Coalesced { .. } => "coalesced",
            TraceEvent::Expired { .. } => "expired",
            TraceEvent::BatchEscalated { .. } => "batch_escalated",
            TraceEvent::ShardAssigned { .. } => "shard_assigned",
            TraceEvent::ShardMigrated { .. } => "shard_migrated",
            TraceEvent::ShardSaturated { .. } => "shard_saturated",
            TraceEvent::WeightsUpdated { .. } => "weights_updated",
            TraceEvent::ShareAdjusted { .. } => "share_adjusted",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::ShardFailed { .. } => "shard_failed",
            TraceEvent::ShardRecovered { .. } => "shard_recovered",
            TraceEvent::DegradedEntered { .. } => "degraded_entered",
            TraceEvent::DegradedExited { .. } => "degraded_exited",
        }
    }

    /// Render as one JSON object (no trailing newline). Times are integer
    /// microseconds (`*_us`); ids are raw integers, chunks as
    /// `{"dataset": d, "index": i}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_json(&mut s);
        s
    }

    fn write_json(&self, s: &mut String) {
        // Hand-rolled: every field is an integer, bool, or a static
        // lowercase label, so escaping never arises.
        let chunk_json = |s: &mut String, c: ChunkId| {
            let _ = write!(s, "{{\"dataset\":{},\"index\":{}}}", c.dataset.0, c.index);
        };
        match *self {
            TraceEvent::CycleStart { now, queued } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"cycle_start\",\"now_us\":{},\"queued\":{queued}}}",
                    now.as_micros()
                );
            }
            TraceEvent::CycleEnd {
                now,
                assignments,
                wall_micros,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"cycle_end\",\"now_us\":{},\"assignments\":{assignments},\
                     \"wall_us\":{wall_micros}}}",
                    now.as_micros()
                );
            }
            TraceEvent::Assignment {
                now,
                job,
                task,
                chunk,
                node,
                predicted_start,
                predicted_exec,
                interactive,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"assign\",\"now_us\":{},\"job\":{},\"task\":{task},\"chunk\":",
                    now.as_micros(),
                    job.0
                );
                chunk_json(s, chunk);
                let _ = write!(
                    s,
                    ",\"node\":{},\"predicted_start_us\":{},\"predicted_exec_us\":{},\
                     \"interactive\":{interactive}}}",
                    node.0,
                    predicted_start.as_micros(),
                    predicted_exec.as_micros()
                );
            }
            TraceEvent::TaskDone {
                now,
                job,
                task,
                chunk,
                node,
                started,
                exec,
                io,
                miss,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"task_done\",\"now_us\":{},\"job\":{},\"task\":{task},\"chunk\":",
                    now.as_micros(),
                    job.0
                );
                chunk_json(s, chunk);
                let _ = write!(
                    s,
                    ",\"node\":{},\"started_us\":{},\"exec_us\":{},\"io_us\":{},\"miss\":{miss}}}",
                    node.0,
                    started.as_micros(),
                    exec.as_micros(),
                    io.as_micros()
                );
            }
            TraceEvent::EstimateCorrection {
                now,
                chunk,
                old,
                new,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"estimate\",\"now_us\":{},\"chunk\":",
                    now.as_micros()
                );
                chunk_json(s, chunk);
                let _ = write!(
                    s,
                    ",\"old_us\":{},\"new_us\":{}}}",
                    old.as_micros(),
                    new.as_micros()
                );
            }
            TraceEvent::AvailableCorrection {
                now,
                node,
                old,
                new,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"available\",\"now_us\":{},\"node\":{},\"old_us\":{},\
                     \"new_us\":{}}}",
                    now.as_micros(),
                    node.0,
                    old.as_micros(),
                    new.as_micros()
                );
            }
            TraceEvent::CacheLoad { now, node, chunk } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"cache_load\",\"now_us\":{},\"node\":{},\"chunk\":",
                    now.as_micros(),
                    node.0
                );
                chunk_json(s, chunk);
                s.push('}');
            }
            TraceEvent::CacheEvict { now, node, chunk } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"cache_evict\",\"now_us\":{},\"node\":{},\"chunk\":",
                    now.as_micros(),
                    node.0
                );
                chunk_json(s, chunk);
                s.push('}');
            }
            TraceEvent::NodeFault {
                now,
                node,
                lost_tasks,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"node_fault\",\"now_us\":{},\"node\":{},\"lost\":{lost_tasks}}}",
                    now.as_micros(),
                    node.0
                );
            }
            TraceEvent::NodeUp { now, node } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"node_up\",\"now_us\":{},\"node\":{}}}",
                    now.as_micros(),
                    node.0
                );
            }
            TraceEvent::JobDone { now, job, latency } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"job_done\",\"now_us\":{},\"job\":{},\"latency_us\":{}}}",
                    now.as_micros(),
                    job.0,
                    latency.as_micros()
                );
            }
            TraceEvent::Admitted {
                now,
                job,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"admitted\",\"now_us\":{},\"job\":{},\"queue_depth\":{queue_depth}}}",
                    now.as_micros(),
                    job.0
                );
            }
            TraceEvent::Rejected { now, job, reason } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"rejected\",\"now_us\":{},\"job\":{},\"reason\":\"{}\"}}",
                    now.as_micros(),
                    job.0,
                    reason.as_str()
                );
            }
            TraceEvent::Coalesced {
                now,
                superseded,
                by,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"coalesced\",\"now_us\":{},\"superseded\":{},\"by\":{}}}",
                    now.as_micros(),
                    superseded.0,
                    by.0
                );
            }
            TraceEvent::Expired { now, job, waited } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"expired\",\"now_us\":{},\"job\":{},\"waited_us\":{}}}",
                    now.as_micros(),
                    job.0,
                    waited.as_micros()
                );
            }
            TraceEvent::BatchEscalated { now, job, waited } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"batch_escalated\",\"now_us\":{},\"job\":{},\"waited_us\":{}}}",
                    now.as_micros(),
                    job.0,
                    waited.as_micros()
                );
            }
            TraceEvent::ShardAssigned { now, job, shard } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"shard_assigned\",\"now_us\":{},\"job\":{},\"shard\":{}}}",
                    now.as_micros(),
                    job.0,
                    shard.0
                );
            }
            TraceEvent::ShardMigrated { now, job, from, to } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"shard_migrated\",\"now_us\":{},\"job\":{},\"from\":{},\"to\":{}}}",
                    now.as_micros(),
                    job.0,
                    from.0,
                    to.0
                );
            }
            TraceEvent::ShardSaturated { now, shard, queued } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"shard_saturated\",\"now_us\":{},\"shard\":{},\"queued\":{queued}}}",
                    now.as_micros(),
                    shard.0
                );
            }
            TraceEvent::WeightsUpdated {
                now,
                locality_pm,
                balance_pm,
                fragmentation_pm,
                starvation_pm,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"weights_updated\",\"now_us\":{},\"locality_pm\":{locality_pm},\
                     \"balance_pm\":{balance_pm},\"fragmentation_pm\":{fragmentation_pm},\
                     \"starvation_pm\":{starvation_pm}}}",
                    now.as_micros()
                );
            }
            TraceEvent::ShareAdjusted {
                now,
                node,
                interactive_pm,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"share_adjusted\",\"now_us\":{},\"node\":{},\
                     \"interactive_pm\":{interactive_pm}}}",
                    now.as_micros(),
                    node.0
                );
            }
            TraceEvent::FaultInjected { now, fault } => {
                let (kind, target, param) = fault.wire();
                let _ = write!(
                    s,
                    "{{\"t\":\"fault_injected\",\"now_us\":{},\"kind\":\"{kind}\",\
                     \"target\":{target},\"param\":{param}}}",
                    now.as_micros()
                );
            }
            TraceEvent::ShardFailed {
                now,
                shard,
                orphaned,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"shard_failed\",\"now_us\":{},\"shard\":{},\
                     \"orphaned\":{orphaned}}}",
                    now.as_micros(),
                    shard.0
                );
            }
            TraceEvent::ShardRecovered {
                now,
                shard,
                adopted,
            } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"shard_recovered\",\"now_us\":{},\"shard\":{},\
                     \"adopted\":{adopted}}}",
                    now.as_micros(),
                    shard.0
                );
            }
            TraceEvent::DegradedEntered { now, pressure } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"degraded_entered\",\"now_us\":{},\"pressure\":{pressure}}}",
                    now.as_micros()
                );
            }
            TraceEvent::DegradedExited { now, pressure } => {
                let _ = write!(
                    s,
                    "{{\"t\":\"degraded_exited\",\"now_us\":{},\"pressure\":{pressure}}}",
                    now.as_micros()
                );
            }
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Probes are shared across threads (the live service's head loop runs on
/// its own thread), so implementations take `&self` and must be
/// `Send + Sync`. Emitters check [`Probe::enabled`] before constructing an
/// event, so a disabled probe costs one virtual call per site.
pub trait Probe: Send + Sync {
    /// Whether this probe wants events at all. Emitters skip event
    /// construction when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event. Called on hot paths; keep it cheap.
    fn on_event(&self, event: &TraceEvent);

    /// Observe one job at the instant the head node first sees it —
    /// before admission control, so rejected and coalesced jobs are
    /// observed too. Both substrates call this exactly once per offered
    /// job (internal re-admissions during shard migration or failover do
    /// *not* re-fire it), which is what lets a recording probe capture a
    /// replayable request stream. The default does nothing, so only
    /// recorders pay for it.
    fn on_job_offered(&self, _now: SimTime, _job: &Job) {}
}

/// The default probe: receives nothing, reports disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, _event: &TraceEvent) {}
}

/// Lock a probe's buffer, recovering it if an emitter panicked while
/// holding it: each emit is one push or one line write, so the buffer
/// stays usable, and the next emitter (in a live service, the head
/// thread) must not panic in turn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A probe that buffers every event in memory, for tests and post-run
/// analysis.
#[derive(Debug, Default)]
pub struct CollectingProbe {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingProbe {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy out everything collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }

    /// Drain the buffer, returning everything collected so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock(&self.events))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// True if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Probe for CollectingProbe {
    fn on_event(&self, event: &TraceEvent) {
        lock(&self.events).push(*event);
    }
}

/// A probe that writes each event as one JSON line to a writer.
///
/// Wrap the writer in a `BufWriter` for file output; the stream is flushed
/// when the probe drops. Write errors are counted, not propagated — a
/// tracing sink must never abort a run.
#[derive(Debug)]
pub struct JsonlProbe<W: Write + Send> {
    out: Mutex<W>,
    errors: std::sync::atomic::AtomicU64,
}

impl<W: Write + Send> JsonlProbe<W> {
    /// Trace into `out`, one JSON object per line.
    pub fn new(out: W) -> Self {
        JsonlProbe {
            out: Mutex::new(out),
            errors: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of events dropped to write errors.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl JsonlProbe<std::io::BufWriter<std::fs::File>> {
    /// Trace into a freshly created (truncated) file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write + Send> Probe for JsonlProbe<W> {
    fn on_event(&self, event: &TraceEvent) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = lock(&self.out);
        if out.write_all(line.as_bytes()).is_err() {
            self.errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl<W: Write + Send> Drop for JsonlProbe<W> {
    fn drop(&mut self) {
        let _ = lock(&self.out).flush();
    }
}

/// Serialize a whole event slice as JSONL (the batch counterpart of
/// [`JsonlProbe`], for use with [`CollectingProbe::take`]).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for event in events {
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Prediction accuracy of one scheduler invocation, from matching each of
/// its [`TraceEvent::Assignment`]s against the task's eventual
/// [`TraceEvent::TaskDone`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CyclePrediction {
    /// Invocation index, 0-based in emission order.
    pub cycle: u64,
    /// Invocation time.
    pub start: SimTime,
    /// Tasks assigned in this invocation.
    pub assigned: usize,
    /// Of those, tasks whose completion was observed in the trace.
    pub completed: usize,
    /// Mean `|observed start − predicted start|` over completed tasks.
    pub mean_start_error: SimDuration,
    /// Mean `|observed exec − predicted exec|` over completed tasks.
    pub mean_exec_error: SimDuration,
}

/// Join assignments to completions and aggregate prediction error per
/// scheduler invocation ("cycle"). Invocations that assigned nothing are
/// omitted; tasks re-placed after a crash resolve to their latest
/// assignment.
pub fn prediction_by_cycle(events: &[TraceEvent]) -> Vec<CyclePrediction> {
    use std::collections::HashMap;
    struct Bucket {
        summary: CyclePrediction,
        start_err_us: u64,
        exec_err_us: u64,
    }
    let mut cycles: Vec<Bucket> = Vec::new();
    let mut current: Option<usize> = None;
    // (job, task) -> (cycle index, predicted start, predicted exec)
    let mut open: HashMap<(JobId, u32), (usize, SimTime, SimDuration)> = HashMap::new();
    for event in events {
        match *event {
            TraceEvent::CycleStart { now, .. } => {
                current = Some(cycles.len());
                cycles.push(Bucket {
                    summary: CyclePrediction {
                        cycle: cycles.len() as u64,
                        start: now,
                        ..CyclePrediction::default()
                    },
                    start_err_us: 0,
                    exec_err_us: 0,
                });
            }
            TraceEvent::Assignment {
                job,
                task,
                predicted_start,
                predicted_exec,
                ..
            } => {
                // Crash re-placements happen outside any invocation; bill
                // them to the most recent one.
                let Some(cycle) = current else { continue };
                cycles[cycle].summary.assigned += 1;
                if let Some((old_cycle, _, _)) =
                    open.insert((job, task), (cycle, predicted_start, predicted_exec))
                {
                    // Superseded assignment (node crash): the earlier
                    // placement never completes.
                    cycles[old_cycle].summary.assigned -= 1;
                }
            }
            TraceEvent::TaskDone {
                job,
                task,
                started,
                exec,
                ..
            } => {
                let Some((cycle, predicted_start, predicted_exec)) = open.remove(&(job, task))
                else {
                    continue;
                };
                let b = &mut cycles[cycle];
                b.summary.completed += 1;
                b.start_err_us += abs_diff_us(started.as_micros(), predicted_start.as_micros());
                b.exec_err_us += abs_diff_us(exec.as_micros(), predicted_exec.as_micros());
            }
            _ => {}
        }
    }
    cycles
        .into_iter()
        .filter(|b| b.summary.assigned > 0)
        .map(|b| {
            let mut s = b.summary;
            if s.completed > 0 {
                s.mean_start_error = SimDuration::from_micros(b.start_err_us / s.completed as u64);
                s.mean_exec_error = SimDuration::from_micros(b.exec_err_us / s.completed as u64);
            }
            s
        })
        .collect()
}

fn abs_diff_us(a: u64, b: u64) -> u64 {
    a.abs_diff(b)
}

/// One `Estimate[c]` correction, as a point on the table's convergence
/// trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstimatePoint {
    /// Correction time.
    pub now: SimTime,
    /// The corrected chunk.
    pub chunk: ChunkId,
    /// `|old − new|`: how wrong the estimate the scheduler had been using
    /// was.
    pub error: SimDuration,
}

/// Extract the `Estimate[c]` correction trajectory: one point per
/// [`TraceEvent::EstimateCorrection`], in trace order. A healthy feedback
/// loop shows errors shrinking toward the jitter floor as measurements
/// replace initial estimates.
pub fn estimate_trajectory(events: &[TraceEvent]) -> Vec<EstimatePoint> {
    events
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::EstimateCorrection {
                now,
                chunk,
                old,
                new,
            } => Some(EstimatePoint {
                now,
                chunk,
                error: SimDuration::from_micros(abs_diff_us(old.as_micros(), new.as_micros())),
            }),
            _ => None,
        })
        .collect()
}

/// Per-node activity over a traced run, from observed task executions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeActivity {
    /// The node.
    pub node: NodeId,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks that fetched from disk.
    pub misses: u64,
    /// Total observed execution time.
    pub busy: SimDuration,
    /// `horizon − busy`.
    pub idle: SimDuration,
    /// Longest contiguous gap with no task executing — the starvation
    /// indicator (a node the scheduler never feeds shows up here long
    /// before utilization averages reveal it).
    pub longest_idle: SimDuration,
    /// Busy fraction of the horizon, 0–1.
    pub utilization: f64,
}

/// Build per-node busy/idle/starvation timelines for `nodes` nodes over
/// `[0, horizon]` from the trace's [`TraceEvent::TaskDone`] events.
pub fn node_activity(events: &[TraceEvent], nodes: usize, horizon: SimTime) -> Vec<NodeActivity> {
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes];
    let mut misses = vec![0u64; nodes];
    for event in events {
        if let TraceEvent::TaskDone {
            node,
            started,
            now,
            miss,
            ..
        } = *event
        {
            if node.index() < nodes {
                intervals[node.index()].push((started.as_micros(), now.as_micros()));
                misses[node.index()] += u64::from(miss);
            }
        }
    }
    let span_us = horizon.as_micros();
    intervals
        .into_iter()
        .zip(misses)
        .enumerate()
        .map(|(k, (mut iv, misses))| {
            iv.sort_unstable();
            let mut busy = 0u64;
            let mut longest_idle = 0u64;
            let mut cursor = 0u64; // end of the last busy interval seen
            for &(start, end) in &iv {
                longest_idle = longest_idle.max(start.saturating_sub(cursor));
                busy += end.saturating_sub(start.max(cursor));
                cursor = cursor.max(end);
            }
            longest_idle = longest_idle.max(span_us.saturating_sub(cursor));
            let busy = busy.min(span_us);
            NodeActivity {
                node: NodeId(k as u32),
                tasks: iv.len() as u64,
                misses,
                busy: SimDuration::from_micros(busy),
                idle: SimDuration::from_micros(span_us - busy),
                longest_idle: SimDuration::from_micros(longest_idle),
                utilization: if span_us == 0 {
                    0.0
                } else {
                    busy as f64 / span_us as f64
                },
            }
        })
        .collect()
}

/// One injected fault with its observed recovery latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecovery {
    /// When the fault fired.
    pub at: SimTime,
    /// What was injected.
    pub kind: FaultKind,
    /// Time from injection to the first subsequent [`TraceEvent::JobDone`]
    /// — the service's observable time-to-recovery. `None` if no job ever
    /// completed after the fault.
    pub mttr: Option<SimDuration>,
    /// For `shard_crash` faults: time from injection to the first
    /// *interactive* job completion after it (the latency a pinned user
    /// observed). `None` otherwise or if none completed.
    pub interactive_mttr: Option<SimDuration>,
}

/// Aggregate recovery metrics derived from a chaos trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Every injected fault, in trace order, with per-fault recovery.
    pub faults: Vec<FaultRecovery>,
    /// Frames lost to the fault response: rejected plus expired jobs.
    pub frames_lost: u64,
    /// Work rerouted by recovery: tasks lost to node faults plus jobs
    /// orphaned by shard failures (each re-placed elsewhere).
    pub jobs_rerouted: u64,
    /// Largest per-fault `mttr` observed.
    pub max_mttr: SimDuration,
    /// Mean per-fault `mttr` over faults that recovered.
    pub mean_mttr: SimDuration,
    /// Largest `interactive_mttr` over shard-crash faults.
    pub max_interactive_mttr: SimDuration,
}

/// Derive a [`RecoveryReport`] from a traced chaos run: MTTR per injected
/// fault (first job completion after it), frames lost to shedding and
/// deadline expiry, and the volume of rerouted work.
///
/// Interactivity of completed jobs is learned from the trace's
/// [`TraceEvent::Assignment`] events, so the report needs no side
/// channel beyond the event stream itself.
pub fn recovery_report(events: &[TraceEvent]) -> RecoveryReport {
    use std::collections::HashSet;
    let mut interactive_jobs: HashSet<u64> = HashSet::new();
    for e in events {
        if let TraceEvent::Assignment {
            job, interactive, ..
        } = e
        {
            if *interactive {
                interactive_jobs.insert(job.0);
            }
        }
    }
    let mut report = RecoveryReport::default();
    // Indexes into `report.faults` still waiting for a completion.
    let mut open: Vec<usize> = Vec::new();
    let mut open_interactive: Vec<usize> = Vec::new();
    for e in events {
        match *e {
            TraceEvent::FaultInjected { now, fault } => {
                let idx = report.faults.len();
                report.faults.push(FaultRecovery {
                    at: now,
                    kind: fault,
                    mttr: None,
                    interactive_mttr: None,
                });
                open.push(idx);
                if matches!(fault, FaultKind::ShardCrash(_)) {
                    open_interactive.push(idx);
                }
            }
            TraceEvent::JobDone { now, job, .. } => {
                for &idx in &open {
                    let f = &mut report.faults[idx];
                    f.mttr = Some(now.saturating_since(f.at));
                }
                open.clear();
                if interactive_jobs.contains(&job.0) {
                    for &idx in &open_interactive {
                        let f = &mut report.faults[idx];
                        f.interactive_mttr = Some(now.saturating_since(f.at));
                    }
                    open_interactive.clear();
                }
            }
            TraceEvent::Rejected { .. } | TraceEvent::Expired { .. } => {
                report.frames_lost += 1;
            }
            TraceEvent::NodeFault { lost_tasks, .. } => {
                report.jobs_rerouted += lost_tasks as u64;
            }
            TraceEvent::ShardFailed { orphaned, .. } => {
                report.jobs_rerouted += orphaned as u64;
            }
            _ => {}
        }
    }
    let recovered: Vec<SimDuration> = report.faults.iter().filter_map(|f| f.mttr).collect();
    if !recovered.is_empty() {
        report.max_mttr = recovered.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let total: u64 = recovered.iter().map(|d| d.as_micros()).sum();
        report.mean_mttr = SimDuration::from_micros(total / recovered.len() as u64);
    }
    report.max_interactive_mttr = report
        .faults
        .iter()
        .filter_map(|f| f.interactive_mttr)
        .max()
        .unwrap_or(SimDuration::ZERO);
    report
}

/// Render per-cycle prediction errors as a small table. To keep long runs
/// readable the cycles are folded into at most `max_rows` row groups, each
/// averaging its cycles.
pub fn format_prediction_report(cycles: &[CyclePrediction], max_rows: usize) -> String {
    let mut out = format!(
        "{:>10} {:>10} {:>9} {:>9} {:>14} {:>14}\n",
        "cycles", "t", "assigned", "done", "start err avg", "exec err avg"
    );
    if cycles.is_empty() || max_rows == 0 {
        return out;
    }
    let group = cycles.len().div_ceil(max_rows);
    for rows in cycles.chunks(group) {
        let assigned: usize = rows.iter().map(|c| c.assigned).sum();
        let completed: usize = rows.iter().map(|c| c.completed).sum();
        let weighted = |f: fn(&CyclePrediction) -> SimDuration| {
            let total: u64 = rows
                .iter()
                .map(|c| f(c).as_micros() * c.completed as u64)
                .sum();
            if completed == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(total / completed as u64)
            }
        };
        let label = if rows.len() == 1 {
            format!("{}", rows[0].cycle)
        } else {
            format!("{}-{}", rows[0].cycle, rows[rows.len() - 1].cycle)
        };
        out.push_str(&format!(
            "{:>10} {:>10} {:>9} {:>9} {:>14} {:>14}\n",
            label,
            format!("{:.2}s", rows[0].start.as_secs_f64()),
            assigned,
            completed,
            format!("{:.3}ms", weighted(|c| c.mean_start_error).as_millis_f64()),
            format!("{:.3}ms", weighted(|c| c.mean_exec_error).as_millis_f64()),
        ));
    }
    out
}

/// Render per-node activity as a small table.
pub fn format_node_activity(activity: &[NodeActivity]) -> String {
    let mut out = format!(
        "{:>5} {:>8} {:>8} {:>10} {:>10} {:>12} {:>6}\n",
        "node", "tasks", "misses", "busy", "idle", "longest idle", "util"
    );
    for a in activity {
        out.push_str(&format!(
            "{:>5} {:>8} {:>8} {:>10} {:>10} {:>12} {:>5.1}%\n",
            a.node.to_string(),
            a.tasks,
            a.misses,
            format!("{:.2}s", a.busy.as_secs_f64()),
            format!("{:.2}s", a.idle.as_secs_f64()),
            format!("{:.2}s", a.longest_idle.as_secs_f64()),
            a.utilization * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vizsched_core::ids::DatasetId;

    fn chunk(i: u32) -> ChunkId {
        ChunkId::new(DatasetId(0), i)
    }

    fn assign(cycle_job: u64, task: u32, node: u32, start_ms: u64, exec_ms: u64) -> TraceEvent {
        TraceEvent::Assignment {
            now: SimTime::ZERO,
            job: JobId(cycle_job),
            task,
            chunk: chunk(task),
            node: NodeId(node),
            predicted_start: SimTime::from_millis(start_ms),
            predicted_exec: SimDuration::from_millis(exec_ms),
            interactive: true,
        }
    }

    fn done(job: u64, task: u32, node: u32, start_ms: u64, exec_ms: u64) -> TraceEvent {
        TraceEvent::TaskDone {
            now: SimTime::from_millis(start_ms + exec_ms),
            job: JobId(job),
            task,
            chunk: chunk(task),
            node: NodeId(node),
            started: SimTime::from_millis(start_ms),
            exec: SimDuration::from_millis(exec_ms),
            io: SimDuration::ZERO,
            miss: false,
        }
    }

    #[test]
    fn noop_probe_is_disabled() {
        let p = NoopProbe;
        assert!(!p.enabled());
        p.on_event(&TraceEvent::NodeUp {
            now: SimTime::ZERO,
            node: NodeId(0),
        });
    }

    #[test]
    fn collecting_probe_buffers_and_drains() {
        let p = Arc::new(CollectingProbe::new());
        assert!(p.is_empty());
        p.on_event(&TraceEvent::CycleStart {
            now: SimTime::ZERO,
            queued: 3,
        });
        p.on_event(&TraceEvent::NodeUp {
            now: SimTime::from_secs(1),
            node: NodeId(2),
        });
        assert_eq!(p.len(), 2);
        let events = p.take();
        assert_eq!(events.len(), 2);
        assert!(p.is_empty());
        assert_eq!(events[1].time(), SimTime::from_secs(1));
    }

    /// Hold `m` on another thread and panic there, poisoning it.
    fn poison<T: Send + Sync + 'static>(m: Arc<T>, hold: fn(&T)) {
        let joined = std::thread::spawn(move || hold(&m)).join();
        assert!(joined.is_err(), "the holder must have panicked");
    }

    #[test]
    fn collecting_probe_survives_a_poisoned_lock() {
        let p = Arc::new(CollectingProbe::new());
        p.on_event(&TraceEvent::CycleStart {
            now: SimTime::ZERO,
            queued: 1,
        });
        poison(p.clone(), |p| {
            let _held = p.events.lock();
            panic!("an emitter panics while holding the buffer");
        });
        assert!(p.events.is_poisoned());
        p.on_event(&TraceEvent::NodeUp {
            now: SimTime::from_secs(1),
            node: NodeId(2),
        });
        assert_eq!(p.len(), 2);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.take().len(), 2);
        assert!(p.is_empty());
    }

    #[test]
    fn jsonl_probe_survives_a_poisoned_lock() {
        let probe = Arc::new(JsonlProbe::new(Vec::new()));
        poison(probe.clone(), |p| {
            let _held = p.out.lock();
            panic!("an emitter panics while holding the writer");
        });
        assert!(probe.out.is_poisoned());
        probe.on_event(&TraceEvent::CycleStart {
            now: SimTime::from_micros(30),
            queued: 2,
        });
        assert_eq!(probe.write_errors(), 0);
        let text = String::from_utf8(lock(&probe.out).clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        // Dropping flushes through the poisoned lock without panicking.
        drop(Arc::into_inner(probe).expect("the last handle"));
    }

    #[test]
    fn jsonl_probe_writes_one_line_per_event() {
        let probe = JsonlProbe::new(Vec::new());
        probe.on_event(&TraceEvent::CycleStart {
            now: SimTime::from_micros(30),
            queued: 2,
        });
        probe.on_event(&TraceEvent::EstimateCorrection {
            now: SimTime::from_micros(99),
            chunk: chunk(1),
            old: SimDuration::from_micros(500),
            new: SimDuration::from_micros(400),
        });
        assert_eq!(probe.write_errors(), 0);
        let bytes = std::mem::take(&mut *probe.out.lock().unwrap());
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":\"cycle_start\",\"now_us\":30,\"queued\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":\"estimate\",\"now_us\":99,\"chunk\":{\"dataset\":0,\"index\":1},\
             \"old_us\":500,\"new_us\":400}"
        );
    }

    #[test]
    fn json_covers_every_variant() {
        let events = [
            TraceEvent::CycleStart {
                now: SimTime::ZERO,
                queued: 1,
            },
            TraceEvent::CycleEnd {
                now: SimTime::ZERO,
                assignments: 1,
                wall_micros: 7,
            },
            assign(1, 0, 2, 0, 5),
            done(1, 0, 2, 1, 6),
            TraceEvent::EstimateCorrection {
                now: SimTime::ZERO,
                chunk: chunk(0),
                old: SimDuration::ZERO,
                new: SimDuration::ZERO,
            },
            TraceEvent::AvailableCorrection {
                now: SimTime::ZERO,
                node: NodeId(0),
                old: SimTime::ZERO,
                new: SimTime::ZERO,
            },
            TraceEvent::CacheLoad {
                now: SimTime::ZERO,
                node: NodeId(0),
                chunk: chunk(0),
            },
            TraceEvent::CacheEvict {
                now: SimTime::ZERO,
                node: NodeId(0),
                chunk: chunk(1),
            },
            TraceEvent::NodeFault {
                now: SimTime::ZERO,
                node: NodeId(1),
                lost_tasks: 4,
            },
            TraceEvent::NodeUp {
                now: SimTime::ZERO,
                node: NodeId(1),
            },
            TraceEvent::JobDone {
                now: SimTime::ZERO,
                job: JobId(9),
                latency: SimDuration::from_millis(3),
            },
            TraceEvent::Admitted {
                now: SimTime::ZERO,
                job: JobId(10),
                queue_depth: 2,
            },
            TraceEvent::Rejected {
                now: SimTime::ZERO,
                job: JobId(11),
                reason: RejectReason::GlobalCap,
            },
            TraceEvent::Coalesced {
                now: SimTime::ZERO,
                superseded: JobId(12),
                by: JobId(13),
            },
            TraceEvent::Expired {
                now: SimTime::ZERO,
                job: JobId(14),
                waited: SimDuration::from_millis(50),
            },
            TraceEvent::BatchEscalated {
                now: SimTime::ZERO,
                job: JobId(15),
                waited: SimDuration::from_secs(2),
            },
            TraceEvent::ShardAssigned {
                now: SimTime::ZERO,
                job: JobId(16),
                shard: ShardId(3),
            },
            TraceEvent::ShardMigrated {
                now: SimTime::ZERO,
                job: JobId(17),
                from: ShardId(3),
                to: ShardId(0),
            },
            TraceEvent::ShardSaturated {
                now: SimTime::ZERO,
                shard: ShardId(3),
                queued: 12,
            },
            TraceEvent::WeightsUpdated {
                now: SimTime::ZERO,
                locality_pm: 520,
                balance_pm: 180,
                fragmentation_pm: 150,
                starvation_pm: 150,
            },
            TraceEvent::ShareAdjusted {
                now: SimTime::ZERO,
                node: NodeId(2),
                interactive_pm: 625,
            },
            TraceEvent::FaultInjected {
                now: SimTime::ZERO,
                fault: FaultKind::NodeDegrade {
                    node: NodeId(3),
                    factor_pm: 2000,
                },
            },
            TraceEvent::ShardFailed {
                now: SimTime::ZERO,
                shard: ShardId(1),
                orphaned: 5,
            },
            TraceEvent::ShardRecovered {
                now: SimTime::ZERO,
                shard: ShardId(1),
                adopted: 2,
            },
            TraceEvent::DegradedEntered {
                now: SimTime::ZERO,
                pressure: 6,
            },
            TraceEvent::DegradedExited {
                now: SimTime::ZERO,
                pressure: 1,
            },
        ];
        assert_eq!(events.len(), TraceEvent::TAGS.len());
        // Carrying the whole `FaultKind` must not widen every event.
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
        let jsonl = events_to_jsonl(&events);
        assert!(
            jsonl.contains(
                "{\"t\":\"fault_injected\",\"now_us\":0,\"kind\":\"node_degrade\",\
                 \"target\":3,\"param\":2000}\n"
            ),
            "{jsonl}"
        );
        assert_eq!(jsonl.lines().count(), events.len());
        for (line, event) in jsonl.lines().zip(&events) {
            assert!(
                line.starts_with(&format!("{{\"t\":\"{}\"", event.tag())),
                "{line}"
            );
            assert!(TraceEvent::TAGS.contains(&event.tag()), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "balanced braces: {line}"
            );
        }
    }

    #[test]
    fn reason_codes_round_trip() {
        for reason in [
            RejectReason::GlobalCap,
            RejectReason::UserCap,
            RejectReason::QueueFull,
            RejectReason::Degraded,
            RejectReason::UnknownDataset,
        ] {
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
        }
        for reason in [DropReason::DeadlineExpired, DropReason::Superseded] {
            assert_eq!(DropReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(RejectReason::from_code(9), None);
        assert_eq!(DropReason::from_code(9), None);
    }

    #[test]
    fn prediction_report_joins_assignments_to_completions() {
        let events = vec![
            TraceEvent::CycleStart {
                now: SimTime::ZERO,
                queued: 2,
            },
            assign(1, 0, 0, 0, 10),
            assign(2, 0, 1, 0, 10),
            TraceEvent::CycleEnd {
                now: SimTime::ZERO,
                assignments: 2,
                wall_micros: 5,
            },
            // Job 1 ran exactly as predicted; job 2 started 4 ms late and
            // ran 2 ms long.
            done(1, 0, 0, 0, 10),
            done(2, 0, 1, 4, 12),
        ];
        let cycles = prediction_by_cycle(&events);
        assert_eq!(cycles.len(), 1);
        let c = cycles[0];
        assert_eq!((c.assigned, c.completed), (2, 2));
        assert_eq!(c.mean_start_error, SimDuration::from_millis(2));
        assert_eq!(c.mean_exec_error, SimDuration::from_millis(1));
        let text = format_prediction_report(&cycles, 10);
        assert!(text.contains("start err avg"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn prediction_report_handles_reassignment() {
        // The same task is assigned twice (crash re-placement): only the
        // second assignment may claim the completion.
        let events = vec![
            TraceEvent::CycleStart {
                now: SimTime::ZERO,
                queued: 1,
            },
            assign(1, 0, 0, 0, 10),
            TraceEvent::CycleStart {
                now: SimTime::from_millis(30),
                queued: 0,
            },
            assign(1, 0, 1, 30, 10),
            done(1, 0, 1, 30, 10),
        ];
        let cycles = prediction_by_cycle(&events);
        // The first cycle's assignment was superseded, leaving it empty, so
        // only the second cycle is reported.
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].cycle, 1);
        assert_eq!((cycles[0].assigned, cycles[0].completed), (1, 1));
        assert_eq!(cycles[0].mean_start_error, SimDuration::ZERO);
    }

    #[test]
    fn estimate_trajectory_extracts_errors() {
        let events = vec![
            TraceEvent::EstimateCorrection {
                now: SimTime::from_millis(1),
                chunk: chunk(0),
                old: SimDuration::from_millis(100),
                new: SimDuration::from_millis(40),
            },
            TraceEvent::EstimateCorrection {
                now: SimTime::from_millis(2),
                chunk: chunk(0),
                old: SimDuration::from_millis(40),
                new: SimDuration::from_millis(41),
            },
        ];
        let points = estimate_trajectory(&events);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].error, SimDuration::from_millis(60));
        assert_eq!(points[1].error, SimDuration::from_millis(1));
    }

    #[test]
    fn recovery_report_measures_mttr_and_reroutes() {
        let events = vec![
            // Job 1 is interactive (flagged on its assignment); job 2 is not.
            assign(1, 0, 0, 0, 5),
            TraceEvent::FaultInjected {
                now: SimTime::from_millis(10),
                fault: FaultKind::NodeCrash(NodeId(0)),
            },
            TraceEvent::NodeFault {
                now: SimTime::from_millis(10),
                node: NodeId(0),
                lost_tasks: 2,
            },
            TraceEvent::JobDone {
                now: SimTime::from_millis(40),
                job: JobId(2),
                latency: SimDuration::from_millis(40),
            },
            TraceEvent::FaultInjected {
                now: SimTime::from_millis(50),
                fault: FaultKind::ShardCrash(ShardId(1)),
            },
            TraceEvent::ShardFailed {
                now: SimTime::from_millis(50),
                shard: ShardId(1),
                orphaned: 3,
            },
            // A batch completion first: closes plain MTTR, not interactive.
            TraceEvent::JobDone {
                now: SimTime::from_millis(60),
                job: JobId(2),
                latency: SimDuration::from_millis(10),
            },
            TraceEvent::JobDone {
                now: SimTime::from_millis(75),
                job: JobId(1),
                latency: SimDuration::from_millis(25),
            },
            TraceEvent::Expired {
                now: SimTime::from_millis(80),
                job: JobId(3),
                waited: SimDuration::from_millis(80),
            },
        ];
        let report = recovery_report(&events);
        assert_eq!(report.faults.len(), 2);
        assert_eq!(report.faults[0].kind, FaultKind::NodeCrash(NodeId(0)));
        assert_eq!(report.faults[0].mttr, Some(SimDuration::from_millis(30)));
        assert_eq!(report.faults[0].interactive_mttr, None);
        assert_eq!(report.faults[1].mttr, Some(SimDuration::from_millis(10)));
        assert_eq!(
            report.faults[1].interactive_mttr,
            Some(SimDuration::from_millis(25))
        );
        assert_eq!(report.max_mttr, SimDuration::from_millis(30));
        assert_eq!(report.mean_mttr, SimDuration::from_millis(20));
        assert_eq!(report.max_interactive_mttr, SimDuration::from_millis(25));
        assert_eq!(report.jobs_rerouted, 5);
        assert_eq!(report.frames_lost, 1);
    }

    #[test]
    fn node_activity_measures_busy_idle_and_starvation() {
        let events = vec![
            done(1, 0, 0, 0, 20),  // node 0 busy 0-20
            done(2, 0, 0, 60, 40), // node 0 busy 60-100 → 40 ms starvation gap
            done(3, 0, 1, 50, 10), // node 1 busy 50-60
        ];
        let horizon = SimTime::from_millis(100);
        let activity = node_activity(&events, 2, horizon);
        assert_eq!(activity[0].tasks, 2);
        assert_eq!(activity[0].busy, SimDuration::from_millis(60));
        assert_eq!(activity[0].idle, SimDuration::from_millis(40));
        assert_eq!(activity[0].longest_idle, SimDuration::from_millis(40));
        assert!((activity[0].utilization - 0.6).abs() < 1e-9);
        // Node 1 idles 50 ms before its only task and 40 ms after.
        assert_eq!(activity[1].longest_idle, SimDuration::from_millis(50));
        let text = format_node_activity(&activity);
        assert!(text.contains("longest idle"));
        assert_eq!(text.lines().count(), 3);
    }
}
