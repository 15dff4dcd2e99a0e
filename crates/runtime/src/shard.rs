//! Sharded multi-head scheduling: N head-node cycle loops behind a
//! consistent-hash routing tier.
//!
//! One [`HeadRuntime`] is the paper's single head node — and the hard
//! ceiling on users and cluster size. [`ShardedRuntime`] breaks it by
//! partitioning the cluster into shards, each owning a slice of the
//! physical nodes (a [`ShardMap`] of whole leaf/spine groups) and running
//! its *own, unmodified* `HeadRuntime` over that slice. A thin routing
//! tier in front hashes each arriving job's dataset onto the
//! [`HashRing`], so every job of a dataset — and therefore every chunk
//! its shard ends up caching — lands on one shard: `Cache[c]` locality
//! survives the routing hop.
//!
//! `ShardedRuntime` is the one head type both substrates hold. The
//! paper's single head node is its one-shard case: an identity
//! [`ShardMap`] around one `HeadRuntime`, placing — and tracing, and
//! reporting — exactly as that bare runtime would. Everything the routing
//! tier does on its own account starts at two shards, decided from the
//! shard count alone: `shard_assigned` events, the saturation steal,
//! fault pressure and degraded-mode shedding, shard-head failover, and
//! the per-shard outcome breakdown.
//!
//! Node numbering is the seam. Each shard's runtime schedules over
//! *local* node indices `0..n_s`; this module translates at every
//! boundary crossing — assignments local→global on dispatch (via a
//! wrapping [`Substrate`]), completions and faults global→local on the
//! way in, and probe events local→global (via a wrapping [`Probe`]) so
//! one trace stream describes the whole cluster. Because each shard's
//! placement is a deterministic function of its own slice and its own
//! arrivals, a sharded run places identically on the simulator and the
//! live service — the same parity argument as the single head, applied
//! per shard.
//!
//! Saturation and migration: at each cycle boundary a shard whose
//! admission buffer exceeds the saturation threshold emits
//! [`TraceEvent::ShardSaturated`] and its buffered *batch* jobs are
//! stolen by the least-loaded shard ([`TraceEvent::ShardMigrated`]).
//! Interactive users never migrate — a moved user would cold-miss every
//! chunk on the new shard, which is exactly the cost the ring routing
//! exists to avoid. Batch frames are latency-tolerant bulk work; moving
//! them trades one cold load per chunk against an interactive queue that
//! stops growing.
//!
//! Shard-head failover: [`ShardedRuntime::on_shard_fail`] survives the
//! loss of one head's cycle loop. The dead shard leaves the ring (the
//! minimal-disruption rebalance: only its datasets re-home), its node
//! slice is adopted round-robin by the surviving heads
//! ([`TraceEvent::ShardFailed`] / [`TraceEvent::ShardRecovered`]), and
//! every admitted-but-unfinished job drained off the dead head is
//! re-admitted exactly once on its dataset's new home shard. Because
//! [`ShardedRuntime::on_fault`] power-cycles the dead slice's render nodes
//! first ([`ShardedRuntime::failover_slice`]), no stale completion can
//! race the rebuilt control state. Sustained fault pressure (node faults, shard
//! loss) drives an explicit *degraded mode* with hysteresis: while
//! degraded, new batch arrivals are shed ([`RejectReason::Degraded`]) so
//! surviving capacity protects interactive sessions; pressure decays at
//! cycle boundaries and batch admission resumes below the exit threshold.

use std::sync::{Arc, RwLock};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::data::Catalog;
use vizsched_core::ids::{ChunkId, DatasetId, NodeId, ShardId};
use vizsched_core::job::Job;
use vizsched_core::sched::{Assignment, Trigger};
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::{Probe, RejectReason, TraceEvent};
pub use vizsched_routing::{HashRing, ShardMap, ShardNodes};

use crate::{
    Admission, Completion, CycleOutcome, HeadRuntime, JobFinish, NodeCounters, OverloadPolicy,
    OverloadStats, RuntimeOutcome, Substrate,
};

/// One shard's view of the cluster: local node index → global node id.
/// Starts as the shard's contiguous [`ShardMap`] span and grows when the
/// shard adopts nodes from a failed peer, so the translation is a lookup,
/// not a base offset. Shared between the routing tier and the shard's
/// probe adapter (reads vastly outnumber the rare failover write).
type LocalView = Arc<RwLock<Vec<u32>>>;

/// A substrate adapter translating one shard's local node indices to the
/// cluster-global numbering of the wrapped substrate.
struct ShardSub<'a, S: Substrate> {
    inner: &'a mut S,
    locals: LocalView,
}

impl<S: Substrate> Substrate for ShardSub<'_, S> {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        let mut global = *assignment;
        global.node = NodeId(self.locals.read().expect("locals lock")[global.node.0 as usize]);
        self.inner.dispatch(&global)
    }
}

/// A probe adapter rewriting the node ids in one shard's events from
/// shard-local to cluster-global, so the merged trace stream reads as one
/// cluster. Events without a node field pass through untouched.
struct ShardProbe {
    inner: Arc<dyn Probe>,
    locals: LocalView,
}

impl Probe for ShardProbe {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn on_event(&self, event: &TraceEvent) {
        let mut global = *event;
        if let Some(node) = global.node_mut() {
            node.0 = self.locals.read().expect("locals lock")[node.0 as usize];
        }
        self.inner.on_event(&global);
    }
}

/// Per-shard routing-tier counters (the shard's own scheduling counters
/// live in its [`HeadRuntime`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ShardCounters {
    assigned: u64,
    migrated_in: u64,
    migrated_out: u64,
    saturations: u64,
}

/// End-of-run summary for one shard, one row of
/// [`RuntimeOutcome::per_shard`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardOutcome {
    /// The shard.
    pub shard: ShardId,
    /// First global node index of the shard's slice.
    pub base: u32,
    /// Nodes in the shard's slice.
    pub nodes: u32,
    /// Jobs the routing tier assigned to this shard (including stolen
    /// ones).
    pub assigned: u64,
    /// Jobs this shard completed.
    pub jobs_completed: u64,
    /// Jobs still unfinished at the end of the run.
    pub incomplete_jobs: usize,
    /// The shard's own overload-control counters.
    pub overload: OverloadStats,
    /// Batch jobs stolen *by* this shard from saturated peers.
    pub migrated_in: u64,
    /// Batch jobs stolen *from* this shard while saturated.
    pub migrated_out: u64,
    /// Cycle boundaries at which this shard was saturated.
    pub saturations: u64,
}

/// N head-node cycle loops behind a consistent-hash routing tier; see the
/// module docs for the design.
///
/// The driving contract is [`HeadRuntime`]'s, verbatim — arrivals,
/// cycles, completions, faults — with all node ids cluster-global; the
/// sharded runtime routes each call to the owning shard and translates
/// numbering both ways.
pub struct ShardedRuntime {
    shards: Vec<HeadRuntime>,
    map: ShardMap,
    ring: HashRing,
    /// The run's probe (cluster-global ids), for routing-tier events and
    /// `fault_injected`.
    pub(crate) probe: Arc<dyn Probe>,
    /// Per-shard saturation thresholds (buffered jobs at a cycle
    /// boundary).
    saturation: Vec<usize>,
    counters: Vec<ShardCounters>,
    /// Per-shard local→global node translation; grows on adoption.
    locals: Vec<LocalView>,
    /// Snapshot of a dead shard's final local view, kept so its per-node
    /// counters still merge under the right global ids at the end.
    retired: Vec<Vec<u32>>,
    /// Global node id → (owning shard index, local index there). Updated
    /// when survivors adopt a dead shard's slice.
    owner_of: Vec<(u32, u32)>,
    /// Shards whose head has died; their runtimes stay inert.
    dead: Vec<bool>,
    /// Per global node: cache-memory quota, needed to rebuild table rows
    /// when a survivor adopts the node.
    quotas: Vec<u64>,
    /// Fault-pressure score driving degraded mode; decays at cycle
    /// boundaries.
    pressure: u32,
    degraded: bool,
    degraded_shed: u64,
    /// When the pending work the next cycle is for was first seen: the
    /// latch behind [`next_cycle`](Self::next_cycle), cleared by
    /// [`on_cycle`](Self::on_cycle).
    pending_since: Option<SimTime>,
    /// The instant of the last [`on_cycle`](Self::on_cycle).
    last_cycle: Option<SimTime>,
    /// The ω grid fault pressure decays on when the policy has no cycle
    /// of its own (an on-arrival policy).
    omega: SimDuration,
}

impl ShardedRuntime {
    /// Buffered jobs per shard node above which a shard counts as
    /// saturated: the shard's nodes are all busy this cycle and the next
    /// several cycles are already spoken for.
    pub const DEFAULT_SATURATION_PER_NODE: usize = 4;

    /// Fault-pressure added by one fresh node fault.
    pub const NODE_FAULT_PRESSURE: u32 = 2;
    /// Fault-pressure added by one shard-head loss.
    pub const SHARD_FAIL_PRESSURE: u32 = 4;
    /// Pressure at or above which degraded mode is entered.
    pub const DEGRADED_ENTER: u32 = 4;
    /// Pressure at or below which degraded mode is exited. Strictly
    /// below [`Self::DEGRADED_ENTER`] so isolated faults near the
    /// boundary cannot flap the mode (hysteresis); pressure decays by
    /// one per cycle boundary.
    pub const DEGRADED_EXIT: u32 = 1;

    /// Build a sharded runtime over `cluster`, partitioned into `shards`
    /// topology-aware slices.
    ///
    /// `build` constructs one shard's [`HeadRuntime`] from its slice of
    /// the cluster and its (node-translating) probe — the caller picks
    /// the scheduler, catalog, cost model, and table setup there, exactly
    /// as it would for a single head. Schedulers are stateful, so each
    /// shard must get a fresh instance. `omega` is the cycle length ω the
    /// service runs at: a cycle policy ticks on its own ω, and an
    /// on-arrival policy still owes a cycle every ω while fault pressure
    /// decays.
    ///
    /// # Panics
    /// If a built runtime's table width does not match its slice.
    pub fn new<F>(
        cluster: &ClusterSpec,
        shards: usize,
        omega: SimDuration,
        probe: Arc<dyn Probe>,
        mut build: F,
    ) -> Self
    where
        F: FnMut(ShardId, &ClusterSpec, Arc<dyn Probe>) -> HeadRuntime,
    {
        let map = ShardMap::new(cluster.len(), shards);
        let ring = HashRing::with_shards(shards);
        let mut runtimes = Vec::with_capacity(shards);
        let mut saturation = Vec::with_capacity(shards);
        let mut locals: Vec<LocalView> = Vec::with_capacity(shards);
        for span in map.spans() {
            let slice = ClusterSpec {
                nodes: cluster.nodes[span.base as usize..(span.base + span.nodes) as usize]
                    .to_vec(),
            };
            let view: LocalView =
                Arc::new(RwLock::new((span.base..span.base + span.nodes).collect()));
            let shard_probe: Arc<dyn Probe> = Arc::new(ShardProbe {
                inner: probe.clone(),
                locals: view.clone(),
            });
            locals.push(view);
            let runtime = build(span.shard, &slice, shard_probe);
            assert_eq!(
                runtime.tables().node_count(),
                span.nodes as usize,
                "{}: runtime built over the wrong slice",
                span.shard
            );
            saturation.push(Self::DEFAULT_SATURATION_PER_NODE * span.nodes as usize);
            runtimes.push(runtime);
        }
        let counters = vec![ShardCounters::default(); shards];
        let owner_of = (0..cluster.len())
            .map(|g| {
                let (shard, local) = map.local(NodeId(g as u32));
                (shard.0, local.0)
            })
            .collect();
        let quotas = cluster.nodes.iter().map(|n| n.mem_quota).collect();
        ShardedRuntime {
            shards: runtimes,
            map,
            ring,
            probe,
            saturation,
            counters,
            locals,
            retired: vec![Vec::new(); shards],
            owner_of,
            dead: vec![false; shards],
            quotas,
            pressure: 0,
            degraded: false,
            degraded_shed: 0,
            pending_since: None,
            last_cycle: None,
            omega,
        }
    }

    /// The owning shard and local index of a global node, tracking
    /// post-failover adoptions (unlike the static [`ShardMap`]).
    fn locate(&self, node: NodeId) -> (usize, NodeId) {
        let (shard, local) = self.owner_of[node.0 as usize];
        (shard as usize, NodeId(local))
    }

    /// Whether there is a routing tier at all. One shard is the paper's
    /// single head node: every call passes straight through to it.
    fn routed(&self) -> bool {
        self.shards.len() > 1
    }

    /// Raise fault pressure, entering degraded mode at the threshold. A
    /// single head has no surviving capacity to protect by shedding, so it
    /// keeps no pressure score.
    fn bump_pressure(&mut self, now: SimTime, amount: u32) {
        if !self.routed() {
            return;
        }
        self.pressure = self.pressure.saturating_add(amount);
        self.pending_since.get_or_insert(now);
        if !self.degraded && self.pressure >= Self::DEGRADED_ENTER {
            self.degraded = true;
            if self.probe.enabled() {
                self.probe.on_event(&TraceEvent::DegradedEntered {
                    now,
                    pressure: self.pressure,
                });
            }
        }
    }

    /// Decay fault pressure by one, leaving degraded mode below the exit
    /// threshold. Called once per cycle boundary; while pressure is left,
    /// [`next_cycle`](Self::next_cycle) owes the next one on every policy.
    fn decay_pressure(&mut self, now: SimTime) {
        self.pressure = self.pressure.saturating_sub(1);
        if self.degraded && self.pressure <= Self::DEGRADED_EXIT {
            self.degraded = false;
            if self.probe.enabled() {
                self.probe.on_event(&TraceEvent::DegradedExited {
                    now,
                    pressure: self.pressure,
                });
            }
        }
    }

    /// Whether the routing tier is currently shedding batch arrivals.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The global node ids a shard currently owns (its original slice
    /// plus adoptions — empty once dead).
    fn shard_nodes(&self, shard: ShardId) -> Vec<NodeId> {
        self.locals[shard.index()]
            .read()
            .expect("locals lock")
            .iter()
            .map(|&g| NodeId(g))
            .collect()
    }

    /// Whether losing this shard's head can be survived: the shard exists,
    /// is alive, and is not the last live one.
    fn can_fail_over(&self, shard: ShardId) -> bool {
        let live = self.dead.iter().filter(|&&d| !d).count();
        self.dead.get(shard.index()) == Some(&false) && live > 1
    }

    /// The nodes a substrate must power-cycle before
    /// [`on_shard_fail`](Self::on_shard_fail): the shard's current slice
    /// when its head can fail over, empty when it cannot (already dead,
    /// out of range, or the last live shard — including every one-shard
    /// run). An empty slice means the crash is a no-op end to end: no
    /// node restarts, no state changes.
    pub fn failover_slice(&self, shard: ShardId) -> Vec<NodeId> {
        if self.can_fail_over(shard) {
            self.shard_nodes(shard)
        } else {
            Vec::new()
        }
    }

    /// Whether a shard's head has died.
    pub fn is_shard_dead(&self, shard: ShardId) -> bool {
        self.dead[shard.index()]
    }

    /// The node partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard a dataset's jobs route to.
    pub fn shard_of_dataset(&self, dataset: DatasetId) -> ShardId {
        self.ring.shard_for_dataset(dataset)
    }

    /// Install an overload policy on every shard.
    pub fn set_overload_policy(&mut self, policy: OverloadPolicy) {
        for shard in &mut self.shards {
            shard.set_overload_policy(policy);
        }
    }

    /// Aggregate overload counters across shards.
    pub fn overload_stats(&self) -> OverloadStats {
        self.shards.iter().map(HeadRuntime::overload_stats).sum()
    }

    /// The one cycle clock both substrates follow: when the next
    /// [`on_cycle`](Self::on_cycle) is due, or `None` when no cycle is
    /// owed. A cycle policy owes one while a shard buffers a job or holds
    /// deferred work; every policy owes one while degraded-mode fault
    /// pressure is left to decay.
    ///
    /// A cycle is due at the first multiple of ω at or after the instant
    /// the pending work was first seen, and strictly after the last
    /// `on_cycle`. That instant is latched until `on_cycle` runs, so a
    /// caller that asks again after oversleeping gets the same instant,
    /// now in the past, and runs that cycle instead of skipping to the
    /// next grid point. A buffered arrival or a fault that raises
    /// pressure latches its own instant; other work latches the `now` of
    /// the first call that sees it, so a driving loop asks after every
    /// event: the simulator after every event, the live head at the top
    /// of every loop iteration.
    pub fn next_cycle(&mut self, now: SimTime) -> Option<SimTime> {
        let cycle = match self.shards[0].trigger() {
            Trigger::Cycle(cycle) => Some(cycle),
            Trigger::OnArrival => None,
        };
        let work = cycle.is_some() && (self.queued_jobs() > 0 || self.has_deferred());
        if !work && self.pressure == 0 {
            self.pending_since = None;
            return None;
        }
        let omega = cycle.unwrap_or(self.omega).as_micros().max(1);
        let since = self.pending_since.get_or_insert(now).as_micros();
        let after = self
            .last_cycle
            .map_or(0, |last| last.as_micros() / omega + 1);
        Some(SimTime::from_micros(
            since.div_ceil(omega).max(after) * omega,
        ))
    }

    /// Whether any shard holds deferred work.
    pub fn has_deferred(&self) -> bool {
        self.shards.iter().any(HeadRuntime::has_deferred)
    }

    /// The policy's display name.
    pub fn scheduler_name(&self) -> &str {
        self.shards[0].scheduler_name()
    }

    /// Jobs buffered across all shards.
    pub fn queued_jobs(&self) -> usize {
        self.shards.iter().map(HeadRuntime::queued_jobs).sum()
    }

    /// Jobs fully completed across all shards.
    pub fn jobs_completed(&self) -> u64 {
        self.shards.iter().map(HeadRuntime::jobs_completed).sum()
    }

    /// Whether a (global) node is currently marked down.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        let (shard, local) = self.locate(node);
        self.shards[shard].is_node_down(local)
    }

    /// The decomposition catalog (every shard holds the same one).
    pub fn catalog(&self) -> &Catalog {
        self.shards[0].catalog()
    }

    /// Seed one `Estimate[c]` prior on every shard (the sharded image of
    /// `tables_mut().estimate` seeding — only the chunk's home shard will
    /// ever read it, but a stale prior elsewhere is harmless).
    pub fn seed_estimate(&mut self, chunk: ChunkId, estimate: SimDuration) {
        for shard in &mut self.shards {
            shard.tables_mut().estimate.record(chunk, estimate);
        }
    }

    /// Record a render time measured on a (global) node in its owning
    /// shard's `Estimate[c]` — the §V-B refresh of `α`. Only the live head
    /// feeds it: a simulated node renders in the model's `α` already.
    pub fn record_render(&mut self, node: NodeId, chunk: ChunkId, render: SimDuration) {
        let (shard, _) = self.locate(node);
        self.shards[shard]
            .tables_mut()
            .estimate
            .record_render(chunk, render);
    }

    /// Mirror a pre-run cache placement on the owning shard (global node
    /// numbering).
    pub fn record_warm_load(&mut self, node: NodeId, chunk: ChunkId, bytes: u64) {
        let (shard, local) = self.locate(node);
        self.shards[shard].record_warm_load(local, chunk, bytes);
    }

    /// Route one arriving job to its shard and hand it to that shard's
    /// runtime. Returns the owning shard alongside the shard's admission
    /// verdict. With more than one shard, emits
    /// [`TraceEvent::ShardAssigned`] for every admitted arrival. While
    /// degraded, new *batch* arrivals are shed with
    /// [`RejectReason::Degraded`] before they reach a shard — surviving
    /// capacity is reserved for interactive sessions.
    ///
    /// This is the one entry point shared by both substrates, so it is
    /// where [`Probe::on_job_offered`] fires — exactly once per offered
    /// job. Batch migration and shard failover re-admit through the
    /// per-shard runtimes, bypassing this method, and therefore never
    /// double-record.
    pub fn on_job_arrival<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        job: Job,
    ) -> (ShardId, Admission) {
        if self.probe.enabled() {
            self.probe.on_job_offered(now, &job);
        }
        let shard = self.ring.shard_for_dataset(job.dataset);
        if self.degraded && !job.kind.is_interactive() {
            self.degraded_shed += 1;
            if self.probe.enabled() {
                self.probe.on_event(&TraceEvent::Rejected {
                    now,
                    job: job.id,
                    reason: RejectReason::Degraded,
                });
            }
            return (shard, Admission::Rejected(RejectReason::Degraded));
        }
        self.counters[shard.index()].assigned += 1;
        if self.routed() && self.probe.enabled() {
            self.probe.on_event(&TraceEvent::ShardAssigned {
                now,
                job: job.id,
                shard,
            });
        }
        let locals = self.locals[shard.index()].clone();
        let admission = self.shards[shard.index()].on_job_arrival(
            &mut ShardSub { inner: sub, locals },
            now,
            job,
        );
        if let Admission::Buffered { .. } = admission {
            self.pending_since.get_or_insert(now);
        }
        (shard, admission)
    }

    /// Run one cycle boundary across every shard: first the saturation
    /// scan (stealing buffered batch off saturated shards onto the
    /// least-loaded peer, so the stolen work is scheduled *this* cycle on
    /// its new shard), then each shard's own cycle. Expired jobs from all
    /// shards are merged into one [`CycleOutcome`].
    pub fn on_cycle<S: Substrate>(&mut self, sub: &mut S, now: SimTime) -> CycleOutcome {
        self.pending_since = None;
        self.last_cycle = Some(now);
        self.decay_pressure(now);
        if self.routed() {
            self.steal_from_saturated(sub, now);
        }
        let mut outcome = CycleOutcome::default();
        for i in 0..self.shards.len() {
            if self.dead[i] {
                continue;
            }
            let locals = self.locals[i].clone();
            let shard_outcome = self.shards[i].on_cycle(&mut ShardSub { inner: sub, locals }, now);
            outcome.invoked |= shard_outcome.invoked;
            outcome.expired.extend(shard_outcome.expired);
        }
        outcome
    }

    /// The migration pass. The saturated set is snapshotted *before* any
    /// job moves, and only shards unsaturated at the snapshot receive —
    /// otherwise two overfull shards would steal the same jobs back and
    /// forth within one pass. The receiving shard is the least-loaded
    /// eligible one, recomputed per job so a large steal spreads.
    /// Deterministic: queue depths at a cycle boundary are
    /// substrate-independent, and ties break by shard index.
    fn steal_from_saturated<S: Substrate>(&mut self, sub: &mut S, now: SimTime) {
        let tracing = self.probe.enabled();
        // A dead shard is never saturated (it holds no work) and never a
        // target, so fold it into the saturated mask.
        let saturated: Vec<bool> = self
            .shards
            .iter()
            .zip(&self.saturation)
            .zip(&self.dead)
            .map(|((shard, &cap), &dead)| dead || shard.queued_jobs() > cap)
            .collect();
        let any_target = saturated.iter().any(|&s| !s);
        for from in 0..self.shards.len() {
            if !saturated[from] || self.dead[from] {
                continue;
            }
            self.counters[from].saturations += 1;
            if tracing {
                self.probe.on_event(&TraceEvent::ShardSaturated {
                    now,
                    shard: ShardId(from as u32),
                    queued: self.shards[from].queued_jobs(),
                });
            }
            if !any_target {
                // Every shard is overfull: migration would only shuffle
                // the backlog around. Leave it where its locality is.
                continue;
            }
            for job in self.shards[from].take_buffered_batch() {
                let to = self.least_loaded_unsaturated(&saturated);
                let id = job.id;
                self.counters[from].migrated_out += 1;
                self.counters[to].migrated_in += 1;
                self.counters[to].assigned += 1;
                if tracing {
                    self.probe.on_event(&TraceEvent::ShardMigrated {
                        now,
                        job: id,
                        from: ShardId(from as u32),
                        to: ShardId(to as u32),
                    });
                }
                let locals = self.locals[to].clone();
                // Batch is admitted unconditionally and never coalesced,
                // so re-arrival cannot bounce.
                let admission =
                    self.shards[to].on_job_arrival(&mut ShardSub { inner: sub, locals }, now, job);
                debug_assert!(admission.is_admitted(), "migrated batch bounced");
            }
        }
    }

    /// The shard with the shallowest admission buffer among those that
    /// were unsaturated at the snapshot; ties break toward the lowest
    /// shard index.
    fn least_loaded_unsaturated(&self, saturated: &[bool]) -> usize {
        self.shards
            .iter()
            .enumerate()
            .filter(|&(i, _)| !saturated[i])
            .min_by_key(|&(i, shard)| (shard.queued_jobs(), i))
            .map(|(i, _)| i)
            .expect("at least one unsaturated shard")
    }

    /// Apply one completion (global node numbering) on the owning shard.
    pub fn on_task_done(&mut self, now: SimTime, mut done: Completion) -> Option<JobFinish> {
        let (shard, local) = self.locate(done.node);
        done.node = local;
        self.shards[shard].on_task_done(now, done)
    }

    /// Handle a (global) node fault on its owning shard. Rerouting stays
    /// inside the shard: its surviving nodes are the ones with the dead
    /// node's data locality, and node ownership only changes at shard
    /// failover. A fresh fault raises degraded-mode pressure.
    pub fn on_node_fault<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        node: NodeId,
    ) -> usize {
        let (shard, local) = self.locate(node);
        let fresh = !self.shards[shard].is_node_down(local);
        let locals = self.locals[shard].clone();
        let lost =
            self.shards[shard].on_node_fault(&mut ShardSub { inner: sub, locals }, now, local);
        if fresh {
            self.bump_pressure(now, Self::NODE_FAULT_PRESSURE);
        }
        lost
    }

    /// Handle a (global) node rejoining, cold-cached. The node rejoins
    /// whichever shard currently owns it — its original slice, or the
    /// adopter after a failover.
    pub fn on_node_recover(&mut self, now: SimTime, node: NodeId) {
        let (shard, local) = self.locate(node);
        self.shards[shard].on_node_recover(now, local);
    }

    /// Survive the loss of one shard head's cycle loop.
    ///
    /// The dead shard leaves the ring (only its datasets re-home — the
    /// minimal-disruption rebalance), its node slice is adopted
    /// round-robin by the surviving heads in shard order, and every
    /// admitted-but-unfinished job drained off the dead head is
    /// re-admitted *exactly once* on its dataset's new home shard
    /// (bypassing degraded-mode shedding: these jobs were already
    /// admitted). Interactive sessions re-pin to the new home — the ring
    /// gives every surviving client of a dataset the same answer.
    ///
    /// The dead slice's render nodes must be power-cycled
    /// ([`failover_slice`](Self::failover_slice)) *before* this runs — as
    /// [`on_fault`](Self::on_fault) does — so completions dispatched by
    /// the dead head can never race the
    /// rebuilt control state; adopted nodes therefore join cold-cached
    /// and idle, which is exactly what [`HeadRuntime::adopt_node`]
    /// records.
    ///
    /// Returns the number of orphaned jobs re-admitted. A second failure
    /// of the same shard, an unknown shard id and the loss of the last
    /// live shard are no-ops (there is nothing to fail over, or nothing
    /// left to fail over to) — exactly the cases in which
    /// [`failover_slice`](Self::failover_slice) is empty.
    pub fn on_shard_fail<S: Substrate>(
        &mut self,
        sub: &mut S,
        now: SimTime,
        shard: ShardId,
    ) -> usize {
        if !self.can_fail_over(shard) {
            return 0;
        }
        let s = shard.index();
        self.dead[s] = true;
        self.ring.remove_shard(shard);
        let drained = self.shards[s].drain_for_failover();
        let slice = std::mem::take(&mut *self.locals[s].write().expect("locals lock"));
        let tracing = self.probe.enabled();
        if tracing {
            self.probe.on_event(&TraceEvent::ShardFailed {
                now,
                shard,
                orphaned: drained.len(),
            });
        }
        // Adopt the dead slice round-robin over survivors in shard order:
        // the slice spreads evenly, and the assignment is a deterministic
        // function of the shard states alone.
        let survivors: Vec<usize> = (0..self.shards.len()).filter(|&i| !self.dead[i]).collect();
        let mut adopted = vec![0usize; self.shards.len()];
        for (k, &g) in slice.iter().enumerate() {
            let tgt = survivors[k % survivors.len()];
            let local = self.shards[tgt].adopt_node(now, self.quotas[g as usize]);
            self.locals[tgt].write().expect("locals lock").push(g);
            self.owner_of[g as usize] = (tgt as u32, local.0);
            adopted[tgt] += 1;
        }
        self.retired[s] = slice;
        if tracing {
            for (i, &n) in adopted.iter().enumerate() {
                if n > 0 {
                    self.probe.on_event(&TraceEvent::ShardRecovered {
                        now,
                        shard: ShardId(i as u32),
                        adopted: n,
                    });
                }
            }
        }
        self.bump_pressure(now, Self::SHARD_FAIL_PRESSURE);
        // Re-admit the orphans on their datasets' new home shards. These
        // are re-pins, not migrations: no ShardMigrated is emitted, so
        // "interactive sessions never migrate" stays an invariant of the
        // saturation path alone.
        let orphaned = drained.len();
        for job in drained {
            let to = self.ring.shard_for_dataset(job.dataset);
            let t = to.index();
            self.counters[t].assigned += 1;
            if tracing {
                self.probe.on_event(&TraceEvent::ShardAssigned {
                    now,
                    job: job.id,
                    shard: to,
                });
            }
            let locals = self.locals[t].clone();
            self.shards[t].on_job_arrival(&mut ShardSub { inner: sub, locals }, now, job);
        }
        orphaned
    }

    /// Consume the runtime into one cluster-global outcome. One shard's
    /// outcome is already cluster-global and is returned as is, with no
    /// per-shard breakdown; more shards merge into one record, in job id
    /// (arrival) order, with node counters under global ids.
    pub fn into_outcome(mut self) -> RuntimeOutcome {
        if !self.routed() {
            let only = self.shards.pop().expect("at least one shard");
            return only.into_outcome();
        }
        let mut merged = RuntimeOutcome {
            per_node: vec![NodeCounters::default(); self.map.total_nodes()],
            degraded_shed: self.degraded_shed,
            ..RuntimeOutcome::default()
        };
        let spans = self.map.spans();
        for (s, runtime) in self.shards.into_iter().enumerate() {
            let outcome = runtime.into_outcome();
            // A dead shard's final view was snapshotted at failover; a
            // live shard's view may have grown past its span by adopting
            // nodes. Either way the merge is additive: after a failover,
            // work on one physical node is split between its original
            // owner's counters and its adopter's.
            let view = if self.dead[s] {
                std::mem::take(&mut self.retired[s])
            } else {
                std::mem::take(&mut *self.locals[s].write().expect("locals lock"))
            };
            debug_assert_eq!(view.len(), outcome.per_node.len());
            for (&g, &c) in view.iter().zip(&outcome.per_node) {
                merged.per_node[g as usize] += c;
            }
            let (span, counters) = (spans[s], self.counters[s]);
            merged.per_shard.push(ShardOutcome {
                shard: span.shard,
                base: span.base,
                nodes: span.nodes,
                assigned: counters.assigned,
                jobs_completed: outcome.jobs_completed,
                incomplete_jobs: outcome.incomplete_jobs,
                overload: outcome.overload,
                migrated_in: counters.migrated_in,
                migrated_out: counters.migrated_out,
                saturations: counters.saturations,
            });
            let (acc, record) = (&mut merged.record, outcome.record);
            acc.scheduler = record.scheduler;
            acc.scenario = record.scenario;
            acc.jobs.extend(record.jobs);
            acc.sched_wall_micros += record.sched_wall_micros;
            acc.sched_invocations += record.sched_invocations;
            acc.jobs_scheduled += record.jobs_scheduled;
            acc.makespan = acc.makespan.max(record.makespan);
            merged.incomplete_jobs += outcome.incomplete_jobs;
            merged.jobs_completed += outcome.jobs_completed;
            merged.overload += outcome.overload;
        }
        // Shards retire jobs independently; restore one cluster-wide
        // arrival order (ids are assigned in arrival order).
        merged.record.jobs.sort_unstable_by_key(|j| j.id);
        let total: NodeCounters = merged.per_node.iter().copied().sum();
        merged.record.cache_hits = total.hits;
        merged.record.cache_misses = total.misses;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OverloadPolicy;
    use vizsched_core::cost::CostParams;
    use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
    use vizsched_core::ids::{ActionId, BatchId, JobId, UserId};
    use vizsched_core::job::{FrameParams, JobKind};
    use vizsched_core::sched::SchedulerKind;
    use vizsched_core::tables::HeadTables;
    use vizsched_core::time::SimDuration;
    use vizsched_metrics::{CollectingProbe, NoopProbe};

    const GIB: u64 = 1 << 30;

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

    fn sharded(
        nodes: usize,
        shards: usize,
        kind: SchedulerKind,
        datasets: u32,
        probe: Arc<dyn Probe>,
    ) -> ShardedRuntime {
        let cluster = ClusterSpec::homogeneous(nodes, 2 * GIB);
        let catalog = Catalog::new(
            uniform_datasets(datasets, 2 * GIB),
            DecompositionPolicy::MaxChunkSize { max_bytes: GIB },
        );
        let omega = SimDuration::from_millis(30);
        ShardedRuntime::new(&cluster, shards, omega, probe, |_, slice, probe| {
            HeadRuntime::new(
                kind.build(omega),
                HeadTables::new(slice),
                catalog.clone(),
                CostParams::default(),
                probe,
                "shard-unit",
            )
        })
    }

    fn interactive(id: u64, dataset: u32, at: SimTime) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(dataset),
                action: ActionId(id),
            },
            dataset: DatasetId(dataset),
            issue_time: at,
            frame: FrameParams::default(),
        }
    }

    fn batch(id: u64, dataset: u32, at: SimTime) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Batch {
                user: UserId(99),
                request: BatchId(0),
                frame: id as u32,
            },
            dataset: DatasetId(dataset),
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
    fn next_cycle_is_none_without_a_cycle_owed() {
        let at = SimTime::from_millis(47);
        let mut sub = StubSubstrate::default();
        let mut rt = sharded(2, 1, SchedulerKind::Fcfsl, 1, Arc::new(NoopProbe));
        rt.on_job_arrival(&mut sub, at, batch(0, 0, at));
        assert_eq!(rt.next_cycle(at), None, "on-arrival policy");
        let mut rt = sharded(2, 1, SchedulerKind::Ours, 1, Arc::new(NoopProbe));
        assert_eq!(rt.next_cycle(at), None, "idle runtime");
    }

    #[test]
    fn a_buffered_job_is_due_at_the_next_grid_point() {
        let mut sub = StubSubstrate::default();
        for (arrival, due) in [(47, 60), (60, 60), (0, 0)] {
            let at = SimTime::from_millis(arrival);
            let mut rt = sharded(2, 1, SchedulerKind::Ours, 1, Arc::new(NoopProbe));
            rt.on_job_arrival(&mut sub, at, batch(0, 0, at));
            assert_eq!(rt.next_cycle(at), Some(SimTime::from_millis(due)));
        }
    }

    #[test]
    fn deferred_work_after_a_cycle_is_due_one_omega_later() {
        let at = SimTime::from_millis(47);
        let tick = SimTime::from_millis(60);
        let mut sub = StubSubstrate::default();
        let mut rt = sharded(2, 1, SchedulerKind::Ours, 1, Arc::new(NoopProbe));
        rt.on_job_arrival(&mut sub, at, batch(0, 0, at));
        assert_eq!(rt.next_cycle(at), Some(tick));
        // Both nodes busy past λ: OURS holds the batch job back.
        for node in 0..2 {
            rt.shards[0]
                .tables_mut()
                .available
                .correct(NodeId(node), SimTime::from_secs(60));
        }
        assert!(rt.on_cycle(&mut sub, tick).invoked);
        assert!(rt.has_deferred());
        let next = Some(SimTime::from_millis(90));
        assert_eq!(rt.next_cycle(tick), next);
        assert_eq!(rt.next_cycle(SimTime::from_millis(75)), next);
    }

    #[test]
    fn a_due_instant_stays_latched_after_it_passes() {
        let at = SimTime::from_millis(47);
        let due = Some(SimTime::from_millis(60));
        let mut sub = StubSubstrate::default();
        let mut rt = sharded(2, 1, SchedulerKind::Ours, 1, Arc::new(NoopProbe));
        rt.on_job_arrival(&mut sub, at, batch(0, 0, at));
        assert_eq!(rt.next_cycle(at), due);
        // A caller that overslept the grid point still gets it, not the
        // grid point after its wake.
        assert_eq!(rt.next_cycle(SimTime::from_millis(61)), due);
        assert_eq!(rt.next_cycle(SimTime::from_millis(95)), due);
    }

    #[test]
    fn a_buffered_arrival_latches_its_own_instant() {
        let at = SimTime::from_millis(59);
        let mut sub = StubSubstrate::default();
        let mut rt = sharded(2, 1, SchedulerKind::Ours, 1, Arc::new(NoopProbe));
        rt.on_job_arrival(&mut sub, at, batch(0, 0, at));
        // First asked after the grid point the arrival is due at.
        assert_eq!(
            rt.next_cycle(SimTime::from_millis(61)),
            Some(SimTime::from_millis(60))
        );
    }

    #[test]
    fn fault_pressure_owes_grid_cycles_under_an_on_arrival_policy() {
        let mut sub = StubSubstrate::default();
        let mut rt = sharded(8, 4, SchedulerKind::Fcfsl, 8, Arc::new(NoopProbe));
        let at = SimTime::from_millis(20);
        rt.on_node_fault(&mut sub, at, NodeId(0));
        rt.on_node_fault(&mut sub, at, NodeId(2));
        assert!(rt.is_degraded());
        // Pressure 4 decays one per grid point: 30, 60, 90, 120 ms.
        let (mut now, mut ticks) = (at, Vec::new());
        while let Some(due) = rt.next_cycle(now) {
            rt.on_cycle(&mut sub, due);
            now = due;
            ticks.push(due.as_micros() / 1000);
        }
        assert_eq!(ticks, [30, 60, 90, 120]);
        assert!(!rt.is_degraded());
    }

    #[test]
    fn jobs_dispatch_only_inside_their_shard() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 4, SchedulerKind::Fcfsl, 16, probe.clone());
        let mut sub = StubSubstrate::default();
        for d in 0..16u32 {
            let (shard, admission) = rt.on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                interactive(d as u64, d, SimTime::ZERO),
            );
            assert_eq!(shard, rt.shard_of_dataset(DatasetId(d)));
            assert_eq!(admission, Admission::Scheduled);
        }
        // Every dispatched task landed on a node of its job's shard.
        assert!(!sub.dispatched.is_empty());
        for a in &sub.dispatched {
            let dataset = a.task.chunk.dataset;
            let home = rt.shard_of_dataset(dataset);
            let span = rt.map().span(home);
            assert!(
                (span.base..span.base + span.nodes).contains(&a.node.0),
                "task of {dataset} on node {} outside {home}",
                a.node
            );
        }
        // And the probe saw one global ShardAssigned per job, with
        // globally-numbered assignments.
        let events = probe.take();
        let assigned = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ShardAssigned { .. }))
            .count();
        assert_eq!(assigned, 16);
        for e in &events {
            if let TraceEvent::Assignment { node, chunk, .. } = e {
                let span = rt.map().span(rt.shard_of_dataset(chunk.dataset));
                assert!((span.base..span.base + span.nodes).contains(&node.0));
            }
        }
    }

    #[test]
    fn completions_route_back_and_merge_into_one_outcome() {
        let mut rt = sharded(
            8,
            4,
            SchedulerKind::Fcfsl,
            8,
            Arc::new(vizsched_metrics::NoopProbe),
        );
        let mut sub = StubSubstrate::default();
        for d in 0..8u32 {
            rt.on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                interactive(d as u64, d, SimTime::ZERO),
            );
        }
        let now = SimTime::from_millis(10);
        for a in sub.dispatched.clone() {
            rt.on_task_done(now, completion_for(&a, now));
        }
        assert_eq!(rt.jobs_completed(), 8);
        let outcome = rt.into_outcome();
        assert_eq!(outcome.jobs_completed, 8);
        assert_eq!(outcome.incomplete_jobs, 0);
        assert_eq!(outcome.record.jobs.len(), 8);
        // Record order restored to arrival order.
        let ids: Vec<u64> = outcome.record.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        // Per-node counters are globally indexed and complete.
        let tasks: u64 = outcome.per_node.iter().map(|c| c.tasks).sum();
        assert_eq!(tasks, outcome.record.cache_misses);
        assert_eq!(outcome.per_shard.len(), 4);
        let completed: u64 = outcome.per_shard.iter().map(|s| s.jobs_completed).sum();
        assert_eq!(completed, 8);
    }

    /// Buffer interactive job 0, batch jobs 1 and 2, then interactive jobs
    /// 3.. on a dataset of shard 0 (of an 8-node, 2-shard runtime) until
    /// shard 0 holds one job past its saturation threshold. Distinct
    /// actions, so coalescing keeps every frame. Returns the buffered count.
    fn saturate_shard_0(rt: &mut ShardedRuntime, sub: &mut StubSubstrate) -> usize {
        let dataset = (0..16u32)
            .find(|&d| rt.shard_of_dataset(DatasetId(d)) == ShardId(0))
            .expect("some dataset routes to shard 0");
        let t0 = SimTime::from_millis(1);
        let past = ShardedRuntime::DEFAULT_SATURATION_PER_NODE * 4 + 1;
        rt.on_job_arrival(sub, t0, interactive(0, dataset, t0));
        rt.on_job_arrival(sub, t0, batch(1, dataset, t0));
        rt.on_job_arrival(sub, t0, batch(2, dataset, t0));
        for id in 3..past as u64 {
            rt.on_job_arrival(sub, t0, interactive(id, dataset, t0));
        }
        past
    }

    #[test]
    fn saturation_migrates_batch_but_pins_interactive() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 2, SchedulerKind::Ours, 4, probe.clone());
        rt.set_overload_policy(OverloadPolicy {
            coalesce_interactive: true,
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        let buffered = saturate_shard_0(&mut rt, &mut sub);
        assert_eq!(rt.queued_jobs(), buffered);
        let cycle = rt.on_cycle(&mut sub, SimTime::from_millis(30));
        assert!(cycle.invoked);
        let events = probe.take();
        let saturated = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::ShardSaturated {
                        shard: ShardId(0),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(saturated, 1);
        let migrated: Vec<(u64, u32, u32)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ShardMigrated { job, from, to, .. } => Some((job.0, from.0, to.0)),
                _ => None,
            })
            .collect();
        assert_eq!(
            migrated,
            vec![(1, 0, 1), (2, 0, 1)],
            "batch moved to shard 1"
        );
        // The interactive job stayed home: its tasks run on shard 0 nodes.
        let span0 = rt.map().span(ShardId(0));
        for a in sub.dispatched.iter().filter(|a| a.task.job == JobId(0)) {
            assert!((span0.base..span0.base + span0.nodes).contains(&a.node.0));
        }
        let outcome = rt.into_outcome();
        assert_eq!(outcome.per_shard[0].migrated_out, 2);
        assert_eq!(outcome.per_shard[1].migrated_in, 2);
        assert_eq!(outcome.per_shard[0].saturations, 1);
    }

    #[test]
    fn faults_reroute_within_the_owning_shard() {
        let mut rt = sharded(
            8,
            4,
            SchedulerKind::Fcfsl,
            8,
            Arc::new(vizsched_metrics::NoopProbe),
        );
        let mut sub = StubSubstrate::default();
        for d in 0..8u32 {
            rt.on_job_arrival(
                &mut sub,
                SimTime::ZERO,
                interactive(d as u64, d, SimTime::ZERO),
            );
        }
        let placed = sub.dispatched.clone();
        let victim = placed[0].node;
        let (victim_shard, _) = rt.map().local(victim);
        let span = rt.map().span(victim_shard);
        let lost = rt.on_node_fault(&mut sub, SimTime::from_millis(1), victim);
        assert!(rt.is_node_down(victim));
        // Everything rerouted landed on the same shard's surviving node.
        for a in &sub.dispatched[placed.len()..] {
            assert_ne!(a.node, victim);
            assert!((span.base..span.base + span.nodes).contains(&a.node.0));
        }
        assert_eq!(sub.dispatched.len() - placed.len(), lost);
        rt.on_node_recover(SimTime::from_millis(2), victim);
        assert!(!rt.is_node_down(victim));
    }

    enum Step {
        Arrive(Job),
        Cycle,
        CompleteAll,
        Fault(NodeId),
        Recover(NodeId),
    }

    /// Interactive and batch arrivals, cycles, completions, and two fresh
    /// node faults with recovery: enough fault pressure to put a routing
    /// tier into degraded mode, with a batch arrival landing inside the
    /// window in which it would be shed.
    fn parity_script() -> Vec<(SimTime, Step)> {
        let ms = SimTime::from_millis;
        let mut script = vec![
            (ms(1), Step::Arrive(interactive(0, 0, ms(1)))),
            (ms(1), Step::Arrive(interactive(1, 1, ms(1)))),
            (ms(1), Step::Arrive(batch(2, 2, ms(1)))),
            (ms(1), Step::Arrive(batch(3, 2, ms(1)))),
            (ms(30), Step::Cycle),
            (ms(40), Step::CompleteAll),
            (ms(45), Step::Arrive(interactive(4, 0, ms(45)))),
            (ms(45), Step::Arrive(interactive(5, 1, ms(45)))),
            (ms(60), Step::Cycle),
            (ms(61), Step::Fault(NodeId(0))),
            (ms(62), Step::Fault(NodeId(2))),
            (ms(63), Step::Arrive(batch(6, 2, ms(63)))),
            (ms(63), Step::Arrive(interactive(7, 0, ms(63)))),
            (ms(90), Step::Cycle),
            (ms(91), Step::Recover(NodeId(0))),
            (ms(92), Step::Recover(NodeId(2))),
            (ms(95), Step::Arrive(batch(8, 0, ms(95)))),
        ];
        // Drain: OURS holds cold batch back until a node has been
        // interactive-idle for ε (seconds at this chunk size), then
        // trickles it out a load per node per cycle.
        for round in 1..=8 {
            script.push((ms(10_000 * round), Step::Cycle));
            script.push((ms(10_000 * round + 10), Step::CompleteAll));
        }
        script
    }

    /// Run [`parity_script`] on a head and return every dispatch it made.
    /// A macro because the two heads share the driving contract by method
    /// name, not by trait; `$degraded` is re-evaluated after every step.
    macro_rules! drive_parity_script {
        ($rt:ident, $degraded:expr) => {{
            let mut sub = StubSubstrate::default();
            // Dispatched, neither completed nor lost with a node.
            let mut live: Vec<Assignment> = Vec::new();
            for (now, step) in parity_script() {
                let seen = sub.dispatched.len();
                match step {
                    Step::Arrive(job) => {
                        let _ = $rt.on_job_arrival(&mut sub, now, job);
                    }
                    Step::Cycle => {
                        $rt.on_cycle(&mut sub, now);
                    }
                    Step::CompleteAll => {
                        for a in live.drain(..) {
                            $rt.on_task_done(now, completion_for(&a, now));
                        }
                    }
                    Step::Fault(node) => {
                        $rt.on_node_fault(&mut sub, now, node);
                        live.retain(|a| a.node != node);
                    }
                    Step::Recover(node) => $rt.on_node_recover(now, node),
                }
                live.extend_from_slice(&sub.dispatched[seen..]);
                assert!(!$degraded, "degraded after the step at {now}");
            }
            sub.dispatched
        }};
    }

    /// Host scheduling cost is the one field two runs never share.
    fn without_wall_clock(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
        for e in &mut events {
            if let TraceEvent::CycleEnd { wall_micros, .. } = e {
                *wall_micros = 0;
            }
        }
        events
    }

    #[test]
    fn single_shard_matches_single_head_placements() {
        // With one shard the routing tier must be a pass-through: the
        // same trace, placements and outcome as a bare HeadRuntime over
        // the same cluster, bit for bit.
        let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
        let catalog = Catalog::new(
            uniform_datasets(4, 2 * GIB),
            DecompositionPolicy::MaxChunkSize { max_bytes: GIB },
        );
        let single_probe = Arc::new(CollectingProbe::new());
        let mut single = HeadRuntime::new(
            SchedulerKind::Ours.build(SimDuration::from_millis(30)),
            HeadTables::new(&cluster),
            catalog,
            CostParams::default(),
            single_probe.clone(),
            "shard-unit",
        );
        let sharded_probe = Arc::new(CollectingProbe::new());
        let mut sharded = sharded(4, 1, SchedulerKind::Ours, 4, sharded_probe.clone());

        let single_dispatched = drive_parity_script!(single, false);
        let sharded_dispatched = drive_parity_script!(sharded, sharded.is_degraded());
        assert_eq!(single_dispatched, sharded_dispatched);
        assert!(
            single_dispatched.iter().any(|a| !a.task.interactive),
            "the script placed batch work too"
        );

        let single_events = without_wall_clock(single_probe.take());
        let sharded_events = without_wall_clock(sharded_probe.take());
        for e in &sharded_events {
            assert!(
                !e.tag().starts_with("shard_") && !e.tag().starts_with("degraded_"),
                "routing-tier event {} in a one-shard trace",
                e.tag()
            );
        }
        assert_eq!(single_events, sharded_events);
        let faults = single_events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeFault { .. }))
            .count();
        assert_eq!(faults, 2, "two fresh faults reached the head");

        // The same outcome, field for field, bar the host's scheduling
        // cost; no routing means no breakdown and nothing shed.
        let mut want = single.into_outcome();
        let mut got = sharded.into_outcome();
        want.record.sched_wall_micros = 0;
        got.record.sched_wall_micros = 0;
        assert_eq!(got, want);
        assert!(got.per_shard.is_empty() && got.degraded_shed == 0);
        assert_eq!(
            got.jobs_completed, 9,
            "every job ran, the late batch included"
        );
    }

    /// Satellite regression: a batch job work-stolen onto a shard whose
    /// target node faults before the work executes must be rerouted
    /// exactly once — no loss, no duplicate — and the reroute stays on
    /// the stealing shard.
    #[test]
    fn stolen_batch_surviving_target_fault_is_rerouted_exactly_once() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 2, SchedulerKind::Ours, 4, probe.clone());
        let mut sub = StubSubstrate::default();
        // Shard 0 saturates; the batch pair migrates to shard 1 at the
        // cycle boundary.
        saturate_shard_0(&mut rt, &mut sub);
        rt.on_cycle(&mut sub, SimTime::from_millis(30));
        let placed = sub.dispatched.clone();
        let target = placed
            .iter()
            .find(|a| a.task.job == JobId(1))
            .expect("stolen batch was dispatched")
            .node;
        let span1 = rt.map().span(ShardId(1));
        assert!(
            (span1.base..span1.base + span1.nodes).contains(&target.0),
            "stolen batch runs on the stealing shard"
        );
        // The target node faults before the work executes.
        let lost = rt.on_node_fault(&mut sub, SimTime::from_millis(31), target);
        assert!(lost > 0, "the fault orphaned the dispatched work");
        let rerouted: Vec<&Assignment> = sub.dispatched[placed.len()..]
            .iter()
            .filter(|a| a.task.job == JobId(1))
            .collect();
        assert!(!rerouted.is_empty(), "job 1's lost tasks were re-placed");
        for a in &rerouted {
            assert_ne!(a.node, target);
            assert!(
                (span1.base..span1.base + span1.nodes).contains(&a.node.0),
                "reroute stays inside the stealing shard"
            );
        }
        // Exactly one migration and one fault in the trace; the job was
        // dispatched at most twice per task (original + one reroute).
        let events = probe.take();
        let migrations = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ShardMigrated { job: JobId(1), .. }))
            .count();
        assert_eq!(migrations, 1, "stolen exactly once");
        let faults = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeFault { .. }))
            .count();
        assert_eq!(faults, 1);
        // Complete everything; job 1 finishes exactly once.
        let now = SimTime::from_millis(40);
        let mut finished = 0;
        for a in sub.dispatched.clone() {
            if a.node == target {
                continue; // lost with the node
            }
            if rt.on_task_done(now, completion_for(&a, now)).is_some() {
                finished += 1;
            }
        }
        assert_eq!(finished as u64, rt.jobs_completed());
        let outcome = rt.into_outcome();
        assert_eq!(outcome.incomplete_jobs, 0);
        let ones = outcome
            .record
            .jobs
            .iter()
            .filter(|j| j.id == JobId(1))
            .count();
        assert_eq!(ones, 1, "no duplicate record for the rerouted job");
    }

    #[test]
    fn shard_failover_readmits_orphans_and_adopts_nodes() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 2, SchedulerKind::Fcfsl, 8, probe.clone());
        let mut sub = StubSubstrate::default();
        // Give shard 0 some admitted work, then kill its head.
        let victims: Vec<u32> = (0..8u32)
            .filter(|&d| rt.shard_of_dataset(DatasetId(d)) == ShardId(0))
            .collect();
        assert!(!victims.is_empty(), "shard 0 owns some dataset");
        let t0 = SimTime::from_millis(1);
        for (i, &d) in victims.iter().enumerate() {
            let (_, admission) = rt.on_job_arrival(&mut sub, t0, interactive(i as u64, d, t0));
            assert!(admission.is_admitted());
        }
        let before = sub.dispatched.len();
        let lost_nodes = rt.shard_nodes(ShardId(0));
        let orphaned = rt.on_shard_fail(&mut sub, SimTime::from_millis(2), ShardId(0));
        assert_eq!(orphaned, victims.len(), "every admitted job re-admitted");
        assert!(rt.is_shard_dead(ShardId(0)));
        assert!(rt.shard_nodes(ShardId(0)).is_empty());
        // Shard 1 adopted the whole slice and the ring re-homed the
        // datasets there.
        let adopted = rt.shard_nodes(ShardId(1));
        for n in &lost_nodes {
            assert!(adopted.contains(n), "{n} adopted by the survivor");
            assert!(!rt.is_node_down(*n), "adopted nodes join live");
        }
        for &d in &victims {
            assert_eq!(rt.shard_of_dataset(DatasetId(d)), ShardId(1));
        }
        // Re-admitted interactive work dispatched again, somewhere live.
        assert!(sub.dispatched.len() > before);
        let events = probe.take();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::ShardFailed {
                shard: ShardId(0),
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::ShardRecovered {
                shard: ShardId(1),
                adopted: 4,
                ..
            }
        )));
        // No migration events: failover re-pins, it does not migrate.
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::ShardMigrated { .. })));
        // Completing the re-dispatched work finishes every job once.
        let now = SimTime::from_millis(10);
        for a in sub.dispatched.clone()[before..].to_vec() {
            rt.on_task_done(now, completion_for(&a, now));
        }
        assert_eq!(rt.jobs_completed(), victims.len() as u64);
        let outcome = rt.into_outcome();
        assert_eq!(outcome.incomplete_jobs, 0);
        assert_eq!(outcome.record.jobs.len(), victims.len());
        // Per-node counters land under global ids, additively.
        let tasks: u64 = outcome.per_node.iter().map(|c| c.tasks).sum();
        assert_eq!(tasks, outcome.record.cache_misses);
        // A second failure of the same shard, or of the last survivor,
        // is a no-op.
        // (rt consumed; covered by on_shard_fail's guards in the next test.)
    }

    /// The merge of a 2-shard run through both of the routing tier's own
    /// moves: a saturation steal (shard 0's batch runs on shard 1), then
    /// the loss of shard 1's head (its unfinished work goes back to shard
    /// 0, its finished work stays in its record). Completions alternate
    /// hits and misses.
    #[test]
    fn merged_outcome_survives_a_steal_and_a_failover() {
        let mut rt = sharded(8, 2, SchedulerKind::Ours, 4, Arc::new(NoopProbe));
        rt.set_overload_policy(OverloadPolicy {
            coalesce_interactive: true,
            ..OverloadPolicy::default()
        });
        let mut sub = StubSubstrate::default();
        let t = SimTime::from_millis;
        let past = saturate_shard_0(&mut rt, &mut sub) as u64;
        let other = (0..4u32)
            .find(|&d| rt.shard_of_dataset(DatasetId(d)) == ShardId(1))
            .expect("some dataset routes to shard 1");
        rt.on_job_arrival(&mut sub, t(2), interactive(past, other, t(2)));
        rt.on_cycle(&mut sub, t(30));
        let complete = |rt: &mut ShardedRuntime, live: &mut Vec<Assignment>, now| {
            for (k, a) in live.drain(..).enumerate() {
                let done = Completion {
                    miss: k % 2 == 0,
                    ..completion_for(&a, now)
                };
                rt.on_task_done(now, done);
            }
        };
        // Shard 1 finishes its interactive frame, not the stolen batch.
        let mut live: Vec<Assignment> = sub.dispatched.clone();
        let (batch, mut done): (Vec<Assignment>, Vec<Assignment>) =
            live.drain(..).partition(|a| !a.task.interactive);
        live = batch;
        complete(&mut rt, &mut done, t(40));
        let dead = rt.failover_slice(ShardId(1));
        assert!(!dead.is_empty());
        live.retain(|a| !dead.contains(&a.node));
        let seen = sub.dispatched.len();
        assert!(rt.on_shard_fail(&mut sub, t(41), ShardId(1)) > 0);
        live.extend_from_slice(&sub.dispatched[seen..]);
        // Drain: OURS trickles cold batch out once nodes go idle.
        for round in 1..=8 {
            let seen = sub.dispatched.len();
            rt.on_cycle(&mut sub, t(10_000 * round));
            live.extend_from_slice(&sub.dispatched[seen..]);
            complete(&mut rt, &mut live, t(10_000 * round + 10));
        }

        let outcome = rt.into_outcome();
        assert_eq!(outcome.per_shard[0].migrated_out, 2, "the batch pair moved");
        assert!(
            outcome.per_shard[1].jobs_completed > 0,
            "shard 1 kept its record"
        );
        assert_eq!(outcome.incomplete_jobs, 0);
        // Every admitted job once, in arrival order.
        let ids: Vec<u64> = outcome.record.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, (0..=past).collect::<Vec<_>>());
        let total: NodeCounters = outcome.per_node.iter().copied().sum();
        assert!(total.hits > 0 && total.misses > 0);
        assert_eq!(
            (total.hits, total.misses),
            (outcome.record.cache_hits, outcome.record.cache_misses)
        );
        let overload: OverloadStats = outcome.per_shard.iter().map(|s| s.overload).sum();
        assert_eq!(outcome.overload, overload);
        assert!(overload.admitted > past, "a moved job is admitted twice");
    }

    #[test]
    fn losing_the_last_live_shard_is_a_no_op() {
        let mut rt = sharded(
            8,
            2,
            SchedulerKind::Fcfsl,
            4,
            Arc::new(vizsched_metrics::NoopProbe),
        );
        let mut sub = StubSubstrate::default();
        // An unknown shard has nothing to fail over.
        assert!(rt.failover_slice(ShardId(7)).is_empty());
        assert_eq!(rt.on_shard_fail(&mut sub, SimTime::ZERO, ShardId(7)), 0);
        assert_eq!(rt.failover_slice(ShardId(0)).len(), 4);
        rt.on_shard_fail(&mut sub, SimTime::ZERO, ShardId(0));
        // Shard 0 is now dead; killing it again is a no-op...
        assert!(rt.failover_slice(ShardId(0)).is_empty());
        assert_eq!(rt.on_shard_fail(&mut sub, SimTime::ZERO, ShardId(0)), 0);
        assert!(rt.is_shard_dead(ShardId(0)));
        // ...and the last survivor refuses to die, so the substrate is
        // told to power-cycle none of the eight nodes it now owns.
        assert_eq!(rt.shard_nodes(ShardId(1)).len(), 8);
        assert!(rt.failover_slice(ShardId(1)).is_empty());
        assert_eq!(rt.on_shard_fail(&mut sub, SimTime::ZERO, ShardId(1)), 0);
        assert!(!rt.is_shard_dead(ShardId(1)));
    }

    /// The node hooks `on_fault` called, in order.
    #[derive(Default)]
    struct HookSub {
        calls: Vec<(&'static str, u32, u32)>,
    }

    impl Substrate for HookSub {
        fn dispatch(&mut self, _: &Assignment) -> bool {
            true
        }
        fn crash_node(&mut self, node: NodeId) {
            self.calls.push(("crash", node.0, 0));
        }
        fn respawn_node(&mut self, node: NodeId) {
            self.calls.push(("respawn", node.0, 0));
        }
        fn degrade_node(&mut self, node: NodeId, factor_pm: u32) {
            self.calls.push(("degrade", node.0, factor_pm));
        }
    }

    #[test]
    fn on_fault_drives_the_substrate_in_plan_order() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 2, SchedulerKind::Fcfsl, 4, probe.clone());
        let mut sub = HookSub::default();
        let t = SimTime::from_millis;
        let plan = crate::FaultPlan::new()
            .leaf_outage_at(t(1), NodeId(0), 2)
            .respawn_at(t(2), NodeId(0))
            .respawn_at(t(3), NodeId(0)) // already up: rejoins, no respawn
            .degrade_at(t(4), NodeId(5), 2000)
            .restore_at(t(5), NodeId(5))
            .shard_crash_at(t(6), ShardId(1)) // shard 0 adopts nodes 4..8
            .shard_crash_at(t(7), ShardId(0)); // the last live head: no-op
        for e in plan.events() {
            rt.on_fault(&mut sub, e.at, e.kind);
        }
        let mut want = vec![
            ("crash", 0, 0),
            ("crash", 1, 0),
            ("respawn", 0, 0),
            ("degrade", 5, 2000),
            ("degrade", 5, 1000),
        ];
        for n in 4..8 {
            want.extend([("crash", n, 0), ("respawn", n, 0)]);
        }
        assert_eq!(sub.calls, want);
        assert!(rt.is_node_down(NodeId(1)), "node 1 waits for its respawn");
        assert!(!rt.is_shard_dead(ShardId(0)));
        let tags: Vec<&str> = probe.take().iter().map(TraceEvent::tag).collect();
        assert_eq!(
            tags,
            [
                "fault_injected",
                "node_fault",
                "node_fault",
                "degraded_entered",
                "fault_injected",
                "node_up",
                "fault_injected",
                "node_up",
                "fault_injected",
                "fault_injected",
                "fault_injected",
                "shard_failed",
                "shard_recovered",
                "fault_injected",
            ]
        );
    }

    #[test]
    fn degraded_mode_sheds_batch_protects_interactive_with_hysteresis() {
        let probe = Arc::new(CollectingProbe::new());
        let mut rt = sharded(8, 4, SchedulerKind::Fcfsl, 8, probe.clone());
        let mut sub = StubSubstrate::default();
        assert!(!rt.is_degraded());
        // Two fresh node faults push pressure to DEGRADED_ENTER.
        rt.on_node_fault(&mut sub, SimTime::from_millis(1), NodeId(0));
        assert!(!rt.is_degraded());
        rt.on_node_fault(&mut sub, SimTime::from_millis(2), NodeId(2));
        assert!(rt.is_degraded());
        // Re-faulting a down node adds no pressure (not fresh).
        rt.on_node_fault(&mut sub, SimTime::from_millis(3), NodeId(0));
        // Batch is shed; interactive is admitted.
        let t = SimTime::from_millis(4);
        let (_, shed) = rt.on_job_arrival(&mut sub, t, batch(0, 1, t));
        assert_eq!(shed, Admission::Rejected(RejectReason::Degraded));
        let (_, ok) = rt.on_job_arrival(&mut sub, t, interactive(1, 1, t));
        assert!(ok.is_admitted());
        // Pressure 4 decays by one per cycle; exit at <= 1.
        rt.on_cycle(&mut sub, SimTime::from_millis(30));
        assert!(rt.is_degraded());
        rt.on_cycle(&mut sub, SimTime::from_millis(60));
        assert!(rt.is_degraded());
        rt.on_cycle(&mut sub, SimTime::from_millis(90));
        assert!(!rt.is_degraded(), "pressure 1 exits degraded mode");
        let t2 = SimTime::from_millis(91);
        let (_, readmitted) = rt.on_job_arrival(&mut sub, t2, batch(2, 1, t2));
        assert!(readmitted.is_admitted(), "batch admission resumed");
        let events = probe.take();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::DegradedEntered { pressure: 4, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::DegradedExited { pressure: 1, .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Rejected {
                job: JobId(0),
                reason: RejectReason::Degraded,
                ..
            }
        )));
        let outcome = rt.into_outcome();
        assert_eq!(outcome.degraded_shed, 1);
    }
}
