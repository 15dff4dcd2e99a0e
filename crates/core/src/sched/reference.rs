//! Straight-line reference implementations of OURS, FCFSL and MOBJ.
//!
//! For OURS and FCFSL these are the pre-optimization hot paths, retained
//! verbatim as the executable specification of what the optimized
//! schedulers in [`ours`] and [`fcfsl`] must compute: every node
//! selection is a full O(p) scan via
//! [`ScheduleCtx::earliest_node_with_locality`], every cycle reallocates
//! its bucket maps and sort vectors, and nothing is cached across
//! invocations. [`ReferenceMobjScheduler`] was written *as* the spec for
//! the policy-family PR: fresh allocations each cycle, full scans, and the
//! textbook balance anchor (`min_k ready_at`) that the optimized path
//! replaces with a constant shift (see [`mobj`](super::mobj) for the
//! invariance argument). Both cycle twins carry their own copy of the
//! anti-starvation path (deferral timestamps, `escalate_deferred`), so the
//! escalation the optimized policies share through `sched/cycle.rs` is
//! pinned too. Two things depend on them staying put:
//!
//! * the **placement-equivalence suite** (`tests/placement_equivalence.rs`)
//!   drives the optimized and reference schedulers through identical
//!   random catalogs, clusters and job streams and asserts bit-identical
//!   [`Assignment`] vectors — the proof that the `AvailHeap` +
//!   candidate-restriction + scratch-reuse optimizations are
//!   behavior-preserving;
//! * the **`sched_hotpath` benchmark** (`vizsched-bench`) times both
//!   implementations side by side, which is where the before/after numbers
//!   in `BENCH_sched.json` come from.
//!
//! They are not registered in [`SchedulerKind`](super::SchedulerKind) and
//! never run in production; do not "optimize" them.
//!
//! [`ours`]: super::ours
//! [`fcfsl`]: super::fcfsl
//! [`ScheduleCtx::earliest_node_with_locality`]: super::ScheduleCtx::earliest_node_with_locality

use super::mobj::{batch_gate, objective_score};
use super::ours::EPSILON_FRAC;
use super::{Assignment, OursParams, ScheduleCtx, Scheduler, Trigger};
use crate::fxhash::FxHashMap;
use crate::ids::{ChunkId, JobId, NodeId};
use crate::job::{Job, Task};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The straight-line Algorithm 1: identical decisions to
/// [`OursScheduler`](super::OursScheduler), O(p·m log m) per cycle, fresh
/// allocations every invocation.
#[derive(Debug)]
pub struct ReferenceOursScheduler {
    params: OursParams,
    /// `H_B`: batch tasks held back, grouped by chunk, tagged with their
    /// first-deferral time (the escalation age basis).
    pending_batch: FxHashMap<ChunkId, VecDeque<(SimTime, Task)>>,
    pending_count: usize,
    /// Batch tasks promoted by [`Scheduler::escalate_deferred`].
    escalated: Vec<Task>,
}

impl ReferenceOursScheduler {
    /// Build the reference scheduler.
    pub fn new(params: OursParams) -> Self {
        assert!(!params.cycle.is_zero(), "scheduling cycle must be positive");
        ReferenceOursScheduler {
            params,
            pending_batch: FxHashMap::default(),
            pending_count: 0,
            escalated: Vec::new(),
        }
    }

    fn push_batch(&mut self, now: SimTime, task: Task) {
        self.pending_batch
            .entry(task.chunk)
            .or_default()
            .push_back((now, task));
        self.pending_count += 1;
    }

    /// Lines 8–15: cached chunks first (ascending id), then non-cached in
    /// descending `Estimate[c]` order; per-group node choice is the full
    /// O(p) locality scan.
    fn schedule_interactive(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        hi: FxHashMap<ChunkId, Vec<Task>>,
        out: &mut Vec<Assignment>,
    ) {
        let mut cached: Vec<ChunkId> = Vec::new();
        let mut non_cached: Vec<(SimDuration, ChunkId)> = Vec::new();
        for &chunk in hi.keys() {
            if ctx.tables.cache.is_cached_anywhere(chunk) {
                cached.push(chunk);
            } else {
                let bytes = ctx.catalog.chunk_bytes(chunk);
                non_cached.push((ctx.tables.estimate.get(chunk, bytes, ctx.cost), chunk));
            }
        }
        cached.sort_unstable();
        non_cached.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let ordered = cached
            .into_iter()
            .chain(non_cached.into_iter().map(|(_, c)| c));
        let mut hi = hi;
        for chunk in ordered {
            let tasks = hi.remove(&chunk).expect("chunk key came from the map");
            let bytes = tasks[0].bytes;
            let node = ctx.earliest_node_with_locality(chunk, bytes);
            for task in tasks {
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }
    }

    /// Lines 16–22: fill each node with held batch tasks whose chunk it
    /// already caches, up to the next scheduling time `λ`.
    fn schedule_cached_batch(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        lambda: crate::time::SimTime,
        out: &mut Vec<Assignment>,
    ) {
        let nodes: Vec<_> = ctx.tables.live_nodes().collect();
        for node in nodes {
            while ctx.tables.available.get(node) < lambda {
                let candidate = ctx
                    .tables
                    .cache
                    .node_memory(node)
                    .chunks()
                    .filter(|c| self.pending_batch.contains_key(c))
                    .min();
                let Some(chunk) = candidate else { break };
                let queue = self
                    .pending_batch
                    .get_mut(&chunk)
                    .expect("candidate has work");
                let (_, task) = queue.pop_front().expect("queues are never left empty");
                if queue.is_empty() {
                    self.pending_batch.remove(&chunk);
                }
                self.pending_count -= 1;
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }
    }

    /// Lines 23–31: non-cached batch work, fewest replicas first, gated by
    /// the interactive-idle threshold `ε`.
    fn schedule_noncached_batch(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        lambda: crate::time::SimTime,
        out: &mut Vec<Assignment>,
    ) {
        let mut order: Vec<ChunkId> = self.pending_batch.keys().copied().collect();
        order.sort_unstable_by_key(|&c| (ctx.tables.cache.replica_count(c), c));
        let mut cursor = 0usize;

        let nodes: Vec<_> = ctx.tables.live_nodes().collect();
        for node in nodes {
            while ctx.tables.available.get(node) < lambda {
                while cursor < order.len() && !self.pending_batch.contains_key(&order[cursor]) {
                    cursor += 1;
                }
                if cursor >= order.len() {
                    return;
                }
                let chunk = order[cursor];
                let bytes = ctx.catalog.chunk_bytes(chunk);
                let epsilon = ctx
                    .tables
                    .estimate
                    .get(chunk, bytes, ctx.cost)
                    .mul_f64(EPSILON_FRAC);
                if ctx.tables.interactive_idle(node, ctx.now) <= epsilon {
                    break;
                }
                let queue = self
                    .pending_batch
                    .get_mut(&chunk)
                    .expect("cursor points at work");
                let (_, task) = queue.pop_front().expect("queues are never left empty");
                if queue.is_empty() {
                    self.pending_batch.remove(&chunk);
                }
                self.pending_count -= 1;
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }
    }
}

impl Scheduler for ReferenceOursScheduler {
    fn name(&self) -> &'static str {
        "OURS-REF"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.params.cycle)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let lambda = ctx.now + self.params.cycle;

        // Escalated tasks first (they ride the interactive pass), then
        // this cycle's arrivals.
        let mut hi: FxHashMap<ChunkId, Vec<Task>> = FxHashMap::default();
        for task in std::mem::take(&mut self.escalated) {
            hi.entry(task.chunk).or_default().push(task);
        }
        for job in incoming {
            for task in job.decompose(ctx.catalog) {
                if task.interactive || !self.params.defer_batch {
                    hi.entry(task.chunk).or_default().push(task);
                } else {
                    self.push_batch(ctx.now, task);
                }
            }
        }

        let mut out = Vec::new();
        self.schedule_interactive(ctx, hi, &mut out);
        self.schedule_cached_batch(ctx, lambda, &mut out);
        self.schedule_noncached_batch(ctx, lambda, &mut out);
        out
    }

    fn has_deferred(&self) -> bool {
        self.pending_count > 0 || !self.escalated.is_empty()
    }

    fn retract_deferred(&mut self) {
        self.pending_batch.clear();
        self.pending_count = 0;
        self.escalated.clear();
    }

    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        if self.pending_count == 0 {
            return Vec::new();
        }
        let mut moved: Vec<(SimTime, Task)> = Vec::new();
        self.pending_batch.retain(|_, queue| {
            let mut kept = VecDeque::with_capacity(queue.len());
            while let Some((since, task)) = queue.pop_front() {
                if now.saturating_since(since) >= age {
                    moved.push((since, task));
                } else {
                    kept.push_back((since, task));
                }
            }
            std::mem::swap(queue, &mut kept);
            !queue.is_empty()
        });
        if moved.is_empty() {
            return Vec::new();
        }
        self.pending_count -= moved.len();
        moved.sort_unstable_by_key(|&(_, t)| (t.job.0, t.index));
        let mut per_job: Vec<(JobId, SimDuration)> = Vec::new();
        for &(since, task) in &moved {
            let waited = now.saturating_since(since);
            match per_job.last_mut() {
                Some((job, max)) if *job == task.job => *max = (*max).max(waited),
                _ => per_job.push((task.job, waited)),
            }
        }
        self.escalated.extend(moved.into_iter().map(|(_, t)| t));
        per_job
    }
}

/// The straight-line FCFSL: per-task full O(p) locality scan, exactly what
/// [`FcfslScheduler`](super::FcfslScheduler) computed before the
/// `AvailHeap` fast path.
#[derive(Debug, Default)]
pub struct ReferenceFcfslScheduler {
    _private: (),
}

impl ReferenceFcfslScheduler {
    /// Create the reference policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ReferenceFcfslScheduler {
    fn name(&self) -> &'static str {
        "FCFSL-REF"
    }

    fn trigger(&self) -> Trigger {
        Trigger::OnArrival
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let mut out = Vec::new();
        for job in incoming {
            let group = ctx.group_size(job.dataset);
            for task in job.decompose(ctx.catalog) {
                let node = ctx.earliest_node_with_locality(task.chunk, task.bytes);
                out.push(ctx.commit(task, node, group));
            }
        }
        out
    }
}

/// Straight-line MOBJ: the textbook form of the objective — balance
/// anchored at `min_k ready_at(k)`, computed by a dedicated full scan
/// before every placement — with fresh allocations each cycle. The
/// scoring kernel and batch gate are shared with the optimized scheduler
/// (`objective_score` / `batch_gate`); what the equivalence suite proves
/// is that the optimized path's constant-shift anchor (`now`) and scratch
/// reuse change nothing.
#[derive(Debug)]
pub struct ReferenceMobjScheduler {
    omega: SimDuration,
    pending_batch: VecDeque<(SimTime, Task)>,
    escalated: Vec<Task>,
}

impl ReferenceMobjScheduler {
    /// Build the reference scheduler with scheduling cycle `cycle` (ω).
    pub fn new(cycle: SimDuration) -> Self {
        ReferenceMobjScheduler {
            omega: cycle,
            pending_batch: VecDeque::new(),
            escalated: Vec::new(),
        }
    }

    /// The textbook balance anchor: a full scan for the earliest-ready
    /// live node.
    fn min_ready(&self, ctx: &ScheduleCtx<'_>) -> SimTime {
        ctx.tables
            .live_nodes()
            .map(|k| ctx.tables.available.ready_at(k, ctx.now))
            .min()
            .unwrap_or(ctx.now)
    }

    fn best_node(
        &self,
        ctx: &ScheduleCtx<'_>,
        chunk: ChunkId,
        bytes: u64,
        batch: bool,
        gate: Option<SimTime>,
    ) -> Option<NodeId> {
        let anchor = self.min_ready(ctx);
        let mut best: Option<(i128, NodeId)> = None;
        for k in ctx.tables.live_nodes() {
            if let Some(lambda) = gate {
                if ctx.tables.available.get(k) >= lambda {
                    continue;
                }
            }
            if batch && super::cold_batch_protected(ctx, k, chunk, bytes) {
                continue;
            }
            let s = objective_score(ctx, anchor, k, chunk, bytes, batch);
            if best.is_none_or(|b| (s, k) < b) {
                best = Some((s, k));
            }
        }
        best.map(|(_, k)| k)
    }
}

impl Scheduler for ReferenceMobjScheduler {
    fn name(&self) -> &'static str {
        "MOBJ-REF"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.omega)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let lambda = ctx.now + self.omega;

        let mut hi: FxHashMap<ChunkId, Vec<Task>> = FxHashMap::default();
        for task in std::mem::take(&mut self.escalated) {
            hi.entry(task.chunk).or_default().push(task);
        }
        for job in incoming {
            for task in job.decompose(ctx.catalog) {
                if task.interactive {
                    hi.entry(task.chunk).or_default().push(task);
                } else {
                    self.pending_batch.push_back((ctx.now, task));
                }
            }
        }

        let mut out = Vec::new();
        let mut cached: Vec<ChunkId> = Vec::new();
        let mut non_cached: Vec<(SimDuration, ChunkId)> = Vec::new();
        for &chunk in hi.keys() {
            if ctx.tables.cache.is_cached_anywhere(chunk) {
                cached.push(chunk);
            } else {
                let bytes = ctx.catalog.chunk_bytes(chunk);
                non_cached.push((ctx.tables.estimate.get(chunk, bytes, ctx.cost), chunk));
            }
        }
        cached.sort_unstable();
        non_cached.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let ordered = cached
            .into_iter()
            .chain(non_cached.into_iter().map(|(_, c)| c));
        for chunk in ordered {
            let tasks = hi.remove(&chunk).expect("chunk key came from the map");
            let bytes = tasks[0].bytes;
            let node = self
                .best_node(ctx, chunk, bytes, false, None)
                .expect("at least one live node");
            for task in tasks {
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }

        // Oldest-first scan of the whole deferred queue: a blocked head
        // must not starve placeable work behind it (mirrors the optimized
        // scheduler's drain).
        let mut i = 0usize;
        while i < self.pending_batch.len() {
            let (since, task) = self.pending_batch[i];
            let gate = batch_gate(ctx.now, lambda, since);
            match self.best_node(ctx, task.chunk, task.bytes, true, Some(gate)) {
                Some(node) => {
                    self.pending_batch.remove(i);
                    let group = ctx.group_size(task.chunk.dataset);
                    out.push(ctx.commit(task, node, group));
                }
                None => i += 1,
            }
        }
        out
    }

    fn has_deferred(&self) -> bool {
        !self.pending_batch.is_empty() || !self.escalated.is_empty()
    }

    fn retract_deferred(&mut self) {
        self.pending_batch.clear();
        self.escalated.clear();
    }

    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        let mut moved: Vec<(SimTime, Task)> = Vec::new();
        while let Some(&(since, _)) = self.pending_batch.front() {
            if now.saturating_since(since) < age {
                break;
            }
            let (since, task) = self.pending_batch.pop_front().expect("front exists");
            moved.push((since, task));
        }
        if moved.is_empty() {
            return Vec::new();
        }
        moved.sort_unstable_by_key(|&(_, t)| (t.job.0, t.index));
        let mut per_job: Vec<(JobId, SimDuration)> = Vec::new();
        for &(since, task) in &moved {
            let waited = now.saturating_since(since);
            match per_job.last_mut() {
                Some((job, max)) if *job == task.job => *max = (*max).max(waited),
                _ => per_job.push((task.job, waited)),
            }
        }
        self.escalated.extend(moved.into_iter().map(|(_, t)| t));
        per_job
    }
}
