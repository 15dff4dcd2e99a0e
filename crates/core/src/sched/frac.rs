//! FRAC — fractional time-slicing of nodes between interactive and batch
//! work (after Casanova et al., "Dynamic Fractional Resource Scheduling
//! vs. Batch Scheduling", arXiv:1106.4985).
//!
//! OURS gates non-cached batch work behind the binary ε-idle rule with a
//! *static* fraction: a node either has been interactive-idle for
//! `epsilon_frac` of the load estimate or it has not. FRAC replaces the
//! static fraction with a *learned* per-node split: each node `k` carries
//! an interactive share `φ_k` (per-mille of the cycle `ω`), and batch
//! work may only fill the node's queue up to its batch window
//!
//! ```text
//! λ_B(k) = now + ω · (1000 − φ_k) / 1000
//! ```
//!
//! instead of the full `λ = now + ω`. The remaining `φ_k·ω` of predicted
//! headroom stays free for interactive arrivals in the next cycle. The
//! share itself tracks observed demand with an integer EMA, adjusted once
//! per cycle from the interactive execution time committed to the node
//! during that cycle:
//!
//! ```text
//! demand_k = min(1000, 1000 · committed_us(k) / ω_us)
//! φ_k ← clamp((3·φ_k + demand_k) / 4, φ_min, φ_max)
//! ```
//!
//! A node with no interactive traffic decays toward `φ_min` (its batch
//! window approaches the full cycle); a saturated node climbs toward
//! `φ_max` (batch trickles). The share also stands in for ε on cold batch
//! placements: a load-incurring placement on node `k` needs an
//! interactive idle age covering `φ_k`/1000 of the load estimate
//! (`cold_batch_protected`), so the same
//! learned signal drives both the window and the eviction shield. Every
//! change is reported as a
//! [`PolicyEvent::ShareAdjusted`] and surfaces on the probe stream as a
//! `share_adjusted` trace event. All share arithmetic is integer
//! per-mille — no floats anywhere in the decision path, which is what
//! lets [`reference::ReferenceFracScheduler`](super::reference) be held
//! bit-identical by the placement-equivalence suite.
//!
//! The interactive pass is exactly OURS's (heuristics 1–3: chunk grouping,
//! cached-first then longest-estimate-first, heap-assisted locality pick);
//! only the batch side differs. Deferred batch tasks keep their deferral
//! timestamps, so [`Scheduler::escalate_deferred`] anti-starvation works
//! unchanged.

use super::{Assignment, PolicyEvent, ScheduleCtx, Scheduler, Trigger};
use crate::fxhash::FxHashMap;
use crate::ids::{ChunkId, JobId, NodeId};
use crate::job::{Job, Task};
use crate::tables::AvailHeap;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Tuning knobs for FRAC. Shares are per-mille of the cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FracParams {
    /// The scheduling cycle `ω`.
    pub cycle: SimDuration,
    /// Every node's interactive share before any demand is observed.
    pub initial_share_pm: u32,
    /// Lower clamp on `φ_k`: even a node with zero interactive traffic
    /// keeps this much of the cycle reserved.
    pub min_share_pm: u32,
    /// Upper clamp on `φ_k`: even a saturated node leaves this much of
    /// the cycle open to batch work (the anti-starvation floor that
    /// replaces the ε rule's all-or-nothing behavior).
    pub max_share_pm: u32,
}

impl Default for FracParams {
    fn default() -> Self {
        FracParams {
            cycle: SimDuration::from_millis(30),
            initial_share_pm: 500,
            min_share_pm: 100,
            max_share_pm: 900,
        }
    }
}

impl FracParams {
    fn validate(&self) {
        assert!(!self.cycle.is_zero(), "scheduling cycle must be positive");
        assert!(
            self.min_share_pm <= self.max_share_pm && self.max_share_pm <= 1000,
            "shares must satisfy min <= max <= 1000"
        );
        assert!(
            (self.min_share_pm..=self.max_share_pm).contains(&self.initial_share_pm),
            "initial share must lie within [min, max]"
        );
    }
}

/// One cycle's EMA step: `(3·φ + demand) / 4`, clamped. Shared verbatim
/// with the reference twin so the two cannot drift.
pub(super) fn share_step(params: &FracParams, share_pm: u32, demand_pm: u32) -> u32 {
    ((3 * share_pm + demand_pm) / 4).clamp(params.min_share_pm, params.max_share_pm)
}

/// The per-node batch window end `λ_B(k)` for a share of `share_pm`.
pub(super) fn batch_lambda(now: SimTime, cycle: SimDuration, share_pm: u32) -> SimTime {
    let window_us = cycle.as_micros() * (1000 - share_pm.min(1000)) as u64 / 1000;
    now + SimDuration::from_micros(window_us)
}

/// Per-cycle scratch buffers, reused across invocations (see
/// [`ours`](super::ours) for the pattern).
#[derive(Debug, Default)]
struct CycleScratch {
    heap: AvailHeap,
    tasks: Vec<(u32, Task)>,
    groups: Vec<(ChunkId, u32, u32)>,
    cached: Vec<u32>,
    non_cached: Vec<(SimDuration, ChunkId, u32)>,
    nodes: Vec<NodeId>,
    batch_order: Vec<ChunkId>,
    /// Interactive execution time committed per node this cycle (µs),
    /// indexed by node id — the share controller's demand signal.
    committed_us: Vec<u64>,
}

/// The fractional time-slicing scheduler.
#[derive(Debug)]
pub struct FracScheduler {
    params: FracParams,
    /// `φ_k` per node, lazily sized on first invocation.
    shares_pm: Vec<u32>,
    /// `H_B`: batch tasks held back, grouped by chunk, tagged with their
    /// first-deferral time (the escalation age basis).
    pending_batch: FxHashMap<ChunkId, VecDeque<(SimTime, Task)>>,
    pending_count: usize,
    /// Batch tasks promoted by [`Scheduler::escalate_deferred`]; the next
    /// cycle schedules them in the interactive pass, bypassing the batch
    /// window.
    escalated: Vec<Task>,
    /// Control moves since the last [`Scheduler::drain_policy_events`].
    events: Vec<PolicyEvent>,
    scratch: CycleScratch,
}

impl FracScheduler {
    /// Build the scheduler.
    pub fn new(params: FracParams) -> Self {
        params.validate();
        FracScheduler {
            params,
            shares_pm: Vec::new(),
            pending_batch: FxHashMap::default(),
            pending_count: 0,
            escalated: Vec::new(),
            events: Vec::new(),
            scratch: CycleScratch::default(),
        }
    }

    /// The active parameters.
    pub fn params(&self) -> FracParams {
        self.params
    }

    /// The current interactive share of `node`, per-mille.
    pub fn share_pm(&self, node: NodeId) -> u32 {
        self.shares_pm
            .get(node.index())
            .copied()
            .unwrap_or(self.params.initial_share_pm)
    }

    /// Number of batch tasks currently held back.
    pub fn pending_batch_tasks(&self) -> usize {
        self.pending_count
    }

    fn push_batch(&mut self, now: SimTime, task: Task) {
        self.pending_batch
            .entry(task.chunk)
            .or_default()
            .push_back((now, task));
        self.pending_count += 1;
    }

    /// The OURS interactive pass (Algorithm 1 lines 8–15), additionally
    /// accumulating each node's committed interactive execution time into
    /// `s.committed_us` for the share controller.
    fn schedule_interactive(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        s: &mut CycleScratch,
        out: &mut Vec<Assignment>,
    ) {
        s.tasks.sort_unstable_by_key(|&(seq, t)| (t.chunk, seq));
        s.groups.clear();
        s.cached.clear();
        s.non_cached.clear();
        let mut i = 0usize;
        while i < s.tasks.len() {
            let chunk = s.tasks[i].1.chunk;
            let start = i as u32;
            while i < s.tasks.len() && s.tasks[i].1.chunk == chunk {
                i += 1;
            }
            let g = s.groups.len() as u32;
            s.groups.push((chunk, start, i as u32));
            if ctx.tables.cache.is_cached_anywhere(chunk) {
                s.cached.push(g);
            } else {
                let bytes = ctx.catalog.chunk_bytes(chunk);
                s.non_cached
                    .push((ctx.tables.estimate.get(chunk, bytes, ctx.cost), chunk, g));
            }
        }
        s.non_cached
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        s.heap.rebuild(ctx.tables, ctx.now);
        let live = ctx.tables.live_nodes().count().max(1) as u32;
        let ordered = s
            .cached
            .iter()
            .chain(s.non_cached.iter().map(|(_, _, g)| g));
        for &g in ordered {
            let (chunk, start, end) = s.groups[g as usize];
            let bytes = s.tasks[start as usize].1.bytes;
            let node = ctx.earliest_node_with_locality_via(&mut s.heap, chunk, bytes);
            for idx in start..end {
                let task = s.tasks[idx as usize].1;
                let group = ctx.catalog.task_count(task.chunk.dataset).min(live);
                let a = ctx.commit(task, node, group);
                if task.interactive {
                    s.committed_us[node.index()] += a.predicted_exec.as_micros();
                }
                out.push(a);
            }
            s.heap.update(ctx.tables, node);
        }
    }

    /// The once-per-cycle share EMA step, after the interactive pass and
    /// before the batch fill (so a fresh demand spike shrinks the batch
    /// window immediately).
    fn adjust_shares(&mut self, ctx: &ScheduleCtx<'_>, s: &CycleScratch) {
        let cycle_us = self.params.cycle.as_micros();
        for node in ctx.tables.live_nodes() {
            let committed = s.committed_us[node.index()];
            let demand_pm = (committed.saturating_mul(1000) / cycle_us).min(1000) as u32;
            let old = self.shares_pm[node.index()];
            let new = share_step(&self.params, old, demand_pm);
            if new != old {
                self.shares_pm[node.index()] = new;
                self.events.push(PolicyEvent::ShareAdjusted {
                    node,
                    interactive_pm: new,
                });
            }
        }
    }

    /// Cached batch fill: like OURS lines 16–22, but bounded by each
    /// node's batch window `λ_B(k)` instead of the full `λ`.
    fn schedule_cached_batch(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        s: &mut CycleScratch,
        out: &mut Vec<Assignment>,
    ) {
        s.nodes.clear();
        s.nodes.extend(ctx.tables.live_nodes());
        for &node in &s.nodes {
            let lambda_b = batch_lambda(ctx.now, self.params.cycle, self.shares_pm[node.index()]);
            while ctx.tables.available.get(node) < lambda_b {
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

    /// Non-cached batch fill: fewest replicas first like OURS lines
    /// 23–31, with the node's *learned share* standing in for the static
    /// ε fraction: a load-incurring placement needs an interactive idle
    /// age covering `φ_k`/1000 of the load estimate
    /// (`cold_batch_protected`), so busy
    /// nodes (high `φ_k`) are strongly shielded from cold batch evictions
    /// while drained nodes (low `φ_k`) admit cold work sooner than OURS's
    /// fixed 0.5 would.
    fn schedule_noncached_batch(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        s: &mut CycleScratch,
        out: &mut Vec<Assignment>,
    ) {
        s.batch_order.clear();
        s.batch_order.extend(self.pending_batch.keys().copied());
        s.batch_order
            .sort_unstable_by_key(|&c| (ctx.tables.cache.replica_count(c), c));
        let order = &s.batch_order;
        let mut cursor = 0usize;

        for &node in &s.nodes {
            let lambda_b = batch_lambda(ctx.now, self.params.cycle, self.shares_pm[node.index()]);
            while ctx.tables.available.get(node) < lambda_b {
                while cursor < order.len() && !self.pending_batch.contains_key(&order[cursor]) {
                    cursor += 1;
                }
                if cursor >= order.len() {
                    return;
                }
                let chunk = order[cursor];
                let bytes = ctx.catalog.chunk_bytes(chunk);
                if super::cold_batch_protected(
                    ctx,
                    node,
                    chunk,
                    bytes,
                    self.shares_pm[node.index()],
                ) {
                    // This node served interactive work too recently for a
                    // cold load of this size; leave it free and move on.
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

impl Scheduler for FracScheduler {
    fn name(&self) -> &'static str {
        "FRAC"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.params.cycle)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let nodes = ctx.tables.node_count();
        self.shares_pm.resize(nodes, self.params.initial_share_pm);

        let mut s = std::mem::take(&mut self.scratch);
        s.committed_us.clear();
        s.committed_us.resize(nodes, 0);

        s.tasks.clear();
        let mut seq = 0u32;
        for task in self.escalated.drain(..) {
            s.tasks.push((seq, task));
            seq += 1;
        }
        for job in incoming {
            for task in job.decompose(ctx.catalog) {
                if task.interactive {
                    s.tasks.push((seq, task));
                    seq += 1;
                } else {
                    self.push_batch(ctx.now, task);
                }
            }
        }

        let mut out = Vec::new();
        self.schedule_interactive(ctx, &mut s, &mut out);
        self.adjust_shares(ctx, &s);
        self.schedule_cached_batch(ctx, &mut s, &mut out);
        self.schedule_noncached_batch(ctx, &mut s, &mut out);
        self.scratch = s;
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

    /// Identical promotion semantics to OURS: deferred tasks whose age
    /// reached `age` ride the next interactive pass, bypassing the batch
    /// window entirely.
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

    fn drain_policy_events(&mut self) -> Vec<PolicyEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{assert_complete_assignment, Fixture};

    fn frac() -> FracScheduler {
        FracScheduler::new(FracParams::default())
    }

    #[test]
    fn interactive_jobs_fully_scheduled_in_cycle() {
        let mut fx = Fixture::standard(8, 6);
        let jobs: Vec<_> = (0..6)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let mut sched = frac();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, jobs.clone());
        assert_complete_assignment(&jobs, &fx.catalog, &out);
        assert!(!sched.has_deferred());
    }

    #[test]
    fn interactive_placement_matches_ours() {
        // FRAC's interactive pass is OURS's verbatim; on an
        // interactive-only stream the two must place identically.
        let mut fx_a = Fixture::standard(4, 3);
        let mut fx_b = Fixture::standard(4, 3);
        let mut a = frac();
        let mut b = crate::sched::OursScheduler::new(crate::sched::OursParams::default());
        for c in 0..4u64 {
            let t = SimTime::from_millis(30 * c);
            let ja: Vec<_> = (0..2)
                .map(|d| fx_a.interactive_job(d, c * 2 + d as u64, t))
                .collect();
            let jb: Vec<_> = (0..2)
                .map(|d| fx_b.interactive_job(d, c * 2 + d as u64, t))
                .collect();
            let out_a = a.schedule(&mut fx_a.ctx(t), ja);
            let out_b = b.schedule(&mut fx_b.ctx(t), jb);
            assert_eq!(out_a, out_b, "cycle {c}");
        }
    }

    #[test]
    fn shares_decay_without_demand_and_climb_under_load() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = frac();
        // Ten empty cycles: shares decay from 500 toward the 100 floor.
        for c in 0..10u64 {
            let t = SimTime::from_millis(30 * c);
            sched.schedule(&mut fx.ctx(t), vec![]);
        }
        assert_eq!(
            sched.share_pm(NodeId(0)),
            FracParams::default().min_share_pm
        );
        // A saturating interactive burst drives the loaded nodes back up.
        let t = SimTime::from_secs(1);
        let jobs: Vec<_> = (0..2).map(|d| fx.interactive_job(d, d as u64, t)).collect();
        sched.schedule(&mut fx.ctx(t), jobs);
        let grew = (0..2).any(|k| sched.share_pm(NodeId(k)) > FracParams::default().min_share_pm);
        assert!(grew, "interactive demand must raise at least one share");
    }

    #[test]
    fn share_changes_emit_policy_events() {
        let mut fx = Fixture::standard(2, 1);
        let mut sched = frac();
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![]);
        let events = sched.drain_policy_events();
        // Both idle nodes decay 500 → 375 on the first empty cycle.
        assert_eq!(events.len(), 2);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(
                *e,
                PolicyEvent::ShareAdjusted {
                    node: NodeId(k as u32),
                    interactive_pm: 375
                }
            );
        }
        // Drained means drained.
        assert!(sched.drain_policy_events().is_empty());
    }

    #[test]
    fn batch_respects_the_batch_window_not_epsilon() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = frac();
        // A long-idle node admits cold batch work as soon as its queue is
        // inside its batch window: the share-scaled idle cover (60 s of
        // idle vs a sub-second load) is satisfied, and there is no static
        // ε fraction anywhere in the decision.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
        let t = SimTime::from_secs(60);
        fx.tables.available.correct(NodeId(0), t);
        // Decay the share so a batch window exists even right after load.
        let bj = fx.batch_job(1, 0, t);
        let out = sched.schedule(&mut fx.ctx(t), vec![bj]);
        assert!(
            !out.is_empty(),
            "an idle node with batch headroom must make batch progress"
        );
        assert!(out.iter().all(|a| !a.task.interactive));
    }

    #[test]
    fn higher_share_throttles_cached_batch() {
        // Pin φ via min = max and compare cached-batch throughput: a node
        // reserving 90% of the cycle for interactive admits strictly less
        // batch work per cycle than one reserving 10%.
        let drained = |share: u32| -> usize {
            let mut fx = Fixture::standard(1, 1);
            let mut sched = FracScheduler::new(FracParams {
                initial_share_pm: share,
                min_share_pm: share,
                max_share_pm: share,
                ..FracParams::default()
            });
            // Warm the cache, then free the node.
            let ij = fx.interactive_job(0, 0, SimTime::ZERO);
            sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
            let t = SimTime::from_secs(100);
            fx.tables.available.correct(NodeId(0), t);
            let jobs: Vec<_> = (0..50).map(|i| fx.batch_job(0, i, t)).collect();
            sched.schedule(&mut fx.ctx(t), jobs).len()
        };
        let eager = drained(100);
        let throttled = drained(900);
        assert!(
            throttled < eager,
            "φ=900 admitted {throttled} vs φ=100's {eager}"
        );
        assert!(eager > 0);
    }

    #[test]
    fn escalation_bypasses_the_batch_window() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = frac();
        // The interactive job's cold loads push the node's queue seconds
        // past any batch window, so the batch job stays fully deferred.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![ij]);
        let bj = fx.batch_job(1, 0, SimTime::from_millis(60));
        let out = sched.schedule(&mut fx.ctx(SimTime::from_millis(60)), vec![bj]);
        assert!(out.is_empty());
        assert_eq!(sched.pending_batch_tasks(), 4);
        let t = SimTime::from_millis(260);
        let escalated = sched.escalate_deferred(t, SimDuration::from_millis(100));
        assert_eq!(escalated.len(), 1);
        assert_eq!(sched.pending_batch_tasks(), 0);
        assert!(sched.has_deferred());
        // Once the node frees up, every escalated task schedules in one
        // cycle through the interactive pass — no window arithmetic.
        fx.tables.available.correct(NodeId(0), t);
        let out = sched.schedule(&mut fx.ctx(t), vec![]);
        assert_eq!(out.len(), 4, "escalated tasks ride the interactive pass");
        assert!(!sched.has_deferred());
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn inverted_share_bounds_rejected() {
        FracScheduler::new(FracParams {
            min_share_pm: 800,
            max_share_pm: 200,
            initial_share_pm: 500,
            ..FracParams::default()
        });
    }
}
