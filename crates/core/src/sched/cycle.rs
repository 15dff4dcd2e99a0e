//! The cycle skeleton of Algorithm 1, written once.
//!
//! [`ours`](super::ours) and [`mobj`](super::mobj) both run the paper's
//! cycle — decompose, group the interactive tasks by chunk, place cached
//! groups first and non-cached groups longest-I/O first, then fill nodes
//! with held batch work — and differ in two decisions: which node a chunk
//! group goes to, and when a cold batch placement is refused (the gate).
//! Every placement commits through [`ScheduleCtx::commit`]. This module
//! is everything else.
//! [`Cycle`] is lines 2–15 (intake and the interactive pass) plus the
//! anti-starvation re-entry; [`Deferred`] is `H_B`, the per-chunk store of
//! held batch tasks, with lines 16–31 (the two batch fills). A policy
//! passes its decisions in as closures; nothing here asks which policy is
//! calling. DESIGN.md §14 tabulates who supplies what.

use super::{Assignment, ScheduleCtx};
use crate::fxhash::FxHashMap;
use crate::ids::{ChunkId, JobId, NodeId};
use crate::job::{Job, Task};
use crate::tables::AvailHeap;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Intake and interactive-pass state. Only `escalated` carries data from
/// one cycle to the next; everything else is scratch, dead outside one
/// `schedule()` call and reused across invocations so the steady-state
/// cycle allocates nothing but its output vector.
#[derive(Debug, Default)]
pub(super) struct Cycle {
    /// Batch tasks promoted out of a deferred store by [`Cycle::promote`];
    /// the next cycle schedules them in the interactive pass, bypassing
    /// whatever window or gate deferred them.
    escalated: Vec<Task>,
    /// Ordered view over `Available[R_k]`, for node choices that use one;
    /// the policy rebuilds it each cycle, the pass only threads it through.
    pub(super) heap: AvailHeap,
    /// This cycle's interactive tasks as `(arrival sequence, task)`.
    tasks: Vec<(u32, Task)>,
    /// Chunk groups as contiguous `(chunk, start, end)` ranges in `tasks`.
    groups: Vec<(ChunkId, u32, u32)>,
    /// Group indices whose chunk is cached somewhere, ascending chunk id.
    cached: Vec<u32>,
    /// `(Estimate[c], chunk, group index)` for non-cached groups.
    non_cached: Vec<(SimDuration, ChunkId, u32)>,
}

impl Cycle {
    /// Lines 2–7: decompose into `H_I` (the task buffer, tagged with
    /// arrival sequence) and `H_B` (`hold` returns true for a task it kept).
    /// Escalated batch tasks re-enter ahead of this cycle's arrivals: their
    /// deferral age already exceeded the anti-starvation bound, so they
    /// ride the interactive pass this cycle.
    pub(super) fn intake(
        &mut self,
        ctx: &ScheduleCtx<'_>,
        incoming: Vec<Job>,
        mut hold: impl FnMut(Task) -> bool,
    ) {
        self.tasks.clear();
        let mut seq = 0u32;
        for task in self.escalated.drain(..) {
            self.tasks.push((seq, task));
            seq += 1;
        }
        for job in incoming {
            for task in job.decompose(ctx.catalog) {
                if !hold(task) {
                    self.tasks.push((seq, task));
                    seq += 1;
                }
            }
        }
    }

    /// Lines 8–15: schedule the cycle's interactive tasks, cached chunks
    /// first, non-cached chunks in descending `Estimate[c]` order (longest
    /// I/O first, the classic LPT makespan heuristic). Every task of a
    /// chunk group lands on the one node `choose` picks (line 11: in the
    /// paper, the node minimizing predicted completion, counting the I/O
    /// only where the chunk is absent); `placed` runs once per group, after
    /// its commits — every task above landed on that node, so one heap
    /// re-key per group suffices.
    pub(super) fn interactive(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        mut choose: impl FnMut(&ScheduleCtx<'_>, &mut AvailHeap, ChunkId, u64) -> NodeId,
        mut placed: impl FnMut(&ScheduleCtx<'_>, &mut AvailHeap, NodeId),
        out: &mut Vec<Assignment>,
    ) {
        // Group tasks by chunk: an unstable sort on (chunk, arrival seq)
        // is a stable grouping without per-chunk buckets.
        self.tasks.sort_unstable_by_key(|&(seq, t)| (t.chunk, seq));
        self.groups.clear();
        self.cached.clear();
        self.non_cached.clear();
        let mut i = 0usize;
        while i < self.tasks.len() {
            let chunk = self.tasks[i].1.chunk;
            let start = i as u32;
            while i < self.tasks.len() && self.tasks[i].1.chunk == chunk {
                i += 1;
            }
            let g = self.groups.len() as u32;
            self.groups.push((chunk, start, i as u32));
            if ctx.tables.cache.is_cached_anywhere(chunk) {
                // Discovery order is ascending chunk id already.
                self.cached.push(g);
            } else {
                let bytes = ctx.catalog.chunk_bytes(chunk);
                self.non_cached
                    .push((ctx.tables.estimate.get(chunk, bytes, ctx.cost), chunk, g));
            }
        }
        // Deterministic orders: cached by id (already); non-cached
        // longest-first.
        self.non_cached
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Live-node count is invariant within a cycle; hoist the O(p)
        // count out of the per-task group_size computation.
        let live = ctx.tables.live_nodes().count().max(1) as u32;
        let ordered = self
            .cached
            .iter()
            .chain(self.non_cached.iter().map(|(_, _, g)| g));
        for &g in ordered {
            let (chunk, start, end) = self.groups[g as usize];
            let bytes = self.tasks[start as usize].1.bytes;
            let node = choose(ctx, &mut self.heap, chunk, bytes);
            for &(_, task) in &self.tasks[start as usize..end as usize] {
                let group = ctx.catalog.task_count(task.chunk.dataset).min(live);
                out.push(ctx.commit(task, node, group));
            }
            placed(ctx, &mut self.heap, node);
        }
    }

    /// The anti-starvation tail every deferred store shares: `moved` are
    /// the `(deferred since, task)` pairs a store gave up because their age
    /// reached the bound. They join the next cycle's interactive pass in
    /// `(job, task index)` order — deterministic, so identical across
    /// substrates regardless of hash-map iteration order — and are
    /// reported one entry per job with its oldest task's age.
    pub(super) fn promote(
        &mut self,
        now: SimTime,
        mut moved: Vec<(SimTime, Task)>,
    ) -> Vec<(JobId, SimDuration)> {
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

    /// True while promoted tasks await the next cycle.
    pub(super) fn has_escalated(&self) -> bool {
        !self.escalated.is_empty()
    }

    /// Drop the promoted tasks unplaced (the failover drain).
    pub(super) fn retract(&mut self) {
        self.escalated.clear();
    }
}

/// `H_B`: batch tasks held back, grouped by chunk, each tagged with the
/// cycle time it was first deferred at (the deferral-age basis for
/// anti-starvation escalation). Persists across cycles until nodes free
/// up. Queues are never left empty: a chunk is a key exactly while it has
/// work.
#[derive(Debug, Default)]
pub(super) struct Deferred {
    by_chunk: FxHashMap<ChunkId, VecDeque<(SimTime, Task)>>,
    len: usize,
    /// Scratch: this cycle's live-node list for the fill loops.
    nodes: Vec<NodeId>,
    /// Scratch: non-cached batch chunk order (fewest replicas first).
    order: Vec<ChunkId>,
}

impl Deferred {
    /// Hold `task` back, deferred since `now`.
    pub(super) fn push(&mut self, now: SimTime, task: Task) {
        self.by_chunk
            .entry(task.chunk)
            .or_default()
            .push_back((now, task));
        self.len += 1;
    }

    /// Take the oldest held task of `chunk`, which must have work.
    fn pop(&mut self, chunk: ChunkId) -> Task {
        let queue = self.by_chunk.get_mut(&chunk).expect("chunk has work");
        let (_, task) = queue.pop_front().expect("queues are never left empty");
        if queue.is_empty() {
            self.by_chunk.remove(&chunk);
        }
        self.len -= 1;
        task
    }

    /// Number of batch tasks currently held back.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Drop every held task unplaced (the failover drain).
    pub(super) fn retract(&mut self) {
        self.by_chunk.clear();
        self.len = 0;
    }

    /// Remove and return every task whose deferral age reached `age` at
    /// `now`, with its timestamp — the input to [`Cycle::promote`].
    /// Younger tasks stay queued in order with their original timestamps.
    pub(super) fn take_aged(&mut self, now: SimTime, age: SimDuration) -> Vec<(SimTime, Task)> {
        let mut moved: Vec<(SimTime, Task)> = Vec::new();
        self.by_chunk.retain(|_, queue| {
            queue.retain(|&(since, task)| {
                let aged = now.saturating_since(since) >= age;
                if aged {
                    moved.push((since, task));
                }
                !aged
            });
            !queue.is_empty()
        });
        self.len -= moved.len();
        moved
    }

    /// Lines 16–31: the two batch fills. `until` is how far each node's
    /// queue may be filled (the paper's `λ`, the next scheduling time);
    /// `protected(ctx, k, c, bytes)` is the gate that keeps a cold load of
    /// chunk `c` off node `k` (the paper's ε rule).
    pub(super) fn fill(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        until: SimTime,
        protected: impl Fn(&ScheduleCtx<'_>, NodeId, ChunkId, u64) -> bool,
        out: &mut Vec<Assignment>,
    ) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        nodes.extend(ctx.tables.live_nodes());

        // Lines 16–22: fill each node with held batch tasks whose chunk it
        // already caches, up to λ.
        for &node in &nodes {
            while ctx.tables.available.get(node) < until {
                // Smallest resident chunk id with pending batch work keeps
                // the choice deterministic.
                let candidate = ctx
                    .tables
                    .cache
                    .node_memory(node)
                    .chunks()
                    .filter(|c| self.by_chunk.contains_key(c))
                    .min();
                let Some(chunk) = candidate else { break };
                let task = self.pop(chunk);
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }

        // Lines 23–31: place batch tasks that need a disk load, chunks with
        // the fewest cache replicas first, only on nodes the gate leaves
        // open.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(self.by_chunk.keys().copied());
        order.sort_unstable_by_key(|&c| (ctx.tables.cache.replica_count(c), c));
        let mut cursor = 0usize;
        'nodes: for &node in &nodes {
            while ctx.tables.available.get(node) < until {
                // Advance past chunks whose queues have drained.
                while cursor < order.len() && !self.by_chunk.contains_key(&order[cursor]) {
                    cursor += 1;
                }
                if cursor >= order.len() {
                    break 'nodes;
                }
                let chunk = order[cursor];
                if protected(ctx, node, chunk, ctx.catalog.chunk_bytes(chunk)) {
                    // This node served interactive work too recently for a
                    // cold load of this size; leave it free (line 26) and
                    // move on.
                    break;
                }
                let task = self.pop(chunk);
                let group = ctx.group_size(task.chunk.dataset);
                out.push(ctx.commit(task, node, group));
            }
        }
        self.nodes = nodes;
        self.order = order;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DatasetId;

    fn task(job: u64, index: u32) -> Task {
        Task {
            job: JobId(job),
            index,
            chunk: ChunkId::new(DatasetId(0), index),
            bytes: 1 << 20,
            interactive: false,
        }
    }

    /// Two jobs interleaved across three chunks with mixed ages: the aged
    /// tasks come back sorted by `(job, index)`, each job is reported once
    /// with its *oldest* task's age, and the young tasks stay queued with
    /// their original timestamps.
    #[test]
    fn escalation_sorts_folds_per_job_and_leaves_the_young_queued() {
        let ms = SimTime::from_millis;
        let mut held = Deferred::default();
        let mut cycle = Cycle::default();
        // (deferred at, job, chunk/index); the bound below is 100 ms at
        // t = 300 ms, so anything deferred after 200 ms is young.
        for (at, job, index) in [
            (150, 2, 0),
            (250, 1, 0), // young
            (0, 1, 1),
            (100, 2, 1),
            (200, 2, 2),
            (260, 1, 2), // young
        ] {
            held.push(ms(at), task(job, index));
        }
        assert_eq!(held.len(), 6);

        let now = ms(300);
        let age = SimDuration::from_millis(100);
        let report = cycle.promote(now, held.take_aged(now, age));
        assert_eq!(
            report,
            vec![
                (JobId(1), SimDuration::from_millis(300)),
                (JobId(2), SimDuration::from_millis(200)),
            ]
        );
        let promoted: Vec<(u64, u32)> =
            cycle.escalated.iter().map(|t| (t.job.0, t.index)).collect();
        assert_eq!(promoted, vec![(1, 1), (2, 0), (2, 1), (2, 2)]);
        assert!(cycle.has_escalated());

        assert_eq!(held.len(), 2);
        assert_eq!(held.by_chunk.len(), 2, "drained chunks are not keys");
        // The young keep their timestamps: 40 ms later only the older of
        // the two has reached the bound.
        let later = ms(350);
        let aged = held.take_aged(later, age);
        assert_eq!(aged, vec![(ms(250), task(1, 0))]);
        assert_eq!(held.len(), 1);
        assert_eq!(held.pop(ChunkId::new(DatasetId(0), 2)), task(1, 2));
        assert_eq!(held.len(), 0);
        assert!(held.by_chunk.is_empty());
    }
}
