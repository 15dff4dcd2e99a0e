//! MOBJ — weighted multi-objective placement scoring (after
//! Mamirov, "Multi-Objective GPU Cluster Scheduling", arXiv:2512.10980).
//!
//! Where OURS picks nodes by a single scalar (predicted completion,
//! Algorithm 1 line 11), MOBJ scores every live candidate node `k` with a
//! weighted objective vector and places on the minimum:
//!
//! ```text
//! score(k) = w_loc · move_us(k)          (cache locality)
//!          + w_bal · wait_us(k)          (load balance)
//!          + w_frag · frag_us(k)         (fragmentation pressure)
//!          − w_starv · idle_us(k)        (starvation age; batch only)
//! ```
//!
//! * `move_us` — the predicted data-movement cost,
//!   [`ScheduleCtx::io_estimate`]: zero on a predicted cache hit, else
//!   `Estimate[c]` (plus the PCIe upload on a GPU-modelling head);
//! * `wait_us` — how much later than the cluster's earliest node this one
//!   frees up (`ready_at(k) − min_k ready_at`);
//! * `frag_us` — eviction pressure: the fraction of the chunk that would
//!   not fit in the node's remaining memory quota, scaled by
//!   `Estimate[c]` (placing data on a full node forces future reloads);
//! * `idle_us` — how long the node has gone without interactive work,
//!   capped at `STARVATION_CAP` (2 s). Subtracted, and only for
//!   batch placements: it routes deferred batch onto the nodes the
//!   interactive tide left dry, which is what shrinks the longest batch
//!   starvation gap in the overload sweep.
//!
//! Batch candidates additionally pass the cold-placement protection gate
//! (`cold_batch_protected`, fraction `PROTECT_PM`): a load-incurring
//! batch placement needs an interactive idle age covering 500/1000 of the
//! load estimate, exactly OURS's ε-idle rule in integer form. The scorer
//! alone cannot provide this safety — a modest `w_loc` penalty still
//! loses to a large queue-wait difference, and one cold placement on a
//! busy node evicts that node's interactive working set and starts a
//! churn cascade.
//!
//! The weights (`WEIGHTS`, 400/300/200/100), the starvation cap and
//! the protection fraction are constants of this module; ω is the
//! scheduler's one setting.
//!
//! All weights are integer per-mille and every term is integer
//! microseconds accumulated in `i128` — zero floats in the decision path,
//! so [`reference::ReferenceMobjScheduler`](super::reference) can be held
//! bit-identical by the placement-equivalence suite. The optimized path
//! exploits that the balance anchor (`min_k ready_at`) shifts every
//! candidate's score equally: it anchors at `now` instead and skips the
//! extra minimum scan (see `objective_score`); the reference twin keeps
//! the textbook anchor, and the equivalence suite is the proof the shift
//! really is invariant.

use super::cycle::Cycle;
use super::{Assignment, ScheduleCtx, Scheduler, Trigger};
use crate::ids::{ChunkId, JobId, NodeId};
use crate::job::{Job, Task};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The objective weights, per-mille. Only their ratios matter.
struct MobjWeights {
    /// Cache-locality weight `w_loc`.
    locality_pm: u32,
    /// Load-balance weight `w_bal`.
    balance_pm: u32,
    /// Fragmentation weight `w_frag`.
    fragmentation_pm: u32,
    /// Starvation-age weight `w_starv` (batch placements only).
    starvation_pm: u32,
}

/// The weights steering every placement.
const WEIGHTS: MobjWeights = MobjWeights {
    locality_pm: 400,
    balance_pm: 300,
    fragmentation_pm: 200,
    starvation_pm: 100,
};
/// Cap on the starvation-age term, so a node idle since boot does not
/// drown every other objective. It must stay *below* the typical
/// locality term: with a 10 s cap the starvation term overpowered
/// `w_loc · move_us` and MOBJ placed cached-elsewhere batch cold on
/// long-idle nodes, each placement eating seconds of drain throughput;
/// 2 s restores the intended tie-break role and with it the starvation
/// win over OURS (EXPERIMENTS.md policy matrix).
const STARVATION_CAP: SimDuration = SimDuration::from_secs(2);
/// Cold-placement protection, per-mille: a batch placement that incurs a
/// load is only admitted on a node whose interactive idle age covers this
/// fraction of the load's estimate (see `cold_batch_protected`). 500
/// mirrors OURS's ε of half the estimate.
pub(super) const PROTECT_PM: u32 = 500;

/// The age-widened admission window of one deferred batch task: the
/// starvation objective acting on *feasibility*. A fresh task may only
/// queue within the cycle window `λ`; a task deferred since `since` may
/// queue `w_starv`/1000 of its age past it, so aged work wedges into a
/// busy-but-eligible node's queue instead of waiting forever for a
/// perfectly free cycle slot. This is what bounds the longest batch start
/// delay below OURS's in the overload sweep. Shared with the reference
/// twin.
pub(super) fn batch_gate(now: SimTime, lambda: SimTime, since: SimTime) -> SimTime {
    let age_us = now.saturating_since(since).as_micros();
    lambda + SimDuration::from_micros(age_us.saturating_mul(WEIGHTS.starvation_pm as u64) / 1000)
}

/// Score one candidate placement. `anchor` is the balance-term origin:
/// the optimized scheduler passes `now` (a per-group constant shift that
/// cannot change the argmin or its ties), the reference twin passes the
/// textbook `min_k ready_at(k)`.
pub(super) fn objective_score(
    ctx: &ScheduleCtx<'_>,
    anchor: SimTime,
    node: NodeId,
    chunk: ChunkId,
    bytes: u64,
    batch: bool,
) -> i128 {
    let w = WEIGHTS;
    let ready = ctx.tables.available.ready_at(node, ctx.now);
    let wait_us = ready.saturating_since(anchor).as_micros();
    let move_us = ctx.io_estimate(node, chunk, bytes).as_micros();
    let frag_us = if ctx.tables.cache.contains(node, chunk) {
        0
    } else {
        let est_us = ctx.tables.estimate.get(chunk, bytes, ctx.cost).as_micros();
        let mem = ctx.tables.cache.node_memory(node);
        let over = (mem.used() + bytes).saturating_sub(mem.quota()).min(bytes);
        est_us.saturating_mul(over) / bytes.max(1)
    };
    let mut score = w.locality_pm as i128 * move_us as i128
        + w.balance_pm as i128 * wait_us as i128
        + w.fragmentation_pm as i128 * frag_us as i128;
    if batch {
        let idle_us = ctx
            .tables
            .interactive_idle(node, ctx.now)
            .min(STARVATION_CAP)
            .as_micros();
        score -= w.starvation_pm as i128 * idle_us as i128;
    }
    score
}

/// The multi-objective scheduler.
#[derive(Debug)]
pub struct MobjScheduler {
    /// The scheduling cycle `ω`.
    omega: SimDuration,
    /// `H_B`: deferred batch tasks in global FIFO order, each tagged with
    /// its deferral time. Timestamps are monotone, so the escalation scan
    /// is a front-prefix pop.
    pending_batch: VecDeque<(SimTime, Task)>,
    /// Intake, the interactive pass and escalated re-entries (the shared
    /// cycle skeleton).
    cycle: Cycle,
}

impl MobjScheduler {
    /// Build the scheduler with scheduling cycle `cycle` (ω).
    pub fn new(cycle: SimDuration) -> Self {
        assert!(!cycle.is_zero(), "scheduling cycle must be positive");
        MobjScheduler {
            omega: cycle,
            pending_batch: VecDeque::new(),
            cycle: Cycle::default(),
        }
    }

    /// Number of batch tasks currently held back.
    pub fn pending_batch_tasks(&self) -> usize {
        self.pending_batch.len()
    }

    /// Argmin of the objective over live nodes, ties to the lowest id.
    fn best_node(
        &self,
        ctx: &ScheduleCtx<'_>,
        chunk: ChunkId,
        bytes: u64,
        batch: bool,
        gate: Option<SimTime>,
    ) -> Option<NodeId> {
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
            let s = objective_score(ctx, ctx.now, k, chunk, bytes, batch);
            if best.is_none_or(|b| (s, k) < b) {
                best = Some((s, k));
            }
        }
        best.map(|(_, k)| k)
    }

    /// Drain the deferred queue oldest-first, *scanning past* tasks no
    /// node can currently take (their caching nodes are saturated or
    /// protected): a blocked head must not starve placeable work behind
    /// it, and giving the oldest tasks first pick of the scarce window
    /// slots is what bounds the longest batch start delay. Unplaced tasks
    /// keep their position and deferral timestamps, so the queue stays
    /// age-sorted for [`Scheduler::escalate_deferred`].
    fn schedule_batch(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        lambda: SimTime,
        out: &mut Vec<Assignment>,
    ) {
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
    }
}

impl Scheduler for MobjScheduler {
    fn name(&self) -> &'static str {
        "MOBJ"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.omega)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let (now, lambda) = (ctx.now, ctx.now + self.omega);
        self.cycle.intake(ctx, incoming, |task| {
            if !task.interactive {
                self.pending_batch.push_back((now, task));
            }
            !task.interactive
        });
        let mut out = Vec::new();
        // OURS's chunk grouping and ordering (heuristics 1–3), with the
        // per-group node choice swapped from the completion-time greedy to
        // the objective argmin. The skeleton is taken out of `self` so the
        // node choice can borrow `self` whole; moved back (with its
        // allocations) after the pass.
        let mut cycle = std::mem::take(&mut self.cycle);
        cycle.interactive(
            ctx,
            |ctx, _, chunk, bytes| {
                self.best_node(ctx, chunk, bytes, false, None)
                    .expect("at least one live node")
            },
            |_, _, _| {},
            &mut out,
        );
        self.cycle = cycle;
        self.schedule_batch(ctx, lambda, &mut out);
        out
    }

    fn has_deferred(&self) -> bool {
        !self.pending_batch.is_empty() || self.cycle.has_escalated()
    }

    fn retract_deferred(&mut self) {
        self.pending_batch.clear();
        self.cycle.retract();
    }

    /// Deferral timestamps are monotone in the FIFO, so escalation pops
    /// the aged front prefix; reporting mirrors OURS (per-job, oldest
    /// task's age, sorted by job then task index).
    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        let mut moved: Vec<(SimTime, Task)> = Vec::new();
        while let Some(&(since, _)) = self.pending_batch.front() {
            if now.saturating_since(since) < age {
                break;
            }
            let (since, task) = self.pending_batch.pop_front().expect("front exists");
            moved.push((since, task));
        }
        self.cycle.promote(now, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{assert_complete_assignment, Fixture};

    fn mobj() -> MobjScheduler {
        MobjScheduler::new(SimDuration::from_millis(30))
    }

    #[test]
    fn interactive_jobs_fully_scheduled_in_cycle() {
        let mut fx = Fixture::standard(8, 6);
        let jobs: Vec<_> = (0..6)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let mut sched = mobj();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, jobs.clone());
        assert_complete_assignment(&jobs, &fx.catalog, &out);
        assert!(!sched.has_deferred());
    }

    #[test]
    fn locality_wins_on_idle_ties() {
        let mut fx = Fixture::standard(4, 1);
        let mut sched = mobj();
        // Warm chunk 0 of dataset 0 onto node 3, then free everything.
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let task = job.decompose(&fx.catalog)[0];
        fx.ctx(SimTime::ZERO).commit(task, NodeId(3), 4);
        let t = SimTime::from_secs(30);
        for k in 0..4 {
            fx.tables.available.correct(NodeId(k), t);
        }
        let warm = fx.interactive_job(0, 1, t);
        let out = sched.schedule(&mut fx.ctx(t), vec![warm]);
        let placed = out.iter().find(|a| a.task.chunk == task.chunk).unwrap();
        assert_eq!(placed.node, NodeId(3), "cached holder must win the tie");
    }

    #[test]
    fn balance_spreads_a_cold_job() {
        let mut fx = Fixture::standard(4, 1);
        let mut sched = mobj();
        // A cold 4-chunk job on 4 idle nodes: after each commit, the
        // loaded node's balance term grows, so the chunks spread 1/node.
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let out = sched.schedule(&mut fx.ctx(SimTime::ZERO), vec![job]);
        let nodes: std::collections::HashSet<NodeId> = out.iter().map(|a| a.node).collect();
        assert_eq!(nodes.len(), 4, "cold chunks must spread across the cluster");
    }

    #[test]
    fn fragmentation_steers_away_from_full_nodes() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = mobj();
        // Fill node 0's 2 GiB quota with dataset 0 (4 × 512 MiB).
        let filler = fx.interactive_job(0, 0, SimTime::ZERO);
        for task in filler.decompose(&fx.catalog) {
            fx.ctx(SimTime::ZERO).commit(task, NodeId(0), 2);
        }
        let t = SimTime::from_secs(30);
        fx.tables.available.correct(NodeId(0), t);
        fx.tables.available.correct(NodeId(1), t);
        // A cold dataset-1 chunk: both nodes tie on locality and balance,
        // but placing on the full node would evict — node 1 must win.
        // (Later chunks may fall back to node 0 once node 1's queue grows —
        // the balance term takes over — so only the first pick is pinned.)
        let job = fx.interactive_job(1, 1, t);
        let out = sched.schedule(&mut fx.ctx(t), vec![job]);
        assert_eq!(
            out[0].node,
            NodeId(1),
            "fragmentation term must steer cold data off the full node"
        );
    }

    #[test]
    fn starvation_age_routes_batch_to_idle_nodes() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = mobj();
        // Node 0 just served interactive work; node 1 never has.
        fx.tables.note_interactive(NodeId(0), SimTime::ZERO);
        let t = SimTime::from_millis(10);
        // Each node admits one cold load per cycle (its queue crosses the
        // gate after the first commit), so only the first pick is pinned.
        let bj = fx.batch_job(1, 0, t);
        let out = sched.schedule(&mut fx.ctx(t), vec![bj]);
        assert!(!out.is_empty());
        assert_eq!(
            out[0].node,
            NodeId(1),
            "batch must chase the starvation-aged node"
        );
    }

    #[test]
    fn batch_is_deferred_when_no_node_has_cycle_headroom() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = mobj();
        let interactive: Vec<_> = (0..2)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let batch = fx.batch_job(1, 0, SimTime::ZERO);
        let mut jobs = interactive;
        jobs.push(batch);
        let out = sched.schedule(&mut fx.ctx(SimTime::ZERO), jobs);
        // Cold interactive loads push every queue past λ: batch waits.
        assert_eq!(out.iter().filter(|a| !a.task.interactive).count(), 0);
        assert!(sched.has_deferred());
        assert_eq!(sched.pending_batch_tasks(), 4);
    }

    #[test]
    fn escalation_promotes_aged_batch() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = mobj();
        let interactive: Vec<_> = (0..2)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let batch = fx.batch_job(1, 0, SimTime::ZERO);
        let mut jobs = interactive;
        jobs.push(batch);
        sched.schedule(&mut fx.ctx(SimTime::ZERO), jobs);
        assert_eq!(sched.pending_batch_tasks(), 4);
        // Too young: no-op.
        let young = sched.escalate_deferred(SimTime::from_millis(30), SimDuration::from_secs(5));
        assert!(young.is_empty());
        // Old enough: all four tasks of the one batch job move.
        let t = SimTime::from_millis(500);
        let escalated = sched.escalate_deferred(t, SimDuration::from_millis(100));
        assert_eq!(escalated.len(), 1);
        assert_eq!(sched.pending_batch_tasks(), 0);
        assert!(sched.has_deferred());
        for k in 0..2 {
            fx.tables.available.correct(NodeId(k), t);
        }
        let out = sched.schedule(&mut fx.ctx(t), vec![]);
        assert_eq!(out.len(), 4, "escalated tasks ride the interactive pass");
    }
}
