//! OURS — the paper's locality-aware, cycle-based scheduler (Algorithm 1).
//!
//! Instead of evaluating the exponential space of job-to-node mappings, the
//! scheduler runs every cycle `ω` and applies four heuristics (§V-A):
//!
//! 1. Jobs are decomposed into per-chunk tasks first and tasks are
//!    scheduled individually.
//! 2. Interactive jobs within a cycle are scheduled immediately; batch jobs
//!    are *held* until a rendering node becomes available.
//! 3. Interactive tasks sharing a chunk within one cycle all go to the same
//!    node (later cycles may pick other nodes, spreading hot data).
//! 4. A batch task that needs a disk reload may only be placed on a node
//!    whose interactive-idle time exceeds `ε = Estimate[c]/2`.
//!
//! Table I's notation maps to this module as: `ω` = [`OursParams::cycle`],
//! `ε` = `EPSILON_FRAC` (1/2) · `Estimate[c]`, `Available[R_k]` /
//! `Cache[c]` / `Estimate[c]` = [`crate::tables::HeadTables`], `λ` = the
//! next scheduling time computed at the top of
//! [`OursScheduler::schedule`].
//!
//! ## Hot-path structure
//!
//! The paper states `O(p · m log m)` per cycle for `p` nodes and `m`
//! distinct chunks in flight (§VI-D); that is what the retained
//! [`reference::ReferenceOursScheduler`](super::reference) still does.
//! This implementation cuts the cycle cost to `O(p + m (log p + log m))`
//! amortized without changing a single placement:
//!
//! * node selection for interactive chunk groups goes through an
//!   [`AvailHeap`](crate::tables::AvailHeap) rebuilt once per cycle
//!   (O(p)) and queried in O(log p),
//!   and the candidate scan is restricted to `Cache[c]` plus the heap's
//!   global best ([`ScheduleCtx::earliest_node_with_locality_via`]);
//! * per-cycle scratch — the task buffer, chunk-group index, sort keys,
//!   live-node list and batch order — lives in the shared cycle skeleton
//!   (`sched/cycle.rs`, which MOBJ runs on too) and is reused
//!   across invocations instead of reallocated;
//! * chunk grouping is a single unstable sort over `(chunk, arrival
//!   sequence)` pairs, which groups tasks contiguously while preserving
//!   arrival order within a group (no per-chunk `Vec` allocations).
//!
//! The placement-equivalence suite (`tests/placement_equivalence.rs`)
//! holds this implementation bit-identical to the reference across random
//! catalogs, clusters and multi-cycle job streams.

use super::cycle::{Cycle, Deferred};
use super::{Assignment, ScheduleCtx, Scheduler, Trigger};
use crate::ids::JobId;
use crate::job::Job;
use crate::time::{SimDuration, SimTime};

/// `ε` as a fraction of `Estimate[c]`: the paper's 1/2, a constant of
/// Algorithm 1 that OURS and its reference twin both read.
pub(super) const EPSILON_FRAC: f64 = 0.5;

/// Tuning knobs for OURS. The defaults follow the paper; the extra switch
/// exists for the ablation benchmarks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OursParams {
    /// The scheduling cycle `ω`: how often the dispatcher runs Algorithm 1.
    /// Chosen "so that interactive jobs can be scheduled timely with minimal
    /// scheduling overhead"; one interactive request period (30 ms) by
    /// default.
    pub cycle: SimDuration,
    /// Ablation switch: when false, batch tasks are scheduled like
    /// interactive ones instead of being deferred (heuristics 2 and 4 off).
    pub defer_batch: bool,
}

impl Default for OursParams {
    fn default() -> Self {
        OursParams {
            cycle: SimDuration::from_millis(30),
            defer_batch: true,
        }
    }
}

/// The proposed scheduler.
#[derive(Debug)]
pub struct OursScheduler {
    params: OursParams,
    /// `H_B`: batch tasks held back until nodes free up.
    held: Deferred,
    /// Intake, the interactive pass and escalated re-entries.
    cycle: Cycle,
}

impl OursScheduler {
    /// Build the scheduler.
    pub fn new(params: OursParams) -> Self {
        assert!(!params.cycle.is_zero(), "scheduling cycle must be positive");
        OursScheduler {
            params,
            held: Deferred::default(),
            cycle: Cycle::default(),
        }
    }

    /// Number of batch tasks currently held back.
    pub fn pending_batch_tasks(&self) -> usize {
        self.held.len()
    }
}

impl Scheduler for OursScheduler {
    fn name(&self) -> &'static str {
        "OURS"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.params.cycle)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        let (now, params) = (ctx.now, self.params);
        // Line 1: λ, the next scheduling time.
        let lambda = now + params.cycle;

        self.cycle.intake(ctx, incoming, |task| {
            let defer = !task.interactive && params.defer_batch;
            if defer {
                self.held.push(now, task);
            }
            defer
        });
        let mut out = Vec::new();
        self.cycle.heap.rebuild(ctx.tables, now);
        self.cycle.interactive(
            ctx,
            |ctx, heap, chunk, bytes| ctx.earliest_node_with_locality_via(heap, chunk, bytes),
            |ctx, heap, node| heap.update(ctx.tables, node),
            &mut out,
        );
        // Lines 16–31: batch fills up to λ; a cold load only on nodes that
        // have been free of interactive work for at least
        // `ε = EPSILON_FRAC · Estimate[c]`.
        self.held.fill(
            ctx,
            lambda,
            |ctx, node, chunk, bytes| {
                let estimate = ctx.tables.estimate.get(chunk, bytes, ctx.cost);
                ctx.tables.interactive_idle(node, now) <= estimate.mul_f64(EPSILON_FRAC)
            },
            &mut out,
        );
        out
    }

    fn has_deferred(&self) -> bool {
        self.held.len() > 0 || self.cycle.has_escalated()
    }

    fn retract_deferred(&mut self) {
        self.held.retract();
        self.cycle.retract();
    }

    /// Promote deferred batch tasks whose deferral age reached `age` into
    /// the next cycle's interactive pass, where no ε or λ gate applies.
    fn escalate_deferred(&mut self, now: SimTime, age: SimDuration) -> Vec<(JobId, SimDuration)> {
        self.cycle.promote(now, self.held.take_aged(now, age))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChunkId, NodeId};
    use crate::sched::testutil::{assert_complete_assignment, Fixture};

    fn ours() -> OursScheduler {
        OursScheduler::new(OursParams::default())
    }

    #[test]
    fn interactive_jobs_fully_scheduled_in_cycle() {
        let mut fx = Fixture::standard(8, 6);
        let jobs: Vec<_> = (0..6)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let mut sched = ours();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, jobs.clone());
        assert_complete_assignment(&jobs, &fx.catalog, &out);
        assert!(!sched.has_deferred());
    }

    #[test]
    fn same_chunk_same_cycle_same_node() {
        let mut fx = Fixture::standard(8, 1);
        // Two actions over the same dataset in one cycle.
        let j1 = fx.interactive_job(0, 0, SimTime::ZERO);
        let j2 = fx.interactive_job(0, 1, SimTime::ZERO);
        let mut sched = ours();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![j1, j2]);
        // For every chunk, both tasks landed on one node (heuristic 3).
        let mut by_chunk: std::collections::HashMap<ChunkId, Vec<NodeId>> =
            std::collections::HashMap::new();
        for a in &out {
            by_chunk.entry(a.task.chunk).or_default().push(a.node);
        }
        for (chunk, nodes) in by_chunk {
            assert_eq!(nodes.len(), 2);
            assert_eq!(
                nodes[0], nodes[1],
                "chunk {chunk} split across nodes within a cycle"
            );
        }
    }

    #[test]
    fn batch_jobs_are_deferred_until_nodes_idle() {
        let mut fx = Fixture::standard(2, 2);
        // Saturate both nodes with interactive work beyond the next cycle.
        let interactive: Vec<_> = (0..2)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let batch = fx.batch_job(1, 0, SimTime::ZERO);
        let mut sched = ours();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let mut jobs = interactive;
        jobs.push(batch);
        let out = sched.schedule(&mut ctx, jobs);
        // Interactive tasks (8) scheduled; batch tasks (4) held: available
        // time after cold interactive loads is far beyond λ = 30 ms.
        assert_eq!(out.iter().filter(|a| a.task.interactive).count(), 8);
        assert_eq!(out.iter().filter(|a| !a.task.interactive).count(), 0);
        assert!(sched.has_deferred());
        assert_eq!(sched.pending_batch_tasks(), 4);
    }

    #[test]
    fn deferred_batch_trickles_one_cold_load_per_node_per_cycle() {
        let mut fx = Fixture::standard(2, 1);
        let batch = fx.batch_job(0, 0, SimTime::ZERO);
        let mut sched = ours();
        // Nodes are idle and never served interactive work (idle = ∞), so
        // the ε test passes — but a cold load pushes `Available` past λ, so
        // each node accepts exactly one non-cached batch task per cycle
        // (Algorithm 1, line 25).
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![batch]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| !a.task.interactive));
        assert!(sched.has_deferred());
        assert_eq!(sched.pending_batch_tasks(), 2);
    }

    #[test]
    fn epsilon_blocks_noncached_batch_near_interactive_work() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = ours();
        // Cycle 1: interactive job on dataset 0 occupies the only node and
        // stamps its interactive clock.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![ij]);
        }
        // The node finishes everything; made available again.
        fx.tables
            .available
            .correct(NodeId(0), SimTime::from_millis(100));
        // Cycle 2 at t = 100 ms: a batch job over the *uncached* dataset 1
        // arrives. Interactive idle is 100 ms << ε (≈ 1.7 s for a 512 MiB
        // chunk), so the batch work must stay deferred.
        let bj = fx.batch_job(1, 0, SimTime::from_millis(100));
        {
            let mut ctx = fx.ctx(SimTime::from_millis(100));
            let out = sched.schedule(&mut ctx, vec![bj]);
            assert!(out.is_empty());
            assert!(sched.has_deferred());
        }
        // Much later the idle test passes and the batch drains; cold loads
        // trickle out one per cycle, cached follow-ups drain faster.
        let mut scheduled = 0;
        let mut t = SimTime::from_secs(60);
        while sched.has_deferred() {
            fx.tables.available.correct(NodeId(0), t);
            let mut ctx = fx.ctx(t);
            let out = sched.schedule(&mut ctx, vec![]);
            assert!(!out.is_empty(), "idle node must make batch progress");
            scheduled += out.len();
            t += SimDuration::from_secs(10);
        }
        assert_eq!(scheduled, 4);
    }

    #[test]
    fn cached_batch_flows_even_after_recent_interactive() {
        let mut fx = Fixture::standard(1, 1);
        let mut sched = ours();
        // Interactive job caches all 4 chunks of dataset 0 on the node.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![ij]);
        }
        fx.tables
            .available
            .correct(NodeId(0), SimTime::from_millis(50));
        // A batch job over the same (cached) dataset: no disk I/O needed,
        // so the ε test does not apply (lines 16–22) and it schedules now.
        let bj = fx.batch_job(0, 0, SimTime::from_millis(50));
        let mut ctx = fx.ctx(SimTime::from_millis(50));
        let out = sched.schedule(&mut ctx, vec![bj]);
        assert_eq!(out.len(), 4, "cached batch tasks must not be blocked by ε");
    }

    #[test]
    fn ablation_defer_off_schedules_batch_immediately() {
        let mut fx = Fixture::standard(2, 2);
        let batch = fx.batch_job(1, 0, SimTime::ZERO);
        let mut sched = OursScheduler::new(OursParams {
            defer_batch: false,
            ..OursParams::default()
        });
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![batch]);
        assert_eq!(out.len(), 4);
        assert!(!sched.has_deferred());
    }

    #[test]
    fn noncached_batch_prefers_fewest_replicas() {
        // Chunks with zero replicas sort before chunks that already have
        // copies, so fresh data gets loaded while replicated data waits for
        // the cached path.
        let mut fx = Fixture::standard(2, 2);
        let mut sched = ours();
        // Cache dataset 0's chunks on node 0 via an interactive job.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![ij]);
        }
        fx.tables
            .available
            .correct(NodeId(0), SimTime::from_secs(60));
        fx.tables
            .available
            .correct(NodeId(1), SimTime::from_secs(60));
        // Batch jobs over both datasets queued while idle; dataset 1 (zero
        // replicas) should be first in the non-cached order on node 1.
        let b0 = fx.batch_job(0, 0, SimTime::from_secs(60));
        let b1 = fx.batch_job(1, 1, SimTime::from_secs(60));
        let mut ctx = fx.ctx(SimTime::from_secs(60));
        let out = sched.schedule(&mut ctx, vec![b0, b1]);
        assert!(!out.is_empty());
        let first_noncached = out
            .iter()
            .find(|a| a.task.chunk.dataset.index() == 1)
            .expect("dataset 1 tasks scheduled");
        // All dataset-1 placements happened through the non-cached path.
        assert!(first_noncached.predicted_exec > fx.cost.alpha(first_noncached.task.bytes, 2));
    }

    /// Regression test for the reused cycle scratch: state from one
    /// cycle must never leak into the next. A busy cycle fills every
    /// scratch buffer (interactive groups, batch order, node list); the
    /// following cycles must neither re-emit old tasks nor deviate from a
    /// scratch-free scheduler fed the same sequence.
    #[test]
    fn scratch_reuse_does_not_leak_between_cycles() {
        let mut fx_opt = Fixture::standard(4, 4);
        let mut fx_ref = Fixture::standard(4, 4);
        let mut opt = ours();
        let mut reference =
            crate::sched::reference::ReferenceOursScheduler::new(OursParams::default());

        // Cycle 1: a busy mixed cycle fills all scratch buffers.
        let t0 = SimTime::ZERO;
        let jobs1 = |fx: &mut Fixture| {
            vec![
                fx.interactive_job(0, 0, t0),
                fx.interactive_job(1, 1, t0),
                fx.batch_job(2, 0, t0),
                fx.batch_job(3, 1, t0),
            ]
        };
        let j1_opt = jobs1(&mut fx_opt);
        let j1_ref = jobs1(&mut fx_ref);
        let out1 = opt.schedule(&mut fx_opt.ctx(t0), j1_opt);
        let ref1 = reference.schedule(&mut fx_ref.ctx(t0), j1_ref);
        assert_eq!(out1, ref1);

        // Cycle 2: empty intake. Nothing from cycle 1's interactive
        // buffers may reappear; only genuinely deferred batch work flows.
        let t1 = t0 + SimDuration::from_millis(30);
        let out2 = opt.schedule(&mut fx_opt.ctx(t1), vec![]);
        let ref2 = reference.schedule(&mut fx_ref.ctx(t1), vec![]);
        assert_eq!(out2, ref2);
        assert!(out2.iter().all(|a| !a.task.interactive));

        // Cycle 3: a smaller cycle after nodes freed up — the larger
        // cycle-1 buffer contents must not pad it.
        let t2 = SimTime::from_secs(120);
        for k in 0..4 {
            fx_opt.tables.available.correct(NodeId(k), t2);
            fx_ref.tables.available.correct(NodeId(k), t2);
        }
        let j3_opt = vec![fx_opt.interactive_job(0, 9, t2)];
        let j3_ref = vec![fx_ref.interactive_job(0, 9, t2)];
        let out3 = opt.schedule(&mut fx_opt.ctx(t2), j3_opt);
        let ref3 = reference.schedule(&mut fx_ref.ctx(t2), j3_ref);
        assert_eq!(out3, ref3);
        assert_eq!(opt.has_deferred(), reference.has_deferred());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycle_rejected() {
        OursScheduler::new(OursParams {
            cycle: SimDuration::ZERO,
            ..OursParams::default()
        });
    }

    /// Escalation promotes aged deferred batch work into the interactive
    /// pass: it schedules on the next cycle even though the ε gate would
    /// still block it.
    #[test]
    fn escalation_bypasses_epsilon_gate() {
        let mut fx = Fixture::standard(1, 2);
        let mut sched = ours();
        // Interactive work stamps the node's interactive clock, so the ε
        // test keeps rejecting the (uncached) batch dataset.
        let ij = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![ij]);
        }
        fx.tables
            .available
            .correct(NodeId(0), SimTime::from_millis(60));
        let bj = fx.batch_job(1, 0, SimTime::from_millis(60));
        {
            let mut ctx = fx.ctx(SimTime::from_millis(60));
            let out = sched.schedule(&mut ctx, vec![bj]);
            assert!(out.is_empty(), "ε gate must defer the cold batch job");
        }
        assert_eq!(sched.pending_batch_tasks(), 4);
        // 200 ms later the tasks' deferral age crosses a 100 ms bound.
        let t = SimTime::from_millis(260);
        let escalated = sched.escalate_deferred(t, SimDuration::from_millis(100));
        // The fixture assigns sequential job ids: interactive was 1, the
        // batch job 2. All four tasks escalate as one job entry.
        assert_eq!(escalated, vec![(JobId(2), SimDuration::from_millis(200))]);
        assert_eq!(sched.pending_batch_tasks(), 0);
        assert!(sched.has_deferred(), "escalated tasks await the next cycle");
        // The next cycle schedules every escalated task despite the ε gate
        // (the node's interactive clock is still recent).
        fx.tables.available.correct(NodeId(0), t);
        let mut ctx = fx.ctx(t);
        let out = sched.schedule(&mut ctx, vec![]);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|a| !a.task.interactive));
        assert!(!sched.has_deferred());
    }

    /// Young deferred tasks stay put: escalation with a bound larger than
    /// any deferral age is a no-op.
    #[test]
    fn escalation_ignores_young_tasks() {
        let mut fx = Fixture::standard(2, 2);
        let mut sched = ours();
        let interactive: Vec<_> = (0..2)
            .map(|d| fx.interactive_job(d, d as u64, SimTime::ZERO))
            .collect();
        let batch = fx.batch_job(1, 0, SimTime::ZERO);
        let mut jobs = interactive;
        jobs.push(batch);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, jobs);
        }
        assert_eq!(sched.pending_batch_tasks(), 4);
        let escalated =
            sched.escalate_deferred(SimTime::from_millis(30), SimDuration::from_secs(5));
        assert!(escalated.is_empty());
        assert_eq!(sched.pending_batch_tasks(), 4);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::sched::testutil::Fixture;
    use crate::time::SimTime;

    /// Non-cached interactive chunks are placed longest-estimated-I/O first
    /// (LPT): with a shorter estimate recorded for one chunk, the other
    /// chunk must be committed first.
    #[test]
    fn noncached_interactive_sorted_longest_io_first() {
        let mut fx = Fixture::standard(2, 1);
        // Chunk 1 measured much faster than the model's default estimate.
        fx.tables.estimate.record(
            crate::ids::ChunkId::new(crate::ids::DatasetId(0), 1),
            SimDuration::from_millis(100),
        );
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let mut sched = OursScheduler::new(OursParams::default());
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![job]);
        let order: Vec<u32> = out.iter().map(|a| a.task.chunk.index).collect();
        let pos_fast = order.iter().position(|&c| c == 1).unwrap();
        // Chunks 0, 2, 3 keep the default (long) estimate; chunk 1 must
        // come after all of them.
        assert_eq!(pos_fast, 3, "shortest-I/O chunk scheduled last: {order:?}");
    }

    /// The cached-batch fill respects the λ boundary: a node never receives
    /// cached batch work once its predicted availability crosses the next
    /// scheduling time.
    #[test]
    fn cached_batch_fill_respects_lambda() {
        let mut fx = Fixture::standard(1, 1);
        let mut sched = OursScheduler::new(OursParams::default());
        // Cache the dataset via an interactive job, then free the node.
        let warm = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![warm]);
        }
        let now = SimTime::from_secs(100);
        fx.tables.available.correct(NodeId(0), now);
        // Queue far more cached batch work than one cycle can hold.
        let jobs: Vec<_> = (0..100).map(|i| fx.batch_job(0, i, now)).collect();
        let mut ctx = fx.ctx(now);
        let out = sched.schedule(&mut ctx, jobs);
        let lambda = now + OursParams::default().cycle;
        // Every emitted start is before λ…
        assert!(out.iter().all(|a| a.predicted_start < lambda));
        // …and the bulk of the work is still deferred.
        assert!(sched.has_deferred());
        let expected_fit =
            OursParams::default().cycle.as_micros() / fx.cost.alpha(512 << 20, 1).as_micros() + 1;
        assert!(
            (out.len() as u64) <= expected_fit,
            "{} tasks exceed one cycle's capacity {expected_fit}",
            out.len()
        );
    }
}
