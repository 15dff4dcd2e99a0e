//! Fair-Sharing with *delay scheduling* (FSD) — an extension baseline.
//!
//! The paper's FS baseline comes from Hadoop's fair scheduler, and cites
//! Zaharia et al.'s *delay scheduling* \[26\] ("a simple technique for
//! achieving locality and fairness in cluster scheduling"). FSD applies
//! that technique here: jobs are still granted in least-served-user order,
//! but a job whose data is cached *somewhere* may wait up to
//! `max_delays` scheduling cycles for a node holding its chunks to become
//! available, instead of being placed blindly. Past the delay budget it is
//! scheduled like plain FS.
//!
//! This quantifies how much of OURS' advantage a generic
//! fairness-preserving locality heuristic can recover — and how much the
//! visualization-specific heuristics (chunk grouping, batch deferral, `ε`)
//! add on top.

use super::{Assignment, ScheduleCtx, Scheduler, Trigger};
use crate::fxhash::FxHashMap;
use crate::ids::UserId;
use crate::job::Job;
use crate::time::SimDuration;
use std::collections::VecDeque;

/// The FSD extension baseline.
#[derive(Debug)]
pub struct FsdScheduler {
    cycle: SimDuration,
    /// How many cycles a job may wait for locality before falling back to
    /// blind placement (Zaharia et al. use a small constant wait).
    max_delays: u32,
    served: FxHashMap<UserId, SimDuration>,
    /// Jobs waiting for a local slot, with their accumulated delay count.
    waiting: VecDeque<(Job, u32)>,
}

impl FsdScheduler {
    /// FSD with the given cycle and delay budget.
    pub fn new(cycle: SimDuration, max_delays: u32) -> Self {
        assert!(!cycle.is_zero(), "scheduling cycle must be positive");
        FsdScheduler {
            cycle,
            max_delays,
            served: FxHashMap::default(),
            waiting: VecDeque::new(),
        }
    }

    fn served_of(&self, user: UserId) -> SimDuration {
        self.served.get(&user).copied().unwrap_or(SimDuration::ZERO)
    }

    fn place(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        job: Job,
        local: bool,
        out: &mut Vec<Assignment>,
    ) {
        let user = job.kind.user();
        let group = ctx.group_size(job.dataset);
        let mut charged = SimDuration::ZERO;
        for task in job.decompose(ctx.catalog) {
            let node = if local {
                ctx.earliest_node_with_locality(task.chunk, task.bytes)
            } else {
                ctx.earliest_node()
            };
            let a = if local {
                ctx.commit(task, node, group)
            } else {
                ctx.commit_blind(task, node, group)
            };
            charged += a.predicted_exec;
            out.push(a);
        }
        *self.served.entry(user).or_insert(SimDuration::ZERO) += charged;
    }
}

impl Scheduler for FsdScheduler {
    fn name(&self) -> &'static str {
        "FSD"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.cycle)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        // Merge the waiting jobs with the new arrivals, then grant in
        // least-served-user order (fairness first, as in FS).
        let mut queue: Vec<(Job, u32)> = self.waiting.drain(..).collect();
        queue.extend(incoming.into_iter().map(|j| (j, 0)));
        queue.sort_by(|a, b| {
            (self.served_of(a.0.kind.user()), a.0.id)
                .cmp(&(self.served_of(b.0.kind.user()), b.0.id))
        });

        let mut out = Vec::new();
        for (job, delays) in queue {
            let cached_anywhere = ctx
                .catalog
                .chunks_of(job.dataset)
                .iter()
                .all(|c| ctx.tables.cache.is_cached_anywhere(c.id));
            // Locally placeable: every chunk is cached on a node whose
            // backlog is under one cycle — a local slot is actually free,
            // the delay-scheduling condition.
            if ctx
                .tables
                .warm_and_free_by(ctx.catalog, job.dataset, ctx.now + self.cycle)
            {
                self.place(ctx, job, true, &mut out);
            } else if cached_anywhere && delays < self.max_delays {
                // Data exists somewhere but its nodes are busy: wait a
                // cycle rather than scatter the job (delay scheduling).
                self.waiting.push_back((job, delays + 1));
            } else {
                self.place(ctx, job, false, &mut out);
            }
        }
        out
    }

    fn has_deferred(&self) -> bool {
        !self.waiting.is_empty()
    }

    fn retract_deferred(&mut self) {
        self.waiting.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::sched::testutil::Fixture;
    use crate::time::SimTime;

    fn fsd() -> FsdScheduler {
        FsdScheduler::new(SimDuration::from_millis(30), 3)
    }

    #[test]
    fn uncached_jobs_schedule_immediately() {
        let mut fx = Fixture::standard(4, 2);
        let job = fx.interactive_job(0, 0, SimTime::ZERO);
        let mut sched = fsd();
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![job]);
        assert_eq!(out.len(), 4, "nothing cached anywhere: no point delaying");
        assert!(!sched.has_deferred());
    }

    #[test]
    fn busy_local_nodes_cause_a_delay() {
        let mut fx = Fixture::standard(2, 1);
        let mut sched = fsd();
        // First job caches dataset 0 across both nodes...
        let j0 = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![j0]);
        }
        // ...and their availability is far in the future (cold loads).
        // A second job over the same dataset should now *wait* for the
        // cached nodes instead of being placed blindly.
        let j1 = fx.interactive_job(0, 1, SimTime::from_millis(30));
        let id1 = j1.id;
        {
            let mut ctx = fx.ctx(SimTime::from_millis(30));
            let out = sched.schedule(&mut ctx, vec![j1]);
            assert!(out.is_empty(), "job must wait for a local slot");
            assert!(sched.has_deferred());
        }
        // Once the nodes free up, the waiting job lands on them.
        fx.tables
            .available
            .correct(NodeId(0), SimTime::from_secs(10));
        fx.tables
            .available
            .correct(NodeId(1), SimTime::from_secs(10));
        let mut ctx = fx.ctx(SimTime::from_secs(10));
        let out = sched.schedule(&mut ctx, vec![]);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|a| a.task.job == id1));
        // Locality honoured: no task predicted to pay I/O.
        let alpha = fx.cost.alpha(512 << 20, 2);
        assert!(out.iter().all(|a| a.predicted_exec == alpha));
    }

    #[test]
    fn delay_budget_expires_into_blind_placement() {
        let mut fx = Fixture::standard(2, 1);
        let mut sched = FsdScheduler::new(SimDuration::from_millis(30), 2);
        let j0 = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![j0]);
        }
        // Nodes stay busy forever; after max_delays cycles the job gives up
        // on locality and is placed anyway.
        let j1 = fx.interactive_job(0, 1, SimTime::from_millis(30));
        let mut cycles = 0;
        let mut placed = 0;
        let mut jobs = vec![j1];
        while placed == 0 {
            cycles += 1;
            assert!(cycles < 10, "job never placed");
            let now = SimTime::from_millis(30 * cycles);
            let mut ctx = fx.ctx(now);
            placed = sched.schedule(&mut ctx, std::mem::take(&mut jobs)).len();
        }
        assert_eq!(placed, 4);
        assert_eq!(
            cycles, 3,
            "submit cycle + one more delay, then the budget expires"
        );
    }

    #[test]
    fn fairness_order_respected_among_waiting_jobs() {
        let mut fx = Fixture::standard(4, 2);
        let mut sched = fsd();
        // User 0 gets served first; then users 0 and 1 compete — user 1
        // (less served) must be granted first.
        let j0 = fx.interactive_job(0, 0, SimTime::ZERO);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            sched.schedule(&mut ctx, vec![j0]);
        }
        let a = fx.interactive_job(1, 0, SimTime::from_millis(30));
        let b = fx.interactive_job(1, 1, SimTime::from_millis(30));
        let (_ida, idb) = (a.id, b.id);
        let mut ctx = fx.ctx(SimTime::from_millis(30));
        let out = sched.schedule(&mut ctx, vec![a, b]);
        let first = out
            .first()
            .expect("dataset 1 is uncached: immediate placement");
        assert_eq!(first.task.job, idb, "least-served user first");
    }
}
