//! Shortest-First (SF).
//!
//! "Sorts the jobs within a certain batch window based on the estimated
//! execution time and schedules the jobs using the greedy strategy"
//! (§VI-B). The window is one scheduling cycle: all jobs that arrived
//! during the cycle are ordered by their predicted execution time
//! (cache-aware estimate summed over tasks) and placed shortest-first onto
//! the least-available nodes. Like FCFS and FS it ignores locality when
//! *placing* tasks, so its hit rate — and therefore its frame rate —
//! collapses under multi-user load.

use super::{Assignment, ScheduleCtx, Scheduler, Trigger};
use crate::job::Job;
use crate::time::SimDuration;

/// The SF baseline.
#[derive(Debug)]
pub struct SfScheduler {
    cycle: SimDuration,
}

impl SfScheduler {
    /// SF with the given batch-window length.
    pub fn new(cycle: SimDuration) -> Self {
        assert!(!cycle.is_zero(), "scheduling cycle must be positive");
        SfScheduler { cycle }
    }

    /// Cache-aware estimate of a job's total execution demand: the sort key.
    fn estimate_job(&self, ctx: &ScheduleCtx<'_>, job: &Job) -> SimDuration {
        let group = ctx.group_size(job.dataset);
        ctx.catalog
            .chunks_of(job.dataset)
            .iter()
            .map(|chunk| {
                let io = if ctx.tables.cache.is_cached_anywhere(chunk.id) {
                    SimDuration::ZERO
                } else {
                    ctx.tables.estimate.get(chunk.id, chunk.bytes, ctx.cost)
                };
                io + ctx
                    .tables
                    .estimate
                    .render(chunk.id, chunk.bytes, group, ctx.cost)
            })
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl Scheduler for SfScheduler {
    fn name(&self) -> &'static str {
        "SF"
    }

    fn trigger(&self) -> Trigger {
        Trigger::Cycle(self.cycle)
    }

    fn schedule(&mut self, ctx: &mut ScheduleCtx<'_>, incoming: Vec<Job>) -> Vec<Assignment> {
        // Shortest estimated execution first; job id breaks ties so the
        // order is total and deterministic.
        let mut keyed: Vec<(SimDuration, Job)> = incoming
            .into_iter()
            .map(|j| (self.estimate_job(ctx, &j), j))
            .collect();
        keyed.sort_by_key(|a| (a.0, a.1.id));

        let mut out = Vec::new();
        for (_, job) in keyed {
            let group = ctx.group_size(job.dataset);
            for task in job.decompose(ctx.catalog) {
                let node = ctx.earliest_node();
                out.push(ctx.commit_blind(task, node, group));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sched::testutil::{assert_complete_assignment, Fixture};
    use crate::time::SimTime;

    #[test]
    fn schedules_every_task() {
        let mut fx = Fixture::standard(4, 3);
        let jobs = vec![
            fx.interactive_job(0, 0, SimTime::ZERO),
            fx.interactive_job(1, 1, SimTime::ZERO),
            fx.batch_job(2, 0, SimTime::ZERO),
        ];
        let mut sched = SfScheduler::new(SimDuration::from_millis(30));
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, jobs.clone());
        assert_complete_assignment(&jobs, &fx.catalog, &out);
    }

    #[test]
    fn shorter_jobs_start_first() {
        let mut fx = Fixture::standard(2, 2);
        // Pre-cache dataset 1 everywhere so jobs over it estimate "short".
        let warm = fx.interactive_job(1, 0, SimTime::ZERO);
        let warm_tasks = warm.decompose(&fx.catalog);
        {
            let mut ctx = fx.ctx(SimTime::ZERO);
            for (i, task) in warm_tasks.into_iter().enumerate() {
                ctx.commit(task, crate::ids::NodeId((i % 2) as u32), 2);
            }
            for k in 0..2 {
                ctx.tables
                    .available
                    .correct(crate::ids::NodeId(k), SimTime::ZERO);
            }
        }
        // A long (cold, dataset 0) job arrives before a short (warm,
        // dataset 1) one; SF must emit the short job's tasks first.
        let long = fx.interactive_job(0, 1, SimTime::ZERO);
        let short = fx.interactive_job(1, 2, SimTime::ZERO);
        let (long_id, short_id) = (long.id, short.id);
        let mut sched = SfScheduler::new(SimDuration::from_millis(30));
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![long, short]);
        let first_long = out.iter().position(|a| a.task.job == long_id).unwrap();
        let last_short = out.iter().rposition(|a| a.task.job == short_id).unwrap();
        assert!(
            last_short < first_long,
            "short job must be fully scheduled first"
        );
    }

    #[test]
    fn ties_break_by_job_id() {
        let mut fx = Fixture::standard(2, 1);
        let a = fx.interactive_job(0, 0, SimTime::ZERO);
        let b = fx.interactive_job(0, 1, SimTime::ZERO);
        let (ida, idb) = (a.id, b.id);
        assert!(ida < idb);
        let mut sched = SfScheduler::new(SimDuration::from_millis(30));
        let mut ctx = fx.ctx(SimTime::ZERO);
        let out = sched.schedule(&mut ctx, vec![b, a]);
        assert_eq!(out.first().unwrap().task.job, ida);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycle_rejected() {
        SfScheduler::new(SimDuration::ZERO);
    }
}
