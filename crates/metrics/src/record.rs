//! Raw per-run result records produced by an execution substrate (the
//! discrete-event simulator or the live service) and consumed by the
//! report aggregators.

use vizsched_core::cost::JobTiming;
use vizsched_core::ids::{DatasetId, JobId};
use vizsched_core::job::JobKind;
use vizsched_core::time::SimTime;

/// Everything recorded about one completed (or still-open) job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Interactive or batch, and its provenance.
    pub kind: JobKind,
    /// Dataset rendered.
    pub dataset: DatasetId,
    /// Issue/start/finish times (Definitions 2–3).
    pub timing: JobTiming,
    /// Total tasks the job decomposed into.
    pub tasks: u32,
    /// Tasks that had to fetch their chunk from disk.
    pub misses: u32,
}

impl JobRecord {
    /// True once every task has finished.
    pub fn is_complete(&self) -> bool {
        self.timing.finish.is_some()
    }
}

/// The complete outcome of one run of one scheduler over one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Scheduler display name ("OURS", "FCFSL", …).
    pub scheduler: String,
    /// Workload/scenario label.
    pub scenario: String,
    /// One record per job, in issue order.
    pub jobs: Vec<JobRecord>,
    /// Tasks served from a warm main-memory cache.
    pub cache_hits: u64,
    /// Tasks that performed disk I/O.
    pub cache_misses: u64,
    /// Tasks whose chunk was already GPU-resident (zero unless the
    /// two-tier extension is enabled); a subset of `cache_hits`.
    pub gpu_hits: u64,
    /// Chunk evictions across all nodes.
    pub evictions: u64,
    /// Wall-clock time spent inside `Scheduler::schedule`, microseconds
    /// (this is *host* time — the basis of Table III's "avg. cost").
    pub sched_wall_micros: u64,
    /// Number of `schedule` invocations.
    pub sched_invocations: u64,
    /// Jobs passed through `schedule`.
    pub jobs_scheduled: u64,
    /// Virtual time at which the last task finished.
    pub makespan: SimTime,
}

impl RunRecord {
    /// Fraction of tasks served without disk I/O (Table III's "hit rate").
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Fraction of tasks needing no data movement at all (GPU-resident),
    /// for the two-tier extension.
    pub fn gpu_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.gpu_hits as f64 / total as f64
    }

    /// Average wall-clock scheduling cost per job in microseconds
    /// (Table III's "avg. cost").
    pub fn sched_cost_per_job_micros(&self) -> f64 {
        if self.jobs_scheduled == 0 {
            return 0.0;
        }
        self.sched_wall_micros as f64 / self.jobs_scheduled as f64
    }

    /// Records of interactive jobs.
    pub fn interactive_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.kind.is_interactive())
    }

    /// Records of batch jobs.
    pub fn batch_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| !j.kind.is_interactive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::ids::{ActionId, UserId};

    fn record(hits: u64, misses: u64) -> RunRecord {
        RunRecord {
            cache_hits: hits,
            cache_misses: misses,
            ..RunRecord::default()
        }
    }

    #[test]
    fn hit_rate_basic() {
        assert_eq!(record(99, 1).hit_rate(), 0.99);
        assert_eq!(record(0, 0).hit_rate(), 0.0);
        assert_eq!(record(5, 0).hit_rate(), 1.0);
    }

    #[test]
    fn sched_cost_per_job() {
        let mut r = record(0, 0);
        r.sched_wall_micros = 300;
        r.jobs_scheduled = 10;
        assert_eq!(r.sched_cost_per_job_micros(), 30.0);
        r.jobs_scheduled = 0;
        assert_eq!(r.sched_cost_per_job_micros(), 0.0);
    }

    #[test]
    fn job_partitions() {
        let mk = |id: u64, interactive: bool| JobRecord {
            id: JobId(id),
            kind: if interactive {
                JobKind::Interactive {
                    user: UserId(0),
                    action: ActionId(0),
                }
            } else {
                JobKind::Batch {
                    user: UserId(0),
                    request: vizsched_core::ids::BatchId(0),
                    frame: 0,
                }
            },
            dataset: DatasetId(0),
            timing: JobTiming::issued_at(SimTime::ZERO),
            tasks: 4,
            misses: 0,
        };
        let r = RunRecord {
            jobs: vec![mk(0, true), mk(1, false), mk(2, true)],
            ..RunRecord::default()
        };
        assert_eq!(r.interactive_jobs().count(), 2);
        assert_eq!(r.batch_jobs().count(), 1);
    }
}
