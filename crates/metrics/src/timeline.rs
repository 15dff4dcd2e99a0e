//! Time-bucketed series over a run: how frame rate and latency evolve
//! over the experiment (the time axis behind Figs. 4–7's per-scenario
//! summaries, and handy for spotting warm-up transients or batch-induced
//! stalls).

use crate::record::RunRecord;
use vizsched_core::time::{SimDuration, SimTime};

/// One bucket of the series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimelinePoint {
    /// Bucket start time, seconds.
    pub t_secs: f64,
    /// Interactive jobs completed in this bucket.
    pub interactive_completed: u64,
    /// Batch jobs completed in this bucket.
    pub batch_completed: u64,
    /// Aggregate interactive completion rate (jobs/s) in the bucket.
    pub interactive_rate: f64,
    /// Mean interactive latency of the jobs completing in this bucket,
    /// seconds (0 when none completed).
    pub mean_latency: f64,
}

/// A bucketed completion series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Bucket width.
    pub bucket: SimDuration,
    /// Buckets covering `[0, makespan]`.
    pub points: Vec<TimelinePoint>,
}

impl Timeline {
    /// Bucket a run's completions into `bucket`-sized windows.
    pub fn of(run: &RunRecord, bucket: SimDuration) -> Timeline {
        assert!(!bucket.is_zero(), "bucket must be positive");
        let horizon = run.makespan.max(SimTime::from_micros(1));
        let n = horizon.as_micros().div_ceil(bucket.as_micros()) as usize;
        let mut points = vec![TimelinePoint::default(); n];
        let mut latency_sums = vec![0.0f64; n];
        for (i, p) in points.iter_mut().enumerate() {
            p.t_secs = (bucket * i as u64).as_secs_f64();
        }
        for job in &run.jobs {
            let Some(finish) = job.timing.finish else {
                continue;
            };
            let idx = ((finish.as_micros().saturating_sub(1)) / bucket.as_micros()) as usize;
            let idx = idx.min(n - 1);
            if job.kind.is_interactive() {
                points[idx].interactive_completed += 1;
                if let Some(lat) = job.timing.latency() {
                    latency_sums[idx] += lat.as_secs_f64();
                }
            } else {
                points[idx].batch_completed += 1;
            }
        }
        let secs = bucket.as_secs_f64();
        for (p, lat) in points.iter_mut().zip(latency_sums) {
            p.interactive_rate = p.interactive_completed as f64 / secs;
            if p.interactive_completed > 0 {
                p.mean_latency = lat / p.interactive_completed as f64;
            }
        }
        Timeline { bucket, points }
    }

    /// Render as a small table (seconds, rate, latency).
    pub fn format(&self) -> String {
        let mut out = format!(
            "{:>8} {:>12} {:>12} {:>12}\n",
            "t", "int jobs/s", "batch done", "lat avg"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>7.1}s {:>12.1} {:>12} {:>11.3}s\n",
                p.t_secs, p.interactive_rate, p.batch_completed, p.mean_latency
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JobRecord;
    use vizsched_core::cost::JobTiming;
    use vizsched_core::ids::{ActionId, DatasetId, JobId, UserId};
    use vizsched_core::job::JobKind;

    fn job(id: u64, issue_ms: u64, finish_ms: u64) -> JobRecord {
        let mut timing = JobTiming::issued_at(SimTime::from_millis(issue_ms));
        timing.record_start(SimTime::from_millis(issue_ms));
        timing.record_finish(SimTime::from_millis(finish_ms));
        JobRecord {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(0),
            },
            dataset: DatasetId(0),
            timing,
            tasks: 1,
            misses: 0,
        }
    }

    fn run(jobs: Vec<JobRecord>) -> RunRecord {
        let makespan = jobs
            .iter()
            .filter_map(|j| j.timing.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        RunRecord {
            jobs,
            makespan,
            ..RunRecord::default()
        }
    }

    #[test]
    fn buckets_count_completions() {
        // Jobs finishing at 100, 900, 1100 ms with 1 s buckets.
        let r = run(vec![job(0, 0, 100), job(1, 800, 900), job(2, 1000, 1100)]);
        let tl = Timeline::of(&r, SimDuration::from_secs(1));
        assert_eq!(tl.points.len(), 2);
        assert_eq!(tl.points[0].interactive_completed, 2);
        assert_eq!(tl.points[1].interactive_completed, 1);
        assert!((tl.points[0].interactive_rate - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_boundary_goes_to_lower_bucket() {
        // A completion at exactly 1.000 s belongs to the first bucket
        // (buckets are (start, end] in effect).
        let r = run(vec![job(0, 0, 1000)]);
        let tl = Timeline::of(&r, SimDuration::from_secs(1));
        assert_eq!(tl.points.len(), 1);
        assert_eq!(tl.points[0].interactive_completed, 1);
    }

    #[test]
    fn latency_averages_within_bucket() {
        let r = run(vec![job(0, 0, 100), job(1, 0, 300)]);
        let tl = Timeline::of(&r, SimDuration::from_secs(1));
        assert!((tl.points[0].mean_latency - 0.2).abs() < 1e-9);
    }

    #[test]
    fn format_renders_rows() {
        let r = run(vec![job(0, 0, 100)]);
        let tl = Timeline::of(&r, SimDuration::from_millis(500));
        let text = tl.format();
        assert!(text.contains("int jobs/s"));
        assert_eq!(text.lines().count(), 2);
    }
}
