//! Aggregation of [`RunRecord`]s into the quantities the paper plots:
//! per-action interactive frame rate and latency (Figs. 4–7 top), batch
//! latency and working time (Figs. 5–7 bottom), data-reuse hit rate and
//! scheduling cost (Table III).

use crate::record::RunRecord;
use crate::stats::Summary;
use vizsched_core::cost::framerate;
use vizsched_core::fxhash::FxHashMap;
use vizsched_core::ids::ActionId;
use vizsched_core::time::SimTime;

/// Aggregated results for one scheduler on one scenario — one bar group in
/// the paper's figures.
#[derive(Clone, Debug)]
pub struct SchedulerReport {
    /// Scheduler display name.
    pub scheduler: String,
    /// Scenario label.
    pub scenario: String,
    /// Number of interactive jobs completed.
    pub interactive_jobs: usize,
    /// Number of batch jobs completed.
    pub batch_jobs: usize,
    /// Per-action frame rates (Definition 4), summarized across actions.
    pub fps: Summary,
    /// Interactive job latencies, seconds.
    pub interactive_latency: Summary,
    /// Batch job latencies, seconds.
    pub batch_latency: Summary,
    /// Batch working times (`JF − JS`), seconds.
    pub batch_working: Summary,
    /// Fraction of tasks served warm.
    pub hit_rate: f64,
    /// Mean wall-clock scheduling cost per job, microseconds.
    pub sched_cost_us: f64,
    /// Scheduler invocations.
    pub sched_invocations: u64,
    /// Virtual time of the last completion, seconds.
    pub makespan_secs: f64,
    /// Jain's fairness index over per-user delivered service time
    /// (1.0 = perfectly equal shares; 1/n = one user got everything).
    /// The quantity the FS/FSD policies optimize for.
    pub fairness: f64,
}

impl SchedulerReport {
    /// Aggregate one run.
    pub fn from_run(run: &RunRecord) -> SchedulerReport {
        // Group interactive finish times by action for Definition 4.
        let mut by_action: FxHashMap<ActionId, Vec<SimTime>> = FxHashMap::default();
        let mut interactive_latency = Vec::new();
        let mut interactive_jobs = 0usize;
        for job in run.interactive_jobs() {
            interactive_jobs += 1;
            if let (Some(action), Some(finish)) = (job.kind.action(), job.timing.finish) {
                by_action.entry(action).or_default().push(finish);
            }
            if let Some(lat) = job.timing.latency() {
                interactive_latency.push(lat.as_secs_f64());
            }
        }
        let mut fps_samples: Vec<f64> = by_action.values().filter_map(|f| framerate(f)).collect();
        fps_samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite fps"));

        let mut batch_latency = Vec::new();
        let mut batch_working = Vec::new();
        let mut batch_jobs = 0usize;
        for job in run.batch_jobs() {
            batch_jobs += 1;
            if let Some(lat) = job.timing.latency() {
                batch_latency.push(lat.as_secs_f64());
            }
            if let Some(work) = job.timing.execution() {
                batch_working.push(work.as_secs_f64());
            }
        }

        // Jain's index over the execution time delivered to each user.
        let mut per_user: FxHashMap<vizsched_core::ids::UserId, f64> = FxHashMap::default();
        for job in &run.jobs {
            if let Some(exec) = job.timing.execution() {
                *per_user.entry(job.kind.user()).or_insert(0.0) += exec.as_secs_f64();
            }
        }
        let fairness = jain_index(per_user.values().copied());

        SchedulerReport {
            scheduler: run.scheduler.clone(),
            scenario: run.scenario.clone(),
            interactive_jobs,
            batch_jobs,
            fps: Summary::of(&fps_samples),
            interactive_latency: Summary::of(&interactive_latency),
            batch_latency: Summary::of(&batch_latency),
            batch_working: Summary::of(&batch_working),
            hit_rate: run.hit_rate(),
            sched_cost_us: run.sched_cost_per_job_micros(),
            sched_invocations: run.sched_invocations,
            makespan_secs: run.makespan.as_secs_f64(),
            fairness,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative shares;
/// 1.0 for an empty or perfectly balanced sample.
pub fn jain_index(shares: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut n = 0usize;
    for x in shares {
        debug_assert!(x >= 0.0, "shares must be non-negative");
        sum += x;
        sum_sq += x * x;
        n += 1;
    }
    if n == 0 || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Render the Figs. 4–7 style comparison: one row per scheduler with
/// interactive fps/latency and batch latency/working time.
pub fn format_comparison(reports: &[SchedulerReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<7} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>12}\n",
        "sched",
        "fps(mean)",
        "int lat avg",
        "int lat p95",
        "bat lat avg",
        "bat work avg",
        "hit%",
        "cost us/job"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<7} {:>10.2} {:>11.3}s {:>11.3}s {:>11.3}s {:>11.3}s {:>8.2}% {:>12.2}\n",
            r.scheduler,
            r.fps.mean,
            r.interactive_latency.mean,
            r.interactive_latency.p95,
            r.batch_latency.mean,
            r.batch_working.mean,
            r.hit_rate * 100.0,
            r.sched_cost_us,
        ));
    }
    out
}

/// Serialize reports as CSV (one row per scheduler) for external plotting.
pub fn reports_to_csv(reports: &[SchedulerReport]) -> String {
    let mut out = String::from(
        "scenario,scheduler,interactive_jobs,batch_jobs,fps_mean,fps_p50,\
         int_latency_mean_s,int_latency_p95_s,batch_latency_mean_s,\
         batch_working_mean_s,hit_rate,gpu_unused,sched_cost_us,fairness,makespan_s\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6},{:.6},,{:.4},{:.4},{:.3}\n",
            r.scenario,
            r.scheduler,
            r.interactive_jobs,
            r.batch_jobs,
            r.fps.mean,
            r.fps.p50,
            r.interactive_latency.mean,
            r.interactive_latency.p95,
            r.batch_latency.mean,
            r.batch_working.mean,
            r.hit_rate,
            r.sched_cost_us,
            r.fairness,
            r.makespan_secs,
        ));
    }
    out
}

/// Render the Table III block for one scenario: hit rates and average
/// scheduling costs of FS / FCFSU / FCFSL / OURS.
pub fn format_table3_block(scenario: &str, reports: &[SchedulerReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!("scenario {scenario}\n"));
    out.push_str(&format!("  {:<16}", "metric"));
    for r in reports {
        out.push_str(&format!("{:>10}", r.scheduler));
    }
    out.push('\n');
    out.push_str(&format!("  {:<16}", "hit rate"));
    for r in reports {
        out.push_str(&format!("{:>9.2}%", r.hit_rate * 100.0));
    }
    out.push('\n');
    out.push_str(&format!("  {:<16}", "avg. cost (us)"));
    for r in reports {
        out.push_str(&format!("{:>10.1}", r.sched_cost_us));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JobRecord;
    use vizsched_core::cost::JobTiming;
    use vizsched_core::ids::{ActionId, BatchId, DatasetId, JobId, UserId};
    use vizsched_core::job::JobKind;
    use vizsched_core::time::SimTime;

    fn interactive(id: u64, action: u64, issue_ms: u64, finish_ms: u64) -> JobRecord {
        let mut timing = JobTiming::issued_at(SimTime::from_millis(issue_ms));
        timing.record_start(SimTime::from_millis(issue_ms));
        timing.record_finish(SimTime::from_millis(finish_ms));
        JobRecord {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(action),
            },
            dataset: DatasetId(0),
            timing,
            tasks: 4,
            misses: 0,
        }
    }

    fn batch(id: u64, issue_ms: u64, start_ms: u64, finish_ms: u64) -> JobRecord {
        let mut timing = JobTiming::issued_at(SimTime::from_millis(issue_ms));
        timing.record_start(SimTime::from_millis(start_ms));
        timing.record_finish(SimTime::from_millis(finish_ms));
        JobRecord {
            id: JobId(id),
            kind: JobKind::Batch {
                user: UserId(1),
                request: BatchId(0),
                frame: 0,
            },
            dataset: DatasetId(0),
            timing,
            tasks: 4,
            misses: 1,
        }
    }

    fn sample_run() -> RunRecord {
        RunRecord {
            scheduler: "OURS".into(),
            scenario: "test".into(),
            jobs: vec![
                interactive(0, 0, 0, 10),
                interactive(1, 0, 30, 40),
                interactive(2, 0, 60, 70),
                batch(3, 0, 100, 400),
            ],
            cache_hits: 15,
            cache_misses: 1,
            gpu_hits: 0,
            evictions: 0,
            sched_wall_micros: 120,
            sched_invocations: 4,
            jobs_scheduled: 4,
            makespan: SimTime::from_millis(400),
        }
    }

    #[test]
    fn report_computes_definition4_fps() {
        let report = SchedulerReport::from_run(&sample_run());
        // Finishes at 10, 40, 70 ms -> gaps of 30 ms -> 33.33 fps.
        assert_eq!(report.fps.count, 1);
        assert!(
            (report.fps.mean - 33.333).abs() < 0.01,
            "fps = {}",
            report.fps.mean
        );
        assert_eq!(report.interactive_jobs, 3);
        assert_eq!(report.batch_jobs, 1);
    }

    #[test]
    fn report_computes_latencies() {
        let report = SchedulerReport::from_run(&sample_run());
        assert!((report.interactive_latency.mean - 0.010).abs() < 1e-9);
        assert!((report.batch_latency.mean - 0.400).abs() < 1e-9);
        assert!((report.batch_working.mean - 0.300).abs() < 1e-9);
    }

    #[test]
    fn report_carries_hit_rate_and_cost() {
        let report = SchedulerReport::from_run(&sample_run());
        assert!((report.hit_rate - 15.0 / 16.0).abs() < 1e-12);
        assert!((report.sched_cost_us - 30.0).abs() < 1e-12);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(std::iter::empty()), 1.0);
        assert!((jain_index([5.0, 5.0, 5.0].into_iter()) - 1.0).abs() < 1e-12);
        // One user hogging everything over n users -> 1/n.
        assert!((jain_index([9.0, 0.0, 0.0].into_iter()) - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_index([4.0, 1.0].into_iter());
        assert!(mid > 0.5 && mid < 1.0, "partial imbalance: {mid}");
    }

    #[test]
    fn report_computes_fairness() {
        let report = SchedulerReport::from_run(&sample_run());
        // All interactive jobs belong to user 0 and the batch job to user
        // 1; shares are unequal but both positive.
        assert!(
            report.fairness > 0.5 && report.fairness <= 1.0,
            "{}",
            report.fairness
        );
    }

    #[test]
    fn csv_has_one_row_per_report_plus_header() {
        let report = SchedulerReport::from_run(&sample_run());
        let csv = reports_to_csv(&[report.clone(), report]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("test,OURS,3,1,"));
    }

    #[test]
    fn csv_header_names_are_bare_and_match_the_row() {
        let csv = reports_to_csv(&[SchedulerReport::from_run(&sample_run())]);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        for name in &header {
            assert_eq!(*name, name.trim(), "column name with whitespace");
        }
        assert_eq!(header.len(), row.len());
        assert_eq!(
            header,
            [
                "scenario",
                "scheduler",
                "interactive_jobs",
                "batch_jobs",
                "fps_mean",
                "fps_p50",
                "int_latency_mean_s",
                "int_latency_p95_s",
                "batch_latency_mean_s",
                "batch_working_mean_s",
                "hit_rate",
                "gpu_unused",
                "sched_cost_us",
                "fairness",
                "makespan_s",
            ]
        );
    }

    #[test]
    fn tables_render_without_panicking() {
        let report = SchedulerReport::from_run(&sample_run());
        let cmp = format_comparison(std::slice::from_ref(&report));
        assert!(cmp.contains("OURS"));
        let t3 = format_table3_block("1", &[report]);
        assert!(t3.contains("hit rate"));
        assert!(t3.contains("93.75%"));
    }
}
