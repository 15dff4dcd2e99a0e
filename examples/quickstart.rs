//! Quickstart: schedule a small multi-user workload through the
//! discrete-event simulator with the paper's scheduler and print what
//! happened.
//!
//! ```text
//! cargo run --release -p vizsched-integration --example quickstart
//! ```

use vizsched_core::prelude::*;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::{RunOptions, SimConfig, Simulation};
use vizsched_workload::{
    ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, WorkloadSpec,
};

fn main() {
    // A 4-node cluster; each node can cache 2 GiB of chunks.
    let cluster = ClusterSpec::homogeneous(4, 2 << 30);

    // Three 2 GiB datasets, decomposed into 512 MiB chunks by the engine.
    let datasets = uniform_datasets(3, 2 << 30);

    // Two users dragging cameras at 33 fps for 10 seconds, plus a couple
    // of batch animations.
    let workload = WorkloadSpec {
        length: SimDuration::from_secs(10),
        interactive: InteractiveModel {
            slots: 2,
            period: SimDuration::from_millis(30),
            behavior: ActionBehavior::Sessions {
                mean_action: SimDuration::from_secs(3),
                mean_think: SimDuration::from_millis(500),
            },
        },
        batch: BatchModel {
            submissions: 2,
            frames_min: 20,
            frames_max: 40,
            window_frac: 0.5,
        },
        dataset_count: 3,
        dataset_choice: DatasetChoice::Uniform,
        seed: 42,
    };
    let jobs = workload.generate();
    println!("generated {} jobs", jobs.len());

    // Simulate under the paper's scheduler (OURS).
    let mut config = SimConfig::new(cluster, CostParams::eight_node_cluster());
    config.warm_start = true;
    let sim = Simulation::new(config, datasets, 512 << 20);
    let outcome = sim.run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours).label("quickstart"),
    );

    let report = SchedulerReport::from_run(&outcome.record);
    println!(
        "interactive jobs: {} at {:.2} fps (target 33.33), mean latency {:.1} ms",
        report.interactive_jobs,
        report.fps.mean,
        report.interactive_latency.mean * 1e3,
    );
    println!(
        "batch jobs: {} with mean latency {:.2} s",
        report.batch_jobs, report.batch_latency.mean
    );
    println!(
        "cache hit rate {:.2}% over {} tasks; scheduling cost {:.2} us/job",
        report.hit_rate * 100.0,
        outcome.record.cache_hits + outcome.record.cache_misses,
        report.sched_cost_us,
    );
    assert_eq!(outcome.incomplete_jobs, 0);
}
