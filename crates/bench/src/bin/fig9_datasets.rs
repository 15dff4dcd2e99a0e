//! Regenerates Fig. 9: scheduling cost, interactive frame rate, and
//! latency versus the number of datasets in use, on 16 nodes with 8 GB
//! datasets and mixed interactive + batch jobs.
//!
//! The cost of OURS grows with the number of distinct chunks in flight
//! (`O(p · m log m)` pre-processing), but the frame rate stays pinned near
//! the target and latency stays low even once total data (up to 1 TB)
//! far exceeds the cluster's 128 GB of memory.
//!
//! stdout is the virtual-clock table (fps, latency, hit rate), identical on
//! every run; the scheduling cost is wall-clock, so it follows as a second
//! table on stderr.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin fig9_datasets [-- --length 30]
//! ```

use vizsched_bench::experiments::simulation_for;
use vizsched_bench::harness::Cli;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::RunOptions;
use vizsched_workload::Scenario;

const GIB: u64 = 1 << 30;

fn main() {
    let length: u64 = Cli::parse(&["--length <secs>"]).number("--length", 30);

    println!(
        "== Fig. 9: frame rate / latency vs. datasets in use (scheduling cost: stderr) ==\n\
         16 nodes x 8 GB memory (128 GB total), 8 GB per dataset, 4 actions,\n\
         {length} s of arrivals per point, mixed interactive + batch\n"
    );
    println!(
        "{:>9} {:>11} {:>12} {:>13} {:>10}",
        "datasets", "total data", "OURS fps", "OURS lat avg", "hit %"
    );

    let mut costs = Vec::new();
    for datasets in [16u32, 32, 48, 64, 96, 128] {
        let scenario = Scenario::sweep(
            &format!("fig9-{datasets}"),
            16,
            8 * GIB,
            datasets,
            8 * GIB,
            4,
            SimDuration::from_secs(length),
            (length / 10).max(1) as u32,
            2012,
        );
        let sim = simulation_for(&scenario);
        let jobs = scenario.jobs();
        let outcome = sim.run_opts(
            jobs,
            RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
        );
        let report = SchedulerReport::from_run(&outcome.record);
        costs.push((datasets, report.sched_cost_us));
        println!(
            "{:>9} {:>8} GB {:>12.2} {:>12.3}s {:>9.2}%",
            datasets,
            datasets as u64 * 8,
            report.fps.mean,
            report.interactive_latency.mean,
            report.hit_rate * 100.0,
        );
    }
    println!(
        "\nExpected shape: fps stays near the 33.33 target and latency stays low \
         even past the 128 GB memory capacity; the scheduling cost rises with the chunk count."
    );
    eprintln!("\n== Fig. 9: OURS scheduling cost (wall clock) ==");
    eprintln!("{:>9} {:>16}", "datasets", "OURS cost us/job");
    for (datasets, cost) in costs {
        eprintln!("{datasets:>9} {cost:>16.3}");
    }
}
