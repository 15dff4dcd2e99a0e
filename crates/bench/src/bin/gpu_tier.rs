//! Extension experiment (§VII future work): model the main-memory ↔ video-
//! memory transfer explicitly and measure how much a GPU-residency-aware
//! refinement of Algorithm 1 saves.
//!
//! With the two-tier model on, every task that is not already GPU-resident
//! pays a PCIe upload (~170 ms for a 512 MB chunk at 3 GB/s) on top of any
//! disk I/O. The sweep varies the per-node video-memory quota and runs OURS
//! twice: on a head that plans on host residency alone (base, as
//! published), and with `SimConfig::gpu_aware`, whose head tables mirror
//! GPU residency, so the one locality cost (`ScheduleCtx::io_estimate`)
//! also charges the upload when picking nodes.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin gpu_tier [-- --length 20]
//! ```

use vizsched_bench::experiments::simulation_for;
use vizsched_bench::harness::Cli;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::{RunOptions, Simulation};
use vizsched_workload::Scenario;

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

fn main() {
    let length: u64 = Cli::parse(&["--length <secs>"]).number("--length", 20);

    // 8 nodes, 6 x 2 GiB datasets, 12 concurrent actions: hot chunks end up
    // replicated across several nodes' main memories, so *which* replica a
    // task lands on decides whether an upload is needed.
    let scenario = Scenario::sweep(
        "gpu-tier",
        8,
        2 * GIB,
        6,
        2 * GIB,
        12,
        SimDuration::from_secs(length),
        0,
        2012,
    );
    let jobs = scenario.jobs();

    println!(
        "== Two-tier memory extension: GPU quota sweep ({length} s, 12 actions, \
         512 MiB chunks, PCIe 3 GB/s) ==\n"
    );
    println!(
        "{:>10} {:>11} | {:>9} {:>12} {:>10} | {:>9} {:>12} {:>10}",
        "gpu quota",
        "chunks fit",
        "base fps",
        "base gpu-hit",
        "base lat",
        "aware fps",
        "aware gpu-hit",
        "aware lat"
    );

    for gpu_mib in [512u64, 1024, 1536, 2048] {
        let mut row = Vec::new();
        for gpu_aware in [false, true] {
            let mut config = simulation_for(&scenario).config().clone();
            config.gpu_quota = Some(gpu_mib * MIB);
            config.gpu_aware = gpu_aware;
            let sim = Simulation::new(config, scenario.datasets(), scenario.chunk_max);
            let outcome = sim.run_opts(
                jobs.clone(),
                RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
            );
            let report = SchedulerReport::from_run(&outcome.record);
            row.push((
                report.fps.mean,
                outcome.record.gpu_hit_rate(),
                report.interactive_latency.mean,
            ));
        }
        println!(
            "{:>6} MiB {:>11} | {:>9.2} {:>11.2}% {:>9.3}s | {:>9.2} {:>11.2}% {:>9.3}s",
            gpu_mib,
            gpu_mib / 512,
            row[0].0,
            row[0].1 * 100.0,
            row[0].2,
            row[1].0,
            row[1].1 * 100.0,
            row[1].2,
        );
    }
    println!(
        "\nExpected shape: once video memory holds fewer chunks than the node's \
         working set, the GPU-aware variant has lower latency than published \
         OURS, at a GPU-hit rate within a point of published OURS's."
    );
}
