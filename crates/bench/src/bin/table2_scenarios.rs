//! Regenerates Table II: the four scenario configurations and the job
//! counts the workload generator actually produces (compare with the
//! paper's sampled counts).
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin table2_scenarios
//! ```

use vizsched_bench::harness::Cli;
use vizsched_workload::Scenario;

fn main() {
    Cli::parse(&[]);
    println!("== Table II: experiment scenarios ==\n");
    println!(
        "{:<4} {:>7} {:>12} {:>10} {:>11} {:>8} {:>12} {:>14} {:>8}",
        "no.",
        "nodes",
        "total mem",
        "datasets",
        "total size",
        "length",
        "batch jobs",
        "interactive",
        "target"
    );
    let paper = [
        (1u8, 0u64, 12_006u64),
        (2, 2_251, 21_011),
        (3, 9_844, 160_633),
        (4, 35_176, 388_481),
    ];
    for &(n, paper_batch, paper_inter) in &paper {
        let s = Scenario::table2(n);
        let jobs = s.jobs();
        let interactive = jobs.iter().filter(|j| j.kind.is_interactive()).count() as u64;
        let batch = jobs.len() as u64 - interactive;
        println!(
            "{:<4} {:>7} {:>9} GB {:>10} {:>8} GB {:>8} {:>12} {:>14} {:>5.2} fps",
            n,
            s.cluster.len(),
            s.cluster.total_memory() >> 30,
            s.workload.dataset_count,
            (s.workload.dataset_count as u64 * s.dataset_bytes) >> 30,
            s.workload.length,
            batch,
            interactive,
            s.target_fps(),
        );
        println!(
            "{:<4} {:>62} {:>12} {:>14}   (paper)",
            "", "", paper_batch, paper_inter
        );
    }
    println!(
        "\nChk_max = 512 MB in every scenario; scenarios 1-2 use the 8-node \
         cluster cost profile, 3-4 the ANL GPU cluster profile."
    );
}
