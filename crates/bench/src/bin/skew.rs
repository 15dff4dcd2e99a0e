//! Extension experiment: dataset-popularity skew. The paper's scenarios
//! draw datasets uniformly; real archives are Zipf-skewed — a handful of
//! datasets receive most of the exploration. Skew concentrates the hot
//! working set, which changes how much locality awareness is worth and how
//! contended the hot chunks' nodes become.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin skew [-- --length 20]
//! ```

use vizsched_bench::experiments::simulation_for;
use vizsched_bench::harness::Cli;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::RunOptions;
use vizsched_workload::{DatasetChoice, Scenario};

const GIB: u64 = 1 << 30;

fn main() {
    let length: u64 = Cli::parse(&["--length <secs>"]).number("--length", 20);

    println!(
        "== Dataset-popularity skew (Zipf) sweep: 8 nodes, 12 x 2 GiB datasets \
         (1.5x memory), 6 actions, {length} s ==\n"
    );
    println!(
        "{:>8} | {:>10} {:>9} | {:>10} {:>9} | {:>10} {:>9}",
        "zipf s", "OURS fps", "hit %", "FCFSL fps", "hit %", "FS fps", "hit %"
    );

    for s_exp in [0.0f64, 0.6, 1.0, 1.5] {
        let mut scenario = Scenario::sweep(
            &format!("skew-{s_exp}"),
            8,
            2 * GIB,
            12,
            2 * GIB,
            6,
            SimDuration::from_secs(length),
            2,
            2012,
        );
        scenario.cost = vizsched_core::cost::CostParams::eight_node_cluster();
        scenario.workload.dataset_choice = if s_exp == 0.0 {
            DatasetChoice::Uniform
        } else {
            DatasetChoice::Zipf { s: s_exp }
        };
        let sim = simulation_for(&scenario);
        let jobs = scenario.jobs();
        let mut cells = Vec::new();
        for kind in [SchedulerKind::Ours, SchedulerKind::Fcfsl, SchedulerKind::Fs] {
            let outcome = sim.run_opts(jobs.clone(), RunOptions::new(kind).label(&scenario.label));
            let r = SchedulerReport::from_run(&outcome.record);
            cells.push((r.fps.mean, r.hit_rate * 100.0));
        }
        println!(
            "{:>8.1} | {:>10.2} {:>8.2}% | {:>10.2} {:>8.2}% | {:>10.2} {:>8.2}%",
            s_exp, cells[0].0, cells[0].1, cells[1].0, cells[1].1, cells[2].0, cells[2].1
        );
    }
    println!(
        "\nExpected shape: the locality-aware schedulers (OURS, FCFSL) keep \
         their hit rate above 99.7 % at every s and their frame rate near the \
         target, which skew does not raise (both are fastest at s = 0); the \
         blind FS stays I/O-bound below 1 fps, its hit rate dipping at s = 0.6 \
         and rising with s only from s = 1.0."
    );
}
