//! Regenerates Fig. 8: scheduling cost versus the number of simultaneous
//! user actions, for OURS, FCFSL and FCFSU — by default on 32 nodes with
//! 16 datasets of 4 GB each, with `--nodes` sweeping the cluster size.
//!
//! The FCFS-family policies schedule once per job, so their per-job cost is
//! flat in the number of actions (and linear in cluster size); OURS
//! amortizes one cycle over every job that arrived in it, so its per-job
//! cost *falls* as actions multiply.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin fig8_actions [-- --length 20]
//! cargo run --release -p vizsched-bench --bin fig8_actions -- --nodes 256
//! cargo run --release -p vizsched-bench --bin fig8_actions -- --json fig8.json
//! ```
//!
//! `--json <path>` additionally writes the rows as a machine-readable
//! document (one object per point: actions, per-policy µs/job, OURS
//! µs/cycle) so plots and regression diffs don't scrape the table.

use vizsched_bench::experiments::simulation_for;
use vizsched_bench::harness::Cli;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_sim::RunOptions;
use vizsched_workload::Scenario;

const GIB: u64 = 1 << 30;

fn main() {
    let cli = Cli::parse(&["--length <secs>", "--nodes <n>", "--json <path>"]);
    let length: u64 = cli.number("--length", 20);
    let nodes: usize = cli.number("--nodes", 32);

    println!(
        "== Fig. 8: scheduling cost vs. simultaneous user actions ==\n\
         {nodes} nodes, 16 x 4 GB datasets, {length} s of arrivals per point\n"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14}   {:>14}",
        "actions", "OURS us/job", "FCFSL us/job", "FCFSU us/job", "OURS us/cycle"
    );

    let mut points = Vec::new();
    for actions in [8u32, 16, 32, 64, 96, 128] {
        let scenario = Scenario::sweep(
            &format!("fig8-{actions}"),
            nodes,
            8 * GIB,
            16,
            4 * GIB,
            actions,
            SimDuration::from_secs(length),
            0,
            2012,
        );
        let sim = simulation_for(&scenario);
        let jobs = scenario.jobs();
        let mut row = Vec::new();
        let mut ours_per_cycle = 0.0;
        for kind in [
            SchedulerKind::Ours,
            SchedulerKind::Fcfsl,
            SchedulerKind::Fcfsu,
        ] {
            let outcome = sim.run_opts(jobs.clone(), RunOptions::new(kind).label(&scenario.label));
            row.push(outcome.record.sched_cost_per_job_micros());
            if kind == SchedulerKind::Ours {
                ours_per_cycle = outcome.record.sched_wall_micros as f64
                    / outcome.record.sched_invocations.max(1) as f64;
            }
        }
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>14.3}   {:>14.2}",
            actions, row[0], row[1], row[2], ours_per_cycle
        );
        points.push(obj([
            ("actions", Json::num(actions as f64)),
            ("ours_us_per_job", Json::num(row[0])),
            ("fcfsl_us_per_job", Json::num(row[1])),
            ("fcfsu_us_per_job", Json::num(row[2])),
            ("ours_us_per_cycle", Json::num(ours_per_cycle)),
        ]));
    }
    println!(
        "\nExpected shape: OURS per-job cost decreases as more actions share \
         each cycle; the per-arrival policies stay flat."
    );

    if let Some(path) = cli.json() {
        let doc = obj([
            ("schema", Json::Str("vizsched-bench/fig8_actions/v1".into())),
            (
                "config",
                obj([
                    ("nodes", Json::num(nodes as f64)),
                    ("datasets", Json::num(16.0)),
                    ("dataset_gib", Json::num(4.0)),
                    ("length_secs", Json::num(length as f64)),
                ]),
            ),
            ("points", Json::Arr(points)),
        ]);
        std::fs::write(path, doc.pretty()).expect("write json output");
        println!("(wrote {path})");
    }
}
