//! Head-to-head race of the post-paper policy family against the paper's
//! schedulers, with a machine-readable baseline for CI regression gating.
//!
//! Runs the overload sweep's scenario (8 nodes, 8 datasets, burst overlay
//! over the middle half of the run) for every policy in the matrix —
//! OURS and FCFSL from the paper, FRAC / MOBJ / MOBJ-A from ROADMAP
//! item 2 — across {1, 4} shards and {1×, 2×, 4×} saturation, under the
//! same admission policy. Each cell reports the quality axes the policy
//! family is judged on: completed-interactive p99, batch completion,
//! the longest batch starvation gap, and the hottest-shard imbalance
//! (hottest shard's executed tasks over the mean shard's). The sim is
//! deterministic, so cells are exact — there is no sampling loop.
//!
//! The headline row is 4× saturation on 2 shards of 4 nodes: wide enough
//! that the placement scorer still has within-shard freedom. At 4 shards
//! of 2 nodes the executed-task ratio is a routing-tier property — a
//! policy that sheds *less* of the hot shard's load executes more tasks
//! there and loses the ratio for serving more work, so the 4-shard column
//! is reported but not gated (see EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin policy_matrix                 # print table
//! cargo run --release -p vizsched-bench --bin policy_matrix -- --json BENCH_policy.json
//! cargo run --release -p vizsched-bench --bin policy_matrix -- \
//!     --check BENCH_policy.json --json bench-policy-fresh.json              # CI gate
//! ```
//!
//! `--check <path>` reruns the matrix and compares the committed headline
//! gains — OURS's longest batch starvation gap and hottest-shard
//! imbalance over MOBJ's, both at 4× saturation on 2 shards, the PR 8
//! acceptance axes — against the fresh run: the run **fails** (exit 1)
//! if a fresh gain falls below 75 % of the committed one or below 1.0
//! (MOBJ no longer beating OURS at all). Gains are within-run ratios, so
//! the gate is robust to scenario-length tweaks. `--quick` shortens the
//! scenario to 12 s for local iteration; the committed baseline and the
//! CI check are full-length runs (deterministic, so the check reproduces
//! the committed cells exactly — the 12 s horizon is too short for the
//! imbalance axis to separate the policies).

use vizsched_bench::experiments::{
    cell_starvation_and_imbalance, overload_policy_for, overload_scenario, run_overload,
};
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};

const POLICIES: [SchedulerKind; 5] = [
    SchedulerKind::Ours,
    SchedulerKind::Fcfsl,
    SchedulerKind::Frac,
    SchedulerKind::Mobj,
    SchedulerKind::MobjAdaptive,
];
const SHARDS: [usize; 3] = [1, 2, 4];
const FACTORS: [u32; 3] = [1, 2, 4];
/// Fail `--check` when a fresh MOBJ-over-OURS gain drops below this
/// fraction of the committed baseline (a >25 % regression).
const TOLERANCE: f64 = 0.75;

struct Cell {
    policy: SchedulerKind,
    shards: usize,
    factor: u32,
    interactive_p99_ms: f64,
    unloaded_p99_ms: f64,
    batch_completed: usize,
    batch_admitted: usize,
    max_batch_start_delay_ms: f64,
    hottest_shard_imbalance: f64,
}

fn run_matrix(quick: bool) -> Vec<Cell> {
    let scenario = if quick {
        overload_scenario().shortened(SimDuration::from_secs(12))
    } else {
        overload_scenario()
    };
    let policy = overload_policy_for(&scenario);
    let mut cells = Vec::new();
    for &shards in &SHARDS {
        for &kind in &POLICIES {
            eprintln!("  {} on {shards} shard(s)...", kind.name());
            let report = run_overload(&scenario, kind, &FACTORS, policy, shards);
            for c in &report.cells {
                let (starve, imbalance) = cell_starvation_and_imbalance(c);
                cells.push(Cell {
                    policy: kind,
                    shards,
                    factor: c.factor,
                    interactive_p99_ms: c.interactive_p99_ms,
                    unloaded_p99_ms: report.unloaded_p99_ms,
                    batch_completed: c.batch_completed,
                    batch_admitted: c.batch_admitted,
                    max_batch_start_delay_ms: starve,
                    hottest_shard_imbalance: imbalance,
                });
            }
        }
    }
    cells
}

fn find(cells: &[Cell], policy: SchedulerKind, shards: usize, factor: u32) -> &Cell {
    cells
        .iter()
        .find(|c| c.policy == policy && c.shards == shards && c.factor == factor)
        .expect("full matrix")
}

/// The headline MOBJ-over-OURS gains at 4× saturation on 2 shards — the
/// two axes the PR 8 acceptance bar holds the scorer to. A gain
/// above 1.0 means MOBJ beats OURS on that axis.
fn headline_gains(cells: &[Cell]) -> (f64, f64) {
    let ours = find(cells, SchedulerKind::Ours, 2, 4);
    let mobj = find(cells, SchedulerKind::Mobj, 2, 4);
    (
        ours.max_batch_start_delay_ms / mobj.max_batch_start_delay_ms,
        ours.hottest_shard_imbalance / mobj.hottest_shard_imbalance,
    )
}

fn to_json(cells: &[Cell], quick: bool) -> Json {
    let (starve_gain, imbalance_gain) = headline_gains(cells);
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/policy_matrix/v1".into()),
        ),
        (
            "config",
            obj([
                ("scenario", Json::Str("overload".into())),
                ("scenario_secs", Json::num(if quick { 12.0 } else { 60.0 })),
                ("nodes", Json::num(8.0)),
                ("datasets", Json::num(8.0)),
                (
                    "factors",
                    Json::Arr(FACTORS.iter().map(|&f| Json::num(f as f64)).collect()),
                ),
                (
                    "shards",
                    Json::Arr(SHARDS.iter().map(|&s| Json::num(s as f64)).collect()),
                ),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("policy", Json::Str(c.policy.name().into())),
                            ("shards", Json::num(c.shards as f64)),
                            ("factor", Json::num(c.factor as f64)),
                            ("interactive_p99_ms", Json::num(c.interactive_p99_ms)),
                            ("unloaded_p99_ms", Json::num(c.unloaded_p99_ms)),
                            ("batch_completed", Json::num(c.batch_completed as f64)),
                            ("batch_admitted", Json::num(c.batch_admitted as f64)),
                            (
                                "max_batch_start_delay_ms",
                                Json::num(c.max_batch_start_delay_ms),
                            ),
                            (
                                "hottest_shard_imbalance",
                                Json::num(c.hottest_shard_imbalance),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            obj([
                ("mobj_starvation_gain_4x_2shards", Json::num(starve_gain)),
                ("mobj_imbalance_gain_4x_2shards", Json::num(imbalance_gain)),
            ]),
        ),
    ])
}

fn print_table(cells: &[Cell]) {
    println!("== policy_matrix: quality axes by policy, shard count, saturation ==\n");
    println!(
        "{:>6} {:>8} {:>6} {:>9} {:>11} {:>13} {:>9}",
        "shards", "policy", "factor", "p99-ms", "batch", "starve-ms", "hot-shard"
    );
    for &shards in &SHARDS {
        for &factor in &FACTORS {
            for &policy in &POLICIES {
                let c = find(cells, policy, shards, factor);
                println!(
                    "{:>6} {:>8} {:>5}x {:>9.1} {:>5}/{:<5} {:>13.1} {:>9.4}",
                    shards,
                    policy.name(),
                    factor,
                    c.interactive_p99_ms,
                    c.batch_completed,
                    c.batch_admitted,
                    c.max_batch_start_delay_ms,
                    c.hottest_shard_imbalance,
                );
            }
        }
    }
    let (starve_gain, imbalance_gain) = headline_gains(cells);
    println!(
        "\nMOBJ over OURS at 4x / 2 shards: starvation gain {:.4}, imbalance gain {:.4}",
        starve_gain, imbalance_gain
    );
}

fn main() {
    let cli = Cli::parse();

    eprintln!(
        "policy_matrix: {:?} x {SHARDS:?} shards x {FACTORS:?} saturation{}",
        POLICIES.map(|p| p.name()),
        if cli.quick { " (quick)" } else { "" }
    );
    let cells = run_matrix(cli.quick);
    print_table(&cells);
    let doc = to_json(&cells, cli.quick);
    cli.write_json(&doc);

    cli.check(
        &doc,
        &[
            Gate::floor(
                "MOBJ 4x/2-shard starvation gain",
                summary("mobj_starvation_gain_4x_2shards"),
                TOLERANCE,
                1.0,
            ),
            Gate::floor(
                "MOBJ 4x/2-shard imbalance gain",
                summary("mobj_imbalance_gain_4x_2shards"),
                TOLERANCE,
                1.0,
            ),
        ],
        "policy_matrix: policy-family gain regression beyond tolerance",
    );
}
