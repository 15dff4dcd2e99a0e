//! Self-timed micro-benchmark of the scheduler hot path, with a
//! machine-readable baseline for CI regression gating.
//!
//! Times the optimized OURS / FCFSL schedulers against their retained
//! straight-line references (`vizsched_core::sched::reference`) over a
//! grid of {8, 32, 128} simultaneous actions × {8, 64, 256} nodes — the
//! Fig. 8 axis extended with a cluster-size sweep — and reports µs/job and
//! µs/invocation per cell plus ref/opt speedup ratios.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin sched_hotpath                  # print table
//! cargo run --release -p vizsched-bench --bin sched_hotpath -- --json BENCH_sched.json
//! cargo run --release -p vizsched-bench --bin sched_hotpath -- \
//!     --check BENCH_sched.json --json bench-fresh.json --quick              # CI gate
//! ```
//!
//! `--check <path>` reruns the grid and compares the per-policy geometric-
//! mean speedups against the committed baseline: the run **fails** (exit 1)
//! if a fresh geomean falls below 75 % of the committed one. Gating on the
//! speedup *ratio* rather than absolute µs keeps the gate robust to how
//! fast the CI machine happens to be — both sides of the ratio move
//! together with machine speed.
//!
//! Methodology: every sample builds fresh `HeadTables` + scheduler, runs
//! two untimed warm-up cycles (so caches are populated and scratch buffers
//! sized — the steady state the service actually runs in), then times a
//! burst of 8 cycles 30 ms of virtual time apart. Cells report the median
//! over all samples (default 30, `--quick` 8).

use std::time::Instant;
use vizsched_bench::harness::{geomean, summary, Cli, Gate};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::ids::{ActionId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::sched::{
    FcfslScheduler, OursParams, OursScheduler, ReferenceFcfslScheduler, ReferenceOursScheduler,
    ScheduleCtx, Scheduler,
};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::json::{obj, Json};

const GIB: u64 = 1 << 30;
const ACTIONS: [usize; 3] = [8, 32, 128];
const NODES: [usize; 3] = [8, 64, 256];
const DATASETS: u32 = 16;
const WARMUP_CYCLES: usize = 2;
const TIMED_CYCLES: usize = 8;
/// Fail `--check` when a fresh geomean speedup drops below this fraction
/// of the committed baseline (a >25 % regression).
const TOLERANCE: f64 = 0.75;

struct Cell {
    policy: &'static str,
    implementation: &'static str,
    actions: usize,
    nodes: usize,
    us_per_job: f64,
    us_per_invocation: f64,
}

fn make_jobs(count: usize) -> Vec<Job> {
    (0..count)
        .map(|i| Job {
            id: JobId(i as u64),
            kind: JobKind::Interactive {
                user: UserId((i % 8) as u32),
                action: ActionId((i % 8) as u64),
            },
            dataset: DatasetId(i as u32 % DATASETS),
            issue_time: SimTime::ZERO,
            frame: FrameParams::default(),
        })
        .collect()
}

/// Median of `samples` runs; each run = fresh state, warm-up, timed burst.
/// Returns µs per timed invocation.
fn time_cell(
    build: &dyn Fn() -> Box<dyn Scheduler>,
    nodes: usize,
    jobs: &[Job],
    samples: usize,
) -> f64 {
    let cluster = ClusterSpec::homogeneous(nodes, 8 * GIB);
    let catalog = Catalog::new(
        uniform_datasets(DATASETS, 4 * GIB),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 512 << 20,
        },
    );
    let cost = CostParams::anl_gpu_cluster();
    let cycle = SimDuration::from_millis(30);

    let mut per_invocation: Vec<f64> = (0..samples)
        .map(|_| {
            let mut tables = HeadTables::new(&cluster);
            let mut sched = build();
            let mut now = SimTime::ZERO;
            for _ in 0..WARMUP_CYCLES {
                let mut ctx = ScheduleCtx {
                    now,
                    tables: &mut tables,
                    catalog: &catalog,
                    cost: &cost,
                };
                std::hint::black_box(sched.schedule(&mut ctx, jobs.to_vec()));
                now += cycle;
            }
            let start = Instant::now();
            for _ in 0..TIMED_CYCLES {
                let mut ctx = ScheduleCtx {
                    now,
                    tables: &mut tables,
                    catalog: &catalog,
                    cost: &cost,
                };
                std::hint::black_box(sched.schedule(&mut ctx, jobs.to_vec()));
                now += cycle;
            }
            start.elapsed().as_secs_f64() * 1e6 / TIMED_CYCLES as f64
        })
        .collect();
    per_invocation.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    per_invocation[per_invocation.len() / 2]
}

type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

fn run_grid(samples: usize) -> Vec<Cell> {
    let variants: [(&'static str, &'static str, SchedulerFactory); 4] = [
        (
            "OURS",
            "opt",
            Box::new(|| Box::new(OursScheduler::new(OursParams::default()))),
        ),
        (
            "OURS",
            "ref",
            Box::new(|| Box::new(ReferenceOursScheduler::new(OursParams::default()))),
        ),
        ("FCFSL", "opt", Box::new(|| Box::new(FcfslScheduler::new()))),
        (
            "FCFSL",
            "ref",
            Box::new(|| Box::new(ReferenceFcfslScheduler::new())),
        ),
    ];

    let mut cells = Vec::new();
    for &actions in &ACTIONS {
        let jobs = make_jobs(actions);
        for &nodes in &NODES {
            for (policy, implementation, build) in &variants {
                let us_inv = time_cell(build.as_ref(), nodes, &jobs, samples);
                cells.push(Cell {
                    policy,
                    implementation,
                    actions,
                    nodes,
                    us_per_job: us_inv / actions as f64,
                    us_per_invocation: us_inv,
                });
                eprintln!(
                    "  {policy:-6}/{implementation} actions={actions:>3} nodes={nodes:>3}: \
                     {us_inv:>10.2} us/invocation"
                );
            }
        }
    }
    cells
}

fn find<'a>(cells: &'a [Cell], policy: &str, imp: &str, actions: usize, nodes: usize) -> &'a Cell {
    cells
        .iter()
        .find(|c| {
            c.policy == policy
                && c.implementation == imp
                && c.actions == actions
                && c.nodes == nodes
        })
        .expect("full grid")
}

/// ref/opt per (policy, actions, nodes).
fn speedups(cells: &[Cell]) -> Vec<(String, usize, usize, f64)> {
    let mut out = Vec::new();
    for policy in ["OURS", "FCFSL"] {
        for &actions in &ACTIONS {
            for &nodes in &NODES {
                let opt = find(cells, policy, "opt", actions, nodes);
                let reference = find(cells, policy, "ref", actions, nodes);
                out.push((
                    policy.to_string(),
                    actions,
                    nodes,
                    reference.us_per_job / opt.us_per_job,
                ));
            }
        }
    }
    out
}

fn to_json(cells: &[Cell], samples: usize) -> Json {
    let ratios = speedups(cells);
    let gm = |policy: &str| {
        geomean(
            ratios
                .iter()
                .filter(|(p, ..)| p == policy)
                .map(|&(_, _, _, r)| r),
        )
    };
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/sched_hotpath/v1".into()),
        ),
        (
            "config",
            obj([
                ("samples", Json::num(samples as f64)),
                ("warmup_cycles", Json::num(WARMUP_CYCLES as f64)),
                ("timed_cycles", Json::num(TIMED_CYCLES as f64)),
                ("datasets", Json::num(DATASETS as f64)),
                ("dataset_gib", Json::num(4.0)),
                ("chunk_mib", Json::num(512.0)),
                ("node_quota_gib", Json::num(8.0)),
                ("cycle_ms", Json::num(30.0)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("policy", Json::Str(c.policy.into())),
                            ("impl", Json::Str(c.implementation.into())),
                            ("actions", Json::num(c.actions as f64)),
                            ("nodes", Json::num(c.nodes as f64)),
                            ("us_per_job", Json::num(c.us_per_job)),
                            ("us_per_invocation", Json::num(c.us_per_invocation)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "speedups",
            Json::Arr(
                ratios
                    .iter()
                    .map(|(policy, actions, nodes, ratio)| {
                        obj([
                            ("policy", Json::Str(policy.clone())),
                            ("actions", Json::num(*actions as f64)),
                            ("nodes", Json::num(*nodes as f64)),
                            ("ratio", Json::num(*ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            obj([
                ("geomean_speedup_ours", Json::num(gm("OURS"))),
                ("geomean_speedup_fcfsl", Json::num(gm("FCFSL"))),
            ]),
        ),
    ])
}

fn print_table(cells: &[Cell]) {
    println!("== sched_hotpath: optimized vs reference, us/job (median) ==\n");
    println!(
        "{:>6} {:>7} {:>6} {:>12} {:>12} {:>9}",
        "policy", "actions", "nodes", "opt us/job", "ref us/job", "speedup"
    );
    for policy in ["OURS", "FCFSL"] {
        for &actions in &ACTIONS {
            for &nodes in &NODES {
                let opt = find(cells, policy, "opt", actions, nodes);
                let reference = find(cells, policy, "ref", actions, nodes);
                println!(
                    "{:>6} {:>7} {:>6} {:>12.3} {:>12.3} {:>8.2}x",
                    policy,
                    actions,
                    nodes,
                    opt.us_per_job,
                    reference.us_per_job,
                    reference.us_per_job / opt.us_per_job
                );
            }
        }
    }
}

fn main() {
    let cli = Cli::parse(&[
        "--quick",
        "--samples <n>",
        "--json <path>",
        "--check <path>",
    ]);
    let samples: usize = cli.number("--samples", if cli.quick() { 8 } else { 30 });

    eprintln!("sched_hotpath: {samples} samples/cell, grid {ACTIONS:?} actions x {NODES:?} nodes");
    let cells = run_grid(samples);
    print_table(&cells);
    let doc = to_json(&cells, samples);
    cli.write_json(&doc);
    cli.check(
        &doc,
        &[
            Gate::floor(
                "OURS   geomean speedup",
                summary("geomean_speedup_ours"),
                TOLERANCE,
                0.0,
            ),
            Gate::floor(
                "FCFSL  geomean speedup",
                summary("geomean_speedup_fcfsl"),
                TOLERANCE,
                0.0,
            ),
        ],
        "sched_hotpath: speedup regression beyond tolerance",
    );
}
