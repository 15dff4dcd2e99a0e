//! Self-timed benchmark of the sharded control plane, with a
//! machine-readable baseline for CI regression gating.
//!
//! Measures cycle-loop throughput — jobs through `HeadRuntime` admission,
//! scheduling, dispatch, and completion feedback per second of head-side
//! critical path — over a grid of {1, 4, 16} shards × {64, 256, 1024}
//! nodes. In the sharded deployment each shard is its *own* head process
//! on its own machine, so the cluster-cycle wall a client observes is the
//! slowest shard's loop time, not the sum: the bench times every shard's
//! loop in isolation and charges the cell the per-cycle critical path
//! (max over shards). Timing shards one at a time keeps the measurement
//! faithful on any core count — OS-thread wall-clock on the bench box
//! would measure the box, not the design. 1 shard is the paper's single
//! head node and the baseline every speedup is measured against. Jobs
//! route to shards by dataset through the same consistent-hash ring the
//! runtime uses, so per-shard load reflects real ring dispersion, not an
//! idealized even split.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin shard_scaling                  # print table
//! cargo run --release -p vizsched-bench --bin shard_scaling -- --json BENCH_shard.json
//! cargo run --release -p vizsched-bench --bin shard_scaling -- \
//!     --check BENCH_shard.json --json bench-shard-fresh.json --quick         # CI gate
//! ```
//!
//! `--check <path>` reruns the grid and compares each committed speedup
//! (sharded throughput over single-head throughput at the same node
//! count) against the fresh run: the run **fails** (exit 1) if a fresh
//! speedup falls below 75 % of the committed one. Speedups are
//! within-machine ratios, so the gate is robust to CI machine speed.
//!
//! Methodology: every sample builds a fresh runtime per shard over that
//! shard's node slice, runs two untimed warm-up cycles, then times a
//! burst of timed cycles for each shard in isolation and keeps the
//! slowest shard's time as the sample's cycle-loop wall. Each cycle
//! offers one job per four nodes (cluster-wide), dispatches into a sink
//! substrate, and feeds every assignment straight back as a completion so
//! the admission and correction paths stay on the measured loop. Cells
//! report the fastest of all samples (default 7, `--quick` 3) — external
//! interference only ever inflates a timing, so the minimum is the
//! least-noise estimate of the true loop cost.

use std::sync::Arc;
use std::time::Instant;
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::ids::{ActionId, ChunkId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::sched::{Assignment, SchedulerKind};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::json::{obj, Json};
use vizsched_metrics::NoopProbe;
use vizsched_routing::{HashRing, ShardMap};
use vizsched_runtime::{Completion, HeadRuntime, Substrate};

const GIB: u64 = 1 << 30;
const SHARDS: [usize; 3] = [1, 4, 16];
const NODES: [usize; 3] = [64, 256, 1024];
const DATASETS: u32 = 64;
const NODE_QUOTA: u64 = 8 * GIB;
const CYCLE: SimDuration = SimDuration::from_millis(30);
const WARMUP_CYCLES: usize = 2;
const TIMED_CYCLES: usize = 50;
/// Fail `--check` when a fresh speedup drops below this fraction of the
/// committed baseline (a >25 % regression).
const TOLERANCE: f64 = 0.75;

/// Swallows dispatches and hands them back so the cycle loop can complete
/// them immediately — the execution layer reduced to zero cost, leaving
/// only the head-side work on the clock.
#[derive(Default)]
struct SinkSub {
    dispatched: Vec<Assignment>,
}

impl Substrate for SinkSub {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        self.dispatched.push(*assignment);
        true
    }
}

struct Cell {
    shards: usize,
    nodes: usize,
    jobs_per_sec: f64,
    us_per_cycle: f64,
}

fn catalog() -> Catalog {
    Catalog::new(
        uniform_datasets(DATASETS, 4 * GIB),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 512 << 20,
        },
    )
}

/// One cycle's cluster-wide offered load: one interactive job per four
/// nodes, datasets round-robin so the ring spreads them over the shards.
fn jobs_for_cycle(cycle_index: usize, nodes: usize, now: SimTime) -> Vec<Job> {
    let per_cycle = (nodes / 4).max(1);
    (0..per_cycle)
        .map(|i| {
            let dataset = (i as u32) % DATASETS;
            Job {
                id: JobId((cycle_index * per_cycle + i) as u64),
                kind: JobKind::Interactive {
                    user: UserId(dataset),
                    action: ActionId(dataset as u64),
                },
                dataset: DatasetId(dataset),
                issue_time: now,
                frame: FrameParams::default(),
            }
        })
        .collect()
}

/// Complete every dispatched assignment on the spot: zero-cost execution,
/// full-cost feedback (`Available` reconciliation, job bookkeeping).
fn complete_all(runtime: &mut HeadRuntime, sub: &mut SinkSub, now: SimTime) {
    for a in std::mem::take(&mut sub.dispatched) {
        runtime.on_task_done(
            now,
            Completion {
                node: a.node,
                job: a.task.job,
                task: a.task.index,
                chunk: a.task.chunk,
                started: now,
                finish: now + a.predicted_exec,
                io: SimDuration::ZERO,
                miss: false,
                evicted: Vec::new(),
                gpu_resident: false,
                gpu_evicted: Vec::new(),
            },
        );
    }
}

/// Drive one shard's cycle loop for `cycles` cycles over its pre-routed
/// per-cycle job lists.
fn drive(
    runtime: &mut HeadRuntime,
    sub: &mut SinkSub,
    jobs_by_cycle: &[Vec<Job>],
    now: &mut SimTime,
) {
    for jobs in jobs_by_cycle {
        for job in jobs {
            runtime.on_job_arrival(sub, *now, job.clone());
        }
        runtime.on_cycle(sub, *now);
        complete_all(runtime, sub, *now);
        *now += CYCLE;
    }
}

/// One sample of one grid cell: for every shard, a fresh runtime over its
/// node slice, untimed warm-up, then its timed cycle-loop burst measured
/// in isolation. Returns the critical path — the slowest shard's timed
/// seconds — the cluster-cycle wall of a deployment running one head
/// process per shard.
fn sample_cell(shards: usize, nodes: usize) -> f64 {
    let map = ShardMap::new(nodes, shards);
    let ring = HashRing::with_shards(shards);
    let shared_catalog = catalog();

    // Pre-route every cycle's offered jobs so routing cost (trivial ring
    // arithmetic) stays off the per-shard clock and each shard owns its
    // exact arrival stream.
    let route = |cycle_range: std::ops::Range<usize>, base_cycle: usize| -> Vec<Vec<Vec<Job>>> {
        let mut per_shard: Vec<Vec<Vec<Job>>> = vec![vec![Vec::new(); cycle_range.len()]; shards];
        for (slot, c) in cycle_range.enumerate() {
            let now = SimTime::ZERO + CYCLE * ((base_cycle + slot) as u64);
            for job in jobs_for_cycle(c, nodes, now) {
                let shard = ring.shard_for_chunk(ChunkId::new(job.dataset, 0));
                per_shard[shard.index()][slot].push(job);
            }
        }
        per_shard
    };
    let warm = route(0..WARMUP_CYCLES, 0);
    let timed = route(WARMUP_CYCLES..WARMUP_CYCLES + TIMED_CYCLES, WARMUP_CYCLES);

    let mut critical_path = 0.0f64;
    for (shard, (warm_jobs, timed_jobs)) in warm.into_iter().zip(timed).enumerate() {
        let span = map.spans()[shard];
        let cluster = ClusterSpec::homogeneous(span.nodes as usize, NODE_QUOTA);
        let mut runtime = HeadRuntime::new(
            SchedulerKind::Ours.build(CYCLE),
            HeadTables::new(&cluster),
            shared_catalog.clone(),
            CostParams::anl_gpu_cluster(),
            Arc::new(NoopProbe),
            "shard-scaling",
        );
        let mut sub = SinkSub::default();
        let mut now = SimTime::ZERO;
        drive(&mut runtime, &mut sub, &warm_jobs, &mut now);
        let t0 = Instant::now();
        drive(&mut runtime, &mut sub, &timed_jobs, &mut now);
        critical_path = critical_path.max(t0.elapsed().as_secs_f64());
    }
    critical_path
}

fn run_cell(shards: usize, nodes: usize, samples: usize) -> Cell {
    let offered_per_cycle = (nodes / 4).max(1);
    // Minimum over samples: scheduler interference on the bench box only
    // ever *adds* time, so the fastest sample is the least-noise estimate
    // of the true loop cost.
    let wall = (0..samples)
        .map(|_| sample_cell(shards, nodes))
        .fold(f64::INFINITY, f64::min);
    Cell {
        shards,
        nodes,
        jobs_per_sec: (offered_per_cycle * TIMED_CYCLES) as f64 / wall,
        us_per_cycle: wall * 1e6 / TIMED_CYCLES as f64,
    }
}

fn run_grid(samples: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &nodes in &NODES {
        for &shards in &SHARDS {
            let cell = run_cell(shards, nodes, samples);
            eprintln!(
                "  shards={shards:>2} nodes={nodes:>4}: {:>12.0} jobs/s, {:>10.1} us/cycle",
                cell.jobs_per_sec, cell.us_per_cycle
            );
            cells.push(cell);
        }
    }
    cells
}

fn find(cells: &[Cell], shards: usize, nodes: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.shards == shards && c.nodes == nodes)
        .expect("full grid")
}

/// Sharded-over-single-head throughput ratios, one per (shards>1, nodes).
fn speedups(cells: &[Cell]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for &nodes in &NODES {
        let single = find(cells, 1, nodes);
        for &shards in &SHARDS[1..] {
            let sharded = find(cells, shards, nodes);
            out.push((shards, nodes, sharded.jobs_per_sec / single.jobs_per_sec));
        }
    }
    out
}

fn to_json(cells: &[Cell], samples: usize) -> Json {
    let ratios = speedups(cells);
    let headline = ratios
        .iter()
        .find(|&&(s, n, _)| s == 16 && n == 1024)
        .map(|&(_, _, r)| r)
        .expect("16x1024 cell");
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/shard_scaling/v1".into()),
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
                ("jobs_per_cycle_per_node", Json::num(0.25)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("shards", Json::num(c.shards as f64)),
                            ("nodes", Json::num(c.nodes as f64)),
                            ("jobs_per_sec", Json::num(c.jobs_per_sec)),
                            ("us_per_cycle", Json::num(c.us_per_cycle)),
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
                    .map(|&(shards, nodes, ratio)| {
                        obj([
                            ("shards", Json::num(shards as f64)),
                            ("nodes", Json::num(nodes as f64)),
                            ("ratio", Json::num(ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            obj([("speedup_16_shards_1024_nodes", Json::num(headline))]),
        ),
    ])
}

fn print_table(cells: &[Cell]) {
    println!("== shard_scaling: cycle-loop throughput by shard count (fastest sample) ==\n");
    println!(
        "{:>6} {:>6} {:>14} {:>12} {:>9}",
        "nodes", "shards", "jobs/s", "us/cycle", "speedup"
    );
    for &nodes in &NODES {
        let single = find(cells, 1, nodes);
        for &shards in &SHARDS {
            let c = find(cells, shards, nodes);
            println!(
                "{:>6} {:>6} {:>14.0} {:>12.1} {:>8.2}x",
                nodes,
                shards,
                c.jobs_per_sec,
                c.us_per_cycle,
                c.jobs_per_sec / single.jobs_per_sec
            );
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
    let samples: usize = cli.number("--samples", if cli.quick() { 3 } else { 7 });

    eprintln!("shard_scaling: {samples} samples/cell, grid {SHARDS:?} shards x {NODES:?} nodes");
    let cells = run_grid(samples);
    print_table(&cells);
    let doc = to_json(&cells, samples);
    cli.write_json(&doc);

    cli.check(
        &doc,
        &[Gate::floor(
            "16 shards / 1024 nodes speedup",
            summary("speedup_16_shards_1024_nodes"),
            TOLERANCE,
            0.0,
        )],
        "shard_scaling: sharded speedup regression beyond tolerance",
    );
}
