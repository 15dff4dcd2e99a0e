//! Chaos sweep: deterministic fault injection over the simulator, with a
//! machine-readable recovery report CI gates on.
//!
//! Two scenarios, both driven by a seedless, fully explicit [`FaultPlan`]
//! (the same plan type the live service executes, so every number here is
//! replayable bit-identically):
//!
//! - **node-faults** — a single-head cluster absorbs node crashes with
//!   respawn, a degraded (slow) node, and a correlated two-node leaf
//!   outage, under a mixed interactive/batch stream, once per registry
//!   policy (all nine). The invariant is *zero admitted-job loss*: every
//!   admitted job completes (`incomplete == 0`) and nothing is shed
//!   (`frames_lost == 0`). A violation fails every run — no `--check`
//!   needed.
//! - **shard-loss** — a two-shard deployment loses one shard head
//!   mid-run under a dense interactive stream. The orphaned jobs are
//!   re-admitted on the survivor exactly once and the *interactive MTTR*
//!   (injection to the first interactive completion after it) must stay
//!   under [`INTERACTIVE_MTTR_BOUND_MS`], also on every run.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin chaos                          # print table
//! cargo run --release -p vizsched-bench --bin chaos -- --json BENCH_chaos.json
//! cargo run --release -p vizsched-bench --bin chaos -- \
//!     --check BENCH_chaos.json                                               # CI gate
//! ```
//!
//! `--check <path>` adds two relative gates: each MTTR headline must not
//! exceed the committed value by more than [`TOLERANCE`]. The simulator
//! runs on a virtual clock, so fresh numbers are deterministic — the
//! tolerance only absorbs intentional cost-model retuning, not machine
//! noise.

use std::sync::Arc;
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::uniform_datasets;
use vizsched_core::ids::{ActionId, BatchId, DatasetId, JobId, NodeId, ShardId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::json::{obj, Json};
use vizsched_metrics::{recovery_report, CollectingProbe, RecoveryReport};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};

const GIB: u64 = 1 << 30;
const NODES: usize = 8;
const DATASETS: u32 = 8;
const NODE_QUOTA: u64 = 2 * GIB;
const CHUNK_BYTES: u64 = 512 << 20;
/// The stated recovery SLO for shard-head loss: the first interactive
/// frame after the crash completes within this bound (simulated time).
const INTERACTIVE_MTTR_BOUND_MS: u64 = 500;
/// `--check` fails when a fresh MTTR headline exceeds the committed one
/// by more than a third.
const TOLERANCE: f64 = 1.33;

fn at(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn sim() -> Simulation {
    let cluster = ClusterSpec::homogeneous(NODES, NODE_QUOTA);
    let config = SimConfig::new(cluster, CostParams::default(), CHUNK_BYTES);
    Simulation::new(config, uniform_datasets(DATASETS, 2 * GIB))
}

/// A mixed stream: one job every `period_ms`, interactive and batch
/// alternating, datasets round-robin so every node sees work.
fn mixed_stream(count: usize, period_ms: u64) -> Vec<Job> {
    (0..count)
        .map(|i| {
            let dataset = (i as u32) % DATASETS;
            let user = UserId(dataset % 4);
            let kind = if i % 2 == 0 {
                JobKind::Interactive {
                    user,
                    action: ActionId(dataset as u64),
                }
            } else {
                JobKind::Batch {
                    user,
                    request: BatchId(dataset as u64),
                    frame: i as u32,
                }
            };
            Job {
                id: JobId(i as u64),
                kind,
                dataset: DatasetId(dataset),
                issue_time: SimTime::ZERO + SimDuration::from_millis(period_ms * i as u64),
                frame: FrameParams::default(),
            }
        })
        .collect()
}

/// A dense all-interactive stream — the pinned sessions a shard-head
/// crash must not strand.
fn interactive_stream(count: usize, period_ms: u64) -> Vec<Job> {
    (0..count)
        .map(|i| {
            let dataset = (i as u32) % DATASETS;
            Job {
                id: JobId(i as u64),
                kind: JobKind::Interactive {
                    user: UserId(dataset),
                    action: ActionId(dataset as u64),
                },
                dataset: DatasetId(dataset),
                issue_time: SimTime::ZERO + SimDuration::from_millis(period_ms * i as u64),
                frame: FrameParams::default(),
            }
        })
        .collect()
}

/// The node-fault schedule: crash with respawn, a 2.5x-slow node, a
/// correlated two-node leaf outage, and a second crash late in the run.
fn node_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .crash_at(at(3), NodeId(1))
        .respawn_at(at(6), NodeId(1))
        .degrade_at(at(8), NodeId(2), 2500)
        .restore_at(at(12), NodeId(2))
        .leaf_outage_at(at(14), NodeId(4), 2)
        .leaf_recover_at(at(18), NodeId(4), 2)
        .crash_at(at(20), NodeId(5))
        .respawn_at(at(23), NodeId(5))
}

struct ScenarioRow {
    policy: &'static str,
    jobs: usize,
    incomplete: usize,
    report: RecoveryReport,
}

fn ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1000.0
}

fn run_node_faults(quick: bool) -> Vec<ScenarioRow> {
    let sim = sim();
    let jobs = mixed_stream(if quick { 100 } else { 200 }, 150);
    let policies: Vec<SchedulerKind> = SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::EXTENDED.iter())
        .copied()
        .collect();
    let mut rows = Vec::new();
    for kind in policies {
        let probe = Arc::new(CollectingProbe::new());
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::new(kind)
                .label("chaos-node-faults")
                .probe(probe.clone())
                .fault_plan(node_fault_plan()),
        );
        let row = ScenarioRow {
            policy: kind.name(),
            jobs: jobs.len(),
            incomplete: outcome.incomplete_jobs,
            report: recovery_report(&probe.events()),
        };
        rows.push(row);
    }
    rows
}

fn run_shard_loss(quick: bool) -> ScenarioRow {
    let sim = sim();
    let jobs = interactive_stream(if quick { 150 } else { 300 }, 100);
    let probe = Arc::new(CollectingProbe::new());
    let outcome = sim.run_opts(
        jobs.clone(),
        RunOptions::new(SchedulerKind::Ours)
            .label("chaos-shard-loss")
            .probe(probe.clone())
            .shards(2)
            .fault_plan(FaultPlan::new().shard_crash_at(at(10), ShardId(0))),
    );
    ScenarioRow {
        policy: SchedulerKind::Ours.name(),
        jobs: jobs.len(),
        incomplete: outcome.incomplete_jobs,
        report: recovery_report(&probe.events()),
    }
}

fn row_json(row: &ScenarioRow) -> Json {
    obj([
        ("policy", Json::Str(row.policy.into())),
        ("jobs", Json::num(row.jobs as f64)),
        ("incomplete", Json::num(row.incomplete as f64)),
        ("frames_lost", Json::num(row.report.frames_lost as f64)),
        ("faults", Json::num(row.report.faults.len() as f64)),
        ("jobs_rerouted", Json::num(row.report.jobs_rerouted as f64)),
        ("max_mttr_ms", Json::num(ms(row.report.max_mttr))),
        ("mean_mttr_ms", Json::num(ms(row.report.mean_mttr))),
        (
            "max_interactive_mttr_ms",
            Json::num(ms(row.report.max_interactive_mttr)),
        ),
    ])
}

fn to_json(node_faults: &[ScenarioRow], shard_loss: &ScenarioRow) -> Json {
    let worst_node_mttr = node_faults
        .iter()
        .map(|r| ms(r.report.max_mttr))
        .fold(0.0f64, f64::max);
    let loss: usize = node_faults
        .iter()
        .chain(std::iter::once(shard_loss))
        .map(|r| r.incomplete + r.report.frames_lost as usize)
        .sum();
    obj([
        ("schema", Json::Str("vizsched-bench/chaos/v1".into())),
        (
            "config",
            obj([
                ("nodes", Json::num(NODES as f64)),
                ("datasets", Json::num(DATASETS as f64)),
                ("node_quota_gib", Json::num(2.0)),
                ("chunk_mib", Json::num(512.0)),
                (
                    "interactive_mttr_bound_ms",
                    Json::num(INTERACTIVE_MTTR_BOUND_MS as f64),
                ),
            ]),
        ),
        (
            "node_faults",
            Json::Arr(node_faults.iter().map(row_json).collect()),
        ),
        ("shard_loss", row_json(shard_loss)),
        (
            "summary",
            obj([
                ("admitted_job_loss", Json::num(loss as f64)),
                ("max_node_fault_mttr_ms", Json::num(worst_node_mttr)),
                (
                    "max_interactive_mttr_ms",
                    Json::num(ms(shard_loss.report.max_interactive_mttr)),
                ),
            ]),
        ),
    ])
}

fn print_table(node_faults: &[ScenarioRow], shard_loss: &ScenarioRow) {
    println!("== chaos: recovery under the deterministic fault plan ==\n");
    println!(
        "{:<12} {:<8} {:>5} {:>6} {:>8} {:>9} {:>12} {:>16}",
        "scenario", "policy", "jobs", "lost", "faults", "rerouted", "max mttr ms", "inter. mttr ms"
    );
    for row in node_faults {
        println!(
            "{:<12} {:<8} {:>5} {:>6} {:>8} {:>9} {:>12.1} {:>16}",
            "node-faults",
            row.policy,
            row.jobs,
            row.incomplete + row.report.frames_lost as usize,
            row.report.faults.len(),
            row.report.jobs_rerouted,
            ms(row.report.max_mttr),
            "-"
        );
    }
    println!(
        "{:<12} {:<8} {:>5} {:>6} {:>8} {:>9} {:>12.1} {:>16.1}",
        "shard-loss",
        shard_loss.policy,
        shard_loss.jobs,
        shard_loss.incomplete + shard_loss.report.frames_lost as usize,
        shard_loss.report.faults.len(),
        shard_loss.report.jobs_rerouted,
        ms(shard_loss.report.max_mttr),
        ms(shard_loss.report.max_interactive_mttr)
    );
}

fn main() {
    let cli = Cli::parse();

    eprintln!("chaos: node-faults across all nine policies, shard-loss under OURS");
    let node_faults = run_node_faults(cli.quick);
    let shard_loss = run_shard_loss(cli.quick);
    print_table(&node_faults, &shard_loss);
    let doc = to_json(&node_faults, &shard_loss);
    cli.write_json(&doc);

    cli.check(
        &doc,
        &[
            // Absolute, on every run: zero admitted-job loss, and the
            // shard-loss recovery SLO.
            Gate::ceiling("admitted_job_loss", summary("admitted_job_loss"), 0.0, 0.0),
            Gate::ceiling(
                "interactive MTTR SLO (ms)",
                summary("max_interactive_mttr_ms"),
                0.0,
                INTERACTIVE_MTTR_BOUND_MS as f64,
            ),
            Gate::ceiling(
                "max_node_fault_mttr_ms",
                summary("max_node_fault_mttr_ms"),
                TOLERANCE,
                0.0,
            ),
            Gate::ceiling(
                "max_interactive_mttr_ms",
                summary("max_interactive_mttr_ms"),
                TOLERANCE,
                0.0,
            ),
        ],
        "chaos: admitted-job loss, a broken recovery SLO, or an MTTR regression beyond tolerance",
    );
}
