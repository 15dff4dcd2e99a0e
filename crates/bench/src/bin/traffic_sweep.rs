//! Race OURS against the post-paper policy (MOBJ) across the five
//! non-Poisson traffic shapes of `vizsched_workload::traffic`:
//! diurnal load curves, a flash crowd on one hot dataset, camera-path
//! locality tours, mixed GPU tiers, and a time-varying streamed dataset
//! with heterogeneous bricking.
//!
//! Every shape's stream is first serialized onto the scenario-record
//! format and replayed *from the record* (`experiments::replay_of`), so
//! the sweep exercises the same record/replay pipeline operators use for
//! captured production traffic (see `docs/SCENARIO_FORMAT.md`).
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin traffic_sweep
//! cargo run --release -p vizsched-bench --bin traffic_sweep -- \
//!     --json BENCH_traffic.json                                 # regenerate
//! cargo run --release -p vizsched-bench --bin traffic_sweep -- \
//!     --check BENCH_traffic.json                                # CI gate
//! ```
//!
//! The flash-crowd cell carries the sweep's headline SLO: under the sized
//! admission policy, OURS' interactive p99 with the crowd piling on must
//! stay within 2x the unloaded (background-only) p99 — the same bound the
//! overload experiment pins at 4x saturation (see `EXPERIMENTS.md`).
//! Every run fails if the SLO breaks; `--check` also fails it if any
//! shape's OURS p99 regresses beyond tolerance against the committed
//! report (the sweep is deterministic).

use vizsched_bench::experiments::{p99, replay_of};
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_metrics::SchedulerReport;
use vizsched_sim::OverloadPolicy;
use vizsched_workload::{
    heterogeneous_catalog, FlashCrowdSpec, RecordHeader, ScenarioRecord, TrafficShape,
};

/// The policies every shape is raced under, in report order.
const POLICIES: [SchedulerKind; 2] = [SchedulerKind::Ours, SchedulerKind::Mobj];

/// Workload seed of the committed report.
const SEED: u64 = 2012;

/// The flash-crowd SLO: crowd p99 must stay within this factor of the
/// unloaded (background-only) p99, matching the overload experiment's
/// bound at 4x saturation.
const SLO_FACTOR: f64 = 2.0;

/// `--check` tolerance on per-shape OURS p99 against the committed
/// report: the sweep is deterministic, but leave headroom for cost-model
/// retunes so only real regressions trip CI.
const TOLERANCE: f64 = 1.25;

/// The admission policy of the flash-crowd cells. Tighter than the
/// overload experiment's sizing: a crowd on one hot dataset queues much
/// faster than a spread burst (every job contends for the same chunk
/// residency), so in-flight frames are capped at one scheduling cycle
/// of cluster work, one frame per user, and anything buffered past one
/// cycle is stale and expires. The crowd sheds hard; whoever gets a
/// frame gets it at interactive latency.
fn flash_policy(cluster: &ClusterSpec, cycle: SimDuration) -> OverloadPolicy {
    OverloadPolicy {
        max_in_flight: Some(cluster.len()),
        max_per_user: Some(1),
        deadline: Some(cycle),
        coalesce_interactive: true,
        batch_escalation_age: None,
    }
}

/// Serialize the shape's stream onto the record format under `kind`.
/// The header pins the shape's fixed harness: cluster, decomposition
/// and cost model. Shapes stress different axes, so the harness varies
/// with the shape — mixed tiers brings its own heterogeneous-disk
/// cluster, the time-varying stream gets heterogeneous bricking and a
/// cache half the size of the full timestep history (the invalidation
/// storm needs churn; a cache that fits everything would hide it).
fn record_of(shape: &TrafficShape, kind: SchedulerKind) -> ScenarioRecord {
    const GIB: u64 = 1 << 30;
    let chunk_max = 256 << 20;
    let uniform = |count: u32, bytes: u64| {
        Catalog::new(
            uniform_datasets(count, bytes),
            DecompositionPolicy::MaxChunkSize {
                max_bytes: chunk_max,
            },
        )
    };
    let (cluster, catalog) = match shape {
        TrafficShape::MixedTiers(spec) => (
            spec.cluster(8, 2 * GIB),
            uniform(spec.workload.dataset_count, GIB),
        ),
        TrafficShape::TimeVarying(spec) => (
            ClusterSpec::homogeneous(8, GIB),
            heterogeneous_catalog(spec.timesteps, 2 * GIB, chunk_max, spec.seed),
        ),
        TrafficShape::Diurnal(s) => (
            ClusterSpec::homogeneous(8, 2 * GIB),
            uniform(s.dataset_count, GIB),
        ),
        TrafficShape::FlashCrowd(s) => (
            ClusterSpec::homogeneous(8, 2 * GIB),
            uniform(s.dataset_count, GIB),
        ),
        TrafficShape::CameraPath(s) => (
            ClusterSpec::homogeneous(8, 2 * GIB),
            uniform(s.dataset_count, GIB),
        ),
    };
    shape.to_record(RecordHeader::new(
        shape.name(),
        SEED,
        kind.name(),
        SimDuration::from_millis(30),
        CostParams::eight_node_cluster(),
        cluster,
        &catalog,
    ))
}

/// One policy's run over one shape.
struct Cell {
    scheduler: SchedulerKind,
    offered: usize,
    completed: usize,
    interactive_p99_ms: f64,
    interactive_mean_ms: f64,
    hit_rate: f64,
    shed: u64,
}

/// Replay the shape from its record under `kind`. The flash crowd runs
/// under the sized admission policy; the other shapes run unpoliced like
/// the Table II comparisons.
fn run_shape(shape: &TrafficShape, kind: SchedulerKind) -> Cell {
    let record = record_of(shape, kind);
    let (sim, mut opts) = replay_of(&record, kind);
    if matches!(shape, TrafficShape::FlashCrowd(_)) {
        opts = opts.overload(flash_policy(&record.header.cluster, record.header.cycle));
    }
    let jobs = record.jobs().to_vec();
    let offered = jobs.len();
    let outcome = sim.run_opts(jobs, opts);
    let report = SchedulerReport::from_run(&outcome.record);
    let mut latencies: Vec<f64> = outcome
        .record
        .interactive_jobs()
        .filter_map(|j| j.timing.latency())
        .map(|l| l.as_millis_f64())
        .collect();
    Cell {
        scheduler: kind,
        offered,
        completed: latencies.len(),
        interactive_p99_ms: p99(&mut latencies),
        interactive_mean_ms: report.interactive_latency.mean * 1_000.0,
        hit_rate: report.hit_rate,
        shed: outcome.overload.shed(),
    }
}

/// The sweep for one shape: all policies over identical offered jobs.
struct ShapeReport {
    name: &'static str,
    offered: usize,
    cells: Vec<Cell>,
}

fn run_sweep(shapes: &[TrafficShape]) -> Vec<ShapeReport> {
    shapes
        .iter()
        .map(|shape| {
            let cells: Vec<Cell> = POLICIES
                .iter()
                .map(|&kind| run_shape(shape, kind))
                .collect();
            ShapeReport {
                name: shape.name(),
                offered: cells.first().map(|c| c.offered).unwrap_or(0),
                cells,
            }
        })
        .collect()
}

/// The flash-crowd SLO reference: the same shape with the crowd removed
/// (background population only), run under OURS with the same admission
/// policy. Both runs are policed, so the comparison isolates what the
/// crowd itself costs.
fn unloaded_flash_p99(shapes: &[TrafficShape]) -> f64 {
    let Some(TrafficShape::FlashCrowd(spec)) = shapes
        .iter()
        .find(|s| matches!(s, TrafficShape::FlashCrowd(_)))
    else {
        panic!("suite has no flash-crowd shape");
    };
    let unloaded = TrafficShape::FlashCrowd(FlashCrowdSpec {
        crowd_users: 0,
        ..*spec
    });
    run_shape(&unloaded, SchedulerKind::Ours).interactive_p99_ms
}

fn print_table(reports: &[ShapeReport]) {
    println!(
        "{:>13} {:>8} {:>8} {:>9} {:>5} {:>11} {:>12} {:>7}",
        "shape", "policy", "offered", "completed", "shed", "int-p99 ms", "int-mean ms", "hit%"
    );
    for r in reports {
        for c in &r.cells {
            println!(
                "{:>13} {:>8} {:>8} {:>9} {:>5} {:>11.1} {:>12.1} {:>6.1}%",
                r.name,
                c.scheduler.name(),
                c.offered,
                c.completed,
                c.shed,
                c.interactive_p99_ms,
                c.interactive_mean_ms,
                100.0 * c.hit_rate,
            );
        }
    }
}

fn to_json(reports: &[ShapeReport], unloaded_p99: f64) -> Json {
    let ours_flash = reports
        .iter()
        .find(|r| r.name == "flash_crowd")
        .and_then(|r| r.cells.iter().find(|c| c.scheduler == SchedulerKind::Ours))
        .map(|c| c.interactive_p99_ms)
        .unwrap_or(f64::INFINITY);
    let shapes: Vec<Json> = reports
        .iter()
        .map(|r| {
            let cells: Vec<Json> = r
                .cells
                .iter()
                .map(|c| {
                    obj([
                        ("scheduler", Json::Str(c.scheduler.name().into())),
                        ("offered_jobs", Json::num(c.offered as f64)),
                        ("interactive_completed", Json::num(c.completed as f64)),
                        ("shed", Json::num(c.shed as f64)),
                        ("interactive_p99_ms", Json::num(c.interactive_p99_ms)),
                        ("interactive_mean_ms", Json::num(c.interactive_mean_ms)),
                        ("hit_rate", Json::num(c.hit_rate)),
                    ])
                })
                .collect();
            obj([
                ("shape", Json::Str(r.name.into())),
                ("offered_jobs", Json::num(r.offered as f64)),
                ("cells", Json::Arr(cells)),
            ])
        })
        .collect();
    obj([
        ("schema", Json::Str("vizsched-bench/traffic/v1".into())),
        ("seed", Json::num(SEED as f64)),
        ("shapes", Json::Arr(shapes)),
        (
            "summary",
            obj([
                ("flash_crowd_unloaded_p99_ms", Json::num(unloaded_p99)),
                ("flash_crowd_p99_ms", Json::num(ours_flash)),
                (
                    "flash_crowd_slo_factor",
                    Json::num(ours_flash / unloaded_p99.max(f64::EPSILON)),
                ),
            ]),
        ),
    ])
}

/// OURS' p99 for `shape` out of a report document.
fn doc_ours_p99(doc: &Json, shape: &str) -> Option<f64> {
    doc.get("shapes")?
        .as_arr()?
        .iter()
        .find(|s| s.get("shape").and_then(Json::as_str) == Some(shape))?
        .get("cells")?
        .as_arr()?
        .iter()
        .find(|c| c.get("scheduler").and_then(Json::as_str) == Some("OURS"))?
        .get("interactive_p99_ms")?
        .as_f64()
}

fn main() {
    let cli = Cli::parse(&["--json <path>", "--check <path>"]);

    let shapes = TrafficShape::demo_suite(SEED);
    eprintln!(
        "traffic_sweep: {:?} x {:?}",
        TrafficShape::NAMES,
        POLICIES.map(|p| p.name()),
    );
    let reports = run_sweep(&shapes);
    let unloaded_p99 = unloaded_flash_p99(&shapes);
    print_table(&reports);
    let doc = to_json(&reports, unloaded_p99);
    let summary_of = |key| summary(key)(&doc).unwrap_or(f64::INFINITY);
    println!(
        "\nflash-crowd SLO: p99 {:.1} ms vs unloaded {:.1} ms -> {:.2}x (bound {SLO_FACTOR}x)",
        summary_of("flash_crowd_p99_ms"),
        unloaded_p99,
        summary_of("flash_crowd_slo_factor"),
    );
    cli.write_json(&doc);

    // The SLO is absolute and runs on every invocation; the per-shape
    // p99s are held to the `--check` baseline.
    let mut gates = vec![Gate::ceiling(
        "flash-crowd SLO factor",
        summary("flash_crowd_slo_factor"),
        0.0,
        SLO_FACTOR,
    )];
    gates.extend(TrafficShape::NAMES.map(|name| {
        Gate::ceiling(
            format!("{name} OURS p99 ms"),
            Box::new(move |doc: &Json| doc_ours_p99(doc, name)),
            TOLERANCE,
            1.0,
        )
    }));
    cli.check(&doc, &gates, "traffic_sweep: regression or SLO violation");
}
