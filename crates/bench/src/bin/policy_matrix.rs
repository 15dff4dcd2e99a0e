//! The overload sweep: OURS and FCFSL from the paper and MOBJ after
//! Mamirov race every load of one axis — the overload scenario (8 nodes,
//! 8 datasets; see EXPERIMENTS.md) with a burst over the middle half of
//! the run at {1×, 2×, 4×, 10×} saturation, and every traffic shape of
//! `TrafficShape::demo_suite`, the flash crowd beside its crowd-free
//! reference. Each load replays from its scenario record
//! (`experiments::replay_of`) under its own admission policy. Each
//! (load, policy) cell is simulated once single-head, which gives its
//! admission counters, interactive p99 and mean, hit rate, batch
//! completion and longest batch starvation gap, and once per twin shard
//! count in {2, 4} on the same offered jobs, which gives the per-shard
//! starvation/fragmentation view and the hottest-shard imbalance. The sim
//! is deterministic, so cells are exact.
//!
//! The headline row is 4× saturation with the 2-shard twin (4 nodes per
//! shard): wide enough that the placement scorer still has within-shard
//! freedom. On 4 shards of 2 nodes the executed-task ratio is a
//! routing-tier property — a policy that sheds *less* of the hot shard's
//! load executes more tasks there — so that column is reported but not
//! gated (see EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin policy_matrix                 # print table
//! cargo run --release -p vizsched-bench --bin policy_matrix -- --json BENCH_policy.json
//! cargo run --release -p vizsched-bench --bin policy_matrix -- \
//!     --check BENCH_policy.json --json bench-policy-fresh.json              # CI gate
//! ```
//!
//! Every run fails (exit 1) if OURS' flash-crowd p99 leaves the
//! `P99_ENVELOPE` of its crowd-free p99. `--check <path>` also fails it if
//! a MOBJ-over-OURS gain at 4× on the 2-shard twin (OURS's longest batch
//! starvation gap and hottest-shard imbalance over MOBJ's) falls below
//! 75 % of the committed one or below 1.0, or if a traffic shape's OURS
//! p99 exceeds 1.25× the committed one plus 1 ms. `--quick` shortens the
//! overload scenario to 12 s for local iteration, too short for the
//! imbalance axis to separate the policies.

use vizsched_bench::experiments::{
    hottest_shard_imbalance, overload_scenario, run_cell, sweep_loads, Cell, Load, ShardLoad,
    P99_ENVELOPE, TRAFFIC_SEED,
};
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_sim::OverloadPolicy;
use vizsched_workload::{Scenario, TrafficShape};

const POLICIES: [SchedulerKind; 3] = [
    SchedulerKind::Ours,
    SchedulerKind::Fcfsl,
    SchedulerKind::Mobj,
];
/// The saturation factors: 1× is the unloaded reference, the rest overlay
/// bursts of that multiple of the base interactive request rate.
const FACTORS: [u32; 4] = [1, 2, 4, 10];
/// The shard counts of each cell's sharded twins; the first is the
/// headline's.
const TWINS: [usize; 2] = [2, 4];
/// Fail `--check` when a fresh MOBJ-over-OURS gain drops below this
/// fraction of the committed baseline (a >25 % regression).
const TOLERANCE: f64 = 0.75;
/// `--check` tolerance on each traffic shape's OURS p99 against the
/// committed report: the sweep is deterministic, but leave headroom for
/// cost-model retunes so only real regressions trip CI.
const P99_TOLERANCE: f64 = 1.25;

/// `kind`'s cell of the load named `load`.
fn cell<'a>(rows: &'a [(Load, Vec<Cell>)], load: &str, kind: SchedulerKind) -> &'a Cell {
    rows.iter()
        .find(|(l, _)| l.name() == load)
        .and_then(|(_, cells)| cells.iter().find(|c| c.scheduler == kind))
        .expect("full matrix")
}

fn shard_json(s: &ShardLoad) -> Json {
    obj([
        ("shard", Json::num(s.shard as f64)),
        ("nodes", Json::num(s.nodes as f64)),
        ("assigned", Json::num(s.assigned as f64)),
        ("migrated_in", Json::num(s.migrated_in as f64)),
        ("migrated_out", Json::num(s.migrated_out as f64)),
        ("saturations", Json::num(s.saturations as f64)),
        ("shed", Json::num(s.shed as f64)),
        ("tasks", Json::num(s.tasks as f64)),
        ("longest_idle_ms", Json::num(s.longest_idle_ms)),
        ("imbalance", Json::num(s.imbalance)),
    ])
}

fn cell_json(c: &Cell) -> Json {
    let twins = c.twins.iter().map(|twin| {
        obj([
            ("shards", Json::num(twin.len() as f64)),
            (
                "hottest_shard_imbalance",
                Json::num(hottest_shard_imbalance(twin)),
            ),
            (
                "per_shard",
                Json::Arr(twin.iter().map(shard_json).collect()),
            ),
        ])
    });
    obj([
        ("scheduler", Json::Str(c.scheduler.name().into())),
        ("offered_jobs", Json::num(c.offered_jobs as f64)),
        ("admitted", Json::num(c.overload.admitted as f64)),
        ("rejected", Json::num(c.overload.rejected as f64)),
        ("coalesced", Json::num(c.overload.coalesced as f64)),
        ("expired", Json::num(c.overload.expired as f64)),
        ("escalated", Json::num(c.overload.escalated as f64)),
        ("shed", Json::num(c.overload.shed() as f64)),
        ("shed_rate", Json::num(c.shed_rate)),
        (
            "interactive_completed",
            Json::num(c.interactive_completed as f64),
        ),
        ("interactive_p99_ms", Json::num(c.interactive_p99_ms)),
        ("interactive_mean_ms", Json::num(c.interactive_mean_ms)),
        ("hit_rate", Json::num(c.hit_rate)),
        ("batch_admitted", Json::num(c.batch_admitted as f64)),
        ("batch_completed", Json::num(c.batch_completed as f64)),
        (
            "max_batch_start_delay_ms",
            Json::num(c.max_batch_start_delay_ms),
        ),
        ("twins", Json::Arr(twins.collect())),
    ])
}

fn admission_json(p: &OverloadPolicy) -> Json {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
    obj([
        ("max_in_flight", opt(p.max_in_flight.map(|c| c as f64))),
        ("max_per_user", opt(p.max_per_user.map(|c| c as f64))),
        ("deadline_ms", opt(p.deadline.map(|d| d.as_millis_f64()))),
        ("coalesce_interactive", Json::Bool(p.coalesce_interactive)),
        (
            "batch_escalation_age_ms",
            opt(p.batch_escalation_age.map(|d| d.as_millis_f64())),
        ),
    ])
}

/// The report's summary: the MOBJ-over-OURS gains at 4× saturation with
/// the 2-shard twin — the two axes the policy family's acceptance bar
/// holds the scorer to; above 1.0 MOBJ beats OURS — and OURS' flash-crowd
/// p99 against its crowd-free reference.
fn headline(rows: &[(Load, Vec<Cell>)]) -> [(&'static str, f64); 5] {
    let (ours, mobj) = (
        cell(rows, "4x", SchedulerKind::Ours),
        cell(rows, "4x", SchedulerKind::Mobj),
    );
    let crowd = cell(rows, "flash_crowd", SchedulerKind::Ours).interactive_p99_ms;
    let crowd_free = cell(rows, "crowd_free", SchedulerKind::Ours).interactive_p99_ms;
    [
        (
            "mobj_starvation_gain_4x_2shards",
            ours.max_batch_start_delay_ms / mobj.max_batch_start_delay_ms,
        ),
        (
            "mobj_imbalance_gain_4x_2shards",
            hottest_shard_imbalance(&ours.twins[0]) / hottest_shard_imbalance(&mobj.twins[0]),
        ),
        ("flash_crowd_unloaded_p99_ms", crowd_free),
        ("flash_crowd_p99_ms", crowd),
        (
            "flash_crowd_slo_factor",
            crowd / crowd_free.max(f64::EPSILON),
        ),
    ]
}

fn to_json(rows: &[(Load, Vec<Cell>)], scenario: &Scenario) -> Json {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::num(x)).collect());
    let loads = rows.iter().map(|(load, cells)| {
        obj([
            ("load", Json::Str(load.name().into())),
            ("shape", Json::Str(load.shape.name().into())),
            ("admission", admission_json(&load.admission)),
            ("cells", Json::Arr(cells.iter().map(cell_json).collect())),
        ])
    });
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/policy_matrix/v3".into()),
        ),
        (
            "config",
            obj([
                ("scenario", Json::Str("overload".into())),
                (
                    "scenario_secs",
                    Json::num(scenario.workload.length.as_secs_f64()),
                ),
                ("nodes", Json::num(scenario.cluster.len() as f64)),
                (
                    "datasets",
                    Json::num(scenario.workload.dataset_count as f64),
                ),
                ("factors", nums(&FACTORS.map(f64::from))),
                ("traffic_seed", Json::num(TRAFFIC_SEED as f64)),
                ("twin_shards", nums(&TWINS.map(|s| s as f64))),
            ]),
        ),
        ("loads", Json::Arr(loads.collect())),
        (
            "summary",
            obj(headline(rows).map(|(key, value)| (key, Json::num(value)))),
        ),
    ])
}

fn print_table(rows: &[(Load, Vec<Cell>)]) {
    println!("== policy_matrix: the overload sweep by load and policy ==\n");
    println!("admission by load:");
    for (load, _) in rows {
        let p = &load.admission;
        println!(
            "{:>13}  in-flight<={} per-user<={} deadline={} coalesce={} escalate>={}",
            load.name(),
            p.max_in_flight.map_or("inf".into(), |c| c.to_string()),
            p.max_per_user.map_or("inf".into(), |c| c.to_string()),
            p.deadline.map_or("never".into(), |d| d.to_string()),
            p.coalesce_interactive,
            p.batch_escalation_age
                .map_or("never".into(), |d| d.to_string()),
        );
    }
    println!("\nsingle-head run per row; hot-N is the N-shard twin's hottest-shard imbalance\n");
    print!("         load policy offered    done coalesced  shed%    p99-ms   mean-ms   hit%       batch starve-ms");
    for shards in TWINS {
        print!(" {:>7}", format!("hot-{shards}"));
    }
    println!();
    for (load, cells) in rows {
        for c in cells {
            print!(
                "{:>13} {:>6} {:>7} {:>7} {:>9} {:>5.1}% {:>9.1} {:>9.1} {:>5.1}% {:>5}/{:<5} {:>9.1}",
                load.name(),
                c.scheduler.name(),
                c.offered_jobs,
                c.interactive_completed,
                c.overload.coalesced,
                100.0 * c.shed_rate,
                c.interactive_p99_ms,
                c.interactive_mean_ms,
                100.0 * c.hit_rate,
                c.batch_completed,
                c.batch_admitted,
                c.max_batch_start_delay_ms,
            );
            for twin in &c.twins {
                print!(" {:>7.4}", hottest_shard_imbalance(twin));
            }
            println!();
        }
    }
}

/// OURS' p99 for the load named `load` out of a report document.
fn doc_ours_p99(doc: &Json, load: &str) -> Option<f64> {
    doc.get("loads")?
        .as_arr()?
        .iter()
        .find(|l| l.get("load").and_then(Json::as_str) == Some(load))?
        .get("cells")?
        .as_arr()?
        .iter()
        .find(|c| c.get("scheduler").and_then(Json::as_str) == Some("OURS"))?
        .get("interactive_p99_ms")?
        .as_f64()
}

fn main() {
    let cli = Cli::parse(&["--quick", "--json <path>", "--check <path>"]);
    let scenario = if cli.quick() {
        overload_scenario().shortened(SimDuration::from_secs(12))
    } else {
        overload_scenario()
    };
    let loads = sweep_loads(&scenario, &FACTORS);

    eprintln!(
        "policy_matrix: {:?} x {} loads, single head + {TWINS:?}-shard twins{}",
        POLICIES.map(|p| p.name()),
        loads.len(),
        if cli.quick() { " (quick)" } else { "" }
    );
    let rows: Vec<(Load, Vec<Cell>)> = loads
        .into_iter()
        .map(|load| {
            eprintln!("  {}...", load.name());
            let cells = POLICIES
                .iter()
                .map(|&kind| run_cell(&load, kind, &TWINS))
                .collect();
            (load, cells)
        })
        .collect();
    print_table(&rows);
    let doc = to_json(&rows, &scenario);
    let [starve_gain, imbalance_gain, crowd_free, crowd, crowd_factor] =
        headline(&rows).map(|(_, value)| value);
    println!(
        "\nMOBJ over OURS at 4x / 2 shards: starvation gain {starve_gain:.4}, imbalance gain {imbalance_gain:.4}"
    );
    println!(
        "flash-crowd SLO: p99 {crowd:.1} ms vs crowd-free {crowd_free:.1} ms -> {crowd_factor:.2}x (bound {P99_ENVELOPE}x)"
    );
    cli.write_json(&doc);

    // The flash-crowd bound is absolute and runs on every invocation; the
    // gains and the per-shape p99s are held to the `--check` baseline.
    let mut gates = vec![
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
        Gate::ceiling(
            "flash-crowd SLO factor",
            summary("flash_crowd_slo_factor"),
            0.0,
            P99_ENVELOPE,
        ),
    ];
    gates.extend(TrafficShape::NAMES.map(|name| {
        Gate::ceiling(
            format!("{name} OURS p99 ms"),
            Box::new(move |doc: &Json| doc_ours_p99(doc, name)),
            P99_TOLERANCE,
            1.0,
        )
    }));
    cli.check(
        &doc,
        &gates,
        "policy_matrix: policy-family gain regression, p99 regression or SLO violation",
    );
}
