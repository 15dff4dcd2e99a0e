//! The overload sweep: a head-to-head race of the post-paper policy
//! family against the paper's schedulers under admission control, with a
//! machine-readable baseline for CI regression gating.
//!
//! Runs the dedicated overload scenario (8 nodes, 8 datasets, burst
//! overlay over the middle half of the run; see EXPERIMENTS.md) for every
//! policy in the matrix — OURS and FCFSL from the paper, MOBJ after
//! Mamirov — at {1×, 2×, 4×, 10×} saturation, under the same admission
//! policy. Each (policy, factor) cell is simulated once single-head, which
//! gives its admission counters (offered, admitted, rejected, coalesced,
//! expired, escalated, shed rate) and quality axes (completed-interactive
//! p99, batch completion, the longest batch starvation gap), and once per
//! twin shard count in {2, 4} on the same offered jobs, which gives the
//! per-shard starvation/fragmentation view and the hottest-shard imbalance
//! (hottest shard's executed tasks over the mean shard's). The sim is
//! deterministic, so cells are exact — there is no sampling loop.
//!
//! The headline row is 4× saturation with the 2-shard twin (4 nodes per
//! shard): wide enough that the placement scorer still has within-shard
//! freedom. With 4 shards of 2 nodes the executed-task ratio is a
//! routing-tier property — a policy that sheds *less* of the hot shard's
//! load executes more tasks there and loses the ratio for serving more
//! work, so the 4-shard column is reported but not gated (see
//! EXPERIMENTS.md).
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
//! imbalance over MOBJ's, both at 4× saturation with the 2-shard twin,
//! the policy family's acceptance axes — against the fresh run: the run
//! **fails** (exit 1) if a fresh gain falls below 75 % of the committed
//! one or below 1.0 (MOBJ no longer beating OURS at all). Gains are
//! within-run ratios, so the gate is robust to scenario-length tweaks.
//! `--quick` shortens the scenario to 12 s for local iteration; the
//! committed baseline and the CI check are full-length runs
//! (deterministic, so the check reproduces the committed cells exactly —
//! the 12 s horizon is too short for the imbalance axis to separate the
//! policies).

use vizsched_bench::experiments::{
    hottest_shard_imbalance, overload_policy_for, overload_scenario, run_overload, OverloadCell,
    OverloadReport, ShardLoad,
};
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_sim::OverloadPolicy;

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

/// `kind`'s cell at saturation `factor`.
fn cell(sweeps: &[OverloadReport], kind: SchedulerKind, factor: u32) -> &OverloadCell {
    sweeps
        .iter()
        .find(|r| r.scheduler == kind)
        .and_then(|r| r.cells.iter().find(|c| c.factor == factor))
        .expect("full matrix")
}

/// The headline MOBJ-over-OURS gains at 4× saturation with the 2-shard
/// twin — the two axes the policy family's acceptance bar holds the
/// scorer to. A gain above 1.0 means MOBJ beats OURS on that axis.
fn headline_gains(sweeps: &[OverloadReport]) -> (f64, f64) {
    let ours = cell(sweeps, SchedulerKind::Ours, 4);
    let mobj = cell(sweeps, SchedulerKind::Mobj, 4);
    (
        ours.max_batch_start_delay_ms / mobj.max_batch_start_delay_ms,
        hottest_shard_imbalance(&ours.twins[0]) / hottest_shard_imbalance(&mobj.twins[0]),
    )
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

fn cell_json(c: &OverloadCell) -> Json {
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
        ("factor", Json::num(c.factor as f64)),
        ("offered_jobs", Json::num(c.offered_jobs as f64)),
        ("admitted", Json::num(c.overload.admitted as f64)),
        ("rejected", Json::num(c.overload.rejected as f64)),
        ("coalesced", Json::num(c.overload.coalesced as f64)),
        ("expired", Json::num(c.overload.expired as f64)),
        ("escalated", Json::num(c.overload.escalated as f64)),
        ("shed_rate", Json::num(c.shed_rate)),
        (
            "interactive_completed",
            Json::num(c.interactive_completed as f64),
        ),
        ("interactive_p99_ms", Json::num(c.interactive_p99_ms)),
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

fn to_json(sweeps: &[OverloadReport], secs: f64, nodes: usize, datasets: u32) -> Json {
    let (starve_gain, imbalance_gain) = headline_gains(sweeps);
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::num(x)).collect());
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/policy_matrix/v2".into()),
        ),
        (
            "config",
            obj([
                ("scenario", Json::Str("overload".into())),
                ("scenario_secs", Json::num(secs)),
                ("nodes", Json::num(nodes as f64)),
                ("datasets", Json::num(datasets as f64)),
                ("factors", nums(&FACTORS.map(f64::from))),
                ("twin_shards", nums(&TWINS.map(|s| s as f64))),
            ]),
        ),
        (
            "sweeps",
            Json::Arr(
                sweeps
                    .iter()
                    .map(|r| {
                        obj([
                            ("scheduler", Json::Str(r.scheduler.name().into())),
                            ("policy", admission_json(&r.policy)),
                            ("unloaded_p99_ms", Json::num(r.unloaded_p99_ms)),
                            ("cells", Json::Arr(r.cells.iter().map(cell_json).collect())),
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

fn print_table(sweeps: &[OverloadReport], p: &OverloadPolicy) {
    println!("== policy_matrix: the overload sweep by policy and saturation ==\n");
    println!(
        "admission: in-flight<={} per-user<={} deadline={} coalesce={} escalate>={}",
        p.max_in_flight.map_or("inf".into(), |c| c.to_string()),
        p.max_per_user.map_or("inf".into(), |c| c.to_string()),
        p.deadline.map_or("never".into(), |d| d.to_string()),
        p.coalesce_interactive,
        p.batch_escalation_age
            .map_or("never".into(), |d| d.to_string()),
    );
    println!("single-head run per row; hot-N is the N-shard twin's hottest-shard imbalance\n");
    print!(
        "{:>8} {:>6} {:>8} {:>9} {:>6} {:>9} {:>11} {:>13}",
        "policy", "factor", "offered", "coalesced", "shed%", "p99-ms", "batch", "starve-ms"
    );
    for shards in TWINS {
        print!(" {:>8}", format!("hot-{shards}"));
    }
    println!();
    for factor in FACTORS {
        for kind in POLICIES {
            let c = cell(sweeps, kind, factor);
            print!(
                "{:>8} {:>5}x {:>8} {:>9} {:>5.1}% {:>9.1} {:>5}/{:<5} {:>13.1}",
                kind.name(),
                factor,
                c.offered_jobs,
                c.overload.coalesced,
                100.0 * c.shed_rate,
                c.interactive_p99_ms,
                c.batch_completed,
                c.batch_admitted,
                c.max_batch_start_delay_ms,
            );
            for twin in &c.twins {
                print!(" {:>8.4}", hottest_shard_imbalance(twin));
            }
            println!();
        }
    }
    let (starve_gain, imbalance_gain) = headline_gains(sweeps);
    println!(
        "\nMOBJ over OURS at 4x / 2 shards: starvation gain {:.4}, imbalance gain {:.4}",
        starve_gain, imbalance_gain
    );
}

fn main() {
    let cli = Cli::parse(&["--quick", "--json <path>", "--check <path>"]);
    let scenario = if cli.quick() {
        overload_scenario().shortened(SimDuration::from_secs(12))
    } else {
        overload_scenario()
    };
    let policy = overload_policy_for(&scenario);

    eprintln!(
        "policy_matrix: {:?} x {FACTORS:?} saturation, single head + {TWINS:?}-shard twins{}",
        POLICIES.map(|p| p.name()),
        if cli.quick() { " (quick)" } else { "" }
    );
    let sweeps: Vec<OverloadReport> = POLICIES
        .iter()
        .map(|&kind| {
            eprintln!("  {}...", kind.name());
            run_overload(&scenario, kind, &FACTORS, policy, &TWINS)
        })
        .collect();
    print_table(&sweeps, &policy);
    let doc = to_json(
        &sweeps,
        scenario.workload.length.as_secs_f64(),
        scenario.cluster.len(),
        scenario.workload.dataset_count,
    );
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
