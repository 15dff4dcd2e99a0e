//! Regenerates Figs. 4–7 and Table III: run one (or all) of the Table II
//! scenarios under the six scheduling policies and print the interactive
//! frame rates / latencies, batch latencies / working times, hit rates and
//! scheduling costs.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin scenario -- 1        # Fig. 4
//! cargo run --release -p vizsched-bench --bin scenario -- 2        # Fig. 5
//! cargo run --release -p vizsched-bench --bin scenario -- 3        # Fig. 6
//! cargo run --release -p vizsched-bench --bin scenario -- 4        # Fig. 7
//! cargo run --release -p vizsched-bench --bin scenario -- all      # + Table III
//! cargo run --release -p vizsched-bench --bin scenario -- 1 --short 10
//! ```
//!
//! `--short <secs>` shrinks the arrival window (same rates) for quick runs.
//! `--json <path>` writes every per-scheduler report as a machine-readable
//! document (same fields as the CSV, plus the scenario label per row).
//! `--timeline` additionally prints a 10 s-bucketed completion series for
//! OURS (warm-up transients, batch stalls).
//! `--trace <path>` re-runs the selected policy (OURS by default) with a
//! probe attached, writes the full
//! event stream to `<path>` as JSONL, and prints the per-cycle prediction
//! accuracy and per-node activity reports derived from it.
//! `--policy <NAME>` restricts the comparison to one scheduling policy
//! (any name the scheduler registry knows: OURS, FCFS, FCFSL, FRAC, MOBJ,
//! MOBJ-A, ...), e.g.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin scenario -- 1 --policy MOBJ
//! ```
//!
//! `--record <path>` runs the selected scenario once under the selected
//! policy (OURS unless `--policy` picked another) with a recording probe
//! attached and writes the captured request stream as a versioned JSONL
//! scenario record (see `docs/SCENARIO_FORMAT.md`):
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin scenario -- 1 --short 10 \
//!     --record /tmp/s1.jsonl
//! ```
//!
//! `--replay <path>` does the reverse: parse a scenario record (any
//! failure prints a line-numbered error and exits with status 2), rebuild
//! the recorded cluster/catalog/request stream and fault plan, and re-run
//! it in the simulator at the recorded ω. The scenario-number argument is
//! ignored; the policy defaults to the recorded one, `--policy` overrides
//! it; `--trace <path>` writes the replay's event stream. A policy name
//! this build does not register — recorded or passed — also exits 2.
//!
//! `--overload` replaces the scheduler comparison with the overload sweep
//! over the dedicated overload scenario (the scenario-number argument is
//! ignored) under the sized admission policy, with interactive bursts
//! overlaid at 1/2/4/10x the base request rate (see `EXPERIMENTS.md`);
//! every cell also carries a per-shard starvation/fragmentation view from
//! a 2-shard twin run of the same offered jobs (the headline counters
//! stay single-head). The sweep races OURS against the policy family
//! (FRAC, MOBJ, MOBJ-A) on identical offered jobs unless `--policy`
//! narrows it. `--short` still shrinks the run and with `--json` the
//! sweeps are written instead of the per-scheduler reports. The committed
//! `results/overload_report.json` is regenerated by
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin scenario -- \
//!     1 --overload --json results/overload_report.json
//! ```

use std::sync::Arc;
use vizsched_bench::experiments::{
    cell_starvation_and_imbalance, overload_policy_for, overload_scenario, replay_of, run_overload,
    run_scenario, simulation_for, OverloadReport, OVERLOAD_FACTORS,
};
use vizsched_bench::harness::Cli;
use vizsched_core::data::DatasetDesc;
use vizsched_core::job::Job;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_metrics::{
    estimate_trajectory, events_to_jsonl, format_comparison, format_figure, format_node_activity,
    format_prediction_report, format_table3_block, node_activity, prediction_by_cycle,
    reports_to_csv, CollectingProbe, SchedulerReport, Timeline, TraceEvent,
};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};
use vizsched_workload::{RecordHeader, RecordingProbe, Scenario, ScenarioRecord};

/// Shard count of the overload sweep's sharded twin runs: 2 shards over
/// the 8-node overload scenario (4 nodes each under the leaf/spine map),
/// wide enough that a placement policy still has within-shard freedom —
/// with 2-node shards the hottest-shard comparison degenerates into a
/// routing-tier property that no placement scorer can move.
const OVERLOAD_SHARDS: usize = 2;

fn main() {
    let cli = Cli::parse();
    let which = cli.positional().unwrap_or("1");
    let short: Option<u64> = cli.value("--short").and_then(|s| s.parse().ok());
    let trace_path = cli.value("--trace");
    let policy_arg = cli
        .value("--policy")
        .map(|name| policy_or_exit(name, "--policy"));

    if let Some(path) = cli.value("--replay") {
        replay_record(path, policy_arg, trace_path);
        return;
    }

    // Shorten a scenario when `--short` asks for it and print its banner.
    let open = |scenario: Scenario| {
        let s = match short {
            Some(secs) => scenario.shortened(SimDuration::from_secs(secs)),
            None => scenario,
        };
        banner(
            &s.label,
            simulation_for(&s).config(),
            &s.datasets(),
            s.workload.length,
            &s.jobs(),
            s.target_fps(),
        );
        s
    };

    let numbers: Vec<u8> = match which {
        "all" => vec![1, 2, 3, 4],
        n if n.starts_with('-') => vec![1],
        n => vec![n.parse().expect("scenario number 1-4 or 'all'")],
    };

    if let Some(path) = cli.value("--record") {
        let scenario = open(Scenario::table2(numbers[0]));
        record_scenario(&scenario, policy_arg.unwrap_or(SchedulerKind::Ours), path);
        return;
    }

    if cli.flag("--overload") {
        let scenario = open(overload_scenario());
        let policy = overload_policy_for(&scenario);
        let kinds: Vec<SchedulerKind> = match policy_arg {
            Some(kind) => vec![kind],
            None => vec![
                SchedulerKind::Ours,
                SchedulerKind::Frac,
                SchedulerKind::Mobj,
                SchedulerKind::MobjAdaptive,
            ],
        };
        let mut sweeps = Vec::with_capacity(kinds.len());
        for kind in kinds {
            println!("-- scheduling policy: {} --", kind.name());
            let report = run_overload(&scenario, kind, &OVERLOAD_FACTORS, policy, OVERLOAD_SHARDS);
            print_overload(&report);
            sweeps.push(overload_json(&scenario.label, &report));
        }
        if let Some(path) = &cli.json {
            let doc = obj([
                ("schema", Json::Str("vizsched-bench/overload/v1".into())),
                ("sweeps", Json::Arr(sweeps)),
            ]);
            std::fs::write(path, doc.pretty()).expect("write json");
            println!("(wrote overload sweeps to {path})");
        }
        return;
    }

    let mut table3: Vec<(String, Vec<SchedulerReport>)> = Vec::new();
    for n in numbers {
        let scenario = open(Scenario::table2(n));
        let schedulers: Vec<SchedulerKind> = match policy_arg {
            Some(kind) => vec![kind],
            None => SchedulerKind::ALL.to_vec(),
        };
        let reports = run_scenario(&scenario, &schedulers);
        println!("{}", format_comparison(&reports));
        println!("{}", format_figure(&reports, scenario.target_fps()));
        if cli.flag("--timeline") {
            let sim = simulation_for(&scenario);
            let outcome = sim.run_opts(
                scenario.jobs(),
                RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
            );
            println!(
                "-- OURS completion timeline (10 s buckets) --\n{}",
                Timeline::of(&outcome.record, SimDuration::from_secs(10)).format()
            );
        }
        if let Some(path) = trace_path {
            trace_policy(&scenario, policy_arg.unwrap_or(SchedulerKind::Ours), path);
        }
        table3.push((scenario.label.clone(), reports));
    }

    let all: Vec<SchedulerReport> = table3.iter().flat_map(|(_, r)| r.clone()).collect();
    if let Some(path) = &cli.json {
        let doc = obj([
            ("schema", Json::Str("vizsched-bench/scenario/v1".into())),
            ("reports", Json::Arr(all.iter().map(report_json).collect())),
        ]);
        std::fs::write(path, doc.pretty()).expect("write json");
        println!("(wrote {} report rows to {path})", all.len());
    }

    if let Some(path) = cli.value("--csv") {
        std::fs::write(path, reports_to_csv(&all)).expect("write csv");
        println!("(wrote {} report rows to {path})", all.len());
    }

    if which == "all" {
        println!("== Table III: data reuse hit rates and average scheduling costs ==");
        for (label, reports) in &table3 {
            let block: Vec<_> = reports
                .iter()
                .filter(|r| {
                    SchedulerKind::TABLE3
                        .iter()
                        .any(|k| k.name() == r.scheduler)
                })
                .cloned()
                .collect();
            println!("{}", format_table3_block(label, &block));
        }
    }
}

/// One scheduler report as a JSON row (the CSV columns, plus label).
fn report_json(r: &SchedulerReport) -> Json {
    obj([
        ("scenario", Json::Str(r.scenario.clone())),
        ("scheduler", Json::Str(r.scheduler.clone())),
        ("interactive_jobs", Json::num(r.interactive_jobs as f64)),
        ("batch_jobs", Json::num(r.batch_jobs as f64)),
        ("fps_mean", Json::num(r.fps.mean)),
        ("fps_p50", Json::num(r.fps.p50)),
        (
            "interactive_latency_mean_s",
            Json::num(r.interactive_latency.mean),
        ),
        (
            "interactive_latency_p95_s",
            Json::num(r.interactive_latency.p95),
        ),
        ("batch_latency_mean_s", Json::num(r.batch_latency.mean)),
        ("batch_working_mean_s", Json::num(r.batch_working.mean)),
        ("hit_rate", Json::num(r.hit_rate)),
        ("sched_cost_us", Json::num(r.sched_cost_us)),
        ("sched_invocations", Json::num(r.sched_invocations as f64)),
        ("makespan_secs", Json::num(r.makespan_secs)),
        ("fairness", Json::num(r.fairness)),
    ])
}

/// Re-run the selected policy (OURS unless `--policy` picked another)
/// with a probe attached, dump the event stream as JSONL, and print the
/// derived prediction-accuracy and node-activity reports.
///
/// The traced run starts cold (no cache pre-population): the §V-B
/// correction feedback — `Estimate[c]` learned from observed I/O, the
/// prediction error shrinking as the tables converge — only exists when
/// chunks actually miss.
fn trace_policy(scenario: &Scenario, kind: SchedulerKind, path: &str) {
    let probe = Arc::new(CollectingProbe::new());
    let mut config = simulation_for(scenario).config().clone();
    config.warm_start = false;
    let outcome = Simulation::new(config, scenario.datasets()).run_opts(
        scenario.jobs(),
        RunOptions::new(kind)
            .label(&scenario.label)
            .probe(probe.clone()),
    );
    let events = probe.take();
    std::fs::write(path, events_to_jsonl(&events)).expect("write trace");
    println!(
        "(wrote {} trace events to {path}; completed {} jobs, cold start)",
        events.len(),
        outcome.record.jobs.len() - outcome.incomplete_jobs
    );
    let horizon = events.last().map(TraceEvent::time).unwrap_or_default();
    println!(
        "-- {} prediction accuracy by cycle (cold start) --",
        kind.name()
    );
    println!(
        "{}",
        format_prediction_report(&prediction_by_cycle(&events), 12)
    );
    let trajectory = estimate_trajectory(&events);
    if trajectory.len() >= 2 {
        let (early, late) = trajectory.split_at(trajectory.len() / 2);
        let mean = |points: &[vizsched_metrics::EstimatePoint]| {
            points.iter().map(|p| p.error.as_micros()).sum::<u64>() / points.len() as u64
        };
        println!(
            "-- Estimate[c] corrections: {} total, mean |old-new| {}us early -> {}us late --\n",
            trajectory.len(),
            mean(early),
            mean(late)
        );
    }
    println!("-- {} per-node activity --", kind.name());
    println!(
        "{}",
        format_node_activity(&node_activity(&events, scenario.cluster.len(), horizon))
    );
}

/// Run `scenario` once under `kind` with a recording probe attached and
/// write the captured request stream as a versioned JSONL scenario
/// record (`docs/SCENARIO_FORMAT.md`). The header pins the exact
/// simulation configuration (`simulation_for`'s cycle), so the record
/// replays against the same substrate it was captured on.
fn record_scenario(scenario: &Scenario, kind: SchedulerKind, path: &str) {
    let sim = simulation_for(scenario);
    let header = RecordHeader::new(
        &scenario.label,
        scenario.workload.seed,
        kind.name(),
        sim.config().cycle,
        scenario.cost,
        scenario.cluster.clone(),
        &scenario.catalog(),
    );
    let probe = Arc::new(RecordingProbe::new(header));
    let outcome = sim.run_opts(
        scenario.jobs(),
        RunOptions::new(kind)
            .label(&scenario.label)
            .probe(probe.clone()),
    );
    probe
        .save(std::path::Path::new(path))
        .expect("write scenario record");
    println!(
        "(recorded {} requests under {} to {path}; {} jobs incomplete)",
        probe.request_count(),
        kind.name(),
        outcome.incomplete_jobs
    );
}

/// Resolve a policy name that came from outside the program (`--policy`,
/// a record header written by another build). An unknown name is an
/// operator error like an unparsable record: one line naming it and the
/// registered policies, exit status 2.
fn policy_or_exit(name: &str, origin: &str) -> SchedulerKind {
    name.parse().unwrap_or_else(|_| {
        let registered: Vec<&str> = SchedulerKind::ALL
            .iter()
            .chain(&[SchedulerKind::FsDelay])
            .chain(&SchedulerKind::EXTENDED)
            .map(SchedulerKind::name)
            .collect();
        refuse(format_args!(
            "{origin}: unknown policy '{name}' (registered: {})",
            registered.join(", ")
        ))
    })
}

/// Refuse outside input: one `scenario: ...` line on stderr, exit status 2.
fn refuse(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("scenario: {msg}");
    std::process::exit(2)
}

/// Parse a scenario record and re-run its request stream and faults in
/// the simulator over the recorded cluster, cost model and bricking at
/// the recorded cycle period ω (one shard: the header records no shard
/// count). A file that does not parse is an operator error, not a bug:
/// print the line-numbered message and exit with status 2 instead of
/// panicking.
fn replay_record(path: &str, policy_arg: Option<SchedulerKind>, trace_path: Option<&str>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| refuse(format_args!("cannot read {path}: {e}")));
    let record =
        ScenarioRecord::parse(&text).unwrap_or_else(|e| refuse(format_args!("{path}: {e}")));
    let kind = policy_arg.unwrap_or_else(|| policy_or_exit(&record.header.policy, path));
    let (sim, mut opts) = replay_of(&record, kind);
    let (config, jobs) = (sim.config(), record.jobs());
    banner(
        opts.label_str(),
        config,
        &record.header.datasets,
        SimDuration::from_micros(jobs.last().map_or(0, |j| j.issue_time.as_micros())),
        jobs,
        // A record keeps no interactive period; the paper's target is one
        // frame per cycle.
        1.0e6 / config.cycle.as_micros() as f64,
    );
    let plan: FaultPlan = record.faults.iter().copied().collect();
    if let Err(e) = plan.check(config.cluster.len(), 1) {
        refuse(format_args!("{path}: {e}"));
    }
    let probe = Arc::new(CollectingProbe::new());
    if trace_path.is_some() {
        opts = opts.probe(probe.clone());
    }
    let outcome = sim.run_opts(jobs.to_vec(), opts);
    let report = SchedulerReport::from_run(&outcome.record);
    println!("{}", format_comparison(&[report]));
    if let Some(trace_path) = trace_path {
        let events = probe.take();
        std::fs::write(trace_path, events_to_jsonl(&events)).expect("write trace");
        println!("(wrote {} trace events to {trace_path})", events.len());
    }
    println!(
        "(replayed {} recorded requests and {} recorded faults under {}; {} jobs incomplete)",
        jobs.len(),
        record.faults.len(),
        kind.name(),
        outcome.incomplete_jobs
    );
}

/// Print the overload sweep as a table, plus the headline 4x check.
fn print_overload(report: &OverloadReport) {
    let p = &report.policy;
    println!(
        "-- overload policy: in-flight<={} per-user<={} deadline={} coalesce={} escalate>={} --",
        p.max_in_flight.map_or("inf".into(), |c| c.to_string()),
        p.max_per_user.map_or("inf".into(), |c| c.to_string()),
        p.deadline.map_or("never".into(), |d| d.to_string()),
        p.coalesce_interactive,
        p.batch_escalation_age
            .map_or("never".into(), |d| d.to_string()),
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>9} {:>7} {:>9} {:>6} {:>11} {:>11} {:>14}",
        "factor",
        "offered",
        "admitted",
        "rejected",
        "coalesced",
        "expired",
        "escalated",
        "shed%",
        "int-p99 ms",
        "batch done",
        "batch-wait ms"
    );
    for c in &report.cells {
        println!(
            "{:>5}x {:>8} {:>8} {:>8} {:>9} {:>7} {:>9} {:>5.1}% {:>11.1} {:>5}/{:<5} {:>14.1}",
            c.factor,
            c.offered_jobs,
            c.overload.admitted,
            c.overload.rejected,
            c.overload.coalesced,
            c.overload.expired,
            c.overload.escalated,
            100.0 * c.shed_rate,
            c.interactive_p99_ms,
            c.batch_completed,
            c.batch_admitted,
            c.max_batch_start_delay_ms,
        );
    }
    if let Some(c4) = report.cells.iter().find(|c| c.factor == 4) {
        println!(
            "-- 4x check: p99 {:.1} ms vs unloaded {:.1} ms (bound {:.1} ms), batch {}/{} --",
            c4.interactive_p99_ms,
            report.unloaded_p99_ms,
            2.0 * report.unloaded_p99_ms,
            c4.batch_completed,
            c4.batch_admitted,
        );
    }
    if report.cells.iter().any(|c| !c.per_shard.is_empty()) {
        println!("-- per-shard view (sharded twin runs of the same offered jobs) --");
        println!(
            "{:>6} {:>5} {:>5} {:>8} {:>6} {:>6} {:>6} {:>5} {:>7} {:>13} {:>9}",
            "factor",
            "shard",
            "nodes",
            "assigned",
            "in",
            "out",
            "satur",
            "shed",
            "tasks",
            "starve-ms",
            "imbalance"
        );
        for c in &report.cells {
            for s in &c.per_shard {
                println!(
                    "{:>5}x {:>5} {:>5} {:>8} {:>6} {:>6} {:>6} {:>5} {:>7} {:>13.1} {:>9.2}",
                    c.factor,
                    s.shard,
                    s.nodes,
                    s.assigned,
                    s.migrated_in,
                    s.migrated_out,
                    s.saturations,
                    s.shed,
                    s.tasks,
                    s.longest_idle_ms,
                    s.imbalance,
                );
            }
        }
    }
}

/// One scenario's overload sweep as a JSON row.
fn overload_json(label: &str, report: &OverloadReport) -> Json {
    let p = &report.policy;
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            let per_shard: Vec<Json> = c
                .per_shard
                .iter()
                .map(|s| {
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
                })
                .collect();
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
                (
                    "hottest_shard_imbalance",
                    Json::num(cell_starvation_and_imbalance(c).1),
                ),
                ("per_shard", Json::Arr(per_shard)),
            ])
        })
        .collect();
    obj([
        ("scenario", Json::Str(label.to_string())),
        ("scheduler", Json::Str(report.scheduler.name().to_string())),
        (
            "policy",
            obj([
                (
                    "max_in_flight",
                    opt(report.policy.max_in_flight.map(|c| c as f64)),
                ),
                ("max_per_user", opt(p.max_per_user.map(|c| c as f64))),
                ("deadline_ms", opt(p.deadline.map(|d| d.as_millis_f64()))),
                ("coalesce_interactive", Json::Bool(p.coalesce_interactive)),
                (
                    "batch_escalation_age_ms",
                    opt(p.batch_escalation_age.map(|d| d.as_millis_f64())),
                ),
            ]),
        ),
        ("unloaded_p99_ms", Json::num(report.unloaded_p99_ms)),
        ("cells", Json::Arr(cells)),
    ])
}

/// One line on the run about to start: its simulated cluster and
/// `Chk_max`, its data and its offered jobs.
fn banner(
    label: &str,
    config: &SimConfig,
    datasets: &[DatasetDesc],
    length: SimDuration,
    jobs: &[Job],
    target_fps: f64,
) {
    let interactive = jobs.iter().filter(|j| j.kind.is_interactive()).count();
    let batch = jobs.len() - interactive;
    println!(
        "== {label} == nodes={} mem={} GiB data={}x{} GiB chunk={} MiB length={length} \
         interactive={interactive} batch={batch} target={target_fps:.2} fps",
        config.cluster.len(),
        config.cluster.total_memory() >> 30,
        datasets.len(),
        datasets.first().map_or(0, |d| d.bytes) >> 30,
        config.chunk_max >> 20,
    );
}
