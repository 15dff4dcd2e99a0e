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
//! document, one row per scenario and scheduler.
//! `--trace <path>` re-runs the selected policy (OURS by default) with a
//! probe attached, writes the full
//! event stream to `<path>` as JSONL, and prints the per-cycle prediction
//! accuracy and per-node activity reports derived from it.
//! `--policy <NAME>` restricts the comparison to one scheduling policy
//! (any name the scheduler registry knows: OURS, FCFS, FCFSL, MOBJ, FSD,
//! ...), e.g.
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

use std::sync::Arc;
use vizsched_bench::experiments::{replay_of, run_scenario, simulation_for};
use vizsched_bench::harness::Cli;
use vizsched_core::data::DatasetDesc;
use vizsched_core::job::Job;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_metrics::{
    estimate_trajectory, events_to_jsonl, format_comparison, format_figure, format_node_activity,
    format_prediction_report, format_table3_block, node_activity, prediction_by_cycle,
    CollectingProbe, SchedulerReport, TraceEvent,
};
use vizsched_sim::{FaultPlan, RunOptions, Simulation};
use vizsched_workload::{RecordHeader, RecordingProbe, Scenario, ScenarioRecord};

fn main() {
    let cli = Cli::parse(&[
        "<scenario>",
        "--short <secs>",
        "--policy <name>",
        "--trace <path>",
        "--record <path>",
        "--replay <path>",
        "--json <path>",
    ]);
    let which = cli.positional().unwrap_or("1");
    let short: Option<u64> = cli.parsed("--short");
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
            &simulation_for(&s),
            &s.datasets(),
            s.workload.length,
            &s.jobs(),
            s.target_fps(),
        );
        s
    };

    let numbers: Vec<u8> = match which {
        "all" => vec![1, 2, 3, 4],
        n => vec![n.parse().expect("scenario number 1-4 or 'all'")],
    };

    if let Some(path) = cli.value("--record") {
        let scenario = open(Scenario::table2(numbers[0]));
        record_scenario(&scenario, policy_arg.unwrap_or(SchedulerKind::Ours), path);
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
        if let Some(path) = trace_path {
            trace_policy(&scenario, policy_arg.unwrap_or(SchedulerKind::Ours), path);
        }
        table3.push((scenario.label.clone(), reports));
    }

    let all: Vec<SchedulerReport> = table3.iter().flat_map(|(_, r)| r.clone()).collect();
    if let Some(path) = cli.json() {
        let doc = obj([
            ("schema", Json::Str("vizsched-bench/scenario/v1".into())),
            ("reports", Json::Arr(all.iter().map(report_json).collect())),
        ]);
        std::fs::write(path, doc.pretty()).expect("write json");
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

/// One scheduler report as a JSON row.
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
    let outcome = Simulation::new(config, scenario.datasets(), scenario.chunk_max).run_opts(
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
        &sim,
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

/// One line on the run about to start: its simulated cluster and
/// `Chk_max`, its data and its offered jobs.
fn banner(
    label: &str,
    sim: &Simulation,
    datasets: &[DatasetDesc],
    length: SimDuration,
    jobs: &[Job],
    target_fps: f64,
) {
    let interactive = jobs.iter().filter(|j| j.kind.is_interactive()).count();
    let batch = jobs.len() - interactive;
    let config = sim.config();
    println!(
        "== {label} == nodes={} mem={} GiB data={}x{} GiB chunk={} MiB length={length} \
         interactive={interactive} batch={batch} target={target_fps:.2} fps",
        config.cluster.len(),
        config.cluster.total_memory() >> 30,
        datasets.len(),
        datasets.first().map_or(0, |d| d.bytes) >> 30,
        sim.chunk_max() >> 20,
    );
}
