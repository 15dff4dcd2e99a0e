//! `e2e` — the frame benchmark.
//!
//! Starts a real `VizService` (real chunk store, real ray caster, real
//! compositing, OURS at ω = 30 ms) behind a real `TcpServer` on loopback,
//! drives it from one generator thread over two non-blocking connections,
//! and reports what a client sees: frame latency, frame rates, CPU per
//! frame, set-up time. A traced twin of each workload attaches a probe
//! through the public `ServiceConfig::probe` hook and times direct calls
//! into each crate to say where the time goes. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload steady_warm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every run prints its table on stderr and, as one line on stdout,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod canary;
mod contract;
mod driver;
mod json;
mod layers;
mod measure;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use measure::{Report, RunPlan, SETUP_REPS};
use sys::Scratch;
use workload::{Spec, WORKLOADS};

const USAGE: &str = "usage: e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
           [--smoke] [--agree] [--json <path>]
  --workload  one of steady_warm cold_scan mixed_batch drag_overload plane_small (default: all)
  --seed      workload seed (default 1)
  --seconds   measured seconds per run (default 15; a traced run spends a third on timed layer calls)
  --trace     0 = end-to-end metrics, tracing off; 1 = per-layer metrics, probe attached (default: both)
  --smoke     one-second windows, one set-up: does everything run and add up?
  --agree     run the untraced set twice and hold each metric's difference against its bound
  --json      also write every run's full record to <path>";

struct Cli {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// Trace modes to run, in order.
    modes: Vec<bool>,
    smoke: bool,
    agree: bool,
    json: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 15.0,
        modes: vec![false, true],
        smoke: false,
        agree: false,
        json: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::find(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
                cli.workloads = vec![spec];
            }
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                cli.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => cli.smoke = true,
            "--agree" => cli.agree = true,
            "--json" => cli.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 1.0;
    }
    if cli.agree {
        cli.modes = vec![false];
    }
    Ok(cli)
}

/// Run every (workload, mode) pair once, printing as it goes.
fn run_set(cli: &Cli, scratch: &Scratch) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for &spec in &cli.workloads {
        let mut untraced_p50 = None;
        for &traced in &cli.modes {
            let report = measure::run(
                RunPlan {
                    spec,
                    seed: cli.seed,
                    seconds: cli.seconds,
                    traced,
                    setup_reps: if cli.smoke { 1 } else { SETUP_REPS },
                },
                scratch,
            )
            .map_err(|e| format!("{}: {e}", spec.name))?;
            report.print();
            if !traced {
                untraced_p50 = report.metric("frame_p50_ms");
            } else if let (Some(plain), Some(traced)) =
                (untraced_p50, report.metric("client.frame_p50_ms"))
            {
                eprintln!(
                    "   traced vs untraced frame_p50_ms: {:+.2} % (run-to-run noise included)",
                    (traced / plain - 1.0) * 1e2
                );
            }
            println!("{}", report.contract_json().render());
            reports.push(report);
        }
    }
    Ok(reports)
}

/// Hold two untraced sets against each metric's bound. Returns the number
/// of breaches that no noise flag excuses.
fn agree(first: &[Report], second: &[Report]) -> usize {
    let mut breaches = 0;
    eprintln!("== agreement of two sets (relative difference of the second to the first)");
    for (a, b) in first.iter().zip(second) {
        for gate in contract::END_TO_END {
            let (Some(x), Some(y)) = (a.metric(gate.name), b.metric(gate.name)) else {
                continue;
            };
            let worse = gate.worsening(x, y);
            let excused = a.noisy || b.noisy;
            let verdict = match (worse > gate.bound, excused) {
                (false, _) => "ok",
                (true, true) => "over, but a run was flagged noisy",
                (true, false) => {
                    breaches += 1;
                    "BREACH"
                }
            };
            eprintln!(
                "   {:<14} {:<20} {:>12.4} -> {:>12.4}  {:+7.2} % of {:.0} %  {verdict}",
                a.workload,
                gate.name,
                x,
                y,
                worse * 1e2,
                gate.bound * 1e2
            );
        }
    }
    breaches
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    if sys::cpu_seconds().is_none() {
        return Err("CPU per frame needs /proc/self/stat: this benchmark runs on Linux".into());
    }
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;

    let mut reports = run_set(&cli, &scratch)?;
    let mut bad = reports.iter().filter(|r| !r.correct).count();
    if cli.smoke {
        bad += reports.iter().filter(|r| r.failed > 0).count();
    }
    if cli.agree {
        let second = run_set(&cli, &scratch)?;
        bad += agree(&reports, &second);
        reports.extend(second);
    }
    if let Some(path) = &cli.json {
        let doc = Json::Arr(reports.iter().map(Report::full_json).collect());
        std::fs::write(path, doc.render()).map_err(|e| format!("write {path}: {e}"))?;
    }
    // A single contract run reports `correct: false` in its result line
    // and still exits 0; the checking modes turn it into an exit code.
    Ok(if bad > 0 && (cli.smoke || cli.agree) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let c = cli(&[
            "--workload",
            "cold_scan",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workloads.len(), 1);
        assert_eq!(c.workloads[0].name, "cold_scan");
        assert_eq!((c.seed, c.seconds), (7, 15.0));
        assert_eq!(c.modes, vec![true]);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "zipf"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    /// `--smoke`: one-second windows over all five workloads, both modes.
    /// Nothing fails where nothing should, every contract metric is
    /// present exactly once under a well-formed name, and the result line
    /// has the shape the contract fixes.
    #[test]
    fn smoke_runs_every_workload_and_names_every_metric_once() {
        let scratch = Scratch::create().unwrap();
        let smoke = cli(&["--smoke"]).unwrap();
        assert_eq!(smoke.seconds, 1.0);
        let reports = run_set(&smoke, &scratch).expect("smoke set");
        assert_eq!(reports.len(), WORKLOADS.len() * 2);
        for report in &reports {
            assert!(report.correct, "{}: {:?}", report.workload, report.problems);
            assert_eq!(report.failed, 0, "{}: failures", report.workload);
            assert!(report.tally.delivered > 0, "{}: no frames", report.workload);
            let wanted: Vec<&str> = contract::table(report.traced)
                .iter()
                .map(|&(name, _)| name)
                .collect();
            let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            for name in &wanted {
                assert_eq!(
                    got.iter().filter(|g| g == &name).count(),
                    1,
                    "{}: metric {name} not reported exactly once",
                    report.workload
                );
            }
            assert_eq!(got.len(), wanted.len(), "{}: {got:?}", report.workload);
            for m in &report.metrics {
                assert!(
                    !m.name.is_empty()
                        && m.name.len() <= 64
                        && m.name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {:?}",
                    m.name
                );
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            let line = report.contract_json().render();
            assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
            assert!(!line.contains('\n'));
        }
        // Only the overloaded drag sheds, and it does.
        for report in reports.iter().filter(|r| !r.traced) {
            let shed = report.tally.refused + report.tally.dropped;
            assert_eq!(
                shed > 0,
                report.workload == "drag_overload",
                "{}",
                report.workload
            );
        }
    }
}
