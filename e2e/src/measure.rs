//! One benchmark run: set the rig up (several times, for a steady
//! `setup_s`), drive one workload for the measured window, check the
//! outputs, and reduce what was observed to the named metrics.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use vizsched_service::{ServiceStats, WireFrame};

use crate::canary;
use crate::contract;
use crate::driver::{create_store, PhaseResult, Rig, Sample, Tally};
use crate::json::{obj, Json};
use crate::layers::{self, Lab};
use crate::stats::{self, quantile, Quantile};
use crate::sys::{self, Scratch};
use crate::trace;
use crate::workload::{closed_streams, open_schedule, Closed, Spec, BRICKS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// The spin loop before and after a workload may differ by this much
/// before the run is flagged noisy.
const SPIN_DRIFT_LIMIT: f64 = 0.10;
/// Generator lateness (p99) above this flags the run noisy.
const LATE_LIMIT_MS: f64 = 5.0;
/// An action needs this many delivered frames to have a frame rate.
const MIN_ACTION_FRAMES: usize = 5;
/// Share of a traced run's `--seconds` spent on the workload window; the
/// rest is the budget of the timed per-layer calls.
const TRACED_WINDOW_SHARE: f64 = 2.0 / 3.0;
/// Frames whose spans are written to the trace file.
const TRACE_FILE_FRAMES: usize = 2000;

/// One named number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `{name: {"value": …, "unit": …}, …}`, the shape the contract fixes.
fn metrics_json(metrics: &[Metric]) -> Json {
    obj(metrics.iter().map(|m| {
        (
            m.name,
            obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

/// How to run one workload once.
#[derive(Clone, Copy, Debug)]
pub struct RunPlan {
    pub spec: &'static Spec,
    pub seed: u64,
    /// `--seconds`: the measured window (untraced), or window plus timed
    /// layer calls (traced).
    pub seconds: f64,
    pub traced: bool,
    pub setup_reps: usize,
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub window_secs: f64,
    /// Outputs checked out: every reply accounted for and well-formed,
    /// the canary frame matches the in-process reference and the
    /// committed coverage.
    pub correct: bool,
    /// Why not, when not.
    pub problems: Vec<String>,
    pub tally: Tally,
    /// Requests that failed: unanswered, malformed, lost with their
    /// connection, or shed by a service that has no overload policy.
    pub failed: u64,
    /// The contract metrics of this run's mode: every end-to-end metric
    /// (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Further numbers worth a look, not gated.
    pub info: Vec<Metric>,
    /// A percentile was reported from too few samples.
    pub thin: bool,
    /// The box was not quiet: spin drift or a late generator.
    pub noisy: bool,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.tally.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// The full record (for `--json`).
    pub fn full_json(&self) -> Json {
        let t = &self.tally;
        obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Int(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("window_s", Json::Num(self.window_secs)),
            ("correct", Json::Bool(self.correct)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("noisy", Json::Bool(self.noisy)),
            ("thin", Json::Bool(self.thin)),
            ("sent", Json::Int(t.attempted)),
            ("delivered", Json::Int(t.delivered)),
            ("refused", Json::Int(t.refused)),
            ("dropped", Json::Int(t.dropped)),
            ("unanswered", Json::Int(t.unanswered)),
            ("malformed", Json::Int(t.malformed)),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
            ("info", metrics_json(&self.info)),
        ])
    }

    /// The human-readable table (stderr).
    pub fn print(&self) {
        let t = &self.tally;
        eprintln!(
            "== {} seed {} {} window {:.1}s{}{}{}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.window_secs,
            if self.noisy { "  [NOISY]" } else { "" },
            if self.thin { "  [THIN SAMPLE]" } else { "" },
            if self.correct { "" } else { "  [INCORRECT]" },
        );
        eprintln!("   why: {}", self.why);
        eprintln!(
            "   sent {} delivered {} refused {} dropped {} unanswered {} malformed {} failed {}",
            t.attempted, t.delivered, t.refused, t.dropped, t.unanswered, t.malformed, self.failed
        );
        for problem in &self.problems {
            eprintln!("   problem: {problem}");
        }
        for m in self.metrics.iter().chain(&self.info) {
            eprintln!("   {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
}

fn millis(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut values: Vec<f64> = samples.map(|s| s * 1e3).collect();
    stats::sort(&mut values);
    values
}

/// Definition 4: an action's frame rate is its frames over the time from
/// its first request falling due to its last frame arriving.
fn action_rates(samples: &[Sample]) -> Vec<f64> {
    let mut actions: HashMap<u64, (usize, f64, f64)> = HashMap::new();
    for s in samples {
        if let Some(action) = s.action {
            let entry = actions.entry(action).or_insert((0, f64::INFINITY, 0.0));
            entry.0 += 1;
            entry.1 = entry.1.min(s.due);
            entry.2 = entry.2.max(s.recv);
        }
    }
    let mut rates: Vec<f64> = actions
        .values()
        .filter(|(n, first, last)| *n >= MIN_ACTION_FRAMES && last > first)
        .map(|(n, first, last)| *n as f64 / (last - first))
        .collect();
    stats::sort(&mut rates);
    rates
}

/// The client-observed numbers of one measured window.
struct ClientView {
    p50: Quantile,
    p90: Quantile,
    p95: Quantile,
    p99: Quantile,
    first_p50: Quantile,
    action_fps: Quantile,
    delivered_fps: f64,
    interactive_fps: f64,
    batch_fps: f64,
    cpu_ms_per_frame: f64,
    shed_share: f64,
    late_p99_ms: f64,
}

fn client_view(phase: &PhaseResult, window_secs: f64) -> ClientView {
    let samples = &phase.samples;
    let interactive = || samples.iter().filter(|s| s.interactive);
    let latencies = millis(interactive().map(Sample::latency));
    let firsts = millis(interactive().filter(|s| s.first).map(Sample::latency));
    let rates = action_rates(samples);
    let delivered = samples.len() as f64;
    let interactive_n = interactive().count() as f64;
    let late = millis(phase.lateness.iter().copied());
    let t = &phase.tally;
    ClientView {
        p50: quantile(&latencies, 0.50),
        p90: quantile(&latencies, 0.90),
        p95: quantile(&latencies, 0.95),
        p99: quantile(&latencies, 0.99),
        first_p50: quantile(&firsts, 0.50),
        action_fps: quantile(&rates, 0.50),
        delivered_fps: delivered / window_secs,
        interactive_fps: interactive_n / window_secs,
        batch_fps: (delivered - interactive_n) / window_secs,
        cpu_ms_per_frame: phase.cpu_secs.unwrap_or(0.0) * 1e3 / delivered.max(1.0),
        shed_share: (t.refused + t.dropped) as f64 / (t.attempted as f64).max(1.0),
        late_p99_ms: quantile(&late, 0.99).value,
    }
}

/// Compare the canary frame with the same commit's in-process render and
/// with the coverage committed for this workload.
fn check_canary(spec: &Spec, got: &WireFrame, want: &WireFrame, problems: &mut Vec<String>) {
    if (got.width, got.height) != (want.width, want.height) || got.pixels.len() != want.pixels.len()
    {
        problems.push(format!(
            "canary frame is {}x{} ({} bytes), reference {}x{}",
            got.width,
            got.height,
            got.pixels.len(),
            want.width,
            want.height
        ));
        return;
    }
    let worst = got
        .pixels
        .iter()
        .zip(want.pixels.iter())
        .map(|(a, b)| a.abs_diff(*b))
        .max()
        .unwrap_or(0);
    if worst > canary::MAX_CHANNEL_DIFF {
        problems.push(format!(
            "canary frame differs from the in-process reference by {worst}/255"
        ));
    }
    let seen = canary::Coverage::of(&got.pixels);
    let committed = canary::committed(spec.name);
    if !seen.within(&committed, canary::COVERAGE_TOLERANCE) {
        problems.push(format!(
            "canary coverage {:.8} / mean alpha {:.8} left the committed {:.8} / {:.8}",
            seen.covered, seen.mean_alpha, committed.covered, committed.mean_alpha
        ));
    }
}

/// What the scan's first touches must miss: every visit switches dataset
/// through a cache that holds one dataset's bricks per user.
fn expected_misses(spec: &Spec, samples: &[Sample]) -> u64 {
    match spec.closed {
        Some(Closed::Scan { .. }) => {
            samples.iter().filter(|s| s.first).count() as u64 * BRICKS as u64
        }
        _ => 0,
    }
}

/// How far the busiest shard's share of jobs is above the mean share
/// (0 on a single head).
fn shard_imbalance(stats: &ServiceStats) -> f64 {
    let assigned: Vec<f64> = stats.per_shard.iter().map(|s| s.assigned as f64).collect();
    if assigned.is_empty() {
        return 0.0;
    }
    let mean = assigned.iter().sum::<f64>() / assigned.len() as f64;
    assigned.iter().copied().fold(0.0, f64::max) / mean.max(1.0) - 1.0
}

/// Run `plan` once.
pub fn run(plan: RunPlan, scratch: &Scratch) -> Result<Report, String> {
    let RunPlan {
        spec,
        seed,
        seconds,
        traced,
        setup_reps,
    } = plan;
    let window_secs = if traced {
        seconds * TRACED_WINDOW_SHARE
    } else {
        seconds
    };
    let window = Duration::from_secs_f64(window_secs);
    let spin_before = sys::spin_ms();

    // Set up several times; the last rig is the one measured.
    let mut setups = Vec::with_capacity(setup_reps);
    let mut build = |rep: usize| {
        let dir = scratch.path().join(format!("{}-store-{rep}", spec.name));
        let t0 = Instant::now();
        let rig = Rig::build(spec, seed, traced, &dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok::<Rig, String>(rig)
    };
    let mut rig = build(0)?;
    for rep in 1..setup_reps {
        rig.teardown();
        rig = build(rep)?;
    }
    let setup_s = stats::median(setups);

    // Events of the warm-up are not the window's.
    if let Some(probe) = &rig.probe {
        probe.take();
    }
    let schedule = open_schedule(spec, seed, window);
    let mut streams = closed_streams(spec, seed);
    let phase = rig.generator.run(&schedule, &mut streams, Some(window))?;
    let traced_events = rig.probe.as_ref().map(|p| p.take());

    let mut problems = Vec::new();
    match rig.canary() {
        Ok(frame) => {
            let reference = layers::reference_frame(spec, &rig.canary_bricks);
            check_canary(spec, &frame, &reference, &mut problems);
        }
        Err(e) => problems.push(e),
    }
    let tally = phase.tally;
    if tally.malformed > 0 {
        problems.push(format!("{} frames of the wrong size", tally.malformed));
    }
    if tally.stray > 0 {
        problems.push(format!("{} replies nobody asked for", tally.stray));
    }
    if tally.conn_errors > 0 {
        problems.push(format!("{} connections died", tally.conn_errors));
    }
    let shed = tally.refused + tally.dropped;
    let failed = tally.unanswered + tally.malformed + if spec.sheds_by_design() { 0 } else { shed };
    if tally.delivered + shed + tally.malformed + tally.unanswered != tally.attempted {
        problems.push("requests and replies do not add up".into());
    }

    let view = client_view(&phase, window_secs);
    let thin = !(view.p50.supported && view.p90.supported);

    let canary_bricks = rig.canary_bricks.clone();
    let catalog = rig.store.catalog().clone();
    let stats_at_exit = rig.teardown();
    // Calibrate on the same idle process the first reading saw: a live
    // rig's polling threads would slow the loop on their own.
    let spin_after = sys::spin_ms();
    let spin_drift = (spin_after - spin_before).abs() / spin_before;
    let noisy = spin_drift > SPIN_DRIFT_LIMIT || view.late_p99_ms > LATE_LIMIT_MS;

    // Every number this run produced; the contract table then picks the
    // ones this mode must report, in its order, and the rest is information.
    let mut all = vec![
        metric("frame_p50_ms", view.p50.value, "ms"),
        metric("delivered_fps", view.delivered_fps, "frames/s"),
        metric("action_fps_p50", view.action_fps.value, "frames/s"),
        metric("setup_s", setup_s, "s"),
        metric("client.frame_p90_ms", view.p90.value, "ms"),
        metric("client.cpu_ms_per_frame", view.cpu_ms_per_frame, "ms"),
        metric("samples", view.p50.samples as f64, "count"),
        metric("frame_p95_ms", view.p95.value, "ms"),
        metric("frame_p95_supported", f64::from(view.p95.supported), "bool"),
        metric("frame_p99_ms", view.p99.value, "ms"),
        metric("frame_p99_supported", f64::from(view.p99.supported), "bool"),
        metric("first_frames", view.first_p50.samples as f64, "count"),
        metric("actions", view.action_fps.samples as f64, "count"),
        metric("interactive_fps", view.interactive_fps, "frames/s"),
        metric("spin_before_ms", spin_before, "ms"),
        metric("spin_drift_pct", spin_drift * 1e2, "%"),
        metric("client.first_frame_p50_ms", view.first_p50.value, "ms"),
        metric("client.batch_fps", view.batch_fps, "frames/s"),
        metric("client.shed_share", view.shed_share, "ratio"),
        metric("gen.late_p99_ms", view.late_p99_ms, "ms"),
        metric("calib.spin_ms", spin_after, "ms"),
        metric("mem.peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];

    if let Some((events, probe_time)) = traced_events {
        let waterfall = trace::analyse(
            &events,
            &phase.samples,
            window_secs,
            expected_misses(spec, &phase.samples),
        );
        let trace_path = sys::build_dir()
            .map_err(|e| e.to_string())?
            .join(format!("e2e-trace-{}.json", spec.name));
        let doc = trace::spans_json(spec.name, &waterfall.spans, TRACE_FILE_FRAMES);
        std::fs::write(&trace_path, doc.render()).map_err(|e| format!("write trace: {e}"))?;

        let lab_dir = scratch.path().join(format!("{}-lab", spec.name));
        let lab = Lab {
            spec,
            store: create_store(spec, &lab_dir, 1).map_err(|e| format!("lab store: {e}"))?,
            catalog,
            bricks: &canary_bricks,
            jobs_per_cycle: waterfall.jobs_per_cycle,
        };
        let budget = Duration::from_secs_f64(seconds - window_secs);
        all.extend(
            layers::measure(lab, budget)
                .into_iter()
                .chain(waterfall.metrics)
                .map(|(name, value, unit)| metric(name, value, unit)),
        );
        let seen = canary::Coverage::of(&layers::reference_frame(spec, &canary_bricks).pixels);
        all.extend([
            metric("render.coverage", seen.covered, "ratio"),
            metric(
                "routing.shard_imbalance",
                shard_imbalance(&stats_at_exit),
                "ratio",
            ),
            metric(
                "trace.overhead_pct",
                probe_time.as_secs_f64() / phase.cpu_secs.unwrap_or(f64::NAN) * 1e2,
                "%",
            ),
            metric("trace.events", events.len() as f64, "count"),
            metric("client.frame_p50_ms", view.p50.value, "ms"),
        ]);
    }
    let mut metrics = Vec::new();
    for (name, unit) in contract::table(traced) {
        let at = all
            .iter()
            .position(|m| m.name == name && m.unit == unit)
            .ok_or_else(|| format!("contract metric {name} [{unit}] was not measured"))?;
        metrics.push(all.remove(at));
    }
    let info = all;

    Ok(Report {
        workload: spec.name,
        why: spec.why,
        seed,
        traced,
        window_secs,
        correct: problems.is_empty(),
        problems,
        tally,
        failed,
        metrics,
        info,
        thin,
        noisy,
    })
}
