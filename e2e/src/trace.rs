//! The outside-in waterfall: join the head's `TraceEvent`s to the client's
//! own timestamps, lay each frame out as a tree of spans, and derive the
//! per-stage and per-layer numbers of the traced run.
//!
//! No product source is instrumented: the spans are built here, from the
//! events the public `Probe` hook already emits and from what the client
//! saw. The head stamps events on its own clock (microseconds since its
//! loop started); the two clocks are aligned by the smallest observed
//! `issue − sent` gap, which puts the fastest inbound hop at zero.

use std::collections::HashMap;

use vizsched_metrics::TraceEvent;

use crate::driver::Sample;
use crate::json::{obj, Json};
use crate::stats::{self, quantile};
use crate::workload::NODES;

/// One span: a named interval of one request, and the span that caused it.
/// Times are seconds on the client clock since the window opened.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub request_id: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the parent span in the same list; `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_by(|a, b| a.partial_cmp(b).expect("finite span"));
    let mut total = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    (parent.duration() - total).max(0.0)
}

#[derive(Clone, Copy, Debug)]
struct TaskTimes {
    /// Head-clock seconds.
    assigned: f64,
    started: f64,
    exec: f64,
    io: f64,
    miss: bool,
}

#[derive(Default)]
struct JobTrace {
    assigned: HashMap<u32, f64>,
    tasks: Vec<TaskTimes>,
    /// `(issue, finish)` on the head clock.
    done: Option<(f64, f64)>,
}

/// Per-frame stage durations in seconds, along the critical-path task
/// (a frame joins over all its bricks, so the slowest task sets it).
#[derive(Clone, Copy, Debug)]
struct Stages {
    /// Issue at the head to the cycle that assigned the task.
    cycle_wait: f64,
    /// Assignment to the node starting the task (FIFO behind other work).
    node_queue: f64,
    io: f64,
    render: f64,
    /// Everything outside the head's own latency: socket in, request
    /// queue, composite, encode, socket out, decode.
    edge: f64,
    client: f64,
}

impl Stages {
    /// |Σ stages − client latency| ÷ client latency.
    fn sum_err(&self) -> f64 {
        let sum = self.cycle_wait + self.node_queue + self.io + self.render + self.edge;
        (sum - self.client).abs() / self.client.max(1e-9)
    }
}

/// One stage of the waterfall: its p50 and p95 metric names, their unit,
/// and how to read it off a frame.
type StageColumn = (&'static str, &'static str, &'static str, fn(&Stages) -> f64);

/// Everything the traced run derives from events and client timestamps.
pub struct Waterfall {
    pub spans: Vec<Span>,
    /// `(name, value, unit)` rows for the per-layer table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Median jobs the scheduler saw per invoked cycle (sizes the timed
    /// scheduler and runtime calls).
    pub jobs_per_cycle: usize,
}

fn secs(us: u64) -> f64 {
    us as f64 * 1e-6
}

/// Build the waterfall of one measured window. `expected_misses` is what a
/// perfect cache would have missed (the scan's first touches).
pub fn analyse(
    events: &[TraceEvent],
    samples: &[Sample],
    window_secs: f64,
    expected_misses: u64,
) -> Waterfall {
    let wanted: HashMap<u64, &Sample> = samples.iter().map(|s| (s.job, s)).collect();
    let mut jobs: HashMap<u64, JobTrace> = HashMap::new();
    for event in events {
        match *event {
            TraceEvent::Assignment { now, job, task, .. } if wanted.contains_key(&job.0) => {
                // A rerouted task is assigned again; the last one ran.
                jobs.entry(job.0)
                    .or_default()
                    .assigned
                    .insert(task, secs(now.as_micros()));
            }
            TraceEvent::TaskDone {
                job,
                task,
                started,
                exec,
                io,
                miss,
                ..
            } if wanted.contains_key(&job.0) => {
                let entry = jobs.entry(job.0).or_default();
                let started = secs(started.as_micros());
                entry.tasks.push(TaskTimes {
                    assigned: entry.assigned.get(&task).copied().unwrap_or(started),
                    started,
                    exec: exec.as_secs_f64(),
                    io: io.as_secs_f64(),
                    miss,
                });
            }
            TraceEvent::JobDone { now, job, latency } if wanted.contains_key(&job.0) => {
                let finish = secs(now.as_micros());
                jobs.entry(job.0).or_default().done =
                    Some((finish - latency.as_secs_f64(), finish));
            }
            _ => {}
        }
    }

    // Head clock minus client clock, from the fastest inbound hop.
    let skew = jobs
        .iter()
        .filter_map(|(job, t)| t.done.map(|(issue, _)| issue - wanted[job].sent))
        .fold(f64::INFINITY, f64::min);
    let skew = if skew.is_finite() { skew } else { 0.0 };

    let mut spans = Vec::new();
    let mut stages = Vec::new();
    let (mut hits, mut misses, mut busy) = (0u64, 0u64, 0.0f64);
    let (mut queue_waits, mut execs, mut ios) = (Vec::new(), Vec::new(), Vec::new());
    for sample in samples {
        let Some(trace) = jobs.get(&sample.job) else {
            continue;
        };
        let (Some((issue, finish)), Some(critical)) = (
            trace.done,
            trace.tasks.iter().copied().max_by(|a, b| {
                (a.started + a.exec)
                    .partial_cmp(&(b.started + b.exec))
                    .expect("finite task time")
            }),
        ) else {
            continue;
        };
        let client = sample.latency();
        stages.push(Stages {
            cycle_wait: (critical.assigned - issue).max(0.0),
            node_queue: (critical.started - critical.assigned).max(0.0),
            io: critical.io,
            render: (critical.exec - critical.io).max(0.0),
            edge: client - sample.head_latency,
            client,
        });

        let root = spans.len();
        let mut push = |name, start: f64, end: f64, parent| {
            spans.push(Span {
                request_id: sample.request_id,
                name,
                start,
                end,
                parent,
            })
        };
        push("frame", sample.due, sample.recv, None);
        push("edge_in", sample.due, issue - skew, Some(root));
        push(
            "cycle_wait",
            issue - skew,
            critical.assigned - skew,
            Some(root),
        );
        for task in &trace.tasks {
            let started = task.started - skew;
            push("node_queue", task.assigned - skew, started, Some(root));
            push("io", started, started + task.io, Some(root));
            push("render", started + task.io, started + task.exec, Some(root));
            queue_waits.push((task.started - task.assigned).max(0.0) * 1e3);
            execs.push(task.exec * 1e3);
            if task.miss {
                misses += 1;
                ios.push(task.io * 1e3);
            } else {
                hits += 1;
            }
            busy += task.exec;
        }
        push("edge_out", finish - skew, sample.recv, Some(root));
    }

    // Counters at the same boundaries, inside the window on the head clock.
    let inside = |now_us: u64| {
        let t = secs(now_us) - skew;
        (0.0..=window_secs).contains(&t)
    };
    let (mut evictions, mut rejected, mut coalesced, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    let (mut assigned_total, mut queued) = (0u64, Vec::new());
    for event in events {
        match *event {
            TraceEvent::CacheEvict { now, .. } if inside(now.as_micros()) => evictions += 1,
            TraceEvent::Rejected { now, .. } if inside(now.as_micros()) => rejected += 1,
            TraceEvent::Coalesced { now, .. } if inside(now.as_micros()) => coalesced += 1,
            TraceEvent::CycleStart { now, queued: q } if inside(now.as_micros()) => {
                queued.push(q as f64);
            }
            TraceEvent::CycleEnd {
                now, assignments, ..
            } if inside(now.as_micros()) => {
                cycles += 1;
                assigned_total += assignments as u64;
            }
            _ => {}
        }
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("cache.hits", hits as f64, "count"),
        ("cache.misses", misses as f64, "count"),
        (
            "cache.hit_ratio",
            hits as f64 / ((hits + misses) as f64).max(1.0),
            "ratio",
        ),
        ("cache.evictions", evictions as f64, "count"),
        (
            "cache.extra_misses",
            misses as f64 - expected_misses as f64,
            "count",
        ),
        ("node.queue_wait_ms", stats::median(queue_waits), "ms"),
        ("node.exec_ms", stats::median(execs), "ms"),
        ("node.io_ms", stats::median(ios), "ms"),
        (
            "node.busy_share",
            busy / (NODES as f64 * window_secs),
            "ratio",
        ),
        ("sched.cycles", cycles as f64, "count"),
        (
            "sched.assign_per_cycle",
            assigned_total as f64 / (cycles as f64).max(1.0),
            "count",
        ),
        ("runtime.rejected", rejected as f64, "count"),
        ("runtime.coalesced", coalesced as f64, "count"),
    ];
    let stage_columns: [StageColumn; 6] = [
        (
            "stage.cycle_wait_p50_ms",
            "stage.cycle_wait_p95_ms",
            "ms",
            |s| s.cycle_wait * 1e3,
        ),
        (
            "stage.node_queue_p50_ms",
            "stage.node_queue_p95_ms",
            "ms",
            |s| s.node_queue * 1e3,
        ),
        ("stage.io_p50_ms", "stage.io_p95_ms", "ms", |s| s.io * 1e3),
        ("stage.render_p50_ms", "stage.render_p95_ms", "ms", |s| {
            s.render * 1e3
        }),
        ("stage.edge_p50_ms", "stage.edge_p95_ms", "ms", |s| {
            s.edge * 1e3
        }),
        ("stage.sum_err_p50_pct", "stage.sum_err_p95_pct", "%", |s| {
            s.sum_err() * 1e2
        }),
    ];
    for (p50, p95, unit, column) in stage_columns {
        let mut values: Vec<f64> = stages.iter().map(column).collect();
        stats::sort(&mut values);
        metrics.push((p50, quantile(&values, 0.50).value, unit));
        metrics.push((p95, quantile(&values, 0.95).value, unit));
    }
    // What no child span accounts for, as a share of the frame.
    let mut unattributed: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.duration() > 0.0)
        .map(|(i, s)| self_time(&spans, i) / s.duration() * 1e2)
        .collect();
    stats::sort(&mut unattributed);
    metrics.push((
        "stage.unattributed_p50_pct",
        quantile(&unattributed, 0.5).value,
        "%",
    ));

    Waterfall {
        spans,
        metrics,
        jobs_per_cycle: (stats::median(queued).round() as usize).max(1),
    }
}

/// The spans of the first `max_frames` frames as a JSON document.
pub fn spans_json(workload: &str, spans: &[Span], max_frames: usize) -> Json {
    let mut roots = 0usize;
    let mut rows = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        if span.parent.is_none() {
            roots += 1;
            if roots > max_frames {
                break;
            }
        }
        rows.push(obj([
            ("id", Json::Int(id as u64)),
            ("request", Json::Int(span.request_id)),
            ("name", Json::Str(span.name.into())),
            ("start_s", Json::Num(span.start)),
            ("end_s", Json::Num(span.end)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
            ),
        ]));
    }
    obj([
        ("workload", Json::Str(workload.into())),
        (
            "clock",
            Json::Str("client, seconds since the window opened".into()),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::prelude::{ChunkId, DatasetId, JobId, NodeId, SimDuration, SimTime};

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            request_id: 1,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("frame", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a` by one second: the union covers 1..6.
            span("b", 3.0, 6.0, Some(0)),
            // Sticks out past the parent: only 9..10 counts.
            span("c", 9.0, 12.0, Some(0)),
            // A grandchild is not the root's child.
            span("a.1", 1.0, 2.0, Some(1)),
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert_eq!(self_time(&spans, 2), 3.0);
    }

    #[test]
    fn stages_tile_the_client_latency() {
        let us = SimTime::from_micros;
        let chunk = |c| ChunkId::new(DatasetId(0), c);
        // Head clock runs 1 s ahead of the client's. The request is sent
        // at client 0.100 and issued at head 1.101; cycle at 1.110; task 1
        // is the critical path: queued 5 ms, 20 ms io, 30 ms render.
        let events = vec![
            TraceEvent::Assignment {
                now: us(1_110_000),
                job: JobId(7),
                task: 0,
                chunk: chunk(0),
                node: NodeId(0),
                predicted_start: us(0),
                predicted_exec: SimDuration::ZERO,
                interactive: true,
            },
            TraceEvent::Assignment {
                now: us(1_110_000),
                job: JobId(7),
                task: 1,
                chunk: chunk(1),
                node: NodeId(1),
                predicted_start: us(0),
                predicted_exec: SimDuration::ZERO,
                interactive: true,
            },
            TraceEvent::TaskDone {
                now: us(1_140_000),
                job: JobId(7),
                task: 0,
                chunk: chunk(0),
                node: NodeId(0),
                started: us(1_110_000),
                exec: SimDuration::from_millis(30),
                io: SimDuration::ZERO,
                miss: false,
            },
            TraceEvent::TaskDone {
                now: us(1_165_000),
                job: JobId(7),
                task: 1,
                chunk: chunk(1),
                node: NodeId(1),
                started: us(1_115_000),
                exec: SimDuration::from_millis(50),
                io: SimDuration::from_millis(20),
                miss: true,
            },
            TraceEvent::JobDone {
                now: us(1_165_000),
                job: JobId(7),
                latency: SimDuration::from_millis(64),
            },
        ];
        let sample = Sample {
            request_id: 1,
            interactive: true,
            action: Some(1),
            first: true,
            due: 0.100,
            sent: 0.100,
            recv: 0.168,
            job: 7,
            head_latency: 0.064,
        };
        let w = analyse(&events, &[sample], 1.0, 0);
        // With one frame, every p50 is that frame's value.
        let metric = |name: &str| w.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!((metric("stage.cycle_wait_p50_ms") - 9.0).abs() < 1e-6);
        assert!((metric("stage.node_queue_p50_ms") - 5.0).abs() < 1e-6);
        assert!((metric("stage.io_p50_ms") - 20.0).abs() < 1e-6);
        assert!((metric("stage.render_p50_ms") - 30.0).abs() < 1e-6);
        assert!((metric("stage.edge_p50_ms") - 4.0).abs() < 1e-6);
        assert!(metric("stage.sum_err_p50_pct") < 1e-4);
        // One miss, one hit; the root's children tile the whole frame.
        assert_eq!(metric("cache.hits"), 1.0);
        assert_eq!(metric("cache.misses"), 1.0);
        assert_eq!(w.spans[0].name, "frame");
        assert!(self_time(&w.spans, 0) < 1e-9);
    }
}
