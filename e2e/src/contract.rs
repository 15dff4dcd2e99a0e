//! The metric names, units, directions and bounds this binary reports —
//! the same table `BENCHMARK.json` commits (a test holds the two
//! together).

/// One gated end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse.
    pub bound: f64,
}

impl Gate {
    /// How much worse `now` is than `reference`, as a share of
    /// `reference` (negative when better).
    pub fn worsening(&self, reference: f64, now: f64) -> f64 {
        let change = (now - reference) / reference.abs().max(f64::MIN_POSITIVE);
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Gate {
    Gate {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Gate {
    Gate {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// What a user of the service sees, reported by every workload with
/// tracing off.
///
/// Every bound is the contract's ceiling of 25 %. The reference box slows
/// by 15-30 % for minutes at a time (README, "Steadiness"), and a bound
/// inside the box's own noise would only report that noise. For the same
/// reason the tail latency and the CPU cost per frame — which follow such
/// a phase one for one, or amplified by queueing — are reported by every
/// run but carry no bound: they are `client.frame_p90_ms` and
/// `client.cpu_ms_per_frame` of the per-layer set.
pub const END_TO_END: [Gate; 4] = [
    lower("frame_p50_ms", "ms", 0.25),
    higher("delivered_fps", "frames/s", 0.25),
    higher("action_fps_p50", "frames/s", 0.25),
    lower("setup_s", "s", 0.25),
];

/// What single layers do, reported by every workload's traced twin:
/// `(name, unit, better)`. They carry no bound.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("render.brick_ms", "ms", "lower"),
    ("render.coverage", "ratio", "higher"),
    ("composite.frame_ms", "ms", "lower"),
    ("storage.load_ms", "ms", "lower"),
    ("storage.load_mb_s", "MB/s", "higher"),
    ("storage.load_throttled_ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.extra_misses", "count", "lower"),
    ("node.queue_wait_ms", "ms", "lower"),
    ("node.exec_ms", "ms", "lower"),
    ("node.io_ms", "ms", "lower"),
    ("node.busy_share", "ratio", "lower"),
    ("sched.schedule_us", "us", "lower"),
    ("sched.assign_per_cycle", "count", "higher"),
    ("sched.cycles", "count", "lower"),
    ("runtime.admit_us", "us", "lower"),
    ("runtime.cycle_us", "us", "lower"),
    ("runtime.task_done_us", "us", "lower"),
    ("runtime.rejected", "count", "lower"),
    ("runtime.coalesced", "count", "lower"),
    ("routing.lookup_ns", "ns", "lower"),
    ("routing.shard_imbalance", "ratio", "lower"),
    ("codec.encode_frame_us", "us", "lower"),
    ("codec.decode_frame_us", "us", "lower"),
    ("codec.request_ns", "ns", "lower"),
    ("codec.frame_bytes", "bytes", "lower"),
    ("tcp.echo_rtt_us", "us", "lower"),
    ("head.inproc_frame_ms", "ms", "lower"),
    ("stage.cycle_wait_p50_ms", "ms", "lower"),
    ("stage.cycle_wait_p95_ms", "ms", "lower"),
    ("stage.node_queue_p50_ms", "ms", "lower"),
    ("stage.node_queue_p95_ms", "ms", "lower"),
    ("stage.io_p50_ms", "ms", "lower"),
    ("stage.io_p95_ms", "ms", "lower"),
    ("stage.render_p50_ms", "ms", "lower"),
    ("stage.render_p95_ms", "ms", "lower"),
    ("stage.edge_p50_ms", "ms", "lower"),
    ("stage.edge_p95_ms", "ms", "lower"),
    ("stage.sum_err_p50_pct", "%", "lower"),
    ("stage.sum_err_p95_pct", "%", "lower"),
    ("stage.unattributed_p50_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.events", "count", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("calib.spin_ms", "ms", "lower"),
    ("mem.peak_rss_mb", "MB", "lower"),
    ("client.frame_p50_ms", "ms", "lower"),
    ("client.frame_p90_ms", "ms", "lower"),
    ("client.cpu_ms_per_frame", "ms", "lower"),
    ("client.first_frame_p50_ms", "ms", "lower"),
    ("client.batch_fps", "frames/s", "higher"),
    ("client.shed_share", "ratio", "lower"),
];

/// `(name, unit)` of every metric a run in the given mode must report,
/// in the order it reports them.
pub fn table(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.iter().map(|g| (g.name, g.unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package. The bench keeps no JSON parser, so the check is textual:
    /// every entry must appear exactly as this table would print it.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_commits_this_table() {
        for gate in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                gate.name,
                gate.unit,
                if gate.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                gate.bound
            );
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        for spec in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
            assert!(spec.why.len() <= 200, "{}: why is too long", spec.name);
        }
        let names = BENCHMARK_JSON.matches("{\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let latency = lower("x", "ms", 0.1);
        let rate = higher("y", "1/s", 0.1);
        assert!((latency.worsening(100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((rate.worsening(100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(rate.worsening(100.0, 110.0) < 0.0);
    }
}
