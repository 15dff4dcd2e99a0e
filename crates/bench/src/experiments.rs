//! Shared experiment plumbing: run a scenario under a set of schedulers and
//! collect per-scheduler reports, plus the overload experiment (burst
//! overlays at increasing saturation factors under an admission policy).

use std::sync::Arc;
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::stats::percentile;
use vizsched_metrics::{node_activity, CollectingProbe, SchedulerReport, TraceEvent};
use vizsched_sim::{OverloadPolicy, OverloadStats, RunOptions, SimConfig, Simulation};
use vizsched_workload::{BurstSpec, Scenario, ScenarioRecord};

/// The bench's simulator settings: the paper's ω = 30 ms (`SimConfig`'s
/// default), 5 % execution jitter and a warm start.
fn bench_config(cluster: ClusterSpec, cost: CostParams) -> SimConfig {
    let mut config = SimConfig::new(cluster, cost);
    config.exec_jitter = 0.05;
    config.warm_start = true;
    config
}

/// Build the simulation for a scenario.
pub fn simulation_for(scenario: &Scenario) -> Simulation {
    let config = bench_config(scenario.cluster.clone(), scenario.cost);
    Simulation::new(config, scenario.datasets(), scenario.chunk_max)
}

/// Replay `record` under `kind`: the bench settings at the recorded ω over
/// the recorded cluster and cost model, on the recorded bricking, with
/// the recorded faults, under the label `<label>-replay`. Run
/// `record.jobs()` with these options.
pub fn replay_of(record: &ScenarioRecord, kind: SchedulerKind) -> (Simulation, RunOptions) {
    let h = &record.header;
    let mut config = bench_config(h.cluster.clone(), h.cost);
    config.cycle = h.cycle;
    let opts = RunOptions::new(kind)
        .label(&format!("{}-replay", h.label))
        .fault_plan(record.faults.iter().copied().collect());
    (Simulation::with_catalog(config, record.catalog()), opts)
}

/// Run `schedulers` over `scenario` and aggregate each run: one report
/// per scheduler, in the order requested.
pub fn run_scenario(scenario: &Scenario, schedulers: &[SchedulerKind]) -> Vec<SchedulerReport> {
    let sim = simulation_for(scenario);
    let jobs = scenario.jobs();
    let run = |&kind| sim.run_opts(jobs.clone(), RunOptions::new(kind).label(&scenario.label));
    schedulers
        .iter()
        .map(|kind| SchedulerReport::from_run(&run(kind).record))
        .collect()
}

/// The dedicated base scenario of the overload experiment: an 8-node
/// cluster that comfortably keeps up with the base load (all data
/// memory-resident after warm-up, interactive latency in the tens of
/// milliseconds), so the 1× cell is a meaningful unloaded reference. The
/// Table II scenarios are unsuitable here — scenarios 2–4 deliberately
/// churn datasets until interactive latency sits at seconds with dozens
/// of frames pipelined per user, an operating point where per-user
/// admission caps are the wrong tool and "2× unloaded p99" means nothing.
pub fn overload_scenario() -> Scenario {
    Scenario::sweep(
        "overload",
        8,
        2 << 30,
        8,
        1 << 30,
        8,
        SimDuration::from_secs(60),
        8,
        2012,
    )
}

/// Per-shard load view of one overload cell, from a sharded twin run of
/// the same offered jobs. The starvation indicator is the longest
/// contiguous idle gap of any node inside the shard (a shard the router
/// under-feeds shows up here long before utilization averages move); the
/// fragmentation indicator is the within-shard task imbalance (hottest
/// node over the shard mean — 1.0 is perfectly level, large values mean
/// the shard's capacity is fragmented across nodes the placement cannot
/// use).
#[derive(Clone, Debug)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: u32,
    /// Nodes in the shard's slice.
    pub nodes: u32,
    /// Jobs the routing tier assigned to this shard.
    pub assigned: u64,
    /// Batch jobs stolen by this shard from saturated peers.
    pub migrated_in: u64,
    /// Batch jobs stolen from this shard while saturated.
    pub migrated_out: u64,
    /// Cycle boundaries at which this shard was saturated.
    pub saturations: u64,
    /// Jobs this shard's admission control shed.
    pub shed: u64,
    /// Tasks executed across the shard's nodes.
    pub tasks: u64,
    /// Longest contiguous idle gap of any node in the shard, ms.
    pub longest_idle_ms: f64,
    /// Hottest node's task count over the shard's per-node mean.
    pub imbalance: f64,
}

/// One load level of the overload experiment.
#[derive(Clone, Debug)]
pub struct OverloadCell {
    /// Saturation factor (interactive request rate during the burst
    /// window as a multiple of the base rate).
    pub factor: u32,
    /// Jobs offered to the head (base workload + burst overlay).
    pub offered_jobs: usize,
    /// Admission-control counters for the run.
    pub overload: OverloadStats,
    /// Fraction of offered jobs shed before reaching a render node.
    pub shed_rate: f64,
    /// Interactive jobs that rendered to completion.
    pub interactive_completed: usize,
    /// p99 issue-to-finish latency over completed interactive jobs, ms.
    pub interactive_p99_ms: f64,
    /// Batch jobs admitted past the caps (never coalesced or expired —
    /// both only apply to interactive frames).
    pub batch_admitted: usize,
    /// Batch jobs that rendered to completion.
    pub batch_completed: usize,
    /// Largest issue-to-start delay over admitted batch jobs, ms — the
    /// anti-starvation bound caps this.
    pub max_batch_start_delay_ms: f64,
    /// One per-shard starvation/fragmentation view per requested twin
    /// shard count, in order, each from a sharded twin run of the same
    /// offered jobs (a view's length is its shard count). The cell's own
    /// counters above always come from the single-head run, so the twins
    /// never perturb the headline numbers.
    pub twins: Vec<Vec<ShardLoad>>,
}

/// The full overload sweep for one scenario.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// The scheduling policy every cell ran under (the sweep races
    /// OURS against the policy-family members on identical offered jobs).
    pub scheduler: SchedulerKind,
    /// The admission policy every cell ran under.
    pub policy: OverloadPolicy,
    /// p99 interactive latency of the 1× (no-burst) cell, ms.
    pub unloaded_p99_ms: f64,
    /// One cell per requested factor, in order.
    pub cells: Vec<OverloadCell>,
}

/// The admission policy used by the overload experiment, sized for
/// `scenario`: in-flight caps bound the node queues (4 cycles of work
/// globally, a handful of frames per user), stale interactive frames
/// coalesce, and buffered frames expire after two cycles. The batch
/// escalation age is an *anti-starvation* bound, not a latency target —
/// the ε rule already drains deferred batch through interactive lulls, so
/// the bound sits at an eighth of the run, far above the natural drain
/// time (escalating early would flood the interactive pass with the very
/// backlog the deferral exists to keep out of it).
pub fn overload_policy_for(scenario: &Scenario) -> OverloadPolicy {
    let cycle = scenario.workload.interactive.period;
    OverloadPolicy {
        max_in_flight: Some(4 * scenario.cluster.len()),
        max_per_user: Some(4),
        deadline: Some(cycle * 2),
        coalesce_interactive: true,
        batch_escalation_age: Some(scenario.workload.length / 8),
    }
}

/// The burst overlay realizing saturation `factor` over `scenario`: extra
/// full-length users requesting at a third of the base period (faster than
/// the scheduling cycle, so same-action frames pile up and coalescing has
/// work to do), active over the middle half of the run. Factor 1 is the
/// unloaded reference — no overlay.
pub fn burst_for(scenario: &Scenario, factor: u32) -> Option<BurstSpec> {
    if factor <= 1 {
        return None;
    }
    let base_period = scenario.workload.interactive.period;
    let period = base_period / 3;
    let slots = scenario.workload.interactive.slots;
    // Each burst slot requests base_period/period = 3x as fast as a base
    // slot; size the overlay so the windowed request rate is factor x base.
    let extra = ((factor - 1) * slots).div_ceil(3).max(1);
    let length = scenario.workload.length;
    Some(BurstSpec {
        extra_slots: extra,
        window_start: length / 4,
        window: length / 2,
        period,
        seed: scenario.workload.seed ^ 0xb0057,
    })
}

/// Run the overload sweep: `kind` over `scenario` plus a burst overlay at
/// each factor, under `policy`. The first factor should be 1 (the
/// unloaded p99 reference comes from the first cell). Each factor runs
/// once single-head, and once more sharded per count in `twins`, which
/// gives the cell one [`ShardLoad`] breakdown per count — the headline
/// counters stay single-head, so they do not depend on the twins.
pub fn run_overload(
    scenario: &Scenario,
    kind: SchedulerKind,
    factors: &[u32],
    policy: OverloadPolicy,
    twins: &[usize],
) -> OverloadReport {
    let sim = simulation_for(scenario);
    let base = scenario.jobs();
    let mut cells = Vec::with_capacity(factors.len());
    for &factor in factors {
        let jobs = match burst_for(scenario, factor) {
            Some(burst) => burst.overlay(&base, scenario.workload.dataset_count),
            None => base.clone(),
        };
        let offered = jobs.len();
        let label = format!("{}-overload-{factor}x", scenario.label);
        let twins = twins
            .iter()
            .map(|&shards| shard_loads(&sim, jobs.clone(), kind, &label, policy, shards))
            .collect();
        let outcome = sim.run_opts(jobs, RunOptions::new(kind).label(&label).overload(policy));
        // Shed jobs never enter the record, so every recorded job was
        // admitted; completed ones have a finish time.
        let mut interactive_ms: Vec<f64> = outcome
            .record
            .interactive_jobs()
            .filter_map(|j| j.timing.latency())
            .map(|l| l.as_millis_f64())
            .collect();
        let batch_admitted = outcome.record.batch_jobs().count();
        let batch_completed = outcome
            .record
            .batch_jobs()
            .filter(|j| j.is_complete())
            .count();
        let max_batch_start_delay_ms = outcome
            .record
            .batch_jobs()
            .filter_map(|j| Some((j.timing.start? - j.timing.issue).as_millis_f64()))
            .fold(0.0, f64::max);
        cells.push(OverloadCell {
            factor,
            offered_jobs: offered,
            overload: outcome.overload,
            shed_rate: outcome.overload.shed() as f64 / offered as f64,
            interactive_completed: interactive_ms.len(),
            interactive_p99_ms: p99(&mut interactive_ms),
            batch_admitted,
            batch_completed,
            max_batch_start_delay_ms,
            twins,
        });
    }
    let unloaded_p99_ms = cells.first().map(|c| c.interactive_p99_ms).unwrap_or(0.0);
    OverloadReport {
        scheduler: kind,
        policy,
        unloaded_p99_ms,
        cells,
    }
}

/// The hottest-shard imbalance of one twin view: the hottest shard's
/// executed-task count over the mean shard's, 1.0 when the routing and
/// placement level the shards perfectly, 0 for an empty view. (The
/// per-shard [`ShardLoad::imbalance`] is the complementary *within*-shard
/// view.)
pub fn hottest_shard_imbalance(twin: &[ShardLoad]) -> f64 {
    let hottest = twin.iter().map(|s| s.tasks).max().unwrap_or(0);
    let mean = twin.iter().map(|s| s.tasks).sum::<u64>() as f64 / twin.len().max(1) as f64;
    if mean > 0.0 {
        hottest as f64 / mean
    } else {
        0.0
    }
}

/// Run one cell's jobs sharded and reduce the trace to per-shard
/// starvation (longest idle gap of any node in the shard) and
/// fragmentation (hottest node over the shard's per-node mean) stats.
fn shard_loads(
    sim: &Simulation,
    jobs: Vec<vizsched_core::job::Job>,
    kind: SchedulerKind,
    label: &str,
    policy: OverloadPolicy,
    shards: usize,
) -> Vec<ShardLoad> {
    let probe = Arc::new(CollectingProbe::new());
    let outcome = sim.run_opts(
        jobs,
        RunOptions::new(kind)
            .label(&format!("{label}-{shards}shards"))
            .overload(policy)
            .shards(shards)
            .probe(probe.clone()),
    );
    let events = probe.take();
    let horizon = events.last().map(TraceEvent::time).unwrap_or_default();
    let nodes: usize = outcome.per_shard.iter().map(|s| s.nodes as usize).sum();
    let activity = node_activity(&events, nodes, horizon);
    outcome
        .per_shard
        .iter()
        .map(|s| {
            let span = &activity[s.base as usize..(s.base + s.nodes) as usize];
            let tasks: u64 = span.iter().map(|a| a.tasks).sum();
            let hottest = span.iter().map(|a| a.tasks).max().unwrap_or(0);
            let mean = tasks as f64 / span.len().max(1) as f64;
            ShardLoad {
                shard: s.shard.0,
                nodes: s.nodes,
                assigned: s.assigned,
                migrated_in: s.migrated_in,
                migrated_out: s.migrated_out,
                saturations: s.saturations,
                shed: s.overload.shed(),
                tasks,
                longest_idle_ms: span
                    .iter()
                    .map(|a| a.longest_idle.as_millis_f64())
                    .fold(0.0, f64::max),
                imbalance: if tasks == 0 {
                    0.0
                } else {
                    hottest as f64 / mean
                },
            }
        })
        .collect()
}

/// The 99th-percentile of `values` (sorted in place); 0 when empty.
pub fn p99(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    percentile(values, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but genuinely saturating configuration: 4 nodes, a base
    /// load the cluster keeps up with, and a 4x burst it cannot.
    fn small_scenario() -> Scenario {
        Scenario::sweep(
            "overload-test",
            4,
            1 << 30,
            4,
            256 << 20,
            4,
            SimDuration::from_secs(8),
            2,
            7,
        )
    }

    #[test]
    fn p99_picks_the_right_rank() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(p99(&mut v), 99.0);
        let mut w = vec![5.0, 1.0, 3.0];
        assert_eq!(p99(&mut w), 5.0);
        assert_eq!(p99(&mut []), 0.0);
    }

    #[test]
    fn burst_rate_matches_factor() {
        let s = small_scenario();
        assert!(burst_for(&s, 1).is_none());
        let b4 = burst_for(&s, 4).expect("4x bursts");
        // 4 base slots at 30 ms = 133 req/s; the overlay must add ~3x
        // that during its window.
        let base_rate = 4.0 / 0.030;
        let extra_rate = b4.extra_slots as f64 / b4.period.as_secs_f64();
        assert!(
            (extra_rate - 3.0 * base_rate).abs() / (3.0 * base_rate) < 0.1,
            "extra {extra_rate} vs wanted {}",
            3.0 * base_rate
        );
        assert!(b4.period < s.workload.interactive.period);
    }

    /// The acceptance criteria of the overload design: under 4x
    /// saturation the policy sheds (bounded queues), completed
    /// interactive p99 stays within 2x the unloaded p99, and every
    /// admitted batch job completes within the anti-starvation bound.
    #[test]
    fn four_x_saturation_is_survivable() {
        let s = small_scenario();
        let policy = overload_policy_for(&s);
        let report = run_overload(&s, SchedulerKind::Ours, &[1, 4], policy, &[2]);
        let unloaded = &report.cells[0];
        let loaded = &report.cells[1];

        // The sharded twin run yields a per-shard breakdown that covers
        // the whole cluster and accounts for every routed job.
        for cell in &report.cells {
            let [per_shard] = &cell.twins[..] else {
                panic!("one twin per cell")
            };
            assert_eq!(per_shard.len(), 2);
            assert_eq!(
                per_shard.iter().map(|sh| sh.nodes).sum::<u32>() as usize,
                s.cluster.len()
            );
            let assigned: u64 = per_shard.iter().map(|sh| sh.assigned).sum();
            assert!(
                assigned >= cell.offered_jobs as u64,
                "routing saw every job"
            );
            for sh in per_shard {
                assert!(sh.tasks > 0, "shard {} never executed a task", sh.shard);
                assert!(sh.imbalance >= 1.0, "imbalance is hottest/mean");
                assert!(sh.longest_idle_ms >= 0.0);
            }
        }

        // The reference cell is genuinely unloaded...
        assert_eq!(unloaded.overload.shed(), 0, "1x must not shed");
        assert!(unloaded.interactive_p99_ms > 0.0);
        // ...and the 4x cell is genuinely overloaded: the policy sheds
        // rather than letting queues grow without bound.
        assert!(
            loaded.overload.shed() > 0,
            "4x saturation must shed: {:?}",
            loaded.overload
        );
        assert!(
            loaded.overload.coalesced > 0,
            "burst frames outpace the cycle; coalescing must fire"
        );

        // Interactive latency stays bounded for the frames that do render.
        assert!(
            loaded.interactive_p99_ms <= 2.0 * report.unloaded_p99_ms,
            "4x p99 {} ms vs unloaded {} ms",
            loaded.interactive_p99_ms,
            report.unloaded_p99_ms
        );

        // Admission is a promise: every admitted batch job completes, and
        // none waits past the escalation bound plus one cycle of slack.
        assert_eq!(loaded.batch_completed, loaded.batch_admitted);
        assert!(loaded.batch_admitted > 0, "scenario must carry batch work");
        let bound_ms = policy
            .batch_escalation_age
            .expect("policy escalates")
            .as_millis_f64()
            + 2.0 * s.workload.interactive.period.as_millis_f64();
        assert!(
            loaded.max_batch_start_delay_ms <= bound_ms,
            "batch start delay {} ms exceeds bound {} ms",
            loaded.max_batch_start_delay_ms,
            bound_ms
        );
    }

    /// The twins are extra runs beside the headline, not inputs to it:
    /// every single-head field of every cell is the same with no twin as
    /// with a 2- and a 4-shard twin, so a table may print it once for all
    /// twin counts.
    #[test]
    fn twins_do_not_perturb_the_headline() {
        let s = small_scenario();
        let policy = overload_policy_for(&s);
        let bare = run_overload(&s, SchedulerKind::Ours, &[1, 4], policy, &[]);
        let twinned = run_overload(&s, SchedulerKind::Ours, &[1, 4], policy, &[2, 4]);
        assert_eq!(bare.unloaded_p99_ms, twinned.unloaded_p99_ms);
        assert_eq!(bare.cells.len(), twinned.cells.len());
        // `{:?}` prints every f64 to its shortest round-trip text, so equal
        // strings are equal values, field for field.
        let headline = |c: &OverloadCell| {
            format!(
                "{:?}",
                OverloadCell {
                    twins: Vec::new(),
                    ..c.clone()
                }
            )
        };
        for (a, b) in bare.cells.iter().zip(&twinned.cells) {
            assert!(a.twins.is_empty());
            let counts: Vec<usize> = b.twins.iter().map(Vec::len).collect();
            assert_eq!(counts, [2, 4], "one view per twin, one row per shard");
            assert_eq!(headline(a), headline(b), "{}x cell", a.factor);
        }
    }

    /// The policy-family acceptance bar: at 4x saturation the
    /// multi-objective scorer must shorten the longest batch starvation
    /// gap and level the hottest shard relative to OURS — its
    /// starvation-age term routes batch at long-idle nodes instead of
    /// parking it behind the ε gate — while keeping completed interactive
    /// p99 within the same 2x-of-unloaded envelope OURS is held to.
    #[test]
    fn mobj_beats_ours_on_starvation_and_imbalance_at_4x() {
        // A shortened run of the committed sweep's own scenario (8 nodes,
        // 4 shards): the small test scenario caches every dataset on
        // every node, which leaves the objective vector nothing to trade.
        let s = overload_scenario().shortened(SimDuration::from_secs(12));
        let policy = overload_policy_for(&s);
        let ours = run_overload(&s, SchedulerKind::Ours, &[1, 4], policy, &[4]);
        let (ours_starve, ours_imbalance) = (
            ours.cells[1].max_batch_start_delay_ms,
            hottest_shard_imbalance(&ours.cells[1].twins[0]),
        );
        let report = run_overload(&s, SchedulerKind::Mobj, &[1, 4], policy, &[4]);
        let loaded = &report.cells[1];
        let (starve, imbalance) = (
            loaded.max_batch_start_delay_ms,
            hottest_shard_imbalance(&loaded.twins[0]),
        );
        assert!(
            starve < ours_starve,
            "MOBJ: batch starvation gap {starve} ms vs OURS {ours_starve} ms"
        );
        assert!(
            imbalance < ours_imbalance,
            "MOBJ: hottest-shard imbalance {imbalance} vs OURS {ours_imbalance}"
        );
        assert!(
            loaded.interactive_p99_ms <= 2.0 * report.unloaded_p99_ms,
            "MOBJ: 4x p99 {} ms vs unloaded {} ms",
            loaded.interactive_p99_ms,
            report.unloaded_p99_ms
        );
        assert_eq!(
            loaded.batch_completed, loaded.batch_admitted,
            "MOBJ: every admitted batch job completes"
        );
    }
}
