//! Shared experiment plumbing: run a scenario under a set of schedulers and
//! collect per-scheduler reports, plus the overload sweep: every load —
//! a burst overlay at a saturation factor, or a traffic shape — replays
//! from its record under its own admission policy.

use std::sync::Arc;
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::stats::percentile;
use vizsched_metrics::{node_activity, CollectingProbe, SchedulerReport, TraceEvent};
use vizsched_sim::{OverloadPolicy, OverloadStats, RunOptions, SimConfig, Simulation};
use vizsched_workload::{
    heterogeneous_catalog, BurstSpec, FlashCrowdSpec, RecordHeader, Scenario, ScenarioRecord,
    TrafficShape, WorkloadSpec,
};

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

/// The loaded-p99 envelope: under its admission policy, a loaded run's
/// completed-interactive p99 stays within this multiple of its unloaded
/// reference's — the 1× cell for a burst, the crowd-free run for the
/// flash crowd.
pub const P99_ENVELOPE: f64 = 2.0;

/// Workload seed of the sweep's traffic shapes.
pub const TRAFFIC_SEED: u64 = 2012;

/// Nodes of every traffic shape's cluster.
const SHAPE_NODES: usize = 8;

/// ω of every load: the paper's 30 ms.
const CYCLE: SimDuration = SimDuration::from_millis(30);

/// The dedicated base scenario of the overload bursts: an 8-node
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

/// One load of the overload sweep: a job stream, the record header it
/// replays from, and the admission policy of every run of it.
#[derive(Debug)]
pub struct Load {
    /// The offered jobs.
    pub shape: TrafficShape,
    /// ω, cost model, cluster and bricking; its label names the load,
    /// and its policy is set per replay.
    pub header: RecordHeader,
    /// The admission policy.
    pub admission: OverloadPolicy,
}

impl Load {
    /// A traffic shape on its fixed harness: 8 nodes, the eight-node
    /// cost model, 1 GiB datasets bricked at 256 MiB — but mixed tiers
    /// brings its own heterogeneous-disk cluster, and the time-varying
    /// stream gets heterogeneous bricking and a cache half its timestep
    /// history (a cache that fits everything would hide the churn).
    ///
    /// A burst runs under the burst admission policy. A crowd on one hot
    /// dataset queues faster than a spread burst, so the flash crowd's
    /// policy caps in-flight frames at one cycle of cluster work and one
    /// per user, and expires anything buffered past one cycle. The other
    /// shapes run unpoliced, like the Table II comparisons.
    pub fn shape(name: &str, shape: TrafficShape) -> Load {
        const GIB: u64 = 1 << 30;
        let chunk_max = 256 << 20;
        let uniform = |count: u32| {
            Catalog::new(
                uniform_datasets(count, GIB),
                DecompositionPolicy::MaxChunkSize {
                    max_bytes: chunk_max,
                },
            )
        };
        let homogeneous = ClusterSpec::homogeneous(SHAPE_NODES, 2 * GIB);
        let unpoliced = OverloadPolicy::default();
        let (cluster, catalog, admission) = match &shape {
            TrafficShape::MixedTiers(spec) => (
                spec.cluster(SHAPE_NODES, 2 * GIB),
                uniform(spec.workload.dataset_count),
                unpoliced,
            ),
            TrafficShape::TimeVarying(spec) => (
                ClusterSpec::homogeneous(SHAPE_NODES, GIB),
                heterogeneous_catalog(spec.timesteps, 2 * GIB, chunk_max, spec.seed),
                unpoliced,
            ),
            TrafficShape::Diurnal(s) => (homogeneous, uniform(s.dataset_count), unpoliced),
            TrafficShape::CameraPath(s) => (homogeneous, uniform(s.dataset_count), unpoliced),
            TrafficShape::FlashCrowd(s) => (
                homogeneous,
                uniform(s.dataset_count),
                OverloadPolicy {
                    max_in_flight: Some(SHAPE_NODES),
                    max_per_user: Some(1),
                    deadline: Some(CYCLE),
                    coalesce_interactive: true,
                    batch_escalation_age: None,
                },
            ),
            TrafficShape::Burst(s) => (
                homogeneous,
                uniform(s.base.dataset_count),
                burst_admission(&s.base, SHAPE_NODES),
            ),
        };
        let header = RecordHeader::new(
            name,
            TRAFFIC_SEED,
            "",
            CYCLE,
            CostParams::eight_node_cluster(),
            cluster,
            &catalog,
        );
        Load {
            shape,
            header,
            admission,
        }
    }

    /// The load's name: `<factor>x` for a burst of the overload
    /// scenario, the shape's name otherwise.
    pub fn name(&self) -> &str {
        &self.header.label
    }

    /// The offered jobs serialized onto the record format under `kind`.
    pub fn record(&self, kind: SchedulerKind) -> ScenarioRecord {
        let mut header = self.header.clone();
        header.policy = kind.name().into();
        self.shape.to_record(header)
    }
}

/// The admission policy of a burst over `base` on `nodes` nodes:
/// in-flight caps bound the node queues (4 cycles of work globally, a
/// handful of frames per user), stale interactive frames coalesce, and
/// buffered frames expire after two cycles. The batch escalation age is
/// an *anti-starvation* bound, not a latency target — the ε rule already
/// drains deferred batch through interactive lulls, so the bound sits at
/// an eighth of the run, far above the natural drain time (escalating
/// early would flood the interactive pass with the very backlog the
/// deferral exists to keep out of it).
fn burst_admission(base: &WorkloadSpec, nodes: usize) -> OverloadPolicy {
    OverloadPolicy {
        max_in_flight: Some(4 * nodes),
        max_per_user: Some(4),
        deadline: Some(base.interactive.period * 2),
        coalesce_interactive: true,
        batch_escalation_age: Some(base.length / 8),
    }
}

/// The burst load realizing saturation `factor` over `scenario`, on the
/// scenario's own cluster, cost model and bricking: extra full-length
/// users requesting at a third of the base period (faster than the
/// scheduling cycle, so same-action frames pile up and coalescing has
/// work to do), active over the middle half of the run. Factor 1 is the
/// unloaded reference — an overlay with no extra users.
pub fn burst_for(scenario: &Scenario, factor: u32) -> Load {
    let base_period = scenario.workload.interactive.period;
    let slots = scenario.workload.interactive.slots;
    // Each burst slot requests base_period/period = 3x as fast as a base
    // slot; size the overlay so the windowed request rate is factor x base.
    let extra_slots = (factor.saturating_sub(1) * slots).div_ceil(3);
    let length = scenario.workload.length;
    let shape = TrafficShape::Burst(BurstSpec {
        base: scenario.workload,
        extra_slots,
        window_start: length / 4,
        window: length / 2,
        period: base_period / 3,
        seed: scenario.workload.seed ^ 0xb0057,
    });
    let header = RecordHeader::new(
        &format!("{factor}x"),
        scenario.workload.seed,
        "",
        CYCLE,
        scenario.cost,
        scenario.cluster.clone(),
        &scenario.catalog(),
    );
    Load {
        shape,
        header,
        admission: burst_admission(&scenario.workload, scenario.cluster.len()),
    }
}

/// The sweep's loads: a burst of `scenario` at each factor, then every
/// demo traffic shape, the flash crowd preceded by its crowd-free
/// reference (`crowd_free`, the background population alone under the
/// same admission policy, so the pair isolates what the crowd costs).
pub fn sweep_loads(scenario: &Scenario, factors: &[u32]) -> Vec<Load> {
    let mut loads: Vec<Load> = factors.iter().map(|&f| burst_for(scenario, f)).collect();
    for shape in TrafficShape::demo_suite(TRAFFIC_SEED) {
        if let TrafficShape::FlashCrowd(spec) = shape {
            let crowd_free = FlashCrowdSpec {
                crowd_users: 0,
                ..spec
            };
            loads.push(Load::shape(
                "crowd_free",
                TrafficShape::FlashCrowd(crowd_free),
            ));
        }
        loads.push(Load::shape(shape.name(), shape));
    }
    loads
}

/// Per-shard load view of one cell, from a sharded twin run of the same
/// offered jobs. The starvation indicator is the longest contiguous idle
/// gap of any node inside the shard (a shard the router under-feeds
/// shows up here long before utilization averages move); the
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

/// One scheduler's run of one load.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The scheduling policy of the run.
    pub scheduler: SchedulerKind,
    /// Jobs offered to the head.
    pub offered_jobs: usize,
    /// Admission-control counters for the run.
    pub overload: OverloadStats,
    /// Fraction of offered jobs shed before reaching a render node.
    pub shed_rate: f64,
    /// Interactive jobs that rendered to completion.
    pub interactive_completed: usize,
    /// p99 issue-to-finish latency over completed interactive jobs, ms.
    pub interactive_p99_ms: f64,
    /// Mean interactive latency, ms.
    pub interactive_mean_ms: f64,
    /// Fraction of tasks whose chunk was already resident.
    pub hit_rate: f64,
    /// Batch jobs admitted past the caps (never coalesced or expired —
    /// both only apply to interactive frames).
    pub batch_admitted: usize,
    /// Batch jobs that rendered to completion.
    pub batch_completed: usize,
    /// Largest issue-to-start delay over admitted batch jobs, ms — the
    /// anti-starvation bound caps this.
    pub max_batch_start_delay_ms: f64,
    /// One per-shard view per requested twin shard count, in order, each
    /// from a sharded run of the same offered jobs. The fields above come
    /// from the single-head run alone.
    pub twins: Vec<Vec<ShardLoad>>,
}

/// Replay `load` from its record under `kind` and its admission policy:
/// once single-head, which gives the cell's counters, and once more
/// sharded per count in `twins`, which gives the cell one [`ShardLoad`]
/// breakdown per count.
pub fn run_cell(load: &Load, kind: SchedulerKind, twins: &[usize]) -> Cell {
    let record = load.record(kind);
    let twins = twins
        .iter()
        .map(|&shards| shard_loads(&record, kind, load.admission, shards))
        .collect();
    let (sim, opts) = replay_of(&record, kind);
    let outcome = sim.run_opts(record.jobs().to_vec(), opts.overload(load.admission));
    let report = SchedulerReport::from_run(&outcome.record);
    // Shed jobs never enter the record, so every recorded job was
    // admitted; completed ones have a finish time.
    let mut interactive_ms: Vec<f64> = outcome
        .record
        .interactive_jobs()
        .filter_map(|j| j.timing.latency())
        .map(|l| l.as_millis_f64())
        .collect();
    let batch = || outcome.record.batch_jobs();
    let offered = record.jobs().len();
    Cell {
        scheduler: kind,
        offered_jobs: offered,
        overload: outcome.overload,
        shed_rate: outcome.overload.shed() as f64 / offered as f64,
        interactive_completed: interactive_ms.len(),
        interactive_p99_ms: p99(&mut interactive_ms),
        interactive_mean_ms: report.interactive_latency.mean * 1_000.0,
        hit_rate: report.hit_rate,
        batch_admitted: batch().count(),
        batch_completed: batch().filter(|j| j.is_complete()).count(),
        max_batch_start_delay_ms: batch()
            .filter_map(|j| Some((j.timing.start? - j.timing.issue).as_millis_f64()))
            .fold(0.0, f64::max),
        twins,
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

/// Replay `record` sharded and reduce the trace to per-shard starvation
/// (longest idle gap of any node in the shard) and fragmentation (hottest
/// node over the shard's per-node mean) stats.
fn shard_loads(
    record: &ScenarioRecord,
    kind: SchedulerKind,
    admission: OverloadPolicy,
    shards: usize,
) -> Vec<ShardLoad> {
    let probe = Arc::new(CollectingProbe::new());
    let (sim, opts) = replay_of(record, kind);
    let outcome = sim.run_opts(
        record.jobs().to_vec(),
        opts.overload(admission).shards(shards).probe(probe.clone()),
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
        let TrafficShape::Burst(b1) = burst_for(&s, 1).shape else {
            panic!("a burst load")
        };
        assert_eq!(b1.extra_slots, 0, "1x is the identity overlay");
        let TrafficShape::Burst(b4) = burst_for(&s, 4).shape else {
            panic!("a burst load")
        };
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
    /// interactive p99 stays within the envelope of the unloaded p99, and
    /// every admitted batch job completes within the anti-starvation
    /// bound.
    #[test]
    fn four_x_saturation_is_survivable() {
        let s = small_scenario();
        let [unloaded, loaded] =
            [1, 4].map(|f| run_cell(&burst_for(&s, f), SchedulerKind::Ours, &[2]));

        // The sharded twin run yields a per-shard breakdown that covers
        // the whole cluster and accounts for every routed job.
        for cell in [&unloaded, &loaded] {
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
            loaded.interactive_p99_ms <= P99_ENVELOPE * unloaded.interactive_p99_ms,
            "4x p99 {} ms vs unloaded {} ms",
            loaded.interactive_p99_ms,
            unloaded.interactive_p99_ms
        );

        // Admission is a promise: every admitted batch job completes, and
        // none waits past the escalation bound plus one cycle of slack.
        assert_eq!(loaded.batch_completed, loaded.batch_admitted);
        assert!(loaded.batch_admitted > 0, "scenario must carry batch work");
        let bound_ms = burst_for(&s, 4)
            .admission
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
        // `{:?}` prints every f64 to its shortest round-trip text, so equal
        // strings are equal values, field for field.
        let headline = |c: &Cell| {
            format!(
                "{:?}",
                Cell {
                    twins: Vec::new(),
                    ..c.clone()
                }
            )
        };
        for factor in [1, 4] {
            let load = burst_for(&s, factor);
            let bare = run_cell(&load, SchedulerKind::Ours, &[]);
            let twinned = run_cell(&load, SchedulerKind::Ours, &[2, 4]);
            assert!(bare.twins.is_empty());
            let counts: Vec<usize> = twinned.twins.iter().map(Vec::len).collect();
            assert_eq!(counts, [2, 4], "one view per twin, one row per shard");
            assert_eq!(headline(&bare), headline(&twinned), "{factor}x cell");
        }
    }

    /// The policy-family acceptance bar: at 4x saturation the
    /// multi-objective scorer must shorten the longest batch starvation
    /// gap and level the hottest shard relative to OURS — its
    /// starvation-age term routes batch at long-idle nodes instead of
    /// parking it behind the ε gate — while keeping completed interactive
    /// p99 within the same envelope of unloaded OURS is held to.
    #[test]
    fn mobj_beats_ours_on_starvation_and_imbalance_at_4x() {
        // A shortened run of the committed sweep's own scenario (8 nodes,
        // 4 shards): the small test scenario caches every dataset on
        // every node, which leaves the objective vector nothing to trade.
        let s = overload_scenario().shortened(SimDuration::from_secs(12));
        let (unloaded, loaded) = (burst_for(&s, 1), burst_for(&s, 4));
        let ours = run_cell(&loaded, SchedulerKind::Ours, &[4]);
        let (ours_starve, ours_imbalance) = (
            ours.max_batch_start_delay_ms,
            hottest_shard_imbalance(&ours.twins[0]),
        );
        let mobj = run_cell(&loaded, SchedulerKind::Mobj, &[4]);
        let (starve, imbalance) = (
            mobj.max_batch_start_delay_ms,
            hottest_shard_imbalance(&mobj.twins[0]),
        );
        assert!(
            starve < ours_starve,
            "MOBJ: batch starvation gap {starve} ms vs OURS {ours_starve} ms"
        );
        assert!(
            imbalance < ours_imbalance,
            "MOBJ: hottest-shard imbalance {imbalance} vs OURS {ours_imbalance}"
        );
        let unloaded_p99 = run_cell(&unloaded, SchedulerKind::Mobj, &[]).interactive_p99_ms;
        assert!(
            mobj.interactive_p99_ms <= P99_ENVELOPE * unloaded_p99,
            "MOBJ: 4x p99 {} ms vs unloaded {unloaded_p99} ms",
            mobj.interactive_p99_ms,
        );
        assert_eq!(
            mobj.batch_completed, mobj.batch_admitted,
            "MOBJ: every admitted batch job completes"
        );
    }

    /// The flash crowd's bound: under the flash admission policy, OURS'
    /// interactive p99 with the crowd piling on stays within the envelope
    /// of the crowd-free run's.
    #[test]
    fn flash_crowd_p99_stays_inside_the_envelope() {
        let loads = sweep_loads(&overload_scenario(), &[]);
        let p99_of = |name: &str| {
            let load = loads.iter().find(|l| l.name() == name).expect(name);
            assert_eq!(load.admission.max_per_user, Some(1), "{name} runs policed");
            run_cell(load, SchedulerKind::Ours, &[]).interactive_p99_ms
        };
        let (crowd, crowd_free) = (p99_of("flash_crowd"), p99_of("crowd_free"));
        assert!(crowd_free > 0.0);
        assert!(
            crowd <= P99_ENVELOPE * crowd_free,
            "flash crowd p99 {crowd} ms vs crowd-free {crowd_free} ms"
        );
    }
}
