//! Behavioural tests of the discrete-event engine: timing fidelity to the
//! cost model, table correction, determinism, deferral draining, and fault
//! tolerance.

use std::sync::Arc;
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

fn interactive(id: u64, action: u64, dataset: u32, at: SimTime) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(action as u32),
            action: ActionId(action),
        },
        dataset: DatasetId(dataset),
        issue_time: at,
        frame: FrameParams::default(),
    }
}

fn batch(id: u64, request: u64, dataset: u32, at: SimTime) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Batch {
            user: UserId(900),
            request: BatchId(request),
            frame: 0,
        },
        dataset: DatasetId(dataset),
        issue_time: at,
        frame: FrameParams::default(),
    }
}

fn small_sim() -> Simulation {
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let config = SimConfig::new(cluster, CostParams::default(), 512 * MIB);
    Simulation::new(config, uniform_datasets(2, 2 * GIB))
}

#[test]
fn single_cold_job_latency_matches_cost_model() {
    let sim = small_sim();
    let cost = sim.config().cost;
    let outcome = sim.run_opts(
        vec![interactive(0, 0, 0, SimTime::ZERO)],
        RunOptions::new(SchedulerKind::Fcfs).label("t"),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let job = &outcome.record.jobs[0];
    // 4 cold tasks spread over 4 idle nodes run fully in parallel; the job
    // finishes after exactly one cold task execution (group = 4).
    let expected = cost.task_exec(512 * MIB, false, 4);
    assert_eq!(job.timing.latency(), Some(expected));
    assert_eq!(job.misses, 4);
    assert_eq!(outcome.record.cache_misses, 4);
    assert_eq!(outcome.record.cache_hits, 0);
}

#[test]
fn warm_second_job_runs_in_milliseconds() {
    let sim = small_sim();
    let cost = sim.config().cost;
    let io = cost.io_time(512 * MIB);
    let j0 = interactive(0, 0, 0, SimTime::ZERO);
    // Issue the second job well after the first completes.
    let later = SimTime::ZERO + io * 2;
    let j1 = interactive(1, 0, 0, later);
    let outcome = sim.run_opts(
        vec![j0, j1],
        RunOptions::new(SchedulerKind::Fcfsl).label("t"),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let warm = &outcome.record.jobs[1];
    assert_eq!(warm.misses, 0, "second frame must be all cache hits");
    let expected = cost.task_exec(512 * MIB, true, 4);
    assert_eq!(warm.timing.latency(), Some(expected));
    assert!(expected.as_millis_f64() < 50.0);
}

#[test]
fn estimate_table_learns_from_measurements() {
    // Run on a cluster whose node disks are 2x slower than the cost model
    // claims; the engine must still finish and the measured I/O must exceed
    // the a-priori estimate (visible through job latency).
    let mut cluster = ClusterSpec::homogeneous(2, 2 * GIB);
    for node in &mut cluster.nodes {
        node.disk_scale = 0.5;
    }
    let cost = CostParams::default();
    let config = SimConfig::new(cluster, cost, 512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(1, 2 * GIB));
    let outcome = sim.run_opts(
        vec![interactive(0, 0, 0, SimTime::ZERO)],
        RunOptions::new(SchedulerKind::Fcfsl).label("t"),
    );
    let lat = outcome.record.jobs[0].timing.latency().unwrap();
    // Two chunks per node, each paying doubled I/O sequentially.
    assert!(
        lat > cost.io_time(512 * MIB) * 3,
        "latency {lat} should reflect slow disks"
    );
}

#[test]
fn runs_are_deterministic() {
    let jobs: Vec<Job> = (0..50)
        .map(|i| interactive(i, i % 3, (i % 2) as u32, SimTime::from_millis(30 * i)))
        .collect();
    let run = || {
        let sim = small_sim();
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::new(SchedulerKind::Ours).label("det"),
        );
        (
            outcome.record.cache_hits,
            outcome.record.cache_misses,
            outcome.record.makespan,
            outcome
                .record
                .jobs
                .iter()
                .map(|j| j.timing.finish)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn ours_defers_batch_but_drains_it() {
    let sim = small_sim();
    let mut jobs = Vec::new();
    // A steady interactive stream on dataset 0 for 3 seconds…
    for i in 0..100u64 {
        jobs.push(interactive(i, 0, 0, SimTime::from_millis(30 * i)));
    }
    // …and a burst of batch jobs on dataset 1 arriving early.
    for b in 0..10u64 {
        jobs.push(batch(100 + b, b, 1, SimTime::from_millis(100)));
    }
    jobs.sort_by_key(|j| j.issue_time);
    let outcome = sim.run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("defer"));
    assert_eq!(
        outcome.incomplete_jobs, 0,
        "deferred batch must eventually drain"
    );
    let report = vizsched_metrics::SchedulerReport::from_run(&outcome.record);
    assert_eq!(report.batch_jobs, 10);
    assert!(report.batch_latency.mean > 0.0);
}

#[test]
fn crash_mid_run_still_completes_jobs() {
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let cost = CostParams::default();
    let config = SimConfig::new(cluster, cost, 512 * MIB);
    // Crash node 1 while the first job's cold loads are in flight; recover
    // much later.
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_millis(500), NodeId(1))
        .respawn_at(SimTime::from_secs(60), NodeId(1));
    let sim = Simulation::new(config, uniform_datasets(2, 2 * GIB));
    let jobs: Vec<Job> = (0..20)
        .map(|i| interactive(i, 0, 0, SimTime::from_millis(30 * i)))
        .collect();
    let outcome = sim.run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("crash")
            .fault_plan(plan),
    );
    assert_eq!(
        outcome.incomplete_jobs, 0,
        "work lost in the crash must be re-placed"
    );
    assert_eq!(outcome.record.jobs.len(), 20);
    assert!(outcome
        .record
        .jobs
        .iter()
        .all(|j| j.timing.finish.is_some()));
}

/// The fault plan is the only way to take a node down, so pin the path by
/// its event stream as well as its outcome: each entry is announced
/// (`fault_injected`) before the runtime reacts (`node_fault`, `node_up`).
#[test]
fn plan_crash_then_respawn_is_traced_in_order() {
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let config = SimConfig::new(cluster, CostParams::default(), 512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(2, 2 * GIB));
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_millis(500), NodeId(1))
        .respawn_at(SimTime::from_secs(2), NodeId(1));
    let jobs: Vec<Job> = (0..20)
        .map(|i| interactive(i, 0, 0, SimTime::from_millis(30 * i)))
        .collect();
    let probe = Arc::new(CollectingProbe::new());
    let outcome = sim.run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("crash-trace")
            .fault_plan(plan)
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let fault_tags: Vec<&str> = probe
        .take()
        .iter()
        .map(TraceEvent::tag)
        .filter(|tag| matches!(*tag, "fault_injected" | "node_fault" | "node_up"))
        .collect();
    assert_eq!(
        fault_tags,
        ["fault_injected", "node_fault", "fault_injected", "node_up"]
    );
}

#[test]
fn shard_crash_that_cannot_fail_over_power_cycles_nothing() {
    // The first crash fails over: S1 adopts S0's slice. Neither later
    // crash can — an unknown shard id, then the last live head — so both
    // must leave the cluster alone. Power-cycling the survivor's nodes
    // with no failover behind it would silently drop every task in flight
    // there.
    let plan = FaultPlan::new()
        .shard_crash_at(SimTime::from_secs(1), ShardId(0))
        .shard_crash_at(SimTime::from_millis(1_500), ShardId(7))
        .shard_crash_at(SimTime::from_millis(2_005), ShardId(1));
    let cluster = ClusterSpec::homogeneous(8, 2 * GIB);
    let config = SimConfig::new(cluster, CostParams::default(), 512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(4, 2 * GIB));
    let jobs = || -> Vec<Job> {
        (0..60)
            .map(|i| interactive(i, i % 4, (i % 4) as u32, SimTime::from_millis(50 * i)))
            .collect()
    };
    let outcome = sim.run_opts(
        jobs(),
        RunOptions::new(SchedulerKind::Ours)
            .label("two-crash")
            .shards(2)
            .fault_plan(plan),
    );
    assert_eq!(outcome.record.jobs.len(), 60);
    assert_eq!(outcome.incomplete_jobs, 0, "no admitted job may be lost");

    // One head is its own last live shard: crashing it is a no-op too.
    let lone = FaultPlan::new().shard_crash_at(SimTime::from_secs(1), ShardId(0));
    let outcome = sim.run_opts(
        jobs(),
        RunOptions::new(SchedulerKind::Ours)
            .label("lone-crash")
            .fault_plan(lone),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
}

/// A plan addressing a node the cluster does not have is refused by
/// `run_opts` itself, with the entry named — not by an index panic
/// when the fault fires mid-run.
#[test]
#[should_panic(expected = "NodeCrash(NodeId(99)) at 0.010000s is outside the 4-node cluster")]
fn plan_naming_a_node_outside_the_cluster_is_refused_before_the_run() {
    let plan = FaultPlan::new().crash_at(SimTime::from_millis(10), NodeId(99));
    small_sim().run_opts(
        vec![],
        RunOptions::new(SchedulerKind::Ours).fault_plan(plan),
    );
}

#[test]
#[should_panic(expected = "LeafRecover { base: NodeId(3), count: 2 } at 0.020000s is outside")]
fn plan_with_a_leaf_group_straddling_the_cluster_end_is_refused_before_the_run() {
    // Node 3 exists, node 4 does not.
    let plan = FaultPlan::new().leaf_recover_at(SimTime::from_millis(20), NodeId(3), 2);
    small_sim().run_opts(
        vec![],
        RunOptions::new(SchedulerKind::Ours).fault_plan(plan),
    );
}

/// A plan that leaves no node alive is refused up front as well — not by
/// the scheduler's "at least one live node" panic when the next job
/// arrives mid-run.
#[test]
#[should_panic(expected = "the leaf_outage fault at 10000 us leaves none of the 4 nodes alive")]
fn plan_that_downs_every_node_is_refused_before_the_run() {
    let plan = FaultPlan::new().leaf_outage_at(SimTime::from_millis(10), NodeId(0), 4);
    small_sim().run_opts(
        vec![interactive(0, 0, 0, SimTime::from_millis(20))],
        RunOptions::new(SchedulerKind::Ours).fault_plan(plan),
    );
}

#[test]
fn trace_records_every_task() {
    let cluster = ClusterSpec::homogeneous(2, 2 * GIB);
    let config = SimConfig::new(cluster, CostParams::default(), 512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(1, 2 * GIB));
    let probe = Arc::new(CollectingProbe::new());
    sim.run_opts(
        vec![interactive(0, 0, 0, SimTime::ZERO)],
        RunOptions::new(SchedulerKind::Fcfs)
            .label("t")
            .probe(probe.clone()),
    );
    let mut tasks = 0;
    for event in probe.take() {
        if let TraceEvent::TaskDone {
            now, started, miss, ..
        } = event
        {
            tasks += 1;
            assert!(now > started);
            assert!(miss, "first touch of every chunk is a miss");
        }
    }
    assert_eq!(tasks, 4);
}

#[test]
fn fcfsu_uses_uniform_decomposition() {
    let sim = small_sim();
    let outcome = sim.run_opts(
        vec![interactive(0, 0, 0, SimTime::ZERO)],
        RunOptions::new(SchedulerKind::Fcfsu).label("t"),
    );
    // 4 nodes -> 4 uniform chunks -> 4 tasks; with MaxChunkSize it would
    // also be 4 here, so check the byte size instead: 2 GiB / 4 = 512 MiB
    // per uniform chunk on *this* cluster, but trace isn't on; use the
    // record: every task missed, and tasks == node count.
    assert_eq!(outcome.record.jobs[0].tasks, 4);
    assert_eq!(outcome.record.jobs[0].misses, 4);
}

#[test]
fn makespan_tracks_last_completion() {
    let sim = small_sim();
    let outcome = sim.run_opts(
        vec![interactive(0, 0, 0, SimTime::ZERO)],
        RunOptions::new(SchedulerKind::Fcfs).label("t"),
    );
    let jf = outcome.record.jobs[0].timing.finish.unwrap();
    assert_eq!(outcome.record.makespan, jf);
}

#[test]
fn interleaved_users_all_finish() {
    let sim = small_sim();
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for step in 0..60u64 {
        for user in 0..3u64 {
            jobs.push(interactive(
                id,
                user,
                (user % 2) as u32,
                SimTime::from_millis(30 * step),
            ));
            id += 1;
        }
    }
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Fcfsl,
        SchedulerKind::Fs,
        SchedulerKind::Sf,
    ] {
        let outcome = sim.run_opts(jobs.clone(), RunOptions::new(kind).label("mix"));
        assert_eq!(
            outcome.incomplete_jobs,
            0,
            "{} left jobs unfinished",
            kind.name()
        );
        assert_eq!(outcome.record.jobs.len(), 180);
    }
}

#[test]
fn shared_fs_contention_slows_concurrent_loads() {
    // Four cold tasks on four nodes, all loading at once.
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let cost = CostParams::default();
    let job = interactive(0, 0, 0, SimTime::ZERO);

    let independent = {
        let config = SimConfig::new(cluster.clone(), cost, 512 * MIB);
        let sim = Simulation::new(config, uniform_datasets(1, 2 * GIB));
        sim.run_opts(
            vec![job.clone()],
            RunOptions::new(SchedulerKind::Fcfs).label("indep"),
        )
    };
    let contended = {
        let mut config = SimConfig::new(cluster, cost, 512 * MIB);
        config.shared_fs_capacity = Some(1); // one full-speed stream
        let sim = Simulation::new(config, uniform_datasets(1, 2 * GIB));
        sim.run_opts(
            vec![job],
            RunOptions::new(SchedulerKind::Fcfs).label("shared"),
        )
    };
    let lat_i = independent.record.jobs[0].timing.latency().unwrap();
    let lat_c = contended.record.jobs[0].timing.latency().unwrap();
    assert!(
        lat_c > lat_i.mul_f64(1.5),
        "four concurrent loads through a capacity-1 server must be slower: {lat_c} vs {lat_i}"
    );
    // A solitary load (capacity 1, nothing else in flight) is unaffected:
    // the first load starts alone, so its I/O portion is at full speed.
    assert_eq!(
        independent.record.cache_misses,
        contended.record.cache_misses
    );
}

#[test]
fn available_table_is_corrected_toward_reality() {
    // Predictions start from the cost model; after completions the head's
    // availability must reflect the node's actual (empty) backlog rather
    // than stale optimistic pushes.
    let sim = small_sim();
    let job = interactive(0, 0, 0, SimTime::ZERO);
    let outcome = sim.run_opts(
        vec![job],
        RunOptions::new(SchedulerKind::Fcfsl).label("corr"),
    );
    // All tasks done; makespan equals the single cold task exec, meaning no
    // phantom backlog lingered anywhere to delay the final completion.
    let cost = sim.config().cost;
    assert_eq!(
        outcome.record.makespan,
        SimTime::ZERO + cost.task_exec(512 * MIB, false, 4)
    );
}

#[test]
fn estimate_corrections_improve_later_predictions() {
    // Slow disks: the first load measures ~2x the model estimate; later
    // scheduling rounds should therefore *predict* longer execs, which we
    // observe through assignments avoiding the slow path — here simply
    // through completion: the run still drains with no incomplete jobs.
    let mut cluster = ClusterSpec::homogeneous(2, 2 * GIB);
    for node in &mut cluster.nodes {
        node.disk_scale = 0.25;
    }
    let config = SimConfig::new(cluster, CostParams::default(), 512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(2, 2 * GIB));
    let jobs: Vec<Job> = (0..30)
        .map(|i| interactive(i, i % 2, (i % 2) as u32, SimTime::from_millis(200 * i)))
        .collect();
    let outcome = sim.run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("estimate"));
    assert_eq!(outcome.incomplete_jobs, 0);
    // Hit rate should still be high: corrections do not destabilize
    // placement.
    assert!(
        outcome.record.hit_rate() > 0.8,
        "hit {}",
        outcome.record.hit_rate()
    );
}

#[test]
fn node_stats_reflect_load_balance() {
    let sim = small_sim();
    let jobs: Vec<Job> = (0..80)
        .map(|i| interactive(i, 0, 0, SimTime::from_millis(30 * i)))
        .collect();
    let outcome = sim.run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("balance"));
    assert_eq!(outcome.per_node.len(), 4);
    let total: u64 = outcome.per_node.iter().map(|s| s.tasks).sum();
    assert_eq!(
        total,
        outcome.record.cache_hits + outcome.record.cache_misses
    );
    for s in &outcome.per_node {
        assert_eq!(s.tasks, s.hits + s.misses);
    }
    // One dataset over four nodes: every node carries work.
    assert!(outcome.per_node.iter().all(|s| s.tasks > 0));
}
