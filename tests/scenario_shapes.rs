//! Qualitative reproduction checks: shortened versions of the paper's
//! scenarios must reproduce the *shape* of Figs. 4-7 and Table III —
//! who wins, by roughly what factor — every time the suite runs.

use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};
use vizsched_workload::Scenario;

fn run(scenario: &Scenario, kind: SchedulerKind) -> SchedulerReport {
    let mut config = SimConfig::new(scenario.cluster.clone(), scenario.cost);
    config.exec_jitter = 0.05;
    config.warm_start = true;
    let sim = Simulation::new(config, scenario.datasets(), scenario.chunk_max);
    let outcome = sim.run_opts(
        scenario.jobs(),
        RunOptions::new(kind).label(&scenario.label),
    );
    assert_eq!(
        outcome.incomplete_jobs,
        0,
        "{} left jobs incomplete",
        kind.name()
    );
    SchedulerReport::from_run(&outcome.record)
}

/// Scenario 1 (Fig. 4): pure interactive load, all data cacheable.
#[test]
fn scenario1_shape_holds() {
    let scenario = Scenario::table2(1).shortened(SimDuration::from_secs(15));
    let target = scenario.target_fps();

    let ours = run(&scenario, SchedulerKind::Ours);
    let fcfsl = run(&scenario, SchedulerKind::Fcfsl);
    let fcfsu = run(&scenario, SchedulerKind::Fcfsu);
    let fcfs = run(&scenario, SchedulerKind::Fcfs);

    // OURS and FCFSL hit the target with near-perfect reuse.
    assert!(ours.fps.mean > target * 0.95, "OURS fps {}", ours.fps.mean);
    assert!(
        fcfsl.fps.mean > target * 0.95,
        "FCFSL fps {}",
        fcfsl.fps.mean
    );
    assert!(ours.hit_rate > 0.99, "OURS hit rate {}", ours.hit_rate);
    assert!(
        ours.interactive_latency.mean < 0.2,
        "OURS latency {}",
        ours.interactive_latency.mean
    );

    // FCFSU pays whole-cluster overhead per frame: clearly below target,
    // roughly half.
    assert!(
        fcfsu.fps.mean < target * 0.75,
        "FCFSU fps {}",
        fcfsu.fps.mean
    );
    assert!(
        fcfsu.fps.mean > target * 0.3,
        "FCFSU fps {}",
        fcfsu.fps.mean
    );

    // Locality-blind FCFS collapses: thrashing hit rate and ~0 fps.
    assert!(fcfs.fps.mean < 2.0, "FCFS fps {}", fcfs.fps.mean);
    assert!(fcfs.hit_rate < 0.6, "FCFS hit rate {}", fcfs.hit_rate);
}

/// Scenario 2 (Fig. 5): interactive + batch, data exceeds memory.
#[test]
fn scenario2_shape_holds() {
    let scenario = Scenario::table2(2).shortened(SimDuration::from_secs(30));
    let target = scenario.target_fps();

    let ours = run(&scenario, SchedulerKind::Ours);
    let fcfsl = run(&scenario, SchedulerKind::Fcfsl);
    let fcfsu = run(&scenario, SchedulerKind::Fcfsu);

    // OURS keeps interactive close to target by deferring batch work...
    assert!(ours.fps.mean > target * 0.8, "OURS fps {}", ours.fps.mean);
    // ...while the interleaving policies drop well below it.
    assert!(
        fcfsl.fps.mean < ours.fps.mean,
        "FCFSL {} vs OURS {}",
        fcfsl.fps.mean,
        ours.fps.mean
    );
    assert!(
        fcfsu.fps.mean < target * 0.75,
        "FCFSU fps {}",
        fcfsu.fps.mean
    );

    // OURS interactive latency beats both conventional locality schemes.
    assert!(
        ours.interactive_latency.mean < fcfsl.interactive_latency.mean,
        "OURS {} vs FCFSL {}",
        ours.interactive_latency.mean,
        fcfsl.interactive_latency.mean
    );

    // Batch still completes despite deferral, and its latency stays within
    // a small factor of FCFSL's. (The paper's stronger "lowest batch
    // latency" result needs FCFSL's swap thrash to compound over the full
    // 120 s run — the `scenario` binary reproduces it; see EXPERIMENTS.md.)
    assert!(ours.batch_jobs > 0);
    assert!(
        ours.batch_latency.mean < fcfsl.batch_latency.mean * 2.0,
        "OURS batch {} vs FCFSL batch {}",
        ours.batch_latency.mean,
        fcfsl.batch_latency.mean
    );
}

/// Table III shape: hit rates and scheduling-cost amortization.
#[test]
fn table3_shape_holds() {
    let scenario = Scenario::table2(1).shortened(SimDuration::from_secs(10));
    let ours = run(&scenario, SchedulerKind::Ours);
    let fs = run(&scenario, SchedulerKind::Fs);
    let fcfsu = run(&scenario, SchedulerKind::Fcfsu);

    // Locality-aware policies reuse nearly everything; FS reuses little.
    assert!(ours.hit_rate > 0.99, "OURS {}", ours.hit_rate);
    assert!(fcfsu.hit_rate > 0.99, "FCFSU {}", fcfsu.hit_rate);
    assert!(fs.hit_rate < 0.6, "FS {}", fs.hit_rate);

    // Scheduling stays far below the paper's own budget (tens of us/job).
    assert!(
        ours.sched_cost_us < 100.0,
        "OURS cost {}",
        ours.sched_cost_us
    );
}

/// Fault tolerance (§VI-D): a node crash mid-run must not lose jobs.
#[test]
fn crash_during_scenario_is_absorbed() {
    use vizsched_core::ids::NodeId;
    use vizsched_core::time::SimTime;

    let scenario = Scenario::table2(1).shortened(SimDuration::from_secs(8));
    let mut config = SimConfig::new(scenario.cluster.clone(), scenario.cost);
    config.exec_jitter = 0.05;
    config.warm_start = true;
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_secs(3), NodeId(2))
        .respawn_at(SimTime::from_secs(6), NodeId(2));
    let sim = Simulation::new(config, scenario.datasets(), scenario.chunk_max);
    let outcome = sim.run_opts(
        scenario.jobs(),
        RunOptions::new(SchedulerKind::Ours)
            .label("crash")
            .fault_plan(plan),
    );
    assert_eq!(
        outcome.incomplete_jobs, 0,
        "crash must not lose rendering jobs"
    );
    let report = SchedulerReport::from_run(&outcome.record);
    // Seven healthy nodes still carry the load near target.
    assert!(report.fps.mean > 20.0, "fps {}", report.fps.mean);
}

/// Scenario 3 (Fig. 6) shape at 64-node scale, shortened: OURS near target
/// with sub-second latency while FCFSU sinks to roughly a third of target.
#[test]
fn scenario3_shape_holds() {
    let scenario = Scenario::table2(3).shortened(SimDuration::from_secs(20));
    let target = scenario.target_fps();
    let ours = run(&scenario, SchedulerKind::Ours);
    let fcfsu = run(&scenario, SchedulerKind::Fcfsu);
    assert!(ours.fps.mean > target * 0.9, "OURS fps {}", ours.fps.mean);
    assert!(
        ours.interactive_latency.mean < 1.0,
        "OURS latency {} (paper: < 1 s)",
        ours.interactive_latency.mean
    );
    assert!(ours.hit_rate > 0.99, "OURS hit {}", ours.hit_rate);
    // FCFSU: whole-cluster jobs on 64 nodes -> far below target.
    assert!(
        fcfsu.fps.mean < target * 0.5,
        "FCFSU fps {}",
        fcfsu.fps.mean
    );
}
