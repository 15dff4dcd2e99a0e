//! Ablations of the design choices DESIGN.md calls out, all on a shortened
//! Scenario 2 (the mixed interactive + batch workload where every
//! mechanism matters):
//!
//! * scheduling cycle `ω` — responsiveness vs. amortized cost (§V-A);
//! * batch deferral + idle threshold `ε` on/off (heuristics 2 & 4);
//! * `Chk_max` — the decomposition granularity trade-off (§III-C);
//! * locality mechanisms — FS vs. FS with delay scheduling vs. OURS, on
//!   the overloaded base and at a light load (2 slots over 6 datasets,
//!   seeds 1–5) where FS is not saturated;
//! * cache eviction policy — LRU vs. FIFO vs. random (§V-B).
//!
//! stdout is the virtual-clock tables, identical on every run; the
//! scheduling cost per cycle is wall-clock, so it goes to stderr.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin ablation [-- --length 30]
//! ```

use vizsched_bench::experiments::{run_scenario, simulation_for};
use vizsched_bench::harness::Cli;
use vizsched_core::memory::EvictionPolicy;
use vizsched_core::sched::{OursParams, OursScheduler, SchedulerKind};
use vizsched_core::time::SimDuration;
use vizsched_metrics::SchedulerReport;
use vizsched_sim::RunOptions;
use vizsched_workload::Scenario;

fn main() {
    let length: u64 = Cli::parse(&["--length <secs>"]).number("--length", 30);
    let base = Scenario::table2(2).shortened(SimDuration::from_secs(length));
    let jobs = base.jobs();

    println!("== Ablation studies (shortened scenario 2, {length} s) ==");

    println!("\n-- scheduling cycle ω --");
    println!(
        "{:>8} {:>10} {:>13} {:>13}",
        "ω", "fps", "int lat avg", "bat lat avg"
    );
    for cycle_ms in [10u64, 30, 100, 300, 1000] {
        let mut scenario = base.clone();
        scenario.label = format!("omega-{cycle_ms}ms");
        let mut config = simulation_for(&scenario).config().clone();
        config.cycle = SimDuration::from_millis(cycle_ms);
        let sim = vizsched_sim::Simulation::new(config, scenario.datasets(), scenario.chunk_max);
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
        );
        let r = SchedulerReport::from_run(&outcome.record);
        let per_cycle = outcome.record.sched_wall_micros as f64
            / outcome.record.sched_invocations.max(1) as f64;
        eprintln!("ω = {cycle_ms} ms: OURS scheduling cost {per_cycle:.2} us/cycle (wall clock)");
        println!(
            "{:>6}ms {:>10.2} {:>12.3}s {:>12.3}s",
            cycle_ms, r.fps.mean, r.interactive_latency.mean, r.batch_latency.mean
        );
    }

    println!("\n-- batch deferral (heuristics 2 & 4) --");
    println!(
        "{:>12} {:>10} {:>13} {:>13} {:>8}",
        "deferral", "fps", "int lat avg", "bat lat avg", "hit %"
    );
    for defer in [true, false] {
        let mut scenario = base.clone();
        scenario.label = format!("defer-{defer}");
        let sim = simulation_for(&scenario);
        let sched = Box::new(OursScheduler::new(OursParams {
            defer_batch: defer,
            ..OursParams::default()
        }));
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::with_scheduler(sched).label(&scenario.label),
        );
        let r = SchedulerReport::from_run(&outcome.record);
        println!(
            "{:>12} {:>10.2} {:>12.3}s {:>12.3}s {:>7.2}%",
            if defer { "on (paper)" } else { "off" },
            r.fps.mean,
            r.interactive_latency.mean,
            r.batch_latency.mean,
            r.hit_rate * 100.0
        );
    }

    println!("\n-- chunk size Chk_max --");
    println!(
        "{:>10} {:>12} {:>10} {:>13} {:>8}",
        "Chk_max", "tasks/job", "fps", "int lat avg", "hit %"
    );
    for chunk_mib in [128u64, 256, 512, 1024, 2048] {
        let mut scenario = base.clone();
        scenario.chunk_max = chunk_mib << 20;
        scenario.label = format!("chunk-{chunk_mib}");
        let sim = simulation_for(&scenario);
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
        );
        let r = SchedulerReport::from_run(&outcome.record);
        let tasks_per_job = scenario.dataset_bytes.div_ceil(scenario.chunk_max);
        println!(
            "{:>6} MiB {:>12} {:>10.2} {:>12.3}s {:>7.2}%",
            chunk_mib,
            tasks_per_job,
            r.fps.mean,
            r.interactive_latency.mean,
            r.hit_rate * 100.0
        );
    }

    println!("\n-- locality mechanisms: FS vs FS+delay-scheduling vs OURS --");
    println!(
        "{:>8} {:>10} {:>13} {:>8} {:>10}",
        "policy", "fps", "int lat avg", "hit %", "fairness"
    );
    let locality = [
        SchedulerKind::Fs,
        SchedulerKind::FsDelay,
        SchedulerKind::Ours,
    ];
    for kind in locality {
        let mut scenario = base.clone();
        scenario.label = format!("locality-{}", kind.name());
        let sim = simulation_for(&scenario);
        let outcome = sim.run_opts(jobs.clone(), RunOptions::new(kind).label(&scenario.label));
        let r = SchedulerReport::from_run(&outcome.record);
        println!(
            "{:>8} {:>10.2} {:>12.3}s {:>7.2}% {:>10.3}",
            kind.name(),
            r.fps.mean,
            r.interactive_latency.mean,
            r.hit_rate * 100.0,
            r.fairness
        );
    }

    println!("\n-- locality mechanisms at light load: 2 slots over 6 datasets --");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "seed", "FS fps", "FSD fps", "OURS fps", "FS hit", "FSD hit", "OURS hit"
    );
    let mut fsd_ahead = 0;
    for seed in 1..=5 {
        let mut scenario =
            Scenario::table2_seeded(2, seed).shortened(SimDuration::from_secs(length));
        scenario.label = format!("light-{seed}");
        scenario.workload.interactive.slots = 2;
        scenario.workload.dataset_count = 6;
        let r = run_scenario(&scenario, &locality);
        fsd_ahead += usize::from(r[1].fps.mean > r[0].fps.mean);
        println!(
            "{:>6} {:>9.2} {:>9.2} {:>9.2} {:>8.2}% {:>8.2}% {:>8.2}%",
            seed,
            r[0].fps.mean,
            r[1].fps.mean,
            r[2].fps.mean,
            r[0].hit_rate * 100.0,
            r[1].hit_rate * 100.0,
            r[2].hit_rate * 100.0
        );
    }
    println!("FSD above FS on fps in {fsd_ahead} of 5 seeds");

    println!("\n-- eviction policy --");
    println!(
        "{:>10} {:>10} {:>13} {:>8} {:>11}",
        "policy", "fps", "int lat avg", "hit %", "evictions"
    );
    for (name, policy) in [
        ("LRU", EvictionPolicy::Lru),
        ("FIFO", EvictionPolicy::Fifo),
        ("random", EvictionPolicy::Random { seed: 99 }),
    ] {
        let mut scenario = base.clone();
        scenario.label = format!("evict-{name}");
        let sim0 = simulation_for(&scenario);
        let mut config = sim0.config().clone();
        config.eviction = policy;
        let sim = vizsched_sim::Simulation::new(config, scenario.datasets(), scenario.chunk_max);
        let outcome = sim.run_opts(
            jobs.clone(),
            RunOptions::new(SchedulerKind::Ours).label(&scenario.label),
        );
        let r = SchedulerReport::from_run(&outcome.record);
        println!(
            "{:>10} {:>10.2} {:>12.3}s {:>7.2}% {:>11}",
            name,
            r.fps.mean,
            r.interactive_latency.mean,
            r.hit_rate * 100.0,
            outcome.record.evictions
        );
    }
}
