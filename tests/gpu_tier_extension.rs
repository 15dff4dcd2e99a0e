//! Tests of the §VII two-tier memory extension across the core scheduler
//! and the simulator.

use vizsched_core::prelude::*;
use vizsched_core::tables::AvailHeap;
use vizsched_sim::{RunOptions, SimConfig, Simulation};

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

#[test]
fn upload_cost_appears_between_hit_and_miss() {
    // One node, GPU holds a single 512 MiB chunk, dataset has two chunks:
    // alternating requests to the two chunks force an upload per task while
    // never missing main memory after warmup.
    let cluster = ClusterSpec::homogeneous(1, 2 * GIB);
    let cost = CostParams::default();
    let mut config = SimConfig::new(cluster, cost);
    config.gpu_quota = Some(512 * MIB);
    let sim = Simulation::new(config, uniform_datasets(1, GIB), 512 * MIB); // 2 chunks
    let jobs: Vec<Job> = (0..20)
        .map(|i| interactive(i, 0, 0, SimTime::from_millis(500 * i)))
        .collect();
    let outcome = sim.run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("upload"));
    assert_eq!(outcome.incomplete_jobs, 0);
    // 20 jobs x 2 tasks: 2 disk misses, everything else host hits needing
    // uploads — so GPU hits stay rare (the two tasks of a job alternate
    // through a one-chunk GPU tier).
    assert_eq!(outcome.record.cache_misses, 2);
    assert_eq!(outcome.record.cache_hits, 38);
    assert!(
        outcome.record.gpu_hits < 38,
        "a one-chunk GPU cannot serve both chunks: gpu_hits = {}",
        outcome.record.gpu_hits
    );
    // Warm job latency includes at least one upload (~167 ms at 3 GB/s),
    // far above the pure render time.
    let warm = &outcome.record.jobs[10];
    let latency = warm.timing.latency().unwrap();
    assert!(
        latency >= cost.upload_time(512 * MIB),
        "latency {latency} lacks the upload"
    );
}

#[test]
fn ample_vram_behaves_like_the_base_model() {
    let cluster = ClusterSpec::homogeneous(2, 2 * GIB);
    let cost = CostParams::default();
    // Jobs spaced far apart: every job after the first runs fully warm with
    // no queueing, so the models must agree exactly.
    let jobs: Vec<Job> = (0..10)
        .map(|i| interactive(i, 0, 0, SimTime::from_secs(10 * i)))
        .collect();

    // GPU as large as the host tier: after first touch everything is
    // GPU-resident.
    let mut with_gpu = SimConfig::new(cluster.clone(), cost);
    with_gpu.gpu_quota = Some(2 * GIB);
    let a = Simulation::new(with_gpu, uniform_datasets(1, 2 * GIB), 512 * MIB).run_opts(
        jobs.clone(),
        RunOptions::new(SchedulerKind::Ours).label("gpu"),
    );

    let without = SimConfig::new(cluster, cost);
    let b = Simulation::new(without, uniform_datasets(1, 2 * GIB), 512 * MIB)
        .run_opts(jobs, RunOptions::new(SchedulerKind::Ours).label("base"));

    assert_eq!(a.record.cache_misses, b.record.cache_misses);
    // Warm-task GPU hits: every hit is GPU-resident when VRAM is ample.
    assert_eq!(a.record.gpu_hits, a.record.cache_hits);
    // Steady-state job latencies agree once data is resident (uploads only
    // on first touch).
    let last_a = a.record.jobs.last().unwrap().timing.latency().unwrap();
    let last_b = b.record.jobs.last().unwrap().timing.latency().unwrap();
    assert_eq!(
        last_a, last_b,
        "ample VRAM must match the base model when warm"
    );
}

#[test]
fn gpu_aware_scheduler_prefers_gpu_resident_replicas() {
    // Chunk cached on both nodes' hosts, but GPU-resident only on node 1.
    let cluster = ClusterSpec::homogeneous(2, 2 * GIB);
    let mut tables = HeadTables::with_gpu_tier(&cluster, GIB, EvictionPolicy::Lru);
    let catalog = Catalog::new(
        uniform_datasets(1, GIB),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 512 * MIB,
        },
    );
    let cost = CostParams::default();
    let chunk = ChunkId::new(DatasetId(0), 0);
    tables.cache.record_load(NodeId(0), chunk, 512 * MIB);
    tables.cache.record_load(NodeId(1), chunk, 512 * MIB);
    tables
        .gpu_cache
        .as_mut()
        .unwrap()
        .record_load(NodeId(1), chunk, 512 * MIB);
    let mut heap = AvailHeap::default();
    heap.rebuild(&tables, SimTime::ZERO);

    let ctx = ScheduleCtx {
        now: SimTime::ZERO,
        tables: &mut tables,
        catalog: &catalog,
        cost: &cost,
    };
    // Host residency alone ties the two nodes, and the tie goes to node 0;
    // on mirrored tables both the full scan and the heap path charge node
    // 0 the upload and pick node 1.
    assert_eq!(ctx.earliest_node_with_locality(chunk, 512 * MIB), NodeId(1));
    assert_eq!(
        ctx.earliest_node_with_locality_via(&mut heap, chunk, 512 * MIB),
        NodeId(1)
    );
    assert_eq!(
        ctx.io_estimate(NodeId(1), chunk, 512 * MIB),
        SimDuration::ZERO
    );
    assert_eq!(
        ctx.io_estimate(NodeId(0), chunk, 512 * MIB),
        cost.upload_time(512 * MIB)
    );
}

#[test]
fn gpu_aware_ours_runs_end_to_end() {
    let cluster = ClusterSpec::homogeneous(4, 2 * GIB);
    let cost = CostParams::default();
    let mut config = SimConfig::new(cluster, cost);
    // Three chunks of video memory per node: exactly the per-node working
    // set (one chunk of each dataset), so steady state is GPU-resident.
    config.gpu_quota = Some(1536 * MIB);
    config.gpu_aware = true;
    config.warm_start = true;
    let sim = Simulation::new(config, uniform_datasets(3, 2 * GIB), 512 * MIB);
    let jobs: Vec<Job> = (0..120)
        .map(|i| interactive(i, i % 3, (i % 3) as u32, SimTime::from_millis(30 * i)))
        .collect();
    let outcome = sim.run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours).label("gpu-aware"),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    assert!(
        outcome.record.gpu_hits > 0,
        "steady actions should hit the GPU tier"
    );
}
