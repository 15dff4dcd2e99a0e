//! The live head follows the runtime's cycle clock, the one the
//! simulator follows: a cycle runs when `ShardedRuntime::next_cycle` says
//! one is due, so ticks land on the ω grid of the head clock, and the
//! loop wakes for the next planned fault instead of for the next tick.
//! Fault pressure decays on the same grid, so degraded mode ends on an
//! idle head under every policy.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use vizsched_core::ids::{BatchId, DatasetId, NodeId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::{CollectingProbe, RejectReason, TraceEvent};
use vizsched_service::{
    ChunkStore, FaultPlan, RenderOutcome, ServiceClient, ServiceConfig, StoreDataset, VizService,
};
use vizsched_volume::Field;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vizsched-clock-{tag}-{}", std::process::id()))
}

/// A 4-node service on `config`, tracing into the returned probe.
fn service(tag: &str, config: ServiceConfig) -> (VizService, Arc<CollectingProbe>, PathBuf) {
    let root = temp_root(tag);
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: [16, 16, 32],
        bricks: 4,
    };
    let store = ChunkStore::create(&root, &[dataset]).unwrap();
    let probe = Arc::new(CollectingProbe::new());
    let config = config
        .nodes(4)
        .mem_quota(1 << 20)
        .image_size(32, 32)
        .probe(probe.clone());
    (VizService::start(config, Arc::new(store)), probe, root)
}

/// Batch frames never take the early cycle, so every `cycle_start` is a
/// tick, and a tick must sit just after a multiple of ω on the head
/// clock — late by the loop's wake-up, never by an unaligned phase or a
/// drift that grows with every cycle. Two seconds of bursts at ω = 10 ms
/// span some 200 grid points: a ticker that oversleeps 50 µs a period
/// drifts a whole ω over the run, spreading its ticks over the window.
/// A wake-up the host delays now and then (a few ms on a busy two-core
/// box) is noise, so the bound is on three ticks in four.
#[test]
fn live_ticks_land_on_the_omega_grid() {
    let omega = SimDuration::from_millis(10);
    let (service, probe, root) = service("grid", ServiceConfig::default().cycle(omega));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for burst in 0..20u64 {
        let frames: Vec<FrameParams> = (0..2u64)
            .map(|i| FrameParams {
                azimuth: (burst * 2 + i) as f32 * 0.1,
                ..FrameParams::default()
            })
            .collect();
        let rx = client.render_batch(BatchId(burst), DatasetId(0), &frames);
        for _ in 0..frames.len() {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("batch frame arrives")
                .expect_frame();
        }
        // Submit the next burst somewhere else in the ω window.
        std::thread::sleep(Duration::from_millis(97));
    }
    service.drain_and_shutdown();
    std::fs::remove_dir_all(root).ok();

    let ticks: Vec<SimTime> = probe
        .take()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CycleStart { now, .. } => Some(*now),
            _ => None,
        })
        .collect();
    assert!(ticks.len() >= 20, "one cycle per burst at least: {ticks:?}");
    let late_us: Vec<u64> = ticks
        .iter()
        .map(|tick| tick.as_micros() % omega.as_micros())
        .collect();
    let on_grid = late_us.iter().filter(|&&late| late <= 1_000).count();
    assert!(
        4 * on_grid >= 3 * late_us.len(),
        "only {on_grid} of {} ticks lie within 1 ms past the ω grid: {late_us:?}",
        late_us.len()
    );
}

/// An idle head with a long cycle still wakes for a planned fault: the
/// crash fires at its planned instant, not at the next tick.
#[test]
fn planned_fault_fires_on_time_on_an_idle_head() {
    let plan = FaultPlan::new().crash_at(SimTime::from_millis(50), NodeId(1));
    let config = ServiceConfig::default()
        .cycle(SimDuration::from_millis(300))
        .fault_plan(plan);
    let (service, probe, root) = service("on-time", config);
    std::thread::sleep(Duration::from_millis(400));
    service.shutdown();
    std::fs::remove_dir_all(root).ok();

    let fired = probe
        .take()
        .iter()
        .find_map(|e| match e {
            TraceEvent::FaultInjected { now, .. } => Some(*now),
            _ => None,
        })
        .expect("the planned crash fired");
    let late = fired.saturating_since(SimTime::from_millis(50));
    assert!(
        late <= SimDuration::from_millis(30),
        "the crash planned at 50 ms fired at {fired}"
    );
}

/// Two node faults put a 2-shard service into degraded mode, and pressure
/// decays one per ω grid point even under an on-arrival policy with no
/// work buffered: batch is shed at first and admitted again once the
/// mode exits (pressure 4 → 1 takes three grid points: 50, 100, 150 ms).
#[test]
fn degraded_mode_exits_on_an_idle_on_arrival_head() {
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_millis(20), NodeId(0))
        .crash_at(SimTime::from_millis(20), NodeId(2));
    let config = ServiceConfig::default()
        .scheduler(SchedulerKind::Fcfsl)
        .shards(2)
        .cycle(SimDuration::from_millis(50))
        .fault_plan(plan);
    let (service, probe, root) = service("degraded", config);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let frame = [FrameParams::default()];
    let submit = |batch: u64| {
        client
            .render_batch(BatchId(batch), DatasetId(0), &frame)
            .recv_timeout(Duration::from_secs(30))
            .expect("an answer to the batch frame")
            .outcome
    };
    std::thread::sleep(Duration::from_millis(80));
    let shed = submit(0);
    std::thread::sleep(Duration::from_millis(320));
    let admitted = submit(1);
    service.shutdown();
    std::fs::remove_dir_all(root).ok();

    assert!(
        matches!(shed, RenderOutcome::Rejected(RejectReason::Degraded)),
        "batch inside the degraded window: {shed:?}"
    );
    assert!(
        matches!(admitted, RenderOutcome::Frame(_)),
        "batch after pressure decayed: {admitted:?}"
    );
    let exited = probe
        .take()
        .iter()
        .find_map(|e| match e {
            TraceEvent::DegradedExited { now, .. } => Some(*now),
            _ => None,
        })
        .expect("degraded mode exited");
    assert!(exited >= SimTime::from_millis(150), "exited at {exited}");
}
