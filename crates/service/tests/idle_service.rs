//! An idle service costs nothing and a dropped one leaves nothing behind.
//! The head blocks until a request, a node report or a control message
//! arrives (or a cycle or planned fault is due), so an idle 2-node
//! service's threads sleep; and dropping the service without `shutdown`
//! disconnects the head's control channel, which stops the head and with
//! it every render-node worker.
//!
//! Both checks read the kernel's per-thread accounting under
//! `/proc/self/task`, so they are the one test of this process of their
//! own: no other test's threads come or go while it counts.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_service::{ChunkStore, ServiceConfig, StoreDataset, VizService};
use vizsched_volume::Field;

/// This process's thread ids.
fn tasks() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// CPU time thread `tid` has run so far; zero once it has exited.
fn cpu(tid: &str) -> Duration {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// Poll `done` every 10 ms; fail naming `what` if 2 s pass first.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "not within 2 s: {what} ({} threads)",
            tasks().len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A head that polled for work every 50 µs used about 50 ms of the idle
/// second; every other thread was already asleep.
#[test]
fn an_idle_service_sleeps_and_a_dropped_one_leaves_no_thread() {
    let baseline = tasks().len();
    let root = std::env::temp_dir().join(format!("vizsched-idle-{}", std::process::id()));
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: [16, 16, 32],
        bricks: 4,
    };
    let store = ChunkStore::create(&root, &[dataset]).unwrap();
    let config = ServiceConfig::default()
        .nodes(2)
        .mem_quota(1 << 20)
        .image_size(16, 16);
    let service = VizService::start(config, Arc::new(store));
    // The head starts the two workers from its own thread; let start-up
    // settle before the window opens.
    wait_until("the head and two workers start", || {
        tasks().len() >= baseline + 3
    });
    std::thread::sleep(Duration::from_millis(200));

    let me = std::fs::read_link("/proc/thread-self").unwrap();
    let me = me.file_name().unwrap().to_string_lossy().into_owned();
    let others: Vec<String> = tasks().into_iter().filter(|t| *t != me).collect();
    let before: Vec<Duration> = others.iter().map(|t| cpu(t)).collect();
    std::thread::sleep(Duration::from_secs(1));
    let used: Duration = others
        .iter()
        .zip(&before)
        .map(|(t, before)| cpu(t).saturating_sub(*before))
        .sum();
    assert!(
        used < Duration::from_millis(10),
        "the idle service's threads used {used:?} of CPU in 1 s"
    );

    // No `shutdown`: the drop disconnects the head's control channel.
    drop(service);
    wait_until("every thread of the dropped service stops", || {
        tasks().len() <= baseline
    });
    std::fs::remove_dir_all(root).ok();
}
