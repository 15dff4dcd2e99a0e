//! One render-node worker driven directly over its channels: what it
//! reports when its store fails, and what it draws across evictions.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vizsched_core::ids::{ChunkId, DatasetId, JobId, NodeId};
use vizsched_core::job::FrameParams;
use vizsched_render::raycast::{render, BrickSampler};
use vizsched_render::{Camera, RenderSettings, TransferFunction};
use vizsched_service::node::{run_node, NodeConfig};
use vizsched_service::{ChunkStore, RenderTask, StoreDataset, TaskDone, ToHead, ToNode};
use vizsched_volume::{Field, Volume};

const DIMS: [usize; 3] = [20, 18, 26];
const IMAGE: usize = 40;
const WAIT: Duration = Duration::from_secs(20);

fn store(tag: &str, fields: &[Field]) -> (Arc<ChunkStore>, PathBuf) {
    let root = std::env::temp_dir().join(format!("vizsched-node-{tag}-{}", std::process::id()));
    let datasets: Vec<StoreDataset> = fields
        .iter()
        .map(|&field| StoreDataset {
            field,
            dims: DIMS,
            bricks: 2,
        })
        .collect();
    let store = ChunkStore::create(&root, &datasets).unwrap();
    (Arc::new(store), root)
}

struct Worker {
    tasks: Sender<ToNode>,
    reports: Receiver<ToHead>,
    thread: JoinHandle<()>,
}

fn spawn(store: &Arc<ChunkStore>, mem_quota: u64) -> Worker {
    let (tasks, task_rx) = unbounded();
    let (report_tx, reports) = unbounded();
    let config = NodeConfig {
        id: NodeId(3),
        epoch: 7,
        mem_quota,
        image_size: (IMAGE, IMAGE),
    };
    let (store, kill) = (store.clone(), Arc::new(AtomicBool::new(false)));
    let thread = std::thread::spawn(move || run_node(config, store, task_rx, report_tx, kill));
    Worker {
        tasks,
        reports,
        thread,
    }
}

fn frame() -> FrameParams {
    FrameParams {
        azimuth: 0.6,
        elevation: 0.3,
        ..FrameParams::default()
    }
}

impl Worker {
    fn render(&self, chunk: ChunkId) -> ToHead {
        let task = RenderTask {
            job: JobId(1),
            index: chunk.index,
            chunk,
            frame: frame(),
            group: 2,
            interactive: true,
        };
        self.tasks.send(ToNode::Render(task)).unwrap();
        self.reports.recv_timeout(WAIT).expect("the node reports")
    }

    fn done(&self, chunk: ChunkId) -> TaskDone {
        match self.render(chunk) {
            ToHead::TaskDone(done) => done,
            other => panic!("expected a finished task, got {other:?}"),
        }
    }

    /// A good brick renders, then `broken` ends the node: the head learns
    /// it is gone — the report its node_fault route reroutes from — and
    /// the thread ends by returning, not by panicking.
    fn stops_on(self, broken: ChunkId) {
        let good = ChunkId::new(broken.dataset, 0);
        let done = self.done(good);
        assert!(!done.layer.image.is_empty());
        assert_eq!(done.epoch, 7, "a finished task carries its incarnation");
        match self.render(broken) {
            ToHead::Stopped { node: 3, epoch: 7 } => {}
            other => panic!("expected Stopped from node 3 epoch 7, got {other:?}"),
        }
        self.thread.join().expect("the node thread did not panic");
    }
}

#[test]
fn lost_brick_file_stops_the_node_instead_of_hanging_the_head() {
    let (store, root) = store("lost", &[Field::Shells]);
    std::fs::remove_file(root.join("d0-c1.vz")).unwrap();
    spawn(&store, 1 << 20).stops_on(ChunkId::new(DatasetId(0), 1));
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn rewritten_brick_file_stops_the_node_instead_of_panicking_it() {
    let (store, root) = store("rewritten", &[Field::Shells]);
    let other: Volume<f32> = Field::Plume.sample([8, 8, 8]);
    vizsched_volume::io::write_f32(&root.join("d0-c1.vz"), &other).unwrap();
    spawn(&store, 1 << 20).stops_on(ChunkId::new(DatasetId(0), 1));
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn evicted_bricks_render_identically_after_reload() {
    // cold_scan in miniature: the node's brick of each of three datasets,
    // cycled through a cache that holds two. Every visit is a miss, so
    // every visit renders a freshly loaded brick with a freshly built
    // min–max grid; the second frame of a visit reuses both.
    let (store, root) = store(
        "evict",
        &[Field::Plume, Field::Supernova, Field::Combustion],
    );
    let chunks: Vec<ChunkId> = (0..3).map(|d| ChunkId::new(DatasetId(d), 1)).collect();
    let node = spawn(&store, 2 * store.chunk_bytes(chunks[0]));

    let camera = Camera::orbit(DIMS, frame().azimuth, frame().elevation, frame().distance);
    let settings = RenderSettings {
        width: IMAGE,
        height: IMAGE,
        ..RenderSettings::default()
    };
    let tf = TransferFunction::preset(frame().transfer_fn);
    let mut evictions = 0;
    for round in 0..2 {
        for &chunk in &chunks {
            let (brick, _) = store.load(chunk).unwrap();
            let reference = render(&BrickSampler::new(brick.as_ref()), &camera, &tf, &settings);
            let first = node.done(chunk);
            let second = node.done(chunk);
            assert!(first.miss && !second.miss, "round {round} {chunk}");
            assert!(reference.coverage() > 0.0, "{chunk} draws nothing");
            assert!(first.layer.image == reference, "round {round} {chunk} miss");
            assert!(second.layer.image == reference, "round {round} {chunk} hit");
            evictions += first.evicted.len();
        }
    }
    assert_eq!(evictions, 4, "six loads through two slots");

    node.tasks.send(ToNode::Shutdown).unwrap();
    node.thread.join().expect("the node thread did not panic");
    std::fs::remove_dir_all(root).ok();
}

/// The live node's queue: an interactive task sent while a batch task is
/// loading runs the moment that task ends, ahead of the batch tasks sent
/// before it, and never displaces the one already running.
#[test]
fn an_interactive_task_runs_next_after_the_running_batch_task() {
    let root = std::env::temp_dir().join(format!("vizsched-node-lane-{}", std::process::id()));
    let dataset = StoreDataset {
        field: Field::Shells,
        dims: DIMS,
        bricks: 2,
    };
    let mut store = ChunkStore::create(&root, &[dataset]).unwrap();
    // A cold brick takes about a second to load.
    let bytes = store.chunk_bytes(ChunkId::new(DatasetId(0), 0));
    store.set_throttle(Some(bytes));
    let node = spawn(&Arc::new(store), 1 << 20);
    let send = |job: u64, index: u32, interactive: bool| {
        let task = RenderTask {
            job: JobId(job),
            index,
            chunk: ChunkId::new(DatasetId(0), index),
            frame: frame(),
            group: 2,
            interactive,
        };
        node.tasks.send(ToNode::Render(task)).unwrap();
    };
    send(1, 0, false);
    // Let the node start batch job 1 before anything else is queued.
    std::thread::sleep(Duration::from_millis(200));
    send(2, 1, false);
    send(3, 0, false);
    send(4, 0, true);
    let order: Vec<u64> = (0..4)
        .map(
            |_| match node.reports.recv_timeout(WAIT).expect("the node reports") {
                ToHead::TaskDone(done) => done.job.0,
                other => panic!("expected a finished task, got {other:?}"),
            },
        )
        .collect();
    assert_eq!(order, [1, 4, 2, 3]);
    node.tasks.send(ToNode::Shutdown).unwrap();
    node.thread.join().expect("the node thread did not panic");
    std::fs::remove_dir_all(root).ok();
}
