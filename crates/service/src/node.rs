//! The rendering-node worker: one thread per node, processing render tasks
//! in [`NodeQueue`] order over an in-memory brick cache backed by the
//! chunk store — the live counterpart of the simulator's `SimNode`.

use crate::protocol::{RenderTask, TaskDone, ToHead, ToNode};
use crate::storage::ChunkStore;
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vizsched_core::ids::{ChunkId, NodeId};
use vizsched_core::memory::NodeMemory;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_render::raycast::render_brick;
use vizsched_render::{Camera, RenderSettings, TransferFunction};
use vizsched_runtime::queue::NodeQueue;
use vizsched_volume::brick::Brick;

/// Configuration for one render node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's id.
    pub id: NodeId,
    /// This node thread's incarnation, echoed in every report so the head
    /// can drop stragglers from a crashed or replaced thread.
    pub epoch: u32,
    /// Main-memory chunk-cache quota in bytes.
    pub mem_quota: u64,
    /// Output image size (width, height).
    pub image_size: (usize, usize),
}

/// Run a render node until `Shutdown` arrives or `kill` is raised.
/// Intended to be spawned on its own thread. Between tasks the node
/// drains its channel into a [`NodeQueue`] and runs the next task that
/// queue yields; it blocks on the channel only while the queue is empty.
/// `Shutdown` ends the node once the tasks sent before it are done. A
/// raised kill flag is an abrupt fault: queued render tasks are dropped
/// on the floor, and a render already underway still completes and
/// reports — a thread cannot be preempted mid-task — but under an epoch
/// the head has already retired, so it is ignored there (the head
/// re-placed all of that work when it raised the flag). A task whose
/// brick cannot be read back from the store ends the node the same way:
/// it says why on stderr and reports `Stopped`.
pub fn run_node(
    config: NodeConfig,
    store: Arc<ChunkStore>,
    tasks: Receiver<ToNode>,
    to_head: Sender<ToHead>,
    kill: Arc<AtomicBool>,
) {
    let mut node = Node {
        cache: NodeMemory::new(config.mem_quota),
        bricks: HashMap::new(),
        presets: (0..TransferFunction::PRESETS)
            .map(TransferFunction::preset)
            .collect(),
        settings: RenderSettings {
            width: config.image_size.0,
            height: config.image_size.1,
            ..RenderSettings::default()
        },
    };
    let mut inbox = Inbox {
        queue: NodeQueue::new(),
        slow_pm: 1000,
        stopping: false,
        clock: std::time::Instant::now(),
    };
    loop {
        if inbox.queue.is_empty() {
            if inbox.stopping {
                break;
            }
            let Ok(msg) = tasks.recv() else { break };
            inbox.accept(msg);
        }
        while !inbox.stopping {
            let Ok(msg) = tasks.try_recv() else { break };
            inbox.accept(msg);
        }
        if kill.load(Ordering::Relaxed) {
            break;
        }
        let Some(task) = inbox.queue.pop() else {
            continue;
        };
        let mut done = match node.execute(&config, &store, task) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("node {}: stopping, task failed: {e}", config.id.0);
                break;
            }
        };
        if inbox.slow_pm > 1000 {
            // Degraded: pad the task to elapsed × slow_pm/1000,
            // mirroring the simulator's cost multiplier.
            let extra = done.elapsed.as_micros() * (inbox.slow_pm as u64 - 1000) / 1000;
            std::thread::sleep(std::time::Duration::from_micros(extra));
            done.elapsed += SimDuration::from_micros(extra);
        }
        if to_head.send(ToHead::TaskDone(done)).is_err() {
            break; // head gone; shut down quietly
        }
    }
    let _ = to_head.send(ToHead::Stopped {
        node: config.id.0,
        epoch: config.epoch,
    });
}

/// What the node has been told and has not acted on yet.
struct Inbox {
    queue: NodeQueue<RenderTask>,
    /// Degraded-node slowdown in per-mille (1000 = nominal).
    slow_pm: u32,
    /// `Shutdown` arrived: nothing sent after it is read.
    stopping: bool,
    /// The node's own clock: a task counts as queued from the moment
    /// the node reads it off the channel.
    clock: std::time::Instant,
}

impl Inbox {
    fn accept(&mut self, msg: ToNode) {
        match msg {
            ToNode::Shutdown => self.stopping = true,
            ToNode::Degrade(pm) => self.slow_pm = pm.max(1000),
            ToNode::Render(task) => {
                let at = SimTime::from_micros(self.clock.elapsed().as_micros() as u64);
                let interactive = task.interactive;
                self.queue.push(task, interactive, at);
            }
        }
    }
}

/// What a node thread keeps between tasks.
struct Node {
    cache: NodeMemory,
    bricks: HashMap<ChunkId, Arc<Brick<f32>>>,
    /// `TransferFunction::preset(i)` for every distinct `i`, built once.
    presets: Vec<TransferFunction>,
    settings: RenderSettings,
}

impl Node {
    fn execute(
        &mut self,
        config: &NodeConfig,
        store: &ChunkStore,
        task: RenderTask,
    ) -> std::io::Result<TaskDone> {
        let t0 = std::time::Instant::now();
        // Fetch: the data I/O stage of the pipeline (Fig. 2).
        let (brick, io, miss, evicted) = if self.cache.contains(task.chunk) {
            self.cache.touch(task.chunk);
            (
                self.bricks[&task.chunk].clone(),
                SimDuration::ZERO,
                false,
                Vec::new(),
            )
        } else {
            let (brick, took) = store.load(task.chunk)?;
            let bytes = store.chunk_bytes(task.chunk);
            let evicted = self.cache.load(task.chunk, bytes);
            for victim in &evicted {
                self.bricks.remove(victim);
            }
            self.bricks.insert(task.chunk, brick.clone());
            (
                brick,
                SimDuration::from_micros(took.as_micros() as u64),
                true,
                evicted,
            )
        };

        // Render: ray-cast the brick into a depth-tagged layer.
        let dataset = task.chunk.dataset;
        let dims =
            store.catalog().dataset(dataset).dims.ok_or_else(|| {
                std::io::Error::other(format!("dataset {dataset} has no grid dims"))
            })?;
        let camera = Camera::orbit(
            dims.map(|n| n as usize),
            task.frame.azimuth,
            task.frame.elevation,
            task.frame.distance,
        );
        let tf = &self.presets[(task.frame.transfer_fn % TransferFunction::PRESETS) as usize];
        let layer = render_brick(brick.as_ref(), &camera, tf, &self.settings);

        Ok(TaskDone {
            node: config.id.0,
            epoch: config.epoch,
            job: task.job,
            index: task.index,
            chunk: task.chunk,
            layer,
            io,
            elapsed: SimDuration::from_micros(t0.elapsed().as_micros() as u64),
            miss,
            evicted,
        })
    }
}
