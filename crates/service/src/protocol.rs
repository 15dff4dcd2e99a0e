//! Messages exchanged between the head node, the rendering nodes, and
//! clients. Crossbeam channels stand in for the paper's MPI transport;
//! the message shapes mirror §III-A: rendering requests in, per-chunk
//! render tasks out, sub-image layers back, final frames to the user.

use std::sync::Arc;
use vizsched_core::ids::{ChunkId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, JobKind};
use vizsched_core::time::SimDuration;
use vizsched_metrics::{DropReason, RejectReason};
use vizsched_render::Layer;

/// A client's rendering request, converted to a `Job` by the listening
/// thread.
#[derive(Clone, Debug)]
pub struct RenderRequest {
    /// Requesting user.
    pub user: UserId,
    /// Interactive or batch provenance.
    pub kind: JobKind,
    /// Dataset to render.
    pub dataset: DatasetId,
    /// Camera / transfer function.
    pub frame: FrameParams,
    /// Client-chosen correlation id, echoed on the reply so several
    /// requests can share one reply channel (the TCP front multiplexes a
    /// whole connection over one).
    pub correlation: u64,
    /// Where the outcome — frame, rejection, or drop — goes.
    pub reply: crossbeam::channel::Sender<RenderReply>,
}

/// The head node's answer to one [`RenderRequest`].
#[derive(Clone, Debug)]
pub struct RenderReply {
    /// Echo of the request's correlation id.
    pub correlation: u64,
    /// What happened to the request.
    pub outcome: RenderOutcome,
}

impl RenderReply {
    /// Unwrap the finished frame; panics (with the refusal reason) on a
    /// rejected or dropped request. Test and example convenience.
    pub fn expect_frame(self) -> FrameResult {
        match self.outcome {
            RenderOutcome::Frame(frame) => frame,
            RenderOutcome::Rejected(reason) => {
                panic!("request rejected at admission: {}", reason.as_str())
            }
            RenderOutcome::Dropped(reason) => {
                panic!("request dropped before completion: {}", reason.as_str())
            }
        }
    }

    /// The finished frame, or `None` if the request was shed.
    pub fn into_frame(self) -> Option<FrameResult> {
        match self.outcome {
            RenderOutcome::Frame(frame) => Some(frame),
            _ => None,
        }
    }
}

/// How one render request ended.
#[derive(Clone, Debug)]
pub enum RenderOutcome {
    /// The composited frame.
    Frame(FrameResult),
    /// Refused at admission (overload policy caps, or a full admission
    /// queue at a transport boundary). The job never entered the system.
    Rejected(RejectReason),
    /// Admitted, then dropped before completion: its deadline expired in
    /// the admission buffer, or a newer frame of the same interactive
    /// action superseded it.
    Dropped(DropReason),
}

/// The finished frame returned to a client.
#[derive(Clone, Debug)]
pub struct FrameResult {
    /// The job that produced this frame.
    pub job: JobId,
    /// The composited image.
    pub image: Arc<vizsched_render::RgbaImage>,
    /// End-to-end latency observed by the service (Definition 3).
    pub latency: SimDuration,
    /// How many of the job's tasks missed the cache.
    pub cache_misses: u32,
}

/// Head → render node.
#[derive(Clone, Debug)]
pub enum ToNode {
    /// Render one chunk of one job.
    Render(RenderTask),
    /// Set the node's degraded-mode slowdown in per-mille (1000 =
    /// nominal): every subsequent render is padded to `elapsed × pm/1000`.
    /// The fault plan's `node_degrade`/`node_restore` hook — models a
    /// throttled GPU or failing disk without taking the node down.
    Degrade(u32),
    /// Drain and exit.
    Shutdown,
}

/// One render task as shipped to a node.
#[derive(Clone, Debug)]
pub struct RenderTask {
    /// Owning job.
    pub job: JobId,
    /// Task index within the job.
    pub index: u32,
    /// The chunk (brick) to render.
    pub chunk: ChunkId,
    /// Camera / transfer function.
    pub frame: FrameParams,
    /// Render-group size (compositing cost context).
    pub group: u32,
    /// Whether the owning job is interactive (for node-side accounting).
    pub interactive: bool,
}

/// Render node → head.
#[derive(Clone, Debug)]
pub enum ToHead {
    /// A task finished; the layer is ready for compositing.
    TaskDone(TaskDone),
    /// The node's worker thread exited — orderly shutdown, a kill, or a
    /// task it could not run. From the node's current incarnation and
    /// outside of service shutdown, the head treats this as a node fault
    /// and reroutes the node's outstanding tasks.
    Stopped {
        /// Which node.
        node: u32,
        /// The node thread's incarnation, as in [`TaskDone::epoch`].
        epoch: u32,
    },
}

/// Completion report for one task.
#[derive(Clone, Debug)]
pub struct TaskDone {
    /// Reporting node.
    pub node: u32,
    /// The reporting thread's incarnation. The head bumps a node's epoch
    /// when it crashes the node, and drops every report from an older
    /// one: that work was already re-placed.
    pub epoch: u32,
    /// Owning job.
    pub job: JobId,
    /// Task index.
    pub index: u32,
    /// The chunk rendered.
    pub chunk: ChunkId,
    /// The rendered, depth-tagged sub-image.
    pub layer: Layer,
    /// Measured I/O time (zero on a cache hit) — feeds the shared
    /// runtime's `Estimate` table correction.
    pub io: SimDuration,
    /// Total task execution time on the node (I/O + render), for job
    /// timing reconstruction at the head.
    pub elapsed: SimDuration,
    /// True if the chunk was fetched from the store.
    pub miss: bool,
    /// Chunks evicted to make room.
    pub evicted: Vec<ChunkId>,
}
