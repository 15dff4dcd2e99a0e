//! Jobs, tasks, and the head node's job queue (§III-A).
//!
//! A *job* `J_i` is one frame to render: either one step of an interactive
//! user action (issued every 30 ms while the user drags the camera) or one
//! frame of a batch submission (an animation or a time-varying sweep). The
//! dispatching thread decomposes a job into `t_i` independent *tasks*
//! `T_{i,j}`, one per data chunk, and assigns tasks to rendering nodes.

use crate::data::Catalog;
use crate::ids::{ActionId, BatchId, ChunkId, DatasetId, JobId, UserId};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Whether a job came from a live user interaction or a batch submission.
/// Interactive jobs have absolute priority in the proposed scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One frame of a continuous user action.
    Interactive {
        /// The requesting user.
        user: UserId,
        /// The action (drag/rotate/zoom sequence) this frame belongs to;
        /// frame rate (Definition 4) is measured per action.
        action: ActionId,
    },
    /// One frame of a batch submission.
    Batch {
        /// The submitting user.
        user: UserId,
        /// The submission this frame belongs to.
        request: BatchId,
        /// Frame index within the submission.
        frame: u32,
    },
}

impl JobKind {
    /// True for interactive jobs.
    pub fn is_interactive(&self) -> bool {
        matches!(self, JobKind::Interactive { .. })
    }

    /// The user who issued the job.
    pub fn user(&self) -> UserId {
        match *self {
            JobKind::Interactive { user, .. } | JobKind::Batch { user, .. } => user,
        }
    }

    /// The action id, for interactive jobs.
    pub fn action(&self) -> Option<ActionId> {
        match *self {
            JobKind::Interactive { action, .. } => Some(action),
            JobKind::Batch { .. } => None,
        }
    }
}

/// Camera parameters carried by a job. The scheduler never looks at these;
/// the live service hands them to the renderer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameParams {
    /// Camera azimuth in radians.
    pub azimuth: f32,
    /// Camera elevation in radians.
    pub elevation: f32,
    /// Distance of the camera from the volume center, in volume radii.
    pub distance: f32,
    /// Transfer-function preset index.
    pub transfer_fn: u32,
}

impl Default for FrameParams {
    fn default() -> Self {
        FrameParams {
            azimuth: 0.0,
            elevation: 0.0,
            distance: 2.5,
            transfer_fn: 0,
        }
    }
}

/// A rendering job `J_i`.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Unique id (assigned by the listening thread in arrival order).
    pub id: JobId,
    /// Interactive or batch, and its provenance.
    pub kind: JobKind,
    /// The dataset to render.
    pub dataset: DatasetId,
    /// `JI(i)`: when the job was issued and queued (Definition 3).
    pub issue_time: SimTime,
    /// Camera/transfer-function parameters for the frame.
    pub frame: FrameParams,
}

impl Job {
    /// Decompose this job into per-chunk tasks (`T_{i,j}, j = 1..t_i`)
    /// according to the catalog's decomposition of its dataset.
    pub fn decompose(&self, catalog: &Catalog) -> Vec<Task> {
        catalog
            .chunks_of(self.dataset)
            .iter()
            .enumerate()
            .map(|(j, chunk)| Task {
                job: self.id,
                index: j as u32,
                chunk: chunk.id,
                bytes: chunk.bytes,
                interactive: self.kind.is_interactive(),
            })
            .collect()
    }
}

/// A task `T_{i,j}`: the piece of job `J_i` responsible for one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Owning job.
    pub job: JobId,
    /// Task index within the job, `0..t_i`.
    pub index: u32,
    /// The data chunk this task renders.
    pub chunk: ChunkId,
    /// Size of that chunk in bytes (denormalized to keep the hot path free
    /// of catalog lookups).
    pub bytes: u64,
    /// Whether the owning job is interactive.
    pub interactive: bool,
}

/// The head node's FIFO job queue, fed by the listening thread and drained
/// by the dispatching thread.
#[derive(Clone, Debug, Default)]
pub struct JobQueue {
    queue: VecDeque<Job>,
    pushed: u64,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a job (listening thread side).
    pub fn push(&mut self, job: Job) {
        self.pushed += 1;
        self.queue.push_back(job);
    }

    /// Dequeue the oldest job, if any (dispatching thread side).
    pub fn pop(&mut self) -> Option<Job> {
        self.queue.pop_front()
    }

    /// Drain every queued job in arrival order.
    pub fn drain_all(&mut self) -> Vec<Job> {
        self.queue.drain(..).collect()
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total jobs ever pushed (for accounting).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{uniform_datasets, Catalog, DecompositionPolicy};

    const GIB: u64 = 1 << 30;
    const MIB: u64 = 1 << 20;

    fn interactive_job(id: u64, dataset: u32) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(0),
            },
            dataset: DatasetId(dataset),
            issue_time: SimTime::ZERO,
            frame: FrameParams::default(),
        }
    }

    #[test]
    fn decompose_produces_one_task_per_chunk() {
        let catalog = Catalog::new(
            uniform_datasets(2, 2 * GIB),
            DecompositionPolicy::MaxChunkSize {
                max_bytes: 512 * MIB,
            },
        );
        let job = interactive_job(7, 1);
        let tasks = job.decompose(&catalog);
        assert_eq!(tasks.len(), 4);
        for (j, t) in tasks.iter().enumerate() {
            assert_eq!(t.job, JobId(7));
            assert_eq!(t.index, j as u32);
            assert_eq!(t.chunk, ChunkId::new(DatasetId(1), j as u32));
            assert_eq!(t.bytes, 512 * MIB);
            assert!(t.interactive);
        }
    }

    #[test]
    fn job_queue_is_fifo() {
        let mut q = JobQueue::new();
        q.push(interactive_job(1, 0));
        q.push(interactive_job(2, 0));
        q.push(interactive_job(3, 0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().id, JobId(1));
        let rest = q.drain_all();
        assert_eq!(rest.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 3);
    }

    #[test]
    fn kind_accessors() {
        let k = JobKind::Interactive {
            user: UserId(4),
            action: ActionId(9),
        };
        assert!(k.is_interactive());
        assert_eq!(k.user(), UserId(4));
        assert_eq!(k.action(), Some(ActionId(9)));
        let b = JobKind::Batch {
            user: UserId(2),
            request: BatchId(1),
            frame: 3,
        };
        assert!(!b.is_interactive());
        assert_eq!(b.user(), UserId(2));
        assert_eq!(b.action(), None);
    }
}
