//! The client-side API: submit interactive or batch rendering requests and
//! receive composited frames — or, under an active overload policy, the
//! rejection/drop verdicts of the admission layer.

use crate::protocol::{RenderReply, RenderRequest};
use crossbeam::channel::{unbounded, Receiver, Sender};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, UserId};
use vizsched_core::job::{FrameParams, JobKind};

/// A handle one user holds on the service.
#[derive(Clone)]
pub struct ServiceClient {
    user: UserId,
    requests: Sender<RenderRequest>,
}

impl ServiceClient {
    /// Build a client for `user` over the service's request endpoint.
    pub fn new(user: UserId, requests: Sender<RenderRequest>) -> Self {
        ServiceClient { user, requests }
    }

    /// Submit one interactive frame (one step of a camera drag). Returns
    /// the channel on which the outcome — the finished frame, or a
    /// rejection/drop verdict under an active overload policy — arrives.
    /// Blocks while the service's bounded request queue is full
    /// (backpressure).
    pub fn render_interactive(
        &self,
        action: ActionId,
        dataset: DatasetId,
        frame: FrameParams,
    ) -> Receiver<RenderReply> {
        let (tx, rx) = unbounded();
        let req = RenderRequest {
            user: self.user,
            kind: JobKind::Interactive {
                user: self.user,
                action,
            },
            dataset,
            frame,
            correlation: 0,
            reply: tx,
        };
        self.requests.send(req).expect("service stopped");
        rx
    }

    /// Submit a batch animation: all frames are queued at once; outcomes
    /// arrive on one channel in completion order, correlated by frame
    /// index.
    pub fn render_batch(
        &self,
        request: BatchId,
        dataset: DatasetId,
        frames: &[FrameParams],
    ) -> Receiver<RenderReply> {
        let (tx, rx) = unbounded();
        for (i, &frame) in frames.iter().enumerate() {
            let req = RenderRequest {
                user: self.user,
                kind: JobKind::Batch {
                    user: self.user,
                    request,
                    frame: i as u32,
                },
                dataset,
                frame,
                correlation: i as u64,
                reply: tx.clone(),
            };
            self.requests.send(req).expect("service stopped");
        }
        rx
    }
}
