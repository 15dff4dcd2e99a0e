//! # vizsched-service
//!
//! The live visualization service (§III-A): a head node with listening and
//! dispatching roles, render-node worker threads with brick caches over a
//! disk chunk store, sort-last compositing of the returned layers, and a
//! client API — crossbeam channels standing in for MPI. Task placement and
//! table correction are the shared `vizsched-runtime` head loop, the same
//! Algorithm 1 implementation the simulator drives on a virtual clock.
//!
//! The discrete-event simulator (`vizsched-sim`) answers "how do the
//! policies compare at cluster scale"; this crate answers "does the whole
//! pipeline actually render frames end-to-end".
//!
//! Overload control: a bounded request queue sits in front of the head
//! loop (the TCP front answers `Overloaded(queue_full)` when it fills), and
//! [`ServiceConfig::overload`] applies an
//! [`OverloadPolicy`] — in-flight caps, per-job deadlines, stale-frame
//! coalescing, batch anti-starvation — inside the shared head runtime, so
//! the live service and the simulator shed identically.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod codec;
pub mod head;
pub mod node;
pub mod protocol;
pub mod storage;
pub mod tcp;
pub mod wire;

pub use client::ServiceClient;
pub use codec::{Codec, CodecStats};
pub use head::{ServiceConfig, ServiceStats, VizService};
pub use protocol::{
    FrameResult, RenderOutcome, RenderReply, RenderRequest, RenderTask, TaskDone, ToHead, ToNode,
};
pub use storage::{ChunkStore, StoreDataset};
pub use tcp::{ClientOptions, RemoteClient, TcpServer};
pub use vizsched_runtime::{
    FaultEvent, FaultKind, FaultPlan, OverloadPolicy, OverloadStats, ShardOutcome,
};
pub use wire::{WireFrame, WireMessage, WireRequest, WireResponse};

/// The one-line import for service experiments: assembly, client, storage,
/// the full protocol surface, and the probe machinery the head reports to.
pub mod prelude {
    pub use crate::client::ServiceClient;
    pub use crate::codec::{Codec, CodecStats};
    pub use crate::head::{ServiceConfig, ServiceStats, VizService};
    pub use crate::protocol::{
        FrameResult, RenderOutcome, RenderReply, RenderRequest, RenderTask, TaskDone, ToHead,
        ToNode,
    };
    pub use crate::storage::{ChunkStore, StoreDataset};
    pub use crate::tcp::{ClientOptions, RemoteClient, TcpServer};
    pub use crate::wire::{WireFrame, WireMessage, WireRequest, WireResponse};
    pub use vizsched_metrics::{
        CollectingProbe, DropReason, NoopProbe, Probe, RejectReason, TraceEvent,
    };
    pub use vizsched_runtime::{FaultEvent, FaultKind, FaultPlan, OverloadPolicy, OverloadStats};
}
