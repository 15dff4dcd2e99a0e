//! # vizsched-core
//!
//! Core library for **vizsched**, a reproduction of *"A Job Scheduling
//! Design for Visualization Services using GPU Clusters"* (Hsu, Wang, Ma,
//! Yu, Chen — IEEE CLUSTER 2012). A visualization service lets many users
//! concurrently render large volumetric datasets on a GPU cluster, in both
//! interactive mode (a frame every 30 ms while the user drags the camera)
//! and batch mode (animations, time-varying sweeps). Because fetching a
//! data chunk from disk takes *seconds* while rendering it takes
//! *milliseconds*, the scheduler's job is above all to keep computation
//! next to its data.
//!
//! This crate contains everything the paper's head node knows:
//!
//! * the job/task/chunk model and [data decomposition](data) policies
//!   (§III),
//! * the [cost model](cost) — task execution, job latency, per-action
//!   frame rate (§IV, Definitions 1–4),
//! * the three head-node [tables] — `Available`, `Cache`,
//!   `Estimate` — with run-time correction (§V),
//! * six [scheduling policies](sched): the paper's cycle-based,
//!   locality-aware, batch-deferring scheduler (**OURS**, Algorithm 1) and
//!   the five baselines FCFS, FCFSL, FCFSU, SF, FS (§VI-B).
//!
//! Execution substrates live in sibling crates: `vizsched-sim` replays
//! workloads through a discrete-event cluster model; `vizsched-service`
//! runs a live multi-threaded rendering service on top of
//! `vizsched-render` / `vizsched-compositing`.
//!
//! ## Quick taste
//!
//! ```
//! use vizsched_core::prelude::*;
//!
//! // An 8-node cluster, 2 GiB of cache per node (the paper's Scenario 1).
//! let cluster = ClusterSpec::homogeneous(8, 2 << 30);
//! let mut tables = HeadTables::new(&cluster);
//!
//! // Six 2 GiB datasets in 512 MiB chunks: 4 tasks per rendering job.
//! let catalog = Catalog::new(
//!     uniform_datasets(6, 2 << 30),
//!     DecompositionPolicy::MaxChunkSize { max_bytes: 512 << 20 },
//! );
//!
//! // The proposed scheduler, 30 ms cycle.
//! let mut sched = SchedulerKind::Ours.build(SimDuration::from_millis(30));
//!
//! let job = Job {
//!     id: JobId(1),
//!     kind: JobKind::Interactive { user: UserId(0), action: ActionId(0) },
//!     dataset: DatasetId(3),
//!     issue_time: SimTime::ZERO,
//!     frame: FrameParams::default(),
//! };
//! let cost = CostParams::default();
//! let mut ctx = ScheduleCtx {
//!     now: SimTime::ZERO,
//!     tables: &mut tables,
//!     catalog: &catalog,
//!     cost: &cost,
//! };
//! let assignments = sched.schedule(&mut ctx, vec![job]);
//! assert_eq!(assignments.len(), 4); // one task per 512 MiB chunk
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod cost;
pub mod data;
pub mod fault;
pub mod fxhash;
pub mod ids;
pub mod job;
pub mod memory;
pub mod rng;
pub mod sched;
pub mod tables;
pub mod tiered;
pub mod time;

/// Doctest anchor for `docs/POLICY_GUIDE.md`: every Rust block in the
/// policy-author's guide compiles and runs against this crate as part of
/// `cargo test --doc`, so the guide cannot drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/POLICY_GUIDE.md")]
pub struct PolicyGuide;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::cluster::{ClusterSpec, NodeSpec};
    pub use crate::cost::{framerate, CostParams, JobTiming};
    pub use crate::data::{uniform_datasets, Catalog, ChunkDesc, DatasetDesc, DecompositionPolicy};
    pub use crate::ids::{ActionId, BatchId, ChunkId, DatasetId, JobId, NodeId, ShardId, UserId};
    pub use crate::job::{FrameParams, Job, JobKind, JobQueue, Task};
    pub use crate::memory::{EvictionPolicy, NodeMemory};
    pub use crate::sched::{
        Assignment, OursParams, OursScheduler, ScheduleCtx, Scheduler, SchedulerKind, Trigger,
    };
    pub use crate::tables::{AvailHeap, AvailableTable, CacheTable, EstimateTable, HeadTables};
    pub use crate::tiered::{Tier, TierAccess, TieredMemory};
    pub use crate::time::{SimDuration, SimTime};
}
