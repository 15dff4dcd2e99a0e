//! # vizsched-sim
//!
//! A deterministic discrete-event simulator of a GPU rendering cluster:
//! the execution substrate for every scheduling experiment in the paper
//! reproduction. Nodes process tasks from a two-lane queue (frames ahead
//! of batch queued less than a cycle before them) over an authoritative
//! LRU chunk cache and a disk model; all head-node logic — scheduler invocation,
//! run-time table correction, fault handling — is the shared
//! `vizsched-runtime`, driven here by a virtual clock and an event queue;
//! a [`FaultPlan`] injects node crashes and recoveries to exercise the
//! fault-tolerance claim of §VI-D.
//!
//! Runs are configured through the builder-style [`RunOptions`]: the
//! policy, a scenario label, the fault plan, the overload policy and
//! shard count, and an optional [`vizsched_metrics::Probe`]
//! receiving every scheduling decision, completion, and table correction
//! — the probe stream is the only per-task record a run keeps.
//!
//! ```
//! use vizsched_core::prelude::*;
//! use vizsched_sim::{RunOptions, SimConfig, Simulation};
//!
//! let cluster = ClusterSpec::homogeneous(4, 2 << 30);
//! let config = SimConfig::new(cluster, CostParams::default());
//! let sim = Simulation::new(config, uniform_datasets(2, 2 << 30), 512 << 20);
//!
//! let job = Job {
//!     id: JobId(0),
//!     kind: JobKind::Interactive { user: UserId(0), action: ActionId(0) },
//!     dataset: DatasetId(0),
//!     issue_time: SimTime::ZERO,
//!     frame: FrameParams::default(),
//! };
//! let outcome = sim.run_opts(vec![job], RunOptions::new(SchedulerKind::Ours).label("doc"));
//! assert_eq!(outcome.incomplete_jobs, 0);
//! assert!(outcome.record.jobs[0].timing.latency().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod event;
pub mod node;
pub mod options;

pub use engine::{SimConfig, Simulation};
pub use event::{Event, EventKind, EventQueue};
pub use node::{RunningTask, SimNode};
pub use options::{RunOptions, SchedulerChoice};
pub use vizsched_runtime::{
    FaultEvent, FaultKind, FaultPlan, NodeCounters, OverloadPolicy, OverloadStats, RuntimeOutcome,
    ShardOutcome,
};

/// The one-line import for simulation experiments: the simulation types,
/// run configuration, and the probe machinery they plug into.
pub mod prelude {
    pub use crate::engine::{SimConfig, Simulation};
    pub use crate::options::{RunOptions, SchedulerChoice};
    pub use vizsched_metrics::{CollectingProbe, NoopProbe, Probe, TraceEvent};
    pub use vizsched_runtime::{FaultKind, FaultPlan, RuntimeOutcome};
}
