//! # vizsched-workload
//!
//! Seeded multi-user workload generation for vizsched experiments:
//! interactive action streams (a render request every 30 ms per active
//! user) mixed with batch submissions, and the four scenario
//! configurations of the paper's Table II.
//!
//! The [`record`] module adds the scenario record/replay plane: a
//! versioned JSONL [`ScenarioRecord`] capturing any live or simulated
//! run's request stream (written by the [`RecordingProbe`]); its header,
//! [`ScenarioRecord::catalog`], [`ScenarioRecord::jobs`] and
//! [`ScenarioRecord::faults`] are what a simulator run needs to replay it
//! bit-identically. The [`traffic`] module layers six traffic shapes on the
//! same format: diurnal curves, flash crowds, camera-path locality, mixed
//! GPU tiers, time-varying heterogeneous datasets, and overload bursts for
//! admission-control experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod generator;
pub mod record;
pub mod scenario;
pub mod traffic;

pub use generator::{ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, WorkloadSpec};
pub use record::{
    RecordError, RecordHeader, RecordingProbe, ScenarioRecord, SessionKind, SessionLine,
    RECORD_KINDS, RECORD_VERSION,
};
pub use scenario::Scenario;
pub use traffic::{
    heterogeneous_catalog, mixed_tier_cluster, BurstSpec, CameraPathSpec, DiurnalSpec,
    FlashCrowdSpec, MixedTiersSpec, TimeVaryingSpec, TrafficShape, CROWD_USER_OFFSET,
};
