//! # vizsched-workload
//!
//! Seeded multi-user workload generation for vizsched experiments:
//! interactive action streams (a render request every 30 ms per active
//! user) mixed with batch submissions, the four scenario configurations of
//! the paper's Table II, and overload-burst overlays for admission-control
//! experiments.
//!
//! The [`record`] module adds the scenario record/replay plane: a
//! versioned JSONL [`ScenarioRecord`] capturing any live or simulated
//! run's request stream (written by the [`RecordingProbe`]), and
//! [`Scenario::from_record`] to replay it bit-identically in the
//! simulator. The [`traffic`] module layers five non-Poisson traffic
//! shapes on the same format: diurnal curves, flash crowds, camera-path
//! locality, mixed GPU tiers, and time-varying heterogeneous datasets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod burst;
pub mod generator;
pub mod record;
pub mod scenario;
pub mod traffic;

pub use burst::{BurstSpec, BURST_ACTION_OFFSET, BURST_USER_OFFSET};
pub use generator::{ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, WorkloadSpec};
pub use record::{
    RecordError, RecordHeader, RecordingProbe, ScenarioRecord, SessionKind, SessionLine,
    RECORD_KINDS, RECORD_VERSION,
};
pub use scenario::{ReplayPlan, Scenario};
pub use traffic::{
    heterogeneous_catalog, mixed_tier_cluster, CameraPathSpec, DiurnalSpec, FlashCrowdSpec,
    MixedTiersSpec, TimeVaryingSpec, TrafficShape, CROWD_USER_OFFSET,
};
