//! # vizsched-metrics
//!
//! Result records and aggregation for vizsched experiments: job records,
//! per-action frame rates (Definition 4), latency summaries, data-reuse hit
//! rates, and wall-clock scheduling costs — the quantities behind every
//! figure and table in the paper's evaluation.
//!
//! The [`trace`] module adds the observability layer: a [`Probe`] receives
//! structured [`TraceEvent`]s from an execution substrate (scheduling
//! cycles, assignments with their predictions, completions with observed
//! reality, §V-B table corrections), and derived reports turn the stream
//! into prediction-accuracy summaries and per-node activity timelines.
//!
//! The [`json`] module is the workspace's one JSON reader/writer, shared
//! by the bench reports, the scenario record and (for its escaper) anyone
//! else who writes JSON text.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bars;
pub mod json;
pub mod record;
pub mod report;
pub mod stats;
pub mod trace;

pub use bars::{bar_chart, format_figure};
pub use record::{JobRecord, RunRecord};
pub use report::{format_comparison, format_table3_block, jain_index, SchedulerReport};
pub use stats::Summary;
pub use trace::{
    estimate_trajectory, events_to_jsonl, format_node_activity, format_prediction_report,
    node_activity, prediction_by_cycle, recovery_report, CollectingProbe, CyclePrediction,
    DropReason, EstimatePoint, FaultRecovery, NodeActivity, NoopProbe, Probe, RecoveryReport,
    RejectReason, TraceEvent,
};
