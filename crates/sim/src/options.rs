//! Builder-style run configuration: everything one `Simulation::run_opts`
//! invocation can vary without rebuilding the simulation.
//!
//! [`SimConfig`](crate::SimConfig) describes the *substrate* — cluster,
//! cost model, cycle — and [`Simulation`](crate::Simulation) its data and
//! bricking. [`RunOptions`] describes one *run* over that substrate: which
//! policy, under what label, observed by which probe, under which fault
//! plan, overload policy and shard count. Every setter has a caller among the bench binaries; the
//! repository's docs-consistency test keeps it that way.
//!
//! ```
//! use std::sync::Arc;
//! use vizsched_core::prelude::*;
//! use vizsched_metrics::CollectingProbe;
//! use vizsched_sim::RunOptions;
//!
//! let probe = Arc::new(CollectingProbe::new());
//! let opts = RunOptions::new(SchedulerKind::Ours)
//!     .label("traced")
//!     .shards(2)
//!     .probe(probe.clone());
//! assert_eq!(opts.label_str(), "traced");
//! ```

use std::sync::Arc;
use vizsched_core::sched::{Scheduler, SchedulerKind};
use vizsched_metrics::{NoopProbe, Probe};
use vizsched_runtime::{FaultPlan, OverloadPolicy};

/// The policy a run executes: a named kind (built against the effective
/// cycle `ω`) or a pre-built instance (parameter ablations).
pub enum SchedulerChoice {
    /// Build one of the paper's policies by name.
    Kind(SchedulerKind),
    /// Use this exact instance.
    Instance(Box<dyn Scheduler>),
}

impl std::fmt::Debug for SchedulerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerChoice::Kind(kind) => write!(f, "Kind({kind:?})"),
            SchedulerChoice::Instance(s) => write!(f, "Instance({})", s.name()),
        }
    }
}

/// Options for one simulation run. Construct with [`RunOptions::new`] (a
/// policy by name) or [`RunOptions::with_scheduler`] (an explicit
/// instance), then chain overrides.
pub struct RunOptions {
    pub(crate) scheduler: SchedulerChoice,
    pub(crate) label: String,
    pub(crate) probe: Arc<dyn Probe>,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) overload: OverloadPolicy,
    pub(crate) shards: usize,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("scheduler", &self.scheduler)
            .field("label", &self.label)
            .field("probe_enabled", &self.probe.enabled())
            .field("fault_plan", &self.fault_plan)
            .field("overload", &self.overload)
            .field("shards", &self.shards)
            .finish()
    }
}

impl RunOptions {
    /// Run one of the paper's policies, instantiated against the run's
    /// effective cycle `ω`.
    pub fn new(kind: SchedulerKind) -> Self {
        Self::with_choice(SchedulerChoice::Kind(kind))
    }

    /// Run an explicit scheduler instance (parameter ablations).
    pub fn with_scheduler(scheduler: Box<dyn Scheduler>) -> Self {
        Self::with_choice(SchedulerChoice::Instance(scheduler))
    }

    fn with_choice(scheduler: SchedulerChoice) -> Self {
        RunOptions {
            scheduler,
            label: String::new(),
            probe: Arc::new(NoopProbe),
            fault_plan: FaultPlan::new(),
            overload: OverloadPolicy::default(),
            shards: 1,
        }
    }

    /// Scenario label recorded on the run's `RunRecord`.
    pub fn label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Attach a probe; every scheduling decision, completion, and table
    /// correction is reported to it. Defaults to
    /// [`NoopProbe`], which costs nothing.
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Install a seedable [`FaultPlan`] covering the full taxonomy —
    /// node crash/respawn, slow-node degrade/restore, correlated leaf
    /// outage, shard-head crash. The live service executes the same plan
    /// with the same semantics, so any chaos run replays bit-identically
    /// in the sim. The default, empty plan injects nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Apply an overload-control policy to the head runtime for this run:
    /// admission caps, per-job deadlines, stale-frame coalescing, and batch
    /// anti-starvation escalation. The default (inactive) policy admits
    /// everything, preserving historical behavior bit-for-bit.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Split the cluster into `n` shards behind the consistent-hash
    /// routing tier: each shard runs its own head-node cycle loop over a
    /// leaf-aligned slice of the nodes, and jobs route by dataset.
    /// `n <= 1` (the default) is the paper's single head node: one
    /// cycle loop over every node, no routing events. Runs with more
    /// shards build one scheduler per shard, so they require a named
    /// policy ([`RunOptions::new`]), not a pre-built instance.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// The configured label (handy in assertions and logs).
    pub fn label_str(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::ids::NodeId;
    use vizsched_core::time::SimTime;

    #[test]
    fn builder_accumulates_overrides() {
        let opts = RunOptions::new(SchedulerKind::Fs)
            .label("x")
            .fault_plan(FaultPlan::new().crash_at(SimTime::from_secs(1), NodeId(0)));
        assert_eq!(opts.label_str(), "x");
        assert_eq!(opts.fault_plan.len(), 1);
        // Debug is implemented by hand (trait objects aren't Debug).
        let dbg = format!("{opts:?}");
        assert!(dbg.contains("Kind(Fs)"), "{dbg}");
    }

    #[test]
    fn default_probe_is_disabled() {
        let opts = RunOptions::new(SchedulerKind::Ours);
        assert!(!opts.probe.enabled());
        assert!(opts.fault_plan.is_empty(), "no faults unless planned");
    }
}
