//! The discrete-event engine: replays a workload through a simulated
//! cluster under one scheduling policy and records the outcome.
//!
//! This is the execution substrate standing in for the paper's two physical
//! testbeds. The paper itself evaluates the schedulers "using simulation as
//! the means for the performance evaluation" (§VI-B); this engine gives the
//! same semantics with a virtual clock:
//!
//! * jobs arrive at their issue times and enter the head node's queue;
//! * the shared [`HeadRuntime`] invokes the policy on arrival (FCFS
//!   family) or every cycle `ω` (OURS, FS, SF) — a `Tick` event sits
//!   wherever [`ShardedRuntime::next_cycle`] says the next cycle is due,
//!   the clock the live head follows too — and applies the run-time
//!   table corrections on every completion;
//! * assigned tasks queue on their node in the runtime's `NodeQueue`
//!   order; execution time comes from the cost model against the node's
//!   *authoritative* cache (so optimistic predictions can be wrong);
//! * scheduling cost is measured in *host* wall-clock time around each
//!   `schedule` call — the quantity Table III reports in microseconds.
//!
//! All head-node logic lives in `vizsched-runtime`; this module only
//! implements the event-driven [`Substrate`]: the virtual clock, the node
//! model, and the event queue. Fault injection exercises the §VI-D claim
//! that rendering continues as long as replicas or reloads are possible:
//! each [`FaultPlan`] entry fires as an event and goes to
//! `ShardedRuntime::on_fault`, the interpreter the live service runs too.
//! The node hooks it calls back are the node model's: a crash clears the
//! node and bumps its `generation`, which turns the running task's pending
//! `TaskDone` event stale.

use crate::event::{EventKind, EventQueue};
use crate::node::SimNode;
use crate::options::{RunOptions, SchedulerChoice};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{Catalog, DatasetDesc};
use vizsched_core::ids::{ChunkId, NodeId};
use vizsched_core::job::Job;
use vizsched_core::memory::EvictionPolicy;
use vizsched_core::sched::Assignment;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::Probe;
use vizsched_runtime::{
    Completion, FaultPlan, HeadRuntime, NodeCounters, RuntimeOutcome, ShardedRuntime, Substrate,
};

/// Static configuration of one simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The cluster being simulated.
    pub cluster: ClusterSpec,
    /// Cost-model constants.
    pub cost: CostParams,
    /// Scheduling cycle `ω` for cycle-based policies.
    pub cycle: SimDuration,
    /// Cache eviction policy on every node (LRU in the paper).
    pub eviction: EvictionPolicy,
    /// Amplitude of the deterministic per-task execution-time perturbation
    /// (0.0 = exact cost model; the scenario experiments use 0.05 to model
    /// real render/disk variance).
    pub exec_jitter: f64,
    /// Pre-load chunks round-robin across nodes (up to each quota) before
    /// the run, mirroring the paper's initialization "test run" that also
    /// populates the `Estimate` table. Scenario 1's stated premise is that
    /// "total data ... can be completely cached".
    pub warm_start: bool,
    /// Enable the two-tier memory extension (§VII future work): per-node
    /// video-memory quota in bytes. `None` folds the GPU into the render
    /// constant, as the paper's base model does.
    pub gpu_quota: Option<u64>,
    /// Let the head model the GPU tier too (§VII extension; ignored
    /// without `gpu_quota`): its tables mirror video-memory residency, so
    /// every locality-aware placement also weighs the PCIe upload. Off,
    /// the head plans on host residency alone, as published.
    pub gpu_aware: bool,
}

impl SimConfig {
    /// The paper's defaults: `ω` = 30 ms, LRU, exact cost model, cold start.
    pub fn new(cluster: ClusterSpec, cost: CostParams) -> Self {
        SimConfig {
            cluster,
            cost,
            cycle: SimDuration::from_millis(30),
            eviction: EvictionPolicy::Lru,
            exec_jitter: 0.0,
            warm_start: false,
            gpu_quota: None,
            gpu_aware: false,
        }
    }
}

/// A workload replayer for one configuration over one choice of data
/// and bricking.
#[derive(Clone, Debug)]
pub struct Simulation {
    config: SimConfig,
    bricking: Bricking,
}

/// How a simulation's catalog is chosen: the policy decomposes the
/// datasets, or every run takes one fixed catalog.
#[derive(Clone, Debug)]
enum Bricking {
    Decompose {
        datasets: Vec<DatasetDesc>,
        chunk_max: u64,
    },
    Fixed(Catalog),
}

impl Simulation {
    /// A simulation over `datasets`, which each run's policy decomposes
    /// with `Chk_max = chunk_max` (FCFSU ignores it and cuts one chunk
    /// per node).
    pub fn new(config: SimConfig, datasets: Vec<DatasetDesc>, chunk_max: u64) -> Self {
        Simulation {
            config,
            bricking: Bricking::Decompose {
                datasets,
                chunk_max,
            },
        }
    }

    /// A simulation whose every run reads `catalog` as it is bricked —
    /// a recorded run's bricking, or a live `ChunkStore`'s for
    /// simulator-vs-service parity.
    pub fn with_catalog(config: SimConfig, catalog: Catalog) -> Self {
        Simulation {
            config,
            bricking: Bricking::Fixed(catalog),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The largest chunk a run may cut: `Chk_max`, or the largest chunk
    /// of a fixed catalog (0 when it has none).
    pub fn chunk_max(&self) -> u64 {
        match &self.bricking {
            Bricking::Decompose { chunk_max, .. } => *chunk_max,
            Bricking::Fixed(catalog) => catalog
                .datasets()
                .iter()
                .flat_map(|d| catalog.chunks_of(d.id))
                .map(|c| c.bytes)
                .max()
                .unwrap_or(0),
        }
    }

    /// Run one policy over `jobs` (must be sorted by issue time) under
    /// [`RunOptions`]: policy, label, probe, fault plan, overload policy
    /// and shard count.
    /// Panics before the run starts if the fault plan fails
    /// [`FaultPlan::check`] on the cluster and its shards.
    pub fn run_opts(&self, jobs: Vec<Job>, opts: RunOptions) -> RuntimeOutcome {
        let config = &self.config;
        opts.fault_plan
            .check(config.cluster.len(), opts.shards)
            .unwrap_or_else(|e| panic!("{e}"));
        let catalog = match &self.bricking {
            Bricking::Fixed(catalog) => catalog.clone(),
            Bricking::Decompose {
                datasets,
                chunk_max,
            } => {
                let nodes = config.cluster.len() as u32;
                let policy = match &opts.scheduler {
                    SchedulerChoice::Kind(kind) => {
                        kind.build(config.cycle).decomposition(*chunk_max, nodes)
                    }
                    SchedulerChoice::Instance(s) => s.decomposition(*chunk_max, nodes),
                };
                Catalog::new(datasets.clone(), policy)
            }
        };
        let mut engine = Engine::new(
            config,
            catalog,
            opts.scheduler,
            opts.shards,
            &opts.label,
            opts.probe,
        );
        engine.runtime.set_overload_policy(opts.overload);
        engine.run(jobs, &opts.fault_plan)
    }
}

/// The event-driven execution layer under the shared head runtime: a
/// virtual clock, the authoritative node model, and the event queue.
struct SimSubstrate<'a> {
    config: &'a SimConfig,
    nodes: Vec<SimNode>,
    events: EventQueue,
    now: SimTime,
    /// The instant of the one live `Tick` event; a tick popped at any
    /// other instant is stale.
    tick_at: Option<SimTime>,
}

impl Substrate for SimSubstrate<'_> {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        let node = assignment.node;
        self.nodes[node.index()].enqueue(*assignment, self.now);
        if self.nodes[node.index()].is_idle() {
            self.start_node(node);
        }
        true
    }

    fn crash_node(&mut self, node: NodeId) {
        // The node model is authoritative: its queue and running task are
        // dropped, its memory cleared, its completion generation bumped
        // (so the running task's `TaskDone` event is stale). The runtime
        // re-places the same tasks from its own ledger, which holds the
        // same queue.
        self.nodes[node.index()].crash();
    }

    fn respawn_node(&mut self, node: NodeId) {
        self.nodes[node.index()].recover();
    }

    fn degrade_node(&mut self, node: NodeId, factor_pm: u32) {
        self.nodes[node.index()].slow_pm = factor_pm;
    }
}

impl SimSubstrate<'_> {
    fn start_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        if !n.is_idle() || n.crashed {
            return;
        }
        let finish = match n.start_next(self.now, &self.config.cost, self.config.exec_jitter) {
            Some(running) => running.finish,
            None => return,
        };
        let generation = n.generation;
        self.events
            .push(finish, EventKind::TaskDone { node, generation });
    }

    /// Keep one `Tick` event queued at the instant the runtime's cycle
    /// clock says the next cycle is due.
    fn arm(&mut self, due: Option<SimTime>) {
        if let Some(at) = due {
            if self.tick_at != Some(at) {
                self.tick_at = Some(at);
                self.events.push(at, EventKind::Tick);
            }
        }
    }
}

struct Engine<'a> {
    runtime: ShardedRuntime,
    sub: SimSubstrate<'a>,
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a SimConfig,
        catalog: Catalog,
        scheduler: SchedulerChoice,
        shards: usize,
        scenario: &str,
        probe: std::sync::Arc<dyn Probe>,
    ) -> Self {
        let tables_for = |cluster: &ClusterSpec| match config.gpu_quota {
            Some(gpu) if config.gpu_aware => {
                vizsched_core::tables::HeadTables::with_gpu_tier(cluster, gpu, config.eviction)
            }
            _ => vizsched_core::tables::HeadTables::with_eviction(cluster, config.eviction),
        };
        // Schedulers are stateful, so every shard runs its own: a kind
        // builds a fresh one per shard, a pre-built instance serves the one
        // shard of an unsharded run.
        let (kind, mut instance) = match scheduler {
            SchedulerChoice::Kind(kind) => (Some(kind), None),
            SchedulerChoice::Instance(instance) => (None, Some(instance)),
        };
        let runtime = ShardedRuntime::new(
            &config.cluster,
            shards,
            config.cycle,
            probe.clone(),
            |slice| {
                let scheduler = match kind {
                    Some(kind) => kind.build(config.cycle),
                    None => instance.take().expect(
                        "sharded runs build one scheduler per shard; pass SchedulerKind, \
                         not a pre-built instance",
                    ),
                };
                HeadRuntime::new(
                    scheduler,
                    tables_for(slice),
                    catalog.clone(),
                    config.cost,
                    probe.clone(),
                    scenario,
                )
            },
        );
        let nodes = config
            .cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                SimNode::new(
                    NodeId(k as u32),
                    spec.mem_quota,
                    config.eviction,
                    spec.disk_scale,
                    config.gpu_quota,
                )
            })
            .collect();
        Engine {
            runtime,
            sub: SimSubstrate {
                config,
                nodes,
                events: EventQueue::new(),
                now: SimTime::ZERO,
                tick_at: None,
            },
        }
    }

    fn run(mut self, jobs: Vec<Job>, fault_plan: &FaultPlan) -> RuntimeOutcome {
        if self.sub.config.warm_start {
            self.warm_start();
        }
        // Seed the event queue with arrivals and the fault plan.
        let mut last = SimTime::ZERO;
        for job in jobs {
            assert!(job.issue_time >= last, "jobs must be sorted by issue time");
            last = job.issue_time;
            self.sub
                .events
                .push(job.issue_time, EventKind::Arrival(job));
        }
        for event in fault_plan.events() {
            self.sub
                .events
                .push(event.at, EventKind::PlanFault(event.kind));
        }

        while let Some(event) = self.sub.events.pop() {
            let now = event.time;
            self.sub.now = now;
            match event.kind {
                EventKind::Arrival(job) => {
                    self.runtime.on_job_arrival(&mut self.sub, now, job);
                }
                EventKind::Tick => {
                    if self.sub.tick_at == Some(now) {
                        self.sub.tick_at = None;
                        self.runtime.on_cycle(&mut self.sub, now);
                    }
                }
                EventKind::TaskDone { node, generation } => self.on_task_done(node, generation),
                // The runtime's fault interpreter, the one the live
                // service runs too.
                EventKind::PlanFault(kind) => self.runtime.on_fault(&mut self.sub, now, kind),
            }
            let due = self.runtime.next_cycle(now);
            self.sub.arm(due);
        }

        self.finish()
    }

    /// The paper's initialization "test run": chunks are distributed
    /// round-robin over the nodes until each node's quota is full, and the
    /// head node's `Cache` table reflects the placement. (The `Estimate`
    /// table needs no seeding — its cost-model fallback is the test-run
    /// estimate.)
    fn warm_start(&mut self) {
        let p = self.sub.nodes.len();
        let chunks: Vec<(ChunkId, u64)> = self
            .runtime
            .catalog()
            .datasets()
            .iter()
            .flat_map(|d| self.runtime.catalog().chunks_of(d.id))
            .map(|c| (c.id, c.bytes))
            .collect();
        for (i, (chunk, bytes)) in chunks.into_iter().enumerate() {
            let node = NodeId((i % p) as u32);
            let mem = &mut self.sub.nodes[node.index()].memory;
            let host = mem.host();
            if host.used() + bytes <= host.quota() && !mem.host_resident(chunk) {
                mem.access(chunk, bytes);
                self.runtime.record_warm_load(node, chunk, bytes);
            }
        }
    }

    fn on_task_done(&mut self, node: NodeId, generation: u32) {
        {
            let n = &self.sub.nodes[node.index()];
            if n.crashed || n.generation != generation {
                return; // stale completion from before a crash
            }
        }
        let done = self.sub.nodes[node.index()].complete();
        let task = done.assignment.task;
        let completion = Completion {
            node,
            job: task.job,
            task: task.index,
            chunk: task.chunk,
            started: done.started,
            finish: done.finish,
            io: done.io,
            miss: done.miss,
            evicted: done.evicted,
            gpu_resident: done.tier == vizsched_core::tiered::Tier::Gpu,
            gpu_evicted: done.gpu_evicted,
        };
        self.runtime.on_task_done(self.sub.now, completion);
        self.sub.start_node(node);
    }

    fn finish(self) -> RuntimeOutcome {
        let mut outcome = self.runtime.into_outcome();
        // The node model's counters are authoritative (they include work
        // started but lost to crashes, and real eviction totals).
        let nodes = &self.sub.nodes;
        outcome.per_node = nodes
            .iter()
            .map(|n| NodeCounters {
                tasks: n.hits + n.misses,
                hits: n.hits,
                misses: n.misses,
            })
            .collect();
        let total: NodeCounters = outcome.per_node.iter().copied().sum();
        let record = &mut outcome.record;
        record.cache_hits = total.hits;
        record.cache_misses = total.misses;
        record.gpu_hits = nodes.iter().map(|n| n.gpu_hits).sum();
        record.evictions = nodes.iter().map(|n| n.memory.host().evictions()).sum();
        outcome
    }
}
