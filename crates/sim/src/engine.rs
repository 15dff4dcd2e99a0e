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
//! * assigned tasks queue FIFO on their node; execution time comes from the
//!   cost model against the node's *authoritative* cache (so optimistic
//!   predictions can be wrong);
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
    /// `Chk_max` for the max-chunk-size decomposition.
    pub chunk_max: u64,
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
    /// Shared file-server contention: when set, a load that starts while
    /// `k` other loads are in flight cluster-wide runs at `1/(1 + k/c)` of
    /// nominal bandwidth, where `c` is this concurrency capacity (the
    /// number of streams the parallel FS serves at full speed). `None`
    /// models independent per-node disks. The slowdown is fixed at load
    /// start — a first-order approximation of fair-shared bandwidth.
    pub shared_fs_capacity: Option<u32>,
}

impl SimConfig {
    /// The paper's defaults: `ω` = 30 ms, LRU, exact cost model, cold start.
    pub fn new(cluster: ClusterSpec, cost: CostParams, chunk_max: u64) -> Self {
        SimConfig {
            cluster,
            cost,
            chunk_max,
            cycle: SimDuration::from_millis(30),
            eviction: EvictionPolicy::Lru,
            exec_jitter: 0.0,
            warm_start: false,
            gpu_quota: None,
            shared_fs_capacity: None,
        }
    }
}

/// A workload replayer for one configuration.
#[derive(Clone, Debug)]
pub struct Simulation {
    config: SimConfig,
    datasets: Vec<DatasetDesc>,
}

impl Simulation {
    /// Create a simulation over `datasets`.
    pub fn new(config: SimConfig, datasets: Vec<DatasetDesc>) -> Self {
        Simulation { config, datasets }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run one policy over `jobs` (must be sorted by issue time) under
    /// [`RunOptions`]: label, probe, fault plan, perturbation seed,
    /// `Estimate[c]` pre-seeding.
    /// Panics before the run starts if the fault plan fails
    /// [`FaultPlan::check`] on the cluster.
    pub fn run_opts(&self, jobs: Vec<Job>, opts: RunOptions) -> RuntimeOutcome {
        opts.fault_plan
            .check(self.config.cluster.len())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut config = self.config.clone();
        if let (Some(seed), EvictionPolicy::Random { seed: base }) = (opts.seed, config.eviction) {
            config.eviction = EvictionPolicy::Random {
                seed: base.wrapping_add(seed),
            };
        }
        let catalog = match opts.catalog {
            Some(catalog) => catalog,
            None => {
                let policy = match &opts.scheduler {
                    SchedulerChoice::Kind(kind) => kind
                        .build(config.cycle)
                        .decomposition(config.chunk_max, config.cluster.len() as u32),
                    SchedulerChoice::Instance(s) => {
                        s.decomposition(config.chunk_max, config.cluster.len() as u32)
                    }
                };
                Catalog::new(self.datasets.clone(), policy)
            }
        };
        let mut engine = Engine::new(
            &config,
            catalog,
            opts.scheduler,
            opts.shards,
            &opts.label,
            opts.probe,
            opts.seed.unwrap_or(0),
        );
        engine.runtime.set_overload_policy(opts.overload);
        for (chunk, estimate) in opts.initial_estimates {
            engine.runtime.seed_estimate(chunk, estimate);
        }
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
    /// Disk loads currently in flight (shared-FS contention input).
    loads_in_flight: u32,
}

impl Substrate for SimSubstrate<'_> {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        let node = assignment.node;
        self.nodes[node.index()].enqueue(*assignment);
        if self.nodes[node.index()].is_idle() {
            self.start_node(node);
        }
        true
    }

    fn crash_node(&mut self, node: NodeId) {
        // The node model is authoritative: its queue and running task are
        // dropped, its memory cleared, its completion generation bumped
        // (so the running task's `TaskDone` event is stale). The runtime
        // re-places the same tasks from its own outstanding ledger — FIFO
        // nodes keep the two views identical.
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
        // Shared-FS contention: loads starting now run slower the more
        // loads are already streaming from the file server.
        let contention = match self.config.shared_fs_capacity {
            Some(capacity) if capacity > 0 => 1.0 + self.loads_in_flight as f64 / capacity as f64,
            _ => 1.0,
        };
        let n = &mut self.nodes[node.index()];
        if !n.is_idle() || n.crashed {
            return;
        }
        let (finish, miss, generation) = match n.start_next(
            self.now,
            &self.config.cost,
            self.config.exec_jitter,
            contention,
        ) {
            Some(running) => (running.finish, running.miss, n.generation),
            None => return,
        };
        if miss {
            self.loads_in_flight += 1;
        }
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
        jitter_seed: u64,
    ) -> Self {
        let tables_for = |cluster: &ClusterSpec| match config.gpu_quota {
            Some(gpu) => {
                vizsched_core::tables::HeadTables::with_gpu_tier(cluster, gpu, config.eviction)
            }
            None => vizsched_core::tables::HeadTables::with_eviction(cluster, config.eviction),
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
            probe,
            |_, slice, shard_probe| {
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
                    shard_probe,
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
                let mut node = SimNode::new(
                    NodeId(k as u32),
                    spec.mem_quota,
                    config.eviction,
                    spec.disk_scale,
                    config.gpu_quota,
                );
                node.jitter_seed = jitter_seed;
                node
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
                loads_in_flight: 0,
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
        if done.miss {
            self.sub.loads_in_flight = self.sub.loads_in_flight.saturating_sub(1);
        }
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
