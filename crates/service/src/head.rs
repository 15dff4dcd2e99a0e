//! The head node and service assembly (§III-A): a listening side (the
//! request channel), render-node worker threads, per-job layer collection,
//! image compositing, and final-frame delivery to clients.
//!
//! All scheduling logic — cycle dispatch, table correction from task
//! completions, fault handling — is the shared `vizsched-runtime`
//! [`ShardedRuntime`], driven here on the wall clock by crossbeam
//! channels: the live counterpart of the simulator's event loop. Both
//! loops run a cycle when [`ShardedRuntime::next_cycle`] says one is due,
//! so live ticks land on the ω grid of the head clock as simulated ticks
//! land on the virtual one.
//!
//! Faults take the simulator's path. The head walks
//! [`ServiceConfig::fault_plan`] on the service clock and hands each entry
//! to [`ShardedRuntime::on_fault`], which crashes, respawns and degrades
//! worker threads through this file's [`Substrate`] hooks and re-places a
//! crashed node's work at the crash instant. A crash bumps the node's
//! epoch before it kills the worker, and the head drops every report —
//! `TaskDone` or `Stopped` — from an older epoch, so a render underway at
//! the kill never counts. A worker that dies on its own (a current-epoch
//! `Stopped`, or a dispatch that bounces off its channel) is crashed the
//! same way and stays down until the plan respawns it.

use crate::node::{run_node, NodeConfig};
use crate::protocol::{
    FrameResult, RenderOutcome, RenderReply, RenderRequest, RenderTask, TaskDone, ToHead, ToNode,
};
use crate::storage::ChunkStore;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::fxhash::FxHashMap;
use vizsched_core::ids::{JobId, NodeId};
use vizsched_core::job::{FrameParams, Job};
use vizsched_core::sched::{Assignment, SchedulerKind};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::{DropReason, NoopProbe, Probe, RejectReason};
use vizsched_render::Layer;
use vizsched_runtime::{
    Admission, Completion, FaultPlan, HeadRuntime, OverloadPolicy, RuntimeOutcome, ShardedRuntime,
    Substrate,
};

/// Service configuration, built up fluently:
///
/// ```
/// use vizsched_core::sched::SchedulerKind;
/// use vizsched_service::ServiceConfig;
///
/// let config = ServiceConfig::default().nodes(2).scheduler(SchedulerKind::Fcfsl);
/// ```
#[derive(Clone)]
pub struct ServiceConfig {
    /// Number of rendering nodes (worker threads).
    pub nodes: usize,
    /// Per-node chunk-cache quota in bytes.
    pub mem_quota: u64,
    /// Rendered frame size.
    pub image_size: (usize, usize),
    /// The scheduling policy (OURS by default).
    pub scheduler: SchedulerKind,
    /// Scheduling cycle `ω`.
    pub cycle: SimDuration,
    /// Observability sink: the head runtime reports every scheduling
    /// decision, completion, and table correction here. Defaults to
    /// [`NoopProbe`] (free).
    pub probe: Arc<dyn Probe>,
    /// Admission-control policy applied by the head runtime: in-flight
    /// caps, per-job deadlines, stale-frame coalescing, batch
    /// anti-starvation. Inactive by default (everything is admitted).
    pub overload: OverloadPolicy,
    /// Number of shards behind the consistent-hash routing tier. `1` (the
    /// default) is the paper's single head node: one cycle loop over
    /// every render node, no routing events. Above 1, each shard runs its
    /// own cycle loop over a leaf-aligned slice of the render nodes and
    /// every request routes by dataset.
    pub shards: usize,
    /// Seedable fault schedule, executed on the service clock through
    /// the simulator's interpreter: node crash/respawn, degrade/restore,
    /// correlated leaf outage, and shard-head crash with failover. Empty
    /// (the default) injects nothing.
    pub fault_plan: FaultPlan,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("nodes", &self.nodes)
            .field("mem_quota", &self.mem_quota)
            .field("image_size", &self.image_size)
            .field("scheduler", &self.scheduler)
            .field("cycle", &self.cycle)
            .field("probe_enabled", &self.probe.enabled())
            .field("overload", &self.overload)
            .field("shards", &self.shards)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            nodes: 4,
            mem_quota: 256 << 20,
            image_size: (128, 128),
            scheduler: SchedulerKind::Ours,
            cycle: SimDuration::from_millis(30),
            probe: Arc::new(NoopProbe),
            overload: OverloadPolicy::default(),
            shards: 1,
            fault_plan: FaultPlan::new(),
        }
    }
}

impl ServiceConfig {
    /// Set the number of rendering nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Set the per-node cache quota in bytes.
    pub fn mem_quota(mut self, bytes: u64) -> Self {
        self.mem_quota = bytes;
        self
    }

    /// Set the rendered frame size.
    pub fn image_size(mut self, width: usize, height: usize) -> Self {
        self.image_size = (width, height);
        self
    }

    /// Set the scheduling policy.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the scheduling cycle `ω`.
    pub fn cycle(mut self, cycle: SimDuration) -> Self {
        self.cycle = cycle;
        self
    }

    /// Attach an observability probe.
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Apply an overload-control policy at the head runtime.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Split the render nodes into `n` shards behind the consistent-hash
    /// routing tier (`n <= 1` is the paper's single head node).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Install a seedable [`FaultPlan`], executed on the service clock
    /// with the same semantics as the simulator — so any chaos run
    /// replays bit-identically in the sim.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// What a live run returns at shutdown: the simulator's
/// [`RuntimeOutcome`], under the name the service has always used.
///
/// The alias exists because code outside this workspace (the frame
/// benchmark) imports `ServiceStats` and reads its `per_shard`; the
/// record, the per-node counters and every total are `RuntimeOutcome`'s
/// own, so a live run feeds `SchedulerReport::from_run` exactly as a
/// simulated one does.
pub type ServiceStats = RuntimeOutcome;

/// Capacity of the bounded request queue in front of the head loop.
/// In-process clients block when it fills (backpressure); the TCP front
/// sheds instead, answering `Overloaded(queue_full)` without blocking.
const QUEUE_CAPACITY: usize = 1024;

/// Control-plane commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Control {
    /// Stop immediately; in-flight jobs are abandoned.
    Stop,
    /// Finish every accepted job, then stop.
    Drain,
}

/// A running visualization service.
pub struct VizService {
    requests: Sender<RenderRequest>,
    control: Sender<Control>,
    head: Option<JoinHandle<ServiceStats>>,
}

impl VizService {
    /// Start the service over an existing chunk store. Panics here, on the
    /// caller's thread, if the fault plan fails [`FaultPlan::check`] on the
    /// cluster.
    pub fn start(config: ServiceConfig, store: Arc<ChunkStore>) -> VizService {
        assert!(config.nodes > 0, "service needs at least one render node");
        config
            .fault_plan
            .check(config.nodes)
            .unwrap_or_else(|e| panic!("{e}"));
        // A fresh incarnation: TCP fronts greet clients with this epoch so
        // reconnecting clients can tell a respawned head from a live one.
        crate::tcp::bump_service_epoch();
        let (req_tx, req_rx) = bounded::<RenderRequest>(QUEUE_CAPACITY);
        let (ctl_tx, ctl_rx) = unbounded::<Control>();
        let head = std::thread::spawn(move || head_loop(&config, &store, req_rx, ctl_rx));
        VizService {
            requests: req_tx,
            control: ctl_tx,
            head: Some(head),
        }
    }

    /// The request endpoint for building clients.
    pub fn request_sender(&self) -> Sender<RenderRequest> {
        self.requests.clone()
    }

    /// Stop the service (in-flight jobs are abandoned) and collect stats.
    pub fn shutdown(mut self) -> ServiceStats {
        let _ = self.control.send(Control::Stop);
        self.head
            .take()
            .expect("shutdown called once")
            .join()
            .expect("head thread panicked")
    }

    /// Graceful shutdown: complete every job accepted so far (including
    /// deferred batch work), then stop and collect stats. Callers should
    /// stop submitting first; requests racing the drain may be dropped.
    pub fn drain_and_shutdown(mut self) -> ServiceStats {
        let _ = self.control.send(Control::Drain);
        self.head
            .take()
            .expect("shutdown called once")
            .join()
            .expect("head thread panicked")
    }
}

/// Client-facing state of one accepted, unfinished job. Scheduling state
/// (task counts, timings, outstanding work) lives in the shared runtime;
/// this is only what the runtime doesn't need: the reply channel, the
/// camera, and the layers accumulated for compositing.
struct PendingJob {
    reply: Sender<RenderReply>,
    correlation: u64,
    frame: FrameParams,
    misses: u32,
    layers: Vec<Layer>,
}

/// The threaded execution layer under the shared head runtime: one worker
/// thread per render node, fed over crossbeam channels on the wall clock.
struct LiveSubstrate {
    store: Arc<ChunkStore>,
    to_head: Sender<ToHead>,
    mem_quota: u64,
    image_size: (usize, usize),
    txs: Vec<Sender<ToNode>>,
    kill_flags: Vec<Arc<AtomicBool>>,
    epochs: Vec<u32>,
    handles: Vec<Option<JoinHandle<()>>>,
    retired: Vec<JoinHandle<()>>,
    pending: FxHashMap<JobId, PendingJob>,
    /// Nodes whose channel rejected a dispatch, with the epoch it was
    /// sent under: reported to the runtime as faults by the head loop.
    send_failures: Vec<(NodeId, u32)>,
}

impl Substrate for LiveSubstrate {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        // Deferred batch tasks surface in later cycles; their frame params
        // live on the pending entry (dropped jobs are skipped).
        let Some(job) = self.pending.get(&assignment.task.job) else {
            return false;
        };
        let msg = ToNode::Render(RenderTask {
            job: assignment.task.job,
            index: assignment.task.index,
            chunk: assignment.task.chunk,
            frame: job.frame,
            group: assignment.group,
            interactive: assignment.task.interactive,
        });
        let k = assignment.node.index();
        if self.txs[k].send(msg).is_err() {
            // The worker is gone. Keep the task tracked as outstanding —
            // the fault path reroutes everything on this node, it
            // included.
            self.send_failures.push((assignment.node, self.epochs[k]));
        }
        true
    }

    /// Retire the incarnation first, then raise its kill flag: every
    /// report the worker sends from here on is stale. The nudge message
    /// wakes a worker blocked on an empty queue; the flag (checked before
    /// every message) makes it drop any queued renders and exit.
    fn crash_node(&mut self, node: NodeId) {
        let k = node.index();
        self.epochs[k] += 1;
        self.kill_flags[k].store(true, Ordering::Relaxed);
        let _ = self.txs[k].send(ToNode::Shutdown);
    }

    /// Replace a crashed worker with a fresh, cold-cached incarnation. The
    /// crash already retired the old worker's epoch; the new one reports
    /// under the current epoch.
    fn respawn_node(&mut self, node: NodeId) {
        let k = node.index();
        if let Some(old) = self.handles[k].take() {
            self.retired.push(old);
        }
        let (tx, kill, handle) = self.launch(k);
        self.txs[k] = tx;
        self.kill_flags[k] = kill;
        self.handles[k] = Some(handle);
    }

    fn degrade_node(&mut self, node: NodeId, factor_pm: u32) {
        let _ = self.txs[node.index()].send(ToNode::Degrade(factor_pm));
    }
}

impl LiveSubstrate {
    fn spawn(config: &ServiceConfig, store: Arc<ChunkStore>, to_head: Sender<ToHead>) -> Self {
        let mut sub = LiveSubstrate {
            store,
            to_head,
            mem_quota: config.mem_quota,
            image_size: config.image_size,
            txs: Vec::with_capacity(config.nodes),
            kill_flags: Vec::with_capacity(config.nodes),
            epochs: vec![0; config.nodes],
            handles: Vec::with_capacity(config.nodes),
            retired: Vec::new(),
            pending: FxHashMap::default(),
            send_failures: Vec::new(),
        };
        for k in 0..config.nodes {
            let (tx, kill, handle) = sub.launch(k);
            sub.txs.push(tx);
            sub.kill_flags.push(kill);
            sub.handles.push(Some(handle));
        }
        sub
    }

    fn launch(&self, k: usize) -> (Sender<ToNode>, Arc<AtomicBool>, JoinHandle<()>) {
        let (tx, rx) = unbounded::<ToNode>();
        let kill = Arc::new(AtomicBool::new(false));
        let node_config = NodeConfig {
            id: NodeId(k as u32),
            epoch: self.epochs[k],
            mem_quota: self.mem_quota,
            image_size: self.image_size,
        };
        let store = self.store.clone();
        let to_head = self.to_head.clone();
        let flag = kill.clone();
        let handle = std::thread::spawn(move || run_node(node_config, store, rx, to_head, flag));
        (tx, kill, handle)
    }

    /// Whether a report sent under `epoch` comes from `node`'s current
    /// incarnation. Anything older was re-placed when the node crashed.
    fn is_current(&self, node: u32, epoch: u32) -> bool {
        self.epochs.get(node as usize) == Some(&epoch)
    }

    /// A worker that died on its own is crashed like a planned one: its
    /// incarnation retires, its work is re-placed, and it stays down
    /// until the plan respawns it.
    fn died(&mut self, runtime: &mut ShardedRuntime, now: SimTime, node: NodeId) {
        self.crash_node(node);
        runtime.on_node_fault(self, now, node);
    }

    fn shutdown(mut self) {
        for tx in &self.txs {
            let _ = tx.send(ToNode::Shutdown);
        }
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        for handle in self.retired.drain(..) {
            let _ = handle.join();
        }
    }
}

fn head_loop(
    config: &ServiceConfig,
    store: &Arc<ChunkStore>,
    requests: Receiver<RenderRequest>,
    control: Receiver<Control>,
) -> ServiceStats {
    let mut draining = false;
    let start = Instant::now();
    let now = || SimTime::from_micros(start.elapsed().as_micros() as u64);

    let cluster = ClusterSpec::homogeneous(config.nodes, config.mem_quota);
    let mut runtime = ShardedRuntime::new(
        &cluster,
        config.shards,
        config.cycle,
        config.probe.clone(),
        |_, slice, shard_probe| {
            HeadRuntime::new(
                config.scheduler.build(config.cycle),
                HeadTables::new(slice),
                store.catalog().clone(),
                CostParams::default(),
                shard_probe,
                "live-service",
            )
        },
    );
    runtime.set_overload_policy(config.overload);
    let (to_head_tx, from_nodes) = unbounded::<ToHead>();
    let mut sub = LiveSubstrate::spawn(config, store.clone(), to_head_tx);
    let mut next_job = 0u64;

    // The fault plan, executed in time order on the service clock: each
    // entry fires at the first loop iteration at or after its time, and
    // the loop wakes for the next one.
    let mut plan = config.fault_plan.events().iter().peekable();

    loop {
        // Dispatches that bounced off a dead channel surface as faults.
        while let Some((node, epoch)) = sub.send_failures.pop() {
            if sub.is_current(node.0, epoch) {
                sub.died(&mut runtime, now(), node);
            }
        }
        while let Some(fault) = plan.next_if(|f| f.at <= now()) {
            runtime.on_fault(&mut sub, now(), fault.kind);
        }
        // The runtime's cycle clock, the one the simulator follows: a
        // cycle due on the ω grid of this head's clock runs here, late by
        // however long the loop overslept, never skipped.
        let t = now();
        if runtime.next_cycle(t).is_some_and(|due| due <= t) {
            let outcome = runtime.on_cycle(&mut sub, t);
            for stale in outcome.expired {
                shed(
                    &mut sub,
                    stale,
                    RenderOutcome::Dropped(DropReason::DeadlineExpired),
                );
            }
        }
        if draining
            && sub.pending.is_empty()
            && runtime.queued_jobs() == 0
            && requests.is_empty()
            && !runtime.has_deferred()
        {
            break;
        }
        // Sleep until a message arrives, the next cycle is due, or the
        // next planned fault fires, whichever comes first.
        let t = now();
        let wake = runtime
            .next_cycle(t)
            .into_iter()
            .chain(plan.peek().map(|f| f.at))
            .min();
        let timeout = wake.map_or(Duration::MAX, |at| {
            Duration::from_micros(at.saturating_since(t).as_micros())
        });
        crossbeam::channel::select! {
            recv(control) -> msg => match msg {
                Ok(Control::Stop) | Err(_) => break,
                Ok(Control::Drain) => draining = true,
            },
            recv(requests) -> msg => {
                let Ok(req) = msg else { break };
                // The one intake point: a dataset outside the catalog is
                // refused here, before it costs a job id or a pending
                // entry (the runtime indexes the catalog unchecked).
                if req.dataset.index() >= store.catalog().datasets().len() {
                    let _ = req.reply.send(RenderReply {
                        correlation: req.correlation,
                        outcome: RenderOutcome::Rejected(RejectReason::UnknownDataset),
                    });
                    continue;
                }
                let job = Job {
                    id: JobId(next_job),
                    kind: req.kind,
                    dataset: req.dataset,
                    issue_time: now(),
                    frame: req.frame,
                };
                next_job += 1;
                sub.pending.insert(job.id, PendingJob {
                    reply: req.reply,
                    correlation: req.correlation,
                    frame: job.frame,
                    misses: 0,
                    layers: Vec::new(),
                });
                let t = job.issue_time;
                let id = job.id;
                match runtime.on_job_arrival(&mut sub, t, job).1 {
                    Admission::Rejected(reason) => {
                        shed(&mut sub, id, RenderOutcome::Rejected(reason));
                    }
                    Admission::Buffered { superseded } => {
                        for stale in superseded {
                            shed(&mut sub, stale,
                                RenderOutcome::Dropped(DropReason::Superseded));
                        }
                    }
                    Admission::Scheduled => {}
                }
            }
            recv(from_nodes) -> msg => match msg {
                // A crashed incarnation's reports are stale: the runtime
                // re-placed its work when it crashed.
                Ok(ToHead::TaskDone(done)) => {
                    if sub.is_current(done.node, done.epoch) {
                        handle_task_done(done, &mut runtime, &mut sub, now());
                    }
                }
                Ok(ToHead::Stopped { node, epoch }) => {
                    if sub.is_current(node, epoch) {
                        sub.died(&mut runtime, now(), NodeId(node));
                    }
                }
                Err(_) => {}
            },
            default(timeout) => {}
        }
    }

    sub.shutdown();
    runtime.into_outcome()
}

/// Tell a shed job's client what happened and forget the job. The runtime
/// has already dropped its own state for `job` (rejection, coalescing, or
/// deadline expiry); this clears the client-facing half.
fn shed(sub: &mut LiveSubstrate, job: JobId, outcome: RenderOutcome) {
    let Some(pending) = sub.pending.remove(&job) else {
        return;
    };
    let _ = pending.reply.send(RenderReply {
        correlation: pending.correlation,
        outcome,
    });
}

fn handle_task_done(
    done: TaskDone,
    runtime: &mut ShardedRuntime,
    sub: &mut LiveSubstrate,
    now: SimTime,
) {
    let node = NodeId(done.node);
    if let Some(job) = sub.pending.get_mut(&done.job) {
        job.layers.push(done.layer);
        job.misses += u32::from(done.miss);
    }
    // What the task occupied the node for beyond its I/O is the chunk's
    // render time `α` on this box, the value `Available` should charge.
    runtime.record_render(node, done.chunk, done.elapsed.saturating_sub(done.io));
    // The node reports how long the task executed; its start is therefore
    // `now - elapsed` on the head's clock (minus message latency, which is
    // microseconds in-process).
    let finish = runtime.on_task_done(
        now,
        Completion {
            node,
            job: done.job,
            task: done.index,
            chunk: done.chunk,
            started: now - done.elapsed,
            finish: now,
            io: done.io,
            miss: done.miss,
            evicted: done.evicted,
            gpu_resident: false,
            gpu_evicted: Vec::new(),
        },
    );
    let Some(fin) = finish else { return };
    let Some(job) = sub.pending.remove(&fin.job) else {
        return;
    };
    // Every layer is already in the head's memory, so the frame is a
    // front-to-back fold; the parallel swap algorithms exchange halves
    // between ranks that do not exist here.
    let image = composite(job.layers, CompositeAlgo::DirectSend);
    let _ = job.reply.send(RenderReply {
        correlation: job.correlation,
        outcome: RenderOutcome::Frame(FrameResult {
            job: fin.job,
            image: Arc::new(image),
            latency: fin.latency,
            cache_misses: job.misses,
        }),
    });
}
