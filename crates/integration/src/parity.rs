//! The sim ≡ live parity rig: the one place a paired run is configured.
//!
//! A parity test is only as strong as the guarantee that both substrates
//! were set up alike. [`Pair`] describes a run once; [`Pair::open`]
//! bricks one [`ChunkStore`] for it; [`Rig::live`] and [`Rig::sim`] are
//! the only translations of that description into a [`ServiceConfig`] and
//! into a [`SimConfig`] + [`RunOptions`], over the *same physical
//! catalog*. The trace projections both sides are compared through live
//! here too, each defined once, and so does the one place a probe is
//! attached to either substrate.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_core::data::Catalog;
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, Probe, RejectReason, TraceEvent};
use vizsched_service::{
    ChunkStore, FaultPlan, OverloadPolicy, RenderReply, ServiceClient, ServiceConfig, ServiceStats,
    StoreDataset, VizService,
};
use vizsched_sim::{RunOptions, RuntimeOutcome, SimConfig, Simulation};
use vizsched_volume::Field;

/// Every live frame of a paired run is rendered at this size: big enough
/// to composite, small enough that render time never matters.
const IMAGE: (usize, usize) = (32, 32);

/// One paired run. Every field defaults to what the parity files agree
/// on, so a test states only what it changes.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Policy under test on both substrates.
    pub scheduler: SchedulerKind,
    /// What the store holds (see [`datasets`]).
    pub datasets: Vec<StoreDataset>,
    /// Render nodes.
    pub nodes: usize,
    /// Per-node cache quota, bytes.
    pub mem_quota: u64,
    /// Store read bandwidth, bytes/s. On by default so every measured
    /// load is comfortably nonzero: a zero measured estimate would erase
    /// the locality advantage the deterministic-placement argument of the
    /// parity files rests on.
    pub throttle: Option<u64>,
    /// Shards behind the routing tier.
    pub shards: usize,
    /// Scheduling cycle `ω`.
    pub cycle: SimDuration,
    /// Admission policy.
    pub overload: OverloadPolicy,
    /// Fault schedule (empty by default).
    pub fault_plan: FaultPlan,
}

impl Default for Pair {
    fn default() -> Self {
        Pair {
            scheduler: SchedulerKind::Ours,
            datasets: datasets(2, 4),
            nodes: 4,
            mem_quota: 1 << 20,
            throttle: Some(4 << 20),
            shards: 1,
            cycle: SimDuration::from_millis(30),
            overload: OverloadPolicy::default(),
            fault_plan: FaultPlan::new(),
        }
    }
}

/// `count` small datasets alternating `Shells` / `Plume`, each bricked
/// into exactly `bricks` chunks. The parity files pick `bricks` equal to
/// the node slice one job spreads over — that is what makes placement
/// substrate-independent.
pub fn datasets(count: usize, bricks: usize) -> Vec<StoreDataset> {
    (0..count)
        .map(|i| StoreDataset {
            field: [Field::Shells, Field::Plume][i % 2],
            dims: [16, 16, 32],
            bricks,
        })
        .collect()
}

impl Pair {
    /// Brick the one store both halves of the run share.
    pub fn open(self) -> Rig {
        static OPENED: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "vizsched-parity-{}-{}",
            std::process::id(),
            OPENED.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = ChunkStore::create(&root, &self.datasets).expect("brick the parity store");
        store.set_throttle(self.throttle);
        Rig {
            pair: self,
            store: Arc::new(store),
        }
    }
}

/// A [`Pair`] with its store on disk. Dropping the rig removes the brick
/// files — also when the test that owns it is unwinding from a failed
/// assertion.
pub struct Rig {
    pair: Pair,
    store: Arc<ChunkStore>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

impl Rig {
    /// The store's physical bricking: the catalog both substrates run on.
    pub fn catalog(&self) -> &Catalog {
        self.store.catalog()
    }

    /// The cluster both substrates model.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::homogeneous(self.pair.nodes, self.pair.mem_quota)
    }

    /// Run the live half: start the service, hand it to `drive`, drain it.
    /// `drive` is [`Rig::serial`], [`Rig::paced`], or a test's own
    /// hand-timed bursts.
    pub fn live(&self, probe: Arc<dyn Probe>, drive: impl FnOnce(&VizService)) -> ServiceStats {
        let pair = &self.pair;
        let config = ServiceConfig::default()
            .nodes(pair.nodes)
            .shards(pair.shards)
            .mem_quota(pair.mem_quota)
            .image_size(IMAGE.0, IMAGE.1)
            .scheduler(pair.scheduler)
            .cycle(pair.cycle)
            .overload(pair.overload)
            .fault_plan(pair.fault_plan.clone())
            .probe(probe);
        let service = VizService::start(config, self.store.clone());
        drive(&service);
        service.drain_and_shutdown()
    }

    /// [`Rig::live`] under a [`CollectingProbe`], returning its events.
    pub fn live_traced(&self, drive: impl FnOnce(&VizService)) -> (Vec<TraceEvent>, ServiceStats) {
        let probe = Arc::new(CollectingProbe::new());
        let stats = self.live(probe.clone(), drive);
        (probe.take(), stats)
    }

    /// Run the simulated half over `jobs`; returns the probe's events and
    /// the outcome.
    pub fn sim(&self, jobs: Vec<Job>) -> (Vec<TraceEvent>, RuntimeOutcome) {
        let pair = &self.pair;
        let mut config = SimConfig::new(self.cluster(), CostParams::default());
        config.cycle = pair.cycle;
        let probe = Arc::new(CollectingProbe::new());
        let opts = RunOptions::new(pair.scheduler)
            .label("parity")
            .shards(pair.shards)
            .overload(pair.overload)
            .fault_plan(pair.fault_plan.clone())
            .probe(probe.clone());
        let outcome = Simulation::with_catalog(config, self.catalog().clone()).run_opts(jobs, opts);
        assert_eq!(
            outcome.incomplete_jobs,
            0,
            "{}: sim run stalled",
            pair.scheduler.name()
        );
        (probe.take(), outcome)
    }

    /// The serialized driver: one `(dataset, azimuth)` frame in flight at
    /// a time as user 0, action `i` for frame `i`; `on_reply` sees frame
    /// `i`'s verdict before the next is issued.
    pub fn serial<'a>(
        &'a self,
        workload: &'a [(u32, f32)],
        on_reply: impl Fn(usize, RenderReply) + 'a,
    ) -> impl FnOnce(&VizService) + 'a {
        move |service| {
            let client = ServiceClient::new(UserId(0), service.request_sender());
            for (i, &(dataset, azimuth)) in workload.iter().enumerate() {
                on_reply(i, self.await_reply(&client, i, dataset, azimuth));
            }
        }
    }

    /// The paced driver: frame `i` is issued `i` seconds after this call
    /// (make it in `live`'s argument list, so the clock starts just
    /// before the service does) and awaited — the live image of
    /// [`serial_jobs`], under which a fault plan's entries fire in the same
    /// inter-job gaps on both substrates.
    pub fn paced<'a>(&'a self, workload: &'a [(u32, f32)]) -> impl FnOnce(&VizService) + 'a {
        let start = Instant::now();
        move |service| {
            let client = ServiceClient::new(UserId(0), service.request_sender());
            for (i, &(dataset, azimuth)) in workload.iter().enumerate() {
                std::thread::sleep(Duration::from_secs(i as u64).saturating_sub(start.elapsed()));
                self.await_reply(&client, i, dataset, azimuth);
            }
        }
    }

    fn await_reply(
        &self,
        client: &ServiceClient,
        i: usize,
        dataset: u32,
        azimuth: f32,
    ) -> RenderReply {
        client
            .render_interactive(ActionId(i as u64), DatasetId(dataset), frame(azimuth))
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| {
                panic!(
                    "{}: frame {i} never arrived: {e}",
                    self.pair.scheduler.name()
                )
            })
    }
}

/// Default camera at `azimuth`.
pub fn frame(azimuth: f32) -> FrameParams {
    FrameParams {
        azimuth,
        ..FrameParams::default()
    }
}

/// An interactive job of user 0 issued at `at_ms`.
pub fn interactive_job(id: u64, action: u64, dataset: u32, at_ms: u64, azimuth: f32) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(0),
            action: ActionId(action),
        },
        dataset: DatasetId(dataset),
        issue_time: SimTime::from_millis(at_ms),
        frame: frame(azimuth),
    }
}

/// The virtual-clock image of [`Rig::serial`] / [`Rig::paced`]: job `i`
/// issues at `i` seconds, far enough apart that each completes before the
/// next arrives.
pub fn serial_jobs(workload: &[(u32, f32)]) -> Vec<Job> {
    workload
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| {
            interactive_job(i as u64, i as u64, dataset, i as u64 * 1000, azimuth)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Trace projections: substrate-independent normal forms of a probe
// stream. Keyed projections are sorted, so dispatch interleaving across
// cycles doesn't matter, only the decisions themselves.
// ---------------------------------------------------------------------

/// `(job, task, chunk, node, flag)`: `flag` is `interactive` for an
/// assignment, `miss` for a completion.
pub type TaskKey = (u64, u32, u64, u32, bool);

fn sorted<K: Ord>(events: &[TraceEvent], key: impl Fn(&TraceEvent) -> Option<K>) -> Vec<K> {
    let mut keys: Vec<K> = events.iter().filter_map(key).collect();
    keys.sort_unstable();
    keys
}

/// Every task placement.
pub fn assignments(events: &[TraceEvent]) -> Vec<TaskKey> {
    sorted(events, |e| match e {
        TraceEvent::Assignment {
            job,
            task,
            chunk,
            node,
            interactive,
            ..
        } => Some((job.0, *task, chunk.as_u64(), node.0, *interactive)),
        _ => None,
    })
}

/// Every task completion, with its hit/miss realization.
pub fn dones(events: &[TraceEvent]) -> Vec<TaskKey> {
    sorted(events, |e| match e {
        TraceEvent::TaskDone {
            job,
            task,
            chunk,
            node,
            miss,
            ..
        } => Some((job.0, *task, chunk.as_u64(), node.0, *miss)),
        _ => None,
    })
}

/// `(job, shard)` routing decisions.
pub fn shard_assignments(events: &[TraceEvent]) -> Vec<(u64, u32)> {
    sorted(events, |e| match e {
        TraceEvent::ShardAssigned { job, shard, .. } => Some((job.0, shard.0)),
        _ => None,
    })
}

/// `(node, chunk)` pairs ever loaded into a node cache.
pub fn cache_loads(events: &[TraceEvent]) -> BTreeSet<(u32, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CacheLoad { node, chunk, .. } => Some((node.0, chunk.as_u64())),
            _ => None,
        })
        .collect()
}

/// Chunks whose `Estimate[c]` entry was corrected.
pub fn estimate_chunks(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EstimateCorrection { chunk, .. } => Some(chunk.as_u64()),
            _ => None,
        })
        .collect()
}

/// Job ids in completion order.
pub fn job_done_order(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobDone { job, .. } => Some(job.0),
            _ => None,
        })
        .collect()
}

/// An admission-layer decision in substrate-independent normal form.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKey {
    /// The job passed admission.
    Admitted(u64),
    /// The job was refused, and why.
    Rejected(u64, RejectReason),
    /// A queued frame was replaced by a newer one of its action.
    Coalesced {
        /// The stale frame's job.
        superseded: u64,
        /// The job that replaced it.
        by: u64,
    },
    /// The job outlived its deadline in the queue.
    Expired(u64),
    /// A deferred batch job was promoted by the anti-starvation age.
    Escalated(u64),
}

/// Every admission-layer decision.
pub fn policy_decisions(events: &[TraceEvent]) -> Vec<PolicyKey> {
    sorted(events, |e| match e {
        TraceEvent::Admitted { job, .. } => Some(PolicyKey::Admitted(job.0)),
        TraceEvent::Rejected { job, reason, .. } => Some(PolicyKey::Rejected(job.0, *reason)),
        TraceEvent::Coalesced { superseded, by, .. } => Some(PolicyKey::Coalesced {
            superseded: superseded.0,
            by: by.0,
        }),
        TraceEvent::Expired { job, .. } => Some(PolicyKey::Expired(job.0)),
        TraceEvent::BatchEscalated { job, .. } => Some(PolicyKey::Escalated(job.0)),
        _ => None,
    })
}
