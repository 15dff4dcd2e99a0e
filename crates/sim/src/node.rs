//! The simulated rendering node: a [`NodeQueue`] in front of an
//! authoritative chunk cache and a disk model.
//!
//! §III-A's node processes its tasks "on a First-In-First-Out basis";
//! this one runs each lane of its queue FIFO and lets a frame overtake
//! batch queued less than one cycle before it, one whole task at a time
//! (DESIGN.md §9.3). Execution time
//! follows the cost model: a cache miss pays `t_io` (scaled by the node's
//! disk speed) before `t_render + t_composite`.

use vizsched_core::cost::CostParams;
use vizsched_core::ids::{ChunkId, NodeId};
use vizsched_core::memory::EvictionPolicy;
use vizsched_core::rng;
use vizsched_core::sched::Assignment;
use vizsched_core::tiered::{Tier, TieredMemory};
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_runtime::queue::NodeQueue;

/// The task currently executing on a node.
#[derive(Clone, Debug)]
pub struct RunningTask {
    /// The assignment being executed.
    pub assignment: Assignment,
    /// When execution began.
    pub started: SimTime,
    /// When it will finish.
    pub finish: SimTime,
    /// Measured disk I/O time (zero unless the chunk missed main memory).
    pub io: SimDuration,
    /// Measured host→GPU upload time (zero on a GPU hit or when the
    /// two-tier extension is off).
    pub upload: SimDuration,
    /// Which tier the chunk was found in.
    pub tier: Tier,
    /// True if the chunk had to be fetched from disk.
    pub miss: bool,
    /// Chunks evicted from main memory to make room (empty on a hit).
    pub evicted: Vec<ChunkId>,
    /// Chunks evicted from the GPU tier only.
    pub gpu_evicted: Vec<ChunkId>,
}

/// One simulated rendering node.
#[derive(Debug)]
pub struct SimNode {
    /// This node's id.
    pub id: NodeId,
    /// Authoritative chunk cache (main memory, plus video memory when the
    /// two-tier extension is on).
    pub memory: TieredMemory,
    /// Relative disk speed (bandwidth multiplier ≥ 0; larger is faster).
    pub disk_scale: f64,
    /// Tasks waiting to run.
    pub queue: NodeQueue<Assignment>,
    /// The task executing right now, if any.
    pub running: Option<RunningTask>,
    /// Crash generation: incremented on every crash so stale completion
    /// events can be discarded.
    pub generation: u32,
    /// True while crashed.
    pub crashed: bool,
    /// Main-memory cache hits served.
    pub hits: u64,
    /// Cache misses served (disk reads).
    pub misses: u64,
    /// Hits that were already GPU-resident (two-tier extension).
    pub gpu_hits: u64,
    /// Degraded-node slowdown in per-mille (1000 = nominal): every task's
    /// execution time is multiplied by `slow_pm / 1000`. Set by the
    /// fault plan's `NodeDegrade`, reset by `NodeRestore`; models a
    /// thermally-throttled GPU or a failing disk without taking the node
    /// out of the schedulable set.
    pub slow_pm: u32,
}

impl SimNode {
    /// A node with `quota` bytes of main-memory cache under `eviction`,
    /// reading disk at `disk_scale` times the cost model's bandwidth.
    /// `gpu_quota` enables the two-tier extension when set.
    pub fn new(
        id: NodeId,
        quota: u64,
        eviction: EvictionPolicy,
        disk_scale: f64,
        gpu_quota: Option<u64>,
    ) -> Self {
        assert!(disk_scale > 0.0, "disk scale must be positive");
        let eviction = match eviction {
            EvictionPolicy::Random { seed } => EvictionPolicy::Random {
                seed: seed.wrapping_add(id.0 as u64),
            },
            other => other,
        };
        let memory = match gpu_quota {
            Some(gpu) => TieredMemory::two_tier(quota, gpu, eviction),
            None => TieredMemory::host_only(quota, eviction),
        };
        SimNode {
            id,
            memory,
            disk_scale,
            queue: NodeQueue::new(),
            running: None,
            generation: 0,
            crashed: false,
            hits: 0,
            misses: 0,
            gpu_hits: 0,
            slow_pm: 1000,
        }
    }

    /// True when nothing is running (the queue may still hold work that has
    /// not been started yet).
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
    }

    /// Accept an assignment at the back of its lane at `now`.
    pub fn enqueue(&mut self, assignment: Assignment, now: SimTime) {
        self.queue
            .push(assignment, assignment.task.interactive, now);
    }

    /// Start the next queued task at `now`, computing its real execution
    /// time from the authoritative cache state. Returns the started task,
    /// or `None` when the queue is empty. The caller schedules the matching
    /// `TaskDone` event at `finish`.
    ///
    /// `jitter` is the amplitude of a deterministic per-task execution-time
    /// perturbation (hash-seeded, ±`jitter` relative): real renderers and
    /// disks never take *exactly* the model time, and without this noise a
    /// perfectly periodic workload can lock a locality-blind scheduler into
    /// an accidental perfect placement that no physical system exhibits.
    pub fn start_next(
        &mut self,
        now: SimTime,
        cost: &CostParams,
        jitter: f64,
    ) -> Option<&RunningTask> {
        assert!(self.running.is_none(), "node {} already busy", self.id);
        if self.crashed {
            return None;
        }
        let assignment = self.queue.pop()?;

        let chunk = assignment.task.chunk;
        let bytes = assignment.task.bytes;
        let factor = jitter_factor(assignment.task.job.0, chunk.as_u64(), self.id.0, jitter);
        let access = self.memory.access(chunk, bytes);
        let has_gpu = self.memory.has_gpu_tier();
        let (io, upload, miss) = match access.found {
            Tier::Gpu => {
                self.hits += 1;
                self.gpu_hits += 1;
                (SimDuration::ZERO, SimDuration::ZERO, false)
            }
            Tier::Host => {
                self.hits += 1;
                (
                    SimDuration::ZERO,
                    cost.upload_time(bytes).mul_f64(factor),
                    false,
                )
            }
            Tier::Disk => {
                self.misses += 1;
                let io = cost.io_time(bytes).mul_f64(factor / self.disk_scale);
                let upload = if has_gpu {
                    cost.upload_time(bytes).mul_f64(factor)
                } else {
                    SimDuration::ZERO
                };
                (io, upload, true)
            }
        };
        let mut exec = io
            + upload
            + (cost.render_time(bytes) + cost.composite_time(assignment.group)).mul_f64(factor);
        if self.slow_pm != 1000 {
            exec = exec.mul_f64(self.slow_pm as f64 / 1000.0);
        }
        let finish = now + exec;
        self.running = Some(RunningTask {
            assignment,
            started: now,
            finish,
            io,
            upload,
            tier: access.found,
            miss,
            evicted: access.host_evicted,
            gpu_evicted: access.gpu_evicted,
        });
        self.running.as_ref()
    }

    /// Take the completed running task.
    pub fn complete(&mut self) -> RunningTask {
        self.running.take().expect("complete() called while idle")
    }

    /// Crash: drop memory and every task that was queued or running (the
    /// runtime re-places them from its own ledger). Bumps the generation
    /// so in-flight `TaskDone` events become stale.
    pub fn crash(&mut self) {
        self.crashed = true;
        self.generation += 1;
        // Rebuild an empty cache: a rebooted node starts cold.
        self.memory.clear();
        self.running = None;
        self.queue.clear();
    }

    /// Rejoin after a crash.
    pub fn recover(&mut self) {
        self.crashed = false;
    }
}

/// Deterministic per-task execution perturbation in `[1 - amp, 1 + amp]`,
/// derived from a splitmix64 hash of the task's identity and node.
pub fn jitter_factor(job: u64, chunk: u64, node: u32, amp: f64) -> f64 {
    if amp == 0.0 {
        return 1.0;
    }
    debug_assert!(
        (0.0..1.0).contains(&amp),
        "jitter amplitude must be in [0, 1)"
    );
    let unit = rng::unit_f64(rng::mix64(
        job.wrapping_mul(rng::GAMMA)
            .wrapping_add(chunk.rotate_left(17))
            .wrapping_add((node as u64) << 48),
    ));
    1.0 + amp * (2.0 * unit - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::ids::{DatasetId, JobId};
    use vizsched_core::job::Task;

    const MIB: u64 = 1 << 20;

    fn assignment(job: u64, chunk: u32, bytes: u64) -> Assignment {
        Assignment {
            task: Task {
                job: JobId(job),
                index: 0,
                chunk: ChunkId::new(DatasetId(0), chunk),
                bytes,
                interactive: true,
            },
            node: NodeId(0),
            predicted_start: SimTime::ZERO,
            predicted_exec: SimDuration::from_millis(10),
            group: 4,
        }
    }

    fn node() -> SimNode {
        SimNode::new(NodeId(0), 2 << 30, EvictionPolicy::Lru, 1.0, None)
    }

    #[test]
    fn cold_task_pays_io() {
        let cost = CostParams::default();
        let mut n = node();
        n.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        let running = n.start_next(SimTime::ZERO, &cost, 0.0).unwrap();
        assert!(running.miss);
        assert_eq!(running.io, cost.io_time(512 * MIB));
        assert_eq!(
            running.finish,
            SimTime::ZERO + cost.io_time(512 * MIB) + cost.alpha(512 * MIB, 4)
        );
        assert_eq!(n.misses, 1);
    }

    #[test]
    fn warm_task_skips_io() {
        let cost = CostParams::default();
        let mut n = node();
        n.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        n.start_next(SimTime::ZERO, &cost, 0.0).unwrap();
        let done = n.complete();
        n.enqueue(assignment(2, 0, 512 * MIB), SimTime::ZERO);
        let running = n.start_next(done.finish, &cost, 0.0).unwrap();
        assert!(!running.miss);
        assert_eq!(running.io, SimDuration::ZERO);
        assert_eq!(n.hits, 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let cost = CostParams::default();
        let mut n = node();
        n.enqueue(assignment(1, 0, MIB), SimTime::ZERO);
        n.enqueue(assignment(2, 1, MIB), SimTime::ZERO);
        let first = n
            .start_next(SimTime::ZERO, &cost, 0.0)
            .unwrap()
            .assignment
            .task
            .job;
        assert_eq!(first, JobId(1));
        let fin = n.complete().finish;
        let second = n.start_next(fin, &cost, 0.0).unwrap().assignment.task.job;
        assert_eq!(second, JobId(2));
    }

    #[test]
    fn slow_disk_scales_io() {
        let cost = CostParams::default();
        let mut fast = node();
        let mut slow = SimNode::new(NodeId(1), 2 << 30, EvictionPolicy::Lru, 0.5, None);
        fast.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        slow.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        let f = fast.start_next(SimTime::ZERO, &cost, 0.0).unwrap().io;
        let s = slow.start_next(SimTime::ZERO, &cost, 0.0).unwrap().io;
        assert_eq!(s.as_micros(), f.as_micros() * 2);
    }

    #[test]
    fn two_tier_node_charges_uploads() {
        let cost = CostParams::default();
        // GPU holds only one 512 MiB chunk; host holds four.
        let mut n = SimNode::new(
            NodeId(0),
            2 << 30,
            EvictionPolicy::Lru,
            1.0,
            Some(512 * MIB),
        );
        // Cold: disk + upload.
        n.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        let r = n.start_next(SimTime::ZERO, &cost, 0.0).unwrap();
        assert_eq!(r.tier, vizsched_core::tiered::Tier::Disk);
        assert_eq!(r.io, cost.io_time(512 * MIB));
        assert_eq!(r.upload, cost.upload_time(512 * MIB));
        let t1 = n.complete().finish;
        // Second chunk displaces the first from the GPU (not the host).
        n.enqueue(assignment(2, 1, 512 * MIB), SimTime::ZERO);
        let t2 = {
            n.start_next(t1, &cost, 0.0).unwrap();
            n.complete().finish
        };
        // Chunk 0 again: host hit, upload only.
        n.enqueue(assignment(3, 0, 512 * MIB), SimTime::ZERO);
        let r = n.start_next(t2, &cost, 0.0).unwrap();
        assert_eq!(r.tier, vizsched_core::tiered::Tier::Host);
        assert_eq!(r.io, SimDuration::ZERO);
        assert_eq!(r.upload, cost.upload_time(512 * MIB));
        let t3 = n.complete().finish;
        // Chunk 0 once more: now GPU-resident, free movement.
        n.enqueue(assignment(4, 0, 512 * MIB), SimTime::ZERO);
        let r = n.start_next(t3, &cost, 0.0).unwrap();
        assert_eq!(r.tier, vizsched_core::tiered::Tier::Gpu);
        assert_eq!(r.upload, SimDuration::ZERO);
        assert_eq!(n.gpu_hits, 1);
    }

    #[test]
    fn degraded_node_runs_slower_until_restored() {
        let cost = CostParams::default();
        let mut nominal = node();
        let mut degraded = node();
        degraded.slow_pm = 2000;
        nominal.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        degraded.enqueue(assignment(1, 0, 512 * MIB), SimTime::ZERO);
        let f = nominal
            .start_next(SimTime::ZERO, &cost, 0.0)
            .unwrap()
            .finish;
        let s = degraded
            .start_next(SimTime::ZERO, &cost, 0.0)
            .unwrap()
            .finish;
        assert_eq!(s.as_micros(), f.as_micros() * 2);
        degraded.complete();
        // Restored: back to the nominal cost model (warm hit now).
        degraded.slow_pm = 1000;
        nominal.complete();
        nominal.enqueue(assignment(2, 0, 512 * MIB), SimTime::ZERO);
        degraded.enqueue(assignment(2, 0, 512 * MIB), SimTime::ZERO);
        let f2 = nominal.start_next(f, &cost, 0.0).unwrap().finish - f;
        let s2 = degraded.start_next(s, &cost, 0.0).unwrap().finish - s;
        assert_eq!(f2, s2);
    }

    #[test]
    fn crash_returns_all_work_and_clears_cache() {
        let cost = CostParams::default();
        let mut n = node();
        n.enqueue(assignment(1, 0, MIB), SimTime::ZERO);
        n.enqueue(assignment(2, 1, MIB), SimTime::ZERO);
        n.start_next(SimTime::ZERO, &cost, 0.0);
        n.crash();
        assert!(n.running.is_none() && n.queue.is_empty());
        assert!(n.crashed);
        assert!(n.memory.host().is_empty());
        assert_eq!(n.generation, 1);
        // A crashed node refuses to start work until it recovers.
        n.enqueue(assignment(3, 2, MIB), SimTime::ZERO);
        assert!(n.start_next(SimTime::from_secs(1), &cost, 0.0).is_none());
        n.recover();
        assert!(n.start_next(SimTime::from_secs(1), &cost, 0.0).is_some());
    }
}
