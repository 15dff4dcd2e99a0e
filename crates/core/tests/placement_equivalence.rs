//! Placement-equivalence suite: the optimized schedulers must emit
//! assignments **bit-identical** to the retained straight-line reference
//! implementations (`sched::reference`) across randomized catalogs,
//! clusters and multi-cycle job streams.
//!
//! This is the proof obligation for the hot-path optimizations — the
//! `AvailHeap` ordered view over `Available[R_k]`, the `Cache[c]`-restricted
//! candidate scan, and the reused per-cycle scratch buffers are all
//! claimed to be *behavior-preserving*, so any divergence in any field of
//! any `Assignment` (task, node, predicted start/exec, group) is a bug.
//!
//! The generator is a raw-state `SplitMix64` stream, so every failure
//! reproduces from the printed case seed.

use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::ids::{ActionId, BatchId, ChunkId, DatasetId, JobId, NodeId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::memory::EvictionPolicy;
use vizsched_core::rng::SplitMix64;
use vizsched_core::sched::{
    FcfslScheduler, MobjScheduler, OursParams, OursScheduler, ReferenceFcfslScheduler,
    ReferenceMobjScheduler, ReferenceOursScheduler, ScheduleCtx, Scheduler,
};
use vizsched_core::tables::HeadTables;
use vizsched_core::time::{SimDuration, SimTime};

const MIB: u64 = 1 << 20;

trait Chance {
    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool;
}

impl Chance for SplitMix64 {
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One random scenario: a cluster, a catalog, and a deterministic stream
/// of per-cycle job batches with interleaved table corrections.
struct Case {
    cluster: ClusterSpec,
    catalog: Catalog,
    cost: CostParams,
    cycles: usize,
    seed: u64,
    /// Crash/recover one node at a time between cycles (off by default).
    node_faults: bool,
    /// Per-node video memory in bytes: the tables mirror the GPU tier
    /// (`HeadTables::with_gpu_tier`), and perturbation also seeds GPU
    /// residency on host replicas (off by default).
    gpu_quota: Option<u64>,
}

impl Case {
    fn generate(seed: u64) -> Case {
        let mut rng = SplitMix64::from_state(seed);
        let p = 1 + rng.below(24) as usize;
        let quota = (1 + rng.below(4)) * 1024 * MIB;
        let datasets = 1 + rng.below(6) as u32;
        let dataset_bytes = (256 + rng.below(8) * 512) * MIB;
        let chunk_max = [128 * MIB, 256 * MIB, 512 * MIB][rng.below(3) as usize];
        let cost = if rng.chance(50) {
            CostParams::default()
        } else {
            CostParams::anl_gpu_cluster()
        };
        Case {
            cluster: ClusterSpec::homogeneous(p, quota),
            catalog: Catalog::new(
                uniform_datasets(datasets, dataset_bytes),
                DecompositionPolicy::MaxChunkSize {
                    max_bytes: chunk_max,
                },
            ),
            cost,
            cycles: 4 + rng.below(10) as usize,
            seed,
            node_faults: false,
            gpu_quota: None,
        }
    }

    fn random_jobs(&self, rng: &mut SplitMix64, now: SimTime, next_id: &mut u64) -> Vec<Job> {
        let count = rng.below(9);
        (0..count)
            .map(|_| {
                *next_id += 1;
                let dataset = DatasetId(rng.below(self.catalog.datasets().len() as u64) as u32);
                let kind = if rng.chance(60) {
                    JobKind::Interactive {
                        user: UserId(rng.below(8) as u32),
                        action: ActionId(rng.below(16)),
                    }
                } else {
                    JobKind::Batch {
                        user: UserId(1000 + rng.below(4) as u32),
                        request: BatchId(rng.below(8)),
                        frame: rng.below(32) as u32,
                    }
                };
                Job {
                    id: JobId(*next_id),
                    kind,
                    dataset,
                    issue_time: now,
                    frame: FrameParams::default(),
                }
            })
            .collect()
    }

    /// Mutate both table copies identically, the way the runtime would
    /// between scheduler invocations: availability corrections (task
    /// completions), measured-I/O refreshes of `Estimate[c]` and, on a GPU
    /// tier, uploads of host-resident chunks into video memory.
    fn perturb_tables(
        &self,
        rng: &mut SplitMix64,
        now: SimTime,
        a: &mut HeadTables,
        b: &mut HeadTables,
    ) {
        for k in 0..self.cluster.len() {
            if rng.chance(40) {
                let t = now + SimDuration::from_millis(rng.below(500));
                a.available.correct(NodeId(k as u32), t);
                b.available.correct(NodeId(k as u32), t);
            }
        }
        if rng.chance(50) {
            let ds = rng.below(self.catalog.datasets().len() as u64) as u32;
            let chunks = self.catalog.task_count(DatasetId(ds));
            let chunk = ChunkId::new(DatasetId(ds), rng.below(chunks as u64) as u32);
            let io = SimDuration::from_millis(1 + rng.below(4000));
            a.estimate.record(chunk, io);
            b.estimate.record(chunk, io);
        }
        if self.gpu_quota.is_some() {
            for k in 0..self.cluster.len() {
                let node = NodeId(k as u32);
                let mut hosted: Vec<ChunkId> = a.cache.node_memory(node).chunks().collect();
                hosted.sort_unstable();
                if hosted.is_empty() || !rng.chance(50) {
                    continue;
                }
                let chunk = hosted[rng.below(hosted.len() as u64) as usize];
                let bytes = self.catalog.chunk_bytes(chunk);
                for tables in [&mut *a, &mut *b] {
                    let gpu = tables.gpu_cache.as_mut().expect("GPU mirror");
                    gpu.record_load(node, chunk, bytes);
                }
            }
        }
    }

    /// Drive `opt` and `reference` through the identical stream and demand,
    /// every cycle, bit-identical assignment vectors, equal deferral state
    /// and identical [`Scheduler::escalate_deferred`] promotions (both
    /// vacuously equal for a policy with the default hooks). When [`Case::node_faults`] is set
    /// it crashes or recovers a node between invocations.
    fn run_policy(
        &self,
        cycle: SimDuration,
        opt: &mut dyn Scheduler,
        reference: &mut dyn Scheduler,
    ) {
        let mut rng = SplitMix64::from_state(self.seed ^ 0xdead_beef);
        let tables = || match self.gpu_quota {
            Some(quota) => HeadTables::with_gpu_tier(&self.cluster, quota, EvictionPolicy::Lru),
            None => HeadTables::new(&self.cluster),
        };
        let (mut tables_opt, mut tables_ref) = (tables(), tables());
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let mut down: Option<NodeId> = None;

        for cycle_no in 0..self.cycles {
            let jobs = self.random_jobs(&mut rng, now, &mut next_id);
            let out_opt = opt.schedule(
                &mut ScheduleCtx {
                    now,
                    tables: &mut tables_opt,
                    catalog: &self.catalog,
                    cost: &self.cost,
                },
                jobs.clone(),
            );
            let out_ref = reference.schedule(
                &mut ScheduleCtx {
                    now,
                    tables: &mut tables_ref,
                    catalog: &self.catalog,
                    cost: &self.cost,
                },
                jobs,
            );
            assert_eq!(
                out_opt,
                out_ref,
                "placement divergence: case seed {} ({} vs {}), cycle {cycle_no}",
                self.seed,
                opt.name(),
                reference.name(),
            );
            assert_eq!(
                opt.has_deferred(),
                reference.has_deferred(),
                "deferral divergence: case seed {}, cycle {cycle_no}",
                self.seed
            );

            if rng.chance(30) {
                let age = SimDuration::from_millis(rng.below(500));
                assert_eq!(
                    opt.escalate_deferred(now, age),
                    reference.escalate_deferred(now, age),
                    "escalation divergence: case seed {}, cycle {cycle_no}",
                    self.seed
                );
            }

            if self.node_faults {
                match down {
                    None if rng.chance(40) => {
                        let k = NodeId(rng.below(self.cluster.len() as u64) as u32);
                        tables_opt.mark_down(k);
                        tables_ref.mark_down(k);
                        down = Some(k);
                    }
                    Some(k) if rng.chance(50) => {
                        tables_opt.mark_up(k, now);
                        tables_ref.mark_up(k, now);
                        down = None;
                    }
                    _ => {}
                }
            }
            self.perturb_tables(&mut rng, now, &mut tables_opt, &mut tables_ref);
            now += if rng.chance(15) {
                SimDuration::from_secs(30 + rng.below(60))
            } else {
                cycle
            };
        }
    }
}

#[test]
fn ours_matches_reference_across_random_cases() {
    let cycle = SimDuration::from_millis(30);
    for case_no in 0..60u64 {
        let case = Case::generate(0x5eed_0000 + case_no);
        let mut opt = OursScheduler::new(OursParams::default());
        let mut reference = ReferenceOursScheduler::new(OursParams::default());
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}

#[test]
fn ours_matches_reference_with_defer_batch_off() {
    // The ablation path funnels batch tasks through the interactive
    // (heap-assisted) path too — it must stay equivalent as well.
    let cycle = SimDuration::from_millis(30);
    let params = OursParams {
        defer_batch: false,
        ..OursParams::default()
    };
    for case_no in 0..20u64 {
        let case = Case::generate(0xab1a_0000 + case_no);
        let mut opt = OursScheduler::new(params);
        let mut reference = ReferenceOursScheduler::new(params);
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}

#[test]
fn fcfsl_matches_reference_across_random_cases() {
    // FCFSL is invoked per arrival; reusing the per-cycle driver still
    // exercises it (each "cycle" is one invocation with a job batch).
    let cycle = SimDuration::from_millis(30);
    for case_no in 0..60u64 {
        let case = Case::generate(0xfcf5_1000 + case_no);
        let mut opt = FcfslScheduler::new();
        let mut reference = ReferenceFcfslScheduler::new();
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}

#[test]
fn ours_matches_reference_under_node_faults() {
    // Down nodes leave the heap stale-by-construction (rebuilt per
    // invocation) and shrink the candidate sets; equivalence must hold
    // through crash/recovery transitions applied between cycles.
    let cycle = SimDuration::from_millis(30);
    for case_no in 0..20u64 {
        let mut case = Case::generate(0xfa17_0000 + case_no);
        if case.cluster.len() < 2 {
            continue;
        }
        case.node_faults = true;
        let mut opt = OursScheduler::new(OursParams::default());
        let mut reference = ReferenceOursScheduler::new(OursParams::default());
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}

/// On tables that mirror the GPU tier, the locality cost charges the
/// PCIe upload wherever the mirror lacks the chunk: OURS's heap path adds
/// it to each cached candidate and to the shared miss cost, its twin
/// scans every node. GPU residency covers a random subset of the host
/// replicas (commits load the mirror, perturbation uploads more, the
/// 1–3-chunk mirror evicts).
#[test]
fn ours_matches_reference_with_a_gpu_tier() {
    let cycle = SimDuration::from_millis(30);
    for case_no in 0..40u64 {
        let mut case = Case::generate(0x6770_0000 + case_no);
        let DecompositionPolicy::MaxChunkSize { max_bytes } = case.catalog.policy() else {
            unreachable!("Case::generate cuts at Chk_max")
        };
        case.gpu_quota = Some((1 + case_no % 3) * max_bytes);
        let mut opt = OursScheduler::new(OursParams::default());
        let mut reference = ReferenceOursScheduler::new(OursParams::default());
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}

/// MOBJ anchors its balance term at `now` while the reference twin uses
/// the textbook `min_k ready_at(k)` anchor; the shift must never change
/// an argmin or a tie, so the two must emit identical assignments,
/// deferrals, and escalations.
#[test]
fn mobj_matches_reference_across_random_cases() {
    for n in 0..40u64 {
        let case = Case::generate(0x0b1e_0000 + n);
        let cycle = SimDuration::from_millis(30);
        let mut opt = MobjScheduler::new(cycle);
        let mut reference = ReferenceMobjScheduler::new(cycle);
        case.run_policy(cycle, &mut opt, &mut reference);
    }
}
