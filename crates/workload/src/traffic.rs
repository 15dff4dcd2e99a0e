//! Non-Poisson traffic shapes: diurnal load curves, flash crowds pinned
//! to one hot dataset, camera-path locality, mixed GPU tiers, and
//! time-varying datasets with heterogeneous bricking.
//!
//! Every robustness result before this module was made against
//! Poisson-ish sessions over uniformly-bricked volumes. Real deployments
//! are nastier in specific, nameable ways, and each shape here models one
//! of them as a deterministic, seeded job-stream generator. All five
//! compose with the scenario record plane: [`TrafficShape::to_record`]
//! serializes a shape's stream onto the same versioned JSONL format that
//! live runs record to, so a synthetic flash crowd and a captured
//! production incident replay through the identical pipeline.
//!
//! The shapes:
//!
//! * [`DiurnalSpec`] — the active-user count follows a raised-cosine
//!   day curve between a trough and a peak, so schedulers see slow
//!   ramps, a sustained plateau, and slow drains instead of a constant
//!   offered load.
//! * [`FlashCrowdSpec`] — a steady background population, then a crowd
//!   piles onto one hot dataset over a short ramp (a release
//!   announcement, a shared link). Exercises admission control and
//!   `Cache[c]` sharing on the hot set at once.
//! * [`CameraPathSpec`] — groups of adjacent users walk adjacent
//!   datasets on a staggered guided tour; neighbours overlap on the
//!   same data most of the time, which is exactly the `Cache[c]`
//!   affinity the paper's placement term rewards.
//! * [`MixedTiersSpec`] — a standard session workload over a cluster
//!   whose nodes have heterogeneous disk-speed factors
//!   ([`mixed_tier_cluster`]), modelling mixed GPU/storage generations
//!   in one pool.
//! * [`TimeVaryingSpec`] — every viewer follows the *current* timestep
//!   of a streaming dataset; when a new timestep lands, the previous
//!   one's cached chunks all go dead at once (the cache-invalidation
//!   storm of in-situ visualization). Pair with
//!   [`heterogeneous_catalog`] for non-uniform per-chunk costs.

use crate::generator::{
    assemble, emit_action, ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, Proto,
    WorkloadSpec,
};
use crate::record::{catalog_from_sizes, RecordHeader, ScenarioRecord};
use vizsched_core::cluster::{ClusterSpec, NodeSpec};
use vizsched_core::data::{Catalog, DatasetDesc};
use vizsched_core::ids::{ActionId, DatasetId, UserId};
use vizsched_core::job::Job;
use vizsched_core::rng::SplitMix64;
use vizsched_core::time::{SimDuration, SimTime};

/// User-id offset for flash-crowd arrivals, keeping them disjoint from
/// background slots (and from the burst overlay's 10 000 range).
pub const CROWD_USER_OFFSET: u32 = 20_000;

/// A diurnal load curve: the number of active user slots follows a
/// raised cosine between `trough_frac · slots_peak` (at t = 0) and
/// `slots_peak` (half a `curve_period` later).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiurnalSpec {
    /// Active slots at the peak of the curve.
    pub slots_peak: u32,
    /// Fraction of the peak still active in the trough (0.0–1.0).
    pub trough_frac: f64,
    /// One full day of the curve (trough → peak → trough).
    pub curve_period: SimDuration,
    /// Request period within an action.
    pub period: SimDuration,
    /// Run length.
    pub length: SimDuration,
    /// Datasets to spread actions over.
    pub dataset_count: u32,
    /// Generator seed.
    pub seed: u64,
}

impl DiurnalSpec {
    /// The carrier in `[trough_frac, 1]` at time `t`: the fraction of
    /// the peak population that is active.
    pub fn carrier(&self, t: SimDuration) -> f64 {
        let phase = t.as_secs_f64() / self.curve_period.as_secs_f64();
        let wave = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
        self.trough_frac + (1.0 - self.trough_frac) * wave
    }

    /// Generate the stream: slot `i` is active whenever the carrier
    /// exceeds `(i + 0.5) / slots_peak`, so the active population tracks
    /// the curve; each activation window is one action on a
    /// seed-determined dataset.
    pub fn generate(&self) -> Vec<Job> {
        assert!(self.dataset_count > 0, "need at least one dataset");
        assert!(self.slots_peak > 0, "need at least one slot");
        let mut proto = Proto::new();
        let mut next_action = 0u64;
        let p = self.curve_period.as_secs_f64();
        let length = self.length.as_secs_f64();
        for slot in 0..self.slots_peak {
            let mut rng = SplitMix64::seeded(self.seed.wrapping_add(0xd1a7 + slot as u64));
            let threshold = (slot as f64 + 0.5) / self.slots_peak as f64;
            // carrier(t) >= threshold  ⟺  cos(2πt/P) <= c
            let c = if (1.0 - self.trough_frac).abs() < f64::EPSILON {
                if threshold <= self.trough_frac {
                    1.0
                } else {
                    -2.0
                }
            } else {
                1.0 - 2.0 * (threshold - self.trough_frac) / (1.0 - self.trough_frac)
            };
            if c >= 1.0 {
                // Always active: one action for the whole run.
                let dataset =
                    DatasetId(DatasetChoice::Uniform.sample(&mut rng, self.dataset_count));
                let action = ActionId(next_action);
                next_action += 1;
                emit_action(
                    &mut proto,
                    self.seed,
                    UserId(slot),
                    action,
                    dataset,
                    SimTime::ZERO,
                    SimTime::ZERO + self.length,
                    self.period,
                    0,
                );
                continue;
            }
            if c <= -1.0 {
                continue; // never active
            }
            // Active once per curve period, centred on the peak at P/2.
            let half = c.acos() / (2.0 * std::f64::consts::PI); // in periods
            let mut day = 0u32;
            loop {
                let base = day as f64 * p;
                let open = base + half * p;
                let close = base + (1.0 - half) * p;
                if open >= length {
                    break;
                }
                let start = SimTime::ZERO + SimDuration::from_secs_f64(open);
                let end = SimTime::ZERO + SimDuration::from_secs_f64(close.min(length));
                let dataset =
                    DatasetId(DatasetChoice::Uniform.sample(&mut rng, self.dataset_count));
                let action = ActionId(next_action);
                next_action += 1;
                emit_action(
                    &mut proto,
                    self.seed,
                    UserId(slot),
                    action,
                    dataset,
                    start,
                    end,
                    self.period,
                    0,
                );
                day += 1;
            }
        }
        assemble(proto)
    }
}

/// A flash crowd: steady background sessions, then `crowd_users` extra
/// users pile onto `hot_dataset` across a short ramp and hold it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowdSpec {
    /// Steady background slots (full-length actions, round-robin
    /// datasets).
    pub base_slots: u32,
    /// Crowd size.
    pub crowd_users: u32,
    /// The dataset everyone floods to.
    pub hot_dataset: u32,
    /// When the crowd starts arriving.
    pub onset: SimDuration,
    /// Arrival ramp: crowd user `j` joins at `onset + ramp · j / n`.
    pub ramp: SimDuration,
    /// How long each crowd user stays after joining.
    pub hold: SimDuration,
    /// Request period within an action.
    pub period: SimDuration,
    /// Run length.
    pub length: SimDuration,
    /// Datasets available to the background population.
    pub dataset_count: u32,
    /// Generator seed.
    pub seed: u64,
}

impl FlashCrowdSpec {
    /// Generate the stream. Crowd users are
    /// `UserId(CROWD_USER_OFFSET + j)`, all pinned to `hot_dataset`.
    pub fn generate(&self) -> Vec<Job> {
        assert!(self.dataset_count > 0, "need at least one dataset");
        assert!(
            self.hot_dataset < self.dataset_count,
            "hot dataset out of range"
        );
        let mut proto = Proto::new();
        let mut next_action = 0u64;
        for slot in 0..self.base_slots {
            let action = ActionId(next_action);
            next_action += 1;
            emit_action(
                &mut proto,
                self.seed,
                UserId(slot),
                action,
                DatasetId(slot % self.dataset_count),
                SimTime::ZERO,
                SimTime::ZERO + self.length,
                self.period,
                0,
            );
        }
        for j in 0..self.crowd_users {
            let join = self.onset + self.ramp.mul_f64(j as f64 / self.crowd_users.max(1) as f64);
            if join >= self.length {
                continue;
            }
            let leave = (join + self.hold).min(self.length);
            let action = ActionId(next_action);
            next_action += 1;
            emit_action(
                &mut proto,
                self.seed,
                UserId(CROWD_USER_OFFSET + j),
                action,
                DatasetId(self.hot_dataset),
                SimTime::ZERO + join,
                SimTime::ZERO + leave,
                self.period,
                0,
            );
        }
        assemble(proto)
    }
}

/// Camera-path locality: `groups` guided tours, each walked by
/// `users_per_group` adjacent users with a small stagger. User `u` of
/// group `g` visits datasets `g·path_len + k (mod dataset_count)` for
/// `k = 0..path_len`, dwelling on each; neighbours overlap on the same
/// dataset almost all the time, so `Cache[c]` sharing carries the group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CameraPathSpec {
    /// Number of independent tours.
    pub groups: u32,
    /// Users walking each tour.
    pub users_per_group: u32,
    /// Datasets visited per tour.
    pub path_len: u32,
    /// Time spent on each dataset of the path.
    pub dwell: SimDuration,
    /// Start offset between adjacent users of a group (≪ `dwell` keeps
    /// them overlapped).
    pub stagger: SimDuration,
    /// Request period within an action.
    pub period: SimDuration,
    /// Datasets in the catalog.
    pub dataset_count: u32,
    /// Generator seed.
    pub seed: u64,
}

impl CameraPathSpec {
    /// Total run length: the last user's walk must finish.
    pub fn length(&self) -> SimDuration {
        self.stagger
            .mul_f64(self.users_per_group.saturating_sub(1) as f64)
            + self.dwell.mul_f64(self.path_len as f64)
    }

    /// Generate the stream. The camera azimuth advances continuously
    /// across a walk (frame numbering carries over dataset boundaries),
    /// modelling one smooth fly-through rather than independent looks.
    pub fn generate(&self) -> Vec<Job> {
        assert!(self.dataset_count > 0, "need at least one dataset");
        assert!(self.path_len > 0, "a tour must visit at least one dataset");
        let mut proto = Proto::new();
        let mut next_action = 0u64;
        let frames_per_dwell =
            (self.dwell.as_secs_f64() / self.period.as_secs_f64()).round() as u32;
        for g in 0..self.groups {
            for u in 0..self.users_per_group {
                let user = UserId(g * self.users_per_group + u);
                let walk_start = self.stagger.mul_f64(u as f64);
                for k in 0..self.path_len {
                    let dataset = DatasetId((g * self.path_len + k) % self.dataset_count);
                    let start = walk_start + self.dwell.mul_f64(k as f64);
                    let end = start + self.dwell;
                    let action = ActionId(next_action);
                    next_action += 1;
                    emit_action(
                        &mut proto,
                        self.seed,
                        user,
                        action,
                        dataset,
                        SimTime::ZERO + start,
                        SimTime::ZERO + end,
                        self.period,
                        k * frames_per_dwell,
                    );
                }
            }
        }
        assemble(proto)
    }
}

/// Mixed GPU tiers: a standard session workload over a cluster whose
/// nodes cycle through heterogeneous disk-speed factors.
#[derive(Clone, Debug, PartialEq)]
pub struct MixedTiersSpec {
    /// The session workload to run over the tiered cluster.
    pub workload: WorkloadSpec,
    /// Per-tier disk-speed factors, assigned round-robin to nodes (e.g.
    /// `[1.0, 0.5]` alternates full-speed and half-speed I/O).
    pub tiers: Vec<f64>,
}

impl MixedTiersSpec {
    /// A sessions workload with `slots` users over `dataset_count`
    /// datasets, split across the given tiers.
    pub fn sessions(
        slots: u32,
        dataset_count: u32,
        length: SimDuration,
        tiers: Vec<f64>,
        seed: u64,
    ) -> Self {
        MixedTiersSpec {
            workload: WorkloadSpec {
                length,
                interactive: InteractiveModel {
                    slots,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::Sessions {
                        mean_action: SimDuration::from_secs(8),
                        mean_think: SimDuration::from_millis(1_200),
                    },
                },
                batch: BatchModel::none(),
                dataset_count,
                dataset_choice: DatasetChoice::Uniform,
                seed,
            },
            tiers,
        }
    }

    /// The tiered cluster: `nodes` nodes of `mem_quota` bytes each, with
    /// disk-speed factors cycling through `self.tiers`.
    pub fn cluster(&self, nodes: usize, mem_quota: u64) -> ClusterSpec {
        mixed_tier_cluster(nodes, mem_quota, &self.tiers)
    }

    /// Generate the stream (delegates to the session generator).
    pub fn generate(&self) -> Vec<Job> {
        self.workload.generate()
    }
}

/// Time-varying data: `viewers` users all follow the *current* timestep
/// of a streaming dataset. Timestep `s` is dataset id `s`; when
/// `interval` elapses and timestep `s + 1` lands, every cached chunk of
/// timestep `s` is dead weight — the shape that punishes cache-affinity
/// heuristics which assume a stable working set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeVaryingSpec {
    /// Concurrent viewers following the stream.
    pub viewers: u32,
    /// Number of timesteps (= datasets).
    pub timesteps: u32,
    /// Wall time between timestep arrivals.
    pub interval: SimDuration,
    /// Request period within an action.
    pub period: SimDuration,
    /// Generator seed.
    pub seed: u64,
}

impl TimeVaryingSpec {
    /// Run length: all timesteps shown once.
    pub fn length(&self) -> SimDuration {
        self.interval.mul_f64(self.timesteps as f64)
    }

    /// Generate the stream: viewer `v` opens one action per timestep,
    /// always on the newest dataset.
    pub fn generate(&self) -> Vec<Job> {
        assert!(self.timesteps > 0, "need at least one timestep");
        let mut proto = Proto::new();
        let mut next_action = 0u64;
        for v in 0..self.viewers {
            for s in 0..self.timesteps {
                let start = self.interval.mul_f64(s as f64);
                let end = self.interval.mul_f64((s + 1) as f64);
                let action = ActionId(next_action);
                next_action += 1;
                emit_action(
                    &mut proto,
                    self.seed,
                    UserId(v),
                    action,
                    DatasetId(s),
                    SimTime::ZERO + start,
                    SimTime::ZERO + end,
                    self.period,
                    0,
                );
            }
        }
        assemble(proto)
    }
}

/// A cluster of `nodes` nodes with `mem_quota` bytes of cache each and
/// disk-speed factors cycling through `tiers` — the mixed-generation
/// pool every real GPU cluster becomes after its second procurement
/// round.
pub fn mixed_tier_cluster(nodes: usize, mem_quota: u64, tiers: &[f64]) -> ClusterSpec {
    assert!(!tiers.is_empty(), "need at least one tier");
    ClusterSpec {
        nodes: (0..nodes)
            .map(|i| NodeSpec {
                mem_quota,
                disk_scale: tiers[i % tiers.len()],
            })
            .collect(),
    }
}

/// A heterogeneously-bricked catalog: `count` datasets of `bytes` each,
/// split into chunks whose sizes vary deterministically (seeded) in
/// `[chunk_max/2, chunk_max]` — non-uniform per-chunk I/O and render
/// costs, where uniform bricking would make every task interchangeable.
pub fn heterogeneous_catalog(count: u32, bytes: u64, chunk_max: u64, seed: u64) -> Catalog {
    assert!(chunk_max >= 2, "chunk_max too small to vary");
    let mut rng = SplitMix64::from_state(seed ^ 0x51c3_7a9e_0b5d_2f84);
    let mut datasets = Vec::new();
    let mut chunks = Vec::new();
    for d in 0..count {
        let mut sizes = Vec::new();
        let mut left = bytes;
        while left > 0 {
            let lo = chunk_max / 2;
            let span = chunk_max - lo + 1;
            let take = (lo + rng.below(span)).min(left);
            // Never strand a sliver smaller than half a chunk.
            let take = if left - take < lo && left - take > 0 {
                left
            } else {
                take
            };
            sizes.push(take);
            left -= take;
        }
        datasets.push(DatasetDesc::sized(DatasetId(d), bytes));
        chunks.push(sizes);
    }
    catalog_from_sizes(datasets, &chunks)
}

/// One of the five traffic shapes, for sweeping them uniformly.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficShape {
    /// Diurnal load curve.
    Diurnal(DiurnalSpec),
    /// Flash crowd on a hot dataset.
    FlashCrowd(FlashCrowdSpec),
    /// Camera-path locality tours.
    CameraPath(CameraPathSpec),
    /// Mixed GPU tiers under session traffic.
    MixedTiers(MixedTiersSpec),
    /// Time-varying streamed dataset.
    TimeVarying(TimeVaryingSpec),
}

impl TrafficShape {
    /// The canonical shape names, in sweep order (pinned by
    /// `BENCH_traffic.json` and the docs-consistency tests).
    pub const NAMES: [&'static str; 5] = [
        "diurnal",
        "flash_crowd",
        "camera_path",
        "mixed_tiers",
        "time_varying",
    ];

    /// This shape's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficShape::Diurnal(_) => "diurnal",
            TrafficShape::FlashCrowd(_) => "flash_crowd",
            TrafficShape::CameraPath(_) => "camera_path",
            TrafficShape::MixedTiers(_) => "mixed_tiers",
            TrafficShape::TimeVarying(_) => "time_varying",
        }
    }

    /// Generate this shape's job stream.
    pub fn generate(&self) -> Vec<Job> {
        match self {
            TrafficShape::Diurnal(s) => s.generate(),
            TrafficShape::FlashCrowd(s) => s.generate(),
            TrafficShape::CameraPath(s) => s.generate(),
            TrafficShape::MixedTiers(s) => s.generate(),
            TrafficShape::TimeVarying(s) => s.generate(),
        }
    }

    /// Serialize this shape's stream onto the scenario-record format —
    /// the composition point with the record/replay plane.
    pub fn to_record(&self, header: RecordHeader) -> ScenarioRecord {
        ScenarioRecord::from_jobs(header, &self.generate())
    }

    /// One small instance of every shape (shared by the determinism
    /// tests and the `traffic_sweep` bench): a few seconds of traffic
    /// each, sized so a sweep over all five finishes in CI time.
    pub fn demo_suite(seed: u64) -> Vec<TrafficShape> {
        vec![
            TrafficShape::Diurnal(DiurnalSpec {
                slots_peak: 8,
                trough_frac: 0.25,
                curve_period: SimDuration::from_secs(8),
                period: SimDuration::from_millis(30),
                length: SimDuration::from_secs(16),
                dataset_count: 8,
                seed,
            }),
            TrafficShape::FlashCrowd(FlashCrowdSpec {
                base_slots: 4,
                crowd_users: 12,
                hot_dataset: 0,
                onset: SimDuration::from_secs(4),
                ramp: SimDuration::from_secs(2),
                hold: SimDuration::from_secs(5),
                period: SimDuration::from_millis(30),
                length: SimDuration::from_secs(16),
                dataset_count: 8,
                seed,
            }),
            TrafficShape::CameraPath(CameraPathSpec {
                groups: 2,
                users_per_group: 4,
                path_len: 4,
                dwell: SimDuration::from_secs(3),
                stagger: SimDuration::from_millis(400),
                period: SimDuration::from_millis(30),
                dataset_count: 8,
                seed,
            }),
            TrafficShape::MixedTiers(MixedTiersSpec::sessions(
                8,
                8,
                SimDuration::from_secs(16),
                vec![1.0, 0.5, 0.25],
                seed,
            )),
            TrafficShape::TimeVarying(TimeVaryingSpec {
                viewers: 6,
                timesteps: 8,
                interval: SimDuration::from_secs(2),
                period: SimDuration::from_millis(30),
                seed,
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vizsched_core::ids::JobId;

    #[test]
    fn all_shapes_generate_sorted_dense_streams() {
        for shape in TrafficShape::demo_suite(7) {
            let jobs = shape.generate();
            assert!(!jobs.is_empty(), "{} generated nothing", shape.name());
            for (i, j) in jobs.iter().enumerate() {
                assert_eq!(j.id, JobId(i as u64), "{}", shape.name());
            }
            assert!(
                jobs.windows(2).all(|w| w[0].issue_time <= w[1].issue_time),
                "{} stream not time-sorted",
                shape.name()
            );
        }
    }

    #[test]
    fn shape_names_match_the_pinned_order() {
        let suite = TrafficShape::demo_suite(1);
        let names: Vec<&str> = suite.iter().map(|s| s.name()).collect();
        assert_eq!(names, TrafficShape::NAMES);
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let spec = DiurnalSpec {
            slots_peak: 8,
            trough_frac: 0.25,
            curve_period: SimDuration::from_secs(8),
            period: SimDuration::from_millis(30),
            length: SimDuration::from_secs(8),
            dataset_count: 4,
            seed: 3,
        };
        let jobs = spec.generate();
        // Compare request counts in the trough quarter (first 2 s) and
        // the peak quarter (3–5 s).
        let trough = jobs
            .iter()
            .filter(|j| j.issue_time.as_micros() < 2_000_000)
            .count();
        let peak = jobs
            .iter()
            .filter(|j| (3_000_000..5_000_000).contains(&j.issue_time.as_micros()))
            .count();
        assert!(
            peak > trough * 2,
            "peak {peak} should dwarf trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_floods_the_hot_dataset() {
        let TrafficShape::FlashCrowd(spec) = &TrafficShape::demo_suite(5)[1] else {
            panic!("suite order changed");
        };
        let jobs = spec.generate();
        let onset_us = spec.onset.as_micros();
        let before = jobs
            .iter()
            .filter(|j| j.issue_time.as_micros() < onset_us)
            .count();
        let during = jobs
            .iter()
            .filter(|j| {
                j.issue_time.as_micros() >= onset_us && j.dataset == DatasetId(spec.hot_dataset)
            })
            .count();
        assert!(
            during > before,
            "crowd ({during}) must swamp the steady state ({before})"
        );
        // Crowd users are all pinned to the hot dataset.
        for j in &jobs {
            if j.kind.user().0 >= CROWD_USER_OFFSET {
                assert_eq!(j.dataset, DatasetId(spec.hot_dataset));
            }
        }
    }

    #[test]
    fn camera_path_neighbours_share_datasets() {
        let TrafficShape::CameraPath(spec) = &TrafficShape::demo_suite(5)[2] else {
            panic!("suite order changed");
        };
        let jobs = spec.generate();
        // At any instant, the users of one group should mostly be on the
        // same dataset: sample the middle of each dwell.
        let mid = spec.dwell.as_micros() / 2;
        for k in 0..spec.path_len {
            let t = spec.dwell.as_micros() * k as u64 + mid;
            let active: BTreeSet<u32> = jobs
                .iter()
                .filter(|j| {
                    j.kind.user().0 < spec.users_per_group
                        && j.issue_time.as_micros().abs_diff(t) < 100_000
                })
                .map(|j| j.dataset.0)
                .collect();
            assert!(
                active.len() <= 2,
                "group 0 spread over {active:?} at step {k}"
            );
        }
    }

    #[test]
    fn time_varying_switches_every_interval() {
        let TrafficShape::TimeVarying(spec) = &TrafficShape::demo_suite(5)[4] else {
            panic!("suite order changed");
        };
        let jobs = spec.generate();
        for j in &jobs {
            let step = (j.issue_time.as_micros().saturating_sub(1) / spec.interval.as_micros())
                .min(spec.timesteps as u64 - 1);
            let d = j.dataset.0 as u64;
            // A request lands inside its timestep's window (a request at
            // exactly the boundary still belongs to the step that opened
            // it).
            assert!(
                d == step || d == step + 1,
                "job at {} renders dataset {} (step {step})",
                j.issue_time.as_micros(),
                j.dataset.0
            );
        }
    }

    #[test]
    fn mixed_tier_cluster_cycles_factors() {
        let c = mixed_tier_cluster(5, 1 << 20, &[1.0, 0.5]);
        let scales: Vec<f64> = c.nodes.iter().map(|n| n.disk_scale).collect();
        assert_eq!(scales, vec![1.0, 0.5, 1.0, 0.5, 1.0]);
    }

    #[test]
    fn heterogeneous_catalog_varies_chunk_sizes() {
        let catalog = heterogeneous_catalog(3, 8 << 20, 1 << 20, 11);
        let sizes: BTreeSet<u64> = catalog
            .chunks_of(DatasetId(0))
            .iter()
            .map(|c| c.bytes)
            .collect();
        assert!(sizes.len() > 1, "chunks should not be uniform: {sizes:?}");
        let total: u64 = catalog
            .chunks_of(DatasetId(0))
            .iter()
            .map(|c| c.bytes)
            .sum();
        assert_eq!(total, 8 << 20);
        // Deterministic for a fixed seed.
        let again = heterogeneous_catalog(3, 8 << 20, 1 << 20, 11);
        for d in 0..3 {
            assert_eq!(
                catalog.chunks_of(DatasetId(d)),
                again.chunks_of(DatasetId(d))
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_shape() {
        for (a, b) in TrafficShape::demo_suite(42)
            .into_iter()
            .zip(TrafficShape::demo_suite(42))
        {
            assert_eq!(a.generate(), b.generate(), "{}", a.name());
        }
    }
}
