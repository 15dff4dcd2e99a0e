//! Overload bursts: overlay a window of extra interactive demand on a base
//! workload, for admission-control and stale-frame-coalescing experiments.
//!
//! The paper sizes its scenarios so the cluster keeps up (§VI); the
//! overload experiments deliberately break that premise. A [`BurstSpec`]
//! adds `extra_slots` full-length interactive users, active only inside
//! `[window_start, window_start + window)`, each requesting at its own
//! `period` — typically *faster* than the scheduling cycle `ω`, so several
//! frames of one action pile up per cycle and stale-frame coalescing has
//! something to shed. Burst users and actions live in disjoint id ranges
//! (`UserId` +10000, `ActionId` +1000000) so they never collide with the
//! base workload's principals.

use crate::arrival::uniform_duration;
use vizsched_core::ids::{ActionId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::rng::{SplitMix64, GAMMA};
use vizsched_core::time::{SimDuration, SimTime};

/// User-id offset separating burst users from base principals (base
/// interactive users are small slot indices; base batch users start at
/// 1000).
pub const BURST_USER_OFFSET: u32 = 10_000;

/// Action-id offset separating burst actions from base actions.
pub const BURST_ACTION_OFFSET: u64 = 1_000_000;

/// A window of extra interactive demand overlaid on a base workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstSpec {
    /// Number of additional full-length interactive users during the
    /// window. Zero is a valid no-op overlay.
    pub extra_slots: u32,
    /// When the burst begins, relative to the run start.
    pub window_start: SimDuration,
    /// How long the burst lasts.
    pub window: SimDuration,
    /// Request period of each burst user. Faster than the scheduling
    /// cycle `ω` means same-action frames queue up within one cycle —
    /// the stale-frame-coalescing regime.
    pub period: SimDuration,
    /// RNG seed for per-action phase and request jitter.
    pub seed: u64,
}

impl BurstSpec {
    /// Overlay the burst on `base` (sorted by issue time, as
    /// `WorkloadSpec::generate` produces): burst users are added in
    /// `0..extra_slots`, slot `i` exploring dataset `i mod dataset_count`,
    /// and the merged list is re-sorted with dense arrival-order job ids.
    pub fn overlay(&self, base: &[Job], dataset_count: u32) -> Vec<Job> {
        assert!(dataset_count > 0, "need at least one dataset");
        let mut proto: Vec<Job> = base.to_vec();
        let end = SimTime::ZERO + self.window_start + self.window;
        let max_jitter = self.period / 10;
        for slot in 0..self.extra_slots {
            let mut rng = SplitMix64::seeded(
                self.seed
                    .wrapping_mul(GAMMA)
                    .wrapping_add(0xb0b5 + slot as u64),
            );
            let user = UserId(BURST_USER_OFFSET + slot);
            let action = ActionId(BURST_ACTION_OFFSET + slot as u64);
            let dataset = DatasetId(slot % dataset_count);
            // Same arrival texture as the base generator: a per-action
            // phase plus bounded per-request jitter, so burst users are
            // not cycle-synchronized.
            let phase = uniform_duration(&mut rng, SimDuration::ZERO, self.period);
            let mut nominal = SimTime::ZERO + self.window_start + phase;
            let mut frame = 0u32;
            while nominal < end {
                let t =
                    (nominal + uniform_duration(&mut rng, SimDuration::ZERO, max_jitter)).min(end);
                proto.push(Job {
                    id: JobId(0), // reassigned below
                    kind: JobKind::Interactive { user, action },
                    dataset,
                    issue_time: t,
                    frame: FrameParams {
                        azimuth: frame as f32 * 0.02,
                        ..FrameParams::default()
                    },
                });
                nominal += self.period;
                frame += 1;
            }
        }
        proto.sort_by_key(|j| j.issue_time);
        for (i, job) in proto.iter_mut().enumerate() {
            job.id = JobId(i as u64);
        }
        proto
    }

    /// Expected number of burst jobs (exact up to one frame per slot of
    /// phase loss).
    pub fn expected_jobs(&self) -> f64 {
        self.extra_slots as f64 * self.window.as_secs_f64() / self.period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ActionBehavior, BatchModel, DatasetChoice, InteractiveModel};
    use crate::WorkloadSpec;

    fn base_jobs() -> Vec<Job> {
        WorkloadSpec {
            length: SimDuration::from_secs(4),
            interactive: InteractiveModel {
                slots: 2,
                period: SimDuration::from_millis(30),
                behavior: ActionBehavior::FullLength,
            },
            batch: BatchModel {
                submissions: 1,
                frames_min: 4,
                frames_max: 4,
                window_frac: 0.5,
            },
            dataset_count: 2,
            dataset_choice: DatasetChoice::Uniform,
            seed: 5,
        }
        .generate()
    }

    fn burst() -> BurstSpec {
        BurstSpec {
            extra_slots: 6,
            window_start: SimDuration::from_secs(1),
            window: SimDuration::from_secs(2),
            period: SimDuration::from_millis(10),
            seed: 9,
        }
    }

    #[test]
    fn overlay_is_sorted_with_dense_ids_and_expected_count() {
        let base = base_jobs();
        let merged = burst().overlay(&base, 2);
        for (i, j) in merged.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
            if i > 0 {
                assert!(j.issue_time >= merged[i - 1].issue_time);
            }
        }
        let added = merged.len() - base.len();
        let expected = burst().expected_jobs();
        assert!(
            (added as f64 - expected).abs() <= 6.0,
            "added {added}, expected about {expected}"
        );
    }

    #[test]
    fn burst_principals_are_disjoint_from_base() {
        let base = base_jobs();
        let merged = burst().overlay(&base, 2);
        let burst_jobs: Vec<&Job> = merged
            .iter()
            .filter(|j| j.kind.user().0 >= BURST_USER_OFFSET)
            .collect();
        assert!(!burst_jobs.is_empty());
        for j in &burst_jobs {
            let action = j.kind.action().expect("burst jobs are interactive");
            assert!(action.0 >= BURST_ACTION_OFFSET);
            let t = j.issue_time - SimTime::ZERO;
            assert!(t >= SimDuration::from_secs(1) && t <= SimDuration::from_secs(3));
        }
        // Base principals never reach the burst ranges.
        for j in &base {
            assert!(j.kind.user().0 < BURST_USER_OFFSET);
            if let Some(action) = j.kind.action() {
                assert!(action.0 < BURST_ACTION_OFFSET);
            }
        }
    }

    #[test]
    fn zero_extra_slots_is_the_identity_overlay() {
        let base = base_jobs();
        let merged = BurstSpec {
            extra_slots: 0,
            ..burst()
        }
        .overlay(&base, 2);
        assert_eq!(merged, base);
    }

    #[test]
    fn overlay_is_deterministic() {
        let base = base_jobs();
        assert_eq!(burst().overlay(&base, 2), burst().overlay(&base, 2));
        let other = BurstSpec {
            seed: 10,
            ..burst()
        };
        assert_ne!(other.overlay(&base, 2), burst().overlay(&base, 2));
    }
}
