//! Multi-user workload generation: interactive action streams and batch
//! submissions, merged into one issue-ordered job list.
//!
//! The paper's experiments drive the service with "simultaneous user
//! actions that periodically request rendering" at a target of 33.33 fps
//! (one request every 30 ms per action, Table II) plus batch rendering
//! submissions (animation frames over a dataset). The generator models:
//!
//! * a fixed number of user *slots*; each slot is one user who either holds
//!   one continuous action for the whole run (Scenario 1) or alternates
//!   exponentially-distributed actions and think pauses (Scenarios 2–4);
//! * batch submissions at uniform random times, each expanding into a run
//!   of frame jobs queued at submission time.

use crate::arrival::{exp_duration, uniform_duration, uniform_u32};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::rng::{SplitMix64, GAMMA};
use vizsched_core::time::{SimDuration, SimTime};

/// How sessions pick datasets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DatasetChoice {
    /// Every dataset equally likely (the Table II scenarios).
    Uniform,
    /// Zipf-distributed popularity with exponent `s`: dataset 0 is the
    /// hottest. Real archives are skewed — a few datasets get most of the
    /// exploration — which *helps* locality-aware scheduling; the sweep
    /// binaries use this to probe sensitivity.
    Zipf {
        /// The skew exponent (1.0 ≈ classic Zipf; 0.0 degenerates to
        /// uniform).
        s: f64,
    },
}

impl DatasetChoice {
    /// Sample a dataset index in `0..count`.
    pub fn sample(&self, rng: &mut SplitMix64, count: u32) -> u32 {
        assert!(count > 0, "need at least one dataset");
        match *self {
            DatasetChoice::Uniform => uniform_u32(rng, 0, count - 1),
            DatasetChoice::Zipf { s } => {
                assert!(
                    s >= 0.0 && s.is_finite(),
                    "zipf exponent must be finite and >= 0"
                );
                // Inverse-CDF over the normalized harmonic weights.
                let total: f64 = (1..=count as u64).map(|k| 1.0 / (k as f64).powf(s)).sum();
                let mut target = rng.unit() * total;
                for k in 0..count {
                    target -= 1.0 / ((k + 1) as f64).powf(s);
                    if target <= 0.0 {
                        return k;
                    }
                }
                count - 1
            }
        }
    }
}

/// How a user slot behaves over the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActionBehavior {
    /// One action spanning the whole run; slot `i` explores dataset
    /// `i mod datasets` (Scenario 1's "six users, six datasets").
    FullLength,
    /// Alternate action bursts and think pauses, both exponentially
    /// distributed; each action picks a dataset uniformly at random.
    Sessions {
        /// Mean action duration.
        mean_action: SimDuration,
        /// Mean pause between actions.
        mean_think: SimDuration,
    },
}

/// The interactive side of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InteractiveModel {
    /// Number of concurrently active user slots.
    pub slots: u32,
    /// Request period within an action (30 ms for the 33.33 fps target).
    pub period: SimDuration,
    /// Session structure.
    pub behavior: ActionBehavior,
}

/// The batch side of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchModel {
    /// Number of batch submissions over the run.
    pub submissions: u32,
    /// Minimum frames per submission.
    pub frames_min: u32,
    /// Maximum frames per submission.
    pub frames_max: u32,
    /// Submissions arrive uniformly in `[0, window_frac · length]`.
    pub window_frac: f64,
}

impl BatchModel {
    /// No batch work at all.
    pub fn none() -> Self {
        BatchModel {
            submissions: 0,
            frames_min: 0,
            frames_max: 0,
            window_frac: 0.0,
        }
    }
}

/// A complete workload description.
///
/// ```
/// use vizsched_core::time::SimDuration;
/// use vizsched_workload::{
///     ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, WorkloadSpec,
/// };
///
/// let spec = WorkloadSpec {
///     length: SimDuration::from_secs(3),
///     interactive: InteractiveModel {
///         slots: 2,
///         period: SimDuration::from_millis(30),
///         behavior: ActionBehavior::FullLength,
///     },
///     batch: BatchModel::none(),
///     dataset_count: 2,
///     dataset_choice: DatasetChoice::Uniform,
///     seed: 1,
/// };
/// let jobs = spec.generate();
/// assert!(jobs.len() >= 190 && jobs.len() <= 200); // ~2 x 100 frames
/// assert!(jobs.windows(2).all(|w| w[0].issue_time <= w[1].issue_time));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Total simulated length of the arrival process.
    pub length: SimDuration,
    /// Interactive model.
    pub interactive: InteractiveModel,
    /// Batch model.
    pub batch: BatchModel,
    /// Number of datasets actions and submissions draw from.
    pub dataset_count: u32,
    /// How actions and submissions pick datasets.
    pub dataset_choice: DatasetChoice,
    /// Master RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Generate the job list, sorted by issue time with dense arrival-order
    /// ids. Interactive users are `UserId(slot)`; each batch submission
    /// gets its own user id offset by 1000 (fair-sharing treats
    /// submissions as distinct principals).
    pub fn generate(&self) -> Vec<Job> {
        assert!(self.dataset_count > 0, "need at least one dataset");
        let mut proto = Proto::new();
        let mut next_action = 0u64;

        for slot in 0..self.interactive.slots {
            let mut rng = SplitMix64::seeded(self.seed.wrapping_add(0x5eed + slot as u64));
            match self.interactive.behavior {
                ActionBehavior::FullLength => {
                    let dataset = DatasetId(slot % self.dataset_count);
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
                        self.interactive.period,
                        0,
                    );
                }
                ActionBehavior::Sessions {
                    mean_action,
                    mean_think,
                } => {
                    let mut t = SimDuration::ZERO;
                    // Stagger slot starts uniformly over one think period so
                    // slots do not fire in lockstep.
                    t += uniform_duration(&mut rng, SimDuration::ZERO, self.interactive.period);
                    while t < self.length {
                        let burst = exp_duration(&mut rng, mean_action)
                            .max(self.interactive.period)
                            .min(self.length - t);
                        let dataset =
                            DatasetId(self.dataset_choice.sample(&mut rng, self.dataset_count));
                        let action = ActionId(next_action);
                        next_action += 1;
                        let start = SimTime::ZERO + t;
                        emit_action(
                            &mut proto,
                            self.seed,
                            UserId(slot),
                            action,
                            dataset,
                            start,
                            start + burst,
                            self.interactive.period,
                            0,
                        );
                        t += burst + exp_duration(&mut rng, mean_think);
                    }
                }
            }
        }

        // Batch submissions.
        let mut rng = SplitMix64::seeded(self.seed.wrapping_add(0xba7c4));
        let window = self.length.mul_f64(self.batch.window_frac.clamp(0.0, 1.0));
        for sub in 0..self.batch.submissions {
            let at = SimTime::ZERO + uniform_duration(&mut rng, SimDuration::ZERO, window);
            let dataset = DatasetId(self.dataset_choice.sample(&mut rng, self.dataset_count));
            let frames = uniform_u32(&mut rng, self.batch.frames_min, self.batch.frames_max);
            let user = UserId(1000 + sub);
            for frame in 0..frames {
                let params = FrameParams {
                    azimuth: frame as f32 * 0.05,
                    ..FrameParams::default()
                };
                proto.push((
                    at,
                    JobKind::Batch {
                        user,
                        request: BatchId(sub as u64),
                        frame,
                    },
                    dataset,
                    params,
                ));
            }
        }

        assemble(proto)
    }

    /// Expected number of interactive jobs (exact for
    /// [`ActionBehavior::FullLength`], first-order for sessions).
    pub fn expected_interactive_jobs(&self) -> f64 {
        let per_slot_rate = self.length.as_secs_f64() / self.interactive.period.as_secs_f64();
        match self.interactive.behavior {
            ActionBehavior::FullLength => self.interactive.slots as f64 * per_slot_rate,
            ActionBehavior::Sessions {
                mean_action,
                mean_think,
            } => {
                let duty = mean_action.as_secs_f64()
                    / (mean_action.as_secs_f64() + mean_think.as_secs_f64());
                self.interactive.slots as f64 * per_slot_rate * duty
            }
        }
    }
}

/// Jobs before they are numbered: issue time, kind, dataset, camera.
pub(crate) type Proto = Vec<(SimTime, JobKind, DatasetId, FrameParams)>;

/// Emit the request stream of one action, from `start` to `end`, its
/// frames numbered from `frame0`. Requests are nominally one `period`
/// apart, but carry a per-action phase and ±10 % per-request jitter: real
/// users are not microsecond-synchronized, and perfectly aligned periodic
/// arrivals let deterministic greedy schedulers fall into placement
/// rotations that no physical system sustains.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_action(
    proto: &mut Proto,
    seed: u64,
    user: UserId,
    action: ActionId,
    dataset: DatasetId,
    start: SimTime,
    end: SimTime,
    period: SimDuration,
    frame0: u32,
) {
    let mut rng = SplitMix64::seeded(seed.wrapping_mul(GAMMA).wrapping_add(action.0));
    let phase = uniform_duration(&mut rng, SimDuration::ZERO, period);
    let max_jitter = period / 10;
    let mut nominal = start + phase;
    let mut frame = frame0;
    while nominal < end {
        // Jitter never pushes a request past the action's end (the
        // generator promises `issue_time <= length`).
        let t = (nominal + uniform_duration(&mut rng, SimDuration::ZERO, max_jitter)).min(end);
        let params = FrameParams {
            azimuth: frame as f32 * 0.02,
            ..FrameParams::default()
        };
        proto.push((t, JobKind::Interactive { user, action }, dataset, params));
        nominal += period;
        frame += 1;
    }
}

/// Sort a proto stream by issue time (stable on ties) and assign dense
/// arrival-order job ids — the invariant every substrate expects.
pub(crate) fn assemble(mut proto: Proto) -> Vec<Job> {
    proto.sort_by_key(|(t, ..)| *t);
    proto
        .into_iter()
        .enumerate()
        .map(|(i, (issue_time, kind, dataset, frame))| Job {
            id: JobId(i as u64),
            kind,
            dataset,
            issue_time,
            frame,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(behavior: ActionBehavior, batch: BatchModel) -> WorkloadSpec {
        WorkloadSpec {
            length: SimDuration::from_secs(60),
            interactive: InteractiveModel {
                slots: 6,
                period: SimDuration::from_millis(30),
                behavior,
            },
            batch,
            dataset_count: 6,
            dataset_choice: DatasetChoice::Uniform,
            seed: 7,
        }
    }

    #[test]
    fn full_length_job_count_is_exact() {
        let s = spec(ActionBehavior::FullLength, BatchModel::none());
        let jobs = s.generate();
        // 6 slots x (60 s / 30 ms) = ~12000 jobs, the Scenario 1 shape
        // (each action loses at most one frame to its phase offset).
        assert!((11_994..=12_000).contains(&jobs.len()), "{}", jobs.len());
        assert_eq!(s.expected_interactive_jobs(), 12_000.0);
        assert!(jobs.iter().all(|j| j.kind.is_interactive()));
    }

    #[test]
    fn full_length_slots_use_distinct_datasets() {
        let s = spec(ActionBehavior::FullLength, BatchModel::none());
        let jobs = s.generate();
        for j in &jobs {
            let user = j.kind.user();
            assert_eq!(j.dataset.0, user.0 % 6);
        }
    }

    #[test]
    fn jobs_are_sorted_with_dense_ids() {
        let s = spec(
            ActionBehavior::Sessions {
                mean_action: SimDuration::from_secs(4),
                mean_think: SimDuration::from_millis(550),
            },
            BatchModel {
                submissions: 5,
                frames_min: 10,
                frames_max: 20,
                window_frac: 0.8,
            },
        );
        let jobs = s.generate();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
            if i > 0 {
                assert!(j.issue_time >= jobs[i - 1].issue_time);
            }
        }
    }

    #[test]
    fn sessions_job_count_near_expectation() {
        let s = spec(
            ActionBehavior::Sessions {
                mean_action: SimDuration::from_secs(4),
                mean_think: SimDuration::from_millis(550),
            },
            BatchModel::none(),
        );
        let jobs = s.generate();
        let expected = s.expected_interactive_jobs();
        let got = jobs.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.15,
            "got {got}, expected about {expected}"
        );
    }

    #[test]
    fn batch_jobs_share_submission_time_and_dataset() {
        let s = spec(
            ActionBehavior::FullLength,
            BatchModel {
                submissions: 3,
                frames_min: 5,
                frames_max: 5,
                window_frac: 0.5,
            },
        );
        let jobs = s.generate();
        let batch: Vec<&Job> = jobs.iter().filter(|j| !j.kind.is_interactive()).collect();
        assert_eq!(batch.len(), 15);
        for sub in 0..3u64 {
            let frames: Vec<&&Job> = batch
                .iter()
                .filter(
                    |j| matches!(j.kind, JobKind::Batch { request, .. } if request == BatchId(sub)),
                )
                .collect();
            assert_eq!(frames.len(), 5);
            assert!(frames
                .windows(2)
                .all(|w| w[0].issue_time == w[1].issue_time));
            assert!(frames.windows(2).all(|w| w[0].dataset == w[1].dataset));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(
            ActionBehavior::Sessions {
                mean_action: SimDuration::from_secs(2),
                mean_think: SimDuration::from_secs(1),
            },
            BatchModel {
                submissions: 4,
                frames_min: 2,
                frames_max: 9,
                window_frac: 0.9,
            },
        );
        assert_eq!(s.generate(), s.generate());
        let mut other = s;
        other.seed = 8;
        assert_ne!(s.generate(), other.generate());
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let mut rng = SplitMix64::seeded(3);
        let choice = DatasetChoice::Zipf { s: 1.2 };
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[choice.sample(&mut rng, 8) as usize] += 1;
        }
        assert!(
            counts[0] > counts[3],
            "dataset 0 must be hotter: {counts:?}"
        );
        assert!(
            counts[3] > counts[7],
            "skew must be monotone-ish: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "tail still sampled: {counts:?}"
        );
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let mut rng = SplitMix64::seeded(4);
        let choice = DatasetChoice::Zipf { s: 0.0 };
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[choice.sample(&mut rng, 4) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (1700..=2300).contains(&c),
                "near-uniform expected: {counts:?}"
            );
        }
    }

    #[test]
    fn action_ids_are_unique_per_burst() {
        let s = spec(
            ActionBehavior::Sessions {
                mean_action: SimDuration::from_secs(1),
                mean_think: SimDuration::from_secs(1),
            },
            BatchModel::none(),
        );
        let jobs = s.generate();
        // Within one action id, all jobs share a user and a dataset.
        let mut per_action: std::collections::HashMap<ActionId, (UserId, DatasetId)> =
            std::collections::HashMap::new();
        for j in &jobs {
            if let JobKind::Interactive { user, action } = j.kind {
                let entry = per_action.entry(action).or_insert((user, j.dataset));
                assert_eq!(entry.0, user);
                assert_eq!(entry.1, j.dataset);
            }
        }
        assert!(per_action.len() > 6, "sessions should produce many actions");
    }
}

#[cfg(test)]
mod wrap_tests {
    use super::*;

    #[test]
    fn full_length_slots_wrap_over_fewer_datasets() {
        let spec = WorkloadSpec {
            length: SimDuration::from_secs(1),
            interactive: InteractiveModel {
                slots: 5,
                period: SimDuration::from_millis(100),
                behavior: ActionBehavior::FullLength,
            },
            batch: BatchModel::none(),
            dataset_count: 2,
            dataset_choice: DatasetChoice::Uniform,
            seed: 11,
        };
        let jobs = spec.generate();
        assert!(!jobs.is_empty());
        for j in &jobs {
            let user = j.kind.user();
            assert_eq!(j.dataset.0, user.0 % 2, "slot {user} wraps over 2 datasets");
        }
    }

    #[test]
    fn request_jitter_stays_within_a_tenth_period() {
        let spec = WorkloadSpec {
            length: SimDuration::from_secs(2),
            interactive: InteractiveModel {
                slots: 1,
                period: SimDuration::from_millis(30),
                behavior: ActionBehavior::FullLength,
            },
            batch: BatchModel::none(),
            dataset_count: 1,
            dataset_choice: DatasetChoice::Uniform,
            seed: 3,
        };
        let jobs = spec.generate();
        // Consecutive requests of one action are 30 ms +- 10% apart
        // (bounded drift: nominal grid plus per-request jitter).
        for w in jobs.windows(2) {
            let gap = w[1].issue_time - w[0].issue_time;
            assert!(
                gap >= SimDuration::from_millis(27) && gap <= SimDuration::from_millis(33),
                "gap {gap} out of range"
            );
        }
    }
}
