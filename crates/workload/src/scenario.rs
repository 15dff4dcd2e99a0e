//! The four experiment scenarios of Table II, plus scaled-down variants
//! for tests and parameter sweeps (Figs. 8–9).
//!
//! | # | nodes | memory | datasets | total size | length | batch | interactive | target |
//! |---|-------|--------|----------|-----------|--------|-------|-------------|--------|
//! | 1 | 8     | 16 GB  | 6 × 2 GB | 12 GB     | 60 s   | 0     | ~12006      | 33.33 fps |
//! | 2 | 8     | 16 GB  | 12 × 2 GB| 24 GB     | 120 s  | ~2251 | ~21011      | 33.33 fps |
//! | 3 | 64    | 512 GB | 32 × 8 GB| 256 GB    | 300 s  | ~9844 | ~160633     | 33.33 fps |
//! | 4 | 64    | 512 GB | 128 × 8 GB| 1 TB     | 600 s  | ~35176| ~388481     | 33.33 fps |
//!
//! Scenarios 1–2 run on the 8-node GTX 285 cluster cost profile; 3–4 on the
//! ANL GPU cluster profile. Job counts from the session generator land
//! within a few percent of the paper's (which are themselves one sampled
//! realization); `EXPERIMENTS.md` records the counts actually generated.

use crate::generator::{ActionBehavior, BatchModel, DatasetChoice, InteractiveModel, WorkloadSpec};
use crate::record::ScenarioRecord;
use vizsched_core::cluster::ClusterSpec;
use vizsched_core::cost::CostParams;
use vizsched_core::data::{uniform_datasets, Catalog, DatasetDesc, DecompositionPolicy};
use vizsched_core::fault::FaultEvent;
use vizsched_core::job::Job;
use vizsched_core::time::SimDuration;

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// Everything needed to run one experiment: cluster, costs, data, workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display label ("scenario-1", …).
    pub label: String,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Cost-model constants for that cluster.
    pub cost: CostParams,
    /// `Chk_max` (512 MB in all paper scenarios).
    pub chunk_max: u64,
    /// Number of datasets.
    pub dataset_count: u32,
    /// Size of each dataset in bytes.
    pub dataset_bytes: u64,
    /// The workload description.
    pub workload: WorkloadSpec,
    /// The interactive frame-rate target (33.33 fps).
    pub target_fps: f64,
    /// When set, this scenario replays a captured [`ScenarioRecord`]
    /// instead of generating jobs: [`Scenario::jobs`] returns the
    /// recorded stream verbatim and [`Scenario::catalog`] rebuilds the
    /// recorded decomposition (which may be heterogeneous).
    pub replay: Option<ReplayPlan>,
}

/// The captured side of a replay scenario (see [`Scenario::from_record`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayPlan {
    /// The recorded request stream, ids and issue times included.
    pub jobs: Vec<Job>,
    /// The recorded dataset descriptors, dense by id.
    pub datasets: Vec<DatasetDesc>,
    /// Per-dataset chunk sizes in bytes (the exact recorded bricking).
    pub chunks: Vec<Vec<u64>>,
    /// The recorded faults, in injection order; collect them into a
    /// `FaultPlan` to re-inject them.
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// Build scenario `n` (1–4) from Table II.
    pub fn table2(n: u8) -> Scenario {
        Scenario::table2_seeded(n, 2012)
    }

    /// Build scenario `n` with an explicit workload seed.
    pub fn table2_seeded(n: u8, seed: u64) -> Scenario {
        match n {
            1 => Scenario::build(
                "scenario-1",
                8,
                2 * GIB,
                CostParams::eight_node_cluster(),
                6,
                2 * GIB,
                SimDuration::from_secs(60),
                InteractiveModel {
                    slots: 6,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::FullLength,
                },
                BatchModel::none(),
                seed,
            ),
            2 => Scenario::build(
                "scenario-2",
                8,
                2 * GIB,
                CostParams::eight_node_cluster(),
                12,
                2 * GIB,
                SimDuration::from_secs(120),
                InteractiveModel {
                    slots: 6,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::Sessions {
                        mean_action: SimDuration::from_secs(12),
                        mean_think: SimDuration::from_millis(1_800),
                    },
                },
                BatchModel {
                    submissions: 25,
                    frames_min: 60,
                    frames_max: 120,
                    window_frac: 0.85,
                },
                seed,
            ),
            3 => Scenario::build(
                "scenario-3",
                64,
                8 * GIB,
                CostParams::anl_gpu_cluster(),
                32,
                8 * GIB,
                SimDuration::from_secs(300),
                InteractiveModel {
                    slots: 18,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::Sessions {
                        mean_action: SimDuration::from_secs(5),
                        mean_think: SimDuration::from_millis(600),
                    },
                },
                BatchModel {
                    submissions: 110,
                    frames_min: 60,
                    frames_max: 120,
                    window_frac: 0.85,
                },
                seed,
            ),
            4 => Scenario::build(
                "scenario-4",
                64,
                8 * GIB,
                CostParams::anl_gpu_cluster(),
                128,
                8 * GIB,
                SimDuration::from_secs(600),
                InteractiveModel {
                    slots: 20,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::Sessions {
                        mean_action: SimDuration::from_secs(10),
                        mean_think: SimDuration::from_millis(300),
                    },
                },
                BatchModel {
                    submissions: 390,
                    frames_min: 60,
                    frames_max: 120,
                    window_frac: 0.9,
                },
                seed,
            ),
            other => panic!("Table II defines scenarios 1-4, not {other}"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        label: &str,
        nodes: usize,
        quota: u64,
        cost: CostParams,
        dataset_count: u32,
        dataset_bytes: u64,
        length: SimDuration,
        interactive: InteractiveModel,
        batch: BatchModel,
        seed: u64,
    ) -> Scenario {
        Scenario {
            label: label.to_string(),
            cluster: ClusterSpec::homogeneous(nodes, quota),
            cost,
            chunk_max: 512 * MIB,
            dataset_count,
            dataset_bytes,
            workload: WorkloadSpec {
                length,
                interactive,
                batch,
                dataset_count,
                dataset_choice: DatasetChoice::Uniform,
                seed,
            },
            target_fps: 1.0e6 / 30_000.0,
            replay: None,
        }
    }

    /// A replay scenario wrapping a captured [`ScenarioRecord`]: the
    /// cluster, cost constants, and decomposition come from the record's
    /// header, and [`Scenario::jobs`] returns the recorded request
    /// stream verbatim — same ids, issue times, and camera parameters —
    /// and [`Scenario::faults`] the recorded faults, so the simulator
    /// re-places every task exactly as the recorded run did.
    pub fn from_record(record: &ScenarioRecord) -> Scenario {
        let h = &record.header;
        let length = record
            .requests
            .last()
            .map(|j| SimDuration::from_micros(j.issue_time.as_micros()))
            .unwrap_or_else(|| SimDuration::from_micros(0));
        let chunk_max = h
            .chunks
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(512 * MIB);
        Scenario {
            label: format!("{}-replay", h.label),
            cluster: h.cluster.clone(),
            cost: h.cost,
            chunk_max,
            dataset_count: h.datasets.len() as u32,
            dataset_bytes: h.datasets.first().map(|d| d.bytes).unwrap_or(0),
            workload: WorkloadSpec {
                length,
                interactive: InteractiveModel {
                    slots: 0,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::FullLength,
                },
                batch: BatchModel::none(),
                dataset_count: h.datasets.len() as u32,
                dataset_choice: DatasetChoice::Uniform,
                seed: h.seed,
            },
            target_fps: 1.0e6 / 30_000.0,
            replay: Some(ReplayPlan {
                jobs: record.requests.clone(),
                datasets: h.datasets.clone(),
                chunks: h.chunks.clone(),
                faults: record.faults.clone(),
            }),
        }
    }

    /// The dataset catalog input (the recorded descriptors when
    /// replaying).
    pub fn datasets(&self) -> Vec<DatasetDesc> {
        match &self.replay {
            Some(r) => r.datasets.clone(),
            None => uniform_datasets(self.dataset_count, self.dataset_bytes),
        }
    }

    /// The decomposition catalog this scenario runs over. Generated
    /// scenarios decompose uniformly under `Chk_max`; replay scenarios
    /// rebuild the recorded (possibly heterogeneous) bricking, so pass
    /// this to the run's catalog override when replaying.
    pub fn catalog(&self) -> Catalog {
        use vizsched_core::data::ChunkDesc;
        use vizsched_core::ids::{ChunkId, DatasetId};
        match &self.replay {
            Some(r) => {
                let chunks = r
                    .chunks
                    .iter()
                    .enumerate()
                    .map(|(d, sizes)| {
                        sizes
                            .iter()
                            .enumerate()
                            .map(|(j, &bytes)| ChunkDesc {
                                id: ChunkId {
                                    dataset: DatasetId(d as u32),
                                    index: j as u32,
                                },
                                bytes,
                            })
                            .collect()
                    })
                    .collect();
                Catalog::from_chunks(r.datasets.clone(), chunks)
            }
            None => Catalog::new(
                self.datasets(),
                DecompositionPolicy::MaxChunkSize {
                    max_bytes: self.chunk_max,
                },
            ),
        }
    }

    /// The faults a replay must re-inject (none unless replaying a
    /// record that carries `fault` lines).
    pub fn faults(&self) -> &[FaultEvent] {
        self.replay.as_ref().map_or(&[], |r| &r.faults)
    }

    /// Generate the job list (or return the recorded stream when
    /// replaying).
    pub fn jobs(&self) -> Vec<Job> {
        match &self.replay {
            Some(r) => r.jobs.clone(),
            None => self.workload.generate(),
        }
    }

    /// A proportionally shortened copy (for quick tests): the arrival
    /// process is cut to `length`, keeping all rates the same.
    pub fn shortened(mut self, length: SimDuration) -> Scenario {
        // Scale batch submissions with the length so the mix is preserved.
        let frac = length.as_secs_f64() / self.workload.length.as_secs_f64();
        self.workload.length = length;
        self.workload.batch.submissions = ((self.workload.batch.submissions as f64 * frac).round()
            as u32)
            .max(if self.workload.batch.submissions > 0 {
                1
            } else {
                0
            });
        // Scale the session timescales too, or a shortened run degenerates
        // into one think-free action per slot: the full-length scenarios
        // alternate action and think phases many times, and those
        // interactive lulls are what lets a deferring scheduler trickle
        // batch loads out mid-run. Equal scaling preserves the duty cycle
        // (and thus job rates) regardless of exponent; √frac splits the
        // difference between keeping the alternation *count* (exponent 1,
        // which compresses dataset switches — and their cold reloads — into
        // 1/frac times the I/O churn, overloading the cluster) and keeping
        // the switch *rate* (exponent 0, which leaves too few lulls to
        // observe deferred-batch behavior at all).
        if let ActionBehavior::Sessions {
            mean_action,
            mean_think,
        } = &mut self.workload.interactive.behavior
        {
            let floor = self.workload.interactive.period;
            let scale = frac.sqrt();
            *mean_action = mean_action.mul_f64(scale).max(floor);
            *mean_think = mean_think.mul_f64(scale).max(floor);
        }
        self.label = format!("{}-short", self.label);
        self
    }

    /// A custom sweep scenario used by Figs. 8 and 9: `nodes` nodes with
    /// `quota` memory, `datasets` datasets of `dataset_bytes`, `slots`
    /// concurrent actions over `length`, and an optional batch stream.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        label: &str,
        nodes: usize,
        quota: u64,
        datasets: u32,
        dataset_bytes: u64,
        slots: u32,
        length: SimDuration,
        batch_submissions: u32,
        seed: u64,
    ) -> Scenario {
        Scenario {
            label: label.to_string(),
            cluster: ClusterSpec::homogeneous(nodes, quota),
            cost: CostParams::anl_gpu_cluster(),
            chunk_max: 512 * MIB,
            dataset_count: datasets,
            dataset_bytes,
            workload: WorkloadSpec {
                length,
                interactive: InteractiveModel {
                    slots,
                    period: SimDuration::from_millis(30),
                    behavior: ActionBehavior::Sessions {
                        // Long exploration sessions: sweeps vary load via
                        // the slot count, not via churn.
                        mean_action: SimDuration::from_secs(20),
                        mean_think: SimDuration::from_millis(2_400),
                    },
                },
                batch: if batch_submissions == 0 {
                    BatchModel::none()
                } else {
                    BatchModel {
                        submissions: batch_submissions,
                        frames_min: 60,
                        frames_max: 120,
                        window_frac: 0.85,
                    }
                },
                dataset_count: datasets,
                dataset_choice: DatasetChoice::Uniform,
                seed,
            },
            target_fps: 1.0e6 / 30_000.0,
            replay: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_matches_table2() {
        let s = Scenario::table2(1);
        assert_eq!(s.cluster.len(), 8);
        assert_eq!(s.cluster.total_memory(), 16 * GIB);
        assert_eq!(s.dataset_count, 6);
        assert_eq!(s.dataset_count as u64 * s.dataset_bytes, 12 * GIB);
        let jobs = s.jobs();
        // Paper: 12006 interactive jobs, 0 batch; ours generates ~12000.
        assert!((11_994..=12_000).contains(&jobs.len()), "{}", jobs.len());
        assert!(jobs.iter().all(|j| j.kind.is_interactive()));
    }

    #[test]
    fn scenario2_counts_near_table2() {
        let s = Scenario::table2(2);
        let jobs = s.jobs();
        let interactive = jobs.iter().filter(|j| j.kind.is_interactive()).count() as f64;
        let batch = jobs.iter().filter(|j| !j.kind.is_interactive()).count() as f64;
        assert!(
            (interactive - 21_011.0).abs() / 21_011.0 < 0.10,
            "interactive = {interactive}"
        );
        assert!((batch - 2_251.0).abs() / 2_251.0 < 0.15, "batch = {batch}");
    }

    #[test]
    fn scenario3_and_4_memory_and_data_sizes() {
        let s3 = Scenario::table2(3);
        assert_eq!(s3.cluster.len(), 64);
        assert_eq!(s3.cluster.total_memory(), 512 * GIB);
        assert_eq!(s3.dataset_count as u64 * s3.dataset_bytes, 256 * GIB);
        let s4 = Scenario::table2(4);
        assert_eq!(s4.dataset_count as u64 * s4.dataset_bytes, 1024 * GIB);
    }

    #[test]
    #[should_panic(expected = "scenarios 1-4")]
    fn scenario_numbers_validated() {
        Scenario::table2(5);
    }

    #[test]
    fn shortened_preserves_rates() {
        let s = Scenario::table2(2).shortened(SimDuration::from_secs(12));
        let jobs = s.jobs();
        let interactive = jobs.iter().filter(|j| j.kind.is_interactive()).count() as f64;
        // One tenth the length -> about one tenth the jobs.
        assert!(
            (interactive - 2_101.0).abs() / 2_101.0 < 0.25,
            "interactive = {interactive}"
        );
        let limit = vizsched_core::time::SimTime::from_secs(12);
        assert!(jobs.iter().all(|j| j.issue_time <= limit));
    }

    #[test]
    fn seeds_change_workload_not_shape() {
        let a = Scenario::table2_seeded(2, 1).jobs();
        let b = Scenario::table2_seeded(2, 2).jobs();
        assert_ne!(a, b);
        let ratio = a.len() as f64 / b.len() as f64;
        assert!((ratio - 1.0).abs() < 0.2);
    }
}
