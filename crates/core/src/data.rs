//! Datasets, chunks, and the data decomposition policies of §III-C.
//!
//! A rendering job over a dataset is split into independent tasks, one per
//! data chunk. The paper contrasts two policies:
//!
//! * **Uniform** (conventional, used by the FCFSU baseline): every dataset is
//!   partitioned into exactly `p` equal chunks, one per rendering node, so a
//!   single job always occupies the whole cluster.
//! * **Max-chunk-size** (used by everything else): a dataset of `D` bytes is
//!   partitioned into `m = ceil(D / Chk_max)` equal chunks, the minimal number
//!   such that every chunk fits in `Chk_max` (itself chosen to fit in GPU
//!   memory). More than one chunk may land on the same node, so data of
//!   unbounded total size is supported.

use crate::ids::{ChunkId, DatasetId};

/// Description of one registered dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetDesc {
    /// Identifier; must equal the dataset's index in the catalog.
    pub id: DatasetId,
    /// Human-readable name (shown in reports).
    pub name: String,
    /// Total size in bytes.
    pub bytes: u64,
    /// Grid dimensions, if known (used when wiring a real renderer).
    pub dims: Option<[u32; 3]>,
}

impl DatasetDesc {
    /// A dataset with a synthetic name and no grid information.
    pub fn sized(id: DatasetId, bytes: u64) -> Self {
        DatasetDesc {
            id,
            name: format!("dataset-{}", id.0),
            bytes,
            dims: None,
        }
    }
}

/// One chunk of a decomposed dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkDesc {
    /// Identity of the chunk.
    pub id: ChunkId,
    /// Size of the chunk in bytes.
    pub bytes: u64,
}

/// How a dataset is split into chunks (§III-C).
///
/// ```
/// use vizsched_core::data::{DatasetDesc, DecompositionPolicy};
/// use vizsched_core::ids::DatasetId;
///
/// // Scenario 1: a 2 GB dataset under Chk_max = 512 MB -> 4 tasks per job.
/// let policy = DecompositionPolicy::MaxChunkSize { max_bytes: 512 << 20 };
/// let dataset = DatasetDesc::sized(DatasetId(0), 2 << 30);
/// assert_eq!(policy.decompose(&dataset).len(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionPolicy {
    /// `m = ceil(bytes / max_bytes)` equal chunks, each `<= max_bytes`.
    MaxChunkSize {
        /// `Chk_max`: the maximal chunk size in bytes.
        max_bytes: u64,
    },
    /// `m = nodes` equal chunks regardless of dataset size (the conventional
    /// policy).
    Uniform {
        /// Number of rendering nodes `p`.
        nodes: u32,
    },
}

impl DecompositionPolicy {
    /// Number of chunks a dataset of `bytes` decomposes into.
    pub fn chunk_count(&self, bytes: u64) -> u32 {
        match *self {
            DecompositionPolicy::MaxChunkSize { max_bytes } => {
                assert!(max_bytes > 0, "Chk_max must be positive");
                bytes.div_ceil(max_bytes).max(1) as u32
            }
            DecompositionPolicy::Uniform { nodes } => {
                assert!(nodes > 0, "cluster must have at least one node");
                nodes
            }
        }
    }

    /// Decompose a dataset into its chunk list. Chunks are equal-sized up to
    /// a remainder spread over the leading chunks, so `sum(bytes) == total`.
    pub fn decompose(&self, dataset: &DatasetDesc) -> Vec<ChunkDesc> {
        let m = self.chunk_count(dataset.bytes) as u64;
        let base = dataset.bytes / m;
        let remainder = dataset.bytes % m;
        (0..m)
            .map(|i| ChunkDesc {
                id: ChunkId::new(dataset.id, i as u32),
                bytes: base + u64::from(i < remainder),
            })
            .collect()
    }
}

/// The head node's registry of datasets and their decompositions.
///
/// Built once per run for a given policy; all schedulers and the engine
/// consult it for chunk sizes and counts.
#[derive(Clone, Debug)]
pub struct Catalog {
    datasets: Vec<DatasetDesc>,
    chunks: Vec<Vec<ChunkDesc>>,
    policy: DecompositionPolicy,
}

impl Catalog {
    /// Decompose every dataset under `policy`. Dataset ids must be dense
    /// (`datasets[i].id == DatasetId(i)`), which the constructor checks.
    pub fn new(datasets: Vec<DatasetDesc>, policy: DecompositionPolicy) -> Self {
        for (i, d) in datasets.iter().enumerate() {
            assert_eq!(
                d.id.index(),
                i,
                "dataset ids must be dense and in order (got {} at position {i})",
                d.id
            );
        }
        let chunks = datasets.iter().map(|d| policy.decompose(d)).collect();
        Catalog {
            datasets,
            chunks,
            policy,
        }
    }

    /// Build from explicit per-dataset chunk lists — for substrates whose
    /// physical bricking is not captured by a single policy (e.g. a chunk
    /// store with differently-bricked datasets). Chunk ids must be dense
    /// per dataset; the recorded policy is a `MaxChunkSize` over the
    /// largest chunk (informational only).
    pub fn from_chunks(datasets: Vec<DatasetDesc>, chunks: Vec<Vec<ChunkDesc>>) -> Self {
        assert_eq!(datasets.len(), chunks.len(), "one chunk list per dataset");
        let mut max_chunk = 1u64;
        for (i, (d, list)) in datasets.iter().zip(&chunks).enumerate() {
            assert_eq!(d.id.index(), i, "dataset ids must be dense and in order");
            assert!(!list.is_empty(), "dataset {} has no chunks", d.id);
            for (j, c) in list.iter().enumerate() {
                assert_eq!(
                    c.id,
                    ChunkId::new(d.id, j as u32),
                    "chunk ids must be dense"
                );
                max_chunk = max_chunk.max(c.bytes);
            }
        }
        Catalog {
            datasets,
            chunks,
            policy: DecompositionPolicy::MaxChunkSize {
                max_bytes: max_chunk,
            },
        }
    }

    /// The decomposition policy this catalog was built with.
    pub fn policy(&self) -> DecompositionPolicy {
        self.policy
    }

    /// All registered datasets.
    pub fn datasets(&self) -> &[DatasetDesc] {
        &self.datasets
    }

    /// Look up one dataset.
    pub fn dataset(&self, id: DatasetId) -> &DatasetDesc {
        &self.datasets[id.index()]
    }

    /// The chunk list of one dataset.
    pub fn chunks_of(&self, id: DatasetId) -> &[ChunkDesc] {
        &self.chunks[id.index()]
    }

    /// Number of tasks a job over `id` decomposes into (`t_i` in Table I).
    pub fn task_count(&self, id: DatasetId) -> u32 {
        self.chunks[id.index()].len() as u32
    }

    /// Size of one chunk in bytes.
    pub fn chunk_bytes(&self, chunk: ChunkId) -> u64 {
        self.chunks[chunk.dataset.index()][chunk.index as usize].bytes
    }

    /// Total number of chunks across all datasets (`m` total in the
    /// complexity bound `O(p · m log m)`).
    pub fn total_chunks(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Total bytes across all datasets.
    pub fn total_bytes(&self) -> u64 {
        self.datasets.iter().map(|d| d.bytes).sum()
    }
}

/// Convenience: `count` identical datasets of `bytes` each.
pub fn uniform_datasets(count: u32, bytes: u64) -> Vec<DatasetDesc> {
    (0..count)
        .map(|i| DatasetDesc::sized(DatasetId(i), bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;
    const MIB: u64 = 1 << 20;

    #[test]
    fn max_chunk_size_matches_paper_scenarios() {
        // Scenario 1: 2 GB datasets, Chk_max = 512 MB -> 4 tasks per job.
        let policy = DecompositionPolicy::MaxChunkSize {
            max_bytes: 512 * MIB,
        };
        assert_eq!(policy.chunk_count(2 * GIB), 4);
        // Scenario 3: 8 GB datasets, Chk_max = 512 MB -> 16 tasks per job.
        assert_eq!(policy.chunk_count(8 * GIB), 16);
    }

    #[test]
    fn chunks_never_exceed_max_and_sum_to_total() {
        let policy = DecompositionPolicy::MaxChunkSize { max_bytes: 300 };
        let d = DatasetDesc::sized(DatasetId(0), 1000);
        let chunks = policy.decompose(&d);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.bytes <= 300));
        assert_eq!(chunks.iter().map(|c| c.bytes).sum::<u64>(), 1000);
    }

    #[test]
    fn uniform_policy_always_yields_node_count() {
        let policy = DecompositionPolicy::Uniform { nodes: 8 };
        assert_eq!(policy.chunk_count(1), 8);
        assert_eq!(policy.chunk_count(100 * GIB), 8);
        let d = DatasetDesc::sized(DatasetId(0), 2 * GIB);
        let chunks = policy.decompose(&d);
        assert_eq!(chunks.len(), 8);
        assert_eq!(chunks.iter().map(|c| c.bytes).sum::<u64>(), 2 * GIB);
    }

    #[test]
    fn tiny_dataset_still_gets_one_chunk() {
        let policy = DecompositionPolicy::MaxChunkSize { max_bytes: GIB };
        assert_eq!(policy.chunk_count(1), 1);
        assert_eq!(policy.chunk_count(0), 1);
    }

    #[test]
    fn catalog_lookup() {
        let datasets = uniform_datasets(3, 2 * GIB);
        let catalog = Catalog::new(
            datasets,
            DecompositionPolicy::MaxChunkSize {
                max_bytes: 512 * MIB,
            },
        );
        assert_eq!(catalog.task_count(DatasetId(1)), 4);
        assert_eq!(catalog.total_chunks(), 12);
        assert_eq!(
            catalog.chunk_bytes(ChunkId::new(DatasetId(2), 3)),
            512 * MIB
        );
        assert_eq!(catalog.total_bytes(), 6 * GIB);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn catalog_rejects_sparse_ids() {
        let datasets = vec![DatasetDesc::sized(DatasetId(5), GIB)];
        Catalog::new(
            datasets,
            DecompositionPolicy::MaxChunkSize { max_bytes: GIB },
        );
    }

    #[test]
    fn from_chunks_accepts_heterogeneous_bricking() {
        let datasets = vec![
            DatasetDesc::sized(DatasetId(0), 100),
            DatasetDesc::sized(DatasetId(1), 90),
        ];
        let chunks = vec![
            vec![
                ChunkDesc {
                    id: ChunkId::new(DatasetId(0), 0),
                    bytes: 60,
                },
                ChunkDesc {
                    id: ChunkId::new(DatasetId(0), 1),
                    bytes: 40,
                },
            ],
            vec![
                ChunkDesc {
                    id: ChunkId::new(DatasetId(1), 0),
                    bytes: 30,
                },
                ChunkDesc {
                    id: ChunkId::new(DatasetId(1), 1),
                    bytes: 30,
                },
                ChunkDesc {
                    id: ChunkId::new(DatasetId(1), 2),
                    bytes: 30,
                },
            ],
        ];
        let catalog = Catalog::from_chunks(datasets, chunks);
        assert_eq!(catalog.task_count(DatasetId(0)), 2);
        assert_eq!(catalog.task_count(DatasetId(1)), 3);
        assert_eq!(catalog.chunk_bytes(ChunkId::new(DatasetId(0), 0)), 60);
        assert_eq!(catalog.total_chunks(), 5);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn from_chunks_rejects_sparse_chunk_ids() {
        let datasets = vec![DatasetDesc::sized(DatasetId(0), 10)];
        let chunks = vec![vec![ChunkDesc {
            id: ChunkId::new(DatasetId(0), 5),
            bytes: 10,
        }]];
        Catalog::from_chunks(datasets, chunks);
    }

    #[test]
    fn chunk_ids_are_dense_and_ordered() {
        let policy = DecompositionPolicy::MaxChunkSize { max_bytes: 100 };
        let d = DatasetDesc::sized(DatasetId(7), 950);
        let chunks = policy.decompose(&d);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id, ChunkId::new(DatasetId(7), i as u32));
        }
    }
}
