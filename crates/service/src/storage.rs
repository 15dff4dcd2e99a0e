//! The chunk store: datasets bricked into per-chunk files on disk, read by
//! rendering nodes on cache misses. An optional bandwidth throttle lets
//! small test volumes exhibit the I/O-dominates-rendering regime of Fig. 2
//! without gigabytes of disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use vizsched_core::data::{Catalog, DatasetDesc};
use vizsched_core::ids::{ChunkId, DatasetId};
use vizsched_volume::brick::Brick;
use vizsched_volume::synth::Field;
use vizsched_volume::{split_z, Volume};

/// Description of one dataset to materialize in the store.
#[derive(Clone, Debug)]
pub struct StoreDataset {
    /// The synthetic field to sample.
    pub field: Field,
    /// Grid resolution.
    pub dims: [usize; 3],
    /// Number of z-slab bricks (= chunks).
    pub bricks: usize,
}

/// A directory of brick files plus the catalog describing them.
pub struct ChunkStore {
    root: PathBuf,
    catalog: Catalog,
    brick_meta: HashMap<ChunkId, BrickMeta>,
    /// Simulated read bandwidth in bytes/s; `None` reads at disk speed.
    throttle: Option<u64>,
    /// Serializes throttled reads (one disk arm), matching the
    /// one-load-at-a-time behaviour of the simulator's per-node disk.
    gate: Mutex<()>,
}

#[derive(Clone, Debug)]
struct BrickMeta {
    path: PathBuf,
    dims: [usize; 3],
    offset: [usize; 3],
    core_dims: [usize; 3],
    ghost_lo: [usize; 3],
    ghost_hi: [usize; 3],
    index: usize,
}

impl ChunkStore {
    /// Generate `datasets` under `root` (one file per brick) and return the
    /// store. Existing files are overwritten.
    pub fn create(root: &Path, datasets: &[StoreDataset]) -> std::io::Result<ChunkStore> {
        assert!(!datasets.is_empty(), "store needs at least one dataset");
        std::fs::create_dir_all(root)?;
        let mut descs = Vec::with_capacity(datasets.len());
        let mut brick_meta = HashMap::new();
        let mut chunk_lists: Vec<Vec<vizsched_core::data::ChunkDesc>> = Vec::new();
        for (d, spec) in datasets.iter().enumerate() {
            let id = DatasetId(d as u32);
            let volume: Volume<f32> = spec.field.sample(spec.dims);
            let bricks = split_z(&volume, spec.bricks);
            let mut total_bytes = 0u64;
            let mut chunk_list = Vec::with_capacity(bricks.len());
            for brick in &bricks {
                let path = root.join(format!("d{d}-c{}.vz", brick.index));
                vizsched_volume::io::write_f32(&path, &brick.volume)?;
                total_bytes += brick.volume.byte_len() as u64;
                chunk_list.push(vizsched_core::data::ChunkDesc {
                    id: ChunkId::new(id, brick.index as u32),
                    bytes: brick.volume.byte_len() as u64,
                });
                brick_meta.insert(
                    ChunkId::new(id, brick.index as u32),
                    BrickMeta {
                        path,
                        dims: brick.volume.dims,
                        offset: brick.offset,
                        core_dims: brick.core_dims,
                        ghost_lo: brick.ghost_lo,
                        ghost_hi: brick.ghost_hi,
                        index: brick.index,
                    },
                );
            }
            descs.push(DatasetDesc {
                id,
                name: format!("{}-{}", spec.field.name(), d),
                bytes: total_bytes,
                dims: Some([
                    spec.dims[0] as u32,
                    spec.dims[1] as u32,
                    spec.dims[2] as u32,
                ]),
            });
            chunk_lists.push(chunk_list);
        }
        // The catalog mirrors the *physical* bricking exactly — per-brick
        // byte sizes and per-dataset brick counts.
        let catalog = Catalog::from_chunks(descs, chunk_lists);
        Ok(ChunkStore {
            root: root.to_path_buf(),
            catalog,
            brick_meta,
            throttle: None,
            gate: Mutex::new(()),
        })
    }

    /// Directory holding the brick files.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The catalog describing the stored datasets.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Limit effective read bandwidth (bytes/s) to model slow storage.
    pub fn set_throttle(&mut self, bytes_per_sec: Option<u64>) {
        self.throttle = bytes_per_sec;
    }

    /// Read one brick from disk, sleeping to honour the throttle. Returns
    /// the brick and the measured wall-clock read time.
    pub fn load(&self, chunk: ChunkId) -> std::io::Result<(Arc<Brick<f32>>, Duration)> {
        let meta = self.brick_meta.get(&chunk).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, format!("no chunk {chunk}"))
        })?;
        let start = Instant::now();
        let volume = vizsched_volume::io::read_f32(&meta.path)?;
        if volume.dims != meta.dims {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "chunk {chunk}: brick file dims changed on disk ({:?}, expected {:?})",
                    volume.dims, meta.dims
                ),
            ));
        }
        if let Some(bw) = self.throttle {
            let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
            let want = Duration::from_secs_f64(volume.byte_len() as f64 / bw as f64);
            let elapsed = start.elapsed();
            if want > elapsed {
                std::thread::sleep(want - elapsed);
            }
        }
        let brick = Brick {
            index: meta.index,
            offset: meta.offset,
            core_dims: meta.core_dims,
            ghost_lo: meta.ghost_lo,
            ghost_hi: meta.ghost_hi,
            volume,
            minmax: Default::default(),
        };
        Ok((Arc::new(brick), start.elapsed()))
    }

    /// Byte size of one chunk.
    pub fn chunk_bytes(&self, chunk: ChunkId) -> u64 {
        self.catalog.chunk_bytes(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vizsched-store-{tag}-{}", std::process::id()))
    }

    fn small_store(tag: &str) -> ChunkStore {
        let root = temp_root(tag);
        ChunkStore::create(
            &root,
            &[
                StoreDataset {
                    field: Field::Shells,
                    dims: [16, 16, 32],
                    bricks: 4,
                },
                StoreDataset {
                    field: Field::Plume,
                    dims: [16, 16, 32],
                    bricks: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn create_writes_all_bricks() {
        let store = small_store("create");
        assert_eq!(store.catalog().datasets().len(), 2);
        for d in 0..2u32 {
            for c in 0..4u32 {
                let (brick, _) = store.load(ChunkId::new(DatasetId(d), c)).unwrap();
                assert_eq!(brick.index, c as usize);
                assert!(!brick.volume.is_empty());
            }
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn missing_chunk_errors() {
        let store = small_store("missing");
        assert!(store.load(ChunkId::new(DatasetId(9), 0)).is_err());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn rewritten_brick_errors() {
        let store = small_store("rewritten");
        let chunk = ChunkId::new(DatasetId(1), 2);
        let path = store.root().join("d1-c2.vz");
        let other: Volume<f32> = Field::Plume.sample([8, 8, 8]);
        vizsched_volume::io::write_f32(&path, &other).unwrap();
        let Err(err) = store.load(chunk) else {
            panic!("dims changed on disk, yet the brick loaded")
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn throttle_slows_reads() {
        let mut store = small_store("throttle");
        let chunk = ChunkId::new(DatasetId(0), 0);
        let (_, fast) = store.load(chunk).unwrap();
        // Brick ~16*16*9*4 bytes ≈ 9 KiB; throttle to 64 KiB/s -> ≈ 140 ms.
        store.set_throttle(Some(64 * 1024));
        let (_, slow) = store.load(chunk).unwrap();
        assert!(slow > fast, "throttled read should be slower");
        assert!(slow.as_millis() >= 100, "throttled read took {slow:?}");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn loaded_bricks_reconstruct_the_field() {
        let store = small_store("recon");
        let (brick, _) = store.load(ChunkId::new(DatasetId(0), 1)).unwrap();
        // Sampling inside the brick core matches the analytic field
        // sampled at the full volume's resolution.
        let full: Volume<f32> = Field::Shells.sample([16, 16, 32]);
        let (lo, hi) = brick.core_bounds();
        let z = (lo[2] + hi[2]) as f32 / 2.0;
        let got = brick.sample_global(8.0, 8.0, z);
        let want = full.sample(8.0, 8.0, z);
        assert!((got - want).abs() < 1e-6);
        std::fs::remove_dir_all(store.root()).ok();
    }
}
