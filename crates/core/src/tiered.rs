//! Two-tier chunk storage: main memory *and* GPU video memory (§VII's
//! future work: "minimize the data transfer between main memory and video
//! memory").
//!
//! Rendering requires the chunk in video memory. The tiers are inclusive —
//! a GPU-resident chunk is also host-resident — so an access lands in one
//! of three states:
//!
//! * **GPU hit** — render immediately;
//! * **host hit** — pay the PCIe upload before rendering;
//! * **miss** — pay disk I/O into main memory plus the upload.
//!
//! Each tier runs its own LRU under its own quota; evicting from the GPU
//! keeps the host copy, evicting from the host drops the GPU copy too
//! (inclusivity).

use crate::ids::ChunkId;
use crate::memory::{EvictionPolicy, NodeMemory};

/// Where an accessed chunk was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Resident in video memory: zero data movement.
    Gpu,
    /// Resident in main memory only: upload required.
    Host,
    /// Not resident anywhere: disk I/O plus upload required.
    Disk,
}

/// The outcome of touching a chunk for rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierAccess {
    /// Where the chunk was found before the access.
    pub found: Tier,
    /// Chunks dropped from main memory (and implicitly from the GPU).
    pub host_evicted: Vec<ChunkId>,
    /// Chunks dropped from video memory only (host copies retained).
    pub gpu_evicted: Vec<ChunkId>,
}

/// A node's two-tier chunk cache.
///
/// ```
/// use vizsched_core::tiered::{Tier, TieredMemory};
/// use vizsched_core::memory::EvictionPolicy;
/// use vizsched_core::ids::{ChunkId, DatasetId};
///
/// let chunk = ChunkId::new(DatasetId(0), 0);
/// let mut mem = TieredMemory::two_tier(1 << 30, 512 << 20, EvictionPolicy::Lru);
/// assert_eq!(mem.access(chunk, 256 << 20).found, Tier::Disk); // cold
/// assert_eq!(mem.access(chunk, 256 << 20).found, Tier::Gpu);  // now resident
/// ```
#[derive(Clone, Debug)]
pub struct TieredMemory {
    host: NodeMemory,
    /// `None` disables the GPU tier entirely (the base model of §V, where
    /// video memory is folded into the render constant).
    gpu: Option<NodeMemory>,
}

impl TieredMemory {
    /// Host-only cache (the paper's base model).
    pub fn host_only(host_quota: u64, eviction: EvictionPolicy) -> Self {
        TieredMemory {
            host: NodeMemory::with_policy(host_quota, eviction),
            gpu: None,
        }
    }

    /// Two tiers: `host_quota` bytes of main memory, `gpu_quota` bytes of
    /// video memory.
    pub fn two_tier(host_quota: u64, gpu_quota: u64, eviction: EvictionPolicy) -> Self {
        assert!(
            gpu_quota <= host_quota,
            "inclusive tiers require gpu quota <= host quota"
        );
        TieredMemory {
            host: NodeMemory::with_policy(host_quota, eviction),
            gpu: Some(NodeMemory::with_policy(gpu_quota, eviction)),
        }
    }

    /// Is the GPU tier modelled?
    pub fn has_gpu_tier(&self) -> bool {
        self.gpu.is_some()
    }

    /// The host-tier cache (the view the head node's `Cache` table mirrors).
    pub fn host(&self) -> &NodeMemory {
        &self.host
    }

    /// The GPU-tier cache, when modelled.
    pub fn gpu(&self) -> Option<&NodeMemory> {
        self.gpu.as_ref()
    }

    /// True if rendering `chunk` needs no data movement at all.
    pub fn gpu_resident(&self, chunk: ChunkId) -> bool {
        match &self.gpu {
            Some(gpu) => gpu.contains(chunk),
            // Without a GPU tier, host residency is render-ready.
            None => self.host.contains(chunk),
        }
    }

    /// True if `chunk` is in main memory.
    pub fn host_resident(&self, chunk: ChunkId) -> bool {
        self.host.contains(chunk)
    }

    /// Access `chunk` for rendering, loading through the tiers as needed.
    pub fn access(&mut self, chunk: ChunkId, bytes: u64) -> TierAccess {
        let found = if self.gpu_resident(chunk) {
            Tier::Gpu
        } else if self.host_resident(chunk) {
            Tier::Host
        } else {
            Tier::Disk
        };

        let mut host_evicted = Vec::new();
        let mut gpu_evicted = Vec::new();

        match found {
            Tier::Gpu => {
                self.host.touch(chunk);
                if let Some(gpu) = &mut self.gpu {
                    gpu.touch(chunk);
                }
            }
            Tier::Host => {
                self.host.touch(chunk);
                if let Some(gpu) = &mut self.gpu {
                    gpu_evicted = gpu.load(chunk, bytes);
                }
            }
            Tier::Disk => {
                host_evicted = self.host.load(chunk, bytes);
                if let Some(gpu) = &mut self.gpu {
                    // Inclusivity: anything dropped from the host leaves
                    // the GPU as well.
                    for victim in &host_evicted {
                        gpu.remove(*victim);
                    }
                    gpu_evicted = gpu.load(chunk, bytes);
                    gpu_evicted.retain(|c| !host_evicted.contains(c));
                }
            }
        }
        TierAccess {
            found,
            host_evicted,
            gpu_evicted,
        }
    }

    /// Drop everything (crash).
    pub fn clear(&mut self) {
        let host_quota = self.host.quota();
        let gpu = self.gpu.as_ref().map(|g| g.quota());
        self.host = NodeMemory::new(host_quota);
        self.gpu = gpu.map(NodeMemory::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DatasetId;

    fn chunk(i: u32) -> ChunkId {
        ChunkId::new(DatasetId(0), i)
    }

    fn two_tier() -> TieredMemory {
        // Host holds 4 chunks of 100, GPU holds 2.
        TieredMemory::two_tier(400, 200, EvictionPolicy::Lru)
    }

    #[test]
    fn first_access_is_a_disk_miss() {
        let mut m = two_tier();
        let a = m.access(chunk(0), 100);
        assert_eq!(a.found, Tier::Disk);
        assert!(m.gpu_resident(chunk(0)));
        assert!(m.host_resident(chunk(0)));
    }

    #[test]
    fn second_access_is_a_gpu_hit() {
        let mut m = two_tier();
        m.access(chunk(0), 100);
        let a = m.access(chunk(0), 100);
        assert_eq!(a.found, Tier::Gpu);
        assert!(a.host_evicted.is_empty());
        assert!(a.gpu_evicted.is_empty());
    }

    #[test]
    fn gpu_eviction_keeps_host_copy() {
        let mut m = two_tier();
        m.access(chunk(0), 100);
        m.access(chunk(1), 100);
        // Third chunk exceeds the 2-chunk GPU tier; chunk 0 falls off the
        // GPU but stays in host memory.
        let a = m.access(chunk(2), 100);
        assert_eq!(a.found, Tier::Disk);
        assert_eq!(a.gpu_evicted, vec![chunk(0)]);
        assert!(a.host_evicted.is_empty());
        assert!(!m.gpu_resident(chunk(0)));
        assert!(m.host_resident(chunk(0)));
        // Re-access of chunk 0: a host hit needing only an upload.
        let b = m.access(chunk(0), 100);
        assert_eq!(b.found, Tier::Host);
    }

    #[test]
    fn host_eviction_is_inclusive() {
        let mut m = two_tier();
        for i in 0..4 {
            m.access(chunk(i), 100);
        }
        // GPU now holds {2, 3}; host holds {0,1,2,3}. A fifth chunk evicts
        // host-LRU chunk 0 (not on GPU) — no GPU inconsistency.
        let a = m.access(chunk(4), 100);
        assert_eq!(a.found, Tier::Disk);
        assert_eq!(a.host_evicted, vec![chunk(0)]);
        assert!(!m.host_resident(chunk(0)));
        // GPU evicted its own LRU (chunk 2); chunk 3 remains on both.
        assert!(m.gpu_resident(chunk(4)));
        assert!(m.host_resident(chunk(3)));
    }

    #[test]
    fn host_only_mode_treats_host_hits_as_render_ready() {
        let mut m = TieredMemory::host_only(400, EvictionPolicy::Lru);
        assert!(!m.has_gpu_tier());
        m.access(chunk(0), 100);
        let a = m.access(chunk(0), 100);
        assert_eq!(
            a.found,
            Tier::Gpu,
            "host hit counts as render-ready without a GPU tier"
        );
    }

    #[test]
    fn clear_empties_both_tiers() {
        let mut m = two_tier();
        m.access(chunk(0), 100);
        m.clear();
        assert!(!m.host_resident(chunk(0)));
        assert!(!m.gpu_resident(chunk(0)));
        assert_eq!(m.host().used(), 0);
    }

    #[test]
    #[should_panic(expected = "inclusive tiers")]
    fn gpu_larger_than_host_rejected() {
        TieredMemory::two_tier(100, 200, EvictionPolicy::Lru);
    }

    #[test]
    fn gpu_inconsistency_never_arises() {
        // Stress: every GPU-resident chunk must always be host-resident.
        let mut m = TieredMemory::two_tier(300, 200, EvictionPolicy::Lru);
        for i in 0..50u32 {
            m.access(chunk(i % 7), 100);
            if let Some(gpu) = m.gpu() {
                for c in gpu.chunks() {
                    assert!(m.host().contains(c), "GPU chunk {c} missing from host");
                }
            }
        }
    }
}
