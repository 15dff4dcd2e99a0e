//! Per-node main-memory chunk cache with quota-driven eviction (§V-B).
//!
//! Every rendering node has a system memory limit; when a new chunk must be
//! loaded and the limit is reached, the least recently used cached chunks
//! are released. The same structure backs both the head node's *prediction*
//! of node contents (the `Cache` table) and the simulator's authoritative
//! node state. FIFO and random eviction are provided for the ablation study
//! of the eviction policy.

use crate::fxhash::FxHashMap;
use crate::ids::ChunkId;
use crate::rng::SplitMix64;
use std::collections::BTreeMap;

/// Which cached chunk to evict when the quota is exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least recently *used* (touched on every cache hit). The paper's choice.
    Lru,
    /// Least recently *loaded* (hits do not refresh).
    Fifo,
    /// Uniform random victim, seeded for reproducibility.
    Random {
        /// RNG seed so simulations stay deterministic.
        seed: u64,
    },
}

#[derive(Clone, Debug)]
struct Entry {
    bytes: u64,
    /// Recency stamp: key into `order`.
    stamp: u64,
}

/// A bounded chunk cache.
///
/// All operations are `O(log n)` in the number of resident chunks; with the
/// paper's configurations a node holds at most a few dozen chunks.
///
/// ```
/// use vizsched_core::memory::NodeMemory;
/// use vizsched_core::ids::{ChunkId, DatasetId};
///
/// let chunk = |i| ChunkId::new(DatasetId(0), i);
/// let mut mem = NodeMemory::new(100);
/// mem.load(chunk(0), 60);
/// mem.load(chunk(1), 40);
/// mem.touch(chunk(0));                      // chunk 1 becomes the LRU
/// let evicted = mem.load(chunk(2), 40);
/// assert_eq!(evicted, vec![chunk(1)]);
/// assert!(mem.contains(chunk(0)));
/// ```
#[derive(Clone, Debug)]
pub struct NodeMemory {
    quota: u64,
    used: u64,
    policy: EvictionPolicy,
    entries: FxHashMap<ChunkId, Entry>,
    /// Recency order: stamp -> chunk. Lowest stamp is the LRU victim.
    order: BTreeMap<u64, ChunkId>,
    next_stamp: u64,
    rng: SplitMix64,
    loads: u64,
    evictions: u64,
}

impl NodeMemory {
    /// A cache holding at most `quota` bytes, with LRU eviction.
    pub fn new(quota: u64) -> Self {
        Self::with_policy(quota, EvictionPolicy::Lru)
    }

    /// A cache with an explicit eviction policy.
    pub fn with_policy(quota: u64, policy: EvictionPolicy) -> Self {
        let seed = match policy {
            EvictionPolicy::Random { seed } => seed,
            _ => 0,
        };
        NodeMemory {
            quota,
            used: 0,
            policy,
            entries: FxHashMap::default(),
            order: BTreeMap::new(),
            next_stamp: 0,
            rng: SplitMix64::seeded_mixed(seed),
            loads: 0,
            evictions: 0,
        }
    }

    /// The byte quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `chunk` is resident.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.entries.contains_key(&chunk)
    }

    /// Iterate over resident chunks in unspecified order.
    pub fn chunks(&self) -> impl Iterator<Item = ChunkId> + '_ {
        self.entries.keys().copied()
    }

    /// Total chunk loads performed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Mark a cache hit: refreshes recency under LRU (no-op for FIFO/random).
    pub fn touch(&mut self, chunk: ChunkId) {
        if self.policy != EvictionPolicy::Lru {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&chunk) {
            self.order.remove(&entry.stamp);
            entry.stamp = self.next_stamp;
            self.order.insert(self.next_stamp, chunk);
            self.next_stamp += 1;
        }
    }

    /// Load `chunk` of `bytes`, evicting victims as needed to respect the
    /// quota. Returns the evicted chunks (empty if none). Loading a chunk
    /// larger than the quota itself evicts everything and holds the
    /// oversized chunk alone — the node cannot render without it.
    ///
    /// Loading an already-resident chunk is a logic error upstream and
    /// panics in debug builds; callers check [`NodeMemory::contains`] first.
    pub fn load(&mut self, chunk: ChunkId, bytes: u64) -> Vec<ChunkId> {
        debug_assert!(!self.contains(chunk), "chunk {chunk} loaded twice");
        self.loads += 1;
        let mut evicted = Vec::new();
        while self.used + bytes > self.quota && !self.entries.is_empty() {
            let victim = self.pick_victim();
            self.remove(victim);
            evicted.push(victim);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(chunk, Entry { bytes, stamp });
        self.order.insert(stamp, chunk);
        self.used += bytes;
        self.evictions += evicted.len() as u64;
        evicted
    }

    /// Force-remove a chunk (used when reconciling the head node's
    /// prediction with a node's actual eviction). Returns true if it was
    /// resident.
    pub fn remove(&mut self, chunk: ChunkId) -> bool {
        if let Some(entry) = self.entries.remove(&chunk) {
            self.order.remove(&entry.stamp);
            self.used -= entry.bytes;
            true
        } else {
            false
        }
    }

    /// Insert without evicting (reconciliation path: the authoritative node
    /// already made room, so the mirror must reflect it even if its own
    /// book-keeping would have chosen different victims).
    pub fn force_insert(&mut self, chunk: ChunkId, bytes: u64) {
        if self.contains(chunk) {
            self.touch(chunk);
            return;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(chunk, Entry { bytes, stamp });
        self.order.insert(stamp, chunk);
        self.used += bytes;
    }

    fn pick_victim(&mut self) -> ChunkId {
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                // FIFO differs from LRU only in that `touch` never refreshes
                // stamps, so the oldest stamp is the oldest load.
                *self.order.values().next().expect("non-empty cache")
            }
            EvictionPolicy::Random { .. } => {
                let idx = self.rng.below(self.order.len() as u64) as usize;
                *self.order.values().nth(idx).expect("index in range")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DatasetId;

    fn chunk(i: u32) -> ChunkId {
        ChunkId::new(DatasetId(0), i)
    }

    #[test]
    fn loads_fit_within_quota() {
        let mut mem = NodeMemory::new(100);
        assert!(mem.load(chunk(0), 40).is_empty());
        assert!(mem.load(chunk(1), 40).is_empty());
        assert_eq!(mem.used(), 80);
        assert!(mem.contains(chunk(0)));
        assert!(mem.contains(chunk(1)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut mem = NodeMemory::new(100);
        mem.load(chunk(0), 40);
        mem.load(chunk(1), 40);
        mem.touch(chunk(0)); // 1 is now the LRU
        let evicted = mem.load(chunk(2), 40);
        assert_eq!(evicted, vec![chunk(1)]);
        assert!(mem.contains(chunk(0)));
        assert!(mem.contains(chunk(2)));
        assert_eq!(mem.evictions(), 1);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut mem = NodeMemory::with_policy(100, EvictionPolicy::Fifo);
        mem.load(chunk(0), 40);
        mem.load(chunk(1), 40);
        mem.touch(chunk(0)); // no effect under FIFO
        let evicted = mem.load(chunk(2), 40);
        assert_eq!(evicted, vec![chunk(0)]);
    }

    #[test]
    fn eviction_frees_enough_space() {
        let mut mem = NodeMemory::new(100);
        mem.load(chunk(0), 30);
        mem.load(chunk(1), 30);
        mem.load(chunk(2), 30);
        // Loading 80 must evict until 80 fits: all three victims go.
        let evicted = mem.load(chunk(3), 80);
        assert_eq!(evicted.len(), 3);
        assert_eq!(mem.used(), 80);
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn oversized_chunk_occupies_alone() {
        let mut mem = NodeMemory::new(100);
        mem.load(chunk(0), 50);
        let evicted = mem.load(chunk(1), 150);
        assert_eq!(evicted, vec![chunk(0)]);
        assert_eq!(mem.used(), 150); // over quota but resident: must render
        assert!(mem.contains(chunk(1)));
    }

    #[test]
    fn remove_frees_bytes() {
        let mut mem = NodeMemory::new(100);
        mem.load(chunk(0), 60);
        assert!(mem.remove(chunk(0)));
        assert!(!mem.remove(chunk(0)));
        assert_eq!(mem.used(), 0);
        assert!(mem.is_empty());
    }

    #[test]
    fn force_insert_can_exceed_quota() {
        let mut mem = NodeMemory::new(100);
        mem.load(chunk(0), 90);
        mem.force_insert(chunk(1), 90);
        assert_eq!(mem.used(), 180);
        assert_eq!(mem.len(), 2);
        // Re-inserting is a touch, not a double count.
        mem.force_insert(chunk(1), 90);
        assert_eq!(mem.used(), 180);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut mem = NodeMemory::with_policy(100, EvictionPolicy::Random { seed });
            mem.load(chunk(0), 40);
            mem.load(chunk(1), 40);
            mem.load(chunk(2), 40)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn stats_accumulate() {
        let mut mem = NodeMemory::new(50);
        mem.load(chunk(0), 50);
        mem.load(chunk(1), 50);
        mem.load(chunk(2), 50);
        assert_eq!(mem.loads(), 3);
        assert_eq!(mem.evictions(), 2);
    }
}
