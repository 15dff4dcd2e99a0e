//! Consistent-hash routing tier for sharded multi-head scheduling.
//!
//! One head node's Algorithm 1 cycle loop is the hard ceiling on users
//! and cluster size. This crate supplies the two pieces that break it:
//!
//! * [`HashRing`] — a consistent-hash ring over packed [`ChunkId`] keys
//!   (virtual points per shard, deterministic seed). Jobs route by the
//!   owner of their dataset's *first* chunk, so every job of a dataset
//!   lands on the same shard and the shard's `Cache[c]` table keeps
//!   seeing the full chunk set — locality survives the routing hop.
//!   Adding or removing a shard remaps only the keys the changed shard
//!   owns (the classic minimal-disruption property).
//! * [`ShardMap`] — a topology-aware partition of the physical nodes
//!   into shards. Nodes are grouped into fixed-size *leaf groups*
//!   (leaf/spine-style: a leaf switch connects a few nodes, leaves meet
//!   at a spine), and a shard is a run of whole leaves, so intra-shard
//!   compositing traffic stays under as few switches as possible and a
//!   shard never straddles a leaf.
//!
//! The sharded runtime composes both: the ring decides *which* shard a
//! job belongs to, the map decides *which physical nodes* that shard's
//! cycle loop may dispatch to, naming a shard's local node indices by
//! their cluster-global [`NodeId`]s.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use vizsched_core::ids::{ChunkId, DatasetId, NodeId, ShardId};
use vizsched_core::rng::SplitMix64;

/// Default number of virtual points each shard contributes to the ring.
///
/// 64 points keeps the ring a few cache lines per shard while bounding
/// the expected per-shard load imbalance to a few tens of percent — the
/// balance property test pins the actual bound.
pub const DEFAULT_REPLICAS: usize = 64;

/// Default leaf-group width for [`ShardMap::leaf_spine`].
///
/// Matches the reference topology this design borrows (a 128-node
/// cluster wired as 32 leaf switches of 4 nodes under one spine).
pub const DEFAULT_LEAF: usize = 4;

/// The first output of a SplitMix64 stream at state `z`: a cheap,
/// statistically solid 64-bit hash. Used for both key hashing and
/// virtual-point placement so the ring is fully deterministic from
/// `(seed, shards, replicas)`.
#[inline]
fn mix64(z: u64) -> u64 {
    SplitMix64::from_state(z).next_u64()
}

/// A consistent-hash ring mapping packed chunk keys onto shards.
///
/// Each shard owns [`replicas`](HashRing::replicas) pseudo-random points
/// on a `u64` circle; a key belongs to the shard owning the first point
/// clockwise of the key's hash. The ring is deterministic: the same
/// `(seed, shard set, replicas)` always yields the same placement, on
/// every substrate — the parity argument for sharded runs rests on this.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Virtual points, sorted by position. Position collisions resolve
    /// by shard id so insertion order can never matter.
    points: Vec<(u64, ShardId)>,
    shards: Vec<ShardId>,
    replicas: usize,
    seed: u64,
}

impl HashRing {
    /// An empty ring with the given virtual-point count and hash seed.
    pub fn new(replicas: usize, seed: u64) -> Self {
        assert!(replicas > 0, "a shard must contribute at least one point");
        HashRing {
            points: Vec::new(),
            shards: Vec::new(),
            replicas,
            seed,
        }
    }

    /// A ring pre-populated with shards `S0..Sn`, default replicas, seed 0.
    pub fn with_shards(n: usize) -> Self {
        let mut ring = HashRing::new(DEFAULT_REPLICAS, 0);
        for s in 0..n {
            ring.add_shard(ShardId(s as u32));
        }
        ring
    }

    /// Virtual points contributed per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Shards currently on the ring, in insertion order.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Position of virtual point `r` of `shard`.
    #[inline]
    fn point(&self, shard: ShardId, r: usize) -> u64 {
        mix64(self.seed ^ mix64(((shard.0 as u64) << 32) | r as u64))
    }

    /// Add a shard: inserts its virtual points. Only keys that now hash
    /// to one of the new points move — everything else keeps its owner.
    ///
    /// # Panics
    /// If the shard is already on the ring.
    pub fn add_shard(&mut self, shard: ShardId) {
        assert!(
            !self.shards.contains(&shard),
            "shard {shard} already on the ring"
        );
        self.shards.push(shard);
        for r in 0..self.replicas {
            let pos = self.point(shard, r);
            let at = self
                .points
                .binary_search(&(pos, shard))
                .unwrap_or_else(|i| i);
            self.points.insert(at, (pos, shard));
        }
    }

    /// Remove a shard: deletes its virtual points, so only the keys it
    /// owned remap (to each arc's clockwise successor).
    ///
    /// # Panics
    /// If the shard is not on the ring.
    pub fn remove_shard(&mut self, shard: ShardId) {
        let at = self
            .shards
            .iter()
            .position(|&s| s == shard)
            .unwrap_or_else(|| panic!("shard {shard} not on the ring"));
        self.shards.remove(at);
        self.points.retain(|&(_, s)| s != shard);
    }

    /// The shard owning a raw `u64` key.
    ///
    /// # Panics
    /// If the ring is empty.
    pub fn shard_for(&self, key: u64) -> ShardId {
        assert!(!self.points.is_empty(), "routing over an empty ring");
        let h = mix64(key ^ self.seed.rotate_left(32));
        // First point at or after the key's hash, wrapping at the top.
        let at = self.points.partition_point(|&(pos, _)| pos < h);
        let at = if at == self.points.len() { 0 } else { at };
        self.points[at].1
    }

    /// The shard owning a chunk.
    pub fn shard_for_chunk(&self, chunk: ChunkId) -> ShardId {
        self.shard_for(chunk.as_u64())
    }

    /// The shard a dataset's jobs route to: the owner of the dataset's
    /// first chunk. Keying the whole dataset by one chunk keeps every
    /// job of the dataset — and therefore every chunk the shard caches
    /// for it — on a single shard, preserving `Cache[c]` locality.
    pub fn shard_for_dataset(&self, dataset: DatasetId) -> ShardId {
        self.shard_for_chunk(ChunkId::new(dataset, 0))
    }
}

/// One shard's slice of the physical cluster: a contiguous run of nodes
/// `[base, base + nodes)` in global numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardNodes {
    /// The shard.
    pub shard: ShardId,
    /// First global node index owned by this shard.
    pub base: u32,
    /// Number of nodes in the shard.
    pub nodes: u32,
}

/// A topology-aware partition of `p` nodes into shards.
///
/// Nodes are read as leaf groups of [`leaf`](ShardMap::leaf) consecutive
/// nodes (the nodes under one leaf switch); shards are runs of *whole*
/// leaves, as equal in node count as leaf granularity allows. Earlier
/// shards absorb any remainder leaf, so shard sizes differ by at most
/// one leaf.
#[derive(Clone, Debug)]
pub struct ShardMap {
    spans: Vec<ShardNodes>,
    leaf: usize,
    total: usize,
}

impl ShardMap {
    /// Partition `nodes` nodes into `shards` shards along leaf-group
    /// boundaries of width `leaf`.
    ///
    /// # Panics
    /// If `shards == 0`, `leaf == 0`, or there are fewer leaves than
    /// shards (a shard must own at least one whole leaf).
    pub fn leaf_spine(nodes: usize, shards: usize, leaf: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(leaf > 0, "leaf groups must be non-empty");
        // A trailing partial leaf (cluster size not a multiple of the
        // leaf width) is one more leaf to hand out.
        let leaves = nodes.div_ceil(leaf);
        assert!(
            leaves >= shards,
            "fewer leaves ({leaves}) than shards ({shards}): shrink the leaf width"
        );
        let per = leaves / shards;
        let extra = leaves % shards;
        let mut spans = Vec::with_capacity(shards);
        let mut next_leaf = 0usize;
        for s in 0..shards {
            let take = per + usize::from(s < extra);
            let base = next_leaf * leaf;
            next_leaf += take;
            let end = (next_leaf * leaf).min(nodes);
            spans.push(ShardNodes {
                shard: ShardId(s as u32),
                base: base as u32,
                nodes: (end - base) as u32,
            });
        }
        ShardMap {
            spans,
            leaf,
            total: nodes,
        }
    }

    /// Partition with the default leaf width ([`DEFAULT_LEAF`]), falling
    /// back to single-node leaves when the cluster is too small for the
    /// default (so tiny parity clusters still shard).
    pub fn new(nodes: usize, shards: usize) -> Self {
        let leaf = if nodes >= shards * DEFAULT_LEAF {
            DEFAULT_LEAF
        } else {
            1
        };
        ShardMap::leaf_spine(nodes, shards, leaf)
    }

    /// Leaf-group width the partition was built with.
    pub fn leaf(&self) -> usize {
        self.leaf
    }

    /// Total nodes across all shards.
    pub fn total_nodes(&self) -> usize {
        self.total
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the map has no shards (never true for a constructed map).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-shard spans, in shard order.
    pub fn spans(&self) -> &[ShardNodes] {
        &self.spans
    }

    /// The span of one shard.
    ///
    /// # Panics
    /// If the shard is out of range.
    pub fn span(&self, shard: ShardId) -> ShardNodes {
        self.spans[shard.index()]
    }

    /// The shard owning a global node.
    ///
    /// # Panics
    /// If the node is out of range.
    pub fn shard_of_node(&self, node: NodeId) -> ShardId {
        assert!((node.index()) < self.total, "node {node} out of range");
        // Spans are contiguous and sorted by base.
        let at = self
            .spans
            .partition_point(|s| (s.base as usize) <= node.index());
        self.spans[at - 1].shard
    }

    /// Translate a shard-local node index to the global [`NodeId`].
    ///
    /// # Panics
    /// If the local index is outside the shard.
    pub fn global(&self, shard: ShardId, local: NodeId) -> NodeId {
        let span = self.span(shard);
        assert!(local.0 < span.nodes, "local node {local} outside {shard}");
        NodeId(span.base + local.0)
    }

    /// Translate a global node to `(shard, local index)`.
    ///
    /// # Panics
    /// If the node is out of range.
    pub fn local(&self, node: NodeId) -> (ShardId, NodeId) {
        let shard = self.shard_of_node(node);
        let span = self.span(shard);
        (shard, NodeId(node.0 - span.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_consistently() {
        let ring = HashRing::with_shards(4);
        for key in 0..1000u64 {
            assert_eq!(ring.shard_for(key), ring.shard_for(key));
        }
    }

    #[test]
    fn dataset_routing_keys_on_first_chunk() {
        let ring = HashRing::with_shards(8);
        for d in 0..100u32 {
            assert_eq!(
                ring.shard_for_dataset(DatasetId(d)),
                ring.shard_for_chunk(ChunkId::new(DatasetId(d), 0))
            );
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::with_shards(1);
        for key in 0..100u64 {
            assert_eq!(ring.shard_for(key), ShardId(0));
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let mut ring = HashRing::with_shards(5);
        let before: Vec<ShardId> = (0..10_000).map(|k| ring.shard_for(k)).collect();
        ring.remove_shard(ShardId(2));
        for (k, &owner) in before.iter().enumerate() {
            if owner != ShardId(2) {
                assert_eq!(ring.shard_for(k as u64), owner, "key {k} moved needlessly");
            } else {
                assert_ne!(ring.shard_for(k as u64), ShardId(2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn duplicate_shard_panics() {
        let mut ring = HashRing::with_shards(2);
        ring.add_shard(ShardId(1));
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics_on_route() {
        HashRing::new(8, 0).shard_for(1);
    }

    #[test]
    fn map_partitions_exactly_and_roundtrips() {
        for (nodes, shards) in [(128usize, 16usize), (1024, 16), (64, 4), (4, 4), (10, 3)] {
            let map = ShardMap::new(nodes, shards);
            assert_eq!(map.len(), shards);
            let covered: usize = map.spans().iter().map(|s| s.nodes as usize).sum();
            assert_eq!(covered, nodes, "{nodes}x{shards}: nodes lost or doubled");
            for n in 0..nodes {
                let (shard, local) = map.local(NodeId(n as u32));
                assert_eq!(map.global(shard, local), NodeId(n as u32));
            }
        }
    }

    #[test]
    fn map_respects_leaf_boundaries() {
        let map = ShardMap::leaf_spine(128, 16, DEFAULT_LEAF);
        for span in map.spans() {
            assert_eq!(
                span.base as usize % DEFAULT_LEAF,
                0,
                "{}: shard straddles a leaf switch",
                span.shard
            );
            assert_eq!(span.nodes, 8, "128/16 with whole leaves is 2 leaves each");
        }
    }

    #[test]
    fn map_sizes_differ_by_at_most_one_leaf() {
        let map = ShardMap::leaf_spine(1000, 16, 4);
        let min = map.spans().iter().map(|s| s.nodes).min().unwrap();
        let max = map.spans().iter().map(|s| s.nodes).max().unwrap();
        assert!(max - min <= 4, "imbalance {max}-{min} exceeds one leaf");
    }

    #[test]
    #[should_panic(expected = "fewer leaves")]
    fn too_few_leaves_panics() {
        ShardMap::leaf_spine(8, 4, 4);
    }
}
