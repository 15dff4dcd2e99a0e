//! The three head-node tables of §V-A and their run-time correction (§V-B).
//!
//! * `Available[R_k]` — predicted time at which node `R_k` finishes its
//!   current and scheduled workload. Updated optimistically every time a
//!   task is scheduled; corrected when tasks complete and predictions
//!   diverge from reality.
//! * `Cache[c]` — the set of nodes predicted to hold chunk `c` in main
//!   memory, mirrored per node as an LRU under the node's quota. Updated
//!   during scheduling when a node is told to load a chunk (or predicted to
//!   evict one) and reconciled against the node's authoritative state when
//!   tasks complete.
//! * `Estimate[c]` — the latest measured I/O time for chunk `c`, initialized
//!   from the cost model (standing in for the paper's "test run") and
//!   refreshed with each observed load; likewise its latest measured render
//!   time `α`, refreshed with each completion on the live head.
//!
//! The tables additionally track, per node, the last time an interactive
//! task was assigned — the input to the idle-threshold test `ε` that gates
//! non-cached batch work in Algorithm 1.

use crate::cluster::ClusterSpec;
use crate::cost::CostParams;
use crate::data::Catalog;
use crate::fxhash::FxHashMap;
use crate::ids::{ChunkId, DatasetId, NodeId};
use crate::memory::{EvictionPolicy, NodeMemory};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `Available[R_k]`: per-node predicted available time.
#[derive(Clone, Debug)]
pub struct AvailableTable {
    times: Vec<SimTime>,
}

impl AvailableTable {
    fn new(p: usize) -> Self {
        AvailableTable {
            times: vec![SimTime::ZERO; p],
        }
    }

    /// Predicted available time of `node`.
    pub fn get(&self, node: NodeId) -> SimTime {
        self.times[node.index()]
    }

    /// Effective start time for work scheduled on `node` at `now`.
    pub fn ready_at(&self, node: NodeId, now: SimTime) -> SimTime {
        self.times[node.index()].max(now)
    }

    /// Push the node's availability forward by `exec` starting no earlier
    /// than `now`; returns the predicted task start time.
    pub fn push_work(&mut self, node: NodeId, now: SimTime, exec: SimDuration) -> SimTime {
        let start = self.ready_at(node, now);
        self.times[node.index()] = start + exec;
        start
    }

    /// Correction: replace the prediction with a recomputed value.
    pub fn correct(&mut self, node: NodeId, t: SimTime) {
        self.times[node.index()] = t;
    }

    /// Grow the table by one freshly adopted node, available at `t`.
    pub fn adopt(&mut self, t: SimTime) -> NodeId {
        self.times.push(t);
        NodeId((self.times.len() - 1) as u32)
    }

    /// Iterate `(node, available)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.times
            .iter()
            .enumerate()
            .map(|(i, &t)| (NodeId(i as u32), t))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always false for a valid cluster.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// An ordered (min-heap) view over `Available[R_k]` for one scheduling
/// invocation: the node minimizing `(ready_at, id)` in O(log p) amortized
/// instead of the O(p) scan [`AvailableTable`] alone requires.
///
/// The heap is *lazy*: committing work to a node pushes a fresh
/// `(ready_at, node)` entry without removing the old one, and stale entries
/// (whose recorded time no longer matches the table) are discarded when
/// they surface at the top. This is sound within one scheduler invocation
/// because `now` is fixed and [`AvailableTable::push_work`] only moves
/// availability forward — an entry that matches the table's current value
/// is by construction the newest one for its node.
///
/// Intended use: [`rebuild`](AvailHeap::rebuild) once at the top of
/// `schedule()` (O(p), reusing the allocation across invocations), then
/// alternate [`best`](AvailHeap::best) queries with
/// [`update`](AvailHeap::update) after each commit. The heap must be
/// rebuilt whenever the table is corrected outside the scheduler (task
/// completions, node faults) — i.e. every invocation.
#[derive(Clone, Debug, Default)]
pub struct AvailHeap {
    heap: BinaryHeap<Reverse<(SimTime, NodeId)>>,
    now: SimTime,
}

impl AvailHeap {
    /// An empty heap; [`rebuild`](AvailHeap::rebuild) before first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-key every live node at `now`. O(p) via bulk heapify; the backing
    /// allocation is reused across invocations.
    pub fn rebuild(&mut self, tables: &HeadTables, now: SimTime) {
        self.now = now;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(
            tables
                .live_nodes()
                .map(|k| Reverse((tables.available.ready_at(k, now), k))),
        );
        self.heap = BinaryHeap::from(entries);
    }

    /// Push `node`'s current availability after a commit moved it. The
    /// superseded entry stays behind and is lazily discarded by
    /// [`best`](AvailHeap::best).
    pub fn update(&mut self, tables: &HeadTables, node: NodeId) {
        self.heap
            .push(Reverse((tables.available.ready_at(node, self.now), node)));
    }

    /// The live node minimizing `(ready_at(node, now), node)`, together
    /// with that ready time. Amortized O(log p): stale entries are popped
    /// until the top matches the table.
    ///
    /// # Panics
    /// If every entry is stale or the heap is empty (no live nodes).
    pub fn best(&mut self, tables: &HeadTables) -> (SimTime, NodeId) {
        loop {
            let &Reverse((t, k)) = self.heap.peek().expect("at least one live node");
            if tables.is_live(k) && tables.available.ready_at(k, self.now) == t {
                return (t, k);
            }
            self.heap.pop();
        }
    }
}

/// `Cache[c]`: chunk-to-nodes map plus per-node LRU mirrors.
#[derive(Clone, Debug)]
pub struct CacheTable {
    /// For each chunk, the (sorted) nodes predicted to hold it.
    chunk_nodes: FxHashMap<ChunkId, Vec<NodeId>>,
    /// Per-node predicted memory contents.
    node_mem: Vec<NodeMemory>,
    /// The base eviction policy the mirrors were built with (per-node
    /// seed offsets are re-derived when a node is adopted).
    eviction: EvictionPolicy,
}

impl CacheTable {
    fn new(cluster: &ClusterSpec, eviction: EvictionPolicy) -> Self {
        let quotas: Vec<u64> = cluster.nodes.iter().map(|n| n.mem_quota).collect();
        Self::with_quotas(&quotas, eviction)
    }

    /// Build mirrors with explicit per-node quotas (used for the GPU-tier
    /// mirror of the two-tier extension).
    pub fn with_quotas(quotas: &[u64], eviction: EvictionPolicy) -> Self {
        let node_mem = quotas
            .iter()
            .enumerate()
            .map(|(k, &quota)| {
                let policy = match eviction {
                    // Distinct seeds per node keep random eviction
                    // decorrelated across nodes yet reproducible.
                    EvictionPolicy::Random { seed } => EvictionPolicy::Random {
                        seed: seed.wrapping_add(k as u64),
                    },
                    other => other,
                };
                NodeMemory::with_policy(quota, policy)
            })
            .collect();
        CacheTable {
            chunk_nodes: FxHashMap::default(),
            node_mem,
            eviction,
        }
    }

    /// Grow the table by one freshly adopted node with `quota` bytes of
    /// (empty) cache; returns the new node's id. Used by shard-head
    /// failover when a surviving head takes over a dead shard's node.
    pub fn adopt_node(&mut self, quota: u64) -> NodeId {
        let k = self.node_mem.len();
        let policy = match self.eviction {
            EvictionPolicy::Random { seed } => EvictionPolicy::Random {
                seed: seed.wrapping_add(k as u64),
            },
            other => other,
        };
        self.node_mem.push(NodeMemory::with_policy(quota, policy));
        NodeId(k as u32)
    }

    /// The byte quota of one node's mirror.
    pub fn node_quota(&self, node: NodeId) -> u64 {
        self.node_mem[node.index()].quota()
    }

    /// Nodes predicted to hold `chunk` (`Cache[c]`); empty slice if none.
    pub fn nodes_with(&self, chunk: ChunkId) -> &[NodeId] {
        self.chunk_nodes.get(&chunk).map_or(&[], Vec::as_slice)
    }

    /// True if `chunk` is predicted resident on `node`.
    pub fn contains(&self, node: NodeId, chunk: ChunkId) -> bool {
        self.node_mem[node.index()].contains(chunk)
    }

    /// True if any node holds `chunk` (`Cache[c] ≠ ∅`).
    pub fn is_cached_anywhere(&self, chunk: ChunkId) -> bool {
        self.chunk_nodes.get(&chunk).is_some_and(|v| !v.is_empty())
    }

    /// Number of nodes holding `chunk` (`|Cache[c]|`, the sort key for
    /// non-cached batch scheduling).
    pub fn replica_count(&self, chunk: ChunkId) -> usize {
        self.chunk_nodes.get(&chunk).map_or(0, Vec::len)
    }

    /// Refresh recency of a predicted cache hit.
    pub fn touch(&mut self, node: NodeId, chunk: ChunkId) {
        self.node_mem[node.index()].touch(chunk);
    }

    /// Predict a load of `chunk` onto `node`, evicting per the node's
    /// policy. Returns the predicted evictions.
    pub fn record_load(&mut self, node: NodeId, chunk: ChunkId, bytes: u64) -> Vec<ChunkId> {
        if self.contains(node, chunk) {
            self.touch(node, chunk);
            return Vec::new();
        }
        let evicted = self.node_mem[node.index()].load(chunk, bytes);
        for &victim in &evicted {
            self.unlink(node, victim);
        }
        self.link(node, chunk);
        evicted
    }

    /// Reconciliation (§V-B "tables update and correction"): a node reports
    /// the load and evictions it actually performed; make the prediction
    /// match reality exactly.
    pub fn reconcile_load(
        &mut self,
        node: NodeId,
        loaded: ChunkId,
        bytes: u64,
        evicted: &[ChunkId],
    ) {
        for &victim in evicted {
            if self.node_mem[node.index()].remove(victim) {
                self.unlink(node, victim);
            }
        }
        if !self.contains(node, loaded) {
            self.node_mem[node.index()].force_insert(loaded, bytes);
            self.link(node, loaded);
        } else {
            self.touch(node, loaded);
        }
    }

    /// Drop every prediction for `node` (crash handling: the node's memory
    /// is gone).
    pub fn clear_node(&mut self, node: NodeId) {
        let resident: Vec<ChunkId> = self.node_mem[node.index()].chunks().collect();
        for chunk in resident {
            self.node_mem[node.index()].remove(chunk);
            self.unlink(node, chunk);
        }
    }

    /// Predicted memory mirror of one node.
    pub fn node_memory(&self, node: NodeId) -> &NodeMemory {
        &self.node_mem[node.index()]
    }

    fn link(&mut self, node: NodeId, chunk: ChunkId) {
        let nodes = self.chunk_nodes.entry(chunk).or_default();
        if let Err(pos) = nodes.binary_search(&node) {
            nodes.insert(pos, node);
        }
    }

    fn unlink(&mut self, node: NodeId, chunk: ChunkId) {
        if let Some(nodes) = self.chunk_nodes.get_mut(&chunk) {
            if let Ok(pos) = nodes.binary_search(&node) {
                nodes.remove(pos);
            }
            if nodes.is_empty() {
                self.chunk_nodes.remove(&chunk);
            }
        }
    }
}

/// `Estimate[c]`: latest measured I/O time per chunk, with a cost-model
/// fallback for never-loaded chunks (the paper initializes it via a test
/// run) — and, by the same rule, the latest measured render time `α` of
/// the chunk, falling back to [`CostParams::alpha`] until one is recorded.
/// Only the live head records render times; the simulator's node executes
/// the model's `α` by construction, so there the fallback is the truth.
#[derive(Clone, Debug, Default)]
pub struct EstimateTable {
    measured: FxHashMap<ChunkId, SimDuration>,
    rendered: FxHashMap<ChunkId, SimDuration>,
}

impl EstimateTable {
    /// Estimated I/O time for `chunk` of `bytes`.
    pub fn get(&self, chunk: ChunkId, bytes: u64, cost: &CostParams) -> SimDuration {
        self.measured
            .get(&chunk)
            .copied()
            .unwrap_or_else(|| cost.io_time(bytes))
    }

    /// Record a measured I/O time (run-time refresh).
    pub fn record(&mut self, chunk: ChunkId, io: SimDuration) {
        self.measured.insert(chunk, io);
    }

    /// Estimated render time `α` for `chunk` of `bytes` in a render group
    /// of `group`: the latest measurement, else the cost model.
    pub fn render(&self, chunk: ChunkId, bytes: u64, group: u32, cost: &CostParams) -> SimDuration {
        self.rendered
            .get(&chunk)
            .copied()
            .unwrap_or_else(|| cost.alpha(bytes, group))
    }

    /// Record a measured render time — a completed task's occupancy of
    /// its node beyond the I/O (run-time refresh of `α`).
    pub fn record_render(&mut self, chunk: ChunkId, render: SimDuration) {
        self.rendered.insert(chunk, render);
    }

    /// Number of chunks with at least one measurement.
    pub fn measured_count(&self) -> usize {
        self.measured.len()
    }
}

/// All head-node scheduling state bundled together.
#[derive(Clone, Debug)]
pub struct HeadTables {
    /// `Available[R_k]`.
    pub available: AvailableTable,
    /// `Cache[c]` plus per-node mirrors.
    pub cache: CacheTable,
    /// `Estimate[c]`.
    pub estimate: EstimateTable,
    /// Per node: when an interactive task was last assigned to it (drives
    /// the idle threshold `ε`). `None` means "never".
    pub last_interactive: Vec<Option<SimTime>>,
    /// Nodes currently believed crashed (excluded from scheduling).
    pub down: Vec<bool>,
    /// Predicted *GPU-tier* residency per node — present only when the
    /// head models the two-tier memory extension (§VII future work); the
    /// locality cost (`ScheduleCtx::io_estimate`) then charges the PCIe
    /// upload wherever this mirror lacks the chunk.
    pub gpu_cache: Option<CacheTable>,
}

impl HeadTables {
    /// Fresh tables for a cluster, LRU eviction.
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self::with_eviction(cluster, EvictionPolicy::Lru)
    }

    /// Fresh tables with an explicit eviction policy (ablation hook).
    pub fn with_eviction(cluster: &ClusterSpec, eviction: EvictionPolicy) -> Self {
        HeadTables {
            available: AvailableTable::new(cluster.len()),
            cache: CacheTable::new(cluster, eviction),
            estimate: EstimateTable::default(),
            last_interactive: vec![None; cluster.len()],
            down: vec![false; cluster.len()],
            gpu_cache: None,
        }
    }

    /// Enable the two-tier extension: also predict GPU residency, with
    /// `gpu_quota` bytes of video memory per node.
    pub fn with_gpu_tier(cluster: &ClusterSpec, gpu_quota: u64, eviction: EvictionPolicy) -> Self {
        let mut tables = Self::with_eviction(cluster, eviction);
        let quotas = vec![gpu_quota; cluster.len()];
        tables.gpu_cache = Some(CacheTable::with_quotas(&quotas, eviction));
        tables
    }

    /// Number of rendering nodes.
    pub fn node_count(&self) -> usize {
        self.available.len()
    }

    /// True if `node` is currently believed alive.
    pub fn is_live(&self, node: NodeId) -> bool {
        !self.down[node.index()]
    }

    /// Iterate the ids of nodes currently believed alive.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.down
            .iter()
            .enumerate()
            .filter(|(_, &d)| !d)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Mark a node as crashed: its cache predictions are dropped and it is
    /// excluded from future scheduling until revived.
    pub fn mark_down(&mut self, node: NodeId) {
        self.down[node.index()] = true;
        self.cache.clear_node(node);
        if let Some(gpu) = &mut self.gpu_cache {
            gpu.clear_node(node);
        }
        self.available.correct(node, SimTime::MAX);
    }

    /// Bring a node back (empty-cached) at time `now`.
    pub fn mark_up(&mut self, node: NodeId, now: SimTime) {
        self.down[node.index()] = false;
        self.available.correct(node, now);
    }

    /// Grow every table by one freshly adopted node — empty-cached,
    /// available at `now`, live. Returns the new node's (local) id. This
    /// is the shard-head failover primitive: a surviving head adopts a
    /// dead shard's node and the §V-B correction machinery rebuilds
    /// `Available`/`Estimate` for it from completions, exactly as it does
    /// after an ordinary crash/recover cycle.
    pub fn adopt_node(&mut self, now: SimTime, mem_quota: u64) -> NodeId {
        let node = self.cache.adopt_node(mem_quota);
        let from_avail = self.available.adopt(now);
        debug_assert_eq!(node, from_avail);
        self.last_interactive.push(None);
        self.down.push(false);
        if let Some(gpu) = &mut self.gpu_cache {
            let quota = gpu.node_quota(NodeId(0));
            gpu.adopt_node(quota);
        }
        node
    }

    /// How long `node` has gone without an interactive assignment, as of
    /// `now`; [`SimDuration::MAX`] if it never had one.
    pub fn interactive_idle(&self, node: NodeId, now: SimTime) -> SimDuration {
        match self.last_interactive[node.index()] {
            Some(t) => now.saturating_since(t),
            None => SimDuration::MAX,
        }
    }

    /// Record an interactive assignment on `node` at `now`.
    pub fn note_interactive(&mut self, node: NodeId, now: SimTime) {
        let slot = &mut self.last_interactive[node.index()];
        *slot = Some(slot.map_or(now, |t| t.max(now)));
    }

    /// True when every chunk of `dataset` is cached on a node whose
    /// `Available[R_k]` is at or before `by`: the job could run, all hits,
    /// without waiting past `by`. A down node never qualifies —
    /// [`mark_down`](HeadTables::mark_down) clears its cache and sets its
    /// `Available` to `SimTime::MAX`. The head runtime's early cycle asks
    /// this with `by = now`; FSD's delay-scheduling test with `by = now + ω`.
    pub fn warm_and_free_by(&self, catalog: &Catalog, dataset: DatasetId, by: SimTime) -> bool {
        catalog.chunks_of(dataset).iter().all(|chunk| {
            self.cache
                .nodes_with(chunk.id)
                .iter()
                .any(|&node| self.available.get(node) <= by)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DatasetId;

    const GIB: u64 = 1 << 30;

    fn chunk(i: u32) -> ChunkId {
        ChunkId::new(DatasetId(0), i)
    }

    fn tables() -> HeadTables {
        HeadTables::new(&ClusterSpec::homogeneous(4, 2 * GIB))
    }

    #[test]
    fn push_work_serializes_on_a_node() {
        let mut t = tables();
        let now = SimTime::from_secs(1);
        let s1 = t
            .available
            .push_work(NodeId(0), now, SimDuration::from_secs(2));
        assert_eq!(s1, now);
        let s2 = t
            .available
            .push_work(NodeId(0), now, SimDuration::from_secs(3));
        assert_eq!(s2, SimTime::from_secs(3));
        assert_eq!(t.available.get(NodeId(0)), SimTime::from_secs(6));
    }

    #[test]
    fn cache_table_links_and_unlinks() {
        let mut t = tables();
        t.cache.record_load(NodeId(1), chunk(0), GIB);
        t.cache.record_load(NodeId(2), chunk(0), GIB);
        assert_eq!(t.cache.nodes_with(chunk(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.cache.replica_count(chunk(0)), 2);
        assert!(t.cache.is_cached_anywhere(chunk(0)));
        assert!(!t.cache.is_cached_anywhere(chunk(9)));
    }

    #[test]
    fn record_load_evictions_unlink() {
        let mut t = tables();
        // Quota 2 GiB: two 1 GiB chunks fit, third evicts the LRU.
        t.cache.record_load(NodeId(0), chunk(0), GIB);
        t.cache.record_load(NodeId(0), chunk(1), GIB);
        let evicted = t.cache.record_load(NodeId(0), chunk(2), GIB);
        assert_eq!(evicted, vec![chunk(0)]);
        assert!(t.cache.nodes_with(chunk(0)).is_empty());
        assert!(t.cache.contains(NodeId(0), chunk(2)));
    }

    #[test]
    fn reconcile_load_overrides_prediction() {
        let mut t = tables();
        t.cache.record_load(NodeId(0), chunk(0), GIB);
        // The node actually evicted chunk 0 while loading chunk 5.
        t.cache
            .reconcile_load(NodeId(0), chunk(5), GIB, &[chunk(0)]);
        assert!(!t.cache.contains(NodeId(0), chunk(0)));
        assert!(t.cache.contains(NodeId(0), chunk(5)));
        assert_eq!(t.cache.nodes_with(chunk(5)), &[NodeId(0)]);
    }

    #[test]
    fn estimate_falls_back_to_cost_model() {
        let mut t = tables();
        let cost = CostParams::default();
        let fallback = t.estimate.get(chunk(0), 512 << 20, &cost);
        assert_eq!(fallback, cost.io_time(512 << 20));
        t.estimate.record(chunk(0), SimDuration::from_secs(9));
        assert_eq!(
            t.estimate.get(chunk(0), 512 << 20, &cost),
            SimDuration::from_secs(9)
        );
        assert_eq!(t.estimate.measured_count(), 1);
    }

    #[test]
    fn render_estimate_falls_back_to_alpha() {
        let mut t = tables();
        let cost = CostParams::default();
        assert_eq!(
            t.estimate.render(chunk(0), 512 << 20, 2, &cost),
            cost.alpha(512 << 20, 2)
        );
        t.estimate
            .record_render(chunk(0), SimDuration::from_millis(9));
        t.estimate
            .record_render(chunk(0), SimDuration::from_millis(7));
        assert_eq!(
            t.estimate.render(chunk(0), 512 << 20, 2, &cost),
            SimDuration::from_millis(7),
            "the latest measurement wins"
        );
        assert_eq!(
            t.estimate.get(chunk(0), 512 << 20, &cost),
            cost.io_time(512 << 20)
        );
        assert_eq!(t.estimate.measured_count(), 0, "render times are not I/O");
    }

    #[test]
    fn interactive_idle_tracks_assignments() {
        let mut t = tables();
        let now = SimTime::from_secs(10);
        assert_eq!(t.interactive_idle(NodeId(0), now), SimDuration::MAX);
        t.note_interactive(NodeId(0), SimTime::from_secs(8));
        assert_eq!(
            t.interactive_idle(NodeId(0), now),
            SimDuration::from_secs(2)
        );
        // Older assignments never move the stamp backwards.
        t.note_interactive(NodeId(0), SimTime::from_secs(3));
        assert_eq!(
            t.interactive_idle(NodeId(0), now),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn avail_heap_matches_linear_scan() {
        let mut t = tables();
        t.available
            .push_work(NodeId(2), SimTime::ZERO, SimDuration::from_secs(4));
        t.available
            .push_work(NodeId(0), SimTime::ZERO, SimDuration::from_secs(9));
        // now = 2 s: nodes 1 and 3 are idle (ready_at collapses to now);
        // the smallest id among them must win, not the smallest raw time.
        let now = SimTime::from_secs(2);
        let mut heap = AvailHeap::new();
        heap.rebuild(&t, now);
        let scan = t
            .live_nodes()
            .min_by_key(|&k| (t.available.ready_at(k, now), k))
            .unwrap();
        assert_eq!(heap.best(&t), (now, NodeId(1)));
        assert_eq!(heap.best(&t).1, scan);
    }

    #[test]
    fn avail_heap_lazy_update_discards_stale_entries() {
        let mut t = tables();
        let now = SimTime::ZERO;
        let mut heap = AvailHeap::new();
        heap.rebuild(&t, now);
        // Fill nodes 0..2 one after another; the heap must track the scan.
        for _ in 0..3 {
            let (_, k) = heap.best(&t);
            let scan = t
                .live_nodes()
                .min_by_key(|&k| (t.available.ready_at(k, now), k))
                .unwrap();
            assert_eq!(k, scan);
            t.available.push_work(k, now, SimDuration::from_secs(1));
            heap.update(&t, k);
        }
        // All four nodes distinct so far: 0,1,2 busy, 3 idle.
        assert_eq!(heap.best(&t).1, NodeId(3));
    }

    #[test]
    fn avail_heap_skips_down_nodes_after_rebuild() {
        let mut t = tables();
        t.mark_down(NodeId(0));
        let mut heap = AvailHeap::new();
        heap.rebuild(&t, SimTime::ZERO);
        assert_eq!(heap.best(&t).1, NodeId(1));
    }

    #[test]
    fn adopt_node_grows_every_table() {
        let mut t = tables();
        let node = t.adopt_node(SimTime::from_secs(3), 2 * GIB);
        assert_eq!(node, NodeId(4));
        assert_eq!(t.node_count(), 5);
        assert!(t.is_live(node));
        assert_eq!(t.available.get(node), SimTime::from_secs(3));
        assert_eq!(t.cache.node_quota(node), 2 * GIB);
        t.cache.record_load(node, chunk(7), GIB);
        assert_eq!(t.cache.nodes_with(chunk(7)), &[node]);
        assert_eq!(
            t.interactive_idle(node, SimTime::from_secs(9)),
            SimDuration::MAX
        );
    }

    #[test]
    fn crash_clears_cache_and_excludes_node() {
        let mut t = tables();
        t.cache.record_load(NodeId(1), chunk(0), GIB);
        t.mark_down(NodeId(1));
        assert!(t.cache.nodes_with(chunk(0)).is_empty());
        assert_eq!(t.live_nodes().count(), 3);
        assert_eq!(t.available.get(NodeId(1)), SimTime::MAX);
        t.mark_up(NodeId(1), SimTime::from_secs(5));
        assert_eq!(t.live_nodes().count(), 4);
        assert_eq!(t.available.get(NodeId(1)), SimTime::from_secs(5));
    }
}
