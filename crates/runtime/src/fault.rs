//! Deterministic fault injection: a seedable [`FaultPlan`] schedule of
//! node crashes, respawns, slow-node degradations, correlated leaf-group
//! outages, and shard-head crashes, and [`ShardedRuntime::on_fault`], the
//! one interpreter both substrates execute it through.
//!
//! A plan is nothing but a time-sorted list of [`FaultEvent`]s; the
//! executing substrate (the discrete-event simulator or the live service
//! head loop) walks the list against its own clock and hands each entry
//! to `on_fault`. That emits `fault_injected`, drives the substrate's node
//! hooks ([`Substrate::crash_node`], [`Substrate::respawn_node`],
//! [`Substrate::degrade_node`]) and the runtime's own fault entry points
//! (`on_node_fault`, `on_node_recover`, `on_shard_fail`) in one fixed
//! order — so any chaos run replays bit-identically in the sim.
//!
//! [`FaultPlan::random`] generates *recoverable* schedules, which
//! [`FaultPlan::check`] accepts: a correct control plane can always
//! re-place lost work, so the property tests assert zero admitted loss.

use crate::shard::{can_fail_over, deal};
use crate::{ShardedRuntime, Substrate};
pub use vizsched_core::fault::{FaultEvent, FaultKind};
use vizsched_core::ids::{NodeId, ShardId};
use vizsched_core::rng::SplitMix64;
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::TraceEvent;
use vizsched_routing::ShardMap;

/// A deterministic, time-sorted fault schedule.
///
/// Build one with the `*_at` convenience methods (chainable) or generate
/// a recoverable random plan with [`FaultPlan::random`]. Events with
/// equal timestamps keep their insertion order, so a plan is a total
/// order and both substrates execute it identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `at`, keeping the plan time-sorted (stable for
    /// equal timestamps).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// Chainable [`FaultPlan::push`].
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Schedule a node crash.
    pub fn crash_at(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultKind::NodeCrash(node))
    }

    /// Schedule a node respawn.
    pub fn respawn_at(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultKind::NodeRespawn(node))
    }

    /// Schedule a slow-node degradation (`factor_pm` per-mille, ≥ 1000).
    pub fn degrade_at(self, at: SimTime, node: NodeId, factor_pm: u32) -> Self {
        assert!(factor_pm >= 1000, "degrade factor must be >= 1000 pm");
        self.with(at, FaultKind::NodeDegrade { node, factor_pm })
    }

    /// Schedule a degraded node's return to full speed.
    pub fn restore_at(self, at: SimTime, node: NodeId) -> Self {
        self.with(at, FaultKind::NodeRestore(node))
    }

    /// Schedule a correlated leaf-group outage.
    pub fn leaf_outage_at(self, at: SimTime, base: NodeId, count: u32) -> Self {
        self.with(at, FaultKind::LeafOutage { base, count })
    }

    /// Schedule a leaf group's recovery.
    pub fn leaf_recover_at(self, at: SimTime, base: NodeId, count: u32) -> Self {
        self.with(at, FaultKind::LeafRecover { base, count })
    }

    /// Schedule a shard-head crash.
    pub fn shard_crash_at(self, at: SimTime, shard: ShardId) -> Self {
        self.with(at, FaultKind::ShardCrash(shard))
    }

    /// The schedule, time-sorted.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan against a `nodes`-node cluster in `shards` shards
    /// before anything runs: no fault may address a node outside the
    /// cluster ([`FaultKind::node_range`]), and none may leave a live shard
    /// with all of its nodes down (the scheduler would panic). A shard
    /// crash moves nodes as [`ShardedRuntime::on_shard_fail`] does, and
    /// they come back up. The error names the first offending fault. Both
    /// substrates and `scenario --replay` call this before they start.
    pub fn check(&self, nodes: usize, shards: usize) -> Result<(), String> {
        let mut up = vec![true; nodes];
        let map = ShardMap::new(nodes, shards.max(1));
        let mut owned: Vec<Vec<u32>> = map
            .spans()
            .iter()
            .map(|s| (s.base..s.base + s.nodes).collect())
            .collect();
        let mut dead = vec![false; owned.len()];
        for &FaultEvent { at, kind } in &self.events {
            let Some(hit) = kind.node_range() else {
                let FaultKind::ShardCrash(shard) = kind else {
                    continue;
                };
                if can_fail_over(&dead, shard) {
                    dead[shard.index()] = true;
                    let slice = std::mem::take(&mut owned[shard.index()]);
                    for (node, to) in slice.iter().zip(deal(&dead, slice.len())) {
                        up[*node as usize] = true;
                        owned[to].push(*node);
                    }
                }
                continue;
            };
            if hit.end > nodes as u64 {
                return Err(format!(
                    "fault plan: {kind:?} at {at} is outside the {nodes}-node cluster"
                ));
            }
            let alive = match kind {
                FaultKind::NodeCrash(_) | FaultKind::LeafOutage { .. } => false,
                FaultKind::NodeRespawn(_) | FaultKind::LeafRecover { .. } => true,
                _ => continue,
            };
            up[hit.start as usize..hit.end as usize].fill(alive);
            let starved =
                (0..owned.len()).find(|&s| !dead[s] && owned[s].iter().all(|&n| !up[n as usize]));
            if let Some(s) = starved {
                let (wire, at_us) = (kind.wire().0, at.as_micros());
                return Err(if up.contains(&true) {
                    format!(
                        "the {wire} fault at {at_us} us leaves none of shard {s}'s {} nodes \
                         alive; its jobs cannot be placed from there on",
                        owned[s].len()
                    )
                } else {
                    format!(
                        "the {wire} fault at {at_us} us leaves none of the {nodes} nodes alive; \
                         nothing can be placed from there on"
                    )
                });
            }
        }
        Ok(())
    }

    /// A random *recoverable* plan over a `nodes`-node cluster split into
    /// `shards` shards (the standard [`ShardMap`] partition), with every
    /// fault inside `[0, horizon]`.
    ///
    /// Recoverable means: per shard at most one crash window is open at a
    /// time, a crash window always closes with the matching respawn
    /// before the horizon, single-node shards are never crashed, and at
    /// most one shard-head crash fires (only when at least two shards
    /// exist). Degradations are unconstrained — a slow node is still a
    /// correct node.
    pub fn random(seed: u64, nodes: usize, shards: usize, horizon: SimDuration) -> Self {
        let mut rng = SplitMix64::from_state(seed ^ 0xa076_1d64_78bd_642f);
        let span_us = horizon.as_micros().max(2);
        let mut plan = FaultPlan::new();
        let shards = shards.max(1).min(nodes.max(1));
        let map = ShardMap::new(nodes, shards);

        // Per-shard crash windows: [start, end) intervals during which
        // one of the shard's nodes is down. Non-overlapping per shard.
        let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        let pairs = 1 + rng.below(3) as usize;
        for _ in 0..pairs {
            let span = map.span(ShardId(rng.below(shards as u64) as u32));
            if span.nodes < 2 {
                continue; // never crash a single-node shard
            }
            let node = NodeId(span.base + rng.below(span.nodes as u64) as u32);
            let a = rng.below(span_us);
            let b = rng.below(span_us);
            let (start, end) = (a.min(b), a.max(b).max(a.min(b) + 1));
            let overlaps = windows[span.shard.index()]
                .iter()
                .any(|&(s, e)| start < e && s < end);
            if overlaps {
                continue;
            }
            windows[span.shard.index()].push((start, end));
            plan = plan
                .crash_at(SimTime::from_micros(start), node)
                .respawn_at(SimTime::from_micros(end), node);
        }

        // Degradations: free, any node, any interval.
        for _ in 0..rng.below(3) {
            let node = NodeId(rng.below(nodes.max(1) as u64) as u32);
            let factor_pm = 1500 + rng.below(2500) as u32;
            let a = rng.below(span_us);
            let b = rng.below(span_us);
            let (start, end) = (a.min(b), a.max(b).max(a.min(b) + 1));
            plan = plan
                .degrade_at(SimTime::from_micros(start), node, factor_pm)
                .restore_at(SimTime::from_micros(end), node);
        }

        // At most one shard-head crash, mid-plan, only with survivors.
        if shards >= 2 && rng.below(2) == 0 {
            let shard = ShardId(rng.below(shards as u64) as u32);
            let at = span_us / 4 + rng.below((span_us / 2).max(1));
            plan = plan.shard_crash_at(SimTime::from_micros(at), shard);
        }
        plan
    }
}

/// Collect recorded faults back into a plan (record replay), under the
/// same ordering rule as [`FaultPlan::push`].
impl FromIterator<FaultEvent> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultEvent>>(events: I) -> Self {
        let mut plan = FaultPlan::new();
        for e in events {
            plan.push(e.at, e.kind);
        }
        plan
    }
}

impl ShardedRuntime {
    /// Execute one [`FaultPlan`] entry at `now`: the only interpreter of
    /// a [`FaultKind`]. Traces `fault_injected`, then:
    ///
    /// * a node crash or leaf outage crashes each node on the substrate
    ///   and re-places its outstanding work ([`Self::on_node_fault`]);
    /// * a respawn or leaf recovery brings back each node this runtime
    ///   holds down, then rejoins it ([`Self::on_node_recover`]);
    /// * a degrade or restore re-speeds the node on the substrate;
    /// * a shard crash power-cycles the dead head's slice, then fails the
    ///   shard over ([`Self::on_shard_fail`]). A head that cannot fail
    ///   over has no slice, so nothing restarts.
    pub fn on_fault<S: Substrate>(&mut self, sub: &mut S, now: SimTime, kind: FaultKind) {
        if self.probe.enabled() {
            self.probe
                .on_event(&TraceEvent::FaultInjected { now, fault: kind });
        }
        let nodes = kind
            .node_range()
            .into_iter()
            .flatten()
            .map(|n| NodeId(n as u32));
        match kind {
            FaultKind::NodeCrash(_) | FaultKind::LeafOutage { .. } => {
                for node in nodes {
                    sub.crash_node(node);
                    self.on_node_fault(sub, now, node);
                }
            }
            FaultKind::NodeRespawn(_) | FaultKind::LeafRecover { .. } => {
                for node in nodes {
                    if self.is_node_down(node) {
                        sub.respawn_node(node);
                    }
                    self.on_node_recover(now, node);
                }
            }
            FaultKind::NodeDegrade { node, factor_pm } => sub.degrade_node(node, factor_pm),
            FaultKind::NodeRestore(node) => sub.degrade_node(node, 1000),
            FaultKind::ShardCrash(shard) => {
                for node in self.failover_slice(shard) {
                    sub.crash_node(node);
                    sub.respawn_node(node);
                }
                self.on_shard_fail(sub, now, shard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_time_sorted() {
        let plan = FaultPlan::new()
            .respawn_at(SimTime::from_secs(5), NodeId(0))
            .crash_at(SimTime::from_secs(1), NodeId(0))
            .degrade_at(SimTime::from_secs(3), NodeId(1), 2000);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events()[0].kind, FaultKind::NodeCrash(NodeId(0)));
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        let t = SimTime::from_secs(2);
        let plan = FaultPlan::new()
            .crash_at(t, NodeId(3))
            .respawn_at(t, NodeId(3));
        assert_eq!(plan.events()[0].kind, FaultKind::NodeCrash(NodeId(3)));
        assert_eq!(plan.events()[1].kind, FaultKind::NodeRespawn(NodeId(3)));
    }

    #[test]
    fn collecting_events_sorts_like_push() {
        let t = SimTime::from_secs(2);
        let plan = FaultPlan::new()
            .crash_at(t, NodeId(3))
            .respawn_at(t, NodeId(3))
            .degrade_at(SimTime::from_secs(1), NodeId(0), 2000);
        let shuffled = [plan.events()[1], plan.events()[2], plan.events()[0]];
        assert_eq!(shuffled.into_iter().collect::<FaultPlan>(), plan);
        let same: FaultPlan = plan.events().iter().copied().collect();
        assert_eq!(same, plan);
    }

    #[test]
    fn total_outage_names_the_fault_that_downs_the_last_node() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::new()
            .crash_at(s(1), NodeId(0))
            .respawn_at(s(2), NodeId(0))
            .crash_at(s(3), NodeId(1))
            .leaf_recover_at(s(4), NodeId(0), 2)
            .leaf_outage_at(s(5), NodeId(1), 1)
            .degrade_at(s(6), NodeId(0), 3000);
        assert_eq!(plan.check(2, 1), Ok(()));
        let outage = "fault at 7000000 us leaves none of the 2 nodes alive";
        let last = plan.clone().crash_at(s(7), NodeId(0));
        assert!(last.check(2, 1).unwrap_err().contains(outage));
        let leaf = plan.leaf_outage_at(s(7), NodeId(0), 2);
        assert!(leaf.check(2, 1).unwrap_err().contains(outage));
        assert_eq!(leaf.check(3, 1), Ok(()));
        // Out of range is reported as such, ahead of the outage it causes.
        let wide = FaultPlan::new().leaf_outage_at(s(1), NodeId(0), 3);
        assert_eq!(
            wide.check(2, 1),
            Err(
                "fault plan: LeafOutage { base: NodeId(0), count: 3 } at 1.000000s is outside \
                 the 2-node cluster"
                    .into()
            )
        );
    }

    #[test]
    fn a_shard_left_without_a_live_node_names_the_fault() {
        let ms = SimTime::from_millis;
        // Two single-node shards: crashing node 0 empties shard 0 while
        // node 1 is still up.
        let crash = FaultPlan::new().crash_at(ms(50), NodeId(0));
        assert_eq!(crash.check(2, 1), Ok(()));
        assert_eq!(
            crash.check(2, 2),
            Err(
                "the node_crash fault at 50000 us leaves none of shard 0's 1 nodes alive; \
                 its jobs cannot be placed from there on"
                    .into()
            )
        );
        // Once shard 0 fails over, shard 1 owns both nodes.
        let failed_over = crash.clone().shard_crash_at(ms(10), ShardId(0));
        assert_eq!(failed_over.check(2, 2), Ok(()));
        // A failed-over node comes back up, even from a crash: node 0 is
        // the last one standing in shard 1's {2, 3, 0, 1}.
        let revived = FaultPlan::new()
            .crash_at(ms(5), NodeId(0))
            .shard_crash_at(ms(10), ShardId(0))
            .crash_at(ms(15), NodeId(1))
            .crash_at(ms(20), NodeId(2))
            .crash_at(ms(30), NodeId(3));
        assert_eq!(revived.check(4, 2), Ok(()));
        // Adopted nodes count for their adopter: three single-node
        // shards, shard 0's node dealt to shard 1.
        let adopted = FaultPlan::new()
            .shard_crash_at(ms(10), ShardId(0))
            .crash_at(ms(20), NodeId(1))
            .crash_at(ms(30), NodeId(0));
        let err = adopted.check(3, 3).unwrap_err();
        assert!(
            err.contains("at 30000 us leaves none of shard 1's 2 nodes"),
            "{err}"
        );
        // The last live shard cannot fail over: its crash is a no-op and
        // revives nothing.
        let last = FaultPlan::new()
            .shard_crash_at(ms(10), ShardId(1))
            .crash_at(ms(20), NodeId(0))
            .shard_crash_at(ms(30), ShardId(0))
            .crash_at(ms(40), NodeId(1));
        let err = last.check(2, 2).unwrap_err();
        assert!(
            err.contains("at 40000 us leaves none of the 2 nodes alive"),
            "{err}"
        );
        // Leaf-aligned shards: 8 nodes in two shards of 4.
        let leaf = FaultPlan::new().leaf_outage_at(ms(5), NodeId(4), 4);
        assert!(leaf.check(8, 2).unwrap_err().contains("shard 1's 4 nodes"));
        assert_eq!(leaf.check(8, 1), Ok(()));
    }

    /// `random` promises plans no shard loses all its nodes in, so every
    /// one passes `check` on its own cluster and shard count.
    #[test]
    fn random_plans_pass_the_check_they_promise() {
        for nodes in 1..=9 {
            for shards in 1..=nodes.min(4) {
                for seed in 0..40u64 {
                    let plan = FaultPlan::random(seed, nodes, shards, SimDuration::from_secs(10));
                    assert_eq!(
                        plan.check(nodes, shards),
                        Ok(()),
                        "seed {seed}, {nodes} nodes, {shards} shards: {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_recoverable() {
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, 8, 2, SimDuration::from_secs(10));
            let b = FaultPlan::random(seed, 8, 2, SimDuration::from_secs(10));
            assert_eq!(a, b, "seed {seed} not deterministic");
            let map = ShardMap::new(8, 2);
            // Replay: per shard, count nodes down; never the whole slice.
            let mut down: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); 2];
            let mut shard_crashes = 0;
            for e in a.events() {
                match e.kind {
                    FaultKind::NodeCrash(n) => {
                        let s = map.shard_of_node(n).index();
                        down[s].insert(n.0);
                        assert!(
                            (down[s].len() as u32) < map.span(ShardId(s as u32)).nodes,
                            "seed {seed}: shard {s} fully down"
                        );
                    }
                    FaultKind::NodeRespawn(n) => {
                        let s = map.shard_of_node(n).index();
                        assert!(down[s].remove(&n.0), "seed {seed}: respawn without crash");
                    }
                    FaultKind::ShardCrash(_) => shard_crashes += 1,
                    _ => {}
                }
            }
            assert!(
                down.iter().all(|d| d.is_empty()),
                "seed {seed}: crash window left open"
            );
            assert!(shard_crashes <= 1, "seed {seed}: too many shard crashes");
        }
    }

    #[test]
    fn single_shard_random_plans_never_crash_heads() {
        for seed in 0..20u64 {
            let plan = FaultPlan::random(seed, 4, 1, SimDuration::from_secs(5));
            assert!(plan
                .events()
                .iter()
                .all(|e| !matches!(e.kind, FaultKind::ShardCrash(_))));
        }
    }
}
