//! The injectable-fault taxonomy and its one wire form.
//!
//! A [`FaultKind`] is what a `FaultPlan` (in `vizsched-runtime`)
//! schedules, what both substrates execute, what the `fault_injected`
//! trace event carries and what a scenario record's `fault` line stores.
//! On the wire — JSONL trace and record alike — a fault is the triple
//! `(kind, target, param)`; [`FaultKind::wire`] and
//! [`FaultKind::from_wire`] are the only mapping between the two, next to
//! the only list of the seven kind names.

use crate::ids::{NodeId, ShardId};
use crate::time::SimTime;

/// One kind of injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A node crashes: queue, running task, and cache are lost.
    NodeCrash(NodeId),
    /// A crashed node rejoins, cold-cached.
    NodeRespawn(NodeId),
    /// A node degrades: every execution is stretched by
    /// `factor_pm / 1000` (per-mille; `2000` = half speed).
    NodeDegrade {
        /// The degraded node (global id).
        node: NodeId,
        /// Execution-time multiplier, per-mille (≥ 1000).
        factor_pm: u32,
    },
    /// A degraded node returns to full speed.
    NodeRestore(NodeId),
    /// A correlated outage crashes the `count` nodes `[base, base+count)`
    /// at once (one leaf switch dying).
    LeafOutage {
        /// First node of the group (global id).
        base: NodeId,
        /// Nodes in the group.
        count: u32,
    },
    /// The leaf group `[base, base+count)` rejoins, cold-cached.
    LeafRecover {
        /// First node of the group (global id).
        base: NodeId,
        /// Nodes in the group.
        count: u32,
    },
    /// A shard head's cycle loop dies; its node slice and backlog must
    /// fail over to the surviving shards.
    ShardCrash(ShardId),
}

impl FaultKind {
    /// The wire name of every kind, in declaration order. DESIGN.md §8
    /// and `docs/SCENARIO_FORMAT.md` list exactly these
    /// (`tests/docs_consistency.rs`).
    pub const NAMES: [&'static str; 7] = [
        "node_crash",
        "node_respawn",
        "node_degrade",
        "node_restore",
        "leaf_outage",
        "leaf_recover",
        "shard_crash",
    ];

    /// The `(kind, target, param)` triple written to traces and records:
    /// `target` is the global node id, leaf-group base node, or shard id;
    /// `param` the leaf-group width or the degrade factor (per-mille),
    /// zero for kinds that carry neither.
    pub fn wire(self) -> (&'static str, u32, u32) {
        let (name_at, target, param) = match self {
            FaultKind::NodeCrash(n) => (0, n.0, 0),
            FaultKind::NodeRespawn(n) => (1, n.0, 0),
            FaultKind::NodeDegrade { node, factor_pm } => (2, node.0, factor_pm),
            FaultKind::NodeRestore(n) => (3, n.0, 0),
            FaultKind::LeafOutage { base, count } => (4, base.0, count),
            FaultKind::LeafRecover { base, count } => (5, base.0, count),
            FaultKind::ShardCrash(s) => (6, s.0, 0),
        };
        (Self::NAMES[name_at], target, param)
    }

    /// The inverse of [`FaultKind::wire`]; `None` for a name outside
    /// [`FaultKind::NAMES`]. `param` is dropped by kinds that carry none.
    pub fn from_wire(name: &str, target: u32, param: u32) -> Option<FaultKind> {
        let node = NodeId(target);
        [
            FaultKind::NodeCrash(node),
            FaultKind::NodeRespawn(node),
            FaultKind::NodeDegrade {
                node,
                factor_pm: param,
            },
            FaultKind::NodeRestore(node),
            FaultKind::LeafOutage {
                base: node,
                count: param,
            },
            FaultKind::LeafRecover {
                base: node,
                count: param,
            },
            FaultKind::ShardCrash(ShardId(target)),
        ]
        .into_iter()
        .find(|kind| kind.wire().0 == name)
    }

    /// The global node ids this fault addresses: one node, `base..base +
    /// count` for a leaf group, none for a shard crash (an unknown shard is
    /// a no-op, not an index). Whatever accepts a fault from outside holds
    /// this inside the cluster first. `u64`, so the end cannot wrap.
    pub fn node_range(self) -> Option<std::ops::Range<u64>> {
        let width = match self {
            FaultKind::ShardCrash(_) => return None,
            FaultKind::LeafOutage { count, .. } | FaultKind::LeafRecover { count, .. } => count,
            _ => 1,
        };
        let base = u64::from(self.wire().1);
        Some(base..base + u64::from(width))
    }
}

/// One scheduled (or recorded) fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires: virtual time in the simulator, elapsed time
    /// since service start in the live plane.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_its_wire_triple() {
        let n = NodeId(3);
        let table = [
            (FaultKind::NodeCrash(n), ("node_crash", 3, 0)),
            (FaultKind::NodeRespawn(n), ("node_respawn", 3, 0)),
            (
                FaultKind::NodeDegrade {
                    node: n,
                    factor_pm: 1500,
                },
                ("node_degrade", 3, 1500),
            ),
            (FaultKind::NodeRestore(n), ("node_restore", 3, 0)),
            (
                FaultKind::LeafOutage { base: n, count: 2 },
                ("leaf_outage", 3, 2),
            ),
            (
                FaultKind::LeafRecover { base: n, count: 2 },
                ("leaf_recover", 3, 2),
            ),
            (FaultKind::ShardCrash(ShardId(3)), ("shard_crash", 3, 0)),
        ];
        for ((kind, wire), name) in table.into_iter().zip(FaultKind::NAMES) {
            assert_eq!(kind.wire(), wire);
            assert_eq!(wire.0, name, "NAMES is in declaration order");
            assert_eq!(FaultKind::from_wire(wire.0, wire.1, wire.2), Some(kind));
        }
        assert_eq!(FaultKind::from_wire("meteor", 0, 0), None);
    }
}
