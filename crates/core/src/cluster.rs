//! Cluster descriptions: the head node plus a set of rendering nodes `ϕ`.

/// Static description of one rendering node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpec {
    /// Main-memory quota available for chunk caching, in bytes.
    pub mem_quota: u64,
    /// Relative disk-bandwidth multiplier (1.0 = the cost model's
    /// `disk_bw`); lets heterogeneous clusters mix faster and slower I/O.
    pub disk_scale: f64,
}

impl NodeSpec {
    /// A node with the given memory quota and nominal disk speed.
    pub fn with_quota(mem_quota: u64) -> Self {
        NodeSpec {
            mem_quota,
            disk_scale: 1.0,
        }
    }
}

/// Static description of the whole cluster (rendering nodes only; the head
/// node does no rendering).
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// The rendering nodes `R_k, k = 1..p`.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// `p` identical nodes, each with `mem_quota` bytes of cache.
    pub fn homogeneous(p: usize, mem_quota: u64) -> Self {
        assert!(p > 0, "cluster needs at least one rendering node");
        ClusterSpec {
            nodes: vec![NodeSpec::with_quota(mem_quota); p],
        }
    }

    /// Number of rendering nodes `p = |ϕ|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty cluster (never valid for scheduling).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Aggregate cache capacity across all nodes.
    pub fn total_memory(&self) -> u64 {
        self.nodes.iter().map(|n| n.mem_quota).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn homogeneous_matches_scenario_one() {
        // Scenario 1: 8 nodes x 2 GB quota = 16 GB total.
        let c = ClusterSpec::homogeneous(8, 2 * GIB);
        assert_eq!(c.len(), 8);
        assert_eq!(c.total_memory(), 16 * GIB);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_cluster_rejected() {
        ClusterSpec::homogeneous(0, GIB);
    }
}
