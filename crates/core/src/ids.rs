//! Strongly-typed identifiers for the entities in the scheduling model.
//!
//! Every id is a thin newtype over an integer so that the hot scheduling
//! paths stay allocation-free while the type system prevents mixing up,
//! say, a node index and a dataset index.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A rendering node `R_k` in the cluster (head node excluded).
    NodeId, u32, "R"
);
id_type!(
    /// A volumetric dataset registered with the service.
    DatasetId, u32, "D"
);
id_type!(
    /// A rendering job `J_i` (one frame requested by one user interaction
    /// or one batch frame).
    JobId, u64, "J"
);
id_type!(
    /// A user of the visualization service.
    UserId, u32, "U"
);
id_type!(
    /// A continuous sequence of interactive requests from one user
    /// (e.g. a camera drag); the unit over which Definition 4 measures
    /// the frame rate.
    ActionId, u64, "A"
);
id_type!(
    /// A batch submission (e.g. "render this animation"), which expands
    /// into many batch jobs.
    BatchId, u64, "B"
);
id_type!(
    /// A shard: one partition of the cluster running its own head-node
    /// cycle loop behind the consistent-hash routing tier.
    ShardId, u32, "S"
);

/// A data chunk `c`: one piece of a decomposed dataset. Tasks are associated
/// with exactly one chunk, and the head node's `Cache` and `Estimate` tables
/// are keyed by chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    /// The dataset this chunk belongs to.
    pub dataset: DatasetId,
    /// Index of the chunk within the dataset's decomposition, `0..m`.
    pub index: u32,
}

impl ChunkId {
    /// Build a chunk id.
    pub const fn new(dataset: DatasetId, index: u32) -> Self {
        ChunkId { dataset, index }
    }

    /// Pack into a single `u64` (dataset in the high half). Handy as a dense
    /// hash key and for deterministic tie-breaking.
    pub const fn as_u64(self) -> u64 {
        ((self.dataset.0 as u64) << 32) | self.index as u64
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.dataset, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "R3");
        assert_eq!(DatasetId(1).to_string(), "D1");
        assert_eq!(JobId(42).to_string(), "J42");
        assert_eq!(ChunkId::new(DatasetId(1), 2).to_string(), "D1#2");
    }

    #[test]
    fn chunk_packing_is_injective() {
        let a = ChunkId::new(DatasetId(1), 0);
        let b = ChunkId::new(DatasetId(0), 1);
        assert_ne!(a.as_u64(), b.as_u64());
        assert_eq!(a.as_u64(), 1 << 32);
        assert_eq!(b.as_u64(), 1);
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ChunkId::new(DatasetId(0), 5) < ChunkId::new(DatasetId(1), 0));
    }
}
