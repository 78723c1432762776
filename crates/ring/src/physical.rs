//! The physical consistent-hashing ring: equal partitions of the 64-bit
//! object space assigned to storage nodes with an R-way replica set each.
//!
//! "Nodes are placed in a consistent hashing ring, such that each node
//! serves part of the ring. … Every storage node is the primary replica
//! for one or more partitions, and can serve as a secondary replica for
//! other partitions." (§3.1)
//!
//! We use the equal-partition variant of consistent hashing (as Dynamo's
//! production strategy does): the space is split into `P` equal partitions
//! (`P` a power of two, so partitions correspond 1:1 to vring IP-prefix
//! subgroups, §3.2), and nodes take turns as primaries. The replica set of
//! a partition is its primary followed by the next `R-1` distinct nodes
//! walking the ring.

use crate::hash::hash_key;

pub use kv_core::{NodeIdx, PartitionId};

/// The partition hash `h` falls in when the object space is split into
/// `partitions` (a power of two) equal partitions: the top
/// log2(`partitions`) bits of `h`. Every key → partition mapping goes
/// through here.
#[inline]
pub fn partition_of_hash(h: u64, partitions: u32) -> PartitionId {
    PartitionId((h >> (64 - partitions.trailing_zeros())) as u32)
}

/// The static placement: partitions, nodes, and replica sets.
#[derive(Debug, Clone)]
pub struct PhysicalRing {
    /// log2 of the partition count.
    bits: u32,
    /// Replication level R.
    replication: usize,
    /// Node order around the ring (the "ring positions").
    nodes: Vec<NodeIdx>,
    /// `replica_sets[p]` = primary first, then R-1 secondaries.
    replica_sets: Vec<Vec<NodeIdx>>,
}

impl PhysicalRing {
    /// Build a ring of `num_partitions` (must be a power of two, and at
    /// least the node count) over `nodes` with replication level
    /// `replication` (clamped to the node count).
    ///
    /// # Panics
    /// If `num_partitions` is not a power of two, is zero, or is smaller
    /// than the node count; or if `nodes` is empty or `replication` is 0.
    pub fn new(num_partitions: u32, nodes: Vec<NodeIdx>, replication: usize) -> PhysicalRing {
        assert!(
            num_partitions.is_power_of_two(),
            "partition count must be a power of two"
        );
        assert!(!nodes.is_empty(), "ring needs at least one node");
        assert!(replication >= 1, "replication level must be at least 1");
        assert!(
            num_partitions as usize >= nodes.len(),
            "need at least one partition per node"
        );
        let replication = replication.min(nodes.len());
        let mut ring = PhysicalRing {
            bits: num_partitions.trailing_zeros(),
            replication,
            nodes,
            replica_sets: Vec::new(),
        };
        ring.rebuild();
        ring
    }

    fn rebuild(&mut self) {
        let p = self.num_partitions() as usize;
        let n = self.nodes.len();
        self.replica_sets = (0..p)
            .map(|part| {
                // Walk the ring once from the partition's home position,
                // collecting distinct nodes until the set is full.
                let mut set = Vec::with_capacity(self.replication);
                let start = part % n;
                for off in 0..n {
                    if set.len() >= self.replication {
                        break;
                    }
                    if let Some(&cand) = self.nodes.get((start + off) % n) {
                        if !set.contains(&cand) {
                            set.push(cand);
                        }
                    }
                }
                set
            })
            .collect();
    }

    /// Number of partitions (a power of two).
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        1 << self.bits
    }

    /// Replication level R.
    #[inline]
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The nodes currently in the ring, in ring order.
    pub fn nodes(&self) -> &[NodeIdx] {
        &self.nodes
    }

    /// Map a hash to its partition: [`partition_of_hash`] over this ring's partitions.
    #[inline]
    pub fn partition_of_hash(&self, h: u64) -> PartitionId {
        partition_of_hash(h, self.num_partitions())
    }

    /// Map a key to its partition.
    #[inline]
    pub fn partition_of_key(&self, key: &[u8]) -> PartitionId {
        self.partition_of_hash(hash_key(key))
    }

    /// The replica set of `p`: primary first, then `R-1` secondaries.
    /// Empty for a partition id outside the ring (callers treat that as
    /// "no replicas" instead of panicking on a request path).
    #[inline]
    pub fn replica_set(&self, p: PartitionId) -> &[NodeIdx] {
        self.replica_sets
            .get(p.0 as usize)
            .map_or(&[][..], Vec::as_slice)
    }

    /// The primary replica of `p` (the ring's first node if `p` is
    /// somehow outside the ring — degraded routing, not a panic).
    #[inline]
    pub fn primary(&self, p: PartitionId) -> NodeIdx {
        self.replica_set(p).first().copied().unwrap_or(NodeIdx(0))
    }

    /// Is `node` a member of `p`'s replica set?
    pub fn is_replica(&self, p: PartitionId, node: NodeIdx) -> bool {
        self.replica_set(p).contains(&node)
    }

    /// All partitions where `node` appears (as primary or secondary).
    pub fn partitions_of(&self, node: NodeIdx) -> Vec<PartitionId> {
        (0..self.num_partitions())
            .map(PartitionId)
            .filter(|&p| self.is_replica(p, node))
            .collect()
    }

    /// Pick a handoff node for partition `p`: "Any storage node in the
    /// system that is not already part of the effected replication set"
    /// (§4.4). Deterministic: the first eligible node walking the ring
    /// from `p`'s replica range, skipping `exclude` (e.g. other failed
    /// nodes).
    pub fn handoff_for(&self, p: PartitionId, exclude: &[NodeIdx]) -> Option<NodeIdx> {
        let n = self.nodes.len();
        let start = p.0 as usize % n;
        for off in 0..n {
            let Some(&cand) = self.nodes.get((start + off) % n) else {
                continue;
            };
            if !self.is_replica(p, cand) && !exclude.contains(&cand) {
                return Some(cand);
            }
        }
        None
    }

    /// Permanently add a node (ring reconfiguration, §4.4). Partitions are
    /// re-spread; returns the partitions whose replica set changed.
    pub fn add_node(&mut self, node: NodeIdx) -> Vec<PartitionId> {
        assert!(!self.nodes.contains(&node), "node already in ring");
        let before = self.replica_sets.clone();
        self.nodes.push(node);
        self.replication = self.replication.min(self.nodes.len());
        self.rebuild();
        self.diff(&before)
    }

    /// Permanently remove a node; returns the partitions whose replica set
    /// changed.
    ///
    /// # Panics
    /// If removing the last node.
    pub fn remove_node(&mut self, node: NodeIdx) -> Vec<PartitionId> {
        assert!(self.nodes.len() > 1, "cannot remove the last node");
        let before = self.replica_sets.clone();
        self.nodes.retain(|&n| n != node);
        self.replication = self.replication.min(self.nodes.len());
        self.rebuild();
        self.diff(&before)
    }

    fn diff(&self, before: &[Vec<NodeIdx>]) -> Vec<PartitionId> {
        self.replica_sets
            .iter()
            .enumerate()
            .filter(|&(i, set)| before.get(i) != Some(set))
            .map(|(i, _)| PartitionId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeIdx> {
        (0..n).map(NodeIdx).collect()
    }

    #[test]
    fn replica_sets_are_distinct_and_sized() {
        let ring = PhysicalRing::new(32, nodes(15), 3);
        for p in 0..32 {
            let set = ring.replica_set(PartitionId(p));
            assert_eq!(set.len(), 3);
            let mut uniq = set.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "partition {p} has duplicate replicas");
        }
    }

    #[test]
    fn replication_clamped_to_node_count() {
        let ring = PhysicalRing::new(4, nodes(2), 5);
        assert_eq!(ring.replication(), 2);
        assert_eq!(ring.replica_set(PartitionId(0)).len(), 2);
    }

    #[test]
    fn primary_load_is_balanced() {
        // 64 partitions over 16 nodes: each node primary for exactly 4.
        let ring = PhysicalRing::new(64, nodes(16), 3);
        let mut counts = vec![0; 16];
        for p in 0..64 {
            counts[ring.primary(PartitionId(p)).0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn partition_of_hash_uses_top_bits() {
        let ring = PhysicalRing::new(16, nodes(4), 2);
        assert_eq!(ring.partition_of_hash(0), PartitionId(0));
        assert_eq!(ring.partition_of_hash(u64::MAX), PartitionId(15));
        assert_eq!(ring.partition_of_hash(1 << 60), PartitionId(1));
    }

    #[test]
    fn handoff_not_in_replica_set() {
        let ring = PhysicalRing::new(16, nodes(15), 3);
        for p in 0..16 {
            let p = PartitionId(p);
            let h = ring.handoff_for(p, &[]).unwrap();
            assert!(!ring.is_replica(p, h));
        }
    }

    #[test]
    fn handoff_respects_exclusions() {
        let ring = PhysicalRing::new(8, nodes(5), 3);
        let p = PartitionId(0);
        let h1 = ring.handoff_for(p, &[]).unwrap();
        let h2 = ring.handoff_for(p, &[h1]).unwrap();
        assert_ne!(h1, h2);
        assert!(!ring.is_replica(p, h2));
        // with everything excluded there is no handoff
        let all: Vec<_> = ring.nodes().to_vec();
        assert_eq!(ring.handoff_for(p, &all), None);
    }

    #[test]
    fn node_addition_moves_few_partitions() {
        let mut ring = PhysicalRing::new(64, nodes(8), 3);
        let changed = ring.add_node(NodeIdx(100));
        // Adding one node must not reshuffle everything: with round-robin
        // equal partitions some movement is expected, but the new node
        // must now appear somewhere and sets stay valid.
        assert!(!changed.is_empty());
        assert!(!ring.partitions_of(NodeIdx(100)).is_empty());
        for p in 0..64 {
            let set = ring.replica_set(PartitionId(p));
            let mut u = set.to_vec();
            u.sort();
            u.dedup();
            assert_eq!(u.len(), set.len());
        }
    }

    #[test]
    fn node_removal_keeps_coverage() {
        let mut ring = PhysicalRing::new(16, nodes(4), 3);
        ring.remove_node(NodeIdx(2));
        for p in 0..16 {
            let set = ring.replica_set(PartitionId(p));
            assert_eq!(set.len(), 3);
            assert!(!set.contains(&NodeIdx(2)));
        }
    }

    #[test]
    fn partitions_of_covers_every_partition_r_times() {
        let ring = PhysicalRing::new(32, nodes(8), 3);
        let total: usize = ring
            .nodes()
            .iter()
            .map(|&n| ring.partitions_of(n).len())
            .sum();
        assert_eq!(total, 32 * 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        PhysicalRing::new(12, nodes(4), 2);
    }
}
