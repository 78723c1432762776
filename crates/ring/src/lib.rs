//! # nice-ring — consistent hashing, virtual rings, and placement
//!
//! Implements the addressing layer the NICE paper builds on:
//!
//! * [`hash_key`] — stable 64-bit key hashing (clients, servers, and the
//!   metadata service must agree on `key → partition` without talking),
//! * [`PhysicalRing`] — equal-partition consistent hashing with R-way
//!   replica sets, handoff selection (§4.4), and permanent ring
//!   reconfiguration,
//! * [`VRing`] — the client-visible virtual rings (§3.2): a unicast ring
//!   and a multicast ring, each carved into power-of-two IP-prefix
//!   subgroups that map 1:1 to partitions (these prefixes *are* the
//!   switch match rules),
//! * [`ClientDivisions`] — the source-address divisions of the in-network
//!   load balancer (§4.5).

#![warn(missing_docs)]

pub mod hash;
pub mod physical;
pub mod vring;

pub use hash::{hash_key, hash_str};
pub use physical::{NodeIdx, PartitionId, PhysicalRing};
pub use vring::{ClientDivisions, VRing};

// Randomized property tests, driven by the in-tree seeded PRNG so they
// stay deterministic and build offline (no proptest dependency).
#[cfg(test)]
mod prop_tests {
    use super::*;
    use node_rt::{Ipv4, XorShiftRng};

    fn random_key(rng: &mut XorShiftRng) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:_-";
        let len = rng.random_range(1usize..41);
        (0..len)
            .map(|_| CHARS[rng.random_range(0usize..CHARS.len())] as char)
            .collect()
    }

    /// Every key lands in exactly one partition and its vnode address
    /// maps back to that partition on both rings.
    #[test]
    fn key_to_vnode_roundtrip() {
        let mut rng = XorShiftRng::seed_from_u64(0x4146_0001);
        for _ in 0..128 {
            let key = random_key(&mut rng);
            let parts = 1u32 << rng.random_range(2u32..10);
            let ring = PhysicalRing::new(parts, (0..4).map(NodeIdx).collect(), 3);
            let p = ring.partition_of_key(key.as_bytes());
            assert!(p.0 < parts);
            let u = VRing::unicast(parts);
            let m = VRing::multicast(parts);
            assert_eq!(
                u.partition_of(u.vnode_for_key(p, key.as_bytes())),
                Some(p),
                "key {key:?}"
            );
            assert_eq!(
                m.partition_of(m.vnode_for_key(p, key.as_bytes())),
                Some(p),
                "key {key:?}"
            );
        }
    }

    /// Replica sets always hold R distinct nodes, primary included.
    #[test]
    fn replica_sets_valid() {
        let mut rng = XorShiftRng::seed_from_u64(0x4146_0002);
        for _ in 0..24 {
            let bits = rng.random_range(6u32..10);
            let parts = 1u32 << bits;
            let nodes = rng.random_range(1usize..40).min(parts as usize);
            let r = rng.random_range(1usize..10);
            let ring = PhysicalRing::new(parts, (0..nodes as u32).map(NodeIdx).collect(), r);
            let want = r.min(nodes);
            for p in 0..parts {
                let set = ring.replica_set(PartitionId(p));
                assert_eq!(set.len(), want);
                let mut u = set.to_vec();
                u.sort();
                u.dedup();
                assert_eq!(u.len(), want);
                assert_eq!(set[0], ring.primary(PartitionId(p)));
            }
        }
    }

    /// The handoff node is never part of the replica set nor excluded.
    #[test]
    fn handoff_valid() {
        let mut rng = XorShiftRng::seed_from_u64(0x4146_0003);
        for _ in 0..256 {
            let nodes = rng.random_range(4usize..30);
            let r = rng.random_range(1usize..4);
            let part = rng.random_range(0u32..64);
            let ring = PhysicalRing::new(64, (0..nodes as u32).map(NodeIdx).collect(), r);
            let p = PartitionId(part);
            let excl = [NodeIdx(0), NodeIdx(1)];
            if let Some(h) = ring.handoff_for(p, &excl) {
                assert!(!ring.is_replica(p, h));
                assert!(!excl.contains(&h));
            } else {
                // Only possible when every node is a replica or excluded.
                assert!(nodes <= r.min(nodes) + excl.len());
            }
        }
    }

    /// Subgroup prefixes are disjoint and collectively cover the ring.
    #[test]
    fn subgroups_partition_space() {
        let mut rng = XorShiftRng::seed_from_u64(0x4146_0004);
        for _ in 0..128 {
            let parts = 1u32 << rng.random_range(0u32..12);
            let host = rng.random_range(0u32..65536);
            let v = VRing::unicast(parts);
            let ip = Ipv4(v.base().0 + host);
            let p = v.partition_of(ip).expect("in ring");
            // membership in exactly one subgroup prefix
            let mut hits = 0;
            for q in 0..parts {
                let (net, len) = v.subgroup_prefix(PartitionId(q));
                if ip.in_prefix(net, len) {
                    hits += 1;
                    assert_eq!(q, p.0);
                }
            }
            assert_eq!(hits, 1);
        }
    }

    /// Client divisions: every source address maps to exactly one
    /// division, and the replica index is always < R.
    #[test]
    fn divisions_function() {
        let mut rng = XorShiftRng::seed_from_u64(0x4146_0005);
        for _ in 0..256 {
            let r = rng.random_range(1u32..12);
            let host = rng.random_range(0u32..256);
            let d = ClientDivisions::new(Ipv4::new(10, 0, 0, 0), 24, r);
            let ip = Ipv4(Ipv4::new(10, 0, 0, 0).0 + host);
            let replica = d.replica_for(ip);
            assert!((replica as u32) < r);
        }
    }
}
