//! Identity and value types shared by every layer of both systems.

use std::rc::Rc;

use node_rt::Ipv4;

/// Index of a storage node (dense, assigned by the cluster builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

/// A partition number in `0..num_partitions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// A stored value. Benchmarks move multi-megabyte objects, so the value
/// carries real bytes *plus* a logical padding size: tests use real bytes
/// (`pad = 0`), benchmarks use empty bytes with `pad = object size`. All
/// transfer-time accounting uses [`Value::size`].
#[derive(Debug, Clone)]
pub struct Value {
    /// Actual bytes (asserted on in tests).
    pub bytes: Rc<Vec<u8>>,
    /// Additional logical bytes (benchmark payload padding).
    pub pad: u32,
}

impl Value {
    /// A value from real bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Value {
        Value {
            bytes: Rc::new(bytes),
            pad: 0,
        }
    }

    /// A synthetic value of `size` logical bytes.
    pub fn synthetic(size: u32) -> Value {
        Value {
            bytes: Rc::new(Vec::new()),
            pad: size,
        }
    }

    /// Logical size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32 + self.pad
    }
}

/// The put-ordering timestamp of §4.3: "The timestamp contains the
/// following quadruplet: primary address, primary timestamp, client
/// address, and client timestamp. The timestamp creates an order between
/// put operations to the same object, even between retrials of the put
/// operation by the same client."
///
/// Ordering is lexicographic on `(primary_seq, primary, client_seq,
/// client)`: a primary's sequence number advances per commit, so commits
/// by one primary are totally ordered; across primary failovers the new
/// primary continues from a higher sequence (it learns the floor during
/// lock resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// The committing primary's sequence number.
    pub primary_seq: u64,
    /// The committing primary's address.
    pub primary: Ipv4,
    /// The client's per-operation sequence number.
    pub client_seq: u64,
    /// The client's address.
    pub client: Ipv4,
}

/// Identifies one client put attempt (used to dedupe retries and to pair
/// acks with pending operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId {
    /// Client address.
    pub client: Ipv4,
    /// Client sequence number.
    pub client_seq: u64,
}

/// Approximate wire size of small protocol messages (acks, queries).
pub const CTRL_MSG_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_sizes() {
        assert_eq!(Value::from_bytes(vec![1, 2, 3]).size(), 3);
        assert_eq!(Value::synthetic(1 << 20).size(), 1 << 20);
        let v = Value {
            bytes: Rc::new(vec![0; 10]),
            pad: 5,
        };
        assert_eq!(v.size(), 15);
    }

    #[test]
    fn timestamp_total_order() {
        let a = Timestamp {
            primary_seq: 1,
            primary: Ipv4::new(10, 0, 0, 1),
            client_seq: 5,
            client: Ipv4::new(10, 0, 1, 1),
        };
        let mut b = a;
        b.primary_seq = 2;
        assert!(b > a, "later primary seq wins");
        let mut c = a;
        c.client_seq = 6;
        assert!(c > a, "same primary seq: later client attempt wins");
        // retry of the same client op through a different primary
        let mut d = a;
        d.primary = Ipv4::new(10, 0, 0, 2);
        assert_ne!(d, a);
        assert!(d != a, "total order");
    }
}
