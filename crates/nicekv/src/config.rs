//! System-wide configuration shared by clients, storage nodes, and the
//! metadata service.

use nice_ring::{hash_str, partition_of_hash, PartitionId, VRing};
use node_rt::{Ipv4, Time};

/// The transport port every NICEKV process listens on.
pub(crate) const PORT: u16 = 9000;

/// The client source-address space the load balancer divides (§4.5):
/// 10.0.1.0/24.
pub(crate) const CLIENT_SPACE: (Ipv4, u8) = (Ipv4::new(10, 0, 1, 0), 24);

/// How puts replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutMode {
    /// The NICE-2PC protocol of §4.3 / Figure 3: multicast data, lock,
    /// log, write, timestamp round, sequential consistency.
    TwoPc,
    /// Quorum replication (§6.3): the put completes when any `k` replicas
    /// hold the data (the any-k multicast transport); no 2PC rounds.
    Quorum {
        /// The write-set size.
        k: usize,
    },
}

/// Static configuration every NICEKV process is deployed with. Clients
/// know *only* what this struct holds — virtual rings and the replication
/// level — never physical placement (§3.2).
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Number of hash partitions (power of two).
    pub partitions: u32,
    /// Replication level R.
    pub replication: usize,
    /// The unicast vring (get path).
    pub unicast: VRing,
    /// The multicast vring (put path).
    pub multicast: VRing,
    /// Heartbeat period (§4.1). Failure is declared after three misses.
    pub hb_interval: Time,
    /// Primary-side per-round 2PC timeout; two expiries trigger a failure
    /// report (§4.4 "if a node time-outs twice").
    pub op_timeout: Time,
    /// **Checker-validation fault, never enable outside tests**: break
    /// the §3.3 get-ring-hiding rule by letting rejoining (not yet
    /// caught-up) replicas serve gets. The chaos suite's mutation test
    /// flips this on and asserts the linearizability checker notices.
    pub break_rejoin_get_hiding: bool,
    /// Replication mode.
    pub put_mode: PutMode,
    /// Whether the in-network get load balancer (§4.5) is enabled.
    pub load_balancing: bool,
}

impl KvConfig {
    /// A configuration for `partitions` partitions at replication `r`,
    /// with the paper's deployment defaults.
    pub fn new(partitions: u32, r: usize) -> KvConfig {
        KvConfig {
            partitions,
            replication: r,
            unicast: VRing::unicast(partitions),
            multicast: VRing::multicast(partitions),
            hb_interval: Time::from_ms(500),
            op_timeout: Time::from_ms(500),
            break_rejoin_get_hiding: false,
            put_mode: PutMode::TwoPc,
            load_balancing: true,
        }
    }

    /// The partition `key` hashes into: the top bits of its hash (static,
    /// independent of membership).
    pub fn partition_of(&self, key: &str) -> PartitionId {
        partition_of_hash(hash_str(key), self.partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_core::RETRY_PERIOD;

    #[test]
    fn defaults_are_consistent() {
        let c = KvConfig::new(16, 3);
        assert_eq!(c.unicast.num_subgroups(), 16);
        assert_eq!(c.multicast.num_subgroups(), 16);
        assert_ne!(c.unicast.base(), c.multicast.base());
        assert_eq!(c.put_mode, PutMode::TwoPc);
        // three missed heartbeats must be under the client retry period,
        // or Figure 11's <2 s re-availability window cannot hold.
        assert!(c.hb_interval * 3 < RETRY_PERIOD);
        // the checker-validation fault must default off so the §3.3 rule
        // stays intact.
        assert!(!c.break_rejoin_get_hiding);
    }
}
