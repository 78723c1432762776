//! System-wide configuration shared by clients, storage nodes, and the
//! metadata service.

use kv_core::{RetryPolicy, TelemetryCfg};
use nice_ring::{hash_str, PartitionId, VRing};
use node_rt::{Ipv4, Time};

/// Optional exponential-backoff upgrade for the client retry schedule.
/// `None` keeps the paper's fixed period (§6.6), which is what fig11
/// plots; the chaos harness switches it on to decorrelate retry storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBackoff {
    /// Upper bound any single delay is clamped to.
    pub cap: Time,
    /// Jitter strength in percent (see [`RetryPolicy::jitter_pct`]).
    pub jitter_pct: u32,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

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
    /// The transport port every NICEKV process listens on.
    pub port: u16,
    /// Heartbeat period (§4.1). Failure is declared after three misses.
    pub hb_interval: Time,
    /// Primary-side per-round 2PC timeout; two expiries trigger a failure
    /// report (§4.4 "if a node time-outs twice").
    pub op_timeout: Time,
    /// Client retry delay ("the client will retry after waiting for 2
    /// seconds", §6.6).
    pub client_retry: Time,
    /// Exponential backoff + jitter on top of `client_retry`; `None`
    /// (the default) keeps the fixed §6.6 period.
    pub retry_backoff: Option<RetryBackoff>,
    /// **Checker-validation fault, never enable outside tests**: break
    /// the §3.3 get-ring-hiding rule by letting rejoining (not yet
    /// caught-up) replicas serve gets. The chaos suite's mutation test
    /// flips this on and asserts the linearizability checker notices.
    pub break_rejoin_get_hiding: bool,
    /// Replication mode.
    pub put_mode: PutMode,
    /// Whether the in-network get load balancer (§4.5) is enabled.
    pub load_balancing: bool,
    /// Workload-informed adaptive rebalancing (the paper's stated future
    /// work): reassign client divisions to replicas using the per-range
    /// get statistics from heartbeats, instead of static round-robin.
    pub adaptive_lb: bool,
    /// The client source-address space the load balancer divides.
    pub client_space: (Ipv4, u8),
    /// Telemetry configuration handed to every server engine.
    pub telemetry: TelemetryCfg,
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
            port: 9000,
            hb_interval: Time::from_ms(500),
            op_timeout: Time::from_ms(500),
            client_retry: Time::from_secs(2),
            retry_backoff: None,
            break_rejoin_get_hiding: false,
            put_mode: PutMode::TwoPc,
            load_balancing: true,
            adaptive_lb: false,
            client_space: (Ipv4::new(10, 0, 1, 0), 24),
            telemetry: TelemetryCfg::default(),
        }
    }

    /// The partition `key` hashes into: the top bits of its hash (static,
    /// independent of membership).
    pub fn partition_of(&self, key: &str) -> PartitionId {
        PartitionId((hash_str(key) >> (64 - self.partitions.trailing_zeros())) as u32)
    }

    /// The client retry schedule this config describes: the fixed §6.6
    /// period, or exponential backoff when `retry_backoff` is set.
    pub fn retry_policy(&self) -> RetryPolicy {
        match self.retry_backoff {
            None => RetryPolicy::fixed(self.client_retry),
            Some(b) => RetryPolicy {
                base: self.client_retry,
                cap: b.cap,
                exponential: true,
                jitter_pct: b.jitter_pct,
                seed: b.seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = KvConfig::new(16, 3);
        assert_eq!(c.unicast.num_subgroups(), 16);
        assert_eq!(c.multicast.num_subgroups(), 16);
        assert_ne!(c.unicast.base(), c.multicast.base());
        assert_eq!(c.put_mode, PutMode::TwoPc);
        // three missed heartbeats must be under the client retry period,
        // or Figure 11's <2 s re-availability window cannot hold.
        assert!(c.hb_interval * 3 < c.client_retry);
        // the chaos knobs must default off so fig11 keeps the paper's
        // fixed-period retries and the §3.3 rule stays intact.
        assert_eq!(c.retry_backoff, None);
        assert!(!c.break_rejoin_get_hiding);
        assert_eq!(c.retry_policy(), RetryPolicy::fixed(c.client_retry));
    }

    #[test]
    fn backoff_knob_switches_the_policy() {
        let mut c = KvConfig::new(16, 3);
        c.retry_backoff = Some(RetryBackoff {
            cap: Time::from_secs(8),
            jitter_pct: 30,
            seed: 5,
        });
        let p = c.retry_policy();
        assert!(p.exponential);
        assert_eq!(p.base, c.client_retry);
        assert_eq!(p.cap, Time::from_secs(8));
    }
}
