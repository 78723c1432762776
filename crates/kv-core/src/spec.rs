//! The system-agnostic half of the layered cluster configuration.
//!
//! Every deployment in this workspace — NICE or NOOB, simulated or on
//! the real UDP runtime — is described by the same three layers:
//!
//! 1. [`ClusterSpec`] (this module): what the *cluster* is, independent
//!    of system and host — node counts, replication, partitioning, the
//!    storage device model, and client retry/deadline behaviour.
//! 2. A host config owned by the host crate: `SimHostCfg` (client start
//!    time, fault plan) for the simulator,
//!    `UdpHostCfg` (WAL root, socket nemesis) for the threaded runtime.
//! 3. A system config owned by the system crate: NICE's `KvConfig`
//!    (vrings, server timers, put mode), NOOB's access/mode knobs.
//!
//! The split keeps A/B experiments honest: handing the *same*
//! `ClusterSpec` to both systems guarantees they differ only in the
//! layers above it.

use crate::client::RetryPolicy;
use crate::store::StorageCfg;
use crate::telemetry::TelemetryCfg;
use node_rt::Time;

/// System- and host-agnostic description of a cluster deployment.
///
/// Construct with [`ClusterSpec::new`] and override fields directly;
/// the struct is plain data — there is no builder.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Determinism seed (per-host RNG streams derive from it).
    pub seed: u64,
    /// Storage node count.
    pub nodes: usize,
    /// Spare nodes deployed idle, available for admin replacement.
    pub spares: usize,
    /// Replication level R.
    pub replication: usize,
    /// Hash partition count; `None` picks the deployment default
    /// (node count rounded up to a power of two, at least 16).
    pub partitions: Option<u32>,
    /// Storage device model (write bandwidth, op latency).
    pub storage: StorageCfg,
    /// Client retry schedule override, the one retry knob of every
    /// deployment. `None` keeps the fixed [`crate::RETRY_PERIOD`] (§6.6).
    pub retry: Option<RetryPolicy>,
    /// Clients retry `NotFound` gets with a short backoff.
    pub retry_not_found: bool,
    /// Total per-operation deadline: a retry firing past this budget
    /// fails the op with `Timeout` instead of burning the whole attempt
    /// budget. `None` = attempts only.
    pub op_deadline: Option<Time>,
    /// Telemetry configuration (it has no settings).
    pub telemetry: TelemetryCfg,
}

impl ClusterSpec {
    /// A spec for `nodes` storage nodes at replication `replication`,
    /// with the deployment defaults used throughout the workspace.
    pub fn new(nodes: usize, replication: usize) -> ClusterSpec {
        ClusterSpec {
            seed: 42,
            nodes,
            spares: 0,
            replication,
            partitions: None,
            storage: StorageCfg::default(),
            retry: None,
            retry_not_found: false,
            op_deadline: None,
            telemetry: TelemetryCfg,
        }
    }

    /// The effective partition count: the explicit override, or the
    /// deployment default (nodes rounded up to a power of two, min 16).
    pub fn partition_count(&self) -> u32 {
        self.partitions
            .unwrap_or_else(|| (self.nodes.next_power_of_two() as u32).max(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_default_rounds_up_to_power_of_two_min_16() {
        assert_eq!(ClusterSpec::new(3, 2).partition_count(), 16);
        assert_eq!(ClusterSpec::new(15, 3).partition_count(), 16);
        assert_eq!(ClusterSpec::new(17, 3).partition_count(), 32);
        let mut s = ClusterSpec::new(3, 2);
        s.partitions = Some(64);
        assert_eq!(s.partition_count(), 64);
    }

    #[test]
    fn defaults_are_plain() {
        let s = ClusterSpec::new(8, 3);
        assert_eq!(s.seed, 42);
        assert_eq!(s.spares, 0);
        assert!(s.retry.is_none());
        assert!(s.op_deadline.is_none());
        assert!(!s.retry_not_found);
    }
}
