//! Typed errors for the KV request paths and public client API.
//!
//! The request paths must never panic (`xtask lint` rule
//! `panic-path`): lookups that "cannot fail" under correct operation are
//! still total functions here. When one does fail — a coordinator record
//! vanishing mid-2PC, an in-flight slot missing while a token arrives, a
//! partition view evaporating under the metadata service — the failure
//! surfaces as a [`KvError`] that is counted and retained so the node
//! degrades one operation instead of crashing the process.
//!
//! The same enum is the public operation-outcome type: a completed
//! client operation carries `Result<(), KvError>`
//! ([`crate::OpRecord::result`]) instead of a bare bool, so callers can
//! distinguish "key absent" from "cluster unreachable".

use crate::types::{OpId, PartitionId};
use std::error::Error;
use std::fmt;

/// A typed failure in the KV request path or client API.
///
/// The `*Missing` variants describe states that are unreachable when the
/// protocol state machines are correct; producing one is a bug, but a
/// bug that should fail a single operation, not the node. The remaining
/// variants are ordinary operation outcomes (not found, timed out,
/// rejected) surfaced to callers as typed errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The 2PC coordinator record for `(key, op)` disappeared while the
    /// operation was still advancing (between ack collection, commit, and
    /// the deadline continuation).
    CoordinatorMissing {
        /// Key of the put being coordinated.
        key: String,
        /// Operation id of the put.
        op: OpId,
    },
    /// A transport token arrived for a client slot that holds no
    /// in-flight operation.
    InflightMissing {
        /// Operation id the token was issued for.
        op: OpId,
    },
    /// A get found no committed value under the key.
    NotFound {
        /// The key that was read.
        key: String,
    },
    /// The server rejected a put (lock conflict that never healed within
    /// the client's retry budget).
    PutRejected {
        /// The key that was written.
        key: String,
    },
    /// The client used its whole retry budget without a conclusive reply
    /// (a client-side timeout; the operation may or may not have taken
    /// effect, which is why histories treat it as indeterminate).
    Timeout {
        /// The key of the abandoned operation.
        key: String,
        /// Attempts used before giving up.
        attempts: u32,
    },
    /// The metadata service has no view for a partition it was asked to
    /// mutate — the partition map and the ring disagree.
    ViewMissing {
        /// The partition without a view.
        partition: PartitionId,
    },
    /// A membership change found no eligible node to take over a role
    /// (promotion, handoff, or division assignment).
    NoEligibleNode {
        /// The partition needing a member, if the failure is per-partition.
        partition: Option<PartitionId>,
    },
    /// The durable log could not force appended records to stable
    /// storage before an acknowledgement (an I/O error on the WAL):
    /// the ack discipline is broken and the node is no longer
    /// crash-safe.
    WalFailed {
        /// The key whose acknowledgement lacked durability.
        key: String,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::CoordinatorMissing { key, op } => {
                write!(
                    f,
                    "2PC coordinator record missing for key {key:?} op {op:?}"
                )
            }
            KvError::InflightMissing { op } => {
                write!(f, "no in-flight client operation for op {op:?}")
            }
            KvError::NotFound { key } => write!(f, "key {key:?} not found"),
            KvError::PutRejected { key } => write!(f, "put of key {key:?} rejected"),
            KvError::Timeout { key, attempts } => {
                write!(f, "timed out on key {key:?} after {attempts} attempts")
            }
            KvError::ViewMissing { partition } => {
                write!(f, "no view for partition {}", partition.0)
            }
            KvError::NoEligibleNode { partition } => match partition {
                Some(p) => write!(f, "no eligible node for partition {}", p.0),
                None => write!(f, "no eligible node"),
            },
            KvError::WalFailed { key } => {
                write!(f, "WAL sync failed before acknowledging key {key:?}")
            }
        }
    }
}

impl Error for KvError {}

#[cfg(test)]
mod tests {
    use super::*;
    use node_rt::Ipv4;

    fn op() -> OpId {
        OpId {
            client: Ipv4::new(10, 0, 0, 1),
            client_seq: 7,
        }
    }

    #[test]
    fn display_names_the_key_and_op() {
        let e = KvError::CoordinatorMissing {
            key: "user1".to_owned(),
            op: op(),
        };
        let s = e.to_string();
        assert!(s.contains("user1"), "{s}");
        assert!(s.contains("coordinator"), "{s}");
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn Error> = Box::new(KvError::InflightMissing { op: op() });
        assert!(e.to_string().contains("in-flight"));
    }
}
