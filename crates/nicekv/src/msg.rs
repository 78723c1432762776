//! The NICEKV wire protocol: every message exchanged between clients,
//! storage nodes, and the metadata service. The value and ordering types
//! they carry ([`Value`], [`Timestamp`], [`OpId`]) are protocol, not
//! policy, and live in `kv-core`; they are re-exported here because they
//! appear in the wire format.

use nice_ring::{NodeIdx, PartitionId};
use node_rt::{Ipv4, Time};

pub use kv_core::{OpId, Timestamp, Value};

/// Everything that travels between NICEKV processes.
#[derive(Debug, Clone)]
pub enum KvMsg {
    // ------------------------- client data path -------------------------
    /// Client put, sent to the *multicast* vring address of the key's
    /// partition; the switch replicates it to every replica (§4.2).
    PutRequest {
        /// The key.
        key: String,
        /// The value.
        value: Value,
        /// Identifies the attempt (stable across client retries).
        op: OpId,
    },
    /// Client get, sent to the *unicast* vring address (rewritten by the
    /// switch to the primary, or to a per-client-division replica when
    /// load balancing is on).
    GetRequest {
        /// The key.
        key: String,
        /// Identifies the attempt.
        op: OpId,
    },
    /// Server → client put acknowledgment (over TCP, §5).
    PutReply {
        /// The attempt this answers.
        op: OpId,
        /// Whether the put committed.
        ok: bool,
    },
    /// Server → client get response.
    GetReply {
        /// The attempt this answers.
        op: OpId,
        /// The committed value, if present.
        value: Option<Value>,
        /// Its commit timestamp.
        ts: Option<Timestamp>,
    },

    // ------------------------- 2PC (Figure 3) ---------------------------
    /// Secondary → primary: object locked, logged, and written.
    PutAck1 {
        /// The key.
        key: String,
        /// The attempt.
        op: OpId,
        /// Reporting node.
        from: NodeIdx,
    },
    /// Primary → replicas (via the multicast vring): commit with this
    /// timestamp — the "timestamp message" of Figure 3.
    Commit {
        /// The key.
        key: String,
        /// The attempt being committed.
        op: OpId,
        /// The commit timestamp.
        ts: Timestamp,
    },
    /// Secondary → primary: commit applied, lock released.
    PutAck2 {
        /// The key.
        key: String,
        /// The attempt.
        op: OpId,
        /// Reporting node.
        from: NodeIdx,
    },
    /// Primary → replicas: abandon a pending put (failure handling).
    Abort {
        /// The key.
        key: String,
        /// The attempt being aborted.
        op: OpId,
        /// When the abort was decided: a replica whose lock for `op` is
        /// newer (a client retry re-locked it) drops the abort — it
        /// belongs to the abandoned earlier round.
        issued: Time,
    },

    // -------------------- membership & fault tolerance ------------------
    /// Storage node → metadata service, periodic (UDP): the node is
    /// alive.
    Heartbeat {
        /// Reporting node.
        node: NodeIdx,
    },
    /// Storage node → metadata service: peer looks dead ("a node reports
    /// to the metadata service that another node is irresponsive").
    FailureReport {
        /// The suspect.
        suspect: NodeIdx,
        /// The reporter.
        from: NodeIdx,
    },
    /// Metadata service → storage node: your authoritative view of the
    /// partitions you participate in.
    Membership {
        /// One entry per partition the node serves.
        views: Vec<PartitionView>,
    },
    /// Restarted node → metadata service: let me rejoin.
    RejoinRequest {
        /// The node rejoining.
        node: NodeIdx,
    },
    /// Metadata → rejoining node: fetch missed objects from these handoff
    /// nodes, then report consistency.
    RejoinPlan {
        /// `(partition, handoff ip)` pairs to sync from (handoff may be
        /// absent if nothing was written during the outage).
        sources: Vec<(PartitionId, Option<Ipv4>)>,
    },
    /// Rejoining node → handoff node: send me what I missed.
    HandoffFetch {
        /// Partition to drain.
        partition: PartitionId,
        /// Requesting node.
        from: NodeIdx,
    },
    /// Handoff node → rejoining node: the missed objects.
    HandoffData {
        /// Partition these belong to.
        partition: PartitionId,
        /// `(key, value, timestamp)` triples.
        objects: Vec<(String, Value, Timestamp)>,
    },
    /// Rejoining node → metadata: I hold consistent data; open the get
    /// path (§4.4 "Node Recovery", step 3).
    RecoveryDone {
        /// The recovered node.
        node: NodeIdx,
    },

    // ------------------------ handoff get path --------------------------
    /// Handoff node → primary: a get for an object the handoff does not
    /// have ("the handoff node will forward the request to the primary").
    GetForward {
        /// The key.
        key: String,
        /// The original attempt (reply goes straight to the client).
        op: OpId,
    },

    // ------------------ metadata high availability (§4.1) ---------------
    /// Active metadata service → hot standby: full replicated state.
    /// "the stored metadata is small and changes infrequently … These two
    /// characteristics make maintaining a hot standby server feasible."
    MetaSync {
        /// Every partition view.
        views: Vec<PartitionView>,
        /// Handoff bookkeeping, per partition (see [`HandoffRecord`]).
        handoffs: Vec<(PartitionId, Vec<HandoffRecord>)>,
        /// Node liveness.
        states: Vec<(NodeIdx, NodeState)>,
        /// Current hash-ring membership. Admin reconfigurations mutate
        /// the ring, and a promoted standby computes `partitions_of` /
        /// `replica_set` from *its* ring — without this the two rings
        /// diverge after a failover and rejoins re-add nodes to the
        /// wrong partitions.
        ring_nodes: Vec<NodeIdx>,
    },
    /// Promoted standby → everyone: report to me from now on.
    MetaFailover {
        /// The standby's address.
        new_meta: Ipv4,
    },

    // ---------------------- primary failover (§4.4) ---------------------
    /// Metadata → promoted secondary: you are now the primary of this
    /// partition; run lock resolution.
    BecomePrimary {
        /// Partition being taken over.
        partition: PartitionId,
    },
    /// Secondary → primary: a prepared object's lock went stale (its
    /// commit or abort never arrived, e.g. the node left the multicast
    /// group mid-round) — please re-run lock resolution for the
    /// partition so the orphan is settled one way or the other.
    ResolveRequest {
        /// Partition holding the stale lock.
        partition: PartitionId,
    },
    /// New primary → secondaries: report your locked objects.
    LockQuery {
        /// Partition being resolved.
        partition: PartitionId,
    },
    /// Secondary → new primary: lock table for the partition.
    LockReport {
        /// Partition reported.
        partition: PartitionId,
        /// Reporting node.
        from: NodeIdx,
        /// `(key, op, committed_ts)`: committed_ts is set if this node
        /// already committed that attempt.
        locked: Vec<(String, OpId, Option<Timestamp>)>,
        /// Highest primary_seq this node has ever applied (the new
        /// primary's sequence floor).
        max_seq: u64,
    },
}

/// One handoff bookkeeping record: `(failed original, stand-in, chain
/// complete)`. `complete` is false when a previous stand-in died, so the
/// original's rejoin must drain from the primary instead.
pub type HandoffRecord = (NodeIdx, NodeIdx, bool);

/// Liveness state of a storage node, as tracked (and replicated to the
/// hot standby) by the metadata service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving both rings.
    Up,
    /// Hidden from both rings (§4.4 failure hiding).
    Down,
    /// In the multicast (put) ring only — receiving writes but not yet
    /// consistent (§4.4 node recovery, phase 1).
    Rejoining,
}

/// A node's role in one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Primary replica.
    Primary,
    /// Secondary replica.
    Secondary,
    /// Temporary handoff replica (§4.4).
    Handoff,
}

/// The authoritative description of one partition, as distributed by the
/// metadata service. Nodes only ever receive views for partitions they
/// participate in — the O(R) membership knowledge of §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionView {
    /// The partition.
    pub partition: PartitionId,
    /// Current primary.
    pub primary: NodeIdx,
    /// All *currently active* members (primary, live secondaries, and any
    /// handoff), with their addresses. This is the multicast group.
    pub members: Vec<(NodeIdx, Ipv4)>,
    /// Handoff members currently standing in for failed originals (§4.4).
    pub handoffs: Vec<NodeIdx>,
    /// Members still retrieving data (admin ring reconfiguration, §4.4):
    /// they participate in puts but are not yet get-visible.
    pub syncing: Vec<NodeIdx>,
}

impl PartitionView {
    /// The address of `node` within this view.
    pub fn addr_of(&self, node: NodeIdx) -> Option<Ipv4> {
        self.members
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, ip)| ip)
    }

    /// The primary's address. `None` when the primary is missing from
    /// the member list — a malformed view, which callers treat like a
    /// stale one (drop the message) rather than crashing the server.
    pub fn primary_addr(&self) -> Option<Ipv4> {
        self.addr_of(self.primary)
    }

    /// Number of active members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the view has no members (never happens in a live system).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_view_lookup() {
        let v = PartitionView {
            partition: PartitionId(3),
            primary: NodeIdx(1),
            members: vec![
                (NodeIdx(1), Ipv4::new(10, 0, 0, 11)),
                (NodeIdx(2), Ipv4::new(10, 0, 0, 12)),
            ],
            handoffs: Vec::new(),
            syncing: Vec::new(),
        };
        assert_eq!(v.primary_addr(), Some(Ipv4::new(10, 0, 0, 11)));
        assert_eq!(v.addr_of(NodeIdx(2)), Some(Ipv4::new(10, 0, 0, 12)));
        assert_eq!(v.addr_of(NodeIdx(9)), None);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }
}
