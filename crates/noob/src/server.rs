//! The NOOB storage node: full-membership, end-host replication.
//!
//! Every node knows the complete placement (§2.1 "full-membership model")
//! and implements replication itself: a put received at the primary is
//! copied to each secondary over a separate TCP stream — the same data
//! leaves the primary's NIC R-1 times, which is exactly the inefficiency
//! the paper's Figures 5–7 quantify.
//!
//! The put state machines (2PC, primary-only, quorum) are the shared
//! [`kv_core::TwoPcEngine`] — identical to NICEKV's by
//! construction. This file owns what makes NOOB the baseline: full ring
//! knowledge, request forwarding hops, R-1 unicast data fan-out, and
//! chain replication, which has no engine state machine of its own: the
//! hops are choreographed here from the engine's `stage_write`,
//! `sync_object` and `apply_copy`.

use std::collections::BTreeSet;
use std::path::Path;

use kv_core::{
    Effect, EngineCfg, EngineRole, Group, MetricsRegistry, ObjectStore, StorageCfg, TelemetryCfg,
    TwoPcEngine, CTRL_MSG_BYTES,
};
use nice_kv::{OpId, Timestamp, Value};
use nice_ring::{NodeIdx, PartitionId, PhysicalRing};
use nice_transport::endpoint::{CTRL_COST, REQ_COST};
use nice_transport::{Endpoint, Fired};
use node_rt::{Ipv4, NodeApp, NodeIo, Packet, Time};

use crate::msg::{NoobMode, NoobMsg};

/// Timer token for abandoning the rejoin sync phase.
const TOK_SYNC_GIVEUP: u64 = 900;
/// How long a rejoining node waits for peer sync responses before
/// serving gets from its own store anyway (every peer may be down).
const SYNC_GIVEUP: Time = Time::from_secs(2);

/// Shared deployment knowledge: the full membership every NOOB node and
/// RAC client holds.
#[derive(Clone)]
pub struct NoobRing {
    /// Placement.
    pub ring: PhysicalRing,
    /// Node addresses, indexed by `NodeIdx`.
    pub addrs: Vec<Ipv4>,
    /// Service port.
    pub port: u16,
}

impl NoobRing {
    /// Partition of a key.
    pub fn partition_of(&self, key: &str) -> PartitionId {
        self.ring.partition_of_key(key.as_bytes())
    }

    /// Address of node `n`; falls back to the unroutable zero address
    /// (a send to it drops silently, degrading one request) if the index
    /// is somehow outside the membership.
    pub fn addr_of(&self, n: NodeIdx) -> Ipv4 {
        self.addrs.get(n.0 as usize).copied().unwrap_or(Ipv4(0))
    }

    /// Primary address for a key.
    pub fn primary_addr(&self, key: &str) -> Ipv4 {
        self.addr_of(self.ring.primary(self.partition_of(key)))
    }

    /// All replica addresses for a key (primary first).
    pub fn replica_addrs(&self, key: &str) -> Vec<Ipv4> {
        self.ring
            .replica_set(self.partition_of(key))
            .iter()
            .map(|&n| self.addr_of(n))
            .collect()
    }
}

/// A storage write that finished, by the role this node wrote it in —
/// the only work the baseline ever defers.
enum Written {
    /// Local write finished: continue the put state machine.
    Primary { key: String, op: OpId },
    /// Secondary write finished: ack the primary.
    Secondary {
        key: String,
        op: OpId,
        primary: Ipv4,
    },
    /// Chain write finished: pass the baton.
    Chain {
        key: String,
        op: OpId,
        remaining: Vec<Ipv4>,
        client: Ipv4,
    },
}

/// The NOOB storage node.
pub struct NoobServerApp {
    ring: NoobRing,
    node: NodeIdx,
    mode: NoobMode,
    ep: Endpoint<NoobMsg, Written>,
    engine: TwoPcEngine,
    /// Peers whose rejoin sync response is still outstanding; while
    /// non-empty, gets are forwarded instead of served locally.
    sync_pending: BTreeSet<NodeIdx>,
    /// WAL records replayed at construction (0 on a cold start).
    recovered: usize,
}

impl NoobServerApp {
    fn engine_cfg(storage: StorageCfg) -> EngineCfg {
        EngineCfg {
            storage,
            // The baseline runs no coordinator deadlines, commits
            // inline the moment the primary generates the timestamp,
            // and keeps tentative values in memory only. With no
            // deadline machinery, a lock abandoned by a crashed peer
            // or a given-up client is only ever reclaimed by the TTL;
            // it must outlast the longest client retry gap (2 s fixed,
            // or the chaos harness's 1.6 s cap + 30 % jitter).
            op_timeout: None,
            inline_commit: true,
            durable_pending: false,
            stale_lock_ttl: Some(Time::from_secs(3)),
        }
    }

    fn from_engine(
        ring: NoobRing,
        node: NodeIdx,
        mode: NoobMode,
        engine: TwoPcEngine,
        recovered: usize,
    ) -> NoobServerApp {
        NoobServerApp {
            ep: Endpoint::new(ring.port, msg_cost),
            ring,
            node,
            mode,
            engine,
            sync_pending: BTreeSet::new(),
            recovered,
        }
    }

    /// A node `node` in the deployment `ring` (memory-only durability
    /// model: the simulator's crash semantics).
    pub fn new(
        ring: NoobRing,
        node: NodeIdx,
        mode: NoobMode,
        storage: StorageCfg,
    ) -> NoobServerApp {
        let engine = TwoPcEngine::new(Self::engine_cfg(storage));
        Self::from_engine(ring, node, mode, engine, 0)
    }

    /// A node backed by a file WAL under `wal_dir`: every ack reaches
    /// stable storage first, and constructing the app replays whatever
    /// the previous incarnation synced — committed objects, the 2PC
    /// persistent-log entries, and in-doubt locks.
    ///
    /// If the WAL cannot be opened (I/O error) the node degrades to the
    /// memory-only model rather than refusing to serve. `_telemetry` has
    /// no settings (see [`TelemetryCfg`]).
    pub fn with_wal(
        ring: NoobRing,
        node: NodeIdx,
        mode: NoobMode,
        storage: StorageCfg,
        _telemetry: TelemetryCfg,
        wal_dir: &Path,
    ) -> NoobServerApp {
        let path = wal_dir.join(format!("node-{}.wal", node.0));
        let (engine, recovered) = TwoPcEngine::recover(Self::engine_cfg(storage), &path);
        Self::from_engine(ring, node, mode, engine, recovered)
    }

    /// The local store (inspection).
    pub fn store(&self) -> &ObjectStore {
        self.engine.store()
    }

    /// WAL records replayed when this incarnation was built.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Still in the rejoin sync phase (gets are forwarded meanwhile)?
    pub fn is_syncing(&self) -> bool {
        !self.sync_pending.is_empty()
    }

    /// The node's full metrics snapshot: engine phase histograms and
    /// WAL facts, protocol counters under `engine.*`, and transport
    /// reliability effort under `transport.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.engine.metrics();
        for (name, n) in self.ep.stats().named() {
            m.add(name, n);
        }
        m
    }

    fn i_am_primary(&self, key: &str) -> bool {
        self.ring.ring.primary(self.ring.partition_of(key)) == self.node
    }

    /// The engine's view of a key's replica group: every replica that
    /// must ack, excluding this node.
    fn group_for(&self, key: &str, ctx: &dyn NodeIo) -> Group {
        Group {
            peers: self
                .ring
                .ring
                .replica_set(self.ring.partition_of(key))
                .iter()
                .copied()
                .filter(|&n| n != self.node)
                .collect(),
            self_addr: ctx.ip(),
        }
    }

    /// Distribute a commit timestamp to every secondary: R-1 unicasts.
    fn send_ts(&mut self, key: &str, op: OpId, ts: Timestamp, ctx: &mut dyn NodeIo) {
        let replicas = self.ring.replica_addrs(key);
        for &dst in replicas.get(1..).unwrap_or(&[]) {
            let key = key.to_owned();
            self.ep
                .send(ctx, dst, NoobMsg::RepTs { key, op, ts }, CTRL_MSG_BYTES);
        }
    }

    /// Turn engine effects into NOOB wire traffic: timestamp and reply
    /// distribution is R-1 unicast TCP streams. `ack_dst` is where a
    /// phase-2 ack goes (the coordinator we just heard from).
    fn apply_effects(&mut self, fx: Vec<Effect>, ack_dst: Ipv4, ctx: &mut dyn NodeIo) {
        for e in fx {
            match e {
                Effect::Commit { key, op, ts } => self.send_ts(&key, op, ts, ctx),
                Effect::Reply { client, op, ok } => {
                    self.ep
                        .send(ctx, client, NoobMsg::PutReply { op, ok }, CTRL_MSG_BYTES);
                }
                Effect::Ack2 { key, op } => {
                    let from = self.node;
                    self.ep.send(
                        ctx,
                        ack_dst,
                        NoobMsg::RepAck2 { key, op, from },
                        CTRL_MSG_BYTES,
                    );
                }
                Effect::Redrive { key, op, value } => self.on_put(key, value, op, 0, ctx),
                // No deadlines, no multicast loopback, no failure
                // detector in the baseline.
                Effect::WriteDone { .. }
                | Effect::Ack1 { .. }
                | Effect::Abort { .. }
                | Effect::Deadline { .. }
                | Effect::Unresponsive { .. } => {}
            }
        }
    }

    // ---------------------------------------------------------------
    // Put path
    // ---------------------------------------------------------------

    fn on_put(&mut self, key: String, value: Value, op: OpId, hops: u8, ctx: &mut dyn NodeIo) {
        if !self.i_am_primary(&key) {
            // ROG delivered this to a random node: forward to the primary
            // (the second extra hop).
            if hops < 2 {
                let dst = self.ring.primary_addr(&key);
                let size = value.size() + key.len() as u32 + CTRL_MSG_BYTES;
                self.engine.counters_mut().forwarded += 1;
                self.ep.send(
                    ctx,
                    dst,
                    NoobMsg::Put {
                        key,
                        value,
                        op,
                        hops: hops + 1,
                    },
                    size,
                );
            }
            return;
        }
        self.engine.counters_mut().puts_coordinated += 1;
        if self.engine.op_settled(op) {
            // The attempt already committed here (its reply was lost) or
            // the client has long moved past it: answer directly. Starting
            // a fresh round would re-commit the old value under a new,
            // higher timestamp — resurrecting it over later writes.
            self.ep.send(
                ctx,
                op.client,
                NoobMsg::PutReply { op, ok: true },
                CTRL_MSG_BYTES,
            );
            return;
        }
        let replicas = self
            .ring
            .ring
            .replica_set(self.ring.partition_of(&key))
            .to_vec();
        match self.mode {
            NoobMode::Chain => {
                // Write locally, then forward down the chain. The head
                // commits on the spot, so `op_settled` above answers
                // every retry of this put.
                let size = value.size();
                let done = self.engine.stage_write(ctx.now(), size);
                let remaining: Vec<Ipv4> = replicas
                    .get(1..)
                    .unwrap_or(&[])
                    .iter()
                    .map(|&n| self.ring.addr_of(n))
                    .collect();
                let ts = self.engine.next_ts(op, ctx.ip());
                self.engine.sync_object(&key, value, ts);
                self.ep.defer(
                    ctx,
                    done,
                    Written::Chain {
                        key,
                        op,
                        remaining,
                        client: op.client,
                    },
                );
            }
            NoobMode::TwoPc => {
                // With no coordinator deadlines, client retries are the
                // only thing that completes a round disturbed by a fault.
                // A round stuck in phase 2 (a secondary restarted and lost
                // its tentative copy, or an ack was lost) re-sends its
                // commit timestamp; a round stuck in phase 1 falls through
                // to re-prepare — the lock refreshes and the data fans out
                // again.
                if let Some(ts) = self.engine.round_commit_ts(&key, op) {
                    return self.send_ts(&key, op, ts, ctx);
                }
                // 2PC: lock+log first; conflicting writers queue until the
                // current put commits, then come back as a Redrive.
                let mut fx = Vec::new();
                if !self
                    .engine
                    .prepare(&key, value.clone(), op, ctx.now(), &mut fx)
                {
                    return;
                }
                self.engine.coordinate(&key, op, op.client, None);
                for e in &fx {
                    if let Effect::WriteDone { at, .. } = e {
                        let at = *at;
                        self.ep.defer(
                            ctx,
                            at,
                            Written::Primary {
                                key: key.clone(),
                                op,
                            },
                        );
                    }
                }
                self.fan_out(&key, &value, op, true, &replicas, ctx);
            }
            NoobMode::PrimaryOnly | NoobMode::Quorum { .. } => {
                if self.engine.coordinating(&key, op) {
                    return; // duplicate (client retry while in flight)
                }
                let quorum = match self.mode {
                    NoobMode::Quorum { k } => k.clamp(1, replicas.len()),
                    _ => replicas.len(),
                };
                self.engine.coordinate(&key, op, op.client, Some(quorum));
                // Durable before acking: the direct path forces the object
                // write itself (2PC forces the log entry instead).
                let ts = self.engine.next_ts(op, ctx.ip());
                let done = self.engine.apply_copy(&key, value.clone(), ts, ctx.now());
                self.ep.defer(
                    ctx,
                    done,
                    Written::Primary {
                        key: key.clone(),
                        op,
                    },
                );
                self.fan_out(&key, &value, op, false, &replicas, ctx);
            }
        }
    }

    /// Fan the data out to every secondary over unicast TCP — the NOOB
    /// network inefficiency.
    fn fan_out(
        &mut self,
        key: &str,
        value: &Value,
        op: OpId,
        two_pc: bool,
        replicas: &[NodeIdx],
        ctx: &mut dyn NodeIo,
    ) {
        let msg_size = value.size() + key.len() as u32 + CTRL_MSG_BYTES;
        for n in replicas.get(1..).unwrap_or(&[]) {
            let dst = self.ring.addr_of(*n);
            self.ep.send(
                ctx,
                dst,
                NoobMsg::RepData {
                    key: key.to_owned(),
                    value: value.clone(),
                    op,
                    two_pc,
                },
                msg_size,
            );
        }
    }

    fn on_rep_data(
        &mut self,
        key: String,
        value: Value,
        op: OpId,
        two_pc: bool,
        src: Ipv4,
        ctx: &mut dyn NodeIo,
    ) {
        self.engine.counters_mut().replica_writes += 1;
        let done = if two_pc {
            let mut fx = Vec::new();
            self.engine.accept(&key, value, op, ctx.now(), &mut fx);
            fx.iter()
                .find_map(|e| match e {
                    Effect::WriteDone { at, .. } => Some(*at),
                    _ => None,
                })
                .unwrap_or_else(|| ctx.now())
        } else {
            // Plain replication: store immediately with the op's identity.
            let ts = Timestamp {
                primary_seq: op.client_seq,
                primary: src,
                client_seq: op.client_seq,
                client: op.client,
            };
            self.engine.apply_copy(&key, value, ts, ctx.now())
        };
        self.ep.defer(
            ctx,
            done,
            Written::Secondary {
                key,
                op,
                primary: src,
            },
        );
    }

    fn on_ack1(&mut self, key: String, op: OpId, from: NodeIdx, ctx: &mut dyn NodeIo) {
        let g = self.group_for(&key, ctx);
        let me = ctx.ip();
        let mut fx = Vec::new();
        self.engine.on_ack1(&key, op, from, &g, ctx.now(), &mut fx);
        self.apply_effects(fx, me, ctx);
    }

    fn on_ack2(&mut self, key: String, op: OpId, from: NodeIdx, ctx: &mut dyn NodeIo) {
        let g = self.group_for(&key, ctx);
        let me = ctx.ip();
        let mut fx = Vec::new();
        self.engine.on_ack2(&key, op, from, Some(&g), &mut fx);
        self.apply_effects(fx, me, ctx);
    }

    // ---------------------------------------------------------------
    // Get path
    // ---------------------------------------------------------------

    fn on_get(&mut self, key: String, op: OpId, hops: u8, ctx: &mut dyn NodeIo) {
        if !self.sync_pending.is_empty() && hops < 2 {
            // Mid-rejoin: the local store may be missing writes acked
            // while this node was down. Push the read to a peer replica
            // until the sync phase completes (§4.4 two-phase rejoin —
            // no reads from a node still catching up).
            if let Some(dst) = self.peer_replica_addr(&key) {
                return self.forward_get(key, op, hops, dst, ctx);
            }
        }
        if let Some(c) = self.engine.store().get(&key) {
            let size = c.value.size() + CTRL_MSG_BYTES;
            let value = Some(c.value.clone());
            self.engine.counters_mut().gets_served += 1;
            self.ep
                .send(ctx, op.client, NoobMsg::GetReply { op, value }, size);
            return;
        }
        if !self.i_am_primary(&key) && hops < 2 {
            let dst = self.ring.primary_addr(&key);
            return self.forward_get(key, op, hops, dst, ctx);
        }
        self.ep.send(
            ctx,
            op.client,
            NoobMsg::GetReply { op, value: None },
            CTRL_MSG_BYTES,
        );
    }

    /// One more hop: hand the get to `dst` instead of answering it.
    fn forward_get(&mut self, key: String, op: OpId, hops: u8, dst: Ipv4, ctx: &mut dyn NodeIo) {
        self.engine.counters_mut().forwarded += 1;
        let hops = hops + 1;
        self.ep
            .send(ctx, dst, NoobMsg::Get { key, op, hops }, CTRL_MSG_BYTES);
    }

    // ---------------------------------------------------------------
    // Rejoin sync
    // ---------------------------------------------------------------

    /// The first replica of `key` that is not this node, if any.
    fn peer_replica_addr(&self, key: &str) -> Option<Ipv4> {
        self.ring
            .ring
            .replica_set(self.ring.partition_of(key))
            .iter()
            .find(|&&n| n != self.node)
            .map(|&n| self.ring.addr_of(n))
    }

    /// A rejoining peer asks for everything it replicates: answer with
    /// this node's committed objects in the requester's partitions.
    fn on_sync_req(&mut self, from: NodeIdx, src: Ipv4, ctx: &mut dyn NodeIo) {
        let items: Vec<(String, Value, Timestamp)> = self
            .engine
            .store()
            .iter()
            .filter(|(k, _)| self.ring.ring.is_replica(self.ring.partition_of(k), from))
            .map(|(k, c)| (k.clone(), c.value.clone(), c.ts))
            .collect();
        let size = items
            .iter()
            .map(|(k, v, _)| v.size() + k.len() as u32)
            .sum::<u32>()
            + CTRL_MSG_BYTES;
        self.ep.send(ctx, src, NoobMsg::SyncResp { items }, size);
    }

    /// A peer's sync answer: ordered bulk apply (newer local versions
    /// win), then mark that peer caught-up.
    fn on_sync_resp(
        &mut self,
        items: Vec<(String, Value, Timestamp)>,
        src: Ipv4,
        ctx: &mut dyn NodeIo,
    ) {
        self.engine.ingest(ctx.now(), items);
        if let Some(pos) = self.ring.addrs.iter().position(|&a| a == src) {
            self.sync_pending.remove(&NodeIdx(pos as u32));
        }
    }

    // ---------------------------------------------------------------
    // Plumbing
    // ---------------------------------------------------------------

    fn on_noob(&mut self, msg: NoobMsg, src: Ipv4, ctx: &mut dyn NodeIo) {
        match msg {
            NoobMsg::Put {
                key,
                value,
                op,
                hops,
            } => self.on_put(key, value, op, hops, ctx),
            NoobMsg::Get { key, op, hops } => self.on_get(key, op, hops, ctx),
            NoobMsg::RepData {
                key,
                value,
                op,
                two_pc,
            } => self.on_rep_data(key, value, op, two_pc, src, ctx),
            NoobMsg::RepAck1 { key, op, from } => self.on_ack1(key, op, from, ctx),
            NoobMsg::RepTs { key, op, ts } => {
                let mut fx = Vec::new();
                self.engine
                    .on_commit(&key, op, ts, EngineRole::Peer, ctx.now(), &mut fx);
                self.apply_effects(fx, src, ctx);
            }
            NoobMsg::RepAck2 { key, op, from } => self.on_ack2(key, op, from, ctx),
            NoobMsg::ChainPut {
                key,
                value,
                op,
                remaining,
                client,
            } => {
                self.engine.counters_mut().replica_writes += 1;
                let ts = Timestamp {
                    primary_seq: op.client_seq,
                    primary: client,
                    client_seq: op.client_seq,
                    client,
                };
                let done = self.engine.apply_copy(&key, value, ts, ctx.now());
                self.ep.defer(
                    ctx,
                    done,
                    Written::Chain {
                        key,
                        op,
                        remaining,
                        client,
                    },
                );
            }
            NoobMsg::SyncReq { from } => self.on_sync_req(from, src, ctx),
            NoobMsg::SyncResp { items } => self.on_sync_resp(items, src, ctx),
            NoobMsg::PutReply { .. } | NoobMsg::GetReply { .. } => {}
        }
    }

    fn on_written(&mut self, done: Written, ctx: &mut dyn NodeIo) {
        match done {
            Written::Primary { key, op } => {
                let g = self.group_for(&key, ctx);
                let me = ctx.ip();
                let mut fx = Vec::new();
                self.engine
                    .on_written(&key, op, EngineRole::Primary(&g), ctx.now(), &mut fx);
                self.apply_effects(fx, me, ctx);
            }
            Written::Secondary { key, op, primary } => {
                let from = self.node;
                self.ep.send(
                    ctx,
                    primary,
                    NoobMsg::RepAck1 { key, op, from },
                    CTRL_MSG_BYTES,
                );
            }
            Written::Chain {
                key,
                op,
                mut remaining,
                client,
            } => {
                if remaining.is_empty() {
                    // tail: acknowledge the client
                    self.ep.send(
                        ctx,
                        client,
                        NoobMsg::PutReply { op, ok: true },
                        CTRL_MSG_BYTES,
                    );
                } else {
                    let next = remaining.remove(0);
                    let value = self
                        .engine
                        .store()
                        .get(&key)
                        .map_or_else(|| Value::synthetic(0), |c| c.value.clone());
                    let size = value.size() + key.len() as u32 + CTRL_MSG_BYTES;
                    self.ep.send(
                        ctx,
                        next,
                        NoobMsg::ChainPut {
                            key,
                            value,
                            op,
                            remaining,
                            client,
                        },
                        size,
                    );
                }
            }
        }
    }
}

/// CPU cost of processing one message (see `nice_kv::server`).
fn msg_cost(msg: &NoobMsg) -> Time {
    match msg {
        NoobMsg::Put { .. }
        | NoobMsg::Get { .. }
        | NoobMsg::RepData { .. }
        | NoobMsg::ChainPut { .. } => REQ_COST,
        _ => CTRL_COST,
    }
}

impl NodeApp for NoobServerApp {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn NodeIo) {
        self.ep.on_packet(&pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) {
        match self.ep.on_timer(token, ctx) {
            Some(Fired::Message { msg, src }) => self.on_noob(msg, src, ctx),
            Some(Fired::Cont(done)) => self.on_written(done, ctx),
            // Peers never answered (all down, or the nemesis ate every
            // exchange): stop forwarding and serve what the WAL replay
            // restored rather than going silent forever.
            Some(Fired::App(TOK_SYNC_GIVEUP)) => self.sync_pending.clear(),
            Some(Fired::App(_)) | None => {}
        }
    }

    fn on_crash(&mut self) {
        self.ep.crash();
        self.engine.reset();
        self.sync_pending.clear();
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeIo) {
        // Two-phase rejoin, data phase: ask every peer for the committed
        // objects this node replicates. WAL replay already restored
        // everything this node acked; the sync fills in what the cluster
        // acked while it was down. Gets are forwarded until the answers
        // arrive (or the give-up timer concedes the peers are gone).
        let me = self.node;
        let peers: Vec<(NodeIdx, Ipv4)> = self
            .ring
            .addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| (NodeIdx(i as u32), addr))
            .filter(|&(n, _)| n != me)
            .collect();
        for (n, addr) in peers {
            self.sync_pending.insert(n);
            self.ep
                .send(ctx, addr, NoobMsg::SyncReq { from: me }, CTRL_MSG_BYTES);
        }
        if !self.sync_pending.is_empty() {
            ctx.set_timer(SYNC_GIVEUP, TOK_SYNC_GIVEUP);
        }
    }
}

#[cfg(test)]
mod tests {
    use nice_kv::ClientOp;

    use super::*;
    use crate::cluster::{NoobCluster, NoobClusterCfg};
    use crate::msg::Access;

    /// The chain head commits a put on the spot and never hears of it
    /// again, so it must not open a coordinator round nothing would close.
    #[test]
    fn chain_puts_leave_no_round_open() {
        let put = |i: u32| ClientOp::Put {
            key: format!("k{i}"),
            value: Value::synthetic(100),
        };
        let ops = vec![(0..8).map(put).collect()];
        let cfg = NoobClusterCfg::new(3, 3, Access::Rac, NoobMode::Chain, ops);
        let mut c = NoobCluster::build(cfg);
        assert!(c.run_until_done(Time::from_secs(60)));
        assert!(c.client(0).records.iter().all(kv_core::OpRecord::ok));
        for i in 0..3 {
            let open = c.server(i).engine.in_flight(&|_| true);
            assert!(open.is_empty(), "server {i} holds {open:?}");
        }
    }
}
