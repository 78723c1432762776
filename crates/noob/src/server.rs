//! The NOOB storage node: full-membership, end-host replication.
//!
//! Every node knows the complete placement (§2.1 "full-membership model")
//! and implements replication itself: a put received at the primary is
//! copied to each secondary over a separate TCP stream — the same data
//! leaves the primary's NIC R-1 times, which is exactly the inefficiency
//! the paper's Figures 5–7 quantify.
//!
//! The put state machines (2PC, primary-only, quorum) are the shared
//! [`kv_core::ReplicationEngine`] — identical to NICEKV's by
//! construction. This file owns what makes NOOB the baseline: full ring
//! knowledge, request forwarding hops, R-1 unicast data fan-out, and
//! chain replication.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use kv_core::{
    Counters, Effect, EngineCfg, EngineRole, Group, MetricsRegistry, ObjectStore,
    ReplicationEngine, StorageCfg, TelemetryCfg, TwoPcEngine, CTRL_COST, CTRL_MSG_BYTES,
    DATA_SEND_COST, DATA_SEND_THRESHOLD, REQ_COST,
};
use nice_kv::{OpId, Timestamp, Value};
use nice_ring::{NodeIdx, PartitionId, PhysicalRing};
use nice_transport::{Msg, Transport, TransportEvent, TRANSPORT_TICK};
use node_rt::{Ipv4, NodeApp, NodeIo, Packet, Time};

use crate::msg::{NoobMode, NoobMsg};

const TOK_CONT_BASE: u64 = 1000;
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

enum Cont {
    /// A received message cleared the CPU queue: process it.
    Process { msg: Box<NoobMsg>, src: Ipv4 },
    /// Local write finished: continue the put state machine.
    PrimaryWritten { key: String, op: OpId },
    /// Secondary write finished: ack the primary.
    SecondaryWritten {
        key: String,
        op: OpId,
        primary: Ipv4,
    },
    /// Chain write finished: pass the baton.
    ChainWritten {
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
    tp: Transport,
    engine: TwoPcEngine,
    conts: HashMap<u64, Cont>,
    next_cont: u64,
    /// Peers whose rejoin sync response is still outstanding; while
    /// non-empty, gets are forwarded instead of served locally.
    sync_pending: BTreeSet<NodeIdx>,
    /// WAL records replayed at construction (0 on a cold start).
    recovered: usize,
}

impl NoobServerApp {
    fn engine_cfg(storage: StorageCfg, telemetry: TelemetryCfg) -> EngineCfg {
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
            telemetry,
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
            tp: Transport::new(ring.port),
            ring,
            node,
            mode,
            engine,
            conts: HashMap::new(),
            next_cont: TOK_CONT_BASE,
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
        telemetry: TelemetryCfg,
    ) -> NoobServerApp {
        let engine = TwoPcEngine::new(Self::engine_cfg(storage, telemetry));
        Self::from_engine(ring, node, mode, engine, 0)
    }

    /// A node backed by a file WAL under `wal_dir`: every ack reaches
    /// stable storage first, and constructing the app replays whatever
    /// the previous incarnation synced — committed objects, the 2PC
    /// persistent-log entries, and in-doubt locks.
    ///
    /// If the WAL cannot be opened (I/O error) the node degrades to the
    /// memory-only model rather than refusing to serve.
    pub fn with_wal(
        ring: NoobRing,
        node: NodeIdx,
        mode: NoobMode,
        storage: StorageCfg,
        telemetry: TelemetryCfg,
        wal_dir: &Path,
    ) -> NoobServerApp {
        let path = wal_dir.join(format!("node-{}.wal", node.0));
        let (engine, recovered) = TwoPcEngine::recover(Self::engine_cfg(storage, telemetry), &path);
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

    /// Observable counters (tests and Figure 7's load-ratio measurements).
    pub fn counters(&self) -> Counters {
        self.engine.counters()
    }

    /// The node's full metrics snapshot: engine phase histograms and
    /// WAL facts, protocol counters under `engine.*`, and transport
    /// reliability effort under `transport.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.engine.metrics();
        self.engine.counters().fold_into(&mut m);
        let tp = self.tp.stats();
        m.add("transport.probes", tp.probes);
        m.add("transport.nacks_sent", tp.nacks_sent);
        m.add("transport.nacks_received", tp.nacks_received);
        m.add("transport.repairs", tp.repairs);
        m.add("transport.syn_retries", tp.syn_retries);
        m
    }

    fn defer(&mut self, ctx: &mut dyn NodeIo, at: Time, cont: Cont) {
        let tok = self.next_cont;
        self.next_cont += 1;
        self.conts.insert(tok, cont);
        ctx.set_timer(at.saturating_sub(ctx.now()), tok);
    }

    fn send(&mut self, ctx: &mut dyn NodeIo, dst: Ipv4, msg: NoobMsg, size: u32) {
        // Symmetric with nice-kv: every sent message costs CPU, and a
        // value-carrying send costs much more than a control message. A
        // NOOB primary pays the data cost R-1 times per put.
        ctx.cpu_work(if size > DATA_SEND_THRESHOLD {
            DATA_SEND_COST
        } else {
            CTRL_COST
        });
        self.tp
            .tcp_send(ctx, dst, self.ring.port, Msg::new(msg, size));
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

    /// Turn engine effects into NOOB wire traffic: timestamp and reply
    /// distribution is R-1 unicast TCP streams. `ack_dst` is where a
    /// phase-2 ack goes (the coordinator we just heard from).
    fn apply_effects(&mut self, fx: Vec<Effect>, ack_dst: Ipv4, ctx: &mut dyn NodeIo) {
        for e in fx {
            match e {
                Effect::Commit { key, op, ts } => {
                    let replicas = self.ring.replica_addrs(&key);
                    for dst in replicas.get(1..).unwrap_or(&[]) {
                        self.send(
                            ctx,
                            *dst,
                            NoobMsg::RepTs {
                                key: key.clone(),
                                op,
                                ts,
                            },
                            CTRL_MSG_BYTES,
                        );
                    }
                }
                Effect::Reply { client, op, ok } => {
                    self.send(ctx, client, NoobMsg::PutReply { op, ok }, CTRL_MSG_BYTES);
                }
                Effect::Ack2 { key, op } => {
                    let from = self.node;
                    self.send(
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
                self.send(
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
            self.send(
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
                if self.engine.coordinating(&key, op) {
                    return; // duplicate (client retry while in flight)
                }
                // Write locally, then forward down the chain. The inert
                // coordinator record only absorbs duplicate retries.
                self.engine
                    .coordinate(&key, op, op.client, Some(usize::MAX));
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
                self.defer(
                    ctx,
                    done,
                    Cont::ChainWritten {
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
                    for n in replicas.get(1..).unwrap_or(&[]) {
                        let dst = self.ring.addr_of(*n);
                        self.send(
                            ctx,
                            dst,
                            NoobMsg::RepTs {
                                key: key.clone(),
                                op,
                                ts,
                            },
                            CTRL_MSG_BYTES,
                        );
                    }
                    return;
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
                        self.defer(
                            ctx,
                            at,
                            Cont::PrimaryWritten {
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
                self.defer(
                    ctx,
                    done,
                    Cont::PrimaryWritten {
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
            self.send(
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
        self.defer(
            ctx,
            done,
            Cont::SecondaryWritten {
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
                self.engine.counters_mut().forwarded += 1;
                self.send(
                    ctx,
                    dst,
                    NoobMsg::Get {
                        key,
                        op,
                        hops: hops + 1,
                    },
                    CTRL_MSG_BYTES,
                );
                return;
            }
        }
        if let Some(c) = self.engine.store().get(&key) {
            let size = c.value.size() + CTRL_MSG_BYTES;
            let value = Some(c.value.clone());
            self.engine.counters_mut().gets_served += 1;
            self.send(ctx, op.client, NoobMsg::GetReply { op, value }, size);
            return;
        }
        if !self.i_am_primary(&key) && hops < 2 {
            self.engine.counters_mut().forwarded += 1;
            let dst = self.ring.primary_addr(&key);
            self.send(
                ctx,
                dst,
                NoobMsg::Get {
                    key,
                    op,
                    hops: hops + 1,
                },
                CTRL_MSG_BYTES,
            );
            return;
        }
        self.send(
            ctx,
            op.client,
            NoobMsg::GetReply { op, value: None },
            CTRL_MSG_BYTES,
        );
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
        self.send(ctx, src, NoobMsg::SyncResp { items }, size);
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
                    .on_commit(&key, op, ts, EngineRole::Peer, &mut fx);
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
                self.defer(
                    ctx,
                    done,
                    Cont::ChainWritten {
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

    fn on_cont(&mut self, cont: Cont, ctx: &mut dyn NodeIo) {
        match cont {
            Cont::Process { msg, src } => self.on_noob(*msg, src, ctx),
            Cont::PrimaryWritten { key, op } => {
                let g = self.group_for(&key, ctx);
                let me = ctx.ip();
                let mut fx = Vec::new();
                self.engine
                    .on_written(&key, op, EngineRole::Primary(&g), ctx.now(), &mut fx);
                self.apply_effects(fx, me, ctx);
            }
            Cont::SecondaryWritten { key, op, primary } => {
                let from = self.node;
                self.send(
                    ctx,
                    primary,
                    NoobMsg::RepAck1 { key, op, from },
                    CTRL_MSG_BYTES,
                );
            }
            Cont::ChainWritten {
                key,
                op,
                mut remaining,
                client,
            } => {
                if remaining.is_empty() {
                    // tail: acknowledge the client
                    self.send(
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
                    self.send(
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

    fn drive(&mut self, events: Vec<TransportEvent>, ctx: &mut dyn NodeIo) {
        for ev in events {
            if let TransportEvent::Delivered { from, msg, .. } = ev {
                if let Some(m) = msg.downcast::<NoobMsg>() {
                    let m = m.clone();
                    let cost = Self::msg_cost(&m);
                    let tok = self.next_cont;
                    self.next_cont += 1;
                    self.conts.insert(
                        tok,
                        Cont::Process {
                            msg: Box::new(m),
                            src: from.0,
                        },
                    );
                    ctx.cpu_defer(cost, tok);
                }
            }
        }
    }
}

impl NodeApp for NoobServerApp {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn NodeIo) {
        let events = self.tp.on_packet(&pkt, ctx);
        self.drive(events, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) {
        if token == TRANSPORT_TICK {
            let events = self.tp.on_timer(token, ctx);
            self.drive(events, ctx);
            return;
        }
        if token == TOK_SYNC_GIVEUP {
            // Peers never answered (all down, or the nemesis ate every
            // exchange): stop forwarding and serve what the WAL replay
            // restored rather than going silent forever.
            self.sync_pending.clear();
            return;
        }
        if let Some(cont) = self.conts.remove(&token) {
            self.on_cont(cont, ctx);
        }
    }

    fn on_crash(&mut self) {
        self.tp.on_crash();
        self.engine.reset();
        self.conts.clear();
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
            self.send(ctx, addr, NoobMsg::SyncReq { from: me }, CTRL_MSG_BYTES);
        }
        if !self.sync_pending.is_empty() {
            ctx.set_timer(SYNC_GIVEUP, TOK_SYNC_GIVEUP);
        }
    }
}
