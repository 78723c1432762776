//! The NICEKV storage node — the *policy adapter* over the shared
//! [`kv_core::TwoPcEngine`].
//!
//! All protocol state (object store, locks, 2PC coordinator records,
//! waiting writers, lock resolution) lives in the engine; this file owns
//! what makes NICE *NICE*: vring addressing, switch multicast for data
//! and timestamp distribution, partition views from the metadata
//! service, handoff get-forwarding, failure reports, heartbeats, and
//! node recovery (§4.2–§4.5). Engine transitions return
//! [`Effect`]s that this adapter turns into wire messages and timers:
//!
//! * the NICE-2PC put protocol of §4.3 / Figure 3 (multicast data, lock,
//!   forced log write, object write, timestamp round, client reply),
//! * get serving, including the handoff get-forwarding of §4.4,
//! * failure detection (2PC ack timeouts → failure reports; stale locks →
//!   primary-suspect reports) and heartbeats,
//! * node recovery (rejoin plan, handoff drain, recovery-done),
//! * primary failover lock resolution (commit-if-committed-anywhere,
//!   abort-if-locked-everywhere).
//!
//! Storage nodes hold O(R) membership knowledge only: the
//! [`PartitionView`]s the metadata service pushes for the partitions they
//! participate in (§4.1).

use std::collections::{BTreeMap, BTreeSet};

use kv_core::{
    Effect, EngineCfg, EngineRole, Group, KvError, LockResolution, MetricsRegistry, ObjectStore,
    StorageCfg, TwoPcEngine, CTRL_MSG_BYTES,
};
use nice_ring::{NodeIdx, PartitionId};
use nice_transport::endpoint::{charge_send, CTRL_COST, REQ_COST};
use nice_transport::{Endpoint, Fired, Msg};
use node_rt::{Ipv4, NodeApp, NodeIo, Packet, Time};

use crate::config::{KvConfig, PutMode, PORT};
use crate::msg::{KvMsg, LoadStats, OpId, PartitionView, Role, Timestamp, Value};

const TOK_HEARTBEAT: u64 = 1;
const TOK_SWEEP: u64 = 2;
const TOK_REJOIN_RETRY: u64 = 3;
/// The engine's coordinator timer ([`Effect::Deadline`]).
const TOK_DEADLINE: u64 = 4;

/// Deferred work resumed by a timer.
enum Cont {
    /// The local object write (W) finished.
    Written { key: String, op: OpId },
    /// A recovery drain waiting for its gate: the fetcher must be in our
    /// view and the put rounds that predate it must retire first.
    FetchGate {
        partition: PartitionId,
        from: NodeIdx,
        src: Ipv4,
        barrier: Option<Vec<(String, OpId)>>,
        tries: u32,
    },
}

/// The storage-node application.
pub struct ServerApp {
    cfg: KvConfig,
    node: NodeIdx,
    meta: Ipv4,
    ep: Endpoint<KvMsg, Cont>,
    engine: TwoPcEngine,
    views: BTreeMap<PartitionId, PartitionView>,
    resolves: BTreeMap<PartitionId, LockResolution>,
    /// When each in-flight resolution started: one whose queried member
    /// died mid-protocol never completes, so the stale-lock sweep
    /// restarts it against the current membership.
    resolve_started: BTreeMap<PartitionId, Time>,
    /// Outstanding rejoin syncs: partitions we still owe a handoff fetch.
    rejoin_pending: BTreeSet<PartitionId>,
    rejoining: bool,
    stats: LoadStats,
    reported_down: BTreeSet<NodeIdx>,
}

impl ServerApp {
    /// A storage node `node` reporting to the metadata service at `meta`.
    pub fn new(cfg: KvConfig, node: NodeIdx, meta: Ipv4, storage: StorageCfg) -> ServerApp {
        ServerApp {
            ep: Endpoint::new(PORT, msg_cost),
            engine: TwoPcEngine::new(EngineCfg {
                storage,
                // NICE runs the coordinator deadlines of §4.4, commits on
                // its own multicast loopback, and keeps written pendings
                // durable for lock resolution.
                op_timeout: Some(cfg.op_timeout),
                inline_commit: false,
                durable_pending: true,
                // No TTL: the §4.4 deadline machinery plus the stale-lock
                // sweep clean up orphaned locks.
                stale_lock_ttl: None,
            }),
            cfg,
            node,
            meta,
            views: BTreeMap::new(),
            resolves: BTreeMap::new(),
            resolve_started: BTreeMap::new(),
            rejoin_pending: BTreeSet::new(),
            rejoining: false,
            stats: LoadStats::default(),
            reported_down: BTreeSet::new(),
        }
    }

    /// The node index.
    pub fn node(&self) -> NodeIdx {
        self.node
    }

    /// The local object store (inspection).
    pub fn store(&self) -> &ObjectStore {
        self.engine.store()
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

    /// Current partition views (inspection).
    pub fn views(&self) -> &BTreeMap<PartitionId, PartitionView> {
        &self.views
    }

    /// Most recent internal invariant violation, if any (inspection; a
    /// correct run keeps this `None`).
    pub fn last_internal_error(&self) -> Option<&KvError> {
        self.engine.last_internal_error()
    }

    fn my_role(&self, view: &PartitionView) -> Option<Role> {
        if view.handoffs.contains(&self.node) {
            Some(Role::Handoff)
        } else if view.primary == self.node {
            Some(Role::Primary)
        } else if view.members.iter().any(|&(n, _)| n == self.node) {
            Some(Role::Secondary)
        } else {
            None
        }
    }

    /// Run one engine transition under this node's role in `view`. The
    /// replica group is built only where the engine reads it (primary).
    fn as_role(
        &mut self,
        view: &PartitionView,
        ctx: &dyn NodeIo,
        f: impl FnOnce(&mut TwoPcEngine, EngineRole<'_>),
    ) {
        match self.my_role(view) {
            Some(Role::Primary) => {
                let g = group_of(view, self.node, ctx.ip());
                f(&mut self.engine, EngineRole::Primary(&g));
            }
            Some(Role::Secondary | Role::Handoff) => f(&mut self.engine, EngineRole::Peer),
            None => f(&mut self.engine, EngineRole::Observer),
        }
    }

    /// A small control message to the metadata service.
    fn tell_meta(&mut self, msg: KvMsg, ctx: &mut dyn NodeIo) {
        self.ep.send(ctx, self.meta, msg, CTRL_MSG_BYTES);
    }

    /// A phase ack, point-to-point to partition `p`'s primary.
    fn ack_primary(&mut self, p: PartitionId, ack: KvMsg, ctx: &mut dyn NodeIo) {
        if let Some(primary) = self.views.get(&p).and_then(PartitionView::primary_addr) {
            self.ep.send(ctx, primary, ack, CTRL_MSG_BYTES);
        }
    }

    fn report_failure(&mut self, suspect: NodeIdx, ctx: &mut dyn NodeIo) {
        if self.reported_down.insert(suspect) {
            self.engine.counters_mut().failure_reports += 1;
            let from = self.node;
            self.tell_meta(KvMsg::FailureReport { suspect, from }, ctx);
        }
    }

    /// Turn engine effects into NICE wire traffic and timers. Acks go
    /// point-to-point to the primary; commit/abort distribution rides the
    /// partition's *multicast* vring so the switch replicates it (§4.2).
    fn apply_effects(&mut self, fx: Vec<Effect>, ctx: &mut dyn NodeIo) {
        for e in fx {
            match e {
                Effect::WriteDone { at, key, op } => {
                    self.ep.defer(ctx, at, Cont::Written { key, op });
                }
                Effect::Deadline { at } => {
                    ctx.set_timer(at.saturating_sub(ctx.now()), TOK_DEADLINE);
                }
                Effect::Ack1 { key, op } => {
                    let (p, from) = (self.cfg.partition_of(&key), self.node);
                    self.ack_primary(p, KvMsg::PutAck1 { key, op, from }, ctx);
                }
                Effect::Ack2 { key, op } => {
                    let (p, from) = (self.cfg.partition_of(&key), self.node);
                    self.ack_primary(p, KvMsg::PutAck2 { key, op, from }, ctx);
                }
                Effect::Commit { key, op, ts } => {
                    // Figure 3's "timestamp" message: multicast to the
                    // whole replica group (including ourselves).
                    let p = self.cfg.partition_of(&key);
                    if let Some(view) = self.views.get(&p) {
                        let members = view.len();
                        let group = self.cfg.multicast.vnode_for_key(p, key.as_bytes());
                        let msg = KvMsg::Commit { key, op, ts };
                        charge_send(ctx, CTRL_MSG_BYTES);
                        self.ep.transport().mcast_send(
                            ctx,
                            group,
                            PORT,
                            Msg::new(msg, CTRL_MSG_BYTES),
                            members,
                        );
                    }
                }
                Effect::Abort { key, op, issued } => {
                    let p = self.cfg.partition_of(&key);
                    if let Some(view) = self.views.get(&p) {
                        let n = view.len();
                        let group = self.cfg.multicast.vnode_for_key(p, key.as_bytes());
                        let msg = KvMsg::Abort { key, op, issued };
                        self.ep.transport().mcast_send(
                            ctx,
                            group,
                            PORT,
                            Msg::new(msg, CTRL_MSG_BYTES),
                            n,
                        );
                    }
                }
                Effect::Reply { client, op, ok } => {
                    self.ep
                        .send(ctx, client, KvMsg::PutReply { op, ok }, CTRL_MSG_BYTES);
                }
                Effect::Unresponsive { members } => {
                    for m in members {
                        self.report_failure(m, ctx);
                    }
                }
                Effect::Redrive { key, op, value } => {
                    self.on_put_request(key, value, op, ctx);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Put path (Figure 3)
    // -----------------------------------------------------------------

    fn on_put_request(&mut self, key: String, value: Value, op: OpId, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        let Some(view) = self.views.get(&p).cloned() else {
            return; // not (or no longer) a member: stale multicast rule
        };
        if self.my_role(&view).is_none() {
            return;
        }
        if let PutMode::Quorum { .. } = self.cfg.put_mode {
            // Quorum replication (§6.3): store directly; the any-k
            // transport acks give the client its completion signal.
            let Some(primary) = view.primary_addr() else {
                return; // malformed view: treat like a stale one
            };
            let ts = Timestamp {
                primary_seq: op.client_seq,
                primary,
                client_seq: op.client_seq,
                client: op.client,
            };
            // Device model advanced; no protocol round.
            self.engine.apply_copy(&key, value, ts, ctx.now());
            self.stats.puts += 1;
            return;
        }
        if self.engine.op_settled(op) {
            // The attempt already committed here (its reply was lost, or
            // the round expired between commit and the last ack2): the
            // primary answers directly; everyone else drops the stale
            // multicast. Re-preparing would re-commit the old value under
            // a new, higher timestamp — resurrecting it over later writes.
            if self.my_role(&view) == Some(Role::Primary) {
                self.apply_effects(
                    vec![Effect::Reply {
                        client: op.client,
                        op,
                        ok: true,
                    }],
                    ctx,
                );
            }
            return;
        }
        let mut fx = Vec::new();
        if self.engine.prepare(&key, value, op, ctx.now(), &mut fx) {
            self.stats.puts += 1;
        }
        self.apply_effects(fx, ctx);
    }

    fn on_written(&mut self, key: String, op: OpId, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        let Some(view) = self.views.get(&p).cloned() else {
            return;
        };
        let mut fx = Vec::new();
        let now = ctx.now();
        self.as_role(&view, ctx, |e, role| {
            e.on_written(&key, op, role, now, &mut fx);
        });
        self.apply_effects(fx, ctx);
    }

    fn on_ack1(&mut self, key: String, op: OpId, from: NodeIdx, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        let Some(view) = self.views.get(&p).cloned() else {
            return;
        };
        if self.my_role(&view) != Some(Role::Primary) {
            return; // stale: we are no longer primary
        }
        let g = group_of(&view, self.node, ctx.ip());
        let mut fx = Vec::new();
        self.engine.on_ack1(&key, op, from, &g, ctx.now(), &mut fx);
        self.apply_effects(fx, ctx);
    }

    fn on_commit(&mut self, key: String, op: OpId, ts: Timestamp, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        let Some(view) = self.views.get(&p).cloned() else {
            return;
        };
        let mut fx = Vec::new();
        let now = ctx.now();
        // As primary this is our own multicast copy: the ack2 path.
        self.as_role(&view, ctx, |e, role| {
            e.on_commit(&key, op, ts, role, now, &mut fx);
        });
        self.apply_effects(fx, ctx);
    }

    fn on_ack2(&mut self, key: String, op: OpId, from: NodeIdx, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        let g = self.views.get(&p).map(|v| group_of(v, self.node, ctx.ip()));
        let mut fx = Vec::new();
        self.engine.on_ack2(&key, op, from, g.as_ref(), &mut fx);
        self.apply_effects(fx, ctx);
    }

    fn on_coord_deadline(&mut self, ctx: &mut dyn NodeIo) {
        let (cfg, views, node, ip) = (&self.cfg, &self.views, self.node, ctx.ip());
        let group = |key: &str| Some(group_of(views.get(&cfg.partition_of(key))?, node, ip));
        let mut fx = Vec::new();
        self.engine.on_deadline(ctx.now(), &group, &mut fx);
        self.apply_effects(fx, ctx);
    }

    // -----------------------------------------------------------------
    // Get path
    // -----------------------------------------------------------------

    fn record_get_source(&mut self, p: PartitionId, client: Ipv4) {
        // /26 buckets of the client space — the "range of client IP
        // addresses accessing each partition" of §4.5.
        let bucket = client.network(26);
        if let Some(e) = self
            .stats
            .gets_by_range
            .iter_mut()
            .find(|(pp, b, _)| *pp == p && *b == bucket)
        {
            e.2 += 1;
        } else {
            self.stats.gets_by_range.push((p, bucket, 1));
        }
    }

    fn on_get_request(&mut self, key: String, op: OpId, ctx: &mut dyn NodeIo) {
        let p = self.cfg.partition_of(&key);
        self.record_get_source(p, op.client);
        let view = self.views.get(&p).cloned();
        if let Some(c) = self.engine.store().get(&key) {
            let size = c.value.size() + CTRL_MSG_BYTES;
            let reply = KvMsg::GetReply {
                op,
                value: Some(c.value.clone()),
                ts: Some(c.ts),
            };
            self.engine.counters_mut().gets_served += 1;
            self.stats.gets += 1;
            self.stats.bytes_out += size as u64;
            self.ep.send(ctx, op.client, reply, size);
            return;
        }
        // Miss: a handoff node forwards to the primary (§4.4).
        if let Some(view) = view {
            if self.my_role(&view) == Some(Role::Handoff) && view.primary != self.node {
                if let Some(primary) = view.primary_addr() {
                    self.engine.counters_mut().forwarded += 1;
                    self.ep
                        .send(ctx, primary, KvMsg::GetForward { key, op }, CTRL_MSG_BYTES);
                    return;
                }
            }
        }
        self.stats.gets += 1;
        self.ep.send(
            ctx,
            op.client,
            KvMsg::GetReply {
                op,
                value: None,
                ts: None,
            },
            CTRL_MSG_BYTES,
        );
    }

    fn on_get_forward(&mut self, key: String, op: OpId, ctx: &mut dyn NodeIo) {
        let (reply, size) = match self.engine.store().get(&key) {
            Some(c) => (
                KvMsg::GetReply {
                    op,
                    value: Some(c.value.clone()),
                    ts: Some(c.ts),
                },
                c.value.size() + CTRL_MSG_BYTES,
            ),
            None => (
                KvMsg::GetReply {
                    op,
                    value: None,
                    ts: None,
                },
                CTRL_MSG_BYTES,
            ),
        };
        self.engine.counters_mut().gets_served += 1;
        self.stats.gets += 1;
        self.stats.bytes_out += size as u64;
        self.ep.send(ctx, op.client, reply, size);
    }

    // -----------------------------------------------------------------
    // Membership, recovery, failover
    // -----------------------------------------------------------------

    fn on_membership(&mut self, views: Vec<PartitionView>, ctx: &mut dyn NodeIo) {
        for view in views {
            let p = view.partition;
            let am_member = view.members.iter().any(|&(n, _)| n == self.node);
            if am_member {
                // Any node the metadata service lists as a member is
                // alive again: allow future failure reports for it.
                for &(m, _) in &view.members {
                    self.reported_down.remove(&m);
                }
                let am_primary = view.primary == self.node;
                self.views.insert(p, view);
                // Complete-cluster-failure recovery (§4.4): if we are the
                // primary and hold in-doubt (written-but-uncommitted)
                // entries for this partition — e.g. after a full restart —
                // resolve them with the commit-anywhere/abort-everywhere
                // rules.
                if am_primary && !self.resolves.contains_key(&p) {
                    let in_doubt = self
                        .engine
                        .store()
                        .in_doubt()
                        .into_iter()
                        .any(|(k, _)| self.cfg.partition_of(&k) == p);
                    if in_doubt {
                        self.on_become_primary(p, ctx);
                    }
                }
            } else {
                // Removed from the partition: if we were the handoff, drop
                // the objects we temporarily held (drained by the owner).
                // While the view still has syncing members we may hold the
                // only consistent copies (admin reconfiguration replaced
                // us before the incoming replicas drained) — keep them;
                // the metadata service re-sends the view once the
                // partition is consistent without us.
                self.views.remove(&p);
                if !view.syncing.is_empty() {
                    continue;
                }
                let gone: Vec<String> = self
                    .engine
                    .store()
                    .iter()
                    .filter(|(k, _)| self.cfg.partition_of(k) == p)
                    .map(|(k, _)| k.clone())
                    .collect();
                for k in gone {
                    self.engine.forget(&k);
                }
            }
        }
    }

    fn on_rejoin_plan(&mut self, sources: Vec<(PartitionId, Option<Ipv4>)>, ctx: &mut dyn NodeIo) {
        // A plan can arrive for a restart rejoin or for an admin
        // reconfiguration (we were added to new replica sets): either way
        // we drain the listed sources then report consistency.
        self.rejoining = true;
        self.rejoin_pending.clear();
        for (p, handoff) in sources {
            if let Some(ip) = handoff {
                self.rejoin_pending.insert(p);
                let from = self.node;
                self.ep.send(
                    ctx,
                    ip,
                    KvMsg::HandoffFetch { partition: p, from },
                    CTRL_MSG_BYTES,
                );
            }
        }
        // A drain source can die (or lose our fetch) before answering,
        // which would wedge us in the rejoining state — and the whole
        // partition with us — forever. Re-request a fresh plan from the
        // metadata service until every pending partition drains; the
        // plan is recomputed there, so a replacement source is picked up
        // automatically.
        ctx.set_timer(self.cfg.op_timeout * 8, TOK_REJOIN_RETRY);
        self.maybe_recovery_done(ctx);
    }

    fn rejoin_retry(&mut self, ctx: &mut dyn NodeIo) {
        if !self.rejoining || self.rejoin_pending.is_empty() {
            return;
        }
        self.tell_meta(KvMsg::RejoinRequest { node: self.node }, ctx);
        ctx.set_timer(self.cfg.op_timeout * 8, TOK_REJOIN_RETRY);
    }

    /// Answer a recovery drain — but only once it is safe. The snapshot
    /// races with put rounds whose replica group was fixed before the
    /// fetcher joined the view: such a round can commit *after* we
    /// snapshot yet never reach the fetcher, which would then serve
    /// stale gets once recovered. Gate the response on (a) the fetcher
    /// appearing in our view (every later round includes it) and (b) the
    /// rounds in flight at that moment having retired. The gate is
    /// bounded: a wedged round is settled by its own deadline long before
    /// the retry budget runs out, and on exhaustion we answer anyway
    /// (liveness over a theoretical straggler).
    fn serve_fetch(
        &mut self,
        partition: PartitionId,
        from: NodeIdx,
        src: Ipv4,
        barrier: Option<Vec<(String, OpId)>>,
        tries: u32,
        ctx: &mut dyn NodeIo,
    ) {
        const FETCH_GATE_TRIES: u32 = 64;
        // We are ourselves mid-drain: answering now would propagate an
        // incomplete snapshot (e.g. chained admin reconfigurations where
        // the freshest member is named as the next sync source). Hold
        // the reply until we are consistent.
        if self.rejoining && tries < FETCH_GATE_TRIES {
            return self.hold_fetch(partition, from, src, None, tries, ctx);
        }
        // Gate (a) is vacuous when we no longer hold a view: we left the
        // partition (deferred-GC sync source), so no new put round can
        // reach us anyway — only the in-flight barrier below matters.
        let in_view = self
            .views
            .get(&partition)
            .is_none_or(|v| v.members.iter().any(|&(n, _)| n == from));
        if !in_view && tries < FETCH_GATE_TRIES {
            return self.hold_fetch(partition, from, src, None, tries, ctx);
        }
        let barrier = barrier.unwrap_or_else(|| {
            self.engine
                .in_flight(&|k| self.cfg.partition_of(k) == partition)
        });
        let live: Vec<(String, OpId)> = barrier
            .into_iter()
            .filter(|(k, op)| self.engine.coordinating(k, *op))
            .collect();
        if !live.is_empty() && tries < FETCH_GATE_TRIES {
            return self.hold_fetch(partition, from, src, Some(live), tries, ctx);
        }
        let objects: Vec<(String, Value, Timestamp)> = self
            .engine
            .store()
            .iter()
            .filter(|(k, _)| self.cfg.partition_of(k) == partition)
            .map(|(k, c)| (k.clone(), c.value.clone(), c.ts))
            .collect();
        let size: u32 = objects
            .iter()
            .map(|(k, v, _)| v.size() + k.len() as u32 + 32)
            .sum::<u32>()
            + CTRL_MSG_BYTES;
        self.ep
            .send(ctx, src, KvMsg::HandoffData { partition, objects }, size);
    }

    /// The gate is shut: look at this drain again a little later.
    fn hold_fetch(
        &mut self,
        partition: PartitionId,
        from: NodeIdx,
        src: Ipv4,
        barrier: Option<Vec<(String, OpId)>>,
        tries: u32,
        ctx: &mut dyn NodeIo,
    ) {
        let at = ctx.now() + self.cfg.op_timeout / 8;
        let tries = tries + 1;
        self.ep.defer(
            ctx,
            at,
            Cont::FetchGate {
                partition,
                from,
                src,
                barrier,
                tries,
            },
        );
    }

    fn on_handoff_data(
        &mut self,
        partition: PartitionId,
        objects: Vec<(String, Value, Timestamp)>,
        ctx: &mut dyn NodeIo,
    ) {
        self.engine.ingest(ctx.now(), objects);
        self.rejoin_pending.remove(&partition);
        self.maybe_recovery_done(ctx);
    }

    fn maybe_recovery_done(&mut self, ctx: &mut dyn NodeIo) {
        if self.rejoining && self.rejoin_pending.is_empty() {
            self.rejoining = false;
            self.tell_meta(KvMsg::RecoveryDone { node: self.node }, ctx);
        }
    }

    fn on_become_primary(&mut self, partition: PartitionId, ctx: &mut dyn NodeIo) {
        let Some(view) = self.views.get(&partition).cloned() else {
            return;
        };
        self.resolve_started.insert(partition, ctx.now());
        let others: BTreeSet<NodeIdx> = view
            .members
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| n != self.node)
            .collect();
        // Seed with our own lock table.
        let (seed, max_seq) = self
            .engine
            .lock_report(&|k| self.cfg.partition_of(k) == partition);
        let res = LockResolution::new(others.clone(), seed, max_seq);
        if res.complete() {
            self.resolves.insert(partition, res);
            self.finish_resolution(partition, ctx);
            return;
        }
        for &n in &others {
            if let Some(ip) = view.addr_of(n) {
                self.ep
                    .send(ctx, ip, KvMsg::LockQuery { partition }, CTRL_MSG_BYTES);
            }
        }
        self.resolves.insert(partition, res);
    }

    fn on_lock_query(&mut self, partition: PartitionId, src: Ipv4, ctx: &mut dyn NodeIo) {
        let (locked, max_seq) = self
            .engine
            .lock_report(&|k| self.cfg.partition_of(k) == partition);
        let from = self.node;
        self.ep.send(
            ctx,
            src,
            KvMsg::LockReport {
                partition,
                from,
                locked,
                max_seq,
            },
            CTRL_MSG_BYTES,
        );
    }

    fn on_lock_report(
        &mut self,
        partition: PartitionId,
        from: NodeIdx,
        locked: Vec<(String, OpId, Option<Timestamp>)>,
        max_seq: u64,
        ctx: &mut dyn NodeIo,
    ) {
        let Some(res) = self.resolves.get_mut(&partition) else {
            return;
        };
        if res.absorb(from, locked, max_seq) {
            self.finish_resolution(partition, ctx);
        }
    }

    /// §4.4: "if the object is committed on any secondary node … The
    /// primary will commit and unlock the object. If an object is locked
    /// on all secondary nodes, then the new primary will abort."
    fn finish_resolution(&mut self, partition: PartitionId, ctx: &mut dyn NodeIo) {
        // Date resolution aborts at the moment the lock reports were
        // requested: a lock re-taken by a client retry *after* that is
        // part of a live round this resolution never saw, and must not
        // be torn down by its verdict.
        let started = self
            .resolve_started
            .remove(&partition)
            .unwrap_or_else(|| ctx.now());
        let Some(res) = self.resolves.remove(&partition) else {
            return;
        };
        let (max_seq, verdicts) = res.settle();
        self.engine.observe_seq(max_seq);
        let Some(view) = self.views.get(&partition).cloned() else {
            return;
        };
        let members = view.len();
        for (key, op, committed_ts) in verdicts {
            // §4.4's abort rule presumes the coordinator died. When *we*
            // are still coordinating this round (a primary resolving its
            // own partition after secondaries' ResolveRequests queued up
            // behind a healed link), the round is in flight — leave it to
            // commit or deadline-abort on its own. A coordinator record
            // lives at most ~2x op_timeout, so a genuinely wedged lock is
            // settled by the next sweep once the record is gone.
            if committed_ts.is_none() && self.engine.coordinating(&key, op) {
                continue;
            }
            let group = self.cfg.multicast.vnode_for_key(partition, key.as_bytes());
            let msg = match committed_ts {
                // Committed somewhere: the old primary had decided to
                // commit; finish the job everywhere.
                Some(ts) => KvMsg::Commit { key, op, ts },
                // Locked everywhere, committed nowhere: abort.
                None => KvMsg::Abort {
                    key,
                    op,
                    issued: started,
                },
            };
            self.ep.transport().mcast_send(
                ctx,
                group,
                PORT,
                Msg::new(msg, CTRL_MSG_BYTES),
                members,
            );
        }
    }

    // -----------------------------------------------------------------
    // Timers
    // -----------------------------------------------------------------

    fn heartbeat(&mut self, ctx: &mut dyn NodeIo) {
        let msg = KvMsg::Heartbeat {
            node: self.node,
            stats: std::mem::take(&mut self.stats),
        };
        self.ep
            .transport()
            .udp_send(ctx, self.meta, PORT, Msg::new(msg, CTRL_MSG_BYTES));
        ctx.set_timer(self.cfg.hb_interval, TOK_HEARTBEAT);
    }

    /// Detect a dead primary: a lock nobody commits within 2x op_timeout
    /// means the timestamp message never came (§4.4 "the secondary nodes
    /// will detect the failure by timing out on the replication message").
    fn sweep_stale_locks(&mut self, ctx: &mut dyn NodeIo) {
        let now = ctx.now();
        let threshold = self.cfg.op_timeout * 2;
        let mut stale: BTreeSet<PartitionId> = BTreeSet::new();
        for (k, pd) in self.engine.store().pending_iter() {
            if now.saturating_sub(pd.locked_at) < threshold {
                continue;
            }
            stale.insert(self.cfg.partition_of(k));
        }
        // Ask the partition primary to settle the orphan via §4.4 lock
        // resolution rather than declaring it failed: the lock usually
        // outlived its round because *this* node missed the commit or
        // abort (it left the multicast group mid-round), and a healthy
        // primary must not be deposed over it. A genuinely dead primary
        // is caught by the metadata heartbeat-gap detector instead.
        for p in stale {
            let Some(view) = self.views.get(&p) else {
                continue;
            };
            if view.primary == self.node {
                // A resolution whose queried member died mid-protocol
                // never completes; restart it against the current
                // membership once it is clearly stuck.
                let stuck = self
                    .resolve_started
                    .get(&p)
                    .is_some_and(|&t0| now.saturating_sub(t0) > self.cfg.op_timeout * 4);
                if stuck {
                    self.resolves.remove(&p);
                }
                if !self.resolves.contains_key(&p) {
                    self.on_become_primary(p, ctx);
                }
            } else if let Some(dst) = view.addr_of(view.primary) {
                self.ep.send(
                    ctx,
                    dst,
                    KvMsg::ResolveRequest { partition: p },
                    CTRL_MSG_BYTES,
                );
            }
        }
        ctx.set_timer(self.cfg.op_timeout, TOK_SWEEP);
    }

    // -----------------------------------------------------------------
    // Event plumbing
    // -----------------------------------------------------------------

    fn on_kv(&mut self, msg: KvMsg, src: Ipv4, ctx: &mut dyn NodeIo) {
        match msg {
            KvMsg::PutRequest { key, value, op } => self.on_put_request(key, value, op, ctx),
            KvMsg::GetRequest { key, op } => self.on_get_request(key, op, ctx),
            KvMsg::PutAck1 { key, op, from } => self.on_ack1(key, op, from, ctx),
            KvMsg::Commit { key, op, ts } => self.on_commit(key, op, ts, ctx),
            KvMsg::PutAck2 { key, op, from } => self.on_ack2(key, op, from, ctx),
            KvMsg::Abort { key, op, issued } => {
                let mut fx = Vec::new();
                self.engine.on_abort(&key, op, issued, &mut fx);
                self.apply_effects(fx, ctx);
            }
            KvMsg::Membership { views } => self.on_membership(views, ctx),
            KvMsg::MetaFailover { new_meta } => {
                // The hot standby took over (§4.1): report there from now.
                // If we restarted while the old active was dead, our
                // rejoin request went to a black hole — re-report to the
                // new active so it sends us a drain plan.
                self.meta = new_meta;
                if self.rejoining {
                    self.tell_meta(KvMsg::RejoinRequest { node: self.node }, ctx);
                }
            }
            KvMsg::RejoinPlan { sources } => self.on_rejoin_plan(sources, ctx),
            KvMsg::HandoffFetch { partition, from } => {
                self.serve_fetch(partition, from, src, None, 0, ctx);
            }
            KvMsg::HandoffData { partition, objects } => {
                self.on_handoff_data(partition, objects, ctx);
            }
            KvMsg::GetForward { key, op } => self.on_get_forward(key, op, ctx),
            KvMsg::BecomePrimary { partition } => self.on_become_primary(partition, ctx),
            KvMsg::ResolveRequest { partition } => {
                // A secondary holds an orphaned lock: settle the
                // partition's in-doubt entries if we really are its
                // primary and no resolution is already running.
                let am_primary = self
                    .views
                    .get(&partition)
                    .is_some_and(|v| v.primary == self.node);
                if am_primary && !self.resolves.contains_key(&partition) {
                    self.on_become_primary(partition, ctx);
                }
            }
            KvMsg::LockQuery { partition } => self.on_lock_query(partition, src, ctx),
            KvMsg::LockReport {
                partition,
                from,
                locked,
                max_seq,
            } => self.on_lock_report(partition, from, locked, max_seq, ctx),
            // Server never receives these:
            KvMsg::PutReply { .. }
            | KvMsg::GetReply { .. }
            | KvMsg::Heartbeat { .. }
            | KvMsg::FailureReport { .. }
            | KvMsg::RejoinRequest { .. }
            | KvMsg::MetaSync { .. }
            | KvMsg::RecoveryDone { .. } => {}
        }
    }
}

/// The engine's view of a partition's replica group: every member that
/// must ack, excluding `node` (whose address is `self_addr`).
fn group_of(view: &PartitionView, node: NodeIdx, self_addr: Ipv4) -> Group {
    Group {
        peers: view
            .members
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| n != node)
            .collect(),
        self_addr,
    }
}

/// CPU cost of processing one message: full requests (data-carrying
/// or storage-touching) vs small control messages.
fn msg_cost(msg: &KvMsg) -> Time {
    match msg {
        KvMsg::PutRequest { .. }
        | KvMsg::GetRequest { .. }
        | KvMsg::GetForward { .. }
        | KvMsg::HandoffData { .. }
        | KvMsg::HandoffFetch { .. } => REQ_COST,
        _ => CTRL_COST,
    }
}

impl NodeApp for ServerApp {
    fn on_start(&mut self, ctx: &mut dyn NodeIo) {
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.op_timeout, TOK_SWEEP);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn NodeIo) {
        self.ep.on_packet(&pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) {
        match self.ep.on_timer(token, ctx) {
            Some(Fired::Message { msg, src }) => self.on_kv(msg, src, ctx),
            Some(Fired::Cont(cont)) => match cont {
                Cont::Written { key, op } => self.on_written(key, op, ctx),
                Cont::FetchGate {
                    partition,
                    from,
                    src,
                    barrier,
                    tries,
                } => self.serve_fetch(partition, from, src, barrier, tries, ctx),
            },
            Some(Fired::App(TOK_HEARTBEAT)) => self.heartbeat(ctx),
            Some(Fired::App(TOK_SWEEP)) => self.sweep_stale_locks(ctx),
            Some(Fired::App(TOK_REJOIN_RETRY)) => self.rejoin_retry(ctx),
            Some(Fired::App(TOK_DEADLINE)) => self.on_coord_deadline(ctx),
            Some(Fired::App(_)) | None => {}
        }
    }

    fn on_crash(&mut self) {
        // Volatile state dies; committed objects and the log survive.
        self.ep.crash();
        self.engine.reset();
        self.views.clear();
        self.resolves.clear();
        self.rejoin_pending.clear();
        self.rejoining = false;
        self.reported_down.clear();
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeIo) {
        self.rejoining = true;
        self.tell_meta(KvMsg::RejoinRequest { node: self.node }, ctx);
        self.heartbeat(ctx);
        ctx.set_timer(self.cfg.op_timeout, TOK_SWEEP);
    }
}
