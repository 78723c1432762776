//! The metadata service: the membership module and the SDN controller
//! (§4.1), in one application (the paper's mapping node).
//!
//! The membership module monitors heartbeats and failure reports, selects
//! handoff nodes, and drives node recovery. The SDN controller owns the
//! switch flow tables: it maps the virtual rings onto physical nodes
//! (unicast and multicast), installs the load-balancing rules of §4.5,
//! and hides failed or inconsistent nodes by removing them from the
//! mappings (§3.3 consistency-aware fault tolerance).
//!
//! Rule-update cost is O(S) switch operations and O(R) node
//! notifications per membership change, independent of cluster size
//! (§4.1 "This membership maintenance design is scalable").

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowTable, GroupBucket, GroupId, L3Learner};
use nice_ring::{ClientDivisions, NodeIdx, PartitionId, PhysicalRing};
use nice_sim::{App, Ctx, Ipv4, Mac, NodeIo, Packet, Port, SwitchId, Time, CTRL_LATENCY};
use nice_transport::{Msg, Transport, TransportEvent, TRANSPORT_TICK};

use crate::config::{KvConfig, CLIENT_SPACE, PORT};
use crate::msg::{HandoffRecord, KvMsg, LoadStats, PartitionView};
use kv_core::{KvError, CTRL_MSG_BYTES};

const TOK_HBCHECK: u64 = 1;
/// Rebalance the adaptive load balancer every this many heartbeat ticks.
const REBALANCE_EVERY: u32 = 4;

/// Cookie namespace for unicast vring rules.
const COOKIE_UNICAST: u64 = 0x1000_0000;
/// Cookie namespace for load-balancing rules.
const COOKIE_LB: u64 = 0x2000_0000;

/// A switch under this controller's management.
#[derive(Clone)]
pub struct SwitchHandle {
    /// The switch.
    pub id: SwitchId,
    /// Its (shared) flow table.
    pub table: Rc<RefCell<FlowTable>>,
    /// Which port each known endpoint hangs off.
    pub ports: BTreeMap<Ipv4, Port>,
}

pub use crate::msg::NodeState;

/// Role of a metadata-service instance (§4.1's hot-standby design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaRole {
    /// The acting metadata service.
    Active,
    /// A hot standby replicating the active's state; takes over after
    /// three missed sync messages.
    Standby {
        /// The active instance being shadowed.
        active: Ipv4,
    },
}

/// Events the metadata service logs (drives tests and Figure 11 analysis).
#[derive(Debug, Clone, PartialEq)]
pub enum MetaEvent {
    /// A node was declared failed.
    NodeFailed(NodeIdx),
    /// This (standby) instance promoted itself to active (§4.1).
    Promoted,
    /// `handoff` now stands in for `failed` on `partition`.
    HandoffAssigned {
        /// The partition.
        partition: PartitionId,
        /// The dead node.
        failed: NodeIdx,
        /// Its stand-in.
        handoff: NodeIdx,
    },
    /// A node re-entered the put ring.
    NodeRejoining(NodeIdx),
    /// A node finished recovery and re-entered the get ring.
    NodeRecovered(NodeIdx),
    /// The primary of `partition` changed.
    PrimaryChanged {
        /// The partition.
        partition: PartitionId,
        /// The promoted node.
        new_primary: NodeIdx,
    },
}

struct NodeInfo {
    ip: Ipv4,
    mac: Mac,
    state: NodeState,
    last_hb: Time,
}

/// The metadata service + SDN controller application.
pub struct MetadataApp {
    cfg: KvConfig,
    ring: PhysicalRing,
    nodes: Vec<NodeInfo>,
    switches: Vec<SwitchHandle>,
    learner: L3Learner,
    tp: Transport,
    views: BTreeMap<PartitionId, PartitionView>,
    /// Per partition: `(failed original, its stand-in, chain complete)`.
    /// `complete` means the stand-in saw every write since the original
    /// failed; a replacement for a dead stand-in is incomplete, so the
    /// original's rejoin drains from the primary instead.
    handoffs: BTreeMap<PartitionId, Vec<HandoffRecord>>,
    /// Aggregated per-node load statistics from heartbeats (§4.5).
    pub load: BTreeMap<NodeIdx, LoadStats>,
    /// Event log.
    pub events: Vec<(Time, MetaEvent)>,
    /// Administrator commands queued by the harness; processed at the
    /// next heartbeat tick (§4.4 "Ring Re-Configuration").
    pending_admin: Vec<AdminOp>,
    /// Members removed from a partition by an admin reconfiguration
    /// while the incoming replicas were still draining. They may hold
    /// the only consistent copies, so their garbage collection is
    /// deferred: once the view's `syncing` set empties, the view is
    /// re-pushed to them and they drop their objects. (Not replicated
    /// to the hot standby — losing it on failover leaks invisible
    /// stale copies on ex-members, which is harmless.)
    admin_gc: BTreeMap<PartitionId, Vec<NodeIdx>>,
    /// Observed get load per (partition, client /26 bucket), decayed on
    /// every rebalance.
    range_load: BTreeMap<(PartitionId, Ipv4), u64>,
    /// Adaptive division→replica assignments (indices into the partition's
    /// current get-eligible target list), when adaptive LB is active.
    lb_overrides: BTreeMap<PartitionId, Vec<usize>>,
    /// Heartbeat ticks until the next rebalance.
    rebalance_in: u32,
    /// Role of this instance (active, or hot standby of another).
    role: MetaRole,
    /// Set when this instance promoted itself: keep announcing the
    /// takeover to `Down` nodes, which may restart at any time still
    /// pointing their reports at the dead active.
    took_over: bool,
    /// Failure accusations not yet acted on: suspect → distinct
    /// reporters. A node is only declared failed once two independent
    /// witnesses accuse it (or its heartbeats stop); a lone accuser may
    /// itself be the partitioned party, and acting on its stale
    /// suspicion deposes healthy primaries and feeds a
    /// failure→churn→failure loop. A fresh heartbeat from the suspect
    /// clears its accusations.
    suspicions: BTreeMap<NodeIdx, BTreeSet<NodeIdx>>,
    /// Address of our standby, if we run one (active side).
    standby: Option<Ipv4>,
    /// Sync messages missed (standby side).
    missed_syncs: u32,
    /// Internal invariant violations absorbed instead of panicking
    /// (mirrors the server's degradation policy).
    pub internal_errors: u64,
    /// The most recent absorbed error, for diagnostics.
    pub last_internal_error: Option<KvError>,
}

/// A queued administrator command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminOp {
    /// Permanently add a node to the ring.
    AddNode(NodeIdx),
    /// Permanently remove a node from the ring.
    RemoveNode(NodeIdx),
}

impl MetadataApp {
    /// Build the service over `ring`, with per-node addresses and the
    /// switches it controls. `node_addrs[i]` is node `i`'s `(ip, mac)`.
    pub fn new(
        cfg: KvConfig,
        ring: PhysicalRing,
        node_addrs: Vec<(Ipv4, Mac)>,
        mut switches: Vec<SwitchHandle>,
        mut learner: L3Learner,
    ) -> MetadataApp {
        // node_addrs may include provisioned spares beyond the ring.
        assert!(node_addrs.len() >= ring.nodes().len());
        for sw in &mut switches {
            // Ensure the learner knows about our switches too.
            learner.add_switch(sw.id, Rc::clone(&sw.table));
        }
        let nodes = node_addrs
            .into_iter()
            .map(|(ip, mac)| NodeInfo {
                ip,
                mac,
                state: NodeState::Up,
                last_hb: Time::ZERO,
            })
            .collect();
        MetadataApp {
            tp: Transport::new(PORT),
            cfg,
            ring,
            nodes,
            switches,
            learner,
            views: BTreeMap::new(),
            handoffs: BTreeMap::new(),
            load: BTreeMap::new(),
            events: Vec::new(),
            pending_admin: Vec::new(),
            range_load: BTreeMap::new(),
            lb_overrides: BTreeMap::new(),
            admin_gc: BTreeMap::new(),
            rebalance_in: REBALANCE_EVERY,
            role: MetaRole::Active,
            took_over: false,
            suspicions: BTreeMap::new(),
            standby: None,
            missed_syncs: 0,
            internal_errors: 0,
            last_internal_error: None,
        }
    }

    /// Record an internal invariant violation: the service degrades the
    /// one membership operation instead of crashing the control plane.
    fn note_internal(&mut self, e: KvError) {
        self.internal_errors += 1;
        self.last_internal_error = Some(e);
    }

    /// Make this instance a hot standby shadowing `active` (§4.1).
    pub fn into_standby(mut self, active: Ipv4) -> MetadataApp {
        self.role = MetaRole::Standby { active };
        self
    }

    /// Tell this (active) instance to replicate its state to a standby.
    pub fn with_standby(mut self, standby: Ipv4) -> MetadataApp {
        self.standby = Some(standby);
        self
    }

    /// This instance's current role.
    pub fn role(&self) -> MetaRole {
        self.role
    }

    /// Queue an administrator command (applied at the next heartbeat
    /// tick). The harness calls this between simulation steps.
    pub fn queue_admin(&mut self, op: AdminOp) {
        self.pending_admin.push(op);
    }

    /// Current view of a partition.
    pub fn view(&self, p: PartitionId) -> Option<&PartitionView> {
        self.views.get(&p)
    }

    /// Live flow-table entries on the first switch (the §4.6 occupancy).
    pub fn table_occupancy(&self, now: Time) -> (usize, usize) {
        let sw = &self.switches[0];
        let t = sw.table.borrow();
        (t.live_entries(now), t.live_groups(now))
    }

    /// Address of `n`, total over arbitrary message content: an index
    /// outside the cluster maps to the unroutable `0.0.0.0` (the switch
    /// drops it), which beats unwinding the metadata service.
    fn addr(&self, n: NodeIdx) -> Ipv4 {
        self.nodes.get(n.0 as usize).map_or(Ipv4(0), |info| info.ip)
    }

    /// MAC of `n`, total like [`addr`](Self::addr).
    fn mac_of(&self, n: NodeIdx) -> Mac {
        self.nodes
            .get(n.0 as usize)
            .map_or(Mac::ZERO, |info| info.mac)
    }

    /// Liveness state of node `n`, total: an unknown index reads as
    /// `Down`, so a malformed report can never route traffic or trigger
    /// a transition.
    pub fn node_state(&self, n: NodeIdx) -> NodeState {
        self.nodes
            .get(n.0 as usize)
            .map_or(NodeState::Down, |info| info.state)
    }

    fn is_get_eligible(&self, n: NodeIdx) -> bool {
        let state = self.node_state(n);
        // The deliberate §3.3 mutation (chaos-suite checker validation
        // only): rejoining replicas serve gets before catch-up finishes,
        // exposing stale/absent reads the checker must flag.
        if self.cfg.break_rejoin_get_hiding && state == NodeState::Rejoining {
            return true;
        }
        state == NodeState::Up
    }

    // -----------------------------------------------------------------
    // Rule management
    // -----------------------------------------------------------------

    /// (Re-)install all rules for one partition across every switch.
    fn install_partition(&mut self, p: PartitionId, now: Time) {
        let Some(view) = self.views.get(&p).cloned() else {
            self.note_internal(KvError::ViewMissing { partition: p });
            return;
        };
        // Get-eligible targets: live members only (failure hiding +
        // rejoining nodes stay invisible to gets). Handoffs additionally
        // need a live original primary to forward their misses to — a
        // handoff-only replica set lacks the pre-failure data, so it must
        // stay hidden from the get ring entirely (§3.3: better
        // unavailable than inconsistent).
        let primary_can_sink_misses = view.members.iter().any(|&(m, _)| m == view.primary)
            && !view.handoffs.contains(&view.primary)
            && self.node_state(view.primary) == NodeState::Up;
        let get_targets: Vec<(NodeIdx, Ipv4)> = view
            .members
            .iter()
            .copied()
            .filter(|&(n, _)| {
                self.is_get_eligible(n)
                    && !view.syncing.contains(&n)
                    && (primary_can_sink_misses || !view.handoffs.contains(&n))
            })
            .collect();
        // Primary target for the base unicast rule (fall back to any
        // get-eligible member if the primary is not eligible).
        let base_target = get_targets
            .iter()
            .find(|&&(n, _)| n == view.primary)
            .or_else(|| get_targets.first())
            .copied();
        let (u_net, u_len) = self.cfg.unicast.subgroup_prefix(p);
        let (m_net, m_len) = self.cfg.multicast.subgroup_prefix(p);
        let lb = if self.cfg.load_balancing && get_targets.len() > 1 {
            Some(ClientDivisions::new(
                CLIENT_SPACE.0,
                CLIENT_SPACE.1,
                get_targets.len() as u32,
            ))
        } else {
            None
        };
        for sw in &self.switches {
            let at = now + CTRL_LATENCY;
            let mut t = sw.table.borrow_mut();
            // Multicast group: one bucket per member (the put path).
            let buckets: Vec<GroupBucket> = view
                .members
                .iter()
                .filter_map(|&(n, ip)| {
                    let mac = self.mac_of(n);
                    sw.ports
                        .get(&ip)
                        .map(|&port| GroupBucket::rewrite_to(ip, mac, port))
                })
                .collect();
            t.set_group(GroupId(p.0), buckets, at);
            t.install(
                FlowRule::new(
                    prio::VRING,
                    FlowMatch::any().dst_prefix(m_net, m_len),
                    vec![Action::Group(GroupId(p.0))],
                )
                .cookie(COOKIE_UNICAST | p.0 as u64),
                at,
            );
            // Unicast base rule → primary (or stand-in).
            t.remove_by_cookie(COOKIE_LB | p.0 as u64, at);
            match base_target {
                Some((n, ip)) => {
                    let mac = self.mac_of(n);
                    if let Some(&port) = sw.ports.get(&ip) {
                        t.install(
                            FlowRule::new(
                                prio::VRING,
                                FlowMatch::any().dst_prefix(u_net, u_len),
                                vec![
                                    Action::SetIpDst(ip),
                                    Action::SetMacDst(mac),
                                    Action::Output(port),
                                ],
                            )
                            .cookie(COOKIE_UNICAST | p.0 as u64),
                            at,
                        );
                    }
                }
                None => {
                    // No get-eligible member: hide the partition entirely.
                    t.install(
                        FlowRule::new(
                            prio::VRING,
                            FlowMatch::any().dst_prefix(u_net, u_len),
                            vec![Action::Drop],
                        )
                        .cookie(COOKIE_UNICAST | p.0 as u64),
                        at,
                    );
                }
            }
            // Load-balancing rules: (src division, dst subgroup) → replica.
            if let Some(lb) = &lb {
                let overrides = self.lb_overrides.get(&p);
                for (d, ((src_net, src_len), idx)) in lb.assignments().enumerate() {
                    let idx = overrides.and_then(|o| o.get(d).copied()).unwrap_or(idx);
                    // `lb` is only built for len > 1; `.max(1)` keeps the
                    // modulus total anyway.
                    let Some(&(n, ip)) = get_targets.get(idx % get_targets.len().max(1)) else {
                        continue;
                    };
                    let mac = self.mac_of(n);
                    if let Some(&port) = sw.ports.get(&ip) {
                        t.install(
                            FlowRule::new(
                                prio::LB,
                                FlowMatch::any()
                                    .src_prefix(src_net, src_len)
                                    .dst_prefix(u_net, u_len),
                                vec![
                                    Action::SetIpDst(ip),
                                    Action::SetMacDst(mac),
                                    Action::Output(port),
                                ],
                            )
                            .cookie(COOKIE_LB | p.0 as u64),
                            at,
                        );
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Membership transitions
    // -----------------------------------------------------------------

    fn push_view(&mut self, p: PartitionId, extra: &[NodeIdx], ctx: &mut Ctx) {
        let Some(view) = self.views.get(&p).cloned() else {
            self.note_internal(KvError::ViewMissing { partition: p });
            return;
        };
        let mut recipients: Vec<NodeIdx> = view.members.iter().map(|&(n, _)| n).collect();
        for &e in extra {
            if !recipients.contains(&e) {
                recipients.push(e);
            }
        }
        for n in recipients {
            if self.node_state(n) == NodeState::Down {
                continue;
            }
            let dst = self.addr(n);
            let msg = KvMsg::Membership {
                views: vec![view.clone()],
            };
            self.tp
                .tcp_send(ctx, dst, PORT, Msg::new(msg, CTRL_MSG_BYTES + 64));
        }
    }

    /// Publish a changed view: store it, reprogram the switch for its
    /// partition, push it to its members and to `extra`, and — when the
    /// change moved the primary to `promoted` — tell the new primary to
    /// take over, running §4.4 lock resolution like any other takeover.
    fn publish(
        &mut self,
        view: PartitionView,
        extra: &[NodeIdx],
        promoted: Option<NodeIdx>,
        ctx: &mut Ctx,
    ) {
        let p = view.partition;
        self.views.insert(p, view);
        let now = ctx.now();
        self.install_partition(p, now);
        self.push_view(p, extra, ctx);
        if let Some(np) = promoted {
            let dst = self.addr(np);
            let msg = KvMsg::BecomePrimary { partition: p };
            self.tp
                .tcp_send(ctx, dst, PORT, Msg::new(msg, CTRL_MSG_BYTES));
        }
    }

    /// The nodes standing in as handoffs on partition `p`.
    fn handoffs_of(&self, p: PartitionId) -> Vec<NodeIdx> {
        self.handoffs
            .get(&p)
            .map(|hs| hs.iter().map(|&(_, h, _)| h).collect())
            .unwrap_or_default()
    }

    /// Send `n` its plan of which node to drain each partition from.
    fn send_plan(&mut self, n: NodeIdx, sources: Vec<(PartitionId, Option<Ipv4>)>, ctx: &mut Ctx) {
        let dst = self.addr(n);
        let msg = KvMsg::RejoinPlan { sources };
        self.tp
            .tcp_send(ctx, dst, PORT, Msg::new(msg, CTRL_MSG_BYTES + 64));
    }

    /// Tell every node whose state `to` accepts that this instance is now
    /// the active metadata service.
    fn announce_failover(&mut self, to: impl Fn(NodeState) -> bool, ctx: &mut Ctx) {
        let dsts: Vec<Ipv4> = self
            .nodes
            .iter()
            .filter(|info| to(info.state))
            .map(|info| info.ip)
            .collect();
        for dst in dsts {
            let msg = KvMsg::MetaFailover { new_meta: ctx.ip() };
            self.tp
                .tcp_send(ctx, dst, PORT, Msg::new(msg, CTRL_MSG_BYTES));
        }
    }

    /// Declare `n` failed: hide it from both rings, select handoffs, and
    /// notify affected replicas (§4.4).
    pub fn fail_node(&mut self, n: NodeIdx, ctx: &mut Ctx) {
        let Some(info) = self.nodes.get_mut(n.0 as usize) else {
            return; // unknown node: nothing to fail
        };
        if info.state == NodeState::Down {
            return;
        }
        info.state = NodeState::Down;
        self.suspicions.remove(&n);
        self.events.push((ctx.now(), MetaEvent::NodeFailed(n)));
        let affected: Vec<PartitionId> = self
            .views
            .iter()
            .filter(|(_, v)| v.members.iter().any(|&(m, _)| m == n))
            .map(|(&p, _)| p)
            .collect();
        for p in affected {
            let Some(mut view) = self.views.get(&p).cloned() else {
                self.note_internal(KvError::ViewMissing { partition: p });
                continue;
            };
            view.members.retain(|&(m, _)| m != n);
            let mut new_primary = None;
            if view.primary == n {
                // Promote the first surviving original (non-handoff) member.
                let hoffs: Vec<NodeIdx> = self
                    .handoffs
                    .get(&p)
                    .map(|v| v.iter().map(|&(_, h, _)| h).collect())
                    .unwrap_or_default();
                let promoted = view
                    .members
                    .iter()
                    .map(|&(m, _)| m)
                    .find(|m| !hoffs.contains(m))
                    .or_else(|| view.members.first().map(|&(m, _)| m));
                if let Some(np) = promoted {
                    view.primary = np;
                    new_primary = Some(np);
                    self.events.push((
                        ctx.now(),
                        MetaEvent::PrimaryChanged {
                            partition: p,
                            new_primary: np,
                        },
                    ));
                }
            }
            // Was n itself a handoff? The originals it stood in for lose
            // their drain source; remember them so the replacement handoff
            // selected below is keyed to THEM, not to n.
            let orphaned: Vec<NodeIdx> = self
                .handoffs
                .get(&p)
                .map(|hs| {
                    hs.iter()
                        .filter(|&&(_, h, _)| h == n)
                        .map(|&(f, _, _)| f)
                        .collect()
                })
                .unwrap_or_default();
            if let Some(hs) = self.handoffs.get_mut(&p) {
                hs.retain(|&(_, h, _)| h != n);
            }
            view.handoffs = self.handoffs_of(p);
            // Select a handoff for the failed ORIGINAL member (not for a
            // failed handoff of someone else — that original gets a new
            // stand-in below either way).
            let members_now: Vec<NodeIdx> = view.members.iter().map(|&(m, _)| m).collect();
            let mut exclude: Vec<NodeIdx> = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, info)| info.state == NodeState::Down)
                .map(|(i, _)| NodeIdx(i as u32))
                .collect();
            exclude.extend(members_now.iter().copied());
            if let Some(h) = self.ring.handoff_for(p, &exclude) {
                let h_ip = self.addr(h);
                view.members.push((h, h_ip));
                if !view.handoffs.contains(&h) {
                    view.handoffs.push(h);
                }
                let hs = self.handoffs.entry(p).or_default();
                hs.push((n, h, true));
                // The replacement also stands in for any original whose
                // stand-in just died — but it missed the writes the dead
                // stand-in held, so the chain is marked incomplete and the
                // original's rejoin will drain from the primary.
                for f in &orphaned {
                    if *f != n {
                        hs.push((*f, h, false));
                    }
                }
                self.events.push((
                    ctx.now(),
                    MetaEvent::HandoffAssigned {
                        partition: p,
                        failed: n,
                        handoff: h,
                    },
                ));
            }
            // The handoff push above may have revived an otherwise-empty
            // replica set whose recorded primary is dead: restore the
            // primary-is-a-member invariant before publishing the view.
            if new_primary.is_none() {
                new_primary = self.fix_primary(p, &mut view, ctx.now());
            }
            self.publish(view, &[], new_primary, ctx);
        }
    }

    /// Restore the invariant that a non-empty view's primary is one of its
    /// members (it can break when an entire replica set failed and nodes
    /// rejoin one by one). Prefers the ring's original primary. Returns
    /// the promoted node if a change was needed.
    fn fix_primary(
        &mut self,
        p: PartitionId,
        view: &mut PartitionView,
        now: Time,
    ) -> Option<NodeIdx> {
        if view.members.is_empty() || view.members.iter().any(|&(m, _)| m == view.primary) {
            return None;
        }
        let preferred = self.ring.primary(p);
        let new_primary = if view.members.iter().any(|&(m, _)| m == preferred) {
            preferred
        } else {
            // Non-empty is checked above; `?` keeps the path total anyway.
            view.members.first().map(|&(m, _)| m)?
        };
        view.primary = new_primary;
        self.events.push((
            now,
            MetaEvent::PrimaryChanged {
                partition: p,
                new_primary,
            },
        ));
        Some(new_primary)
    }

    /// The drain source for `n`'s rejoin on partition `p`: always the
    /// partition primary. The primary participates in every put round for
    /// the partition, so it holds all committed data — and, crucially, it
    /// coordinates those rounds, so it can order the drain snapshot
    /// *after* any round whose replica group predates `n`'s re-entry
    /// (see `ServerApp::serve_fetch`). A handoff could serve the data it
    /// holds but cannot see rounds still in flight at the coordinator,
    /// which is exactly the window that produced stale post-recovery
    /// gets under the chaos harness.
    fn rejoin_source(&self, p: PartitionId, n: NodeIdx) -> Option<Ipv4> {
        self.views.get(&p).and_then(|view| {
            let pr = view.primary;
            (pr != n && self.node_state(pr) != NodeState::Down).then(|| self.addr(pr))
        })
    }

    /// (Re)send the rejoin plan for `n` from the current views/handoffs.
    fn send_rejoin_plan(&mut self, n: NodeIdx, ctx: &mut Ctx) {
        let sources: Vec<(PartitionId, Option<Ipv4>)> = self
            .ring
            .partitions_of(n)
            .into_iter()
            .map(|p| (p, self.rejoin_source(p, n)))
            .collect();
        self.send_plan(n, sources, ctx);
    }

    /// A failed node asks to rejoin: phase 1 of §4.4 recovery — put ring
    /// only, plus a plan of handoff nodes to drain.
    fn rejoin(&mut self, n: NodeIdx, ctx: &mut Ctx) {
        if self.node_state(n) == NodeState::Rejoining {
            // A duplicate request — the original plan was lost (e.g. the
            // node re-reported after learning of a metadata failover).
            // The views already list the node; just resend the plan.
            self.send_rejoin_plan(n, ctx);
            return;
        }
        let now = ctx.now();
        let Some(info) = self.nodes.get_mut(n.0 as usize) else {
            return; // a rejoin request naming a node we never knew
        };
        info.state = NodeState::Rejoining;
        info.last_hb = now;
        self.events.push((now, MetaEvent::NodeRejoining(n)));
        let parts = self.ring.partitions_of(n);
        for p in parts {
            let Some(mut view) = self.views.get(&p).cloned() else {
                self.note_internal(KvError::ViewMissing { partition: p });
                continue;
            };
            if !view.members.iter().any(|&(m, _)| m == n) {
                view.members.push((n, self.addr(n)));
            }
            // If the whole replica set had failed, the stored primary may
            // be dead: restore the invariant now that a member exists.
            let promoted = self.fix_primary(p, &mut view, ctx.now());
            // Republishing updates the multicast group.
            self.publish(view, &[], promoted, ctx);
        }
        self.send_rejoin_plan(n, ctx);
    }

    /// Admin reconfiguration: apply a queued add/remove (§4.4 "Ring
    /// Re-Configuration"). New replica-set members are added to the put
    /// ring immediately, marked `syncing`, and told to retrieve their hash
    /// range from the partition primary; they become get-visible when they
    /// report `RecoveryDone`.
    fn apply_admin(&mut self, op: AdminOp, ctx: &mut Ctx) {
        let changed = match op {
            AdminOp::AddNode(n) => {
                if self.ring.nodes().contains(&n) || self.node_state(n) != NodeState::Up {
                    return;
                }
                self.ring.add_node(n)
            }
            AdminOp::RemoveNode(n) => {
                if !self.ring.nodes().contains(&n)
                    || self.ring.nodes().len() <= self.cfg.replication
                {
                    return;
                }
                self.ring.remove_node(n)
            }
        };
        // Per-node sync plans accumulated across affected partitions.
        let mut plans: BTreeMap<NodeIdx, Vec<(PartitionId, Option<Ipv4>)>> = BTreeMap::new();
        for p in changed {
            let Some(old) = self.views.get(&p).cloned() else {
                self.note_internal(KvError::ViewMissing { partition: p });
                continue;
            };
            let new_set = self.ring.replica_set(p).to_vec();
            let mut view = PartitionView {
                partition: p,
                primary: self.ring.primary(p),
                members: new_set.iter().map(|&m| (m, self.addr(m))).collect(),
                handoffs: Vec::new(),
                syncing: Vec::new(),
            };
            // A surviving member that was still draining keeps its
            // syncing status: back-to-back reconfigurations must not
            // promote an inconsistent replica to get-visibility.
            for &m in &new_set {
                if old.syncing.contains(&m) {
                    view.syncing.push(m);
                }
            }
            // Fresh members must drain their hash range before becoming
            // get-visible. They fetch from a *consistent* old member —
            // preferring survivors (and among them the old primary), but
            // a still-syncing survivor holds an incomplete snapshot, so
            // fall back to a consistent leaver: its garbage collection
            // is deferred (`admin_gc`) precisely so it can serve here.
            let survives = |m: NodeIdx| new_set.contains(&m);
            let consistent = |m: NodeIdx| !old.syncing.contains(&m);
            let source = if survives(old.primary) && consistent(old.primary) {
                old.primary
            } else {
                old.members
                    .iter()
                    .map(|&(m, _)| m)
                    .find(|&m| survives(m) && consistent(m))
                    .or_else(|| old.members.iter().map(|&(m, _)| m).find(|&m| consistent(m)))
                    .unwrap_or(old.primary)
            };
            let source_ip = self.addr(source);
            for &m in &new_set {
                let was_member = old.members.iter().any(|&(o, _)| o == m);
                if !was_member {
                    view.syncing.push(m);
                    plans.entry(m).or_default().push((p, Some(source_ip)));
                }
            }
            let promoted = if view.primary != old.primary {
                self.events.push((
                    ctx.now(),
                    MetaEvent::PrimaryChanged {
                        partition: p,
                        new_primary: view.primary,
                    },
                ));
                Some(view.primary)
            } else {
                None
            };
            let sync_pending = !view.syncing.is_empty();
            // Inform current and former members. Leavers only drop their
            // objects once the view they receive has an empty syncing
            // set (they may hold the only consistent copies until the
            // incoming replicas drain); remember who still has to be
            // re-notified when that happens.
            let leavers: Vec<NodeIdx> = old
                .members
                .iter()
                .map(|&(m, _)| m)
                .filter(|m| !new_set.contains(m))
                .collect();
            let mut notify = leavers.clone();
            if sync_pending {
                let gc = self.admin_gc.entry(p).or_default();
                for &m in &leavers {
                    if !gc.contains(&m) {
                        gc.push(m);
                    }
                }
                // A node re-added by this reconfiguration is a member
                // again and must keep (and re-drain) its data.
                gc.retain(|m| !new_set.contains(m));
            } else if let Some(gc) = self.admin_gc.remove(&p) {
                for m in gc {
                    if !notify.contains(&m) {
                        notify.push(m);
                    }
                }
            }
            // A reconfiguration that moves the primary must run §4.4 lock
            // resolution like any other takeover: it settles orphaned
            // locks AND floors the new primary's commit-sequence counter
            // (via the members' max_seq reports) so it never mints
            // timestamps an already-committed object would outrank.
            self.publish(view, &notify, promoted, ctx);
        }
        for (n, sources) in plans {
            self.send_plan(n, sources, ctx);
        }
    }

    /// Phase 2: the node holds consistent data — open the get path and
    /// retire its handoffs.
    fn recovered(&mut self, n: NodeIdx, ctx: &mut Ctx) {
        if self.node_state(n) == NodeState::Up {
            // An admin-added replica finished draining its hash ranges:
            // make it get-visible everywhere it was syncing.
            let parts: Vec<PartitionId> = self
                .views
                .iter()
                .filter(|(_, v)| v.syncing.contains(&n))
                .map(|(&p, _)| p)
                .collect();
            for p in parts {
                let Some(mut view) = self.views.get(&p).cloned() else {
                    self.note_internal(KvError::ViewMissing { partition: p });
                    continue;
                };
                view.syncing.retain(|&m| m != n);
                // Every incoming replica has drained: re-notify the
                // leavers whose garbage collection was deferred so they
                // finally drop their (now redundant) copies.
                let formers = if view.syncing.is_empty() {
                    self.admin_gc.remove(&p).unwrap_or_default()
                } else {
                    Vec::new()
                };
                self.publish(view, &formers, None, ctx);
            }
            self.events.push((ctx.now(), MetaEvent::NodeRecovered(n)));
            return;
        }
        if self.node_state(n) != NodeState::Rejoining {
            return;
        }
        if let Some(info) = self.nodes.get_mut(n.0 as usize) {
            info.state = NodeState::Up;
        }
        self.events.push((ctx.now(), MetaEvent::NodeRecovered(n)));
        for p in self.ring.partitions_of(n) {
            let mut retired: Vec<NodeIdx> = Vec::new();
            if let Some(hs) = self.handoffs.get_mut(&p) {
                let mine: Vec<NodeIdx> = hs
                    .iter()
                    .filter(|&&(f, _, _)| f == n)
                    .map(|&(_, h, _)| h)
                    .collect();
                hs.retain(|&(f, _, _)| f != n);
                let still_needed: Vec<NodeIdx> = hs.iter().map(|&(_, h, _)| h).collect();
                for h in mine {
                    if !still_needed.contains(&h) {
                        retired.push(h);
                    }
                }
            }
            let Some(mut view) = self.views.get(&p).cloned() else {
                self.note_internal(KvError::ViewMissing { partition: p });
                continue;
            };
            view.members.retain(|&(m, _)| !retired.contains(&m));
            // A crash-rejoin drains the node's full hash ranges, which
            // also completes any admin-reconfiguration sync it owed.
            view.syncing.retain(|&m| m != n);
            view.handoffs = self.handoffs_of(p);
            // A retired handoff may have been the acting primary (the
            // whole original set had died): hand the role back.
            let promoted = self.fix_primary(p, &mut view, ctx.now());
            self.publish(view, &retired, promoted, ctx);
        }
    }

    fn check_heartbeats(&mut self, ctx: &mut Ctx) {
        if let MetaRole::Standby { .. } = self.role {
            // Count the active's sync messages instead of node heartbeats;
            // three misses and we take over (§4.1).
            self.missed_syncs += 1;
            if self.missed_syncs > 3 {
                self.promote(ctx);
            }
            ctx.set_timer(self.cfg.hb_interval, TOK_HBCHECK);
            return;
        }
        // Ring reconfiguration recomputes replica sets from the raw ring,
        // which assumes every listed node can actually sync and serve.
        // Applying it mid-failure would resurrect Down members into put
        // groups and orphan handoff chains — hold the queue until the
        // membership is stable (§4.4 reconfiguration is an administrative
        // action; deferring it under failures is the safe order).
        if self.nodes.iter().all(|info| info.state == NodeState::Up) {
            for op in std::mem::take(&mut self.pending_admin) {
                self.apply_admin(op, ctx);
            }
        }
        // After a takeover, down nodes still point their reports at the
        // dead active; re-announce until they come back and hear us
        // (their restart-time RejoinRequest goes to a black hole
        // otherwise, and they would never re-enter the ring).
        if self.took_over {
            self.announce_failover(|state| state == NodeState::Down, ctx);
        }
        let now = ctx.now();
        let dead: Vec<NodeIdx> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, info)| {
                info.state != NodeState::Down
                    && now.saturating_sub(info.last_hb) > self.cfg.hb_interval * 3
            })
            .map(|(i, _)| NodeIdx(i as u32))
            .collect();
        for n in dead {
            self.fail_node(n, ctx);
        }
        if self.cfg.adaptive_lb && self.cfg.load_balancing {
            self.rebalance_in = self.rebalance_in.saturating_sub(1);
            if self.rebalance_in == 0 {
                self.rebalance_in = REBALANCE_EVERY;
                self.rebalance(ctx);
            }
        }
        // Replicate state to the hot standby (the metadata is small and
        // changes infrequently, §4.1).
        if let Some(standby) = self.standby {
            let msg = KvMsg::MetaSync {
                views: self.views.values().cloned().collect(),
                handoffs: self.handoffs.iter().map(|(&p, v)| (p, v.clone())).collect(),
                states: self
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, info)| (NodeIdx(i as u32), info.state))
                    .collect(),
                ring_nodes: self.ring.nodes().to_vec(),
            };
            let size = CTRL_MSG_BYTES + 48 * self.views.len() as u32;
            self.tp.tcp_send(ctx, standby, PORT, Msg::new(msg, size));
        }
        ctx.set_timer(self.cfg.hb_interval, TOK_HBCHECK);
    }

    /// Standby → active takeover: adopt the replicated state, reinstall
    /// every rule (idempotent), and redirect node reporting to us.
    fn promote(&mut self, ctx: &mut Ctx) {
        self.role = MetaRole::Active;
        self.took_over = true;
        self.events.push((ctx.now(), MetaEvent::Promoted));
        let now = ctx.now();
        // Avoid a mass false-failure storm: the replicated last_hb values
        // are stale by design.
        for info in &mut self.nodes {
            info.last_hb = now;
        }
        let parts: Vec<PartitionId> = self.views.keys().copied().collect();
        for p in parts {
            self.install_partition(p, now);
        }
        self.announce_failover(|state| state != NodeState::Down, ctx);
    }

    /// Workload-informed rebalancing (the paper's §4.5 future work):
    /// assign client divisions to replicas with an LPT greedy so the
    /// heaviest observed source ranges spread across replicas, instead of
    /// static round-robin. Loads decay by half each round so the balancer
    /// tracks shifting workloads.
    fn rebalance(&mut self, ctx: &mut Ctx) {
        let parts: Vec<PartitionId> = self.views.keys().copied().collect();
        for p in parts {
            let Some(view) = self.views.get(&p) else {
                self.note_internal(KvError::ViewMissing { partition: p });
                continue;
            };
            let targets: Vec<NodeIdx> = view
                .members
                .iter()
                .map(|&(n, _)| n)
                .filter(|&n| self.is_get_eligible(n) && !view.syncing.contains(&n))
                .collect();
            if targets.len() < 2 {
                continue;
            }
            let div = ClientDivisions::new(CLIENT_SPACE.0, CLIENT_SPACE.1, targets.len() as u32);
            // Per-division observed load: sum the /26 buckets inside each
            // division prefix.
            let loads: Vec<u64> = div
                .assignments()
                .map(|((net, len), _)| {
                    self.range_load
                        .iter()
                        .filter(|(&(pp, bucket), _)| pp == p && bucket.in_prefix(net, len))
                        .map(|(_, &n)| n)
                        .sum()
                })
                .collect();
            if loads.iter().sum::<u64>() == 0 {
                continue;
            }
            let assignment = assign_divisions_lpt(&loads, targets.len());
            if self.lb_overrides.get(&p).map(std::vec::Vec::as_slice) != Some(assignment.as_slice())
            {
                self.lb_overrides.insert(p, assignment);
                let now = ctx.now();
                self.install_partition(p, now);
            }
        }
        for v in self.range_load.values_mut() {
            *v /= 2;
        }
        self.range_load.retain(|_, &mut v| v > 0);
    }

    fn on_kv(&mut self, msg: &KvMsg, _src: Ipv4, ctx: &mut Ctx) {
        if let KvMsg::MetaSync {
            views,
            handoffs,
            states,
            ring_nodes,
        } = msg
        {
            // Standby side: adopt the active's state wholesale.
            self.missed_syncs = 0;
            self.views = views.iter().map(|v| (v.partition, v.clone())).collect();
            self.handoffs = handoffs.iter().cloned().collect();
            for &(n, st) in states {
                if let Some(info) = self.nodes.get_mut(n.0 as usize) {
                    info.state = st;
                }
            }
            // Converge the local ring on the active's membership
            // (consistent hashing is a pure function of the node set, so
            // both instances end up with identical assignments).
            let want: BTreeSet<NodeIdx> = ring_nodes.iter().copied().collect();
            let have: BTreeSet<NodeIdx> = self.ring.nodes().iter().copied().collect();
            for &n in want.difference(&have) {
                self.ring.add_node(n);
            }
            for &n in have.difference(&want) {
                self.ring.remove_node(n);
            }
            return;
        }
        if let MetaRole::Standby { .. } = self.role {
            return; // passive: the active instance handles the cluster
        }
        match msg {
            KvMsg::Heartbeat { node, stats } => {
                let Some(info) = self.nodes.get_mut(node.0 as usize) else {
                    return; // heartbeat from outside the cluster roster
                };
                info.last_hb = ctx.now();
                let was_down = info.state == NodeState::Down;
                let agg = self.load.entry(*node).or_default();
                agg.gets += stats.gets;
                agg.puts += stats.puts;
                agg.bytes_out += stats.bytes_out;
                for &(p, bucket, n) in &stats.gets_by_range {
                    *self.range_load.entry((p, bucket)).or_insert(0) += n;
                }
                // A heartbeat from a `Down` node means the declaration was
                // wrong (e.g. a partitioned peer's failure reports) or the
                // node restarted and its rejoin request was lost. Either
                // way §4.4 applies: put it through the two-phase rejoin
                // rather than leaving a live node exiled forever.
                if was_down {
                    self.rejoin(*node, ctx);
                } else {
                    // The node is demonstrably alive: drop any pending
                    // accusations against it.
                    self.suspicions.remove(node);
                }
            }
            KvMsg::FailureReport { suspect, from } => {
                let witnesses = self.suspicions.entry(*suspect).or_default();
                witnesses.insert(*from);
                // With fewer than three nodes a second witness cannot
                // exist; otherwise insist on one.
                let quorum = if self.nodes.len() < 3 { 1 } else { 2 };
                if witnesses.len() >= quorum {
                    self.fail_node(*suspect, ctx);
                }
            }
            KvMsg::RejoinRequest { node } => self.rejoin(*node, ctx),
            KvMsg::RecoveryDone { node } => self.recovered(*node, ctx),
            _ => {}
        }
    }

    fn drive(&mut self, events: impl IntoIterator<Item = TransportEvent>, ctx: &mut Ctx) {
        for ev in events {
            if let TransportEvent::Delivered { from, msg, .. } = ev {
                if let Some(kv) = msg.downcast::<KvMsg>() {
                    let kv = kv.clone();
                    self.on_kv(&kv, from.0, ctx);
                }
            }
        }
    }
}

impl App for MetadataApp {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        for info in &mut self.nodes {
            info.last_hb = now;
        }
        // Both instances build the same initial views from the static ring.
        for p in 0..self.ring.num_partitions() {
            let p = PartitionId(p);
            let members: Vec<(NodeIdx, Ipv4)> = self
                .ring
                .replica_set(p)
                .iter()
                .map(|&n| (n, self.addr(n)))
                .collect();
            let view = PartitionView {
                partition: p,
                primary: self.ring.primary(p),
                members,
                handoffs: Vec::new(),
                syncing: Vec::new(),
            };
            self.views.insert(p, view);
        }
        if let MetaRole::Standby { .. } = self.role {
            // Passive: wait for syncs; the active instance owns the switch.
            ctx.set_timer(self.cfg.hb_interval, TOK_HBCHECK);
            return;
        }
        for p in 0..self.ring.num_partitions() {
            self.install_partition(PartitionId(p), now);
        }
        // Initial membership push: each node gets the views it serves.
        let mut per_node: BTreeMap<NodeIdx, Vec<PartitionView>> = BTreeMap::new();
        for view in self.views.values() {
            for &(n, _) in &view.members {
                per_node.entry(n).or_default().push(view.clone());
            }
        }
        for (n, views) in per_node {
            let dst = self.addr(n);
            let size = CTRL_MSG_BYTES + 64 * views.len() as u32;
            let msg = KvMsg::Membership { views };
            self.tp.tcp_send(ctx, dst, PORT, Msg::new(msg, size));
        }
        ctx.set_timer(self.cfg.hb_interval, TOK_HBCHECK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let events = self.tp.on_packet(&pkt, ctx);
        self.drive(events, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TRANSPORT_TICK {
            let events = self.tp.on_timer(token, ctx);
            self.drive(events, ctx);
            return;
        }
        if token == TOK_HBCHECK {
            self.check_heartbeats(ctx);
        }
    }

    fn on_packet_in(&mut self, sw: SwitchId, in_port: Port, pkt: Packet, ctx: &mut Ctx) {
        let _ = self.learner.on_packet_in(sw, in_port, pkt, ctx);
    }
}

/// Longest-processing-time greedy: assign each division (heaviest first)
/// to the replica with the least accumulated load. Returns, per division
/// index, the chosen replica index in `0..targets`.
pub fn assign_divisions_lpt(loads: &[u64], targets: usize) -> Vec<usize> {
    // Total over any input: `targets == 0` degrades to one phantom
    // replica (everything maps to 0) instead of panicking.
    let targets = targets.max(1);
    let load = |d: usize| loads.get(d).copied().unwrap_or(0);
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(load(d)));
    let mut acc = vec![0u64; targets];
    let mut out = vec![0usize; loads.len()];
    for d in order {
        let t = acc
            .iter()
            .enumerate()
            .min_by_key(|&(t, &a)| (a, t))
            .map_or(0, |(t, _)| t);
        if let Some(slot) = out.get_mut(d) {
            *slot = t;
        }
        if let Some(a) = acc.get_mut(t) {
            *a += load(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_spreads_uniform_load_round_robin_like() {
        let a = assign_divisions_lpt(&[10, 10, 10, 10], 4);
        let mut targets = a.clone();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2, 3], "each replica gets one division");
    }

    #[test]
    fn lpt_isolates_the_heavy_division() {
        // one division carries almost everything: it must get a replica
        // to itself while the light ones share.
        let a = assign_divisions_lpt(&[1000, 10, 10, 10], 3);
        let heavy = a[0];
        assert!(a[1..].iter().all(|&t| t != heavy), "{a:?}");
    }

    #[test]
    fn lpt_minimizes_makespan_on_known_case() {
        // classic LPT instance: loads 7,6,5,4 on 2 targets -> 11 vs 11.
        let a = assign_divisions_lpt(&[7, 6, 5, 4], 2);
        let mut acc = [0u64; 2];
        for (d, &t) in a.iter().enumerate() {
            acc[t] += [7u64, 6, 5, 4][d];
        }
        assert_eq!(acc[0].max(acc[1]), 11);
    }

    #[test]
    fn lpt_handles_more_targets_than_divisions() {
        let a = assign_divisions_lpt(&[5, 3], 8);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn lpt_zero_loads_are_stable() {
        let a = assign_divisions_lpt(&[0, 0, 0], 2);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&t| t < 2));
    }
}
