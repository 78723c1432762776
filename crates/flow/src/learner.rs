//! The layer-3 learning controller of §5 ("Mapping Service").
//!
//! "The SDN controller implements a layer 3 learning switch. If the
//! controller receives a packet destined to a not-yet-seen IP address, the
//! controller will check if the address is a vnode address ... else the
//! controller will buffer the packet and broadcast an ARP request for the
//! unknown address. On receiving an ARP reply, the controller will update
//! the forwarding tables and forward the buffered packets."
//!
//! [`L3Learner`] is that logic as an embeddable component: the NICE
//! metadata service (and the plain NOOB deployments) hold one and delegate
//! `on_packet_in` to it. Virtual-ring rules are installed *by the
//! embedding controller* at higher priority, so only physical addresses
//! reach this learner.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nice_sim::{ArpOp, Ctx, Ipv4, Mac, NodeIo, Packet, Port, Proto, SwitchId, CTRL_LATENCY};

use crate::rule::{Action, FlowMatch, FlowRule};
use crate::table::FlowTable;

/// Rule priorities used across the system, lowest to highest. More
/// specific intents sit at higher priorities so e.g. a load-balancing rule
/// (src+dst match) beats the plain vring rule for the same partition.
pub mod prio {
    /// Learned physical-address unicast rules.
    pub const PHYS: u16 = 100;
    /// Virtual-ring (unicast and multicast) mapping rules.
    pub const VRING: u16 = 200;
    /// Load-balancing rules matching (client src prefix, vring dst prefix).
    pub const LB: u16 = 300;
}

/// Cookie tag for rules installed by the learner.
pub const LEARNER_COOKIE: u64 = 0x4c4e; // "LN"

/// What the learner discovered during a packet-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnEvent {
    /// A new `(ip, mac)` binding appeared at `(sw, port)`.
    NewBinding {
        /// Switch that saw the host.
        sw: SwitchId,
        /// Port the host is attached to.
        port: Port,
        /// The host's IP.
        ip: Ipv4,
        /// The host's MAC.
        mac: Mac,
    },
}

/// Per-switch state the learner manages.
struct SwitchState {
    table: Rc<RefCell<FlowTable>>,
    bindings: BTreeMap<Ipv4, (Mac, Port)>,
    pending: BTreeMap<Ipv4, Vec<Packet>>,
}

/// An embeddable L3 learning controller.
#[derive(Default)]
pub struct L3Learner {
    switches: BTreeMap<SwitchId, SwitchState>,
    /// Cap on buffered packets per unknown destination.
    pending_cap: usize,
}

impl L3Learner {
    /// Create a learner; `pending_cap` bounds buffered packets per unknown
    /// destination address.
    pub fn new() -> L3Learner {
        L3Learner {
            switches: BTreeMap::new(),
            pending_cap: 64,
        }
    }

    /// Register a switch this controller manages.
    pub fn add_switch(&mut self, sw: SwitchId, table: Rc<RefCell<FlowTable>>) {
        self.switches.insert(
            sw,
            SwitchState {
                table,
                bindings: BTreeMap::new(),
                pending: BTreeMap::new(),
            },
        );
    }

    /// The learned `(mac, port)` for `ip` on `sw`, if any.
    pub fn binding(&self, sw: SwitchId, ip: Ipv4) -> Option<(Mac, Port)> {
        self.switches.get(&sw)?.bindings.get(&ip).copied()
    }

    /// Handle a packet-in from `sw`; learns sources, resolves/floods ARP,
    /// installs unicast rules, and forwards buffered packets. Returns
    /// discovery events for the embedding controller.
    pub fn on_packet_in(
        &mut self,
        sw: SwitchId,
        in_port: Port,
        pkt: Packet,
        ctx: &mut Ctx,
    ) -> Vec<LearnEvent> {
        let mut events = Vec::new();
        let Some(st) = self.switches.get_mut(&sw) else {
            return events;
        };
        let now = ctx.now();

        // 1. Learn the source binding.
        if pkt.src != Ipv4::UNSPECIFIED && !pkt.src_mac.is_broadcast() {
            let fresh = st.bindings.get(&pkt.src) != Some(&(pkt.src_mac, in_port));
            if fresh {
                st.bindings.insert(pkt.src, (pkt.src_mac, in_port));
                st.table.borrow_mut().install(
                    FlowRule::new(
                        prio::PHYS,
                        FlowMatch::any().dst_ip(pkt.src),
                        vec![Action::SetMacDst(pkt.src_mac), Action::Output(in_port)],
                    )
                    .cookie(LEARNER_COOKIE),
                    now + CTRL_LATENCY,
                );
                events.push(LearnEvent::NewBinding {
                    sw,
                    port: in_port,
                    ip: pkt.src,
                    mac: pkt.src_mac,
                });
                // Flush packets that were waiting for this destination.
                if let Some(waiting) = st.pending.remove(&pkt.src) {
                    for mut w in waiting {
                        w.dst_mac = pkt.src_mac;
                        ctx.packet_out(sw, in_port, w);
                    }
                }
            }
        }

        // 2. Protocol-specific behavior.
        match pkt.proto {
            Proto::Arp => {
                if let Some(&ArpOp::Request { target }) = pkt.payload_as::<ArpOp>() {
                    if target == pkt.src {
                        // Gratuitous ARP: learning (above) is all we need.
                    } else if let Some(&(mac, _)) = st.bindings.get(&target) {
                        // Proxy-ARP the answer straight back.
                        let reply = Packet::arp_reply(target, mac, pkt.src, pkt.src_mac);
                        ctx.packet_out(sw, in_port, reply);
                    } else {
                        // Unknown: flood the request.
                        ctx.packet_out_flood(sw, Some(in_port), pkt);
                    }
                }
                // ARP replies: nothing beyond learning.
            }
            Proto::Udp | Proto::Tcp => {
                match st.bindings.get(&pkt.dst) {
                    Some(&(mac, port)) => {
                        // Known destination whose rule hasn't activated yet
                        // (or was idle-expired): forward this packet now.
                        let mut out = pkt;
                        out.dst_mac = mac;
                        ctx.packet_out(sw, port, out);
                    }
                    None => {
                        // Buffer and ARP for it (§5).
                        let q = st.pending.entry(pkt.dst).or_default();
                        let first = q.is_empty();
                        if q.len() < self.pending_cap {
                            q.push(pkt.clone());
                        }
                        if first {
                            let req = Packet::arp_request(pkt.src, pkt.src_mac, pkt.dst);
                            ctx.packet_out_flood(sw, Some(in_port), req);
                        }
                    }
                }
            }
        }
        events
    }
}
