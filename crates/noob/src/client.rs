//! The NOOB client: drives operations through one of the three access
//! mechanisms of §2.1 (ROG gateway, RAG gateway, or RAC direct routing).
//!
//! The closed-loop engine (queue, retries and their timers, records) is
//! the shared [`kv_core::ClientCore`]; this file maps its attempts onto NOOB
//! routing: gateway indirection, client-side placement knowledge, or the
//! caching RAC of §2.1.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

use kv_core::{Attempt, ClientCore, KvClient, CTRL_MSG_BYTES};
use nice_kv::ClientOp;
use nice_transport::{Msg, Transport, TransportEvent, TRANSPORT_TICK};
use node_rt::{Ipv4, NodeApp, NodeIo, Packet, Time};

use crate::msg::NoobMsg;
use crate::server::NoobRing;

/// Where this client sends its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientRoute {
    /// Through a gateway at this address (ROG or RAG deployments).
    Gateway(Ipv4),
    /// Directly to the responsible node (RAC with a warm metadata cache).
    /// `lb_gets` additionally spreads gets over replicas client-side (the
    /// weaker-consistency client-side balancing of §4.5's discussion).
    Direct {
        /// Spread gets over replicas.
        lb_gets: bool,
    },
    /// The literal §2.1 RAC: "the clients cache the metadata of
    /// previously accessed objects". Cold keys go to a random storage
    /// node (which forwards, one extra hop); the responsible node is
    /// learned from the reply and cached for subsequent requests.
    CachingRac,
}

/// The NOOB client application (closed-loop, like the NICE client).
///
/// Derefs to the shared [`ClientCore`] for records, completion state,
/// and workload management.
pub struct NoobClientApp {
    ring: NoobRing,
    route: ClientRoute,
    /// key → responsible node, learned from replies (CachingRac).
    cache: HashMap<String, Ipv4>,
    /// Cache statistics: (hits, misses).
    pub cache_stats: (u64, u64),
    tp: Transport,
    core: ClientCore,
}

impl Deref for NoobClientApp {
    type Target = ClientCore;

    fn deref(&self) -> &ClientCore {
        &self.core
    }
}

impl DerefMut for NoobClientApp {
    fn deref_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }
}

impl KvClient for NoobClientApp {
    fn core(&self) -> &ClientCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }
}

impl NoobClientApp {
    /// A client running `ops` from `start_at` via `route`.
    pub fn new(
        ring: NoobRing,
        route: ClientRoute,
        ops: Vec<ClientOp>,
        start_at: Time,
    ) -> NoobClientApp {
        NoobClientApp {
            tp: Transport::new(ring.port),
            ring,
            route,
            cache: HashMap::new(),
            cache_stats: (0, 0),
            core: ClientCore::new(ops, start_at),
        }
    }

    /// Put `at` on the wire; the core then arms its retry timer.
    fn send_attempt(&mut self, at: Attempt, ctx: &mut dyn NodeIo) {
        let dst = match (&self.route, &at.op) {
            (ClientRoute::Gateway(gw), _) => *gw,
            (ClientRoute::Direct { .. }, ClientOp::Put { key, .. }) => self.ring.primary_addr(key),
            (ClientRoute::Direct { lb_gets }, ClientOp::Get { key }) => {
                if *lb_gets {
                    let replicas = self.ring.replica_addrs(key);
                    let i = ctx.rng().random_range(0..replicas.len().max(1));
                    replicas
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| self.ring.primary_addr(key))
                } else {
                    self.ring.primary_addr(key)
                }
            }
            (ClientRoute::CachingRac, _) => match self.cache.get(at.op.key()) {
                Some(&addr) => {
                    self.cache_stats.0 += 1;
                    addr
                }
                None => {
                    // Cold: any node will forward to the responsible one.
                    self.cache_stats.1 += 1;
                    let i = ctx.rng().random_range(0..self.ring.addrs.len().max(1));
                    // An empty membership routes to the unroutable zero
                    // address: the attempt drops and retries, not panics.
                    self.ring.addrs.get(i).copied().unwrap_or(Ipv4(0))
                }
            },
        };
        let (msg, size) = match &at.op {
            ClientOp::Put { key, value } => {
                let size = value.size() + key.len() as u32 + CTRL_MSG_BYTES;
                let msg = NoobMsg::Put {
                    key: key.clone(),
                    value: value.clone(),
                    op: at.id,
                    hops: 0,
                };
                (msg, size)
            }
            ClientOp::Get { key } => {
                let size = key.len() as u32 + CTRL_MSG_BYTES;
                let msg = NoobMsg::Get {
                    key: key.clone(),
                    op: at.id,
                    hops: 0,
                };
                (msg, size)
            }
        };
        self.tp
            .tcp_send(ctx, dst, self.ring.port, Msg::new(msg, size));
        self.core.sent(&at, ctx);
    }

    fn drive(&mut self, events: impl IntoIterator<Item = TransportEvent>, ctx: &mut dyn NodeIo) {
        for ev in events {
            let TransportEvent::Delivered { from, msg, .. } = ev else {
                continue;
            };
            let Some(m) = msg.downcast::<NoobMsg>() else {
                continue;
            };
            // CachingRac: the responder is the responsible node — cache it.
            if self.route == ClientRoute::CachingRac {
                if let Some((op, ..)) = self.core.inflight_detail() {
                    self.cache.insert(op.key().to_owned(), from.0);
                }
            }
            let next = match m {
                NoobMsg::PutReply { op, ok } => self.core.on_put_reply(*op, *ok, ctx),
                NoobMsg::GetReply { op, value } => self.core.on_get_reply(*op, value.as_ref(), ctx),
                _ => None,
            };
            if let Some(at) = next {
                self.send_attempt(at, ctx);
            }
        }
    }
}

impl NodeApp for NoobClientApp {
    fn on_start(&mut self, ctx: &mut dyn NodeIo) {
        self.core.on_start(ctx);
    }

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
        if let Some(at) = self.core.on_timer(token, ctx) {
            self.send_attempt(at, ctx);
        }
    }

    fn on_crash(&mut self) {
        self.tp.on_crash();
        self.core.on_crash();
    }
}
