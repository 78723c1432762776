//! NOOB gateways: the load balancers of §2.1.
//!
//! A gateway is a full store-and-forward hop: it receives the complete
//! request, then re-sends it — its link is crossed twice and its CPU pays
//! per-message costs, which is exactly why ROG costs two extra hops and
//! RAG one.

use std::convert::Infallible;

use nice_kv::KvError;
use nice_transport::{Endpoint, Fired, Msg};
use node_rt::Rng;
use node_rt::{NodeApp, NodeIo, Packet, Time};

use crate::msg::NoobMsg;
use crate::server::NoobRing;

/// Store-and-forward cost per request at the gateway: a userspace proxy
/// pays a full receive + parse + re-send per request (the paper's
/// "generic off-the-shelf load balancer").
const FWD_COST: Time = Time::from_us(200);

/// Gateway forwarding policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayPolicy {
    /// Replica-oblivious: forward to a uniformly random storage node.
    RandomNode,
    /// Replica-aware: forward to the key's primary.
    Primary,
    /// Replica-aware + load balancing: puts to the primary, gets to a
    /// random replica of the key.
    BalancedReplicas,
}

/// The gateway application.
pub struct GatewayApp {
    ring: NoobRing,
    policy: GatewayPolicy,
    /// The proxy CPU queues each request; it defers nothing else.
    ep: Endpoint<NoobMsg, Infallible>,
    /// Requests forwarded.
    pub forwarded: u64,
    /// Requests dropped because no backend was available.
    pub dropped_no_backend: u64,
    /// The most recent forwarding error, for diagnostics.
    pub last_error: Option<KvError>,
}

impl GatewayApp {
    /// A gateway over `ring` with the given policy.
    pub fn new(ring: NoobRing, policy: GatewayPolicy) -> GatewayApp {
        GatewayApp {
            ep: Endpoint::new(ring.port, |_| FWD_COST),
            ring,
            policy,
            forwarded: 0,
            dropped_no_backend: 0,
            last_error: None,
        }
    }

    fn target(
        &self,
        key: &str,
        is_get: bool,
        ctx: &mut dyn NodeIo,
    ) -> Result<node_rt::Ipv4, KvError> {
        match self.policy {
            GatewayPolicy::RandomNode => {
                if self.ring.addrs.is_empty() {
                    return Err(KvError::NoBackend);
                }
                let i = ctx.rng().random_range(0..self.ring.addrs.len());
                self.ring.addrs.get(i).copied().ok_or(KvError::NoBackend)
            }
            GatewayPolicy::Primary => Ok(self.ring.primary_addr(key)),
            GatewayPolicy::BalancedReplicas => {
                if is_get {
                    let replicas = self.ring.replica_addrs(key);
                    if replicas.is_empty() {
                        return Err(KvError::NoBackend);
                    }
                    let i = ctx.rng().random_range(0..replicas.len());
                    replicas.get(i).copied().ok_or(KvError::NoBackend)
                } else {
                    Ok(self.ring.primary_addr(key))
                }
            }
        }
    }

    fn forward(&mut self, m: NoobMsg, ctx: &mut dyn NodeIo) {
        let (key, is_get, size) = match &m {
            NoobMsg::Put { key, value, .. } => (key, false, value.size() + key.len() as u32 + 64),
            NoobMsg::Get { key, .. } => (key, true, key.len() as u32 + 64),
            _ => return,
        };
        match self.target(key, is_get, ctx) {
            Ok(dst) => {
                self.forwarded += 1;
                let msg = Msg::new(m, size);
                self.ep.transport().tcp_send(ctx, dst, self.ring.port, msg);
            }
            Err(e) => {
                self.dropped_no_backend += 1;
                self.last_error = Some(e);
            }
        }
    }
}

impl NodeApp for GatewayApp {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut dyn NodeIo) {
        self.ep.on_packet(&pkt, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) {
        // Forward each request once the proxy CPU has processed it.
        if let Some(Fired::Message { msg, .. }) = self.ep.on_timer(token, ctx) {
            self.forward(msg, ctx);
        }
    }
    fn on_crash(&mut self) {
        self.ep.crash();
    }
}
