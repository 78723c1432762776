//! The NICEKV client library.
//!
//! Clients know the virtual rings and the replication level — never the
//! physical placement (§3.2). A put is a reliable-UDP multicast to the
//! key's *multicast* vnode address; a get is a reliable-UDP message to the
//! key's *unicast* vnode address; replies arrive on the client's TCP side
//! (§5). Operations run closed-loop with a retry timer ("the client will
//! retry after waiting for 2 seconds", §6.6).
//!
//! The closed-loop engine (queue, retries and their timers, timeout
//! bookkeeping, records) is the shared [`kv_core::ClientCore`]; this file
//! maps its attempts onto the NICE transport: vring addressing, switch
//! multicast for puts, and any-k transport acks for quorum mode.

use std::ops::{Deref, DerefMut};

use kv_core::{Attempt, ClientCore, KvClient, CTRL_MSG_BYTES};
use nice_transport::{Msg, MsgToken, Transport, TransportEvent, TRANSPORT_TICK};
use node_rt::{NodeApp, NodeIo, Packet, Time};

use crate::config::{KvConfig, PutMode, PORT};
use crate::msg::KvMsg;

pub use kv_core::{ClientOp, OpRecord};

/// The client application: issues a queue of operations closed-loop.
///
/// Derefs to the shared [`ClientCore`] for records, completion state, and
/// workload management.
pub struct ClientApp {
    cfg: KvConfig,
    tp: Transport,
    core: ClientCore,
    /// Outstanding quorum-mode transport token (completion = Sent).
    quorum_token: Option<MsgToken>,
}

impl Deref for ClientApp {
    type Target = ClientCore;

    fn deref(&self) -> &ClientCore {
        &self.core
    }
}

impl DerefMut for ClientApp {
    fn deref_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }
}

impl KvClient for ClientApp {
    fn core(&self) -> &ClientCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut ClientCore {
        &mut self.core
    }
}

impl ClientApp {
    /// A client that runs `ops` once, starting at `start_at`.
    pub fn new(cfg: KvConfig, ops: Vec<ClientOp>, start_at: Time) -> ClientApp {
        ClientApp {
            tp: Transport::new(PORT),
            core: ClientCore::new(ops, start_at),
            cfg,
            quorum_token: None,
        }
    }

    /// Put `at` on the wire; the core then arms its retry timer.
    fn send_attempt(&mut self, at: Attempt, ctx: &mut dyn NodeIo) {
        self.quorum_token = None;
        match &at.op {
            ClientOp::Put { key, value } => {
                let p = self.cfg.partition_of(key);
                let group = self.cfg.multicast.vnode_for_key(p, key.as_bytes());
                let msg = KvMsg::PutRequest {
                    key: key.clone(),
                    value: value.clone(),
                    op: at.id,
                };
                let size = value.size() + key.len() as u32 + CTRL_MSG_BYTES;
                let r = self.cfg.replication;
                match self.cfg.put_mode {
                    PutMode::Quorum { k } => {
                        let tok =
                            self.tp
                                .anyk_send(ctx, group, PORT, Msg::new(msg, size), r, k.min(r));
                        self.quorum_token = Some(tok);
                    }
                    PutMode::TwoPc => {
                        self.tp.mcast_send(ctx, group, PORT, Msg::new(msg, size), r);
                    }
                }
            }
            ClientOp::Get { key } => {
                let p = self.cfg.partition_of(key);
                let vnode = self.cfg.unicast.vnode_for_key(p, key.as_bytes());
                let msg = KvMsg::GetRequest {
                    key: key.clone(),
                    op: at.id,
                };
                let size = key.len() as u32 + CTRL_MSG_BYTES;
                self.tp.rudp_send(ctx, vnode, PORT, Msg::new(msg, size));
            }
        }
        self.core.sent(&at, ctx);
    }

    fn drive(&mut self, events: impl IntoIterator<Item = TransportEvent>, ctx: &mut dyn NodeIo) {
        for ev in events {
            let next = match ev {
                TransportEvent::Delivered { msg, .. } => match msg.downcast::<KvMsg>() {
                    Some(KvMsg::PutReply { op, ok }) => self.core.on_put_reply(*op, *ok, ctx),
                    Some(KvMsg::GetReply { op, value, .. }) => {
                        self.core.on_get_reply(*op, value.as_ref(), ctx)
                    }
                    _ => None,
                },
                // Quorum-mode puts complete at transport level.
                TransportEvent::Sent { token, .. } if self.quorum_token == Some(token) => {
                    self.quorum_token = None;
                    self.core.on_quorum_put(ctx)
                }
                // Anything else, failures included: the armed retry timer
                // drives any re-attempt.
                TransportEvent::Sent { .. } | TransportEvent::Failed { .. } => None,
            };
            if let Some(at) = next {
                self.send_attempt(at, ctx);
            }
        }
    }
}

impl NodeApp for ClientApp {
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
        self.quorum_token = None;
    }
}
