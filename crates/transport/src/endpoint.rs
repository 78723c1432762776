//! The server shell: the host-facing loop around a [`Transport`].
//!
//! Every transport-hosting node (the NICE storage node, the NOOB storage
//! node, the NOOB gateway) runs the same loop: feed packets and ticks to
//! the stack, queue each delivered message on the node's serial CPU,
//! process it when its slot completes, resume deferred work when its
//! timer fires, and pay CPU for every send. [`Endpoint`] is that loop,
//! once. The app above it keeps only message mapping and routing policy:
//! it quotes a per-message processing cost, and gets each message back
//! (owned) through [`Endpoint::on_timer`] when the cost has been paid.
//!
//! The CPU cost model lives here because this is the only code that
//! charges it: no app calls `cpu_work`/`cpu_defer` itself.

use std::any::Any;
use std::collections::HashMap;

use node_rt::{Ipv4, NodeIo, Packet, Time};

use crate::msg::{Msg, TransportEvent};
use crate::transport::{TpStats, Transport, TRANSPORT_TICK};

/// App-level CPU cost of serving one client request (parse, hash, index,
/// buffer management, reply serialization). Calibrated to a Swift-class
/// 2017 storage stack (§6: "NOOB-RAG performance was equivalent or
/// slightly better than Swift storage").
pub const REQ_COST: Time = Time::from_us(300);
/// App-level CPU cost of handling one small protocol/control message
/// (acks, timestamps, membership), and of sending one.
pub const CTRL_COST: Time = Time::from_us(15);
/// App-level CPU cost of *sending* one value-carrying message (socket
/// write, stack traversal, segmentation). This is what makes a NOOB
/// primary that fans out R-1 object copies a CPU hotspot as well as a
/// network one (Figures 7 and 12).
pub const DATA_SEND_COST: Time = Time::from_us(100);
/// Messages larger than this pay [`DATA_SEND_COST`] on send.
pub const DATA_SEND_THRESHOLD: u32 = 512;

/// The first token an [`Endpoint`] hands to the host. Everything below
/// is the app's: its fixed timers come back as [`Fired::App`].
pub const FIRST_TOKEN: u64 = 1000;

/// Charge the CPU for sending one `size`-byte message: sending costs CPU
/// too (syscall + copy), and materially more for value-carrying messages
/// than for small control messages.
pub fn charge_send(ctx: &mut dyn NodeIo, size: u32) {
    ctx.cpu_work(if size > DATA_SEND_THRESHOLD {
        DATA_SEND_COST
    } else {
        CTRL_COST
    });
}

/// What a fired timer token turned out to be.
#[derive(Debug)]
pub enum Fired<M, C> {
    /// A received message cleared the CPU queue: process it now. This is
    /// how request processing time becomes part of response latency.
    Message {
        /// The message, owned.
        msg: M,
        /// The sender's physical address.
        src: Ipv4,
    },
    /// A continuation handed to [`Endpoint::defer`] came due.
    Cont(C),
    /// Not a shell token (below [`FIRST_TOKEN`]): one of the app's own
    /// fixed timers, handed back untouched.
    App(u64),
}

/// One node's transport plus the loop around it. `M` is the app's
/// message enum, `C` its continuation enum.
pub struct Endpoint<M, C> {
    tp: Transport,
    /// The app's quote for processing one received message.
    cost: fn(&M) -> Time,
    /// Outstanding tokens: queued deliveries and deferred continuations
    /// share one space, so a token names exactly one piece of work. Only
    /// ever looked up by token.
    pending: HashMap<u64, Fired<M, C>>,
    next_token: u64,
}

impl<M: Any + Clone, C> Endpoint<M, C> {
    /// A shell over a fresh stack bound to `port`; `cost` quotes the CPU
    /// time the app needs to process one received message.
    pub fn new(port: u16, cost: fn(&M) -> Time) -> Endpoint<M, C> {
        Endpoint {
            tp: Transport::new(port),
            cost,
            pending: HashMap::new(),
            next_token: FIRST_TOKEN,
        }
    }

    /// The stack itself, for the send paths the shell does not charge
    /// for (datagrams, multicast).
    pub fn transport(&mut self) -> &mut Transport {
        &mut self.tp
    }

    /// Reliability-layer counters of the stack.
    pub fn stats(&self) -> TpStats {
        self.tp.stats()
    }

    fn park(&mut self, work: Fired<M, C>) -> u64 {
        let tok = self.next_token;
        self.next_token += 1;
        self.pending.insert(tok, work);
        tok
    }

    /// Resume `cont` at time `at`: it comes back from
    /// [`Endpoint::on_timer`] as [`Fired::Cont`].
    pub fn defer(&mut self, ctx: &mut dyn NodeIo, at: Time, cont: C) {
        let tok = self.park(Fired::Cont(cont));
        ctx.set_timer(at.saturating_sub(ctx.now()), tok);
    }

    /// Send `msg` (`size` logical bytes) to the peer shell at `dst` over
    /// the TCP-like stream, charging the send cost first.
    pub fn send(&mut self, ctx: &mut dyn NodeIo, dst: Ipv4, msg: M, size: u32) {
        charge_send(ctx, size);
        let port = self.tp.port();
        self.tp.tcp_send(ctx, dst, port, Msg::new(msg, size));
    }

    /// Queue a delivered message on the serial CPU; it is processed (and
    /// replied to) when its processing slot completes.
    fn enqueue(&mut self, ev: TransportEvent, ctx: &mut dyn NodeIo) {
        if let TransportEvent::Delivered { from, msg } = ev {
            if let Some(m) = msg.downcast::<M>() {
                let cost = (self.cost)(m);
                let tok = self.park(Fired::Message {
                    msg: m.clone(),
                    src: from.0,
                });
                ctx.cpu_defer(cost, tok);
            }
        }
    }

    /// Forward the app's `on_packet` hook here.
    pub fn on_packet(&mut self, pkt: &Packet, ctx: &mut dyn NodeIo) {
        if let Some(ev) = self.tp.on_packet(pkt, ctx) {
            self.enqueue(ev, ctx);
        }
    }

    /// Forward the app's `on_timer` hook here. Returns the work `token`
    /// stood for; `None` when the shell consumed it (a transport tick)
    /// or it is stale (armed before a crash).
    pub fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) -> Option<Fired<M, C>> {
        if token == TRANSPORT_TICK {
            for ev in self.tp.on_timer(token, ctx) {
                self.enqueue(ev, ctx);
            }
            return None;
        }
        if token < FIRST_TOKEN {
            return Some(Fired::App(token));
        }
        self.pending.remove(&token)
    }

    /// Crash semantics: the stack's volatile state and every parked
    /// delivery and continuation are lost. Tokens are never reused, so a
    /// timer that outlives the crash finds nothing.
    pub fn crash(&mut self) {
        self.tp.on_crash();
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use node_rt::Mac;

    use super::*;
    use crate::msg::TpPayload;
    use crate::transport::tests::{FakeIo, ME, PEER, PORT};

    /// A shell whose messages are `u32`s quoting their own value in µs,
    /// and the host under it.
    fn setup() -> (Endpoint<u32, &'static str>, FakeIo) {
        let shell = Endpoint::new(PORT, |m| Time::from_us(u64::from(*m)));
        (shell, FakeIo::new())
    }

    /// Deliver `m` through the stack's datagram path.
    fn deliver(ep: &mut Endpoint<u32, &'static str>, io: &mut FakeIo, m: u32) {
        let data = Rc::new(m);
        let payload = Rc::new(TpPayload::Datagram { data, size: 8 });
        ep.on_packet(&Packet::udp(PEER, Mac(2), ME, PORT, PORT, 8, payload), io);
    }

    #[test]
    fn delivery_waits_for_its_cpu_slot_at_the_quoted_cost() {
        let (mut ep, mut io) = setup();
        deliver(&mut ep, &mut io, 300);
        assert_eq!(io.asked, [("cpu_defer", Time::from_us(300), FIRST_TOKEN)]);
        match ep.on_timer(FIRST_TOKEN, &mut io) {
            Some(Fired::Message { msg: 300, src }) => assert_eq!(src, PEER),
            other => panic!("expected the parked message, got {other:?}"),
        }
        assert!(ep.on_timer(FIRST_TOKEN, &mut io).is_none(), "fires once");
    }

    #[test]
    fn continuations_and_deliveries_share_one_token_space() {
        let (mut ep, mut io) = setup();
        let (t0, t1, t2) = (FIRST_TOKEN, FIRST_TOKEN + 1, FIRST_TOKEN + 2);
        ep.defer(&mut io, Time::from_ms(3), "written");
        deliver(&mut ep, &mut io, 15);
        ep.defer(&mut io, Time::ZERO, "overdue");
        // `defer` takes an absolute time; one already past fires at once.
        let asked = [
            ("set_timer", Time::from_ms(2), t0),
            ("cpu_defer", Time::from_us(15), t1),
            ("set_timer", Time::ZERO, t2),
        ];
        assert_eq!(io.asked, asked);
        let fired = ep.on_timer(t1, &mut io);
        assert!(matches!(fired, Some(Fired::Message { msg: 15, .. })));
        let fired = ep.on_timer(t2, &mut io);
        assert!(matches!(fired, Some(Fired::Cont("overdue"))));
        let fired = ep.on_timer(t0, &mut io);
        assert!(matches!(fired, Some(Fired::Cont("written"))));
    }

    #[test]
    fn crash_forgets_parked_work_and_never_reuses_its_tokens() {
        let (mut ep, mut io) = setup();
        deliver(&mut ep, &mut io, 15);
        ep.defer(&mut io, Time::from_ms(2), "written");
        ep.crash();
        assert!(ep.on_timer(FIRST_TOKEN, &mut io).is_none());
        assert!(ep.on_timer(FIRST_TOKEN + 1, &mut io).is_none());
        ep.defer(&mut io, Time::from_ms(2), "after");
        assert_eq!(io.asked.last().map(|a| a.2), Some(FIRST_TOKEN + 2));
    }

    #[test]
    fn send_charges_by_size_before_the_stack_sees_the_message() {
        let (mut ep, mut io) = setup();
        ep.send(&mut io, PEER, 1, DATA_SEND_THRESHOLD);
        ep.send(&mut io, PEER, 2, DATA_SEND_THRESHOLD + 1);
        // The first send opens the stream (SYN); the second queues behind
        // the handshake. (The stack's own tick timer is not of interest.)
        let asked = io.asked.iter().filter(|a| a.0 != "set_timer");
        let asked: Vec<_> = asked.map(|a| (a.0, a.1)).collect();
        let expect = [
            ("cpu_work", CTRL_COST),
            ("send", Time::ZERO),
            ("cpu_work", DATA_SEND_COST),
        ];
        assert_eq!(asked, expect);
    }

    #[test]
    fn tokens_the_shell_does_not_own_go_back_to_the_app() {
        let (mut ep, mut io) = setup();
        for tok in [0, 1, 900, FIRST_TOKEN - 1] {
            let fired = ep.on_timer(tok, &mut io);
            assert!(matches!(fired, Some(Fired::App(t)) if t == tok));
        }
        // The tick is the stack's: consumed, nothing to hand back.
        assert!(ep.on_timer(TRANSPORT_TICK, &mut io).is_none());
        assert!(io.asked.is_empty());
    }
}
