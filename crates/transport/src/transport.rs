//! The per-host transport stack.
//!
//! Each application owns one [`Transport`] bound to a local port. The app
//! forwards its `on_packet`/`on_timer` hooks to the stack and receives
//! [`TransportEvent`]s back. The stack multiplexes:
//!
//! * unreliable datagrams ([`Transport::udp_send`]),
//! * reliable UDP messages to one destination ([`Transport::rudp_send`]) —
//!   used for client requests to unicast vnode addresses,
//! * reliable switch-multicast messages ([`Transport::mcast_send`]) with
//!   all-ack or any-k quorum semantics ([`Transport::anyk_send`]) — the
//!   put data path of §4.2/§5,
//! * TCP-like streams with connection handshakes and caching
//!   ([`Transport::tcp_send`]) — replies and inter-node traffic.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::rc::Rc;

use node_rt::{Ipv4, NodeIo, Packet, Proto, HDR_TCP, HDR_UDP, MTU};

use crate::msg::{Msg, MsgToken, TpPayload, TransportEvent};
use crate::rudp::{num_chunks, Recv, RecvState, SendOutcome, SendState, TICK};

/// The timer token the transport reserves. Applications must forward this
/// token from their `on_timer` hook to [`Transport::on_timer`] and must not
/// use it themselves.
pub const TRANSPORT_TICK: u64 = 1 << 63;

/// SYN retransmit period in ticks.
const SYN_RETRY_TICKS: u32 = 20;
/// SYN attempts before the connection fails.
const SYN_MAX_TRIES: u32 = 10;

/// Reliability-layer counters: how hard the stack had to work to get
/// messages through. Zero across the board on a clean network; loss,
/// duplication, and delay show up here before they show up in latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TpStats {
    /// Stall-probe retransmissions (sender-side RTO equivalent).
    pub probes: u64,
    /// NACK control messages sent by reassembly states.
    pub nacks_sent: u64,
    /// NACK control messages received by send states.
    pub nacks_received: u64,
    /// Chunks retransmitted in response to NACKs.
    pub repairs: u64,
    /// SYN handshake retransmissions.
    pub syn_retries: u64,
}

impl TpStats {
    /// The counters under their `transport.*` registry names, for a
    /// node's metrics snapshot to add up.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("transport.probes", self.probes),
            ("transport.nacks_sent", self.nacks_sent),
            ("transport.nacks_received", self.nacks_received),
            ("transport.repairs", self.repairs),
            ("transport.syn_retries", self.syn_retries),
        ]
    }
}

struct Pending {
    token: MsgToken,
    msg: Msg,
    dst_port: u16,
}

/// A stream connection waiting for its SYN-ACK, and the sends queued
/// behind it.
struct Handshake {
    pending: Vec<Pending>,
    retry_left: u32,
    tries: u32,
}

/// Identifies a reassembly: the original sender and its message id.
type RecvKey = (Ipv4, u64);

/// The transport stack. See module docs.
pub struct Transport {
    port: u16,
    next_msg_id: u64,
    senders: BTreeMap<u64, SendState>,
    /// Every message received in the last linger, open or done. Only
    /// ever looked up by key: the ordered walks go through `incomplete`
    /// and `expiries`.
    recvs: HashMap<RecvKey, Recv>,
    /// The keys of `recvs` still open: the NACK round robin.
    incomplete: BTreeSet<RecvKey>,
    /// One `(tick, key)` per state in `recvs`, `tick` no later than the
    /// state's `expires`. A popped entry whose state was refreshed since
    /// goes back with the new tick, so a tick touches only what is due.
    expiries: BinaryHeap<Reverse<(u64, RecvKey)>>,
    /// Transport ticks run so far: the clock of `Recv::expires`.
    ticks: u64,
    /// Peers with an established stream connection.
    established: BTreeSet<Ipv4>,
    /// Peers mid-handshake: the only connections a tick has work for.
    handshakes: BTreeMap<Ipv4, Handshake>,
    tick_armed: bool,
    /// Round-robin cursor for NACK pacing across reassembly states.
    nack_rr: u64,
    /// Reliability-layer effort counters.
    stats: TpStats,
}

impl Transport {
    /// A stack bound to `port`.
    pub fn new(port: u16) -> Transport {
        Transport {
            port,
            next_msg_id: 1,
            senders: BTreeMap::new(),
            recvs: HashMap::new(),
            incomplete: BTreeSet::new(),
            expiries: BinaryHeap::new(),
            ticks: 0,
            established: BTreeSet::new(),
            handshakes: BTreeMap::new(),
            tick_armed: false,
            nack_rr: 0,
            stats: TpStats::default(),
        }
    }

    /// Reliability-layer counters (probes, NACKs, repairs, SYN retries).
    pub fn stats(&self) -> TpStats {
        self.stats
    }

    /// The local transport port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The reassembly states held, by key, in key order.
    #[cfg(test)]
    pub(crate) fn held(&self) -> Vec<RecvKey> {
        let mut keys: Vec<RecvKey> = self.recvs.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn arm(&mut self, ctx: &mut dyn NodeIo) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(TICK, TRANSPORT_TICK);
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    // -----------------------------------------------------------------
    // Send paths
    // -----------------------------------------------------------------

    /// Fire-and-forget datagram (must fit one MTU).
    pub fn udp_send(&mut self, ctx: &mut dyn NodeIo, dst: Ipv4, dst_port: u16, msg: Msg) {
        assert!(msg.size <= MTU, "datagram exceeds MTU; use rudp_send");
        let body = msg.size;
        let payload = Rc::new(TpPayload::Datagram {
            data: msg.data,
            size: msg.size,
        });
        let mut pkt = Packet::udp(ctx.ip(), ctx.mac(), dst, self.port, dst_port, body, payload);
        pkt.wire_size = HDR_UDP + body;
        ctx.send(pkt);
    }

    /// Reliable UDP message to a single destination (physical or unicast
    /// vnode address).
    pub fn rudp_send(
        &mut self,
        ctx: &mut dyn NodeIo,
        dst: Ipv4,
        dst_port: u16,
        msg: Msg,
    ) -> MsgToken {
        self.start_send(ctx, dst, dst_port, Proto::Udp, msg, 1, 1)
    }

    /// Reliable multicast: complete when **all** `expected` receivers hold
    /// the message.
    pub fn mcast_send(
        &mut self,
        ctx: &mut dyn NodeIo,
        group: Ipv4,
        dst_port: u16,
        msg: Msg,
        expected: usize,
    ) -> MsgToken {
        self.start_send(ctx, group, dst_port, Proto::Udp, msg, expected, expected)
    }

    /// Reliable any-k multicast: window advances with the k fastest
    /// receivers and the send completes when any `k` hold the message;
    /// stragglers are served until the linger timeout (§5).
    pub fn anyk_send(
        &mut self,
        ctx: &mut dyn NodeIo,
        group: Ipv4,
        dst_port: u16,
        msg: Msg,
        expected: usize,
        k: usize,
    ) -> MsgToken {
        self.start_send(ctx, group, dst_port, Proto::Udp, msg, expected, k)
    }

    /// Reliable message over a TCP-like stream; performs (and caches) the
    /// connection handshake to `dst` on first use.
    pub fn tcp_send(
        &mut self,
        ctx: &mut dyn NodeIo,
        dst: Ipv4,
        dst_port: u16,
        msg: Msg,
    ) -> MsgToken {
        self.arm(ctx);
        let token = MsgToken(self.next_id());
        let p = Pending {
            token,
            msg,
            dst_port,
        };
        if self.established.contains(&dst) {
            self.start_stream(ctx, dst, p);
        } else if let Some(h) = self.handshakes.get_mut(&dst) {
            h.pending.push(p);
        } else {
            let h = Handshake {
                pending: vec![p],
                retry_left: SYN_RETRY_TICKS,
                tries: 1,
            };
            self.handshakes.insert(dst, h);
            self.send_ctl(ctx, dst, dst_port, TpPayload::Syn);
        }
        token
    }

    /// Start the data phase of stream send `p` to `dst`, connected.
    fn start_stream(&mut self, ctx: &mut dyn NodeIo, dst: Ipv4, p: Pending) {
        let id = p.token.0;
        let s = SendState::start(
            ctx,
            id,
            p.token,
            dst,
            p.dst_port,
            self.port,
            Proto::Tcp,
            p.msg,
            1,
            1,
        );
        self.senders.insert(id, s);
    }

    #[allow(clippy::too_many_arguments)]
    fn start_send(
        &mut self,
        ctx: &mut dyn NodeIo,
        dst: Ipv4,
        dst_port: u16,
        proto: Proto,
        msg: Msg,
        expected: usize,
        quorum: usize,
    ) -> MsgToken {
        self.arm(ctx);
        let id = self.next_id();
        let token = MsgToken(id);
        let s = SendState::start(
            ctx, id, token, dst, dst_port, self.port, proto, msg, expected, quorum,
        );
        self.senders.insert(id, s);
        token
    }

    fn send_ctl(&self, ctx: &mut dyn NodeIo, dst: Ipv4, dst_port: u16, payload: TpPayload) {
        let mut pkt = Packet::tcp(
            ctx.ip(),
            ctx.mac(),
            dst,
            self.port,
            dst_port,
            0,
            Rc::new(payload),
        );
        pkt.wire_size = HDR_TCP;
        ctx.send(pkt);
    }

    // -----------------------------------------------------------------
    // Receive path
    // -----------------------------------------------------------------

    /// Feed a received packet through the stack. Packets not destined to
    /// our port (or not transport-shaped) are ignored. A packet surfaces
    /// at most one event: a datagram or a completing chunk `Delivered`,
    /// an ack that completes a send `Sent`.
    pub fn on_packet(&mut self, pkt: &Packet, ctx: &mut dyn NodeIo) -> Option<TransportEvent> {
        if pkt.dst_port != self.port {
            return None;
        }
        match pkt.payload_as::<TpPayload>()? {
            TpPayload::Datagram { data, size } => Some(TransportEvent::Delivered {
                from: (pkt.src, pkt.src_port),
                msg: Msg {
                    data: Rc::clone(data),
                    size: *size,
                },
            }),
            TpPayload::Chunk {
                sender,
                msg_id,
                seq,
                total,
                msg_size,
                data,
                retx: _,
            } => {
                // Every sender states the chunk count its message size
                // implies; any other count (or a seq past it) is hostile
                // and must not size a reassembly bitmap. A later chunk is
                // held to the count its reassembly was opened with
                // (`RecvState::on_chunk`).
                if *total != num_chunks(*msg_size) || *seq >= *total {
                    return None;
                }
                self.arm(ctx);
                let key = (*sender, *msg_id);
                let recv = match self.recvs.entry(key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let st = RecvState::from_chunk(
                            self.ticks,
                            *sender,
                            pkt.src_port,
                            *msg_id,
                            *total,
                            *msg_size,
                            Rc::clone(data),
                            pkt.proto,
                        );
                        self.expiries.push(Reverse((st.expires, key)));
                        e.insert(Recv::Open(Box::new(st)))
                    }
                };
                let ev = recv.on_chunk(ctx, self.port, self.ticks, *seq);
                match recv {
                    Recv::Open(_) => self.incomplete.insert(key),
                    Recv::Done(_) => self.incomplete.remove(&key),
                };
                ev
            }
            TpPayload::Ack {
                msg_id,
                cum,
                complete: _,
            } => {
                let s = self.senders.get_mut(msg_id)?;
                let outcome = s.on_ack(ctx, self.port, pkt.src, *cum);
                let token = s.token;
                if s.fully_acked() {
                    self.senders.remove(msg_id);
                }
                match outcome {
                    SendOutcome::Sent(acked_by) => Some(TransportEvent::Sent { token, acked_by }),
                    // Failed is unreachable for acks (an ack never
                    // expands the send window); treat it like Quiet to
                    // keep the datapath panic-free.
                    SendOutcome::Failed | SendOutcome::Quiet => None,
                }
            }
            TpPayload::Nack { msg_id, missing } => {
                if let Some(s) = self.senders.get_mut(msg_id) {
                    self.stats.nacks_received += 1;
                    self.stats.repairs += s.on_nack(ctx, self.port, pkt.src, missing);
                }
                None
            }
            TpPayload::Syn => {
                // Simultaneous open: if we were mid-handshake to this
                // peer, the connection is now established both ways —
                // flush anything we had queued rather than dropping it.
                self.established.insert(pkt.src);
                let prior = self.handshakes.remove(&pkt.src);
                self.send_ctl(ctx, pkt.src, pkt.src_port, TpPayload::SynAck);
                for p in prior.map(|h| h.pending).unwrap_or_default() {
                    self.start_stream(ctx, pkt.src, p);
                }
                None
            }
            TpPayload::SynAck => {
                if let Some(h) = self.handshakes.remove(&pkt.src) {
                    self.established.insert(pkt.src);
                    for p in h.pending {
                        self.start_stream(ctx, pkt.src, p);
                    }
                }
                None
            }
        }
    }

    /// Drive the stack's periodic work. Call from the app's `on_timer`
    /// when the token is [`TRANSPORT_TICK`].
    pub fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        if token != TRANSPORT_TICK {
            return events;
        }
        self.tick_armed = false;

        // Sender ticks.
        let mut drop_ids = Vec::new();
        for (&id, s) in self.senders.iter_mut() {
            let (outcome, drop) = s.on_tick(ctx, self.port, &mut self.stats.probes);
            match outcome {
                SendOutcome::Sent(acked_by) => events.push(TransportEvent::Sent {
                    token: s.token,
                    acked_by,
                }),
                SendOutcome::Failed => events.push(TransportEvent::Failed { token: s.token }),
                SendOutcome::Quiet => {}
            }
            if drop {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            self.senders.remove(&id);
        }

        // Receiver ticks. NACK pacing: at most one incomplete reassembly
        // may request repair per tick (round-robin in key order, picked
        // before this tick's expiries), so total repair demand per
        // receiver stays bounded no matter how many straggling transfers
        // it has. A state expiring in this tick sends no NACK.
        self.ticks += 1;
        let len = self.incomplete.len() as u64;
        if len > 0 {
            let allowed = self.incomplete.iter().nth((self.nack_rr % len) as usize);
            self.nack_rr += 1;
            if let Some(Recv::Open(r)) = allowed.and_then(|k| self.recvs.get_mut(k)) {
                if r.expires > self.ticks {
                    r.nack_tick(ctx, self.port, &mut self.stats.nacks_sent);
                }
            }
        }
        // Expiry: completed states linger to serve straggler chunks and
        // late NACKs; incomplete ones are abandoned transfers.
        while let Some(&Reverse((at, key))) = self.expiries.peek() {
            if at > self.ticks {
                break;
            }
            self.expiries.pop();
            match self.recvs.get(&key) {
                Some(r) if r.expires() > self.ticks => {
                    self.expiries.push(Reverse((r.expires(), key)));
                }
                _ => {
                    self.recvs.remove(&key);
                    self.incomplete.remove(&key);
                }
            }
        }

        // Handshake retries.
        let mut failed_conns = Vec::new();
        for (&dst, h) in self.handshakes.iter_mut() {
            h.retry_left = h.retry_left.saturating_sub(1);
            if h.retry_left == 0 {
                if h.tries >= SYN_MAX_TRIES {
                    for p in h.pending.drain(..) {
                        events.push(TransportEvent::Failed { token: p.token });
                    }
                    failed_conns.push(dst);
                } else {
                    h.tries += 1;
                    h.retry_left = SYN_RETRY_TICKS;
                    self.stats.syn_retries += 1;
                    let dst_port = h.pending.first().map_or(self.port, |p| p.dst_port);
                    let mut pkt = Packet::tcp(
                        ctx.ip(),
                        ctx.mac(),
                        dst,
                        self.port,
                        dst_port,
                        0,
                        Rc::new(TpPayload::Syn),
                    );
                    pkt.wire_size = HDR_TCP;
                    ctx.send(pkt);
                }
            }
        }
        for d in failed_conns {
            self.handshakes.remove(&d);
        }

        if !self.senders.is_empty() || !self.recvs.is_empty() || !self.handshakes.is_empty() {
            self.tick_armed = true;
            ctx.set_timer(TICK, TRANSPORT_TICK);
        }
        events
    }

    /// Forget all volatile state (crash semantics: connections, in-flight
    /// transfers, and reassembly buffers are all lost).
    pub fn on_crash(&mut self) {
        self.senders.clear();
        self.recvs.clear();
        self.incomplete.clear();
        self.expiries.clear();
        self.established.clear();
        self.handshakes.clear();
        self.tick_armed = false;
    }

    /// Apparent one-way wire cost of a message of `size` bytes over this
    /// transport (chunk headers included) — useful for analytic checks.
    pub fn wire_bytes(size: u32, tcp: bool) -> u64 {
        let chunks = crate::rudp::num_chunks(size);
        let hdr = if tcp { HDR_TCP } else { HDR_UDP };
        let ctrl = 22u64; // per-chunk transport header
        size as u64 + chunks as u64 * (hdr as u64 + ctrl)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use node_rt::{Mac, Time, XorShiftRng};

    use super::*;
    use crate::rudp::{LINGER_TICKS, NACK_CAP};

    pub(crate) const PORT: u16 = 9000;
    pub(crate) const ME: Ipv4 = Ipv4::new(10, 0, 0, 1);
    pub(crate) const PEER: Ipv4 = Ipv4::new(10, 0, 0, 2);

    /// A host at `ME` that only writes down, in order, what it was asked
    /// (and keeps the packets it was asked to send).
    pub(crate) struct FakeIo {
        pub(crate) asked: Vec<(&'static str, Time, u64)>,
        pub(crate) sent: Vec<Packet>,
        rng: XorShiftRng,
    }

    impl FakeIo {
        pub(crate) fn new() -> FakeIo {
            FakeIo {
                asked: Vec::new(),
                sent: Vec::new(),
                rng: XorShiftRng::seed_from_u64(1),
            }
        }
    }

    impl NodeIo for FakeIo {
        fn now(&self) -> Time {
            Time::from_ms(1)
        }
        fn ip(&self) -> Ipv4 {
            ME
        }
        fn mac(&self) -> Mac {
            Mac(1)
        }
        fn send(&mut self, pkt: Packet) {
            self.asked.push(("send", Time::ZERO, 0));
            self.sent.push(pkt);
        }
        fn set_timer(&mut self, delay: Time, token: u64) {
            self.asked.push(("set_timer", delay, token));
        }
        fn cpu_work(&mut self, amount: Time) {
            self.asked.push(("cpu_work", amount, 0));
        }
        fn cpu_defer(&mut self, amount: Time, token: u64) {
            self.asked.push(("cpu_defer", amount, token));
        }
        fn rng(&mut self) -> &mut XorShiftRng {
            &mut self.rng
        }
    }

    fn chunk(seq: u32, total: u32, msg_size: u32) -> Packet {
        chunk_carrying(&Rc::new(0u32), seq, total, msg_size)
    }

    /// Chunk `seq` of message 7 from `PEER`, carrying `data`.
    fn chunk_carrying(data: &Rc<u32>, seq: u32, total: u32, msg_size: u32) -> Packet {
        let payload = Rc::new(TpPayload::Chunk {
            sender: PEER,
            msg_id: 7,
            seq,
            total,
            msg_size,
            data: Rc::clone(data) as Rc<dyn std::any::Any>,
            retx: false,
        });
        Packet::udp(PEER, Mac(2), ME, PORT, PORT, 50, payload)
    }

    #[test]
    fn a_delivered_message_leaves_no_reference_to_its_payload() {
        for order in [&[0][..], &[2, 0, 1]] {
            let mut tp = Transport::new(PORT);
            let mut io = FakeIo::new();
            let data = Rc::new(5u32);
            let total = order.len() as u32;
            let (last, first) = order.split_last().unwrap();
            for &seq in first {
                assert!(tp
                    .on_packet(&chunk_carrying(&data, seq, total, total * MTU), &mut io)
                    .is_none());
            }
            // An open reassembly holds the payload until it completes.
            let open = usize::from(!first.is_empty());
            assert_eq!(Rc::strong_count(&data), 1 + open, "order {order:?}");
            let ev = tp.on_packet(&chunk_carrying(&data, *last, total, total * MTU), &mut io);
            assert!(matches!(ev, Some(TransportEvent::Delivered { .. })));
            drop(ev);
            assert_eq!(Rc::strong_count(&data), 1, "order {order:?}");
            // Done: a duplicate is acked as complete and holds nothing.
            io.sent.clear();
            assert!(tp
                .on_packet(&chunk_carrying(&data, 0, total, total * MTU), &mut io)
                .is_none());
            assert_eq!(Rc::strong_count(&data), 1, "order {order:?}");
            let ack = match io.sent[..] {
                [ref p] => p.payload_as::<TpPayload>(),
                _ => None,
            };
            let Some(&TpPayload::Ack {
                msg_id,
                cum,
                complete,
            }) = ack
            else {
                panic!("one ack expected, got {:?}", io.sent);
            };
            assert_eq!((msg_id, cum, complete), (7, total, true), "order {order:?}");
            assert_eq!(tp.held(), [(PEER, 7)]);
        }
    }

    /// A NACK from `PEER` for message `msg_id` listing `missing`.
    fn nack(msg_id: u64, missing: Vec<u32>) -> Packet {
        let payload = Rc::new(TpPayload::Nack { msg_id, missing });
        Packet::udp(PEER, Mac(2), ME, PORT, PORT, 22, payload)
    }

    #[test]
    fn a_nack_repairs_each_listed_chunk_once_and_at_most_nack_cap() {
        let cap = NACK_CAP as u64;
        let mut tp = Transport::new(PORT);
        let mut io = FakeIo::new();
        let MsgToken(id) = tp.rudp_send(&mut io, PEER, PORT, Msg::new((), 40 * MTU));
        let repairs = |tp: &mut Transport, io: &mut FakeIo, missing: Vec<u32>| {
            let before = tp.stats().repairs;
            io.sent.clear();
            assert!(tp.on_packet(&nack(id, missing), io).is_none());
            let seqs: Vec<u32> = io
                .sent
                .iter()
                .map(|p| match p.payload_as::<TpPayload>() {
                    Some(TpPayload::Chunk {
                        seq, retx: true, ..
                    }) if p.dst == PEER => *seq,
                    other => panic!("not a repair to the NACKer: {other:?}"),
                })
                .collect();
            assert_eq!(tp.stats().repairs - before, seqs.len() as u64);
            seqs
        };
        // The decoder admits 4096 entries: one datagram naming seq 0 that
        // often buys one chunk, not 4096.
        assert_eq!(repairs(&mut tp, &mut io, vec![0; 4096]), [0]);
        // Distinct seqs past the cap: the first `NACK_CAP`, in NACK order.
        let want: Vec<u32> = (0..cap as u32).collect();
        assert_eq!(repairs(&mut tp, &mut io, (0..40).collect()), want);
        // Repeats and seqs past the message take no share of the cap.
        let hostile = vec![39, 40, 39, u32::MAX, 3, 3, 39];
        assert_eq!(repairs(&mut tp, &mut io, hostile), [39, 3]);
        // An honest NACK (at most `NACK_CAP` distinct ascending seqs) is
        // served in full, as before.
        let honest: Vec<u32> = (20..20 + cap as u32).collect();
        assert_eq!(repairs(&mut tp, &mut io, honest.clone()), honest);
    }

    #[test]
    fn a_chunk_whose_count_disagrees_with_its_size_opens_no_reassembly() {
        let mut tp = Transport::new(PORT);
        let mut io = FakeIo::new();
        // A 50-byte datagram claiming 2^32 - 1 chunks would otherwise
        // reserve a 512 MiB bitmap; a seq past a truthful count is junk.
        for hostile in [
            chunk(0, u32::MAX, 10),
            chunk(0, u32::MAX, u32::MAX),
            chunk(1, 1, 10),
        ] {
            assert!(tp.on_packet(&hostile, &mut io).is_none());
            assert!(tp.recvs.is_empty());
        }
        // Once open, a reassembly holds later chunks to its own count: a
        // self-consistent 6-chunk header cannot slip seq 5 into the last
        // bitmap word of this truthful 3-chunk message and complete it.
        let size = 2 * MTU + 1;
        assert!(tp.on_packet(&chunk(0, 3, size), &mut io).is_none());
        assert!(tp.on_packet(&chunk(1, 3, size), &mut io).is_none());
        assert!(tp.on_packet(&chunk(5, 6, 6 * MTU), &mut io).is_none());
        let evs = tp.on_packet(&chunk(2, 3, size), &mut io);
        assert!(matches!(evs, Some(TransportEvent::Delivered { .. })));
    }

    #[test]
    fn a_chunk_refreshes_its_linger_and_a_chunk_after_expiry_opens_a_fresh_state() {
        let linger = LINGER_TICKS;
        let mut tp = Transport::new(PORT);
        let mut io = FakeIo::new();
        let ticks = |tp: &mut Transport, io: &mut FakeIo, n: u32| {
            for _ in 0..n {
                assert!(tp.on_timer(TRANSPORT_TICK, io).is_empty());
            }
        };
        let evs = tp.on_packet(&chunk(0, 1, 10), &mut io);
        assert!(matches!(evs, Some(TransportEvent::Delivered { .. })));
        ticks(&mut tp, &mut io, linger - 1);
        assert_eq!(tp.held(), [(PEER, 7)]);
        // A duplicate in the last tick of the linger is acked again, not
        // delivered again, and restarts the linger.
        io.sent.clear();
        assert!(tp.on_packet(&chunk(0, 1, 10), &mut io).is_none());
        assert!(matches!(
            io.sent[..],
            [ref ack] if matches!(ack.payload_as::<TpPayload>(), Some(TpPayload::Ack { complete: true, .. }))
        ));
        ticks(&mut tp, &mut io, linger - 1);
        assert_eq!(tp.held(), [(PEER, 7)]);
        ticks(&mut tp, &mut io, 1);
        assert!(tp.held().is_empty());
        // The same message after expiry is new to this receiver.
        let evs = tp.on_packet(&chunk(0, 1, 10), &mut io);
        assert!(matches!(evs, Some(TransportEvent::Delivered { .. })));
    }
}
