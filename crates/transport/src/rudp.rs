//! The reliable transfer engine shared by every carrier.
//!
//! Implements §5 of the paper ("Replication" / implementation details):
//!
//! * data is divided into chunks of at most one MTU,
//! * cumulative ACKs drive a fixed sender window (flow control),
//! * NACKs report missing chunks, which are repaired over *unicast*,
//! * the quorum variant ("reliable any-k multicasting") advances the
//!   window when any `k` of the recipients acknowledge, returns when any
//!   `k` fully receive the data, and "keeps supporting straggling nodes
//!   until they finish or timeout".
//!
//! The same state machines carry unicast reliable UDP (`expected = 1`),
//! switch-multicast UDP, and the data phase of the TCP-like streams.

use std::rc::Rc;

use node_rt::{Ipv4, NodeIo, Packet, Proto, Time, HDR_TCP, HDR_UDP, MTU};

use crate::msg::{Msg, MsgToken, TpPayload, TransportEvent};

// The reliable engine's calibration, for the simulated 1 Gbps / ~30 µs
// RTT fabric.

/// Sender window, in chunks.
pub(crate) const WINDOW: u32 = 64;
/// Engine tick period (drives stall detection and NACK scans).
pub(crate) const TICK: Time = Time::from_ms(1);
/// Receiver NACK period, in ticks: an incomplete message older than this
/// re-requests its missing chunks.
pub(crate) const NACK_TICKS: u32 = 4;
/// Max missing chunks listed per NACK. Repair pacing: each NACK asks for
/// at most this many chunks, bounding repair injection to
/// ~`NACK_CAP`*MTU per NACK period (~46 Mbps) so straggler repair cannot
/// starve the fast path (Figure 8's any-k experiment).
pub(crate) const NACK_CAP: usize = 16;
/// Sender stall threshold, in ticks, before a probe retransmission.
const STALL_TICKS: u32 = 30;
/// Consecutive stalls before the send fails.
const MAX_STALLS: u32 = 40;
/// How long completed state lingers (serving late NACKs / stragglers), in
/// ticks.
pub(crate) const LINGER_TICKS: u32 = 4000;

/// Number of chunks for a message of `size` bytes (at least one).
#[inline]
pub fn num_chunks(size: u32) -> u32 {
    size.div_ceil(MTU).max(1)
}

/// Payload bytes of chunk `seq` of a `size`-byte message.
#[inline]
pub fn chunk_bytes(size: u32, seq: u32) -> u32 {
    let start = seq * MTU;
    (size.saturating_sub(start)).min(MTU)
}

fn wire(proto: Proto, payload_bytes: u32) -> u32 {
    match proto {
        // rudp frames are only ever UDP or TCP; ARP falls back to the
        // UDP framing rather than panicking in the datapath.
        Proto::Udp | Proto::Arp => HDR_UDP + payload_bytes,
        Proto::Tcp => HDR_TCP + payload_bytes,
    }
}

/// Control-message logical size (ack/nack wire bodies).
const CTRL_BYTES: u32 = 22;

/// An in-flight reliable send.
pub struct SendState {
    /// Sender-unique message id.
    pub msg_id: u64,
    /// The app-facing token.
    pub token: MsgToken,
    /// Destination address (vnode, multicast vnode, or physical).
    pub dst: Ipv4,
    /// Destination transport port.
    pub dst_port: u16,
    /// Carrier protocol (Udp for rudp/multicast, Tcp for streams).
    pub proto: Proto,
    msg: Msg,
    total: u32,
    /// Receivers that must complete before `Sent` fires.
    quorum: usize,
    /// Total receivers expected to exist (window pacing waits for the
    /// slowest of the top-k among these).
    expected: usize,
    /// Each receiver's highest cumulative ack, in the order the receivers
    /// were first heard from; at most `expected` of them.
    cums: Vec<(Ipv4, u32)>,
    completed: Vec<Ipv4>,
    next: u32,
    done: bool,
    /// Ticks remaining before this state is garbage collected (counts only
    /// once `done`).
    linger_left: u32,
    stall_left: u32,
    stalls: u32,
    last_progress: (usize, u64, u32),
}

/// What a sender-side step produced.
pub enum SendOutcome {
    /// Nothing to report.
    Quiet,
    /// The send completed (quorum reached).
    Sent(Vec<Ipv4>),
    /// The send failed (stalled too long).
    Failed,
}

impl SendState {
    /// Start a reliable send and transmit the initial window.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        ctx: &mut dyn NodeIo,
        msg_id: u64,
        token: MsgToken,
        dst: Ipv4,
        dst_port: u16,
        src_port: u16,
        proto: Proto,
        msg: Msg,
        expected: usize,
        quorum: usize,
    ) -> SendState {
        assert!(expected >= 1 && quorum >= 1 && quorum <= expected);
        let total = num_chunks(msg.size);
        let mut s = SendState {
            msg_id,
            token,
            dst,
            dst_port,
            proto,
            msg,
            total,
            quorum,
            expected,
            cums: Vec::with_capacity(expected),
            completed: Vec::new(),
            next: 0,
            done: false,
            linger_left: LINGER_TICKS,
            stall_left: STALL_TICKS,
            stalls: 0,
            last_progress: (0, 0, 0),
        };
        s.pump(ctx, src_port);
        s
    }

    fn chunk_packet(
        &self,
        seq: u32,
        src_port: u16,
        dst: Ipv4,
        ctx: &dyn NodeIo,
        retx: bool,
    ) -> Packet {
        let body = chunk_bytes(self.msg.size, seq) + CTRL_BYTES;
        let payload = Rc::new(TpPayload::Chunk {
            sender: ctx.ip(),
            msg_id: self.msg_id,
            seq,
            total: self.total,
            msg_size: self.msg.size,
            data: Rc::clone(&self.msg.data),
            retx,
        });
        let mut pkt = match self.proto {
            Proto::Tcp => Packet::tcp(
                ctx.ip(),
                ctx.mac(),
                dst,
                src_port,
                self.dst_port,
                body,
                payload,
            ),
            _ => Packet::udp(
                ctx.ip(),
                ctx.mac(),
                dst,
                src_port,
                self.dst_port,
                body,
                payload,
            ),
        };
        pkt.wire_size = wire(self.proto, body);
        pkt
    }

    /// The window base: the `quorum`-th highest cumulative ack over the
    /// `expected` receivers (unknown receivers count as zero).
    fn window_base(&self) -> u32 {
        match self.cums[..] {
            // A quorum of one, and one receiver heard from (unicast):
            // its ack.
            [(_, cum)] if self.quorum == 1 => cum,
            // Fewer receivers heard from than the quorum: the silent ones
            // pin the base to 0.
            _ if self.cums.len() < self.quorum => 0,
            _ => {
                let mut cums: Vec<u32> = self.cums.iter().map(|&(_, c)| c).collect();
                cums.sort_unstable_by(|a, b| b.cmp(a));
                // quorum >= 1 and cums.len() >= quorum here; written
                // panic-free anyway so the whole tick path stays total.
                cums.get(self.quorum.saturating_sub(1))
                    .copied()
                    .unwrap_or(0)
            }
        }
    }

    /// Transmit as many new chunks as the window allows.
    fn pump(&mut self, ctx: &mut dyn NodeIo, src_port: u16) {
        let limit = self.window_base().saturating_add(WINDOW).min(self.total);
        while self.next < limit {
            let pkt = self.chunk_packet(self.next, src_port, self.dst, ctx, false);
            ctx.send(pkt);
            self.next += 1;
        }
    }

    /// Handle a cumulative ack from `from`.
    pub fn on_ack(
        &mut self,
        ctx: &mut dyn NodeIo,
        src_port: u16,
        from: Ipv4,
        cum: u32,
    ) -> SendOutcome {
        // A receiver past the first `expected` (a stale group member, a
        // forged source) moves no window.
        if let Some((_, e)) = self.cums.iter_mut().find(|(ip, _)| *ip == from) {
            *e = (*e).max(cum);
        } else if self.cums.len() < self.expected {
            self.cums.push((from, cum));
        }
        if cum >= self.total && !self.completed.contains(&from) {
            self.completed.push(from);
        }
        self.pump(ctx, src_port);
        if !self.done && self.completed.len() >= self.quorum {
            self.done = true;
            return SendOutcome::Sent(self.completed.clone());
        }
        SendOutcome::Quiet
    }

    /// Handle a NACK: repair the listed chunks over unicast to `from`,
    /// each at most once and at most `NACK_CAP` of them. An honest
    /// receiver lists at most that many distinct seqs; the decoder admits
    /// thousands, so a forged NACK must not buy that many MTU chunks.
    /// Returns how many chunks were retransmitted (telemetry).
    pub fn on_nack(
        &mut self,
        ctx: &mut dyn NodeIo,
        src_port: u16,
        from: Ipv4,
        missing: &[u32],
    ) -> u64 {
        let mut repaired: Vec<u32> = Vec::new();
        for &seq in missing {
            if repaired.len() >= NACK_CAP {
                break;
            }
            if seq < self.total && !repaired.contains(&seq) {
                let pkt = self.chunk_packet(seq, src_port, from, ctx, true);
                ctx.send(pkt);
                repaired.push(seq);
            }
        }
        repaired.len() as u64
    }

    /// Everyone expected has completed: state can be dropped immediately.
    pub fn fully_acked(&self) -> bool {
        self.completed.len() >= self.expected
    }

    /// Periodic tick: stall detection, probe retransmission, lingering.
    /// Returns the outcome plus whether the state should be dropped;
    /// bumps `probes` when a stall probe is retransmitted (telemetry).
    pub fn on_tick(
        &mut self,
        ctx: &mut dyn NodeIo,
        src_port: u16,
        probes: &mut u64,
    ) -> (SendOutcome, bool) {
        if self.done {
            if self.fully_acked() {
                return (SendOutcome::Quiet, true);
            }
            self.linger_left = self.linger_left.saturating_sub(1);
            return (SendOutcome::Quiet, self.linger_left == 0);
        }
        let progress = (
            self.completed.len(),
            self.cums.iter().map(|&(_, c)| u64::from(c)).sum::<u64>(),
            self.next,
        );
        if progress != self.last_progress {
            self.last_progress = progress;
            self.stalls = 0;
            self.stall_left = STALL_TICKS;
            return (SendOutcome::Quiet, false);
        }
        self.stall_left = self.stall_left.saturating_sub(1);
        if self.stall_left > 0 {
            return (SendOutcome::Quiet, false);
        }
        self.stall_left = STALL_TICKS;
        self.stalls += 1;
        if self.stalls > MAX_STALLS {
            return (SendOutcome::Failed, true);
        }
        // Probe: retransmit the chunk at the window base to the group so
        // silent receivers (or a fully-lost tail) re-engage.
        let probe = self.window_base().min(self.total - 1);
        let pkt = self.chunk_packet(probe, src_port, self.dst, ctx, true);
        ctx.send(pkt);
        *probes += 1;
        (SendOutcome::Quiet, false)
    }
}

/// Reassembly state for one incoming reliable message, while chunks are
/// missing.
pub struct RecvState {
    /// The original sender's physical address.
    pub sender: Ipv4,
    /// The sender's transport port (acks go back here).
    pub sender_port: u16,
    /// The message id.
    pub msg_id: u64,
    total: u32,
    msg_size: u32,
    data: Rc<dyn std::any::Any>,
    proto: Proto,
    bitmap: Vec<u64>,
    have: u32,
    cum: u32,
    max_seen: u32,
    nack_left: u32,
    /// The transport tick at which this state is dropped: `LINGER_TICKS`
    /// after the tick its latest chunk arrived in.
    pub(crate) expires: u64,
}

impl RecvState {
    /// Create reassembly state from the first chunk observed, in
    /// transport tick `tick`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_chunk(
        tick: u64,
        sender: Ipv4,
        sender_port: u16,
        msg_id: u64,
        total: u32,
        msg_size: u32,
        data: Rc<dyn std::any::Any>,
        proto: Proto,
    ) -> RecvState {
        RecvState {
            sender,
            sender_port,
            msg_id,
            total,
            msg_size,
            data,
            proto,
            bitmap: vec![0; total.div_ceil(64) as usize],
            have: 0,
            cum: 0,
            max_seen: 0,
            nack_left: NACK_TICKS,
            expires: expiry(tick),
        }
    }

    fn mark(&mut self, seq: u32) -> bool {
        let (w, b) = ((seq / 64) as usize, seq % 64);
        let bit = 1u64 << b;
        // A seq beyond the transfer's chunk count is a malformed or
        // corrupted packet: drop it instead of panicking the receiver.
        let Some(word) = self.bitmap.get_mut(w) else {
            return false;
        };
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.have += 1;
        while self.cum < self.total && self.has(self.cum) {
            self.cum += 1;
        }
        true
    }

    fn has(&self, seq: u32) -> bool {
        self.bitmap
            .get((seq / 64) as usize)
            .is_some_and(|w| w & (1 << (seq % 64)) != 0)
    }

    /// The message is fully assembled.
    pub fn complete(&self) -> bool {
        self.have >= self.total
    }

    /// Handle one data chunk, arrived in transport tick `tick`; returns a
    /// `Delivered` event when this chunk completes the message.
    pub fn on_chunk(
        &mut self,
        ctx: &mut dyn NodeIo,
        my_port: u16,
        tick: u64,
        seq: u32,
    ) -> Option<TransportEvent> {
        // A seq past the count this state was opened with is hostile
        // (whatever its own header states): it must not raise `have`.
        if seq >= self.total {
            return None;
        }
        self.max_seen = self.max_seen.max(seq);
        let new = self.mark(seq);
        self.nack_left = NACK_TICKS;
        self.expires = expiry(tick);
        let ack = TpPayload::Ack {
            msg_id: self.msg_id,
            cum: self.cum,
            complete: self.complete(),
        };
        send_ctl(ctx, self.proto, self.sender, self.sender_port, my_port, ack);
        if new && self.complete() {
            return Some(TransportEvent::Delivered {
                from: (self.sender, self.sender_port),
                msg: Msg {
                    data: Rc::clone(&self.data),
                    size: self.msg_size,
                },
            });
        }
        None
    }

    /// What this state leaves behind once the message is complete.
    fn done(&self) -> Done {
        Done {
            sender: self.sender,
            sender_port: self.sender_port,
            msg_id: self.msg_id,
            total: self.total,
            proto: self.proto,
            expires: self.expires,
        }
    }

    /// One tick of this incomplete state's NACK countdown: every
    /// `NACK_TICKS` of its turns it re-requests its missing chunks. The
    /// owning [`crate::Transport`] gives one reassembly state a turn per
    /// tick, bounding repair injection per receiver regardless of how many
    /// transfers lag. Bumps `nacks` when a NACK goes out (telemetry).
    pub fn nack_tick(&mut self, ctx: &mut dyn NodeIo, my_port: u16, nacks: &mut u64) {
        self.nack_left = self.nack_left.saturating_sub(1);
        if self.nack_left == 0 {
            self.nack_left = NACK_TICKS;
            // Request everything missing below the frontier we know about.
            let frontier = if self.max_seen + 1 >= self.total {
                self.total
            } else {
                (self.max_seen + 1).min(self.total)
            };
            let mut missing = Vec::new();
            for seq in self.cum..frontier {
                if !self.has(seq) {
                    missing.push(seq);
                    if missing.len() >= NACK_CAP {
                        break;
                    }
                }
            }
            if missing.is_empty() && frontier < self.total {
                // Tail entirely lost: ask for the next unseen chunk.
                missing.push(frontier);
            }
            if !missing.is_empty() {
                let nack = TpPayload::Nack {
                    msg_id: self.msg_id,
                    missing,
                };
                send_ctl(
                    ctx,
                    self.proto,
                    self.sender,
                    self.sender_port,
                    my_port,
                    nack,
                );
                *nacks += 1;
            }
        }
    }
}

/// What a delivered message keeps for the rest of its linger: enough to
/// answer a duplicate chunk (a sender that missed the final ack) with a
/// complete ack. The payload and the chunk bitmap are gone.
pub(crate) struct Done {
    sender: Ipv4,
    sender_port: u16,
    msg_id: u64,
    total: u32,
    proto: Proto,
    /// As [`RecvState::expires`].
    pub(crate) expires: u64,
}

impl Done {
    /// Handle a duplicate chunk exactly as a complete [`RecvState`] does:
    /// a seq past the count is ignored, any other refreshes the linger
    /// and is acked as complete. Never delivers.
    fn on_chunk(&mut self, ctx: &mut dyn NodeIo, my_port: u16, tick: u64, seq: u32) {
        if seq >= self.total {
            return;
        }
        self.expires = expiry(tick);
        let ack = TpPayload::Ack {
            msg_id: self.msg_id,
            cum: self.total,
            complete: true,
        };
        send_ctl(ctx, self.proto, self.sender, self.sender_port, my_port, ack);
    }
}

/// One received message's state: open while chunks are missing, done
/// from delivery until its linger runs out.
pub(crate) enum Recv {
    /// Reassembling.
    Open(Box<RecvState>),
    /// Delivered.
    Done(Done),
}

impl Recv {
    /// Handle one data chunk of this message (see [`RecvState::on_chunk`]);
    /// the chunk that completes the message frees its payload and bitmap.
    pub(crate) fn on_chunk(
        &mut self,
        ctx: &mut dyn NodeIo,
        my_port: u16,
        tick: u64,
        seq: u32,
    ) -> Option<TransportEvent> {
        match self {
            Recv::Open(st) => {
                let ev = st.on_chunk(ctx, my_port, tick, seq);
                if st.complete() {
                    *self = Recv::Done(st.done());
                }
                ev
            }
            Recv::Done(done) => {
                done.on_chunk(ctx, my_port, tick, seq);
                None
            }
        }
    }

    /// The transport tick at which this state is dropped.
    pub(crate) fn expires(&self) -> u64 {
        match self {
            Recv::Open(st) => st.expires,
            Recv::Done(done) => done.expires,
        }
    }
}

/// Send a control message (ack or NACK) back to a message's sender,
/// framed like the message's own chunks.
fn send_ctl(
    ctx: &mut dyn NodeIo,
    proto: Proto,
    sender: Ipv4,
    sender_port: u16,
    my_port: u16,
    payload: TpPayload,
) {
    let payload = Rc::new(payload);
    let (ip, mac) = (ctx.ip(), ctx.mac());
    let mut pkt = match proto {
        Proto::Tcp => Packet::tcp(ip, mac, sender, my_port, sender_port, CTRL_BYTES, payload),
        _ => Packet::udp(ip, mac, sender, my_port, sender_port, CTRL_BYTES, payload),
    };
    pkt.wire_size = wire(proto, CTRL_BYTES);
    ctx.send(pkt);
}

/// The tick at which reassembly state refreshed in tick `tick` expires.
fn expiry(tick: u64) -> u64 {
    tick + u64::from(LINGER_TICKS)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use node_rt::XorShiftRng;

    use super::*;
    use crate::transport::tests::{FakeIo, PORT};

    #[test]
    fn chunk_math() {
        assert_eq!(num_chunks(0), 1);
        assert_eq!(num_chunks(1), 1);
        assert_eq!(num_chunks(MTU), 1);
        assert_eq!(num_chunks(MTU + 1), 2);
        assert_eq!(num_chunks(1 << 20), (1u32 << 20).div_ceil(MTU));
        assert_eq!(chunk_bytes(MTU + 1, 0), MTU);
        assert_eq!(chunk_bytes(MTU + 1, 1), 1);
        assert_eq!(chunk_bytes(0, 0), 0);
        // all chunks of a message sum to its size
        for size in [0u32, 1, 1399, 1400, 1401, 1 << 20] {
            let sum: u32 = (0..num_chunks(size)).map(|s| chunk_bytes(size, s)).sum();
            assert_eq!(sum, size, "size={size}");
        }
    }

    /// The window base as a sort over every receiver's ack in a map,
    /// padded with zeros for the silent ones: the oracle for the `Vec`
    /// of acks `window_base` reads.
    fn sorted_base(cums: &BTreeMap<Ipv4, u32>, expected: usize, quorum: usize) -> u32 {
        if cums.len() < quorum {
            return 0;
        }
        let mut all: Vec<u32> = cums.values().copied().collect();
        all.resize(expected.max(all.len()), 0);
        all.sort_unstable_by(|a, b| b.cmp(a));
        all[quorum - 1]
    }

    #[test]
    fn window_base_matches_the_sorted_acks_of_every_receiver() {
        let mut rng = XorShiftRng::seed_from_u64(0x7261_0005);
        let total = 4 * WINDOW;
        for expected in 1..=5 {
            for quorum in 1..=expected {
                let mut io = FakeIo::new();
                let msg = Msg::new((), total * MTU);
                let (group, token) = (Ipv4::new(10, 11, 0, 1), MsgToken(1));
                let mut s = SendState::start(
                    &mut io,
                    1,
                    token,
                    group,
                    PORT,
                    PORT,
                    Proto::Udp,
                    msg,
                    expected,
                    quorum,
                );
                let mut cums = BTreeMap::new();
                for step in 0..2 * total {
                    // Acks creep up the message, some stale, some repeated.
                    let from = Ipv4::new(10, 0, 0, 2 + rng.random_range(0..expected) as u8);
                    let cum = rng.random_range(0..step.min(total) + 1);
                    s.on_ack(&mut io, PORT, from, cum);
                    let e = cums.entry(from).or_insert(0);
                    *e = cum.max(*e);
                    let want = sorted_base(&cums, expected, quorum);
                    assert_eq!(s.window_base(), want, "{expected}/{quorum} step {step}");
                    io.sent.clear();
                }
            }
        }
    }
}
