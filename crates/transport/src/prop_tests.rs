//! Randomized transport properties: for arbitrary message sizes and
//! fan-outs, the reliable transports deliver every message exactly once,
//! intact, to every required receiver — the chunker conserves bytes, and
//! reassembly expiry and NACK pacing agree with a per-tick countdown.
//!
//! Cases are drawn from the in-tree seeded PRNG so the suite is fully
//! deterministic and builds offline (no proptest dependency).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, GroupBucket, GroupId};
use nice_sim::{
    App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, Packet, Proto, Simulation, Time, XorShiftRng,
    HDR_TCP, HDR_UDP,
};

use crate::rudp::{LINGER_TICKS, NACK_TICKS};
use crate::transport::tests::{FakeIo, ME};
use crate::{chunk_bytes, num_chunks, Msg, TpPayload, Transport, TransportEvent, TRANSPORT_TICK};

const PORT: u16 = 9100;

struct Node {
    tp: Transport,
    to_send: Vec<(Ipv4, u32, bool)>, // (dst, size, tcp?)
    mcast: Option<(Ipv4, u32, usize)>,
    delivered: Vec<(Ipv4, u32)>,
    sent_done: usize,
}

impl Node {
    fn new() -> Node {
        Node {
            tp: Transport::new(PORT),
            to_send: Vec::new(),
            mcast: None,
            delivered: Vec::new(),
            sent_done: 0,
        }
    }
    fn handle(&mut self, evs: impl IntoIterator<Item = TransportEvent>) {
        for ev in evs {
            match ev {
                TransportEvent::Delivered { from, msg, .. } => {
                    self.delivered.push((from.0, msg.size));
                }
                TransportEvent::Sent { .. } => self.sent_done += 1,
                TransportEvent::Failed { .. } => {}
            }
        }
    }
}

impl App for Node {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (dst, size, tcp) in self.to_send.clone() {
            if tcp {
                self.tp.tcp_send(ctx, dst, PORT, Msg::new((), size));
            } else {
                self.tp.rudp_send(ctx, dst, PORT, Msg::new((), size));
            }
        }
        if let Some((group, size, expected)) = self.mcast {
            self.tp
                .mcast_send(ctx, group, PORT, Msg::new((), size), expected);
        }
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let evs = self.tp.on_packet(&pkt, ctx);
        self.handle(evs);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let evs = self.tp.on_timer(token, ctx);
        self.handle(evs);
    }
}

fn world(n_hosts: usize, group: &[usize]) -> (Simulation, Vec<nice_sim::HostId>, Vec<Ipv4>) {
    let mut sim = Simulation::new(1234);
    let table = Rc::new(RefCell::new(FlowTable::new()));
    let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));
    let mut hosts = Vec::new();
    let mut ips = Vec::new();
    for i in 0..n_hosts {
        let ip = Ipv4::new(10, 0, 0, 1 + i as u8);
        let mac = Mac(1 + i as u64);
        let h = sim.add_host(Box::new(Node::new()), HostCfg::new(ip, mac));
        let port = sim.connect_asym(
            h,
            sw,
            ChannelCfg::gigabit().host_uplink(),
            ChannelCfg::gigabit(),
        );
        table.borrow_mut().install(
            FlowRule::new(
                prio::PHYS,
                FlowMatch::any().dst_ip(ip),
                vec![Action::SetMacDst(mac), Action::Output(port)],
            ),
            Time::ZERO,
        );
        hosts.push(h);
        ips.push(ip);
    }
    if !group.is_empty() {
        let buckets = group
            .iter()
            .map(|&i| GroupBucket::rewrite_to(ips[i], Mac(1 + i as u64), nice_sim::Port(i as u16)))
            .collect();
        table
            .borrow_mut()
            .set_group(GroupId(1), buckets, Time::ZERO);
        table.borrow_mut().install(
            FlowRule::new(
                prio::VRING,
                FlowMatch::any().dst_ip(Ipv4::new(10, 11, 0, 1)),
                vec![Action::Group(GroupId(1))],
            ),
            Time::ZERO,
        );
    }
    (sim, hosts, ips)
}

/// Chunking conserves every byte for any size.
#[test]
fn chunker_conserves_bytes() {
    let mut rng = XorShiftRng::seed_from_u64(0x7261_0001);
    let mut sizes: Vec<u32> = (0..48).map(|_| rng.random_range(0u32..8_000_000)).collect();
    sizes.extend([
        0,
        1,
        nice_sim::MTU - 1,
        nice_sim::MTU,
        nice_sim::MTU + 1,
        7_999_999,
    ]);
    for size in sizes {
        let total: u64 = (0..num_chunks(size))
            .map(|s| u64::from(chunk_bytes(size, s)))
            .sum();
        assert_eq!(total, u64::from(size));
        // every chunk except possibly the last is a full MTU
        let n = num_chunks(size);
        for s in 0..n.saturating_sub(1) {
            assert_eq!(chunk_bytes(size, s), nice_sim::MTU, "size {size} chunk {s}");
        }
    }
}

/// Any batch of unicast messages (mixed rudp/tcp, arbitrary sizes) is
/// delivered exactly once each, with the right sizes.
#[test]
fn unicast_delivers_exactly_once() {
    for case in 0..24u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x7261_0002 ^ case);
        let n = rng.random_range(1usize..6);
        let sizes: Vec<(u32, bool)> = (0..n)
            .map(|_| (rng.random_range(0u32..300_000), rng.next_u64() & 1 == 0))
            .collect();
        let (mut sim, hosts, ips) = world(2, &[]);
        {
            let sender = sim.app_mut::<Node>(hosts[0]);
            sender.to_send = sizes.iter().map(|&(s, tcp)| (ips[1], s, tcp)).collect();
        }
        sim.run_until(Time::from_secs(5));
        let recv = sim.app::<Node>(hosts[1]);
        let mut got: Vec<u32> = recv.delivered.iter().map(|&(_, s)| s).collect();
        let mut want: Vec<u32> = sizes.iter().map(|&(s, _)| s).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
        assert_eq!(
            sim.app::<Node>(hosts[0]).sent_done,
            sizes.len(),
            "case {case}"
        );
    }
}

/// Multicast delivers one copy to every group member, none elsewhere.
#[test]
fn multicast_delivers_to_all_members() {
    for case in 0..24u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x7261_0003 ^ case);
        let size = rng.random_range(0u32..500_000);
        let members = rng.random_range(1usize..4);
        let group: Vec<usize> = (1..=members).collect();
        let (mut sim, hosts, _ips) = world(5, &group);
        {
            let sender = sim.app_mut::<Node>(hosts[0]);
            sender.mcast = Some((Ipv4::new(10, 11, 0, 1), size, members));
        }
        sim.run_until(Time::from_secs(5));
        for &m in &group {
            let n = sim.app::<Node>(hosts[m]);
            assert_eq!(n.delivered.len(), 1, "member {m} deliveries (case {case})");
            assert_eq!(n.delivered[0].1, size);
        }
        // the non-member host saw nothing
        assert_eq!(sim.app::<Node>(hosts[4]).delivered.len(), 0, "case {case}");
        assert_eq!(sim.app::<Node>(hosts[0]).sent_done, 1, "case {case}");
    }
}

type Key = (Ipv4, u64);

/// The receive side's expiry, NACK pacing and acks as a per-tick countdown
/// over full per-message states: every tick walks every held state, counts
/// its linger down by one and drops it at zero, after picking the one
/// incomplete state (round robin in key order) whose NACK countdown runs.
/// Every state keeps all its chunks for its whole linger. `Transport`
/// keeps expiry ticks in a heap and shrinks a delivered message to what
/// acking a duplicate needs; this is the oracle it must agree with.
struct CountdownModel {
    states: BTreeMap<Key, ModelState>,
    nack_rr: u64,
}

struct ModelState {
    total: u32,
    /// Where acks go and how they are framed: the opening chunk's source
    /// port and protocol.
    port: u16,
    proto: Proto,
    have: BTreeSet<u32>,
    delivered: bool,
    nack_left: u32,
    linger_left: u32,
}

/// An ack as it leaves the receiver: destination, port, protocol, wire
/// size, then the message id, `cum` and `complete`.
type ModelAck = (Ipv4, u16, Proto, u32, u64, u32, bool);

impl CountdownModel {
    /// Chunk `seq` of a `total`-chunk message arrives from `port` over
    /// `proto`; returns whether it completes an undelivered message, and
    /// the ack it draws. A seq past the count the state was opened with
    /// draws none and refreshes nothing.
    fn chunk(
        &mut self,
        key: Key,
        seq: u32,
        total: u32,
        port: u16,
        proto: Proto,
    ) -> (bool, Option<ModelAck>) {
        let st = self.states.entry(key).or_insert_with(|| ModelState {
            total,
            port,
            proto,
            have: BTreeSet::new(),
            delivered: false,
            nack_left: NACK_TICKS,
            linger_left: LINGER_TICKS,
        });
        if seq >= st.total {
            return (false, None);
        }
        st.have.insert(seq);
        st.nack_left = NACK_TICKS;
        st.linger_left = LINGER_TICKS;
        let complete = st.have.len() == st.total as usize;
        let cum = (0..st.total).take_while(|s| st.have.contains(s)).count() as u32;
        let hdr = if st.proto == Proto::Tcp {
            HDR_TCP
        } else {
            HDR_UDP
        };
        let ack = (key.0, st.port, st.proto, hdr + 22, key.1, cum, complete);
        let deliver = complete && !st.delivered;
        st.delivered |= deliver;
        (deliver, Some(ack))
    }

    /// One tick; returns the key that sent a NACK, if one did.
    fn tick(&mut self) -> Option<Key> {
        let incomplete: Vec<Key> = self
            .states
            .iter()
            .filter(|(_, s)| s.have.len() < s.total as usize)
            .map(|(&k, _)| k)
            .collect();
        let allowed = incomplete
            .get((self.nack_rr % incomplete.len().max(1) as u64) as usize)
            .copied();
        if allowed.is_some() {
            self.nack_rr += 1;
        }
        let mut nacked = None;
        self.states.retain(|&key, s| {
            s.linger_left = s.linger_left.saturating_sub(1);
            if s.linger_left == 0 {
                return false;
            }
            if allowed == Some(key) {
                s.nack_left -= 1;
                if s.nack_left == 0 {
                    s.nack_left = NACK_TICKS;
                    nacked = Some(key);
                }
            }
            true
        });
        nacked
    }
}

/// Chunk `seq` of a `total`-chunk message `key`, sent from `port` over
/// `proto`, as the switch hands it to `ME`.
fn chunk_from(key: Key, seq: u32, total: u32, port: u16, proto: Proto) -> Packet {
    let payload = Rc::new(TpPayload::Chunk {
        sender: key.0,
        msg_id: key.1,
        seq,
        total,
        msg_size: total * nice_sim::MTU,
        data: Rc::new(()),
        retx: seq % 2 == 1,
    });
    match proto {
        Proto::Tcp => Packet::tcp(key.0, Mac(2), ME, port, PORT, 50, payload),
        _ => Packet::udp(key.0, Mac(2), ME, port, PORT, 50, payload),
    }
}

/// The acks among the packets `ME` sent, as the model writes them.
fn acks(sent: &[Packet]) -> Vec<ModelAck> {
    let ack = |p: &Packet| match p.payload_as::<TpPayload>() {
        Some(TpPayload::Ack {
            msg_id,
            cum,
            complete,
        }) => Some((
            p.dst,
            p.dst_port,
            p.proto,
            p.wire_size,
            *msg_id,
            *cum,
            *complete,
        )),
        _ => None,
    };
    sent.iter().filter_map(ack).collect()
}

/// Expiry by heap ≡ expiry by countdown: over random interleavings of
/// first, duplicate and refreshing chunks, multi-chunk transfers completed
/// out of order or left incomplete by lost chunks, duplicates of delivered
/// messages inside and after their linger, seqs past a message's count,
/// ticks and crashes, the transport holds exactly the states the countdown
/// holds, NACKs the same key on every tick, delivers the same messages,
/// and answers every chunk with the model's ack (or, like it, none).
#[test]
fn expiry_heap_matches_the_per_tick_countdown() {
    let senders = [
        Ipv4::new(10, 0, 0, 2),
        Ipv4::new(10, 0, 0, 3),
        Ipv4::new(10, 0, 0, 4),
    ];
    for case in 0..3u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x7261_0004 ^ case);
        let mut tp = Transport::new(PORT);
        let mut io = FakeIo::new();
        let mut model = CountdownModel {
            states: BTreeMap::new(),
            nack_rr: 0,
        };
        let (mut ticks, mut nacks, mut expired) = (0u64, 0u32, 0u32);
        let (mut dups, mut ignored) = (0u32, 0u32);
        for step in 0..30_000u32 {
            let held_before = model.states.len();
            let roll = rng.random_range(0u32..10_000);
            // Every third stretch of 4096 ticks is quiet: everything held
            // lingers out, the last incomplete states NACKing every tick.
            let quiet = ticks / 4096 % 3 == 2;
            if roll < 1 {
                tp.on_crash();
                model.states.clear();
            } else if roll < 3_000 && !quiet {
                // Message ids drift with time, so old messages go quiet
                // and linger out; one chunk in fifty is a late one for an
                // old id, which may find its state gone.
                let base = ticks / 256;
                let msg_id = if rng.random_range(0u32..50) == 0 {
                    rng.random_range(0..base + 1)
                } else {
                    base + rng.random_range(0u64..8)
                };
                let key = (senders[rng.random_range(0usize..3)], msg_id);
                let mut total = 1 + (msg_id % 4) as u32;
                let mut seq = rng.random_range(0..total);
                if rng.random_range(0u32..20) == 0 {
                    // A self-consistent header for a longer message: a seq
                    // past the count of any state already held.
                    seq = total + rng.random_range(0..3);
                    total = seq + 1;
                }
                // Acks follow the opening chunk's port and framing, not
                // the latest chunk's.
                let port = PORT + rng.random_range(0u32..3) as u16;
                let proto = [Proto::Udp, Proto::Tcp][rng.random_range(0usize..2)];
                io.sent.clear();
                let evs = tp.on_packet(&chunk_from(key, seq, total, port, proto), &mut io);
                let (delivered, ack) = model.chunk(key, seq, total, port, proto);
                assert_eq!(evs.is_some(), delivered, "case {case} step {step}");
                let want = Vec::from_iter(ack);
                assert_eq!(acks(&io.sent), want, "case {case} step {step}");
                dups += u32::from(!delivered && ack.is_some_and(|a| a.6));
                ignored += u32::from(ack.is_none());
            } else {
                ticks += 1;
                io.sent.clear();
                assert!(tp.on_timer(TRANSPORT_TICK, &mut io).is_empty());
                let sent: Vec<Key> = io
                    .sent
                    .iter()
                    .filter_map(|p| match p.payload_as::<TpPayload>() {
                        Some(TpPayload::Nack { msg_id, .. }) => Some((p.dst, *msg_id)),
                        _ => None,
                    })
                    .collect();
                let want = model.tick();
                assert_eq!(sent, Vec::from_iter(want), "case {case} tick {ticks}");
                nacks += u32::from(want.is_some());
                expired += (held_before - model.states.len()) as u32;
            }
            let want: Vec<Key> = model.states.keys().copied().collect();
            assert_eq!(tp.held(), want, "case {case} step {step}");
        }
        // The schedule reached what the test is about.
        assert!(
            nacks > 1000 && expired > 100 && dups > 100 && ignored > 100,
            "case {case}: {nacks} NACKs, {expired} expiries, {dups} duplicates of \
             complete messages, {ignored} chunks past their count"
        );
    }
}
