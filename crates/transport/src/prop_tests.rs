//! Randomized transport properties: for arbitrary message sizes and
//! fan-outs, the reliable transports deliver every message exactly once,
//! intact, to every required receiver — and the chunker conserves bytes.
//!
//! Cases are drawn from the in-tree seeded PRNG so the suite is fully
//! deterministic and builds offline (no proptest dependency).

use std::cell::RefCell;
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, GroupBucket, GroupId};
use nice_sim::{
    App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, Packet, Simulation, SwitchCfg, Time, XorShiftRng,
};

use crate::{chunk_bytes, num_chunks, Msg, Transport, TransportEvent};

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
    fn handle(&mut self, evs: Vec<TransportEvent>) {
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
    let sw = sim.add_switch(
        Box::new(FlowSwitch::new(Rc::clone(&table))),
        SwitchCfg::default(),
    );
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
