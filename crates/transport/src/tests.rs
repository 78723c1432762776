//! End-to-end transport tests over a flow switch with real routing rules.

use crate::*;
use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, GroupBucket, GroupId};
use nice_sim::{
    App, ChannelCfg, Ctx, HostCfg, HostId, Ipv4, Mac, NodeIo, Packet, Simulation, Time,
};
use std::cell::RefCell;
use std::rc::Rc;

/// What a test app should send on start.
#[derive(Clone)]
enum Plan {
    Udp {
        dst: Ipv4,
        size: u32,
    },
    Rudp {
        dst: Ipv4,
        size: u32,
    },
    Tcp {
        dst: Ipv4,
        size: u32,
    },
    Mcast {
        group: Ipv4,
        size: u32,
        expected: usize,
    },
    AnyK {
        group: Ipv4,
        size: u32,
        expected: usize,
        k: usize,
    },
}

const PORT: u16 = 9000;

struct TestApp {
    tp: Transport,
    plan: Vec<Plan>,
    /// `(sender, size, payload, arrival)` of every delivered message.
    delivered: Vec<(Ipv4, u32, Option<u64>, Time)>,
    /// `(token, completion)` of every send that completed.
    sent: Vec<(MsgToken, Time)>,
    failed: Vec<MsgToken>,
}

impl TestApp {
    fn new(plan: Vec<Plan>) -> TestApp {
        TestApp {
            tp: Transport::new(PORT),
            plan,
            delivered: vec![],
            sent: vec![],
            failed: vec![],
        }
    }

    fn handle(&mut self, evs: impl IntoIterator<Item = TransportEvent>, ctx: &mut Ctx) {
        for ev in evs {
            match ev {
                TransportEvent::Delivered { from, msg } => {
                    let payload = msg.downcast::<u64>().copied();
                    self.delivered.push((from.0, msg.size, payload, ctx.now()));
                }
                TransportEvent::Sent { token } => self.sent.push((token, ctx.now())),
                TransportEvent::Failed { token } => self.failed.push(token),
            }
        }
    }
}

/// A `size`-byte message whose payload is its size, so a receiver can
/// tell it arrived intact.
fn msg(size: u32) -> Msg {
    Msg::new(u64::from(size), size)
}

impl App for TestApp {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for p in self.plan.clone() {
            match p {
                Plan::Udp { dst, size } => self.tp.udp_send(ctx, dst, PORT, msg(size)),
                Plan::Rudp { dst, size } => {
                    self.tp.rudp_send(ctx, dst, PORT, msg(size));
                }
                Plan::Tcp { dst, size } => {
                    self.tp.tcp_send(ctx, dst, PORT, msg(size));
                }
                Plan::Mcast {
                    group,
                    size,
                    expected,
                } => {
                    self.tp.mcast_send(ctx, group, PORT, msg(size), expected);
                }
                Plan::AnyK {
                    group,
                    size,
                    expected,
                    k,
                } => {
                    self.tp.anyk_send(ctx, group, PORT, msg(size), expected, k);
                }
            }
        }
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let evs = self.tp.on_packet(&pkt, ctx);
        self.handle(evs, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let evs = self.tp.on_timer(token, ctx);
        self.handle(evs, ctx);
    }
    fn on_crash(&mut self) {
        self.tp.on_crash();
    }
}

/// A star with a flow switch, pre-installed physical rules for every
/// host, and (optionally) one multicast group covering `group_members`.
struct World {
    sim: Simulation,
    hosts: Vec<HostId>,
    ips: Vec<Ipv4>,
    table: Rc<RefCell<FlowTable>>,
}

const GROUP_ADDR: Ipv4 = Ipv4::new(10, 11, 0, 1);

fn build(plans: Vec<Vec<Plan>>, group_members: &[usize], link_overrides: &[(usize, u64)]) -> World {
    let mut sim = Simulation::new(99);
    let table = Rc::new(RefCell::new(FlowTable::new()));
    let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));
    let mut hosts = vec![];
    let mut ips = vec![];
    for (i, plan) in plans.into_iter().enumerate() {
        let ip = Ipv4::new(10, 0, 0, 1 + i as u8);
        let mac = Mac(1 + i as u64);
        let h = sim.add_host(Box::new(TestApp::new(plan)), HostCfg::new(ip, mac));
        let rate = link_overrides
            .iter()
            .find(|&&(idx, _)| idx == i)
            .map_or(1_000_000_000, |&(_, bps)| bps);
        let cfg = ChannelCfg::with_rate(rate);
        let port = sim.connect_asym(h, sw, cfg.host_uplink(), cfg);
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
    if !group_members.is_empty() {
        let buckets = group_members
            .iter()
            .map(|&i| GroupBucket::rewrite_to(ips[i], Mac(1 + i as u64), nice_sim::Port(i as u16)))
            .collect();
        let g = GroupId(1);
        table.borrow_mut().set_group(g, buckets, Time::ZERO);
        table.borrow_mut().install(
            FlowRule::new(
                prio::VRING,
                FlowMatch::any().dst_ip(GROUP_ADDR),
                vec![Action::Group(g)],
            ),
            Time::ZERO,
        );
    }
    World {
        sim,
        hosts,
        ips,
        table,
    }
}

#[test]
fn udp_datagram_delivery() {
    let mut w = build(
        vec![
            vec![Plan::Udp {
                dst: Ipv4::new(10, 0, 0, 2),
                size: 100,
            }],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(5));
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(b.delivered.len(), 1);
    assert_eq!(b.delivered[0].0, w.ips[0]);
    assert_eq!(b.delivered[0].1, 100);
    assert_eq!(b.delivered[0].2, Some(100));
}

#[test]
fn rudp_small_message_roundtrip() {
    let mut w = build(
        vec![
            vec![Plan::Rudp {
                dst: Ipv4::new(10, 0, 0, 2),
                size: 500,
            }],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(50));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    assert_eq!(a.sent.len(), 1, "sender saw completion");
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(b.delivered.len(), 1);
    assert_eq!(b.delivered[0].0, w.ips[0]);
    assert_eq!(b.delivered[0].2, Some(500));
    assert!(b.delivered[0].3 <= a.sent[0].1, "completed after delivery");
}

#[test]
fn rudp_one_megabyte_at_line_rate() {
    let size = 1 << 20;
    let mut w = build(
        vec![
            vec![Plan::Rudp {
                dst: Ipv4::new(10, 0, 0, 2),
                size,
            }],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(100));
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(b.delivered.len(), 1);
    let t = b.delivered[0].3;
    // 1 MiB + per-chunk overhead at 1 Gbps is ~8.8 ms; allow for acks
    // and CPU but fail if windowing throttles us below ~half line rate.
    assert!(t > Time::from_ms(8), "{t} too fast to be real");
    assert!(t < Time::from_ms(20), "{t} too slow: window is throttling");
}

#[test]
fn tcp_handshake_then_data() {
    let mut w = build(
        vec![
            vec![
                Plan::Tcp {
                    dst: Ipv4::new(10, 0, 0, 2),
                    size: 2000,
                },
                Plan::Tcp {
                    dst: Ipv4::new(10, 0, 0, 2),
                    size: 3000,
                },
            ],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(50));
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(b.delivered.len(), 2);
    assert_eq!(b.delivered.iter().map(|d| d.1).sum::<u32>(), 5000);
    let intact = |d: &(Ipv4, u32, Option<u64>, Time)| d.2 == Some(u64::from(d.1));
    assert!(b.delivered.iter().all(|d| d.0 == w.ips[0] && intact(d)));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    assert_eq!(a.sent.len(), 2);
    assert!(a.failed.is_empty());
}

#[test]
fn tcp_to_dead_host_fails() {
    let mut w = build(
        vec![
            vec![Plan::Tcp {
                dst: Ipv4::new(10, 0, 0, 2),
                size: 100,
            }],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.schedule_crash(Time::ZERO, w.hosts[1]);
    w.sim.run_until(Time::from_secs(2));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    assert!(a.sent.is_empty());
    assert_eq!(a.failed.len(), 1, "SYN retries must exhaust");
}

#[test]
fn multicast_replicates_once_per_link() {
    // sender (0) multicasts 1 MiB to receivers 1,2,3 via the group.
    let size = 1 << 20;
    let mut w = build(
        vec![
            vec![Plan::Mcast {
                group: GROUP_ADDR,
                size,
                expected: 3,
            }],
            vec![],
            vec![],
            vec![],
        ],
        &[1, 2, 3],
        &[],
    );
    w.sim.run_until(Time::from_ms(200));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    assert_eq!(a.sent.len(), 1);
    let done_at = a.sent[0].1;
    // Every receiver holds the message by the time the send completes.
    for i in 1..4 {
        let r = w.sim.app::<TestApp>(w.hosts[i]);
        assert_eq!(r.delivered.len(), 1, "receiver {i}");
        assert!(r.delivered[0].3 <= done_at, "receiver {i}");
    }
    // The sender's uplink carried the data once (the switch replicated):
    // sender sent ~1x the wire bytes, not 3x.
    let sent = w.sim.host_stats(w.hosts[0]).bytes_sent;
    let one_copy = Transport::wire_bytes(size, false);
    assert!(
        sent < one_copy + one_copy / 4,
        "sender sent {sent}, expected ~{one_copy}"
    );
}

#[test]
fn anyk_completes_at_kth_receiver_and_serves_stragglers() {
    let size = 1 << 20;
    // receiver 3 is throttled to 50 Mbps (the Fig. 8 setup).
    let mut w = build(
        vec![
            vec![Plan::AnyK {
                group: GROUP_ADDR,
                size,
                expected: 3,
                k: 2,
            }],
            vec![],
            vec![],
            vec![],
        ],
        &[1, 2, 3],
        &[(3, 50_000_000)],
    );
    w.sim.run_until(Time::from_secs(3));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    assert_eq!(a.sent.len(), 1);
    let done_at = a.sent[0].1;
    // k=2 fast receivers finish near line rate; must NOT wait for the
    // 50 Mbps straggler (which alone needs ~170 ms).
    assert!(
        done_at < Time::from_ms(40),
        "any-k waited for the straggler: {done_at}"
    );
    for i in 1..3 {
        let fast = w.sim.app::<TestApp>(w.hosts[i]);
        assert_eq!(fast.delivered.len(), 1, "receiver {i}");
        assert!(fast.delivered[0].3 <= done_at, "receiver {i}");
    }
    // the straggler is still served to completion afterwards
    let slow = w.sim.app::<TestApp>(w.hosts[3]);
    assert_eq!(slow.delivered.len(), 1, "straggler served after return");
    assert!(slow.delivered[0].3 > done_at);
}

#[test]
fn drops_are_repaired_by_nacks() {
    // Tiny switch egress queue to the receiver forces drops; NACK
    // repair must still complete the transfer exactly once.
    let size = 512 * 1024;
    let mut sim = Simulation::new(7);
    let table = Rc::new(RefCell::new(FlowTable::new()));
    let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));
    let add = |sim: &mut Simulation, i: usize, plan: Vec<Plan>, down_q: u64| {
        let ip = Ipv4::new(10, 0, 0, 1 + i as u8);
        let mac = Mac(1 + i as u64);
        let h = sim.add_host(Box::new(TestApp::new(plan)), HostCfg::new(ip, mac));
        let mut down = ChannelCfg::gigabit();
        down.queue_bytes = down_q;
        let port = sim.connect_asym(h, sw, ChannelCfg::gigabit().host_uplink(), down);
        table.borrow_mut().install(
            FlowRule::new(
                prio::PHYS,
                FlowMatch::any().dst_ip(ip),
                vec![Action::SetMacDst(mac), Action::Output(port)],
            ),
            Time::ZERO,
        );
        (h, ip)
    };
    let (a, _) = add(
        &mut sim,
        0,
        vec![Plan::Rudp {
            dst: Ipv4::new(10, 0, 0, 2),
            size,
        }],
        1 << 20,
    );
    // Receiver drains at 100 Mbps behind a 16 KiB egress queue: the
    // initial 64-chunk burst (~92 KiB) overflows it.
    let (b, _) = add(&mut sim, 1, vec![], 16 * 1024);
    sim.schedule_link_rate(Time::ZERO, b, 100_000_000);
    sim.run_until(Time::from_secs(2));
    assert!(
        sim.total_link_drops() > 0,
        "test should actually drop packets"
    );
    let recv = sim.app::<TestApp>(b);
    assert_eq!(recv.delivered.len(), 1, "delivered despite drops");
    let send = sim.app::<TestApp>(a);
    assert_eq!(send.sent.len(), 1);
}

#[test]
fn simultaneous_open_flushes_both_sides() {
    // Both hosts tcp_send to each other at the same instant: the SYNs
    // cross on the wire and each side sees an incoming SYN while in
    // SynSent. Both messages must still be delivered (simultaneous open).
    let mut w = build(
        vec![
            vec![Plan::Tcp {
                dst: Ipv4::new(10, 0, 0, 2),
                size: 700,
            }],
            vec![Plan::Tcp {
                dst: Ipv4::new(10, 0, 0, 1),
                size: 900,
            }],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(100));
    let a = w.sim.app::<TestApp>(w.hosts[0]);
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(a.delivered.len(), 1, "a got b's message");
    assert_eq!(a.delivered[0].1, 900);
    assert_eq!(b.delivered.len(), 1, "b got a's message");
    assert_eq!(b.delivered[0].1, 700);
    assert_eq!(a.sent.len(), 1);
    assert_eq!(b.sent.len(), 1);
}

#[test]
fn zero_byte_message_works() {
    let mut w = build(
        vec![
            vec![Plan::Rudp {
                dst: Ipv4::new(10, 0, 0, 2),
                size: 0,
            }],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(10));
    let b = w.sim.app::<TestApp>(w.hosts[1]);
    assert_eq!(b.delivered.len(), 1);
    assert_eq!(b.delivered[0].1, 0);
}

#[test]
fn concurrent_transfers_share_fairly() {
    // Host 0 sends 1 MiB to hosts 1 and 2 simultaneously (unicast
    // each): both must complete in ~2x the single-transfer time.
    let size = 1 << 20;
    let mut w = build(
        vec![
            vec![
                Plan::Rudp {
                    dst: Ipv4::new(10, 0, 0, 2),
                    size,
                },
                Plan::Rudp {
                    dst: Ipv4::new(10, 0, 0, 3),
                    size,
                },
            ],
            vec![],
            vec![],
        ],
        &[],
        &[],
    );
    w.sim.run_until(Time::from_ms(100));
    for i in [1, 2] {
        let r = w.sim.app::<TestApp>(w.hosts[i]);
        assert_eq!(r.delivered.len(), 1, "receiver {i}");
        let t = r.delivered[0].3;
        assert!(
            t > Time::from_ms(14) && t < Time::from_ms(30),
            "receiver {i} at {t}"
        );
    }
}

#[test]
fn group_version_bump_mid_transfer_is_invisible() {
    // Replacing the group with identical membership mid-transfer must not
    // disturb the stream.
    let size = 1 << 20;
    let mut w = build(
        vec![
            vec![Plan::Mcast {
                group: GROUP_ADDR,
                size,
                expected: 2,
            }],
            vec![],
            vec![],
        ],
        &[1, 2],
        &[],
    );
    let buckets = vec![
        GroupBucket::rewrite_to(w.ips[1], Mac(2), nice_sim::Port(1)),
        GroupBucket::rewrite_to(w.ips[2], Mac(3), nice_sim::Port(2)),
    ];
    w.table
        .borrow_mut()
        .set_group(GroupId(1), buckets, Time::from_ms(2));
    w.sim.run_until(Time::from_ms(100));
    for i in [1, 2] {
        assert_eq!(w.sim.app::<TestApp>(w.hosts[i]).delivered.len(), 1);
    }
}
