//! The SDN substrate by itself: build a little OpenFlow network with
//! `nice-sim` + `nice-flow`, install a virtual-address rewrite rule and a
//! multicast group by hand, and watch a packet get replicated.
//!
//! This is the §3.2 mechanism with no storage system on top.
//!
//! Run with: `cargo run --example sdn_playground`

use std::cell::RefCell;
use std::rc::Rc;

use nice::flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, GroupBucket, GroupId};
use nice::sim::{App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, NodeIo, Packet, Simulation, Time};

/// Counts what it receives.
#[derive(Default)]
struct Sink {
    got: Vec<(Ipv4, u32)>,
}
impl App for Sink {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx) {
        self.got.push((pkt.dst, pkt.wire_size));
    }
}

/// Sends one packet to a *virtual* address on start.
struct Talker {
    vaddr: Ipv4,
}
impl App for Talker {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let pkt = Packet::udp(
            ctx.ip(),
            ctx.mac(),
            self.vaddr,
            1111,
            2222,
            400,
            Rc::new("payload"),
        );
        ctx.send(pkt);
    }
}

fn main() {
    let mut sim = Simulation::new(1);
    let table = Rc::new(RefCell::new(FlowTable::new()));
    let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));

    // Three servers and one client.
    let mut hosts = Vec::new();
    for i in 0..4u8 {
        let ip = Ipv4::new(10, 0, 0, 1 + i);
        let mac = Mac(1 + i as u64);
        let app: Box<dyn App> = if i == 3 {
            Box::new(Talker {
                vaddr: Ipv4::new(10, 10, 1, 99),
            })
        } else {
            Box::new(Sink::default())
        };
        let h = sim.add_host(app, HostCfg::new(ip, mac));
        let port = sim.connect(h, sw, ChannelCfg::gigabit());
        hosts.push((h, ip, mac, port));
    }

    {
        let mut t = table.borrow_mut();
        // Unicast vring rule: anything in 10.10.1.0/24 is rewritten to
        // server 0 — the paper's §3.2 single-hop virtual routing.
        let (h0_ip, h0_mac, h0_port) = (hosts[0].1, hosts[0].2, hosts[0].3);
        t.install(
            FlowRule::new(
                prio::VRING,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 10, 1, 0), 24),
                vec![
                    Action::SetIpDst(h0_ip),
                    Action::SetMacDst(h0_mac),
                    Action::Output(h0_port),
                ],
            ),
            Time::ZERO,
        );
        // Multicast vring rule: 10.11.1.0/24 fans out to all three
        // servers with per-bucket rewrites — §4.2 in three lines.
        let buckets = (0..3)
            .map(|i| GroupBucket::rewrite_to(hosts[i].1, hosts[i].2, hosts[i].3))
            .collect();
        t.set_group(GroupId(7), buckets, Time::ZERO);
        t.install(
            FlowRule::new(
                prio::VRING,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 11, 1, 0), 24),
                vec![Action::Group(GroupId(7))],
            ),
            Time::ZERO,
        );
    }

    // 1. unicast: the talker sends to a vnode address...
    sim.run_until(Time::from_ms(1));
    println!(
        "unicast vring: server0 received {:?}",
        sim.app::<Sink>(hosts[0].0).got
    );
    assert_eq!(sim.app::<Sink>(hosts[0].0).got.len(), 1);
    assert_eq!(
        sim.app::<Sink>(hosts[0].0).got[0].0,
        hosts[0].1,
        "dst was rewritten to the physical address"
    );

    // 2. multicast: inject a packet to the multicast ring by reusing the
    //    talker (cheap trick: just add another talker host).
    let m = sim.add_host(
        Box::new(Talker {
            vaddr: Ipv4::new(10, 11, 1, 5),
        }),
        HostCfg::new(Ipv4::new(10, 0, 0, 9), Mac(9)),
    );
    sim.connect(m, sw, ChannelCfg::gigabit());
    sim.run_until(Time::from_ms(2));
    for (i, host) in hosts.iter().enumerate().take(3) {
        let got = &sim.app::<Sink>(host.0).got;
        println!("multicast vring: server{i} received {got:?}");
        assert!(got.iter().any(|&(dst, _)| dst == host.1));
    }
    println!(
        "\none packet in, three delivered — each copy rewritten to its replica's\n\
         physical address by the group buckets. total link bytes: {}",
        sim.total_link_bytes()
    );
}
