//! # nice-flow — OpenFlow-style flow tables and SDN control substrate
//!
//! The paper's network-integrated design rests on the OpenFlow 1.3
//! capabilities summarized in its §2.2: priority match rules over packet
//! headers (with IP-prefix wildcards), action lists that rewrite
//! destination IP/MAC and output to ports, group tables for in-network
//! multicast, rule timeouts, and a controller reached via packet-in.
//! This crate implements exactly that subset over `nice-sim` switches:
//!
//! * [`FlowMatch`] / [`Action`] / [`FlowRule`] — match-action rules,
//! * [`FlowTable`] — per-switch flow + group tables with *time-activated*
//!   mutations (a rule installed by the controller only matches after the
//!   control-channel latency),
//! * [`FlowSwitch`] — the `nice_sim::SwitchLogic` that consults the table
//!   and punts ARP/misses to the controller,
//! * [`L3Learner`] — the embeddable layer-3 learning controller of the
//!   paper's §5 (learn source bindings, proxy/flood ARP, buffer packets
//!   destined to unknown addresses).

#![warn(missing_docs)]

pub mod learner;
pub mod rule;
pub mod switch;
pub mod table;

pub use learner::{prio, L3Learner, LearnEvent, LEARNER_COOKIE};
pub use rule::{Action, FlowMatch, FlowRule, GroupId};
pub use switch::FlowSwitch;
pub use table::{FlowTable, GroupBucket, RuleStats};

#[cfg(test)]
mod integration_tests {
    //! End-to-end: two hosts behind a FlowSwitch with a learning
    //! controller — traffic to a fresh address triggers packet-in, ARP
    //! resolution, rule installation, and eventual direct forwarding.

    use super::*;
    use nice_sim::{
        App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, NodeIo, Packet, Port, Simulation, SwitchId, Time,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Controller app that just embeds the learner.
    struct Controller {
        learner: L3Learner,
        events: Vec<LearnEvent>,
    }

    impl App for Controller {
        fn on_packet_in(&mut self, sw: SwitchId, in_port: Port, pkt: Packet, ctx: &mut Ctx) {
            let ev = self.learner.on_packet_in(sw, in_port, pkt, ctx);
            self.events.extend(ev);
        }
    }

    struct Sender {
        peer: Ipv4,
        sent: u32,
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // Fire a few packets over time; early ones exercise the
            // packet-in path, later ones the installed rule.
            for i in 0..5u64 {
                ctx.set_timer(Time::from_ms(i), 100 + i);
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
            let p = Packet::udp(
                ctx.ip(),
                ctx.mac(),
                self.peer,
                1,
                2,
                100,
                Rc::new(self.sent),
            );
            self.sent += 1;
            ctx.send(p);
        }
    }

    #[derive(Default)]
    struct Receiver {
        got: Vec<u32>,
    }
    impl App for Receiver {
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx) {
            self.got.push(*pkt.payload_as::<u32>().unwrap());
        }
    }

    #[test]
    fn learning_path_end_to_end() {
        let mut sim = Simulation::new(11);
        let table = Rc::new(RefCell::new(FlowTable::new()));
        let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));

        let mut learner = L3Learner::new();
        learner.add_switch(sw, Rc::clone(&table));
        let ctrl = sim.add_host(
            Box::new(Controller {
                learner,
                events: vec![],
            }),
            HostCfg::new(Ipv4::new(10, 0, 0, 100), Mac(100)),
        );
        sim.connect(ctrl, sw, ChannelCfg::gigabit());
        sim.set_controller(sw, ctrl);

        let b_ip = Ipv4::new(10, 0, 0, 2);
        let a = sim.add_host(
            Box::new(Sender {
                peer: b_ip,
                sent: 0,
            }),
            HostCfg::new(Ipv4::new(10, 0, 0, 1), Mac(1)),
        );
        let b = sim.add_host(Box::new(Receiver::default()), HostCfg::new(b_ip, Mac(2)));
        sim.connect(a, sw, ChannelCfg::gigabit());
        sim.connect(b, sw, ChannelCfg::gigabit());

        sim.run_until(Time::from_ms(20));

        // All five packets arrive exactly once, in order (no duplication
        // from the learning path).
        assert_eq!(sim.app::<Receiver>(b).got, vec![0, 1, 2, 3, 4]);
        // The controller learned both hosts (from their gratuitous ARPs).
        let c = sim.app::<Controller>(ctrl);
        assert!(c.learner.binding(sw, b_ip).is_some());
        assert!(c.learner.binding(sw, Ipv4::new(10, 0, 0, 1)).is_some());
        assert!(!c.events.is_empty());
        // Later packets were switched in hardware: the phys rule has hits.
        let stats =
            table
                .borrow()
                .rule_stats(prio::PHYS, &FlowMatch::any().dst_ip(b_ip), sim.now());
        assert!(stats.is_some_and(|s| s.hits >= 1));
    }

    #[test]
    fn unknown_destination_buffers_then_delivers() {
        // A host that never announces (announce_on_boot = false) is only
        // discoverable via the controller's ARP flood; the first packet to
        // it must still be delivered (buffered then flushed).
        let mut sim = Simulation::new(12);
        let table = Rc::new(RefCell::new(FlowTable::new()));
        let sw = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));
        let mut learner = L3Learner::new();
        learner.add_switch(sw, Rc::clone(&table));
        let ctrl = sim.add_host(
            Box::new(Controller {
                learner,
                events: vec![],
            }),
            HostCfg::new(Ipv4::new(10, 0, 0, 100), Mac(100)),
        );
        sim.connect(ctrl, sw, ChannelCfg::gigabit());
        sim.set_controller(sw, ctrl);

        let b_ip = Ipv4::new(10, 0, 0, 2);
        let a = sim.add_host(
            Box::new(Sender {
                peer: b_ip,
                sent: 0,
            }),
            HostCfg::new(Ipv4::new(10, 0, 0, 1), Mac(1)),
        );
        let mut b_cfg = HostCfg::new(b_ip, Mac(2));
        b_cfg.announce_on_boot = false;
        let b = sim.add_host(Box::new(Receiver::default()), b_cfg);
        sim.connect(a, sw, ChannelCfg::gigabit());
        sim.connect(b, sw, ChannelCfg::gigabit());

        sim.run_until(Time::from_ms(20));
        assert_eq!(sim.app::<Receiver>(b).got, vec![0, 1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod multi_switch_tests {
    //! "NICE can readily support multi-switch platforms, as the controller
    //! will install the same rules on all participating switches" (§6).
    //! Two flow switches joined by a trunk: a virtual-address packet is
    //! rewritten at the first switch it hits and forwarded across the
    //! trunk by physical rules.

    use super::*;
    use nice_sim::{
        App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, NodeIo, Packet, Port, Simulation, Time,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct Sink {
        got: Vec<Ipv4>,
    }
    impl App for Sink {
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx) {
            self.got.push(pkt.dst);
        }
    }
    struct Talker {
        vaddr: Ipv4,
    }
    impl App for Talker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let p = Packet::udp(ctx.ip(), ctx.mac(), self.vaddr, 7, 7, 64, Rc::new(()));
            ctx.send(p);
        }
    }

    #[test]
    fn vring_rewrite_travels_across_a_trunk() {
        let mut sim = Simulation::new(5);
        let t1 = Rc::new(RefCell::new(FlowTable::new()));
        let t2 = Rc::new(RefCell::new(FlowTable::new()));
        let sw1 = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&t1))));
        let sw2 = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&t2))));

        // client on sw1 (port 0), server on sw2 (port 0), trunk between.
        let client_ip = Ipv4::new(10, 0, 0, 1);
        let server_ip = Ipv4::new(10, 0, 0, 2);
        let vaddr = Ipv4::new(10, 10, 3, 9);
        let client = sim.add_host(Box::new(Talker { vaddr }), HostCfg::new(client_ip, Mac(1)));
        let server = sim.add_host(Box::new(Sink::default()), HostCfg::new(server_ip, Mac(2)));
        let _p_client = sim.connect(client, sw1, ChannelCfg::gigabit());
        let _p_server = sim.connect(server, sw2, ChannelCfg::gigabit());
        let (trunk1, _trunk2) = sim.connect_switches(sw1, sw2, ChannelCfg::gigabit());

        // The controller installs the SAME vring rule on both switches
        // (rewrite to the server's physical address); physical rules
        // differ per switch (ports differ).
        for (t, phys_port) in [(&t1, trunk1), (&t2, Port(0))] {
            t.borrow_mut().install(
                FlowRule::new(
                    prio::VRING,
                    FlowMatch::any().dst_prefix(Ipv4::new(10, 10, 3, 0), 24),
                    vec![
                        Action::SetIpDst(server_ip),
                        Action::SetMacDst(Mac(2)),
                        Action::Output(phys_port),
                    ],
                ),
                Time::ZERO,
            );
            t.borrow_mut().install(
                FlowRule::new(
                    prio::PHYS,
                    FlowMatch::any().dst_ip(server_ip),
                    vec![Action::SetMacDst(Mac(2)), Action::Output(phys_port)],
                ),
                Time::ZERO,
            );
        }

        sim.run_until(Time::from_ms(5));
        let got = &sim.app::<Sink>(server).got;
        assert_eq!(got.len(), 1, "delivered across the trunk exactly once");
        assert_eq!(got[0], server_ip, "virtual destination was rewritten");
    }
}
