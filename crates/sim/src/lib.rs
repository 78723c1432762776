//! # nice-sim — deterministic packet-level datacenter network simulator
//!
//! This crate is the hardware substrate for the NICE (HPDC '17)
//! reproduction: it stands in for the paper's CloudLab testbed (30 hosts,
//! 1 Gbps NICs, one OpenFlow switch). It provides:
//!
//! * a discrete-event kernel with deterministic `(time, seq)` ordering
//!   ([`Simulation`]),
//! * full-duplex links with bandwidth serialization, propagation delay,
//!   and finite drop-tail buffers ([`link`]),
//! * store-and-forward switches with *pluggable* forwarding logic
//!   ([`SwitchLogic`]) — the OpenFlow flow tables live in `nice-flow`,
//! * hosts running application state machines ([`App`]) behind a serial
//!   CPU queue, with crash/restart failure injection and per-host PRNGs,
//! * NIC-, link-, and switch-level byte accounting (the paper's Figures 6
//!   and 7 are measured from these counters).
//!
//! ## Example
//!
//! ```
//! use nice_sim::{App, ChannelCfg, Ctx, HostCfg, Ipv4, Mac, Packet, Simulation, SwitchCfg, Time};
//! use nice_sim::switch::HubLogic;
//! use std::rc::Rc;
//!
//! struct Sender { peer: Ipv4 }
//! impl App for Sender {
//!     fn on_start(&mut self, ctx: &mut Ctx) {
//!         let pkt = Packet::udp(ctx.ip(), ctx.mac(), self.peer, 1000, 2000, 64, Rc::new("hi"));
//!         ctx.send(pkt);
//!     }
//! }
//! #[derive(Default)]
//! struct Receiver { got: usize }
//! impl App for Receiver {
//!     fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) { self.got += 1; }
//! }
//!
//! let mut sim = Simulation::new(7);
//! let sw = sim.add_switch(Box::new(HubLogic), SwitchCfg::default());
//! let b_ip = Ipv4::new(10, 0, 0, 2);
//! let a = sim.add_host(Box::new(Sender { peer: b_ip }), HostCfg::new(Ipv4::new(10, 0, 0, 1), Mac(1)));
//! let b = sim.add_host(Box::new(Receiver::default()), HostCfg::new(b_ip, Mac(2)));
//! sim.connect(a, sw, ChannelCfg::gigabit());
//! sim.connect(b, sw, ChannelCfg::gigabit());
//! sim.run_until(Time::from_ms(1));
//! assert_eq!(sim.app::<Receiver>(b).got, 1);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod host;
pub mod ids;
pub mod link;
pub mod net;
pub mod sim;
pub mod switch;
pub mod time;

pub use fault::{FaultPlan, FaultRecord, FaultStats};
pub use host::{App, CpuCfg, Ctx, HostCfg};
pub use ids::{ChannelId, Endpoint, HostId, Port, SwitchId};
pub use link::{Channel, ChannelCfg, ChannelStats};
pub use net::{ArpOp, Ipv4, Mac, Packet, Payload, Proto, HDR_TCP, HDR_UDP, MTU};
pub use nice_workload::XorShiftRng;
pub use node_rt::{NodeApp, NodeIo};
pub use sim::{HostStats, Simulation};
pub use switch::{SwitchAction, SwitchCfg, SwitchLogic, SwitchView};
pub use time::Time;
