//! node-rt — the host runtime boundary for NICE/NOOB node applications.
//!
//! Node logic (transport state machines, storage servers, gateways,
//! clients) is written once against two small traits:
//!
//! - [`NodeIo`]: what a node may ask of its host — clock, packet send,
//!   timers, deferred CPU work, a seeded RNG.
//! - [`NodeApp`]: the callbacks a host drives — start, packet, timer,
//!   crash, restart.
//!
//! Two hosts implement the contract:
//!
//! ```text
//!   nicekv / noob / nice-transport        protocol logic (NodeApp)
//!                  │
//!                  ▼  NodeIo
//!   ┌──────────────┴───────────────┐
//!   nice-sim Ctx                node_rt::runtime::UdpRuntime
//!   (deterministic discrete-     (OS threads + real UdpSockets on
//!    event virtual time)          loopback, wall-clock timers)
//! ```
//!
//! The packet and time vocabulary ([`Packet`], [`Ipv4`], [`Time`], …)
//! lives here so protocol crates depend only on this crate; `nice-sim`
//! re-exports the same types for its own layers (switches, links, SDN).

#![warn(missing_docs)]

pub mod codec;
pub mod fault;
mod io;
pub mod nemesis;
pub mod net;
pub mod runtime;
pub mod time;

pub use codec::{ByteReader, ByteWriter, WireCodec};
pub use fault::{FaultPlan, Outage, Partition};
pub use io::{NodeApp, NodeIo};
pub use nemesis::{FaultStats, Nemesis, NemesisUdp, Verdict};
pub use net::{ArpOp, Ipv4, Mac, Packet, Payload, Proto, ARP_WIRE_SIZE, HDR_TCP, HDR_UDP, MTU};
pub use nice_workload::XorShiftRng;
pub use runtime::{NodeSpec, RuntimeCfg, UdpHostCfg, UdpRuntime};
pub use time::Time;
