//! Switch modeling: a pluggable forwarding logic behind a fixed
//! store-and-forward latency.
//!
//! The simulator is agnostic to *how* forwarding decisions are made; the
//! OpenFlow-style flow tables live in the `nice-flow` crate and plug in via
//! [`SwitchLogic`]. The logic may rewrite headers (the paper's
//! virtual-to-physical mapping), replicate to several ports (network-level
//! multicast replication, §4.2), punt to the SDN controller (packet-in), or
//! drop.

use crate::ids::{HostId, Port};
use crate::net::Packet;
use crate::time::Time;

/// Per-packet forwarding latency (lookup + crossbar).
pub(crate) const FWD_LATENCY: Time = Time::from_us(3);

/// One-way latency of the out-of-band control channel to the SDN
/// controller (packet-ins and rule installations both pay this).
pub const CTRL_LATENCY: Time = Time::from_us(50);

/// What a switch decides to do with one received packet. A single input
/// packet may produce many outputs (multicast groups).
#[derive(Debug)]
pub enum SwitchAction {
    /// Transmit `pkt` (possibly header-rewritten) out of `port`.
    Forward {
        /// Egress port.
        port: Port,
        /// The (possibly rewritten) packet.
        pkt: Packet,
    },
    /// Punt the packet to the SDN controller over the control channel.
    ToController {
        /// The punted packet.
        pkt: Packet,
    },
    /// Transmit out of every port except `except`.
    Flood {
        /// Port to skip (normally the ingress port).
        except: Option<Port>,
        /// The packet to flood.
        pkt: Packet,
    },
}

/// Read-only view of the switch handed to the logic on each packet.
#[derive(Debug, Clone, Copy)]
pub struct SwitchView {
    /// This switch's id (as a raw u32 to avoid import cycles in callers).
    pub switch: u32,
    /// The controller host, if one is attached.
    pub controller: Option<HostId>,
}

/// Pluggable forwarding behavior.
///
/// Implementations must be deterministic given the same packet sequence;
/// all state they need (tables, counters) lives inside `self`, which the
/// controller application may share via `Rc<RefCell<..>>` — the simulation
/// is single-threaded by design.
pub trait SwitchLogic {
    /// Decide what to do with `pkt`, which arrived on `in_port` at `now`.
    fn handle(
        &mut self,
        view: SwitchView,
        in_port: Port,
        pkt: Packet,
        now: Time,
    ) -> Vec<SwitchAction>;
}

/// A trivial logic that floods every packet — a dumb hub. Useful for
/// transport-layer unit tests that do not care about routing.
#[derive(Debug, Default)]
pub struct HubLogic;

impl SwitchLogic for HubLogic {
    fn handle(
        &mut self,
        _view: SwitchView,
        in_port: Port,
        pkt: Packet,
        _now: Time,
    ) -> Vec<SwitchAction> {
        vec![SwitchAction::Flood {
            except: Some(in_port),
            pkt,
        }]
    }
}

/// A logic that forwards by destination MAC using a static map and floods
/// unknown destinations. Useful for tests with known topologies.
#[derive(Debug, Default)]
pub struct StaticL2 {
    entries: Vec<(crate::net::Mac, Port)>,
}

impl StaticL2 {
    /// Create an empty table.
    pub fn new() -> StaticL2 {
        StaticL2::default()
    }

    /// Bind `mac` to `port`.
    pub fn bind(&mut self, mac: crate::net::Mac, port: Port) {
        self.entries.retain(|&(m, _)| m != mac);
        self.entries.push((mac, port));
    }
}

impl SwitchLogic for StaticL2 {
    fn handle(
        &mut self,
        _view: SwitchView,
        in_port: Port,
        pkt: Packet,
        _now: Time,
    ) -> Vec<SwitchAction> {
        if pkt.dst_mac.is_broadcast() {
            return vec![SwitchAction::Flood {
                except: Some(in_port),
                pkt,
            }];
        }
        match self.entries.iter().find(|&&(m, _)| m == pkt.dst_mac) {
            Some(&(_, port)) => vec![SwitchAction::Forward { port, pkt }],
            None => vec![SwitchAction::Flood {
                except: Some(in_port),
                pkt,
            }],
        }
    }
}
