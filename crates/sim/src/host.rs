//! Hosts: end nodes running an application behind a CPU service queue.
//!
//! Every packet delivered to a host is charged a receive cost on a single
//! serial CPU (`max(arrival, cpu_busy) + cost`), which is what makes a NOOB
//! primary replica that must process `2(R-1)` acknowledgment messages per
//! put visibly slower than a NICE primary (Figure 9a of the paper).
//! Applications can charge additional explicit work via
//! [`NodeIo::cpu_work`] (e.g. a storage write or a gateway forwarding step).

use std::any::Any;

use nice_workload::XorShiftRng;
use node_rt::NodeIo;

use crate::ids::{HostId, Port, SwitchId};
use crate::net::{Ipv4, Mac, Packet};
use crate::time::Time;

/// Fixed receive cost charged per packet (kernel + interrupt path).
const RX_PER_PACKET: Time = Time::from_ns(1_500);
/// Additional receive cost per KiB of wire bytes (copy cost).
const RX_PER_KIB: Time = Time::from_ns(300);

/// Receive cost of a packet of `wire_size` bytes.
#[inline]
pub(crate) fn rx_cost(wire_size: u32) -> Time {
    RX_PER_PACKET + Time((RX_PER_KIB.0 * wire_size as u64) / 1024)
}

/// Static host configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostCfg {
    /// The host's (physical) IPv4 address.
    pub ip: Ipv4,
    /// The host's MAC address.
    pub mac: Mac,
    /// If true, the host kernel announces itself with a gratuitous ARP on
    /// boot and on every restart, which is how the learning controller
    /// discovers `(ip, mac, port)` bindings (§5 "Mapping Service").
    pub announce_on_boot: bool,
}

impl HostCfg {
    /// A host that announces on boot.
    pub fn new(ip: Ipv4, mac: Mac) -> HostCfg {
        HostCfg {
            ip,
            mac,
            announce_on_boot: true,
        }
    }
}

/// Side effects an application requests during a callback; applied by the
/// simulation kernel after the callback returns.
#[derive(Debug)]
pub(crate) enum Effect {
    Send(Packet),
    Timer {
        delay: Time,
        token: u64,
    },
    CpuWork(Time),
    CpuDefer {
        amount: Time,
        token: u64,
    },
    SwitchInject {
        sw: SwitchId,
        port: Port,
        pkt: Packet,
    },
    SwitchFlood {
        sw: SwitchId,
        except: Option<Port>,
        pkt: Packet,
    },
}

/// The application's handle to the simulation during a callback.
///
/// All interactions with the world — sending packets, arming timers,
/// charging CPU work, SDN packet-outs — go through this context and take
/// effect when the callback returns.
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) host: HostId,
    pub(crate) ip: Ipv4,
    pub(crate) mac: Mac,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) rng: &'a mut XorShiftRng,
}

impl Ctx<'_> {
    /// This host's id.
    #[inline]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// SDN packet-out: have switch `sw` transmit `pkt` out of `port` after
    /// the control-channel latency. Only meaningful for controller apps.
    #[inline]
    pub fn packet_out(&mut self, sw: SwitchId, port: Port, pkt: Packet) {
        self.effects.push(Effect::SwitchInject { sw, port, pkt });
    }

    /// SDN packet-out flood: have switch `sw` flood `pkt` (except out of
    /// `except`) after the control-channel latency.
    #[inline]
    pub fn packet_out_flood(&mut self, sw: SwitchId, except: Option<Port>, pkt: Packet) {
        self.effects.push(Effect::SwitchFlood { sw, except, pkt });
    }
}

/// The simulator's side of the host-runtime boundary: a `&mut Ctx`
/// coerces to `&mut dyn NodeIo`, so protocol crates written against
/// `node-rt` run unmodified on simulated hosts. The SDN-only surface
/// ([`Ctx::packet_out`], [`Ctx::host`]) stays off the trait — apps that
/// need it are sim-only by design.
impl NodeIo for Ctx<'_> {
    /// Current simulated time.
    #[inline]
    fn now(&self) -> Time {
        self.now
    }

    /// This host's IPv4 address.
    #[inline]
    fn ip(&self) -> Ipv4 {
        self.ip
    }

    /// This host's MAC address.
    #[inline]
    fn mac(&self) -> Mac {
        self.mac
    }

    /// Transmit a packet out of this host's NIC.
    #[inline]
    fn send(&mut self, pkt: Packet) {
        self.effects.push(Effect::Send(pkt));
    }

    /// Arm a one-shot timer that fires [`App::on_timer`] with `token`
    /// after `delay`. Timers do not survive a crash.
    #[inline]
    fn set_timer(&mut self, delay: Time, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    /// Charge `amount` of serial CPU work to this host, delaying the
    /// delivery of subsequently received packets.
    #[inline]
    fn cpu_work(&mut self, amount: Time) {
        self.effects.push(Effect::CpuWork(amount));
    }

    /// Enqueue `amount` of work on this host's serial CPU and fire
    /// `on_timer(token)` when it completes — i.e. at
    /// `max(now, cpu_busy) + amount`. This is how request *processing
    /// time* becomes part of the response latency: handle the arrival by
    /// deferring, then reply from the timer callback.
    #[inline]
    fn cpu_defer(&mut self, amount: Time, token: u64) {
        self.effects.push(Effect::CpuDefer { amount, token });
    }

    /// This host's deterministic random-number generator.
    #[inline]
    fn rng(&mut self) -> &mut XorShiftRng {
        self.rng
    }
}

/// Hosts a [`node_rt::NodeApp`] on a simulated host by forwarding every
/// [`App`] hook across the NodeIo boundary (`Simulation::add_node` wraps
/// apps in this; `Simulation::app` sees through it).
pub(crate) struct SimNode {
    pub(crate) inner: Box<dyn node_rt::NodeApp>,
}

impl App for SimNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.inner.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.inner.on_timer(token, ctx);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.inner.on_restart(ctx);
    }
}

/// An application running on a host.
///
/// Implementations are plain state machines: the kernel calls these hooks
/// and the app responds with effects on the [`Ctx`]. The `Any` supertrait
/// lets harnesses downcast a stored app back to its concrete type between
/// simulation steps (see `Simulation::app`).
pub trait App: Any {
    /// Called once when the simulation starts (or when the host is added,
    /// if the simulation is already running).
    fn on_start(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// A packet addressed to this host has been received and has cleared
    /// the CPU queue.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let _ = (pkt, ctx);
    }

    /// A timer armed with [`NodeIo::set_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let _ = (token, ctx);
    }

    /// An OpenFlow packet-in: switch `sw` punted `pkt` (received on
    /// `in_port`) to this host, which is that switch's controller.
    fn on_packet_in(&mut self, sw: SwitchId, in_port: Port, pkt: Packet, ctx: &mut Ctx) {
        let _ = (sw, in_port, pkt, ctx);
    }

    /// The host just crashed: volatile state (locks, timers, connections)
    /// is gone. Persistent state should be kept — the paper's recovery
    /// protocol replays persistent logs (§4.4).
    fn on_crash(&mut self) {}

    /// The host restarted after a crash.
    fn on_restart(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_cost_scales_with_size() {
        let sizes = [0u32, 64, 1024, 1442, 2048, 9000];
        for w in sizes.windows(2) {
            assert!(rx_cost(w[0]) < rx_cost(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(rx_cost(0), RX_PER_PACKET);
        assert_eq!(rx_cost(1024), RX_PER_PACKET + RX_PER_KIB);
    }

    #[test]
    fn default_cost_is_modest() {
        // An MTU packet should cost on the order of a couple microseconds,
        // well under its 11.2us serialization time at 1 Gbps: the network,
        // not the CPU, must bound bulk transfers.
        let c = rx_cost(1442);
        assert!(c < Time::from_us(3), "{c}");
        assert!(c > Time::from_us(1), "{c}");
    }
}
