//! The discrete-event simulation kernel.
//!
//! [`Simulation`] owns the topology (hosts, switches, channels), the event
//! queue (a [`node_rt::Scheduler`]), and the per-entity state. Determinism:
//! events are ordered by `(time, insertion sequence)`, every host gets a
//! PRNG seeded from the master seed and its id, and nothing reads the
//! wall clock.

use std::any::Any;

use nice_workload::XorShiftRng;
use node_rt::Scheduler;

use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::host::{rx_cost, App, Ctx, Effect, HostCfg};
use crate::ids::{ChannelId, Endpoint, HostId, Port, SwitchId};
use crate::link::{Channel, ChannelCfg, Enqueue};
use crate::net::{ArpOp, Packet, Proto};
use crate::switch::{SwitchAction, SwitchLogic, SwitchView, CTRL_LATENCY, FWD_LATENCY};
use crate::time::Time;

/// Per-host NIC-level traffic counters (what Figure 7's "load ratio" is
/// measured from).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostStats {
    /// Wire bytes transmitted by this host.
    pub bytes_sent: u64,
    /// Wire bytes received by this host.
    pub bytes_recv: u64,
    /// Packets transmitted.
    pub pkts_sent: u64,
    /// Packets dropped because the host was down.
    pub drops_down: u64,
}

struct HostNode {
    app: Option<Box<dyn App>>,
    cfg: HostCfg,
    uplink: Option<ChannelId>,
    downlink: Option<ChannelId>,
    cpu_busy: Time,
    up: bool,
    gen: u32,
    rng: XorShiftRng,
    stats: HostStats,
}

struct SwitchNode {
    logic: Option<Box<dyn SwitchLogic>>,
    /// Egress channel per port.
    ports: Vec<ChannelId>,
    controller: Option<HostId>,
}

enum Ev {
    Start {
        host: HostId,
    },
    NicArrive {
        host: HostId,
        pkt: Packet,
    },
    AppDeliver {
        host: HostId,
        gen: u32,
        pkt: Packet,
    },
    Timer {
        host: HostId,
        gen: u32,
        token: u64,
    },
    SwitchArrive {
        sw: SwitchId,
        port: Port,
        pkt: Packet,
    },
    PacketIn {
        ctrl: HostId,
        sw: SwitchId,
        port: Port,
        pkt: Packet,
    },
    Inject {
        sw: SwitchId,
        port: Port,
        pkt: Packet,
    },
    InjectFlood {
        sw: SwitchId,
        except: Option<Port>,
        pkt: Packet,
    },
    Crash {
        host: HostId,
    },
    Restart {
        host: HostId,
    },
    SetRate {
        host: HostId,
        bps: u64,
    },
}

/// The simulation world.
pub struct Simulation {
    now: Time,
    queue: Scheduler<Ev>,
    hosts: Vec<HostNode>,
    switches: Vec<SwitchNode>,
    channels: Vec<Channel>,
    seed: u64,
    effects: Vec<Effect>,
    events_processed: u64,
    faults: Option<FaultState>,
}

impl Simulation {
    /// Create an empty world with the given determinism seed.
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            now: Time::ZERO,
            queue: Scheduler::new(),
            hosts: Vec::new(),
            switches: Vec::new(),
            channels: Vec::new(),
            seed,
            effects: Vec::new(),
            events_processed: 0,
            faults: None,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed so far (a cheap progress/perf metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn push(&mut self, at: Time, ev: Ev) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.queue.push(at, ev);
    }

    // ---------------------------------------------------------------
    // Topology construction
    // ---------------------------------------------------------------

    /// Add a switch with the given forwarding logic.
    pub fn add_switch(&mut self, logic: Box<dyn SwitchLogic>) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(SwitchNode {
            logic: Some(logic),
            ports: Vec::new(),
            controller: None,
        });
        id
    }

    /// Add a host running `app`. Its `on_start` hook fires at the current
    /// simulation time.
    pub fn add_host(&mut self, app: Box<dyn App>, cfg: HostCfg) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        let rng = XorShiftRng::seed_from_u64(
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        self.hosts.push(HostNode {
            app: Some(app),
            cfg,
            uplink: None,
            downlink: None,
            cpu_busy: Time::ZERO,
            up: true,
            gen: 0,
            rng,
            stats: HostStats::default(),
        });
        let at = self.now;
        self.push(at, Ev::Start { host: id });
        id
    }

    /// Add a host running a [`node_rt::NodeApp`] — protocol logic written
    /// against the NodeIo boundary rather than the simulator's [`App`].
    /// `Simulation::app::<T>()` sees through the wrapper, so harnesses
    /// downcast to the concrete app type exactly as for native apps.
    pub fn add_node(&mut self, app: Box<dyn node_rt::NodeApp>, cfg: HostCfg) -> HostId {
        self.add_host(Box::new(crate::host::SimNode { inner: app }), cfg)
    }

    /// Connect a host to a switch with an asymmetric full-duplex link:
    /// `up` configures host→switch (typically a large kernel send buffer),
    /// `down` configures switch→host (a real, finite switch egress queue —
    /// where multicast overload to a slow receiver drops packets).
    pub fn connect_asym(
        &mut self,
        host: HostId,
        sw: SwitchId,
        up: ChannelCfg,
        down: ChannelCfg,
    ) -> Port {
        assert!(
            self.hosts[host.0 as usize].uplink.is_none(),
            "{host} already connected"
        );
        let port = Port(self.switches[sw.0 as usize].ports.len() as u16);
        let up_id = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(up_id, Endpoint::Switch(sw, port), up));
        let down_id = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(down_id, Endpoint::Host(host), down));
        let h = &mut self.hosts[host.0 as usize];
        h.uplink = Some(up_id);
        h.downlink = Some(down_id);
        self.switches[sw.0 as usize].ports.push(down_id);
        port
    }

    /// Connect a host to a switch with a full-duplex link; returns the
    /// switch port assigned. A host has exactly one NIC.
    pub fn connect(&mut self, host: HostId, sw: SwitchId, cfg: ChannelCfg) -> Port {
        self.connect_asym(host, sw, cfg, cfg)
    }

    /// Connect two switches with a full-duplex link; returns the port on
    /// each side as `(port_on_a, port_on_b)`.
    pub fn connect_switches(&mut self, a: SwitchId, b: SwitchId, cfg: ChannelCfg) -> (Port, Port) {
        let pa = Port(self.switches[a.0 as usize].ports.len() as u16);
        let pb = Port(self.switches[b.0 as usize].ports.len() as u16);
        let a2b = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(a2b, Endpoint::Switch(b, pb), cfg));
        let b2a = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(b2a, Endpoint::Switch(a, pa), cfg));
        self.switches[a.0 as usize].ports.push(a2b);
        self.switches[b.0 as usize].ports.push(b2a);
        (pa, pb)
    }

    /// Attach `host` as the SDN controller for `sw`: packets the switch
    /// logic punts are delivered to this host's `on_packet_in` after the
    /// control-channel latency.
    pub fn set_controller(&mut self, sw: SwitchId, host: HostId) {
        self.switches[sw.0 as usize].controller = Some(host);
    }

    // ---------------------------------------------------------------
    // Failure injection & run-time control
    // ---------------------------------------------------------------

    /// Crash `host` at absolute time `at`: pending timers die, in-flight
    /// deliveries are dropped, and the app's `on_crash` hook runs.
    pub fn schedule_crash(&mut self, at: Time, host: HostId) {
        self.push(at.max(self.now), Ev::Crash { host });
    }

    /// Restart a crashed host at absolute time `at`.
    pub fn schedule_restart(&mut self, at: Time, host: HostId) {
        self.push(at.max(self.now), Ev::Restart { host });
    }

    /// Change both directions of `host`'s link to `bps` at time `at`
    /// (Figure 8's 50 Mbps throttling).
    pub fn schedule_link_rate(&mut self, at: Time, host: HostId, bps: u64) {
        self.push(at.max(self.now), Ev::SetRate { host, bps });
    }

    /// Is the host currently up?
    pub fn is_up(&self, host: HostId) -> bool {
        self.hosts[host.0 as usize].up
    }

    /// Install a [`FaultPlan`]: from now on every packet enqueue — host
    /// NIC sends, switch forwards/floods, controller injections — passes
    /// the plan's choke-point filter. Each of the plan's
    /// [`Outage`](crate::fault::Outage)s indexes into `nodes`, crashing
    /// and restarting the corresponding host; entries pointing past the
    /// end of `nodes` are ignored.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, nodes: &[HostId]) {
        for o in &plan.outages {
            let Some(&host) = nodes.get(o.node) else {
                continue;
            };
            self.schedule_crash(o.down, host);
            self.schedule_restart(o.up, host);
        }
        self.faults = Some(FaultState::new(plan));
    }

    /// Counters of the installed fault plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultState::stats)
    }

    /// The rendered fault trace: one line per fault fired, byte-identical
    /// across same-seed runs. Empty when no plan is installed.
    pub fn fault_trace(&self) -> String {
        self.faults
            .as_ref()
            .map(FaultState::render_trace)
            .unwrap_or_default()
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Borrow the app on `host`, downcast to `T`.
    ///
    /// # Panics
    /// If the app is not a `T`.
    pub fn app<T: Any>(&self, host: HostId) -> &T {
        let app = self.hosts[host.0 as usize]
            .app
            .as_ref()
            .expect("app taken (called from within a callback?)");
        let any: &dyn Any = app.as_ref();
        if let Some(t) = any.downcast_ref::<T>() {
            return t;
        }
        // NodeIo-hosted apps sit behind the SimNode wrapper.
        any.downcast_ref::<crate::host::SimNode>()
            .and_then(|node| {
                let inner: &dyn Any = node.inner.as_ref();
                inner.downcast_ref::<T>()
            })
            .expect("app type mismatch")
    }

    /// Mutably borrow the app on `host`, downcast to `T`.
    pub fn app_mut<T: Any>(&mut self, host: HostId) -> &mut T {
        let app = self.hosts[host.0 as usize]
            .app
            .as_mut()
            .expect("app taken (called from within a callback?)");
        let any: &mut dyn Any = app.as_mut();
        // NodeIo-hosted apps sit behind the SimNode wrapper; a two-branch
        // borrow fights the checker, so peel the wrapper first.
        if any.downcast_ref::<crate::host::SimNode>().is_some() {
            let node = any
                .downcast_mut::<crate::host::SimNode>()
                .expect("checked just above");
            let inner: &mut dyn Any = node.inner.as_mut();
            return inner.downcast_mut::<T>().expect("app type mismatch");
        }
        any.downcast_mut::<T>().expect("app type mismatch")
    }

    /// NIC-level counters for `host`.
    pub fn host_stats(&self, host: HostId) -> HostStats {
        self.hosts[host.0 as usize].stats
    }

    /// Total wire bytes accepted across all links — the paper's "total
    /// network link load" metric (Figure 6).
    pub fn total_link_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats().bytes).sum()
    }

    /// Total packets dropped at link buffers.
    pub fn total_link_drops(&self) -> u64 {
        self.channels.iter().map(|c| c.stats().drops).sum()
    }

    // ---------------------------------------------------------------
    // Event loop
    // ---------------------------------------------------------------

    /// Advance to absolute time `t`, processing every event up to and
    /// including it. The clock lands exactly on `t`.
    pub fn run_until(&mut self, t: Time) {
        while let Some((at, ev)) = self.queue.pop_due(t) {
            self.process(at, ev);
        }
        self.now = self.now.max(t);
    }

    /// Advance by `d` from the current time.
    pub fn run_for(&mut self, d: Time) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Process a single event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop_due(Time::MAX) else {
            return false;
        };
        self.process(at, ev);
        true
    }

    fn process(&mut self, at: Time, ev: Ev) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.events_processed += 1;
        self.dispatch(ev);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start { host } => self.with_app(host, |app, ctx| app.on_start(ctx), true),
            Ev::NicArrive { host, pkt } => self.nic_arrive(host, pkt),
            Ev::AppDeliver { host, gen, pkt } => {
                if self.host_live(host, gen) {
                    self.with_app(host, |app, ctx| app.on_packet(pkt, ctx), false);
                }
            }
            Ev::Timer { host, gen, token } => {
                if self.host_live(host, gen) {
                    self.with_app(host, |app, ctx| app.on_timer(token, ctx), false);
                }
            }
            Ev::SwitchArrive { sw, port, pkt } => self.switch_arrive(sw, port, pkt),
            Ev::PacketIn {
                ctrl,
                sw,
                port,
                pkt,
            } => {
                let Some(gen) = self.hosts.get(ctrl.0 as usize).map(|h| h.gen) else {
                    return;
                };
                if self.host_live(ctrl, gen) {
                    self.with_app(ctrl, |app, ctx| app.on_packet_in(sw, port, pkt, ctx), false);
                }
            }
            Ev::Inject { sw, port, pkt } => {
                let now = self.now;
                self.switch_egress(sw, port, pkt, now);
            }
            Ev::InjectFlood { sw, except, pkt } => {
                let now = self.now;
                self.switch_flood(sw, except, pkt, now);
            }
            Ev::Crash { host } => {
                let Some(h) = self.hosts.get_mut(host.0 as usize) else {
                    return;
                };
                if h.up {
                    h.up = false;
                    h.gen += 1;
                    h.cpu_busy = Time::ZERO;
                    if let Some(app) = h.app.as_mut() {
                        app.on_crash();
                    }
                }
            }
            Ev::Restart { host } => {
                let Some(h) = self.hosts.get_mut(host.0 as usize) else {
                    return;
                };
                if !h.up {
                    h.up = true;
                    h.gen += 1;
                    let announce = h.cfg.announce_on_boot;
                    self.with_app(host, |app, ctx| app.on_restart(ctx), announce);
                }
            }
            Ev::SetRate { host, bps } => {
                let Some((up, down)) = self
                    .hosts
                    .get(host.0 as usize)
                    .and_then(|h| h.uplink.zip(h.downlink))
                else {
                    return;
                };
                if let Some(c) = self.channels.get_mut(up.0 as usize) {
                    c.set_rate(bps);
                }
                if let Some(c) = self.channels.get_mut(down.0 as usize) {
                    c.set_rate(bps);
                }
            }
        }
    }

    fn host_live(&self, host: HostId, gen: u32) -> bool {
        self.hosts
            .get(host.0 as usize)
            .is_some_and(|h| h.up && h.gen == gen)
    }

    /// Run an app callback with the borrow dance: take the app out, build a
    /// context over the remaining world, call, put it back, apply effects.
    fn with_app(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut Box<dyn App>, &mut Ctx),
        announce: bool,
    ) {
        let idx = host.0 as usize;
        let garp = self.hosts.get(idx).and_then(|h| {
            // Gratuitous ARP teaches the learning controller our binding.
            (announce && h.cfg.announce_on_boot)
                .then(|| Packet::arp_request(h.cfg.ip, h.cfg.mac, h.cfg.ip))
        });
        if let Some(garp) = garp {
            self.host_send(host, garp);
        }
        let Some(mut app) = self.hosts.get_mut(idx).and_then(|h| h.app.take()) else {
            // lint:allow(panic_path) — harness invariant: re-entrant dispatch is a simulator bug, crash loudly
            panic!("re-entrant app callback on {host}");
        };
        let mut effects = std::mem::take(&mut self.effects);
        debug_assert!(effects.is_empty());
        let now = self.now;
        if let Some(h) = self.hosts.get_mut(idx) {
            let mut ctx = Ctx {
                now,
                host,
                ip: h.cfg.ip,
                mac: h.cfg.mac,
                effects: &mut effects,
                rng: &mut h.rng,
            };
            f(&mut app, &mut ctx);
            h.app = Some(app);
        }
        self.apply_effects(host, &mut effects);
        self.effects = effects;
    }

    fn apply_effects(&mut self, host: HostId, effects: &mut Vec<Effect>) {
        let now = self.now;
        for eff in effects.drain(..) {
            match eff {
                Effect::Send(pkt) => self.host_send(host, pkt),
                Effect::Timer { delay, token } => {
                    let Some(gen) = self.hosts.get(host.0 as usize).map(|h| h.gen) else {
                        continue;
                    };
                    self.push(now + delay, Ev::Timer { host, gen, token });
                }
                Effect::CpuWork(amount) => {
                    if let Some(h) = self.hosts.get_mut(host.0 as usize) {
                        h.cpu_busy = h.cpu_busy.max(now) + amount;
                    }
                }
                Effect::CpuDefer { amount, token } => {
                    let Some(h) = self.hosts.get_mut(host.0 as usize) else {
                        continue;
                    };
                    h.cpu_busy = h.cpu_busy.max(now) + amount;
                    let (at, gen) = (h.cpu_busy, h.gen);
                    self.push(at, Ev::Timer { host, gen, token });
                }
                // A packet-out to a switch that does not exist vanishes.
                Effect::SwitchInject { sw, port, pkt } if self.has_switch(sw) => {
                    self.push(now + CTRL_LATENCY, Ev::Inject { sw, port, pkt });
                }
                Effect::SwitchFlood { sw, except, pkt } if self.has_switch(sw) => {
                    self.push(now + CTRL_LATENCY, Ev::InjectFlood { sw, except, pkt });
                }
                Effect::SwitchInject { .. } | Effect::SwitchFlood { .. } => {}
            }
        }
    }

    fn has_switch(&self, sw: SwitchId) -> bool {
        (sw.0 as usize) < self.switches.len()
    }

    fn host_send(&mut self, host: HostId, pkt: Packet) {
        let Some(h) = self.hosts.get_mut(host.0 as usize) else {
            return;
        };
        if !h.up {
            return;
        }
        let Some(up) = h.uplink else {
            return; // disconnected host: packet vanishes
        };
        h.stats.bytes_sent += pkt.wire_size as u64;
        h.stats.pkts_sent += 1;
        self.channel_send(up, pkt);
    }

    fn channel_send(&mut self, ch: ChannelId, pkt: Packet) {
        let now = self.now;
        self.channel_enqueue(ch, pkt, now);
    }

    /// The single packet-delivery choke point: every channel enqueue —
    /// host NIC sends, switch forwards/floods, controller injections —
    /// funnels through here, so an installed [`FaultPlan`] sees (and may
    /// drop, duplicate, or delay) every packet in the simulation.
    fn channel_enqueue(&mut self, ch: ChannelId, pkt: Packet, at: Time) {
        let verdict = match self.faults.as_mut() {
            Some(f) => f.judge(at, &pkt),
            None => crate::fault::Verdict::CLEAN,
        };
        let Some(dst) = self.channels.get(ch.0 as usize).map(|c| c.dst) else {
            return;
        };
        for _ in 0..verdict.copies {
            let Some(c) = self.channels.get_mut(ch.0 as usize) else {
                return;
            };
            match c.enqueue(at, &pkt) {
                Enqueue::Arrives(t) => {
                    let t = t + verdict.extra_delay;
                    match dst {
                        Endpoint::Host(h) => self.push(
                            t,
                            Ev::NicArrive {
                                host: h,
                                pkt: pkt.clone(),
                            },
                        ),
                        Endpoint::Switch(sw, port) => self.push(
                            t,
                            Ev::SwitchArrive {
                                sw,
                                port,
                                pkt: pkt.clone(),
                            },
                        ),
                    }
                }
                Enqueue::Dropped => {}
            }
        }
    }

    fn nic_arrive(&mut self, host: HostId, pkt: Packet) {
        let idx = host.0 as usize;
        let Some(h) = self.hosts.get_mut(idx) else {
            return;
        };
        if !h.up {
            h.stats.drops_down += 1;
            return;
        }
        // NIC/kernel filtering: a host only accepts packets addressed to
        // it (or link-layer broadcast / ARP). NICE guarantees this holds
        // even for vring traffic because the switch rewrites the virtual
        // destination to the physical address before forwarding (§3.2).
        if pkt.proto != Proto::Arp && pkt.dst != h.cfg.ip && !pkt.dst_mac.is_broadcast() {
            return;
        }
        h.stats.bytes_recv += pkt.wire_size as u64;
        // Kernel-level ARP handling: requests are answered without
        // involving the app; replies and everything else go up the stack.
        if pkt.proto == Proto::Arp {
            if let Some(ArpOp::Request { target }) = pkt.payload_as::<ArpOp>().copied() {
                if target == h.cfg.ip && pkt.src != h.cfg.ip {
                    let reply = Packet::arp_reply(h.cfg.ip, h.cfg.mac, pkt.src, pkt.src_mac);
                    self.host_send(host, reply);
                }
                return;
            }
        }
        let cost = rx_cost(pkt.wire_size);
        let done = h.cpu_busy.max(self.now) + cost;
        h.cpu_busy = done;
        let gen = h.gen;
        self.push(done, Ev::AppDeliver { host, gen, pkt });
    }

    fn switch_arrive(&mut self, sw: SwitchId, port: Port, pkt: Packet) {
        let now = self.now;
        let Some(node) = self.switches.get_mut(sw.0 as usize) else {
            return;
        };
        let Some(mut logic) = node.logic.take() else {
            // lint:allow(panic_path) — harness invariant: re-entrant dispatch is a simulator bug, crash loudly
            panic!("re-entrant switch callback on {sw}");
        };
        let view = SwitchView {
            switch: sw.0,
            controller: node.controller,
        };
        let actions = logic.handle(view, port, pkt, now);
        node.logic = Some(logic);
        let egress_at = now + FWD_LATENCY;
        let ctrl_at = now + CTRL_LATENCY;
        let controller = node.controller;
        for act in actions {
            match act {
                SwitchAction::Forward { port: out, pkt } => {
                    self.switch_egress(sw, out, pkt, egress_at);
                }
                SwitchAction::Flood { except, pkt } => {
                    self.switch_flood(sw, except, pkt, egress_at);
                }
                SwitchAction::ToController { pkt } => {
                    if let Some(ctrl) = controller {
                        self.push(
                            ctrl_at,
                            Ev::PacketIn {
                                ctrl,
                                sw,
                                port,
                                pkt,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Enqueue `pkt` on the egress channel of `(sw, port)`; `at` is when
    /// the packet reaches that egress queue.
    fn switch_egress(&mut self, sw: SwitchId, port: Port, pkt: Packet, at: Time) {
        let Some(&ch) = self
            .switches
            .get(sw.0 as usize)
            .and_then(|s| s.ports.get(port.0 as usize))
        else {
            return; // rule points at a disconnected port: packet dies
        };
        // Channels refuse enqueues in the past; the forwarding latency is
        // modeled by offsetting the enqueue clock.
        self.channel_enqueue(ch, pkt, at);
    }

    fn switch_flood(&mut self, sw: SwitchId, except: Option<Port>, pkt: Packet, at: Time) {
        let nports = self
            .switches
            .get(sw.0 as usize)
            .map_or(0, |s| s.ports.len());
        for p in 0..nports {
            let port = Port(p as u16);
            if Some(port) == except {
                continue;
            }
            self.switch_egress(sw, port, pkt.clone(), at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Ipv4;
    use crate::net::Mac;
    use crate::switch::HubLogic;
    use node_rt::NodeIo;
    use std::rc::Rc;

    /// Echoes every received u32 payload back to the sender, incremented.
    #[derive(Default)]
    struct Echo {
        got: Vec<u32>,
    }

    impl App for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            let v = *pkt.payload_as::<u32>().unwrap();
            self.got.push(v);
            if v < 3 {
                let reply = Packet::udp(
                    ctx.ip(),
                    ctx.mac(),
                    pkt.src,
                    pkt.dst_port,
                    pkt.src_port,
                    4,
                    Rc::new(v + 1),
                );
                ctx.send(reply);
            }
        }
    }

    /// Sends an initial packet to a peer on start.
    struct Kick {
        peer: Ipv4,
        got: Vec<u32>,
    }

    impl App for Kick {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let p = Packet::udp(ctx.ip(), ctx.mac(), self.peer, 7, 7, 4, Rc::new(0u32));
            ctx.send(p);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            let v = *pkt.payload_as::<u32>().unwrap();
            self.got.push(v);
            if v < 3 {
                let reply = Packet::udp(ctx.ip(), ctx.mac(), pkt.src, 7, 7, 4, Rc::new(v + 1));
                ctx.send(reply);
            }
        }
    }

    fn two_hosts() -> (Simulation, HostId, HostId) {
        let mut sim = Simulation::new(42);
        let sw = sim.add_switch(Box::new(HubLogic));
        let a_ip = Ipv4::new(10, 0, 0, 1);
        let b_ip = Ipv4::new(10, 0, 0, 2);
        let a = sim.add_host(
            Box::new(Kick {
                peer: b_ip,
                got: vec![],
            }),
            HostCfg::new(a_ip, Mac(1)),
        );
        let b = sim.add_host(Box::new(Echo::default()), HostCfg::new(b_ip, Mac(2)));
        sim.connect(a, sw, ChannelCfg::gigabit());
        sim.connect(b, sw, ChannelCfg::gigabit());
        (sim, a, b)
    }

    #[test]
    fn ping_pong_through_hub() {
        let (mut sim, a, b) = two_hosts();
        sim.run_until(Time::from_ms(10));
        assert_eq!(sim.app::<Echo>(b).got, vec![0, 2]);
        assert_eq!(sim.app::<Kick>(a).got, vec![1, 3]);
        assert!(sim.now() == Time::from_ms(10));
    }

    #[test]
    fn time_advances_monotonically() {
        let (mut sim, _, _) = two_hosts();
        let mut last = Time::ZERO;
        while sim.step() {
            assert!(sim.now() >= last);
            last = sim.now();
        }
    }

    #[test]
    fn crash_drops_delivery_and_restart_recovers() {
        let (mut sim, _a, b) = two_hosts();
        // Crash b immediately: a's kick packet is dropped at b's NIC.
        sim.schedule_crash(Time::ZERO, b);
        sim.run_until(Time::from_ms(1));
        assert!(sim.app::<Echo>(b).got.is_empty());
        assert!(sim.host_stats(b).drops_down >= 1);
        assert!(!sim.is_up(b));
        sim.schedule_restart(Time::from_ms(2), b);
        sim.run_until(Time::from_ms(3));
        assert!(sim.is_up(b));
    }

    #[test]
    fn host_stats_count_traffic() {
        let (mut sim, a, b) = two_hosts();
        sim.run_until(Time::from_ms(10));
        let sa = sim.host_stats(a);
        let sb = sim.host_stats(b);
        // a sent: GARP + kick(0) + reply(2); b sent: GARP + 1 + 3.
        assert_eq!(sa.pkts_sent, 3);
        assert_eq!(sb.pkts_sent, 3);
        // Hub floods everything, so each receives the other's traffic.
        assert!(sa.bytes_recv > 0 && sb.bytes_recv > 0);
    }

    #[test]
    fn link_bytes_accounted() {
        let (mut sim, _, _) = two_hosts();
        sim.run_until(Time::from_ms(10));
        // Every host->switch byte is flooded to the other host, so total
        // channel bytes = 2x host bytes sent (one uplink, one downlink).
        let sent: u64 = [HostId(0), HostId(1)]
            .iter()
            .map(|&h| sim.host_stats(h).bytes_sent)
            .sum();
        assert_eq!(sim.total_link_bytes(), 2 * sent);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, a, b) = two_hosts();
            sim.run_until(Time::from_ms(10));
            (
                sim.events_processed(),
                sim.total_link_bytes(),
                sim.app::<Kick>(a).got.clone(),
                sim.app::<Echo>(b).got.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Timer-armed app for timer/crash interaction tests.
    #[derive(Default)]
    struct Ticker {
        fired: Vec<u64>,
    }
    impl App for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Time::from_us(10), 1);
            ctx.set_timer(Time::from_us(20), 2);
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(1);
        let h = sim.add_host(
            Box::new(Ticker::default()),
            HostCfg::new(Ipv4::new(1, 0, 0, 1), Mac(1)),
        );
        let _ = h;
        sim.run_until(Time::from_ms(1));
        assert_eq!(sim.app::<Ticker>(h).fired, vec![1, 2]);
    }

    #[test]
    fn crash_cancels_pending_timers() {
        let mut sim = Simulation::new(1);
        let h = sim.add_host(
            Box::new(Ticker::default()),
            HostCfg::new(Ipv4::new(1, 0, 0, 1), Mac(1)),
        );
        sim.schedule_crash(Time::from_us(15), h);
        sim.run_until(Time::from_ms(1));
        // token 1 fired at 10us; token 2 (20us) died with the crash.
        assert_eq!(sim.app::<Ticker>(h).fired, vec![1]);
    }

    #[test]
    fn fault_plan_total_loss_blackholes_udp() {
        let (mut sim, _a, b) = two_hosts();
        sim.install_fault_plan(FaultPlan::new(3).loss(1.0), &[]);
        sim.run_until(Time::from_ms(10));
        // ARP is spared, so the GARPs flow; the UDP kick never arrives.
        assert!(sim.app::<Echo>(b).got.is_empty());
        let stats = sim.fault_stats().expect("plan installed");
        assert!(stats.lost >= 1, "{stats:?}");
        assert!(!sim.fault_trace().is_empty());
    }

    #[test]
    fn fault_plan_duplication_delivers_twice() {
        let (mut sim, _a, b) = two_hosts();
        sim.install_fault_plan(FaultPlan::new(3).duplication(1.0), &[]);
        sim.run_until(Time::from_ms(10));
        // Every UDP packet doubles at each hop (uplink + downlink), so b
        // sees the kick 4x; it replies to each copy < 3.
        let got = &sim.app::<Echo>(b).got;
        assert!(got.iter().filter(|&&v| v == 0).count() >= 2, "{got:?}");
        assert!(sim.fault_stats().expect("plan").duplicated >= 2);
    }

    #[test]
    fn fault_plan_partition_blocks_pair() {
        let (mut sim, _a, b) = two_hosts();
        let a_ip = Ipv4::new(10, 0, 0, 1);
        let b_ip = Ipv4::new(10, 0, 0, 2);
        let plan = FaultPlan::new(0).partition(vec![a_ip], vec![b_ip], Time::ZERO, Time::MAX);
        sim.install_fault_plan(plan, &[]);
        sim.run_until(Time::from_ms(10));
        assert!(sim.app::<Echo>(b).got.is_empty());
        assert!(sim.fault_stats().expect("plan").partitioned >= 1);
    }

    #[test]
    fn fault_plan_replay_is_byte_identical() {
        // The tentpole replay guarantee: same seed, same plan → the fault
        // trace renders byte-identical and the simulation outcome matches.
        let run = |seed: u64| {
            let (mut sim, a, b) = two_hosts();
            let plan = FaultPlan::new(seed)
                .loss(0.3)
                .duplication(0.2)
                .extra_delay(0.2, Time::from_us(40));
            sim.install_fault_plan(plan, &[]);
            sim.run_until(Time::from_ms(50));
            (
                sim.fault_trace(),
                sim.events_processed(),
                sim.app::<Kick>(a).got.clone(),
                sim.app::<Echo>(b).got.clone(),
            )
        };
        let first = run(11);
        assert!(!first.0.is_empty(), "plan with faults produced a trace");
        assert_eq!(first, run(11));
        assert_ne!(first.0, run(12).0, "different seed, different trace");
    }

    #[test]
    fn install_fault_plan_schedules_outages() {
        let (mut sim, _a, b) = two_hosts();
        let plan = FaultPlan::new(1).outage(0, Time::from_us(1), Time::from_ms(5));
        sim.install_fault_plan(plan, &[b]);
        sim.run_until(Time::from_ms(1));
        assert!(!sim.is_up(b));
        sim.run_until(Time::from_ms(6));
        assert!(sim.is_up(b));
    }

    #[test]
    fn cpu_queue_serializes_deliveries() {
        // Two packets arriving back-to-back are delivered one rx_cost apart.
        #[derive(Default)]
        struct Record {
            at: Vec<Time>,
        }
        impl App for Record {
            fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx) {
                self.at.push(ctx.now());
            }
        }
        struct Blast {
            peer: Ipv4,
        }
        impl App for Blast {
            fn on_start(&mut self, ctx: &mut Ctx) {
                for _ in 0..2 {
                    let p = Packet::udp(ctx.ip(), ctx.mac(), self.peer, 1, 1, 1400, Rc::new(0u32));
                    ctx.send(p);
                }
            }
        }
        let mut sim = Simulation::new(7);
        let sw = sim.add_switch(Box::new(HubLogic));
        let b_ip = Ipv4::new(10, 0, 0, 2);
        let a = sim.add_host(
            Box::new(Blast { peer: b_ip }),
            HostCfg::new(Ipv4::new(10, 0, 0, 1), Mac(1)),
        );
        let b = sim.add_host(Box::new(Record::default()), HostCfg::new(b_ip, Mac(2)));
        sim.connect(a, sw, ChannelCfg::gigabit());
        sim.connect(b, sw, ChannelCfg::gigabit());
        sim.run_until(Time::from_ms(1));
        let at = &sim.app::<Record>(b).at;
        assert_eq!(at.len(), 2);
        let gap = at[1] - at[0];
        // Packets serialize on the 1G link 11.5us apart; rx cost ~1.9us, so
        // the gap equals the link serialization (the CPU is not the
        // bottleneck here), and both must have cleared the CPU.
        assert!(
            gap >= rx_cost(1442).saturating_sub(Time::from_ns(1)),
            "{gap}"
        );
    }
}
