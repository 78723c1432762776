//! A real multi-threaded UDP runtime: the second [`NodeIo`] host.
//!
//! Every node becomes an OS thread owning one `std::net::UdpSocket`
//! bound on loopback. The thread runs a recv-or-timer event loop:
//! `recv_timeout`-style blocking reads (via `set_read_timeout`) bounded
//! by the earliest deadline in a per-node timer heap. Packets are framed
//! through the cluster's [`WireCodec`] on send and reconstructed on
//! receive, so the node apps execute the same state machines they run
//! under the simulator — over actual sockets.
//!
//! Scope (DESIGN.md § Runtimes): this host serves NOOB's gateway routing
//! over physical node addresses, resolved sender-side from a static
//! route table; vnode rewriting, multicast fan-out and the in-switch
//! anycast/failover path need a programmable switch and stay sim-only.
//!
//! Booting is config-driven: describe the host layer with a
//! [`RuntimeCfg`] (+ [`UdpHostCfg`]), list the nodes as [`NodeSpec`]s,
//! and call [`UdpRuntime::spawn`].

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nice_workload::XorShiftRng;

use crate::codec::{decode_frame, encode_frame, WireCodec};
use crate::fault::FaultPlan;
use crate::io::{NodeApp, NodeIo};
use crate::nemesis::{FaultStats, Nemesis, NemesisUdp};
use crate::net::{Ipv4, Mac, Packet};
use crate::sched::Scheduler;
use crate::time::Time;

/// How long a node blocks in `recv` when it has nothing else to do.
/// Bounds control-channel latency (kills, [`UdpRuntime::with`] calls).
const IDLE_WAIT: Duration = Duration::from_millis(5);
/// Receive buffer size: comfortably above any framed chunk (chunks are
/// MTU-bounded on the logical wire; the frame carries the full encoded
/// message, which stays far below this for the supported protocols).
const RECV_BUF: usize = 64 * 1024;

/// Builds an app inside its node thread (apps hold `Rc` payloads and are
/// not `Send`; the factory is). `Fn`, not `FnOnce`: a restart rebuilds
/// the app from scratch with the same factory, so volatile state is
/// genuinely lost and only what the app recovers (e.g. from its WAL
/// directory) survives.
type AppFactory = Box<dyn Fn() -> Box<dyn NodeApp> + Send>;

/// A closure shipped into a node thread by [`UdpRuntime::with`].
type AppVisit = Box<dyn FnOnce(&mut dyn NodeApp) + Send>;

enum Ctl {
    /// Run a closure against the hosted app (state extraction).
    Run(AppVisit),
    /// Crash the node: `on_crash`, drop the app (volatile state is
    /// gone), keep the thread and socket alive in a down state.
    Crash,
    /// Rebuild the app from its factory under the same identity
    /// (address, socket, RNG stream). No-op if the node is up.
    Restart,
    /// Stop the thread without crashing the app.
    Stop,
}

/// Sender-side route table, logical node address → bound socket: every
/// thread shares one immutable copy.
type Routes = BTreeMap<Ipv4, SocketAddr>;

/// Host-layer knobs of the real UDP runtime — the `UdpHostCfg` half of
/// the layered cluster configuration (`ClusterSpec` + host config +
/// system config). The simulator's counterpart is `SimHostCfg`.
#[derive(Clone, Default)]
pub struct UdpHostCfg {
    /// Root directory for durable per-node state. The runtime does not
    /// interpret it; cluster adapters pass it into their app factories
    /// (e.g. a file WAL under `<wal_root>/node-<i>.wal`). `None` =
    /// memory-only nodes.
    pub wal_root: Option<PathBuf>,
    /// Seeded socket-level fault injection applied to every send (loss,
    /// duplication, delay, partitions). The plan's outages are the
    /// harness's to drive. `None` = clean loopback.
    pub nemesis: Option<FaultPlan>,
}

/// Host-layer configuration for a threaded UDP cluster;
/// [`UdpRuntime::spawn`] boots it against a list of [`NodeSpec`]s.
pub struct RuntimeCfg {
    /// Determinism seed; each node derives its RNG stream from it.
    pub seed: u64,
    /// Wire codec every node frames packets with.
    pub codec: Arc<dyn WireCodec>,
    /// Host-specific knobs (durable state root, socket nemesis).
    pub host: UdpHostCfg,
}

impl RuntimeCfg {
    /// A cluster using `codec` for the wire, deterministically seeded
    /// per node from `seed`, with a clean default host layer.
    pub fn new(seed: u64, codec: Arc<dyn WireCodec>) -> RuntimeCfg {
        RuntimeCfg {
            seed,
            codec,
            host: UdpHostCfg::default(),
        }
    }
}

/// One node of a threaded cluster: a logical address plus the factory
/// that builds (and on [`UdpRuntime::restart`], rebuilds) its app
/// inside the node thread.
pub struct NodeSpec {
    ip: Ipv4,
    factory: AppFactory,
}

impl NodeSpec {
    /// A node with logical address `ip` hosting the app `factory`
    /// builds.
    pub fn new(ip: Ipv4, factory: impl Fn() -> Box<dyn NodeApp> + Send + 'static) -> NodeSpec {
        NodeSpec {
            ip,
            factory: Box::new(factory),
        }
    }
}

/// Per-node RNG seeding: same construction as the simulator's per-host
/// stream split, keyed by address instead of host id.
fn node_seed(seed: u64, ip: Ipv4) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(ip.0) + 1)
}

struct NodeHandle {
    ctl: mpsc::Sender<Ctl>,
    join: Option<JoinHandle<()>>,
}

/// A running loopback cluster: one thread + socket per node.
pub struct UdpRuntime {
    nodes: BTreeMap<Ipv4, NodeHandle>,
    stats: Arc<FaultStats>,
}

impl UdpRuntime {
    /// Bind every socket, build the route table, and start one event
    /// loop thread per node. Apps receive `on_start` inside their
    /// threads before the first packet.
    ///
    /// # Panics
    /// If a loopback socket cannot be bound.
    pub fn spawn(cfg: RuntimeCfg, specs: Vec<NodeSpec>) -> UdpRuntime {
        let epoch = Instant::now();
        let nemesis = cfg.host.nemesis.map(|plan| Arc::new(Nemesis::new(plan)));
        let mut bound: Vec<(Ipv4, UdpSocket, AppFactory)> = Vec::new();
        let mut routes = Routes::new();
        for spec in specs {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback UDP socket");
            let addr = socket.local_addr().expect("bound socket has an address");
            routes.insert(spec.ip, addr);
            bound.push((spec.ip, socket, spec.factory));
        }
        let routes = Arc::new(routes);
        let stats = Arc::new(FaultStats::default());

        let mut nodes = BTreeMap::new();
        for (i, (ip, socket, factory)) in bound.into_iter().enumerate() {
            let (ctl_tx, ctl_rx) = mpsc::channel();
            let io = HostIo {
                ip,
                mac: Mac(0x1000 + i as u64),
                socket: NemesisUdp::new(socket, nemesis.clone(), Arc::clone(&stats)),
                routes: Arc::clone(&routes),
                codec: Arc::clone(&cfg.codec),
                epoch,
                rng: XorShiftRng::seed_from_u64(node_seed(cfg.seed, ip)),
                timers: Scheduler::new(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("node-{ip}"))
                .spawn(move || run_node(io, factory, &ctl_rx))
                .expect("spawn node thread");
            nodes.insert(
                ip,
                NodeHandle {
                    ctl: ctl_tx,
                    join: Some(handle),
                },
            );
        }
        UdpRuntime { nodes, stats }
    }

    /// The logical addresses of all nodes ever spawned.
    pub fn node_addrs(&self) -> Vec<Ipv4> {
        self.nodes.keys().copied().collect()
    }

    /// Run `f` against the app hosted at `ip`, inside its own thread,
    /// and return the result. This is how harnesses extract state
    /// (records, histories) from live nodes.
    ///
    /// # Panics
    /// If the node never existed, was killed, or is crashed.
    pub fn with<R: Send + 'static>(
        &self,
        ip: Ipv4,
        f: impl FnOnce(&mut dyn NodeApp) -> R + Send + 'static,
    ) -> R {
        self.try_with(ip, f)
            .expect("with: node is unknown, killed or down")
    }

    /// Like [`UdpRuntime::with`], but tolerant of crashed or killed
    /// nodes: returns `None` instead of panicking when the node cannot
    /// run the closure. Storm harnesses poll nodes with this while a
    /// nemesis is crashing them.
    pub fn try_with<R: Send + 'static>(
        &self,
        ip: Ipv4,
        f: impl FnOnce(&mut dyn NodeApp) -> R + Send + 'static,
    ) -> Option<R> {
        let node = self.nodes.get(&ip)?;
        let (tx, rx) = mpsc::channel();
        node.ctl
            .send(Ctl::Run(Box::new(move |app| {
                let _ = tx.send(f(app));
            })))
            .ok()?;
        rx.recv().ok()
    }

    /// Kill the node at `ip` for good: its app sees `on_crash`, its
    /// thread exits, and its socket closes (in-flight datagrams to it
    /// are lost — real packet loss, not simulated). Unlike
    /// [`UdpRuntime::crash`] there is no way back.
    pub fn kill(&mut self, ip: Ipv4) {
        if let Some(node) = self.nodes.get_mut(&ip) {
            let _ = node.ctl.send(Ctl::Crash);
            let _ = node.ctl.send(Ctl::Stop);
            if let Some(handle) = node.join.take() {
                let _ = handle.join();
            }
        }
    }

    /// Crash the node at `ip` without losing its identity: the app sees
    /// `on_crash` and is dropped (all volatile state is gone), pending
    /// timers are cleared, but the thread and socket stay alive in a
    /// down state — arriving datagrams are drained and discarded, and
    /// anything durable the app kept on disk (its WAL directory)
    /// survives for [`UdpRuntime::restart`].
    pub fn crash(&self, ip: Ipv4) {
        if let Some(node) = self.nodes.get(&ip) {
            let _ = node.ctl.send(Ctl::Crash);
        }
    }

    /// Restart a crashed node under the same identity: the factory
    /// rebuilds the app inside the node thread, which then sees
    /// `on_start` followed by `on_restart`. No-op if the node is up or
    /// was [`UdpRuntime::kill`]ed.
    pub fn restart(&self, ip: Ipv4) {
        if let Some(node) = self.nodes.get(&ip) {
            let _ = node.ctl.send(Ctl::Restart);
        }
    }

    /// The shared nemesis counters (all zero when no fault plan was
    /// installed).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Stop every remaining node thread and join them.
    pub fn shutdown(&mut self) {
        for node in self.nodes.values() {
            let _ = node.ctl.send(Ctl::Stop);
        }
        for node in self.nodes.values_mut() {
            if let Some(handle) = node.join.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for UdpRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-thread [`NodeIo`] host: wall-clock time, a real socket, and a
/// deadline heap for timers.
struct HostIo {
    ip: Ipv4,
    mac: Mac,
    socket: NemesisUdp,
    routes: Arc<Routes>,
    codec: Arc<dyn WireCodec>,
    epoch: Instant,
    rng: XorShiftRng,
    /// Armed timer tokens by deadline; same-deadline timers fire in arm
    /// order.
    timers: Scheduler<u64>,
}

impl HostIo {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Pop every timer whose deadline has passed.
    fn due_timers(&mut self) -> Vec<u64> {
        let now = Time(self.now_ns());
        std::iter::from_fn(|| self.timers.pop_due(now))
            .map(|(_, token)| token)
            .collect()
    }

    /// How long the socket may block before the next timer or delayed
    /// (nemesis-held) frame is due.
    fn wait_budget(&self) -> Duration {
        let timer = self.timers.next_deadline().map(Time::as_ns);
        let deadline = match (timer, self.socket.next_due()) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        };
        match deadline {
            Some(deadline) => {
                let now = self.now_ns();
                let ns = deadline.saturating_sub(now).clamp(1_000, 5_000_000);
                Duration::from_nanos(ns)
            }
            None => IDLE_WAIT,
        }
    }
}

impl NodeIo for HostIo {
    fn now(&self) -> Time {
        Time(self.now_ns())
    }

    fn ip(&self) -> Ipv4 {
        self.ip
    }

    fn mac(&self) -> Mac {
        self.mac
    }

    fn send(&mut self, pkt: Packet) {
        let Some(frame) = encode_frame(&pkt, self.codec.as_ref()) else {
            return; // payload type not wire-encodable: drop, like a NIC with no route
        };
        let now = Time(self.now_ns());
        // Unroutable destinations drop silently: real UDP.
        if let Some(&addr) = self.routes.get(&pkt.dst) {
            self.socket.send_to(&frame, addr, self.ip, pkt.dst, now);
        }
    }

    fn set_timer(&mut self, delay: Time, token: u64) {
        let deadline = self.now_ns().saturating_add(delay.as_ns());
        self.timers.push(Time(deadline), token);
    }

    fn cpu_work(&mut self, _amount: Time) {
        // Real CPUs charge themselves.
    }

    fn cpu_defer(&mut self, amount: Time, token: u64) {
        // Deferred completions become plain timers: the real CPU does the
        // work when the callback runs; the deadline models the queueing.
        self.set_timer(amount, token);
    }

    fn rng(&mut self) -> &mut XorShiftRng {
        &mut self.rng
    }
}

/// One node's event loop: control messages, due timers, then a bounded
/// blocking receive.
///
/// `app` is `None` while the node is crashed-but-restartable: the
/// thread keeps draining its socket (arriving datagrams are real loss)
/// and waits for `Ctl::Restart` to rebuild the app from `factory`.
fn run_node(mut io: HostIo, factory: AppFactory, ctl: &mpsc::Receiver<Ctl>) {
    let mut buf = vec![0u8; RECV_BUF];
    let mut app: Option<Box<dyn NodeApp>> = Some(factory());
    if let Some(a) = app.as_mut() {
        a.on_start(&mut io);
    }
    loop {
        loop {
            match ctl.try_recv() {
                Ok(Ctl::Run(f)) => {
                    if let Some(a) = app.as_mut() {
                        f(a.as_mut());
                    }
                    // Down: drop the visit; the caller's reply channel
                    // closes and `with` reports the node as dead.
                }
                Ok(Ctl::Crash) => {
                    if let Some(mut a) = app.take() {
                        a.on_crash();
                    }
                    // Volatile state dies with the app; timers are
                    // armed state, so they die too. The socket stays
                    // bound: identity survives for a restart.
                    io.timers.clear();
                }
                Ok(Ctl::Restart) => {
                    if app.is_none() {
                        let mut a = factory();
                        a.on_start(&mut io);
                        a.on_restart(&mut io);
                        app = Some(a);
                    }
                }
                Ok(Ctl::Stop) => return,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => return,
            }
        }
        for token in io.due_timers() {
            if let Some(a) = app.as_mut() {
                a.on_timer(token, &mut io);
            }
        }
        io.socket.flush_due(Time(io.now_ns()));
        let budget = io.wait_budget();
        let _ = io.socket.set_read_timeout(Some(budget));
        match io.socket.recv_from(&mut buf) {
            Ok((n, _peer)) => {
                let frame = buf.get(..n).unwrap_or_default();
                if let Some(pkt) = decode_frame(frame, io.codec.as_ref()) {
                    if let Some(a) = app.as_mut() {
                        a.on_packet(pkt, &mut io);
                    }
                    // Down: the datagram was consumed and discarded —
                    // exactly what a dead host does to the wire.
                }
            }
            Err(_) => {
                // Timeout or transient error: fall through to the next
                // control/timer sweep.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::rc::Rc;
    use std::sync::Arc;

    use super::*;
    use crate::net::Payload;

    /// Payloads are plain u64s; the codec is the identity framing.
    struct U64Codec;
    impl WireCodec for U64Codec {
        fn encode(&self, payload: &dyn Any) -> Option<Vec<u8>> {
            payload
                .downcast_ref::<u64>()
                .map(|v| v.to_be_bytes().into())
        }
        fn decode(&self, bytes: &[u8]) -> Option<Payload> {
            let arr: [u8; 8] = bytes.try_into().ok()?;
            Some(Rc::new(u64::from_be_bytes(arr)))
        }
    }

    /// Echoes every payload back to the sender, +1.
    struct Echo;
    impl NodeApp for Echo {
        fn on_packet(&mut self, pkt: Packet, io: &mut dyn NodeIo) {
            let Some(&v) = pkt.payload_as::<u64>() else {
                return;
            };
            let me = io.ip();
            let mac = io.mac();
            io.send(Packet::udp(
                me,
                mac,
                pkt.src,
                pkt.dst_port,
                pkt.src_port,
                8,
                Rc::new(v + 1),
            ));
        }
    }

    /// Sends `0` to the echo node on start, collects replies.
    struct Pinger {
        peer: Ipv4,
        got: Vec<u64>,
    }
    impl NodeApp for Pinger {
        fn on_start(&mut self, io: &mut dyn NodeIo) {
            let me = io.ip();
            let mac = io.mac();
            io.send(Packet::udp(me, mac, self.peer, 1, 1, 8, Rc::new(0u64)));
        }
        fn on_packet(&mut self, pkt: Packet, _io: &mut dyn NodeIo) {
            if let Some(&v) = pkt.payload_as::<u64>() {
                self.got.push(v);
            }
        }
    }

    /// Counts timer firings.
    struct Ticker {
        fired: Vec<u64>,
    }
    impl NodeApp for Ticker {
        fn on_start(&mut self, io: &mut dyn NodeIo) {
            io.set_timer(Time::from_ms(1), 7);
            io.cpu_defer(Time::from_ms(2), 9);
        }
        fn on_timer(&mut self, token: u64, _io: &mut dyn NodeIo) {
            self.fired.push(token);
        }
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(5), "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn packets_flow_between_node_threads() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        let rt = UdpRuntime::spawn(
            RuntimeCfg::new(1, Arc::new(U64Codec)),
            vec![
                NodeSpec::new(a, || Box::new(Echo)),
                NodeSpec::new(b, move || {
                    Box::new(Pinger {
                        peer: a,
                        got: vec![],
                    })
                }),
            ],
        );
        wait_until(|| {
            rt.with(b, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Pinger>()
                    .is_some_and(|p| !p.got.is_empty())
            })
        });
        let got = rt.with(b, |app| {
            let any: &mut dyn Any = app;
            any.downcast_mut::<Pinger>().map(|p| p.got.clone())
        });
        assert_eq!(got, Some(vec![1]), "echo added one");
    }

    #[test]
    fn timers_and_deferred_work_fire_in_order() {
        let a = Ipv4::new(10, 0, 0, 1);
        let rt = UdpRuntime::spawn(
            RuntimeCfg::new(3, Arc::new(U64Codec)),
            vec![NodeSpec::new(a, || Box::new(Ticker { fired: vec![] }))],
        );
        wait_until(|| {
            rt.with(a, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Ticker>()
                    .is_some_and(|t| t.fired.len() == 2)
            })
        });
        let fired = rt.with(a, |app| {
            let any: &mut dyn Any = app;
            any.downcast_mut::<Ticker>().map(|t| t.fired.clone())
        });
        assert_eq!(fired, Some(vec![7, 9]), "earlier deadline first");
    }

    #[test]
    fn crash_then_restart_rebuilds_the_app_under_the_same_identity() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        /// Records its lifecycle; pings on demand via a timer.
        struct Reborn {
            restarted: bool,
            crashes_seen: Arc<std::sync::atomic::AtomicU64>,
        }
        impl NodeApp for Reborn {
            fn on_crash(&mut self) {
                self.crashes_seen
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            fn on_restart(&mut self, _io: &mut dyn NodeIo) {
                self.restarted = true;
            }
        }
        let crashes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let crashes_in_app = Arc::clone(&crashes);
        let rt = UdpRuntime::spawn(
            RuntimeCfg::new(5, Arc::new(U64Codec)),
            vec![
                NodeSpec::new(a, move || {
                    Box::new(Reborn {
                        restarted: false,
                        crashes_seen: Arc::clone(&crashes_in_app),
                    })
                }),
                NodeSpec::new(b, || Box::new(Echo)),
            ],
        );
        assert_eq!(
            rt.try_with(a, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Reborn>().map(|r| r.restarted)
            }),
            Some(Some(false))
        );
        rt.crash(a);
        // Down: visits fail instead of reaching an app.
        wait_until(|| rt.try_with(a, |_app| ()).is_none());
        assert_eq!(crashes.load(std::sync::atomic::Ordering::SeqCst), 1);
        rt.restart(a);
        wait_until(|| rt.try_with(a, |_app| ()).is_some());
        // The factory rebuilt it (fresh state) and on_restart ran.
        assert_eq!(
            rt.with(a, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Reborn>().map(|r| r.restarted)
            }),
            Some(true)
        );
        // Identity survived: b can still reach a's socket (no route churn).
        // A second crash is also clean.
        rt.crash(a);
        wait_until(|| rt.try_with(a, |_app| ()).is_none());
        assert_eq!(crashes.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn nemesis_loss_drops_sends_and_counts_them() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        /// Fires N pings spaced by timers so each frame differs.
        struct Burst {
            peer: Ipv4,
            left: u64,
        }
        impl NodeApp for Burst {
            fn on_start(&mut self, io: &mut dyn NodeIo) {
                io.set_timer(Time::from_us(100), 1);
            }
            fn on_timer(&mut self, _token: u64, io: &mut dyn NodeIo) {
                if self.left == 0 {
                    return;
                }
                self.left -= 1;
                let me = io.ip();
                let mac = io.mac();
                let seq = self.left;
                io.send(Packet::udp(me, mac, self.peer, 1, 1, 8, Rc::new(seq)));
                io.set_timer(Time::from_us(100), 1);
            }
        }
        let mut cfg = RuntimeCfg::new(6, Arc::new(U64Codec));
        cfg.host.nemesis = Some(FaultPlan::new(99).loss(0.3));
        let rt = UdpRuntime::spawn(
            cfg,
            vec![
                NodeSpec::new(a, || Box::new(Echo)),
                NodeSpec::new(b, move || Box::new(Burst { peer: a, left: 400 })),
            ],
        );
        wait_until(|| {
            rt.with(b, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Burst>().is_some_and(|p| p.left == 0)
            })
        });
        let s = rt.fault_stats();
        let dropped = s.dropped.load(std::sync::atomic::Ordering::Relaxed);
        let sent = s.sent.load(std::sync::atomic::Ordering::Relaxed);
        // 400 pings at 30% nominal loss (echo replies are judged too).
        assert!(dropped >= 50, "dropped={dropped}");
        assert!(sent >= 100, "sent={sent}");
    }

    #[test]
    fn killed_nodes_stop_answering() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        let mut rt = UdpRuntime::spawn(
            RuntimeCfg::new(4, Arc::new(U64Codec)),
            vec![
                NodeSpec::new(a, || Box::new(Echo)),
                NodeSpec::new(b, move || {
                    Box::new(Pinger {
                        peer: a,
                        got: vec![],
                    })
                }),
            ],
        );
        wait_until(|| {
            rt.with(b, |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<Pinger>()
                    .is_some_and(|p| !p.got.is_empty())
            })
        });
        rt.kill(a);
        // Another ping from b must go unanswered now.
        rt.with(b, |_app| ());
        std::thread::sleep(Duration::from_millis(20));
        let got = rt.with(b, |app| {
            let any: &mut dyn Any = app;
            any.downcast_mut::<Pinger>().map(|p| p.got.len())
        });
        assert_eq!(got, Some(1));
    }
}
