//! The simulated §6 testbed: one OpenFlow switch with every host on its
//! own link, built once for both systems. [`SimCluster`] owns the star
//! (switch, flow table, per-host attach and PHYS route) and the run
//! surface; a [`Deployment`] supplies only what differs — NICE's
//! metadata service ([`NiceSys`]) or NOOB's gateways.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, L3Learner};
use nice_ring::{NodeIdx, PartitionId, PhysicalRing};
use nice_sim::{
    App, ChannelCfg, FaultPlan, HostCfg, HostId, Ipv4, Mac, NodeApp, Port, Simulation, SwitchId,
    Time,
};

use crate::client::{ClientApp, ClientOp};
use crate::config::{KvConfig, CLIENT_SPACE};
use crate::metadata::{MetadataApp, SwitchHandle};
use crate::server::ServerApp;
use kv_core::{ClusterSpec, KvClient, MetricsRegistry, ObjectStore};

/// Simulator host-layer configuration — the `SimHostCfg` half of the
/// layered cluster config ([`ClusterSpec`] + host config + system
/// config): when clients start and what faults the run injects. Shared
/// by the NICE and NOOB simulated deployments; the real UDP runtime's
/// counterpart is `node_rt::UdpHostCfg`. The testbed itself is fixed:
/// every host on a [`ChannelCfg::gigabit`] link to one switch.
#[derive(Clone)]
pub struct SimHostCfg {
    /// When clients start issuing operations (rules must be in place).
    pub client_start: Time,
    /// Deterministic fault plan, applied at the simulator's packet
    /// delivery choke point. Outage indices address storage nodes.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SimHostCfg {
    fn default() -> SimHostCfg {
        SimHostCfg {
            client_start: Time::from_ms(50),
            fault_plan: None,
        }
    }
}

/// How many storage servers the address plan holds: [`server_ip`] hands
/// out 10.0.0.10 upward and stays inside 10.0.0.0/24.
pub const MAX_SERVERS: usize = 246;

/// Address of storage server `i`: 10.0.0.10 + `i`, in every deployment
/// (both simulated systems and the real NOOB runtime).
///
/// # Panics
/// If `i` is past [`MAX_SERVERS`] — the builders' check that a deployment
/// fits the plan.
pub fn server_ip(i: usize) -> Ipv4 {
    assert!(
        i < MAX_SERVERS,
        "storage server {i} is past the address plan: at most {MAX_SERVERS} storage servers \
         fit in 10.0.0.10..=10.0.0.255"
    );
    Ipv4(Ipv4::new(10, 0, 0, 10).0 + i as u32)
}

/// Everything needed to build a NICE cluster, in the workspace's layered
/// config shape: the system-agnostic [`ClusterSpec`], the simulator's
/// [`SimHostCfg`], and NICE's own [`KvConfig`]. An A/B experiment against
/// NOOB hands the *same* finished `ClusterCfg` to
/// `NoobClusterCfg::from_nice`, so the two systems differ only in the
/// access mechanism and consistency mode.
#[derive(Clone)]
pub struct ClusterCfg {
    /// System-agnostic deployment shape (nodes, replication, storage,
    /// retry/deadline behaviour, telemetry).
    pub spec: ClusterSpec,
    /// Simulator host layer (client start, fault plan).
    pub host: SimHostCfg,
    /// Deploy a hot-standby metadata replica (§4.1): it shadows the
    /// active service's state and takes over if it fails.
    pub metadata_standby: bool,
    /// KV-level knobs (put mode, load balancing, timeouts); ring fields
    /// are overwritten at build time from `spec`.
    pub kv: KvConfig,
    /// The operation list of each client (one entry per client host).
    pub client_ops: Vec<Vec<ClientOp>>,
}

impl ClusterCfg {
    /// The paper's deployment shape: `storage_nodes` servers, replication
    /// `r`, and the given per-client op lists.
    pub fn new(storage_nodes: usize, r: usize, client_ops: Vec<Vec<ClientOp>>) -> ClusterCfg {
        ClusterCfg::from_spec(ClusterSpec::new(storage_nodes, r), client_ops)
    }

    /// A cluster from an explicit [`ClusterSpec`] (the entry point for
    /// A/B experiments that feed the same spec to both systems).
    pub fn from_spec(spec: ClusterSpec, client_ops: Vec<Vec<ClientOp>>) -> ClusterCfg {
        ClusterCfg {
            kv: KvConfig::new(spec.partition_count(), spec.replication),
            spec,
            host: SimHostCfg::default(),
            metadata_standby: false,
            client_ops,
        }
    }
}

/// What one system adds to the shared testbed: its config, its client
/// and server apps, and the build steps that attach them. The value is
/// the deployment's own parts, kept as [`SimCluster::sys`].
pub trait Deployment: Sized {
    /// The system's layered config.
    type Cfg;
    /// The client app on every client host.
    type Client: KvClient + Any;
    /// The app on every storage-server host.
    type Server: Any;
    /// The shared layers of `cfg`: deployment shape and simulator hosts.
    fn layers(cfg: &Self::Cfg) -> (&ClusterSpec, &SimHostCfg);
    /// Attach the system's hosts to `star` — storage servers through
    /// [`Star::add_server`], clients through [`Star::add_client`] — and
    /// return its parts.
    fn attach(cfg: Self::Cfg, star: &mut Star) -> Self;
    /// A server's telemetry registry.
    fn server_metrics(server: &Self::Server) -> MetricsRegistry;
    /// A server's object store.
    fn server_store(server: &Self::Server) -> &ObjectStore;
}

/// The testbed while a [`Deployment`] attaches its hosts: one switch, and
/// every host on its own asymmetric link with a static PHYS route to it
/// (the operator knows the wiring, so unicast physical rules are
/// installed up front; the reactive learning path of §5 still exists for
/// anything unknown).
pub struct Star {
    sim: Simulation,
    switch: SwitchId,
    table: Rc<RefCell<FlowTable>>,
    host: SimHostCfg,
    /// Every attached host's switch port.
    ports: BTreeMap<Ipv4, Port>,
    servers: Vec<HostId>,
    server_ips: Vec<Ipv4>,
    clients: Vec<HostId>,
    client_ips: Vec<Ipv4>,
}

impl Star {
    fn new(seed: u64, host: SimHostCfg) -> Star {
        let mut sim = Simulation::new(seed);
        let table = Rc::new(RefCell::new(FlowTable::new()));
        let switch = sim.add_switch(Box::new(FlowSwitch::new(Rc::clone(&table))));
        Star {
            sim,
            switch,
            table,
            host,
            ports: BTreeMap::new(),
            servers: Vec::new(),
            server_ips: Vec::new(),
            clients: Vec::new(),
            client_ips: Vec::new(),
        }
    }

    /// Attach a simulator-level app at `ip`/`mac` (the metadata service,
    /// which programs the switch).
    fn add_host(&mut self, app: Box<dyn App>, ip: Ipv4, mac: Mac) -> HostId {
        let h = self.sim.add_host(app, HostCfg::new(ip, mac));
        self.wire(h, ip, mac)
    }

    /// Attach a node-runtime app at `ip`/`mac` (a gateway; servers and
    /// clients go through their own methods).
    pub fn add_node(&mut self, app: Box<dyn NodeApp>, ip: Ipv4, mac: Mac) -> HostId {
        let h = self.sim.add_node(app, HostCfg::new(ip, mac));
        self.wire(h, ip, mac)
    }

    /// Link `h` to the switch and route `ip` to it.
    fn wire(&mut self, h: HostId, ip: Ipv4, mac: Mac) -> HostId {
        let link = ChannelCfg::gigabit();
        let port = self
            .sim
            .connect_asym(h, self.switch, link.host_uplink(), link);
        self.table.borrow_mut().install(
            FlowRule::new(
                prio::PHYS,
                FlowMatch::any().dst_ip(ip),
                vec![Action::SetMacDst(mac), Action::Output(port)],
            ),
            Time::ZERO,
        );
        self.ports.insert(ip, port);
        h
    }

    /// Attach the next storage server: index `i` sits at [`server_ip`]`(i)`
    /// with MAC `0x200 + i`.
    pub fn add_server(&mut self, app: Box<dyn NodeApp>) {
        let i = self.servers.len();
        let ip = server_ip(i);
        let h = self.add_node(app, ip, Mac(0x200 + i as u64));
        self.servers.push(h);
        self.server_ips.push(ip);
    }

    /// Attach the next client at `ip`, with MAC `0x300 + j`.
    pub fn add_client(&mut self, app: Box<dyn NodeApp>, ip: Ipv4) {
        let j = self.clients.len();
        let h = self.add_node(app, ip, Mac(0x300 + j as u64));
        self.clients.push(h);
        self.client_ips.push(ip);
    }

    /// When client `j` starts issuing: 97 µs after client `j - 1`.
    pub fn client_start(&self, j: usize) -> Time {
        self.host.client_start + Time::from_us(97) * j as u64
    }
}

/// A fully-wired simulated deployment of system `D` on the shared star:
/// [`NiceCluster`] and `nice_noob::NoobCluster` are this type.
pub struct SimCluster<D> {
    /// The simulation world.
    pub sim: Simulation,
    /// Storage-node hosts (index = `NodeIdx`).
    pub servers: Vec<HostId>,
    /// Storage-node addresses.
    pub server_ips: Vec<Ipv4>,
    /// Client hosts.
    pub clients: Vec<HostId>,
    /// Client addresses.
    pub client_ips: Vec<Ipv4>,
    /// The system's own parts.
    pub sys: D,
}

/// A fully-wired NICE deployment.
pub type NiceCluster = SimCluster<NiceSys>;

impl<D: Deployment> SimCluster<D> {
    /// Build and wire a deployment.
    pub fn build(cfg: D::Cfg) -> SimCluster<D> {
        let (spec, host) = D::layers(&cfg);
        let mut star = Star::new(spec.seed, host.clone());
        let sys = D::attach(cfg, &mut star);
        // Fault injection: one plan at the delivery choke point; outage
        // indices map onto the storage-node slice.
        if let Some(plan) = star.host.fault_plan.take() {
            star.sim.install_fault_plan(plan, &star.servers);
        }
        SimCluster {
            sim: star.sim,
            servers: star.servers,
            server_ips: star.server_ips,
            clients: star.clients,
            client_ips: star.client_ips,
            sys,
        }
    }

    /// Borrow client `i`'s app.
    pub fn client(&self, i: usize) -> &D::Client {
        self.sim.app::<D::Client>(self.clients[i])
    }

    /// Borrow server `i`'s app.
    pub fn server(&self, i: usize) -> &D::Server {
        self.sim.app::<D::Server>(self.servers[i])
    }

    /// Run until every client drained its op queue (or `deadline`).
    /// Returns true if all clients finished.
    pub fn run_until_done(&mut self, deadline: Time) -> bool {
        loop {
            if (0..self.clients.len()).all(|i| self.client(i).is_done()) {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let step = Time::from_ms(10).min(deadline - self.sim.now());
            self.sim.run_for(step);
        }
    }

    /// When the last client finished.
    pub fn finish_time(&self) -> Option<Time> {
        (0..self.clients.len())
            .map(|i| self.client(i).core().done_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(Time::ZERO))
    }

    /// Cluster-wide telemetry snapshot: every server's registry (engine
    /// counters, WAL/store totals, transport repair stats, phase
    /// histograms) merged with every client's (end-to-end latency,
    /// retries). Deterministic under a fixed seed — the simulator clock
    /// feeds every instrumentation point.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for i in 0..self.servers.len() {
            m.merge(&D::server_metrics(self.server(i)));
        }
        for i in 0..self.clients.len() {
            m.merge(&self.client(i).metrics());
        }
        m
    }
}

/// NICE's parts of a [`NiceCluster`]: the metadata service (SDN
/// controller) and what it was built from.
pub struct NiceSys {
    /// Resolved system configuration.
    pub cfg: KvConfig,
    /// The static placement.
    pub ring: PhysicalRing,
    /// The metadata-service host.
    pub meta: HostId,
    /// The hot-standby metadata host, if deployed.
    pub meta_standby: Option<HostId>,
}

impl Deployment for NiceSys {
    type Cfg = ClusterCfg;
    type Client = ClientApp;
    type Server = ServerApp;

    fn layers(cfg: &ClusterCfg) -> (&ClusterSpec, &SimHostCfg) {
        (&cfg.spec, &cfg.host)
    }

    fn attach(cfg: ClusterCfg, star: &mut Star) -> NiceSys {
        let spec = cfg.spec;
        let parts = spec.partition_count();
        let mut kv = cfg.kv;
        kv.partitions = parts;
        kv.replication = spec.replication;
        kv.unicast = nice_ring::VRing::unicast(parts);
        kv.multicast = nice_ring::VRing::multicast(parts);

        let meta_ip = Ipv4::new(10, 0, 0, 1);
        let meta_mac = Mac(0x100);

        // Storage nodes (including spares, which start outside the ring).
        for i in 0..spec.nodes + spec.spares {
            let app = ServerApp::new(kv, NodeIdx(i as u32), meta_ip, spec.storage);
            star.add_server(Box::new(app));
        }

        // Clients: addresses inside CLIENT_SPACE, spread so that
        // consecutive clients land in *different* LB divisions (§4.5) —
        // client j sits in division j mod D.
        let divisions = (spec.replication as u32).next_power_of_two().min(16);
        let space_size = 1u32 << (32 - CLIENT_SPACE.1);
        let stride = space_size / divisions;
        for (j, ops) in cfg.client_ops.into_iter().enumerate() {
            let j32 = j as u32;
            let ip = Ipv4(CLIENT_SPACE.0 .0 + (j32 % divisions) * stride + (j32 / divisions) + 1);
            let mut app = ClientApp::new(kv, ops, star.client_start(j));
            app.configure(&spec);
            star.add_client(Box::new(app), ip);
        }

        // The metadata service + controller, which knows the port of
        // every storage node and client.
        let ring = PhysicalRing::new(
            parts,
            (0..spec.nodes as u32).map(NodeIdx).collect(),
            spec.replication,
        );
        let node_addrs: Vec<(Ipv4, Mac)> = star
            .server_ips
            .iter()
            .enumerate()
            .map(|(i, &ip)| (ip, Mac(0x200 + i as u64)))
            .collect();
        let handle = SwitchHandle {
            id: star.switch,
            table: Rc::clone(&star.table),
            ports: star.ports.clone(),
        };
        let meta_app = || {
            let switches = vec![handle.clone()];
            MetadataApp::new(
                kv,
                ring.clone(),
                node_addrs.clone(),
                switches,
                L3Learner::new(),
            )
        };
        let standby_ip = Ipv4::new(10, 0, 0, 2);
        let mut active = meta_app();
        if cfg.metadata_standby {
            active = active.with_standby(standby_ip);
        }
        let meta = star.add_host(Box::new(active), meta_ip, meta_mac);
        star.sim.set_controller(star.switch, meta);
        let meta_standby = cfg.metadata_standby.then(|| {
            let app = meta_app().into_standby(meta_ip);
            star.add_host(Box::new(app), standby_ip, Mac(0x101))
        });

        NiceSys {
            cfg: kv,
            ring,
            meta,
            meta_standby,
        }
    }

    fn server_metrics(server: &ServerApp) -> MetricsRegistry {
        server.metrics()
    }

    fn server_store(server: &ServerApp) -> &ObjectStore {
        server.store()
    }
}

impl NiceCluster {
    /// Borrow the metadata app.
    pub fn meta_app(&self) -> &MetadataApp {
        self.sim.app::<MetadataApp>(self.sys.meta)
    }

    /// The partition a key hashes into (static: independent of membership).
    pub fn partition_of_key(&self, key: &str) -> PartitionId {
        self.sys.cfg.partition_of(key)
    }

    /// Queue an administrator ring-reconfiguration command (§4.4); it is
    /// applied at the metadata service's next heartbeat tick.
    pub fn admin(&mut self, op: crate::metadata::AdminOp) {
        self.sim
            .app_mut::<MetadataApp>(self.sys.meta)
            .queue_admin(op);
    }

    /// Generate `count` distinct keys that all hash into partition `p` —
    /// how experiments pin "all objects in the same partition" (§6.6).
    pub fn keys_in_partition(&self, p: PartitionId, count: usize) -> Vec<String> {
        let mut keys = Vec::with_capacity(count);
        let mut i = 0u64;
        while keys.len() < count {
            let k = format!("pinned-{i}");
            if self.sys.cfg.partition_of(&k) == p {
                keys.push(k);
            }
            i += 1;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_in_partition_pins_correctly() {
        let c = NiceCluster::build(ClusterCfg::new(4, 3, vec![]));
        let keys = c.keys_in_partition(PartitionId(5), 10);
        assert_eq!(keys.len(), 10);
        let bits = c.sys.cfg.partitions.trailing_zeros();
        for k in &keys {
            assert_eq!((nice_ring::hash_str(k) >> (64 - bits)) as u32, 5);
        }
    }

    #[test]
    fn layered_cfg_matches_spec_and_installs_faults() {
        let mut cfg = ClusterCfg::new(6, 3, vec![vec![]]);
        cfg.spec.seed = 7;
        cfg.host.fault_plan = Some(FaultPlan::new(7).loss(0.5));
        let c = NiceCluster::build(cfg);
        assert_eq!(c.servers.len(), 6);
        assert_eq!(c.clients.len(), 1);
        assert!(
            c.sim.fault_stats().is_some(),
            "fault plan reached the simulator"
        );
    }

    #[test]
    fn builder_wires_everything() {
        let c = NiceCluster::build(ClusterCfg::new(5, 3, vec![vec![], vec![]]));
        assert_eq!(c.servers.len(), 5);
        assert_eq!(c.clients.len(), 2);
        assert_eq!(c.sys.cfg.partitions, 16);
        assert_eq!(c.sys.ring.replication(), 3);
        // client IPs sit inside the LB client space
        for ip in &c.client_ips {
            assert!(ip.in_prefix(CLIENT_SPACE.0, CLIENT_SPACE.1));
        }
    }

    #[test]
    #[should_panic(expected = "at most 246 storage servers")]
    fn a_deployment_past_the_address_plan_is_rejected() {
        NiceCluster::build(ClusterCfg::new(MAX_SERVERS + 1, 3, vec![]));
    }
}
