//! Assembles a NOOB deployment: storage nodes, optional gateways, and
//! clients behind a conventional (statically routed) switch — no SDN
//! cooperation anywhere.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable};
use nice_kv::{ClientOp, ClusterSpec, SimHostCfg};
use nice_ring::{NodeIdx, PhysicalRing};
use nice_sim::{HostCfg, HostId, Ipv4, Mac, Simulation, SwitchId, Time};

use kv_core::{KvClient, MetricsRegistry};

use crate::client::{ClientRoute, NoobClientApp};
use crate::gateway::{GatewayApp, GatewayPolicy};
use crate::msg::{Access, NoobMode};
use crate::server::{NoobRing, NoobServerApp};

/// NOOB deployment configuration, in the workspace's layered config
/// shape: the system-agnostic [`ClusterSpec`], the simulator's
/// [`SimHostCfg`], and NOOB's own access/consistency knobs.
///
/// `spec.retry = None` keeps NOOB's default fixed 2 s retry schedule
/// (like NICE's §6.6 clients); the chaos harness installs backoff +
/// jitter through the spec.
#[derive(Clone)]
pub struct NoobClusterCfg {
    /// System-agnostic deployment shape (nodes, replication, storage,
    /// retry/deadline behaviour, telemetry).
    pub spec: ClusterSpec,
    /// Simulator host layer (links, switch, fault plan, client start).
    pub host: SimHostCfg,
    /// Replication/consistency mode.
    pub mode: NoobMode,
    /// Access mechanism.
    pub access: Access,
    /// Balance gets over replicas (gateway- or client-side depending on
    /// the access mechanism). Only sound for 2PC/consistent modes.
    pub lb_gets: bool,
    /// Use the cold-start caching RAC client (§2.1) instead of the
    /// warm-cache direct client.
    pub caching_rac: bool,
    /// Number of gateway machines (ignored for RAC).
    pub gateways: usize,
    /// Per-client operation lists.
    pub client_ops: Vec<Vec<ClientOp>>,
}

impl NoobClusterCfg {
    /// A NOOB deployment with the given access mechanism and mode.
    pub fn new(
        storage_nodes: usize,
        r: usize,
        access: Access,
        mode: NoobMode,
        client_ops: Vec<Vec<ClientOp>>,
    ) -> NoobClusterCfg {
        NoobClusterCfg::from_spec(ClusterSpec::new(storage_nodes, r), access, mode, client_ops)
    }

    /// A NOOB deployment from an explicit [`ClusterSpec`].
    pub fn from_spec(
        spec: ClusterSpec,
        access: Access,
        mode: NoobMode,
        client_ops: Vec<Vec<ClientOp>>,
    ) -> NoobClusterCfg {
        NoobClusterCfg {
            spec,
            host: SimHostCfg::default(),
            mode,
            access,
            lb_gets: false,
            caching_rac: false,
            gateways: if access == Access::Rac { 0 } else { 1 },
            client_ops,
        }
    }

    /// Derive a NOOB deployment from a finished NICE
    /// [`nice_kv::ClusterCfg`]: spec, host layer, and clients carry over
    /// unchanged (including NICE's effective retry schedule), so an A/B
    /// experiment differs only in the access mechanism and consistency
    /// mode chosen here.
    pub fn from_nice(nice: &nice_kv::ClusterCfg, access: Access, mode: NoobMode) -> NoobClusterCfg {
        let mut spec = nice.spec;
        if spec.retry.is_none() {
            spec.retry = Some(nice.kv.retry_policy());
        }
        let mut cfg = NoobClusterCfg::from_spec(spec, access, mode, nice.client_ops.clone());
        cfg.host = nice.host.clone();
        cfg
    }
}

/// A wired NOOB deployment.
pub struct NoobCluster {
    /// The simulation world.
    pub sim: Simulation,
    /// Shared deployment knowledge.
    pub ring: NoobRing,
    /// Storage-node hosts.
    pub servers: Vec<HostId>,
    /// Gateway hosts.
    pub gateways: Vec<HostId>,
    /// Client hosts.
    pub clients: Vec<HostId>,
    /// The switch.
    pub switch: SwitchId,
}

impl NoobCluster {
    /// Build and wire the deployment.
    pub fn build(cfg: NoobClusterCfg) -> NoobCluster {
        let spec = cfg.spec;
        let parts = spec.partition_count();
        let phys = PhysicalRing::new(
            parts,
            (0..spec.nodes as u32).map(NodeIdx).collect(),
            spec.replication,
        );

        let mut sim = Simulation::new(spec.seed);
        let table = Rc::new(RefCell::new(FlowTable::new()));
        let switch = sim.add_switch(
            Box::new(FlowSwitch::new(Rc::clone(&table))),
            cfg.host.switch,
        );
        let mut rules: Vec<(Ipv4, Mac, nice_sim::Port)> = Vec::new();
        let mut ports: HashMap<Ipv4, nice_sim::Port> = HashMap::new();

        // Storage nodes.
        let server_ips: Vec<Ipv4> = (0..spec.nodes)
            .map(|i| Ipv4::new(10, 0, 0, 10 + i as u8))
            .collect();
        let ring = NoobRing {
            ring: phys,
            addrs: server_ips.clone(),
            port: 9000,
        };
        let mut servers = Vec::new();
        for (i, &ip) in server_ips.iter().enumerate() {
            let mac = Mac(0x200 + i as u64);
            let app = NoobServerApp::new(
                ring.clone(),
                NodeIdx(i as u32),
                cfg.mode,
                spec.storage,
                spec.telemetry,
            );
            let h = sim.add_node(Box::new(app), HostCfg::new(ip, mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            ports.insert(ip, port);
            rules.push((ip, mac, port));
            servers.push(h);
        }

        // Gateways.
        let policy = match (cfg.access, cfg.lb_gets) {
            (Access::Rog, _) => GatewayPolicy::RandomNode,
            (Access::Rag, false) => GatewayPolicy::Primary,
            (Access::Rag, true) => GatewayPolicy::BalancedReplicas,
            (Access::Rac, _) => GatewayPolicy::Primary, // unused
        };
        let mut gateways = Vec::new();
        let n_gw = if cfg.access == Access::Rac {
            0
        } else {
            cfg.gateways.max(1)
        };
        for g in 0..n_gw {
            let ip = Ipv4::new(10, 0, 2, 1 + g as u8);
            let mac = Mac(0x400 + g as u64);
            let app = GatewayApp::new(ring.clone(), policy);
            let h = sim.add_node(Box::new(app), HostCfg::new(ip, mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            ports.insert(ip, port);
            rules.push((ip, mac, port));
            gateways.push((h, ip));
        }

        // Clients.
        let mut clients = Vec::new();
        for (j, ops) in cfg.client_ops.iter().enumerate() {
            let ip = Ipv4(Ipv4::new(10, 0, 1, 0).0 + 1 + j as u32);
            let mac = Mac(0x300 + j as u64);
            let route = match (cfg.access, cfg.caching_rac) {
                (Access::Rac, true) => ClientRoute::CachingRac,
                (Access::Rac, false) => ClientRoute::Direct {
                    lb_gets: cfg.lb_gets,
                },
                _ => ClientRoute::Gateway(gateways[j % gateways.len()].1),
            };
            let start = cfg.host.client_start + Time::from_us(97) * j as u64;
            let mut app = NoobClientApp::new(ring.clone(), route, ops.clone(), start);
            app.configure(&spec);
            let h = sim.add_node(Box::new(app), HostCfg::new(ip, mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            ports.insert(ip, port);
            rules.push((ip, mac, port));
            clients.push(h);
        }

        // Conventional IP routing: static rules for every host.
        for (ip, mac, port) in rules {
            table.borrow_mut().install(
                FlowRule::new(
                    prio::PHYS,
                    FlowMatch::any().dst_ip(ip),
                    vec![Action::SetMacDst(mac), Action::Output(port)],
                ),
                Time::ZERO,
            );
        }

        // Fault injection: one plan at the delivery choke point; outage
        // indices map onto the storage-node slice.
        if let Some(plan) = cfg.host.fault_plan {
            sim.install_fault_plan(plan, &servers);
        }

        NoobCluster {
            sim,
            ring,
            servers,
            gateways: gateways.into_iter().map(|(h, _)| h).collect(),
            clients,
            switch,
        }
    }

    /// Borrow client `i`'s app.
    pub fn client(&self, i: usize) -> &NoobClientApp {
        self.sim.app::<NoobClientApp>(self.clients[i])
    }

    /// Borrow server `i`'s app.
    pub fn server(&self, i: usize) -> &NoobServerApp {
        self.sim.app::<NoobServerApp>(self.servers[i])
    }

    /// Run until every client drained its queue (or `deadline`).
    pub fn run_until_done(&mut self, deadline: Time) -> bool {
        loop {
            let all_done = self
                .clients
                .iter()
                .all(|&c| self.sim.app::<NoobClientApp>(c).done_at.is_some());
            if all_done {
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
        self.clients
            .iter()
            .map(|&c| self.sim.app::<NoobClientApp>(c).done_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(Time::ZERO))
    }

    /// Cluster-wide telemetry snapshot: every server's registry (engine
    /// counters, WAL/store totals, transport repair stats, phase
    /// histograms) merged with every client's (end-to-end latency,
    /// retries). Deterministic under a fixed seed.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for i in 0..self.servers.len() {
            m.merge(&self.server(i).metrics());
        }
        for (i, _) in self.clients.iter().enumerate() {
            m.merge(&self.client(i).metrics());
        }
        m
    }
}
