//! Assembles a complete NICE deployment inside one simulation: an
//! OpenFlow switch, the metadata service (SDN controller), storage nodes,
//! and clients — the §6 testbed in a box.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowSwitch, FlowTable, L3Learner};
use nice_ring::{NodeIdx, PartitionId, PhysicalRing};
use nice_sim::{
    ChannelCfg, FaultPlan, HostCfg, HostId, Ipv4, Mac, Simulation, SwitchCfg, SwitchId, Time,
};

use crate::client::{ClientApp, ClientOp};
use crate::config::KvConfig;
use crate::metadata::{MetadataApp, SwitchHandle};
use crate::server::ServerApp;
use kv_core::{ClusterSpec, KvClient, MetricsRegistry};

/// Simulator host-layer configuration — the `SimHostCfg` half of the
/// layered cluster config ([`ClusterSpec`] + host config + system
/// config). Shared by the NICE and NOOB simulated deployments; the real
/// UDP runtime's counterpart is `node_rt::UdpHostCfg`.
#[derive(Clone)]
pub struct SimHostCfg {
    /// Link configuration (rate applies to every host).
    pub link: ChannelCfg,
    /// Switch parameters.
    pub switch: SwitchCfg,
    /// When clients start issuing operations (rules must be in place).
    pub client_start: Time,
    /// Deterministic fault plan, applied at the simulator's packet
    /// delivery choke point. Outage indices address storage nodes.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SimHostCfg {
    fn default() -> SimHostCfg {
        SimHostCfg {
            link: ChannelCfg::gigabit(),
            switch: SwitchCfg::default(),
            client_start: Time::from_ms(50),
            fault_plan: None,
        }
    }
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
    /// Simulator host layer (links, switch, fault plan, client start).
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

/// A fully-wired NICE deployment.
pub struct NiceCluster {
    /// The simulation world.
    pub sim: Simulation,
    /// Resolved system configuration.
    pub cfg: KvConfig,
    /// The static placement.
    pub ring: PhysicalRing,
    /// The metadata-service host.
    pub meta: HostId,
    /// The hot-standby metadata host, if deployed.
    pub meta_standby: Option<HostId>,
    /// Storage-node hosts (index = `NodeIdx`).
    pub servers: Vec<HostId>,
    /// Storage-node addresses.
    pub server_ips: Vec<Ipv4>,
    /// Client hosts.
    pub clients: Vec<HostId>,
    /// Client addresses.
    pub client_ips: Vec<Ipv4>,
    /// The switch.
    pub switch: SwitchId,
    /// Its flow table (inspection).
    pub table: Rc<RefCell<FlowTable>>,
}

impl NiceCluster {
    /// Build and wire a cluster.
    pub fn build(cfg: ClusterCfg) -> NiceCluster {
        let spec = cfg.spec;
        let parts = spec.partition_count();
        let mut kv = cfg.kv;
        kv.partitions = parts;
        kv.replication = spec.replication;
        kv.unicast = nice_ring::VRing::unicast(parts);
        kv.multicast = nice_ring::VRing::multicast(parts);
        kv.telemetry = spec.telemetry;

        let mut sim = Simulation::new(spec.seed);
        let table = Rc::new(RefCell::new(FlowTable::new()));
        let switch = sim.add_switch(
            Box::new(FlowSwitch::new(Rc::clone(&table))),
            cfg.host.switch,
        );

        let meta_ip = Ipv4::new(10, 0, 0, 1);
        let meta_mac = Mac(0x100);
        let mut ports: BTreeMap<Ipv4, nice_sim::Port> = BTreeMap::new();

        // Storage nodes (including spares, which start outside the ring).
        let total_nodes = spec.nodes + spec.spares;
        let mut servers = Vec::new();
        let mut server_ips = Vec::new();
        for i in 0..total_nodes {
            let ip = Ipv4::new(10, 0, 0, 10 + i as u8);
            let mac = Mac(0x200 + i as u64);
            let app = ServerApp::new(kv, NodeIdx(i as u32), meta_ip, spec.storage);
            let h = sim.add_node(Box::new(app), HostCfg::new(ip, mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            ports.insert(ip, port);
            servers.push(h);
            server_ips.push(ip);
        }

        // Clients: addresses inside kv.client_space, spread so that
        // consecutive clients land in *different* LB divisions (§4.5) —
        // client j sits in division j mod D.
        let divisions = (spec.replication as u32).next_power_of_two().min(16);
        let space_size = 1u32 << (32 - kv.client_space.1);
        let stride = space_size / divisions;
        let mut clients = Vec::new();
        let mut client_ips = Vec::new();
        for (j, ops) in cfg.client_ops.iter().enumerate() {
            let j32 = j as u32;
            let ip =
                Ipv4(kv.client_space.0 .0 + (j32 % divisions) * stride + (j32 / divisions) + 1);
            let mac = Mac(0x300 + j as u64);
            let start = cfg.host.client_start + Time::from_us(97) * j as u64;
            let mut app = ClientApp::new(kv, ops.clone(), start);
            app.configure(&spec);
            let h = sim.add_node(Box::new(app), HostCfg::new(ip, mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            ports.insert(ip, port);
            clients.push(h);
            client_ips.push(ip);
        }

        // Static physical provisioning: the operator knows the wiring, so
        // unicast physical rules are installed up front (the reactive
        // learning path of §5 still exists for anything unknown).
        for (&ip, &port) in &ports {
            let mac = if let Some(i) = server_ips.iter().position(|&s| s == ip) {
                Mac(0x200 + i as u64)
            } else if let Some(j) = client_ips.iter().position(|&c| c == ip) {
                Mac(0x300 + j as u64)
            } else {
                continue;
            };
            table.borrow_mut().install(
                FlowRule::new(
                    prio::PHYS,
                    FlowMatch::any().dst_ip(ip),
                    vec![Action::SetMacDst(mac), Action::Output(port)],
                ),
                Time::ZERO,
            );
        }

        // The metadata service + controller.
        let ring = PhysicalRing::new(
            parts,
            (0..spec.nodes as u32).map(NodeIdx).collect(),
            spec.replication,
        );
        let node_addrs: Vec<(Ipv4, Mac)> = server_ips
            .iter()
            .enumerate()
            .map(|(i, &ip)| (ip, Mac(0x200 + i as u64)))
            .collect();
        let handle = SwitchHandle {
            id: switch,
            table: Rc::clone(&table),
            ctrl_latency: cfg.host.switch.ctrl_latency,
            ports: ports.clone(),
        };
        let standby_ip = Ipv4::new(10, 0, 0, 2);
        let mut meta_app = MetadataApp::new(
            kv,
            ring.clone(),
            node_addrs.clone(),
            vec![handle],
            L3Learner::new(),
        );
        if cfg.metadata_standby {
            meta_app = meta_app.with_standby(standby_ip);
        }
        let meta = sim.add_host(Box::new(meta_app), HostCfg::new(meta_ip, meta_mac));
        let meta_port = sim.connect_asym(meta, switch, cfg.host.link.host_uplink(), cfg.host.link);
        table.borrow_mut().install(
            FlowRule::new(
                prio::PHYS,
                FlowMatch::any().dst_ip(meta_ip),
                vec![Action::SetMacDst(meta_mac), Action::Output(meta_port)],
            ),
            Time::ZERO,
        );
        sim.set_controller(switch, meta);

        let meta_standby = if cfg.metadata_standby {
            let standby_mac = Mac(0x101);
            let handle = SwitchHandle {
                id: switch,
                table: Rc::clone(&table),
                ctrl_latency: cfg.host.switch.ctrl_latency,
                ports,
            };
            let app =
                MetadataApp::new(kv, ring.clone(), node_addrs, vec![handle], L3Learner::new())
                    .into_standby(meta_ip);
            let h = sim.add_host(Box::new(app), HostCfg::new(standby_ip, standby_mac));
            let port = sim.connect_asym(h, switch, cfg.host.link.host_uplink(), cfg.host.link);
            table.borrow_mut().install(
                FlowRule::new(
                    prio::PHYS,
                    FlowMatch::any().dst_ip(standby_ip),
                    vec![Action::SetMacDst(standby_mac), Action::Output(port)],
                ),
                Time::ZERO,
            );
            Some(h)
        } else {
            None
        };

        // Fault injection: one plan at the delivery choke point; outage
        // indices map onto the storage-node slice.
        if let Some(plan) = cfg.host.fault_plan {
            sim.install_fault_plan(plan, &servers);
        }

        NiceCluster {
            sim,
            cfg: kv,
            ring,
            meta,
            meta_standby,
            servers,
            server_ips,
            clients,
            client_ips,
            switch,
            table,
        }
    }

    /// Borrow client `i`'s app.
    pub fn client(&self, i: usize) -> &ClientApp {
        self.sim.app::<ClientApp>(self.clients[i])
    }

    /// Borrow server `i`'s app.
    pub fn server(&self, i: usize) -> &ServerApp {
        self.sim.app::<ServerApp>(self.servers[i])
    }

    /// Borrow the metadata app.
    pub fn meta_app(&self) -> &MetadataApp {
        self.sim.app::<MetadataApp>(self.meta)
    }

    /// Run until every client drained its op queue (or `deadline`).
    /// Returns true if all clients finished.
    pub fn run_until_done(&mut self, deadline: Time) -> bool {
        loop {
            let all_done = self
                .clients
                .iter()
                .all(|&c| self.sim.app::<ClientApp>(c).done_at.is_some());
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
            .map(|&c| self.sim.app::<ClientApp>(c).done_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(Time::ZERO))
    }

    /// The partition a key hashes into (static: independent of membership).
    pub fn partition_of_key(&self, key: &str) -> PartitionId {
        self.cfg.partition_of(key)
    }

    /// Queue an administrator ring-reconfiguration command (§4.4); it is
    /// applied at the metadata service's next heartbeat tick.
    pub fn admin(&mut self, op: crate::metadata::AdminOp) {
        self.sim.app_mut::<MetadataApp>(self.meta).queue_admin(op);
    }

    /// Cluster-wide telemetry snapshot: every server's registry (engine
    /// counters, WAL/store totals, transport repair stats, phase
    /// histograms) merged with every client's (end-to-end latency,
    /// retries). Deterministic under a fixed seed — the simulator clock
    /// feeds every instrumentation point.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for i in 0..self.servers.len() {
            m.merge(&self.server(i).metrics());
        }
        for i in 0..self.clients.len() {
            m.merge(&self.client(i).metrics());
        }
        m
    }

    /// Generate `count` distinct keys that all hash into partition `p` —
    /// how experiments pin "all objects in the same partition" (§6.6).
    pub fn keys_in_partition(&self, p: PartitionId, count: usize) -> Vec<String> {
        let mut keys = Vec::with_capacity(count);
        let mut i = 0u64;
        while keys.len() < count {
            let k = format!("pinned-{i}");
            if self.cfg.partition_of(&k) == p {
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
        let bits = c.cfg.partitions.trailing_zeros();
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
        assert_eq!(c.cfg.partitions, 16);
        assert_eq!(c.ring.replication(), 3);
        // client IPs sit inside the LB client space
        for ip in &c.client_ips {
            assert!(ip.in_prefix(c.cfg.client_space.0, c.cfg.client_space.1));
        }
    }
}
