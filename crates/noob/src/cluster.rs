//! NOOB's half of the simulated testbed: storage nodes, optional
//! gateways, and clients on `nice_kv::SimCluster`'s star, routed by its
//! static PHYS rules alone — no SDN cooperation anywhere. Also the NOOB
//! address plan both hosts share.

use nice_kv::cluster::Star;
use nice_kv::{server_ip, ClientOp, ClusterSpec, Deployment, SimCluster, SimHostCfg};
use nice_ring::{NodeIdx, PhysicalRing};
use nice_sim::{HostId, Ipv4, Mac};

use kv_core::{MetricsRegistry, ObjectStore};

use crate::client::{ClientRoute, NoobClientApp};
use crate::gateway::{GatewayApp, GatewayPolicy};
use crate::msg::{Access, NoobMode};
use crate::server::{NoobRing, NoobServerApp};

/// NOOB deployment configuration, in the workspace's layered config
/// shape: the system-agnostic [`ClusterSpec`], the simulator's
/// [`SimHostCfg`], and NOOB's own access/consistency knobs.
///
/// `spec.retry = None` keeps the fixed [`kv_core::RETRY_PERIOD`]
/// schedule (NICE's §6.6 clients use the same); the chaos harness
/// installs backoff + jitter through the spec.
#[derive(Clone)]
pub struct NoobClusterCfg {
    /// System-agnostic deployment shape (nodes, replication, storage,
    /// retry/deadline behaviour, telemetry).
    pub spec: ClusterSpec,
    /// Simulator host layer (client start, fault plan).
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
    /// [`nice_kv::ClusterCfg`]: spec (retry schedule included), host
    /// layer, and clients carry over unchanged, so an A/B experiment
    /// differs only in the access mechanism and consistency mode chosen
    /// here.
    pub fn from_nice(nice: &nice_kv::ClusterCfg, access: Access, mode: NoobMode) -> NoobClusterCfg {
        let mut cfg = NoobClusterCfg::from_spec(nice.spec, access, mode, nice.client_ops.clone());
        cfg.host = nice.host.clone();
        cfg
    }
}

/// How many clients the address plan holds: [`client_ip`] hands out
/// 10.0.1.1 upward and stays inside 10.0.1.0/24.
pub const MAX_CLIENTS: usize = 255;

/// How many gateways the address plan holds: [`gateway_ip`] hands out
/// 10.0.2.1 upward and stays inside 10.0.2.0/24.
pub const MAX_GATEWAYS: usize = 255;

/// Address of client `j`: 10.0.1.1 + `j`, on both hosts.
///
/// # Panics
/// If `j` is past [`MAX_CLIENTS`].
pub fn client_ip(j: usize) -> Ipv4 {
    assert!(
        j < MAX_CLIENTS,
        "client {j} is past the address plan: at most {MAX_CLIENTS} clients fit in \
         10.0.1.1..=10.0.1.255"
    );
    Ipv4(Ipv4::new(10, 0, 1, 1).0 + j as u32)
}

/// Address of gateway `g`: 10.0.2.1 + `g` ([`GATEWAY_IP`] is gateway 0).
///
/// # Panics
/// If `g` is past [`MAX_GATEWAYS`].
pub fn gateway_ip(g: usize) -> Ipv4 {
    assert!(
        g < MAX_GATEWAYS,
        "gateway {g} is past the address plan: at most {MAX_GATEWAYS} gateways fit in \
         10.0.2.1..=10.0.2.255"
    );
    Ipv4(GATEWAY_IP.0 + g as u32)
}

/// The first gateway's address (the real runtime deploys only this one).
pub const GATEWAY_IP: Ipv4 = Ipv4::new(10, 0, 2, 1);

/// A wired NOOB deployment.
pub type NoobCluster = SimCluster<NoobSys>;

/// NOOB's parts of a [`NoobCluster`].
pub struct NoobSys {
    /// Shared deployment knowledge.
    pub ring: NoobRing,
    /// Gateway hosts.
    pub gateways: Vec<HostId>,
}

impl Deployment for NoobSys {
    type Cfg = NoobClusterCfg;
    type Client = NoobClientApp;
    type Server = NoobServerApp;

    fn layers(cfg: &NoobClusterCfg) -> (&ClusterSpec, &SimHostCfg) {
        (&cfg.spec, &cfg.host)
    }

    fn attach(cfg: NoobClusterCfg, star: &mut Star) -> NoobSys {
        let spec = cfg.spec;
        let ring = NoobRing {
            ring: PhysicalRing::new(
                spec.partition_count(),
                (0..spec.nodes as u32).map(NodeIdx).collect(),
                spec.replication,
            ),
            addrs: (0..spec.nodes).map(server_ip).collect(),
            port: 9000,
        };

        // Storage nodes.
        for i in 0..spec.nodes {
            let app = NoobServerApp::new(ring.clone(), NodeIdx(i as u32), cfg.mode, spec.storage);
            star.add_server(Box::new(app));
        }

        // Gateways.
        let policy = match (cfg.access, cfg.lb_gets) {
            (Access::Rog, _) => GatewayPolicy::RandomNode,
            (Access::Rag, false) => GatewayPolicy::Primary,
            (Access::Rag, true) => GatewayPolicy::BalancedReplicas,
            (Access::Rac, _) => GatewayPolicy::Primary, // unused
        };
        let n_gw = if cfg.access == Access::Rac {
            0
        } else {
            cfg.gateways.max(1)
        };
        let gateways: Vec<HostId> = (0..n_gw)
            .map(|g| {
                let app = GatewayApp::new(ring.clone(), policy);
                star.add_node(Box::new(app), gateway_ip(g), Mac(0x400 + g as u64))
            })
            .collect();

        // Clients.
        for (j, ops) in cfg.client_ops.into_iter().enumerate() {
            let route = match (cfg.access, cfg.caching_rac) {
                (Access::Rac, true) => ClientRoute::CachingRac,
                (Access::Rac, false) => ClientRoute::Direct {
                    lb_gets: cfg.lb_gets,
                },
                _ => ClientRoute::Gateway(gateway_ip(j % n_gw)),
            };
            let mut app = NoobClientApp::new(ring.clone(), route, ops, star.client_start(j));
            app.configure(&spec);
            star.add_client(Box::new(app), client_ip(j));
        }

        NoobSys { ring, gateways }
    }

    fn server_metrics(server: &NoobServerApp) -> MetricsRegistry {
        server.metrics()
    }

    fn server_store(server: &NoobServerApp) -> &ObjectStore {
        server.store()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use kv_core::{KvClient, RetryPolicy};
    use nice_kv::cluster::MAX_SERVERS;
    use nice_kv::{ClusterCfg, NiceCluster};
    use nice_sim::Time;

    #[test]
    fn address_plan_is_injective_and_disjoint() {
        let servers: Vec<Ipv4> = (0..MAX_SERVERS).map(server_ip).collect();
        let clients: Vec<Ipv4> = (0..MAX_CLIENTS).map(client_ip).collect();
        let gateways: Vec<Ipv4> = (0..MAX_GATEWAYS).map(gateway_ip).collect();
        let all: BTreeSet<Ipv4> = servers
            .iter()
            .chain(&clients)
            .chain(&gateways)
            .copied()
            .collect();
        assert_eq!(all.len(), MAX_SERVERS + MAX_CLIENTS + MAX_GATEWAYS);
        for (ips, net) in [(&servers, 0), (&clients, 1), (&gateways, 2)] {
            for ip in ips {
                assert!(ip.in_prefix(Ipv4::new(10, 0, net, 0), 24), "{ip}");
            }
        }
        assert_eq!(gateway_ip(0), GATEWAY_IP);
        assert_eq!(servers[MAX_SERVERS - 1], Ipv4::new(10, 0, 0, 255));
    }

    /// `ClusterSpec::retry` is the one retry knob: unset, every client
    /// of both systems retries every 2 s (§6.6); set, every client of
    /// both systems runs the given policy.
    #[test]
    fn the_retry_schedule_reaches_both_systems_from_the_spec() {
        let backoff = RetryPolicy {
            base: Time::from_ms(400),
            cap: Time::from_secs(8),
            exponential: true,
            jitter_pct: 30,
            seed: 5,
        };
        let cases = [
            (None, RetryPolicy::fixed(Time::from_secs(2))),
            (Some(backoff), backoff),
        ];
        for (retry, want) in cases {
            let mut cfg = ClusterCfg::new(3, 3, vec![Vec::new(); 4]);
            cfg.spec.retry = retry;
            let noob = NoobClusterCfg::from_nice(&cfg, Access::Rac, NoobMode::TwoPc);
            let (nice, noob) = (NiceCluster::build(cfg), NoobCluster::build(noob));
            for i in 0..4 {
                assert_eq!(nice.client(i).core().retry, want, "NICE client {i}");
                assert_eq!(noob.client(i).core().retry, want, "NOOB client {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 255 clients")]
    fn a_client_past_the_address_plan_is_rejected() {
        let ops = vec![Vec::new(); MAX_CLIENTS + 1];
        NoobCluster::build(NoobClusterCfg::new(3, 3, Access::Rac, NoobMode::TwoPc, ops));
    }
}
