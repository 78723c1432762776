//! Boot a NOOB cluster as real OS threads serving UDP on loopback.
//!
//! The same [`NoobServerApp`], [`GatewayApp`], and [`NoobClientApp`]
//! state machines that run on simulated hosts are spawned here onto
//! `node_rt`'s threaded UDP runtime: one thread + one `127.0.0.1` socket
//! per node, wall-clock timers, real datagrams framed by
//! [`TpCodec`]`<`[`NoobCodec`]`>`. Only the routing differs from a
//! production deployment — every address lives on loopback.
//!
//! Scope: gateway routing (ROG/RAG) and direct replica-aware-client
//! routing. There is no switch on loopback, so anything that needs
//! in-network cooperation (NICE's in-switch anycast and multicast) stays
//! simulator-only.

use std::any::Any;
use std::sync::Arc;

use kv_core::{
    ClientOp, ClusterSpec, History, KvClient, MetricsRegistry, OpRecord, RetryPolicy, Value,
};
use nice_ring::{NodeIdx, PhysicalRing};
use nice_transport::TpCodec;
use node_rt::{Ipv4, NodeSpec, RuntimeCfg, Time, UdpHostCfg, UdpRuntime};

use crate::client::{ClientRoute, NoobClientApp};
use crate::gateway::{GatewayApp, GatewayPolicy};
use crate::msg::NoobMode;
use crate::server::{NoobRing, NoobServerApp};
use crate::wire::NoobCodec;

/// A `Send`-able operation spec. [`ClientOp`] carries an `Rc`-backed
/// [`Value`], so the real ops are materialized inside each client's node
/// thread from this description.
#[derive(Debug, Clone)]
pub enum RealOp {
    /// Write `bytes` under `key`.
    Put {
        /// The key.
        key: String,
        /// The value bytes.
        bytes: Vec<u8>,
    },
    /// Read `key`.
    Get {
        /// The key.
        key: String,
    },
}

impl RealOp {
    fn materialize(self) -> ClientOp {
        match self {
            RealOp::Put { key, bytes } => ClientOp::Put {
                key,
                value: Value::from_bytes(bytes),
            },
            RealOp::Get { key } => ClientOp::Get { key },
        }
    }
}

/// Loopback NOOB deployment configuration, in the workspace's layered
/// config shape: the system-agnostic [`ClusterSpec`], the real runtime's
/// [`UdpHostCfg`] (WAL root, socket nemesis), and NOOB's routing knobs.
///
/// [`RealNoobCfg::new`] sets a fixed 500 ms retry schedule: time is
/// wall-clock here, so tests keep it short (`spec.retry = None` falls
/// back to [`kv_core::RETRY_PERIOD`], like every client). With
/// `host.wal_root` set, every server gets a file WAL under
/// `<wal_root>/node-<i>.wal`: acks become fsync-gated, and
/// [`RealNoobCluster::restart_server`] recovers from the surviving file;
/// `None` = memory-only servers (crash loses everything, like the
/// simulator's volatile model).
#[derive(Clone)]
pub struct RealNoobCfg {
    /// System-agnostic deployment shape (seed, nodes, replication,
    /// partitions, storage, retry/deadline behaviour, telemetry).
    pub spec: ClusterSpec,
    /// Real-runtime host layer (durable state root, socket nemesis).
    pub host: UdpHostCfg,
    /// Replication/consistency mode.
    pub mode: NoobMode,
    /// Route via one gateway with this policy; `None` = direct
    /// replica-aware clients.
    pub gateway: Option<GatewayPolicy>,
    /// Direct clients balance gets over replicas.
    pub lb_gets: bool,
    /// Per-client operation lists.
    pub client_ops: Vec<Vec<RealOp>>,
}

impl RealNoobCfg {
    /// A small primary-only cluster serving `client_ops`.
    pub fn new(servers: usize, replication: usize, client_ops: Vec<Vec<RealOp>>) -> RealNoobCfg {
        let mut spec = ClusterSpec::new(servers, replication);
        spec.seed = 7;
        spec.retry = Some(RetryPolicy::fixed(Time::from_ms(500)));
        RealNoobCfg {
            spec,
            host: UdpHostCfg::default(),
            mode: NoobMode::PrimaryOnly,
            gateway: Some(GatewayPolicy::Primary),
            lb_gets: false,
            client_ops,
        }
    }
}

/// The address plan, shared with the simulated deployments.
pub use crate::cluster::{client_ip, GATEWAY_IP};
pub use nice_kv::server_ip;

/// A running loopback NOOB cluster.
pub struct RealNoobCluster {
    /// The underlying thread-per-node runtime.
    pub runtime: UdpRuntime,
    /// Placement (same ring every node uses), for key-targeted tests.
    pub ring: NoobRing,
    /// Storage node addresses, index-aligned with [`NodeIdx`].
    pub server_ips: Vec<Ipv4>,
    /// Client addresses, index-aligned with `client_ops`.
    pub client_ips: Vec<Ipv4>,
}

impl RealNoobCluster {
    /// Bind sockets, spawn every node thread, and start serving. Clients
    /// begin issuing immediately.
    pub fn build(cfg: RealNoobCfg) -> RealNoobCluster {
        let spec = cfg.spec;
        let server_ips: Vec<Ipv4> = (0..spec.nodes).map(server_ip).collect();
        let ring = NoobRing {
            ring: PhysicalRing::new(
                spec.partition_count(),
                (0..spec.nodes as u32).map(NodeIdx).collect(),
                spec.replication,
            ),
            addrs: server_ips.clone(),
            port: 9000,
        };

        let codec = Arc::new(TpCodec::new(NoobCodec));
        let mut rt_cfg = RuntimeCfg::new(spec.seed, codec);
        rt_cfg.host = cfg.host.clone();
        let mut specs = Vec::new();
        for (i, &ip) in server_ips.iter().enumerate() {
            let ring = ring.clone();
            let (mode, storage, telemetry) = (cfg.mode, spec.storage, spec.telemetry);
            let wal_root = cfg.host.wal_root.clone();
            // The factory reruns on every restart: with a WAL root, each
            // incarnation replays what the previous one synced.
            specs.push(NodeSpec::new(ip, move || match &wal_root {
                Some(root) => Box::new(NoobServerApp::with_wal(
                    ring.clone(),
                    NodeIdx(i as u32),
                    mode,
                    storage,
                    telemetry,
                    root,
                )),
                None => Box::new(NoobServerApp::new(
                    ring.clone(),
                    NodeIdx(i as u32),
                    mode,
                    storage,
                )),
            }));
        }
        if let Some(policy) = cfg.gateway {
            let ring = ring.clone();
            specs.push(NodeSpec::new(GATEWAY_IP, move || {
                Box::new(GatewayApp::new(ring.clone(), policy))
            }));
        }
        let route = match cfg.gateway {
            Some(_) => ClientRoute::Gateway(GATEWAY_IP),
            None => ClientRoute::Direct {
                lb_gets: cfg.lb_gets,
            },
        };
        let mut client_ips = Vec::new();
        for (j, ops) in cfg.client_ops.iter().cloned().enumerate() {
            let ip = client_ip(j);
            client_ips.push(ip);
            let ring = ring.clone();
            specs.push(NodeSpec::new(ip, move || {
                let ops: Vec<ClientOp> = ops.iter().cloned().map(RealOp::materialize).collect();
                let mut app = NoobClientApp::new(ring.clone(), route, ops, Time::from_ms(5));
                app.configure(&spec);
                Box::new(app)
            }));
        }

        RealNoobCluster {
            runtime: UdpRuntime::spawn(rt_cfg, specs),
            ring,
            server_ips,
            client_ips,
        }
    }

    /// Run `f` inside the node thread at `ip` against its app, if the
    /// node is up and hosts a `T`.
    fn visit<T: 'static, R: Send + 'static>(
        &self,
        ip: Ipv4,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> Option<R> {
        self.runtime
            .try_with(ip, move |app| {
                let any: &mut dyn Any = app;
                any.downcast_mut::<T>().map(f)
            })
            .flatten()
    }

    /// Run `f` against client `j`'s app inside its node thread.
    pub fn with_client<R: Send + 'static>(
        &self,
        j: usize,
        f: impl FnOnce(&mut NoobClientApp) -> R + Send + 'static,
    ) -> R {
        self.visit(client_ip(j), f)
            .expect("client node is up and hosts a NoobClientApp")
    }

    /// Queue more work on a live client (picked up by its idle poll).
    pub fn push_client_ops(&self, j: usize, ops: Vec<RealOp>) {
        self.with_client(j, move |c| {
            c.core_mut()
                .push_ops(ops.into_iter().map(RealOp::materialize));
        });
    }

    /// `(attempt count, key)` of client `j`'s in-flight op, if any.
    pub fn client_inflight(&self, j: usize) -> Option<(u32, String)> {
        self.with_client(j, |c| {
            c.core()
                .inflight_detail()
                .map(|(op, _, _, attempts)| (attempts, op.key().to_string()))
        })
    }

    /// Completed-op count for client `j`.
    pub fn client_completed(&self, j: usize) -> usize {
        self.with_client(j, |c| c.completed())
    }

    /// True once every client has drained its op list.
    pub fn all_done(&self) -> bool {
        (0..self.client_ips.len()).all(|j| self.with_client(j, |c| c.is_done()))
    }

    /// Completion records of client `j` (cloned out of the node thread;
    /// the raw bytes survive for value assertions).
    pub fn client_records(&self, j: usize) -> Vec<OpRecord> {
        self.with_client(j, |c| c.records.clone())
    }

    /// One [`History`] over everything every client observed, built
    /// fragment-by-fragment inside the client threads.
    pub fn history(&self) -> History {
        let mut history = History::new();
        for j in 0..self.client_ips.len() {
            let ip = client_ip(j);
            let fragment = self.with_client(j, move |c| {
                let mut h = History::new();
                h.record_client(ip, c.core());
                h
            });
            history.merge(fragment);
        }
        history
    }

    /// Cluster-wide telemetry snapshot harvested from every live node
    /// thread: server registries (engine counters, WAL/store totals,
    /// transport repair stats, phase histograms) merged with client
    /// registries (wall-clock end-to-end latency, retries). Nodes that
    /// are down are skipped.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for i in 0..self.server_ips.len() {
            if let Some(sm) = self.visit(server_ip(i), |s: &mut NoobServerApp| s.metrics()) {
                m.merge(&sm);
            }
        }
        for j in 0..self.client_ips.len() {
            if let Some(cm) = self.visit(client_ip(j), |c: &mut NoobClientApp| c.metrics()) {
                m.merge(&cm);
            }
        }
        m
    }

    /// Kill storage node `i` for good (thread exits, socket closes;
    /// in-flight datagrams to it are really lost).
    pub fn kill_server(&mut self, i: usize) {
        self.runtime.kill(server_ip(i));
    }

    /// Crash storage node `i` restartably: volatile state is dropped,
    /// the WAL directory (if configured) survives, and the socket stays
    /// bound so [`RealNoobCluster::restart_server`] resumes the same
    /// identity.
    pub fn crash_server(&self, i: usize) {
        self.runtime.crash(server_ip(i));
    }

    /// Restart a crashed storage node: the factory rebuilds the app,
    /// WAL replay restores acked state, and the rejoin sync phase
    /// catches up on the rest before it serves gets again.
    pub fn restart_server(&self, i: usize) {
        self.runtime.restart(server_ip(i));
    }

    /// WAL records server `i`'s current incarnation replayed at boot
    /// (`None` while the node is down).
    pub fn server_recovered(&self, i: usize) -> Option<usize> {
        self.visit(server_ip(i), |s: &mut NoobServerApp| s.recovered())
    }

    /// Is server `i` up and past its rejoin sync phase?
    pub fn server_ready(&self, i: usize) -> bool {
        self.visit(server_ip(i), |s: &mut NoobServerApp| !s.is_syncing())
            .unwrap_or(false)
    }

    /// Stop all node threads.
    pub fn shutdown(&mut self) {
        self.runtime.shutdown();
    }
}
