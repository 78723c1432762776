//! The system under test. Every call into the repository's crates is in this
//! module (and its `decor` child), through `pub` items only, so a later API
//! move costs one benchmark-only fix here.

pub mod decor;

use std::any::Any;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use kv_core::{
    History, HistoryOp, KvClient, KvError, MetricsRegistry, OpRecord, Outcome, Telemetry,
};
use nice_kv::{ClientApp, ClientOp, ClusterCfg, NiceCluster, OpId, PutMode, Value};
use nice_noob::real::{client_ip, server_ip, GATEWAY_IP};
use nice_noob::{
    Access, ClientRoute, GatewayApp, GatewayPolicy, NoobClientApp, NoobCluster, NoobClusterCfg,
    NoobCodec, NoobMode, NoobMsg, NoobRing, NoobServerApp, RealNoobCfg, RealNoobCluster, RealOp,
};
use nice_ring::{NodeIdx, PartitionId, PhysicalRing};
use nice_transport::msg::TpPayload;
use nice_transport::TpCodec;
use node_rt::{Ipv4, NodeApp, NodeSpec, RuntimeCfg, Time, UdpRuntime, WireCodec};

use crate::check::{Ended, Obs};
use crate::gen::GenOp;
use crate::trace::{NodeTrace, Role};
use decor::{TracedApp, TracedCodec};

/// The real-runtime deployment every `rt_*` workload runs on.
pub const SERVERS: usize = 3;
pub const REPLICATION: usize = 3;
/// Client nodes = cores of the sizing box: load comes from this one process.
pub const CLIENTS: usize = 2;

fn client_op(op: RealOp) -> ClientOp {
    match op {
        RealOp::Put { key, bytes } => ClientOp::Put {
            key,
            value: Value::from_bytes(bytes),
        },
        RealOp::Get { key } => ClientOp::Get { key },
    }
}

fn real_op(op: &GenOp) -> RealOp {
    if op.put {
        RealOp::Put {
            key: op.key(),
            bytes: op.value(),
        }
    } else {
        RealOp::Get { key: op.key() }
    }
}

fn obs(client: Ipv4, r: &OpRecord) -> Obs {
    Obs {
        client: client.0,
        seq: r.seq,
        put: r.is_put,
        key: r.key.clone(),
        start_ns: r.start.as_ns(),
        end_ns: r.end.as_ns(),
        ended: match &r.result {
            Ok(()) => Ended::Ok,
            Err(KvError::NotFound { .. }) => Ended::NotFound,
            Err(_) => Ended::Failed,
        },
        bytes: r.bytes.clone(),
    }
}

/// The repository's per-key linearizability checker over one segment.
pub fn linearize(seg: &[Obs]) -> Vec<String> {
    let mut h = History::new();
    for o in seg {
        h.push(HistoryOp {
            client: Ipv4(o.client),
            seq: o.seq,
            is_put: o.put,
            key: o.key.clone(),
            invoke: Time(o.start_ns),
            complete: o.settled_ns().map(Time),
            bytes: match (o.put, o.ended) {
                (false, Ended::Ok) => Some(o.bytes.clone().unwrap_or_default()),
                (false, _) => None,
                (true, _) => o.bytes.clone(),
            },
            outcome: match o.ended {
                Ended::Ok => Outcome::Ok,
                Ended::NotFound => Outcome::NotFound,
                Ended::Failed => Outcome::Maybe,
            },
        });
    }
    h.check().iter().map(ToString::to_string).collect()
}

/// A merged `metrics()` snapshot, read by name.
#[derive(Default, Clone)]
pub struct Metrics(MetricsRegistry);

impl Metrics {
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name)
    }

    /// A quantile of a named histogram in µs (a log-bucket edge, not an exact
    /// sample), 0.0 if it recorded nothing.
    pub fn hist_us(&self, name: &str, num: u64, den: u64) -> f64 {
        match self.0.hist(name) {
            Some(h) if h.count() > 0 => h.quantile(num, den).as_ns() as f64 / 1e3,
            _ => 0.0,
        }
    }

    pub fn hist_sum_us(&self, name: &str) -> f64 {
        self.0.hist(name).map_or(0.0, |h| h.sum_ns() as f64 / 1e3)
    }

    pub fn merge(&mut self, other: &Metrics) {
        self.0.merge(&other.0);
    }
}

/// A running loopback-UDP NOOB cluster: 3 servers, R = 3, two-phase commit,
/// file WAL, 2 clients, with or without the gateway.
pub struct RtCluster {
    runtime: UdpRuntime,
    traced: bool,
    wal_root: PathBuf,
    /// `Instant`s bracketing the runtime's epoch (taken inside the boot).
    pub epoch_after: Instant,
    pub epoch_before: Instant,
}

impl RtCluster {
    /// Boot the cluster; clients start on `initial` (the preload) at once.
    ///
    /// Untraced, this is `RealNoobCluster::build`, the repository's own way to
    /// deploy. Traced, the same nodes are assembled here from the public apps,
    /// each wrapped in the benchmark's decorators.
    pub fn boot(
        seed: u64,
        wal_root: &Path,
        gateway: bool,
        traced: bool,
        initial: &[Vec<GenOp>],
    ) -> RtCluster {
        let client_ops: Vec<Vec<RealOp>> = initial
            .iter()
            .map(|ops| ops.iter().map(real_op).collect())
            .collect();
        let mut cfg = RealNoobCfg::new(SERVERS, REPLICATION, client_ops);
        cfg.spec.seed = seed;
        cfg.mode = NoobMode::TwoPc;
        cfg.gateway = gateway.then_some(GatewayPolicy::Primary);
        cfg.host.wal_root = Some(wal_root.to_path_buf());
        let epoch_before = Instant::now();
        let runtime = if traced {
            boot_traced(cfg)
        } else {
            RealNoobCluster::build(cfg).runtime
        };
        RtCluster {
            runtime,
            traced,
            wal_root: wal_root.to_path_buf(),
            epoch_before,
            epoch_after: Instant::now(),
        }
    }

    /// Run `f` against the app at `ip` inside its node thread, looking
    /// through the tracing wrapper if there is one.
    fn visit<A: NodeApp, R: Send + 'static>(
        &self,
        ip: Ipv4,
        f: impl FnOnce(&mut A) -> R + Send + 'static,
    ) -> R {
        let traced = self.traced;
        self.runtime.with(ip, move |app| {
            let any: &mut dyn Any = app;
            let any = if traced {
                any.downcast_mut::<TracedApp>()
                    .expect("traced nodes host a TracedApp")
                    .inner_any()
            } else {
                any
            };
            f(any
                .downcast_mut::<A>()
                .expect("node hosts the expected app"))
        })
    }

    /// Queue more work on client `j`. Blocks until the client's event loop
    /// picks the request up.
    pub fn push(&self, j: usize, ops: &[GenOp]) {
        let ops: Vec<RealOp> = ops.iter().map(real_op).collect();
        self.visit(client_ip(j), move |c: &mut NoobClientApp| {
            c.push_ops(ops.into_iter().map(client_op));
        });
    }

    pub fn completed(&self, j: usize) -> usize {
        self.visit(client_ip(j), |c: &mut NoobClientApp| c.completed())
    }

    pub fn all_done(&self) -> bool {
        (0..CLIENTS).all(|j| self.visit(client_ip(j), |c: &mut NoobClientApp| c.is_done()))
    }

    /// Client `j`'s completion records, oldest first.
    pub fn records(&self, j: usize) -> Vec<Obs> {
        let ip = client_ip(j);
        self.visit(ip, move |c: &mut NoobClientApp| {
            c.records.iter().map(|r| obs(ip, r)).collect()
        })
    }

    /// Every server's and client's registry, merged.
    pub fn metrics(&self) -> Metrics {
        let mut m = MetricsRegistry::default();
        for i in 0..SERVERS {
            m.merge(&self.visit(server_ip(i), |s: &mut NoobServerApp| s.metrics()));
        }
        for j in 0..CLIENTS {
            m.merge(&self.visit(client_ip(j), |c: &mut NoobClientApp| c.metrics()));
        }
        Metrics(m)
    }

    /// Datagrams handed to the sockets so far, all nodes.
    pub fn datagrams_sent(&self) -> u64 {
        self.runtime.fault_stats().sent.load(Ordering::Relaxed)
    }

    /// Bytes in the servers' WAL files right now.
    pub fn wal_bytes(&self) -> u64 {
        (0..SERVERS)
            .filter_map(|i| std::fs::metadata(self.wal_root.join(format!("node-{i}.wal"))).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Stop recording on every node and collect what each recorded. Empty
    /// for an untraced cluster.
    pub fn take_traces(&self) -> Vec<NodeTrace> {
        if !self.traced {
            return Vec::new();
        }
        self.runtime
            .node_addrs()
            .into_iter()
            .filter_map(|ip| self.runtime.with(ip, |_app| crate::trace::take()))
            .collect()
    }

    /// Stop and join every node thread.
    pub fn shutdown(mut self) {
        self.runtime.shutdown();
    }
}

/// `RealNoobCluster::build`, node for node, with every app wrapped in
/// `TracedApp` and the codec in `TracedCodec`.
fn boot_traced(cfg: RealNoobCfg) -> UdpRuntime {
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
    let codec: Arc<dyn WireCodec> = Arc::new(TpCodec::new(NoobCodec));
    let mut rt_cfg = RuntimeCfg::new(spec.seed, TracedCodec::wrap(codec));
    rt_cfg.host = cfg.host.clone();
    let wal_root = cfg
        .host
        .wal_root
        .clone()
        .expect("rt workloads run on a file WAL");
    let mut specs = Vec::new();
    for (i, &ip) in server_ips.iter().enumerate() {
        let (ring, wal_root, mode) = (ring.clone(), wal_root.clone(), cfg.mode);
        specs.push(NodeSpec::new(ip, move || {
            let app = NoobServerApp::with_wal(
                ring.clone(),
                NodeIdx(i as u32),
                mode,
                spec.storage,
                spec.telemetry,
                &wal_root,
            );
            TracedApp::wrap(Box::new(app), ip, Role::Server)
        }));
    }
    if let Some(policy) = cfg.gateway {
        let ring = ring.clone();
        specs.push(NodeSpec::new(GATEWAY_IP, move || {
            TracedApp::wrap(
                Box::new(GatewayApp::new(ring.clone(), policy)),
                GATEWAY_IP,
                Role::Gateway,
            )
        }));
    }
    let route = match cfg.gateway {
        Some(_) => ClientRoute::Gateway(GATEWAY_IP),
        None => ClientRoute::Direct {
            lb_gets: cfg.lb_gets,
        },
    };
    let retry = spec
        .retry
        .expect("RealNoobCfg::new sets the retry schedule");
    for (j, ops) in cfg.client_ops.iter().cloned().enumerate() {
        let (ip, ring) = (client_ip(j), ring.clone());
        specs.push(NodeSpec::new(ip, move || {
            let ops: Vec<ClientOp> = ops.iter().cloned().map(client_op).collect();
            let mut app = NoobClientApp::new(ring.clone(), route, ops, Time::from_ms(5));
            app.retry = retry;
            app.op_deadline = spec.op_deadline;
            app.tel = Telemetry::new(&spec.telemetry);
            TracedApp::wrap(Box::new(app), ip, Role::Client)
        }));
    }
    UdpRuntime::spawn(rt_cfg, specs)
}

// ---------------------------------------------------------------- simulator

/// The simulated deployment of `sim_ycsb_b`: the paper's 15 nodes, R = 3.
pub const SIM_NODES: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSystem {
    /// NICEKV, two-phase commit, in-network get load balancing on.
    Nice,
    /// NOOB with replica-aware clients, two-phase commit, gets balanced.
    NoobRac2pc,
}

/// One simulated run. Host times are wall-clock; everything else is simulated
/// time or a count and repeats exactly for one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOut {
    pub build_host_ns: u64,
    /// The load phase: every record put once, run to completion.
    pub load_host_ns: u64,
    /// The run phase only.
    pub run_host_ns: u64,
    pub done: bool,
    /// Operations of both phases, and of the run phase alone.
    pub ops: usize,
    pub run_ops: usize,
    pub failed: usize,
    /// Successful gets of the run phase that did not return a full object.
    pub short_gets: usize,
    pub events: u64,
    pub simtime_ns: u64,
    /// Simulated latencies of the run phase (the load phase is skipped).
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub link_bytes: u64,
    pub link_drops: u64,
    pub retries: u64,
    pub aborts: u64,
}

/// Simulated objects are the paper's 1000 B. (At 1024 B, NICE's puts at this
/// commit run into coordinator-deadline aborts and 2 s client retries, which
/// turns the run into simulated minutes of idle events.)
const SIM_OBJ_BYTES: u32 = 1000;

fn sim_ops(list: &[GenOp]) -> Vec<ClientOp> {
    list.iter()
        .map(|op| {
            if op.put {
                ClientOp::Put {
                    key: op.key(),
                    value: Value::synthetic(SIM_OBJ_BYTES),
                }
            } else {
                ClientOp::Get { key: op.key() }
            }
        })
        .collect()
}

/// Build `system` with each client's `load` puts queued, run them to
/// completion, then queue each client's `run` operations and run those to
/// completion: no get can race the put that loads its key.
pub fn run_sim(system: SimSystem, seed: u64, load: &[Vec<GenOp>], run: &[Vec<GenOp>]) -> SimOut {
    let began = Instant::now();
    let run_ops: Vec<Vec<ClientOp>> = run.iter().map(|l| sim_ops(l)).collect();
    let mut cfg = ClusterCfg::new(
        SIM_NODES,
        REPLICATION,
        load.iter().map(|l| sim_ops(l)).collect(),
    );
    cfg.spec.seed = seed;
    cfg.kv.put_mode = PutMode::TwoPc;
    cfg.kv.load_balancing = true;
    let mut out = SimOut::default();
    // `NiceCluster` and `NoobCluster` share method names but no trait.
    macro_rules! drive {
        ($cluster:expr, $client_app:ty) => {{
            let mut c = $cluster;
            out.build_host_ns = began.elapsed().as_nanos() as u64;
            let deadline = Time::from_secs(3_600);
            let t = Instant::now();
            out.done = c.run_until_done(deadline);
            out.load_host_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            for (i, ops) in run_ops.into_iter().enumerate() {
                c.sim
                    .app_mut::<$client_app>(c.clients[i])
                    .core_mut()
                    .push_ops(ops);
            }
            out.done &= c.run_until_done(deadline);
            out.run_host_ns = t.elapsed().as_nanos() as u64;
            out.events = c.sim.events_processed();
            out.simtime_ns = c.finish_time().unwrap_or(c.sim.now()).as_ns();
            out.link_bytes = c.sim.total_link_bytes();
            out.link_drops = c.sim.total_link_drops();
            for (i, loaded) in load.iter().enumerate() {
                let recs = &c.client(i).records;
                out.ops += recs.len();
                out.run_ops += recs.len().saturating_sub(loaded.len());
                out.failed += recs.iter().filter(|r| !r.ok()).count();
                for r in recs.iter().skip(loaded.len()).filter(|r| r.ok()) {
                    let lat = (r.end - r.start).as_ns();
                    if r.is_put {
                        out.put_ns.push(lat);
                    } else {
                        out.get_ns.push(lat);
                        out.short_gets += usize::from(r.size != SIM_OBJ_BYTES);
                    }
                }
            }
            let m = c.metrics();
            out.retries = m.counter("client.retries");
            out.aborts = m.counter("engine.puts_aborted");
        }};
    }
    match system {
        SimSystem::Nice => drive!(NiceCluster::build(cfg), ClientApp),
        SimSystem::NoobRac2pc => {
            let mut ncfg = NoobClusterCfg::from_nice(&cfg, Access::Rac, NoobMode::TwoPc);
            ncfg.lb_gets = true;
            drive!(NoobCluster::build(ncfg), NoobClientApp);
        }
    }
    out
}

// ------------------------------------------------- isolated micro-timings

/// Median over `batches` of the mean ns per call of `f` in a batch of `iters`.
fn ns_per_call(iters: u32, batches: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    crate::stats::median(&per_batch)
}

/// `(encode ns, decode ns)` of one 1 KiB NOOB put inside a transport chunk,
/// through the codec stack the real runtime frames with.
pub fn codec_put1k_ns() -> (f64, f64) {
    let codec = TpCodec::new(NoobCodec);
    let client = Ipv4::new(10, 0, 1, 1);
    let chunk = TpPayload::Chunk {
        sender: client,
        msg_id: 7,
        seq: 0,
        total: 1,
        msg_size: 1100,
        data: Rc::new(NoobMsg::Put {
            key: "user42".into(),
            value: Value::from_bytes(vec![0xA5; crate::gen::OBJ_BYTES]),
            op: OpId {
                client,
                client_seq: 9,
            },
            hops: 0,
        }),
        retx: false,
    };
    let bytes = codec.encode(&chunk).expect("a put chunk is encodable");
    assert!(codec.decode(&bytes).is_some(), "and decodes back");
    let enc = ns_per_call(2_000, 9, || {
        black_box(codec.encode(black_box(&chunk)));
    });
    let dec = ns_per_call(2_000, 9, || {
        black_box(codec.decode(black_box(&bytes)));
    });
    (enc, dec)
}

/// One `MetricsRegistry::record` into an existing histogram.
pub fn telemetry_record_ns() -> f64 {
    let mut m = MetricsRegistry::default();
    let mut d = 1_000u64;
    ns_per_call(20_000, 9, || {
        d = d.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 50_000_000;
        m.record(black_box("client.get_e2e"), Time(d));
    })
}

/// Partition + replica-set lookup on a 1024-partition, 64-node ring.
pub fn ring_lookup_ns() -> f64 {
    let ring = PhysicalRing::new(1024, (0..64).map(NodeIdx).collect(), 3);
    ns_per_call(20_000, 9, || {
        let p = ring.partition_of_key(black_box(b"user12345"));
        black_box(ring.replica_set(p));
    })
}

/// One packet through a 1600-rule flow table shaped like a 256-partition
/// deployment (vring unicast + multicast + 4 load-balancing rules each, plus
/// 64 physical rules).
pub fn flow_lookup_1600_ns() -> f64 {
    use nice_flow::{prio, Action, FlowMatch, FlowRule, FlowTable};
    use nice_ring::VRing;
    use nice_sim::{Mac, Packet, Port};
    let mut t = FlowTable::new();
    let (uni, mc) = (VRing::unicast(256), VRing::multicast(256));
    let mut install = |p, m: FlowMatch, port| {
        t.install(
            FlowRule::new(p, m, vec![Action::Output(Port(port))]),
            Time::ZERO,
        );
    };
    for p in 0..256u32 {
        let (n1, l1) = uni.subgroup_prefix(PartitionId(p));
        let (n2, l2) = mc.subgroup_prefix(PartitionId(p));
        install(prio::VRING, FlowMatch::any().dst_prefix(n1, l1), 1);
        install(prio::VRING, FlowMatch::any().dst_prefix(n2, l2), 2);
        for d in 0..4u32 {
            let src = Ipv4(Ipv4::new(10, 0, 1, 0).0 + (d << 6));
            install(
                prio::LB,
                FlowMatch::any().src_prefix(src, 26).dst_prefix(n1, l1),
                d as u16,
            );
        }
    }
    for h in 0..64u32 {
        install(
            prio::PHYS,
            FlowMatch::any().dst_ip(Ipv4(Ipv4::new(10, 0, 0, 0).0 + h)),
            h as u16,
        );
    }
    let pkt = Packet::udp(
        Ipv4::new(10, 0, 1, 77),
        Mac(1),
        Ipv4::new(10, 10, 128, 9),
        9000,
        9000,
        100,
        Rc::new(()),
    );
    ns_per_call(2_000, 9, || {
        black_box(t.apply(black_box(Port(0)), black_box(&pkt), Time::from_us(1)));
    })
}

/// One sample of the repository's own zipfian sampler (the figures' input
/// generator; the benchmark's inputs come from `crate::gen`).
pub fn workload_zipf_ns() -> f64 {
    use node_rt::XorShiftRng;
    let z = nice_workload::Zipf::ycsb(100_000);
    let mut rng = XorShiftRng::seed_from_u64(7);
    ns_per_call(20_000, 9, || {
        black_box(z.sample(&mut rng));
    })
}
