//! Drivers that run one experiment configuration on either system and
//! collect the measurements every figure needs. Both systems build the
//! same [`SimCluster`] testbed, so one generic [`run`] path harvests
//! either; only the config layering in [`nice_cluster`] and
//! [`noob_cluster`] is per system.

use nice_kv::{
    ClientOp, ClusterCfg, Deployment, KvClient, MetricsRegistry, NiceCluster, PutMode, SimCluster,
};
use nice_noob::{Access, NoobCluster, NoobClusterCfg, NoobMode};
use nice_sim::{FaultPlan, FaultStats, Time};

/// Which system (and configuration) an experiment runs on. Labels match
/// the paper's legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// NICEKV (2PC consistency; `lb` = in-network get load balancing).
    Nice {
        /// Load balancing on?
        lb: bool,
    },
    /// NICEKV with quorum (any-k) replication (§6.3).
    NiceQuorum {
        /// Write-set size.
        k: usize,
    },
    /// The NOOB baseline in one of its configurations.
    Noob {
        /// Access mechanism.
        access: Access,
        /// Replication/consistency mode.
        mode: NoobMode,
        /// Client/gateway-side get balancing.
        lb_gets: bool,
    },
}

impl System {
    /// The paper's name for this configuration.
    pub fn label(&self) -> String {
        match self {
            System::Nice { .. } => "NICE".into(),
            System::NiceQuorum { .. } => "NICE-quorum".into(),
            System::Noob { access, mode, .. } => {
                let a = match access {
                    Access::Rog => "ROG",
                    Access::Rag => "RAG",
                    Access::Rac => "RAC",
                };
                let m = match mode {
                    NoobMode::PrimaryOnly => "primary",
                    NoobMode::TwoPc => "2pc",
                    NoobMode::Quorum { .. } => "quorum",
                    NoobMode::Chain => "chain",
                };
                format!("NOOB+{a}-{m}")
            }
        }
    }
}

/// One experiment run specification.
#[derive(Clone)]
pub struct RunSpec {
    /// System under test.
    pub system: System,
    /// Storage node count (the paper uses 15).
    pub storage_nodes: usize,
    /// Replication level.
    pub replication: usize,
    /// Per-client op lists.
    pub client_ops: Vec<Vec<ClientOp>>,
    /// Records to skip per client when computing latency (preload ops).
    pub skip: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Give up after this much simulated time.
    pub deadline: Time,
    /// Throttle these server indices to this rate at t=0.
    pub throttled: Vec<(usize, u64)>,
    /// Clients retry NotFound gets (hot-object benchmarks).
    pub retry_not_found: bool,
    /// Deterministic fault plan (loss/dup/delay/partitions/outages)
    /// applied identically to either system.
    pub fault_plan: Option<FaultPlan>,
}

impl RunSpec {
    /// A run of `system` with the paper's 15-node deployment.
    pub fn new(system: System, replication: usize, client_ops: Vec<Vec<ClientOp>>) -> RunSpec {
        RunSpec {
            system,
            storage_nodes: 15,
            replication,
            client_ops,
            skip: 0,
            seed: 42,
            deadline: Time::from_secs(600),
            throttled: Vec::new(),
            retry_not_found: false,
            fault_plan: None,
        }
    }

    /// The shared layered config this spec describes (system-specific
    /// knobs are layered on top by `nice_cluster` / `noob_cluster`).
    fn cluster_cfg(&self) -> ClusterCfg {
        let mut cfg = ClusterCfg::new(
            self.storage_nodes,
            self.replication,
            self.client_ops.clone(),
        );
        cfg.spec.seed = self.seed;
        cfg.spec.retry_not_found = self.retry_not_found;
        cfg.host.fault_plan = self.fault_plan.clone();
        cfg
    }
}

/// What one run produced.
pub struct ExpResult {
    /// Successful put latencies (after `skip`).
    pub put_lat: Vec<Time>,
    /// Successful get latencies (after `skip`).
    pub get_lat: Vec<Time>,
    /// Failed operations (after `skip`).
    pub failures: usize,
    /// Total wire bytes over all links.
    pub total_link_bytes: u64,
    /// When the first client started issuing ops.
    pub start: Time,
    /// When the last client finished.
    pub finish: Time,
    /// All measured ops completed?
    pub done: bool,
    /// Injector counters when the spec carried a fault plan.
    pub fault: Option<FaultStats>,
    /// Cluster-wide telemetry snapshot (merged server + client
    /// registries), harvested after the run.
    pub metrics: MetricsRegistry,
}

impl ExpResult {
    /// Aggregate throughput over the measured window, in ops/sec.
    pub fn throughput(&self) -> f64 {
        let ops = (self.put_lat.len() + self.get_lat.len()) as f64;
        let secs = (self.finish.saturating_sub(self.start)).as_secs_f64();
        if secs > 0.0 {
            ops / secs
        } else {
            0.0
        }
    }
}

/// Build a NICE cluster for a spec (callers may inspect the ring before
/// running, e.g. to pin keys).
pub fn nice_cluster(spec: &RunSpec) -> NiceCluster {
    let (put_mode, lb) = match spec.system {
        System::Nice { lb } => (PutMode::TwoPc, lb),
        System::NiceQuorum { k } => (PutMode::Quorum { k }, false),
        System::Noob { .. } => panic!("use noob_cluster for NOOB systems"),
    };
    let mut cfg = spec.cluster_cfg();
    cfg.kv.put_mode = put_mode;
    cfg.kv.load_balancing = lb;
    NiceCluster::build(cfg)
}

/// Build a NOOB cluster for a spec.
pub fn noob_cluster(spec: &RunSpec) -> NoobCluster {
    let System::Noob {
        access,
        mode,
        lb_gets,
    } = spec.system
    else {
        panic!("use nice_cluster for NICE systems");
    };
    let mut cfg = NoobClusterCfg::from_nice(&spec.cluster_cfg(), access, mode);
    cfg.lb_gets = lb_gets;
    NoobCluster::build(cfg)
}

fn collect_lat(
    records: &[nice_kv::OpRecord],
    skip: usize,
    puts: &mut Vec<Time>,
    gets: &mut Vec<Time>,
    failures: &mut usize,
) {
    for r in records.iter().skip(skip) {
        if !r.ok() {
            *failures += 1;
            continue;
        }
        let lat = r.end - r.start;
        if r.is_put {
            puts.push(lat);
        } else {
            gets.push(lat);
        }
    }
}

/// Run an already-built cluster of either system to completion and
/// harvest what the figures plot.
fn run_cluster<D: Deployment>(mut c: SimCluster<D>, spec: &RunSpec) -> ExpResult {
    for &(idx, bps) in &spec.throttled {
        c.sim.schedule_link_rate(Time::ZERO, c.servers[idx], bps);
    }
    let done = c.run_until_done(spec.deadline);
    let mut put_lat = Vec::new();
    let mut get_lat = Vec::new();
    let mut failures = 0;
    let mut start = Time::MAX;
    for i in 0..c.clients.len() {
        let recs = c.client(i).records();
        if let Some(r) = recs.get(spec.skip) {
            start = start.min(r.start);
        }
        collect_lat(recs, spec.skip, &mut put_lat, &mut get_lat, &mut failures);
    }
    let finish = c.finish_time().unwrap_or(c.sim.now());
    ExpResult {
        put_lat,
        get_lat,
        failures,
        total_link_bytes: c.sim.total_link_bytes(),
        start: if start == Time::MAX {
            Time::ZERO
        } else {
            start
        },
        finish,
        done,
        fault: c.sim.fault_stats(),
        metrics: c.metrics(),
    }
}

/// Run a spec on whichever system it names.
pub fn run(spec: &RunSpec) -> ExpResult {
    match spec.system {
        System::Noob { .. } => run_cluster(noob_cluster(spec), spec),
        _ => run_cluster(nice_cluster(spec), spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_kv::Value;

    fn small_ops(n: usize) -> Vec<ClientOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(ClientOp::Put {
                key: format!("k{i}"),
                value: Value::synthetic(128),
            });
            ops.push(ClientOp::Get {
                key: format!("k{i}"),
            });
        }
        ops
    }

    #[test]
    fn nice_run_collects_latencies() {
        let spec = RunSpec::new(System::Nice { lb: true }, 3, vec![small_ops(5)]);
        let r = run(&spec);
        assert!(r.done);
        assert_eq!(r.put_lat.len(), 5);
        assert_eq!(r.get_lat.len(), 5);
        assert_eq!(r.failures, 0);
        assert!(r.total_link_bytes > 0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn noob_run_collects_latencies() {
        let spec = RunSpec::new(
            System::Noob {
                access: Access::Rac,
                mode: NoobMode::PrimaryOnly,
                lb_gets: false,
            },
            3,
            vec![small_ops(5)],
        );
        let r = run(&spec);
        assert!(r.done);
        assert_eq!(r.put_lat.len(), 5);
        assert_eq!(r.get_lat.len(), 5);
    }

    #[test]
    fn skip_excludes_preload() {
        let mut spec = RunSpec::new(System::Nice { lb: true }, 3, vec![small_ops(5)]);
        spec.skip = 2;
        let r = run(&spec);
        assert_eq!(r.put_lat.len() + r.get_lat.len(), 8);
    }

    #[test]
    fn labels() {
        assert_eq!(System::Nice { lb: true }.label(), "NICE");
        assert_eq!(
            System::Noob {
                access: Access::Rog,
                mode: NoobMode::PrimaryOnly,
                lb_gets: false
            }
            .label(),
            "NOOB+ROG-primary"
        );
        assert_eq!(System::NiceQuorum { k: 3 }.label(), "NICE-quorum");
    }
}
