//! Differential test: the same seeded YCSB workload and the same
//! `FaultPlan` driven through NICE (2PC over switch multicast) and NOOB
//! must converge to the same committed object-store state. NOOB runs in
//! every replication mode: 2PC over unicast fan-out (also under a lossy
//! network), and primary-only, quorum and chain on the fault-free seeds.
//! NICE and NOOB's 2PC, primary-only and quorum modes share
//! `kv_core::TwoPcEngine`, so a divergence there is a policy-adapter
//! bug, not a protocol fork; chain is choreographed in the NOOB adapter
//! itself.
//!
//! Each client owns a disjoint slice of the YCSB key space (ranks taken
//! mod the client count, load and run phases both filtered to owned
//! keys), so every key has a single serial writer and the final
//! committed value is determined by the workload, not by cross-client
//! message races — which is what makes byte-level comparison across two
//! different transports meaningful.

use std::collections::{BTreeMap, BTreeSet};

use nice::kv::{ClientOp, ClusterCfg, KvClient, NiceCluster, ObjectStore, Value};
use nice::noob::{Access, NoobCluster, NoobClusterCfg, NoobMode};
use nice::sim::{FaultPlan, Time};
use nice::workload::{OpKind, Workload, WorkloadRun, XorShiftRng};

const CLIENTS: usize = 3;
const RECORDS: u64 = 30;
const RUN_OPS: usize = 25;

/// A put whose value encodes the key and per-key version, so two runs
/// committed the same value iff they committed the same write.
fn versioned_put(key: &str, versions: &mut BTreeMap<String, u32>) -> ClientOp {
    let v = versions.entry(key.to_string()).or_insert(0);
    *v += 1;
    ClientOp::Put {
        key: key.to_string(),
        value: Value::from_bytes(format!("{key}#v{v}").into_bytes()),
    }
}

/// Per-client op lists over disjoint key sets: a striped load phase,
/// then a YCSB-A run phase filtered to each client's own keys.
fn build_ops(wl: &Workload, seed: u64) -> Vec<Vec<ClientOp>> {
    let owned: Vec<BTreeSet<String>> = (0..CLIENTS)
        .map(|c| {
            (0..wl.records)
                .filter(|r| (*r as usize) % CLIENTS == c)
                .map(|r| wl.key(r))
                .collect()
        })
        .collect();
    let mut per_client = Vec::new();
    for (c, mine) in owned.iter().enumerate() {
        let mut ops = Vec::new();
        let mut versions = BTreeMap::new();
        for r in 0..wl.records {
            if (r as usize) % CLIENTS == c {
                ops.push(versioned_put(&wl.key(r), &mut versions));
            }
        }
        let mut rng = XorShiftRng::seed_from_u64(seed ^ (c as u64 + 1));
        let mut gen = WorkloadRun::new(wl.clone());
        let load_len = ops.len();
        while ops.len() - load_len < RUN_OPS {
            for op in gen.next_ops(&mut rng) {
                if !mine.contains(&op.key) {
                    continue;
                }
                ops.push(match op.kind {
                    OpKind::Get => ClientOp::Get { key: op.key },
                    OpKind::Put => versioned_put(&op.key, &mut versions),
                });
            }
        }
        per_client.push(ops);
    }
    per_client
}

fn shared_cfg(seed: u64, plan: &Option<FaultPlan>, ops: &[Vec<ClientOp>]) -> ClusterCfg {
    let mut cfg = ClusterCfg::new(6, 3, ops.to_vec());
    cfg.spec.seed = seed;
    cfg.host.fault_plan = plan.clone();
    cfg
}

/// The cluster surface the differential harness needs. Both systems
/// expose the same shape (clients implementing [`KvClient`], servers
/// owning an [`ObjectStore`]), so the drive-and-verify logic in
/// [`drive`] exists once instead of as parallel per-system paths.
trait System {
    /// Name used in assertion messages.
    const NAME: &'static str;
    type Client: KvClient;
    fn run_until_done(&mut self, deadline: Time) -> bool;
    fn run_for(&mut self, t: Time);
    fn client_count(&self) -> usize;
    fn client(&self, i: usize) -> &Self::Client;
    fn stores(&self) -> Vec<&ObjectStore>;
}

impl System for NiceCluster {
    const NAME: &'static str = "NICE";
    type Client = nice::kv::ClientApp;
    fn run_until_done(&mut self, deadline: Time) -> bool {
        NiceCluster::run_until_done(self, deadline)
    }
    fn run_for(&mut self, t: Time) {
        self.sim.run_for(t);
    }
    fn client_count(&self) -> usize {
        self.clients.len()
    }
    fn client(&self, i: usize) -> &Self::Client {
        NiceCluster::client(self, i)
    }
    fn stores(&self) -> Vec<&ObjectStore> {
        (0..self.servers.len())
            .map(|i| self.server(i).store())
            .collect()
    }
}

impl System for NoobCluster {
    const NAME: &'static str = "NOOB";
    type Client = nice::noob::NoobClientApp;
    fn run_until_done(&mut self, deadline: Time) -> bool {
        NoobCluster::run_until_done(self, deadline)
    }
    fn run_for(&mut self, t: Time) {
        self.sim.run_for(t);
    }
    fn client_count(&self) -> usize {
        self.clients.len()
    }
    fn client(&self, i: usize) -> &Self::Client {
        NoobCluster::client(self, i)
    }
    fn stores(&self) -> Vec<&ObjectStore> {
        (0..self.servers.len())
            .map(|i| self.server(i).store())
            .collect()
    }
}

/// Run one system to completion, quiesce it, assert every client op
/// succeeded, and fold its committed state — the whole per-system half
/// of the differential check, generic over which system it is.
fn drive<S: System>(mut sys: S) -> BTreeMap<String, Vec<u8>> {
    assert!(
        sys.run_until_done(Time::from_secs(300)),
        "{} did not drain",
        S::NAME
    );
    // Quiesce: let reliable-transport retransmissions of the last
    // commits land before inspecting replica state.
    sys.run_for(Time::from_secs(2));
    for c in 0..sys.client_count() {
        assert!(
            sys.client(c).records().iter().all(nice::kv::OpRecord::ok),
            "{} client {c} had failed ops",
            S::NAME
        );
    }
    committed_state(S::NAME, sys.stores().into_iter())
}

/// Fold every server's committed objects into one `key → bytes` map,
/// asserting replicas agree within the system and no 2PC state is left
/// in doubt (no orphaned locks, no uncommitted pendings).
fn committed_state<'a>(
    system: &str,
    stores: impl Iterator<Item = &'a ObjectStore>,
) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for (i, store) in stores.enumerate() {
        assert!(
            store.in_doubt().is_empty(),
            "{system} server {i} left in-doubt puts: {:?}",
            store.in_doubt()
        );
        for (key, obj) in store.iter() {
            let bytes = obj.value.bytes.as_ref().clone();
            if let Some(prev) = out.insert(key.clone(), bytes.clone()) {
                assert_eq!(prev, bytes, "{system} replicas disagree on `{key}`",);
            }
        }
    }
    out
}

/// Drive the same workload + plan through NICE and through NOOB in
/// `mode`, and compare the final committed stores byte for byte.
fn assert_systems_agree(seed: u64, plan: Option<FaultPlan>, mode: NoobMode) {
    let wl = Workload::a(RECORDS);
    let ops = build_ops(&wl, seed);
    // The paper's system: 2PC over switch multicast, vring addressing.
    let nice_map = drive(NiceCluster::build(shared_cfg(seed, &plan, &ops)));
    // The baseline: unicast replication in `mode`, client-side routing
    // (RAC).
    let cfg = NoobClusterCfg::from_nice(&shared_cfg(seed, &plan, &ops), Access::Rac, mode);
    let noob_map = drive(NoobCluster::build(cfg));
    assert_eq!(
        nice_map.len(),
        RECORDS as usize,
        "NICE is missing committed keys"
    );
    assert_eq!(
        nice_map, noob_map,
        "final committed stores diverge (seed {seed}, NOOB {mode:?})"
    );
}

/// A NOOB mode against NICE on both fault-free seeds.
fn assert_mode_agrees(mode: NoobMode) {
    for seed in [11, 12] {
        assert_systems_agree(seed, None, mode);
    }
}

#[test]
fn nice_and_noob_converge_seed_11() {
    assert_systems_agree(11, None, NoobMode::TwoPc);
}

#[test]
fn nice_and_noob_converge_seed_12() {
    assert_systems_agree(12, None, NoobMode::TwoPc);
}

#[test]
fn nice_and_noob_converge_under_lossy_network() {
    // Loss + duplication + jitter from client start onward: retries and
    // RUDP retransmission must mask it all without forking state.
    let plan = FaultPlan::new(11)
        .loss(0.02)
        .duplication(0.01)
        .extra_delay(0.05, Time::from_us(200))
        .window(Time::from_ms(50), Time::MAX);
    assert_systems_agree(11, Some(plan), NoobMode::TwoPc);
}

#[test]
fn nice_and_noob_primary_only_converge() {
    assert_mode_agrees(NoobMode::PrimaryOnly);
}

#[test]
fn nice_and_noob_quorum_converge() {
    assert_mode_agrees(NoobMode::Quorum { k: 2 });
}

#[test]
fn nice_and_noob_chain_converge() {
    assert_mode_agrees(NoobMode::Chain);
}
