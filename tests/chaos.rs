//! The seeded chaos suite: NICE and NOOB under randomized fault
//! schedules, checked against per-key linearizability.
//!
//! Every run follows the same shape: derive a [`ChaosPlan`] from one
//! seed (crash/restart windows, node isolations, packet loss /
//! duplication / delay, optional metadata failover and admin churn),
//! install its `FaultPlan` on the simulator, drive a wave-based put/get
//! workload across the fault window, and finally feed everything the
//! clients observed into the [`History`] checker. A run passes when all
//! clients drain, enough operations succeeded for the history to be
//! non-vacuous, and every per-key history linearizes.
//!
//! Fast tier (`cargo test --test chaos`): two fixed seeds per system ×
//! mode cell, plus the replay-identity, checker-mutation, and
//! metadata-failover tests. Full sweep (`--include-ignored`, run by
//! `scripts/check.sh --release`): seeds 1..=8 across the whole matrix.
//! Set `CHAOS_SEED=<n>` to replay one chosen seed through the sweep.

use nice::kv::{
    server_ip, AdminOp, ClientApp, ClientOp, ClusterCfg, Deployment, KvClient, MetaRole,
    MetadataApp, NiceCluster, NiceSys, PutMode, SimCluster, Value,
};
use nice::kv_core::{
    AdminEvent, ChaosPlan, ChaosSpec, History, RetryPolicy, Violation, ViolationKind,
};
use nice::noob::{Access, NoobCluster, NoobClusterCfg, NoobMode, NoobSys};
use nice::ring::{NodeIdx, PartitionId};
use nice::sim::{FaultPlan, Ipv4, Time};
use nice::workload::XorShiftRng;

const NODES: usize = 8;
const R: usize = 3;
const CLIENTS: usize = 4;
const HORIZON: Time = Time::from_secs(8);
const DEADLINE: Time = Time::from_secs(120);
/// Workload waves: pushed every `WAVE_GAP` starting at `WAVE_START`, so
/// operations are in flight across the whole fault window.
const WAVES: usize = 11;
const WAVE_START: Time = Time::from_ms(500);
const WAVE_GAP: Time = Time::from_ms(700);
const OPS_PER_WAVE: usize = 4;

/// One cell of the {system} × {replication mode} matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// NICE with the §4.3 2PC protocol (plus metadata failover and admin
    /// churn in its chaos spec — the full §4.4 machinery).
    NiceTwoPc,
    /// NICE with §6.3 any-k quorum puts (k = R): the "primary-only"-like
    /// direct path, no 2PC rounds.
    NiceQuorum,
    /// NOOB with 2PC across replicas (RAC direct routing).
    NoobTwoPc,
    /// NOOB primary-backup (Figure 2 solid arrows; durable at all
    /// replicas before the ack).
    NoobPrimary,
}

impl Cell {
    fn spec(self) -> ChaosSpec {
        match self {
            // NICE runs the full nemesis; NOOB has no failure detector or
            // failover, so its schedule sticks to crash/restart +
            // isolation + packet-level faults.
            Cell::NiceTwoPc => ChaosSpec {
                nodes: NODES,
                horizon: HORIZON,
                crashes: 2,
                isolations: 1,
                metadata_failover: true,
                admin_churn: true,
            },
            Cell::NiceQuorum => ChaosSpec {
                nodes: NODES,
                horizon: HORIZON,
                crashes: 2,
                isolations: 1,
                metadata_failover: false,
                admin_churn: false,
            },
            Cell::NoobTwoPc | Cell::NoobPrimary => ChaosSpec {
                nodes: NODES,
                horizon: HORIZON,
                crashes: 1,
                isolations: 1,
                metadata_failover: false,
                admin_churn: false,
            },
        }
    }

    /// Contended multi-writer keys are only sound under 2PC; the direct
    /// paths order concurrent writers by client-local sequence numbers,
    /// so their chaos workloads keep each key single-writer.
    fn shared_keys(self) -> bool {
        matches!(self, Cell::NiceTwoPc | Cell::NoobTwoPc)
    }
}

/// What one chaos run produced.
struct RunOutcome {
    history: History,
    /// plan render + fault trace + history render: the byte-identity
    /// replay witness.
    trace: String,
    drained: bool,
    pushed_ops: usize,
    /// Per-client wedge report when `!drained` (empty otherwise).
    stuck: String,
}

/// Describe what a wedged client is doing, for drain-failure asserts.
fn client_debug(j: usize, core: &kv_core::ClientCore) -> String {
    let inflight = match core.inflight_detail() {
        Some((op, id, start, attempts)) => format!(
            "inflight {op:?} id={id:?} since={}ns attempts={attempts}",
            start.as_ns()
        ),
        None => "idle".to_owned(),
    };
    format!(
        "client {j}: done_at={:?} records={} {inflight}\n",
        core.done_at,
        core.records.len()
    )
}

// ---------------------------------------------------------------------
// The generic drive harness: both systems are one `SimCluster` whose
// client apps implement `KvClient`, so NICE and NOOB share one code path
// instead of mirrored per-system blocks.
// ---------------------------------------------------------------------

/// Push one wave of per-client op lists; returns how many ops were fed.
fn push_wave<D: Deployment>(c: &mut SimCluster<D>, per_client: &[Vec<ClientOp>]) -> usize {
    let mut pushed = 0;
    for (j, &h) in c.clients.iter().enumerate() {
        let ops = per_client[j].clone();
        pushed += ops.len();
        c.sim.app_mut::<D::Client>(h).push_ops(ops);
    }
    pushed
}

/// Feed everything every client observed into one [`History`].
fn record_history<D: Deployment>(c: &SimCluster<D>) -> History {
    let mut history = History::new();
    for (j, &ip) in c.client_ips.iter().enumerate() {
        history.record_client(ip, c.client(j).core());
    }
    history
}

/// The common tail of a chaos run: wedge report, history capture, and
/// the byte-identity replay trace.
fn finish_run<D: Deployment>(
    c: &SimCluster<D>,
    plan: &ChaosPlan,
    drained: bool,
    pushed: usize,
) -> RunOutcome {
    let stuck = if drained {
        String::new()
    } else {
        (0..c.clients.len())
            .map(|j| client_debug(j, c.client(j).core()))
            .collect()
    };
    let history = record_history(c);
    let trace = plan.render() + &c.sim.fault_trace() + &history.render();
    RunOutcome {
        history,
        trace,
        drained,
        pushed_ops: pushed,
        stuck,
    }
}

/// The per-client operation waves for one seed: `[wave][client]` op
/// lists, a pure function of `(seed, shared)`.
fn waves(seed: u64, shared: bool) -> Vec<Vec<Vec<ClientOp>>> {
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x00C4_A05C_4A05_C4A0);
    let mut out = Vec::with_capacity(WAVES);
    for w in 0..WAVES {
        let mut per_client = Vec::with_capacity(CLIENTS);
        for j in 0..CLIENTS {
            let mut ops = Vec::with_capacity(OPS_PER_WAVE);
            for i in 0..OPS_PER_WAVE {
                let key = if shared && rng.random_f64() < 0.35 {
                    format!("hot-{}", rng.random_range(0u64..2))
                } else {
                    format!("s{seed}-c{j}-k{}", rng.random_range(0u64..3))
                };
                if rng.random_f64() < 0.6 {
                    ops.push(ClientOp::Put {
                        key,
                        value: Value::from_bytes(format!("v-s{seed}-c{j}-w{w}-o{i}").into_bytes()),
                    });
                } else {
                    ops.push(ClientOp::Get { key });
                }
            }
            per_client.push(ops);
        }
        out.push(per_client);
    }
    out
}

fn wave_time(w: usize) -> Time {
    WAVE_START + WAVE_GAP * w as u64
}

/// Both clusters hand out the same storage addresses; computing them up
/// front lets the fault plan exist before the cluster does.
fn storage_ips(total: usize) -> Vec<Ipv4> {
    (0..total).map(server_ip).collect()
}

fn fast_timers(cfg: &mut ClusterCfg, seed: u64) {
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    // Retry backoff, exercised under chaos: doubling delays from 400 ms,
    // capped at 1.6 s, with 30% deterministic jitter.
    cfg.spec.retry = Some(RetryPolicy {
        base: Time::from_ms(400),
        cap: Time::from_ms(1600),
        exponential: true,
        jitter_pct: 30,
        seed,
    });
}

/// The deployment both systems' chaos runs start from: `plan`'s faults,
/// a late client start, fast timers.
fn chaos_cfg(seed: u64, plan: &ChaosPlan) -> ClusterCfg {
    let mut cfg = ClusterCfg::new(NODES, R, vec![Vec::new(); CLIENTS]);
    cfg.spec.seed = seed;
    cfg.host.client_start = Time::from_ms(400);
    cfg.host.fault_plan = Some(plan.fault_plan(&storage_ips(NODES)));
    fast_timers(&mut cfg, seed);
    cfg
}

fn run_nice(seed: u64, mode: PutMode, spec: &ChaosSpec, shared: bool) -> RunOutcome {
    let plan = ChaosPlan::generate(seed, spec);
    let mut cfg = chaos_cfg(seed, &plan);
    cfg.kv.put_mode = mode;
    if plan.meta_crash.is_some() {
        cfg.metadata_standby = true;
    }
    if !plan.admin.is_empty() {
        cfg.spec.spares = 1;
    }
    let mut c = NiceCluster::build(cfg);
    assert_eq!(&c.server_ips[..NODES], &storage_ips(NODES)[..]);
    if let Some(t) = plan.meta_crash {
        c.sim.schedule_crash(t, c.sys.meta);
    }

    // Merge workload waves and admin events into one timeline.
    enum Act {
        Wave(usize),
        Admin(AdminEvent),
    }
    let mut timeline: Vec<(Time, Act)> = (0..WAVES).map(|w| (wave_time(w), Act::Wave(w))).collect();
    for &(t, ev) in &plan.admin {
        timeline.push((t, Act::Admin(ev)));
    }
    timeline.sort_by_key(|&(t, _)| t);

    let wave_ops = waves(seed, shared);
    let mut pushed = 0usize;
    for (t, act) in timeline {
        c.sim.run_until(t);
        match act {
            Act::Wave(w) => {
                pushed += push_wave(&mut c, &wave_ops[w]);
            }
            Act::Admin(ev) => {
                // Queue on whichever metadata service is alive: the
                // standby owns the cluster once the active crashed.
                let meta_dead = plan.meta_crash.is_some_and(|mc| mc <= t);
                let host = if meta_dead {
                    c.sys.meta_standby.unwrap_or(c.sys.meta)
                } else {
                    c.sys.meta
                };
                let op = match ev {
                    AdminEvent::AddNode(n) => AdminOp::AddNode(NodeIdx(n as u32)),
                    AdminEvent::RemoveNode(n) => AdminOp::RemoveNode(NodeIdx(n as u32)),
                };
                c.sim.app_mut::<MetadataApp>(host).queue_admin(op);
            }
        }
    }
    let drained = c.run_until_done(DEADLINE);
    finish_run(&c, &plan, drained, pushed)
}

fn run_noob(seed: u64, mode: NoobMode, spec: &ChaosSpec, shared: bool) -> RunOutcome {
    let plan = ChaosPlan::generate(seed, spec);
    // RAC direct routing: clients know placement, no gateway middlebox —
    // the fault schedule hits the storage protocol, nothing else.
    let cfg = NoobClusterCfg::from_nice(&chaos_cfg(seed, &plan), Access::Rac, mode);
    let mut c = NoobCluster::build(cfg);

    let wave_ops = waves(seed, shared);
    let mut pushed = 0usize;
    for (w, per_client) in wave_ops.iter().enumerate() {
        c.sim.run_until(wave_time(w));
        pushed += push_wave(&mut c, per_client);
    }
    let drained = c.run_until_done(DEADLINE);
    finish_run(&c, &plan, drained, pushed)
}

fn run_cell(cell: Cell, seed: u64) -> RunOutcome {
    let spec = cell.spec();
    let shared = cell.shared_keys();
    match cell {
        Cell::NiceTwoPc => run_nice(seed, PutMode::TwoPc, &spec, shared),
        Cell::NiceQuorum => run_nice(seed, PutMode::Quorum { k: R }, &spec, shared),
        Cell::NoobTwoPc => run_noob(seed, NoobMode::TwoPc, &spec, shared),
        Cell::NoobPrimary => run_noob(seed, NoobMode::PrimaryOnly, &spec, shared),
    }
}

fn assert_run_ok(cell: Cell, seed: u64, out: &RunOutcome) {
    assert!(
        out.drained,
        "{cell:?} seed {seed}: clients never drained (ops wedged past the heal horizon)\n{}",
        out.stuck
    );
    let violations = out.history.check();
    assert!(
        violations.is_empty(),
        "{cell:?} seed {seed}: {} linearizability violations:\n{}\nhistory:\n{}",
        violations.len(),
        violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
        out.history.render(),
    );
    // Non-vacuity: chaos must not have starved the run of real evidence.
    assert!(
        out.history.ok_count() * 2 >= out.pushed_ops,
        "{cell:?} seed {seed}: only {}/{} ops succeeded — schedule too hostile to mean anything",
        out.history.ok_count(),
        out.pushed_ops,
    );
}

const FAST_SEEDS: [u64; 2] = [11, 12];

#[test]
fn chaos_fast_nice_twopc() {
    for seed in FAST_SEEDS {
        assert_run_ok(Cell::NiceTwoPc, seed, &run_cell(Cell::NiceTwoPc, seed));
    }
}

#[test]
fn chaos_fast_nice_quorum() {
    for seed in FAST_SEEDS {
        assert_run_ok(Cell::NiceQuorum, seed, &run_cell(Cell::NiceQuorum, seed));
    }
}

#[test]
fn chaos_fast_noob_twopc() {
    for seed in FAST_SEEDS {
        assert_run_ok(Cell::NoobTwoPc, seed, &run_cell(Cell::NoobTwoPc, seed));
    }
}

#[test]
fn chaos_fast_noob_primary() {
    for seed in FAST_SEEDS {
        assert_run_ok(Cell::NoobPrimary, seed, &run_cell(Cell::NoobPrimary, seed));
    }
}

/// The full acceptance sweep: ≥ 8 seeds × {NICE, NOOB} × {2PC,
/// primary-only}. Release tier only (`scripts/check.sh --release` runs
/// it via `--include-ignored`). `CHAOS_SEED=<n>` narrows it to one
/// chosen seed for replay/debugging.
#[test]
#[ignore = "full seed sweep: run with --release --include-ignored (or CHAOS_SEED=<n>)"]
fn chaos_sweep_full_matrix() {
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => (1..=8).collect(),
    };
    for cell in [
        Cell::NiceTwoPc,
        Cell::NiceQuorum,
        Cell::NoobTwoPc,
        Cell::NoobPrimary,
    ] {
        for &seed in &seeds {
            assert_run_ok(cell, seed, &run_cell(cell, seed));
        }
    }
}

/// 64-bit FNV-1a: a stable digest of a replay trace.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of the seed-5 and seed-6 replay traces, one pair per cell of
/// the matrix. They pin replay across commits, not just within one: a
/// change that claims to leave simulated behaviour alone must leave these
/// alone. These cells inject loss and outages, so client retry timers and
/// coordinator deadlines really do come due. A behaviour-changing commit
/// updates them and says why.
const REPLAY_DIGESTS: [(Cell, u64, u64); 4] = [
    (
        Cell::NiceTwoPc,
        0x366f_8358_cb30_977b,
        0x5be8_db07_dc16_50b3,
    ),
    (
        Cell::NiceQuorum,
        0x6a08_f510_566e_1af7,
        0x035c_9184_b292_37a9,
    ),
    (
        Cell::NoobTwoPc,
        0x58a7_f508_0036_d320,
        0x6ab9_10c4_9b24_5801,
    ),
    (
        Cell::NoobPrimary,
        0x1c60_48eb_df5e_49b3,
        0x23ad_f71d_6020_01d8,
    ),
];

#[test]
fn chaos_replay_is_byte_identical() {
    for (cell, digest5, digest6) in REPLAY_DIGESTS {
        let a = run_cell(cell, 5);
        let b = run_cell(cell, 5);
        assert_eq!(
            a.trace, b.trace,
            "{cell:?}: same seed must replay the plan, the fault trace, and the history \
             byte-for-byte"
        );
        let c = run_cell(cell, 6);
        assert_ne!(
            a.trace, c.trace,
            "{cell:?}: different seeds must actually differ"
        );
        let got = (fnv1a64(a.trace.as_bytes()), fnv1a64(c.trace.as_bytes()));
        assert_eq!(
            got,
            (digest5, digest6),
            "{cell:?}: the seed-5/6 replays differ from the pinned ones"
        );
    }
}

// ---------------------------------------------------------------------
// Checker mutation: break the §3.3 get-ring-hiding rule on purpose.
// ---------------------------------------------------------------------

/// The `rejoining_node_with_lost_catchup_stays_off_get_ring` scenario,
/// re-run as a *history* experiment: all writes land while a replica is
/// down, its catch-up traffic is swallowed by a partition, and then gets
/// are spread across every LB division. With the §3.3 rule intact the
/// rejoining node stays invisible and every get is served consistently;
/// with the deliberate mutation it serves (empty-store) gets.
fn ring_hiding_violations(break_hiding: bool) -> Vec<Violation> {
    let probe = NiceCluster::build(ClusterCfg::new(NODES, R, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 10);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1] as usize;
    let victim_ip = probe.server_ips[victim];
    let others: Vec<Ipv4> = probe
        .server_ips
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, &ip)| ip)
        .collect();
    drop(probe);

    let puts: Vec<ClientOp> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("mv{i}").into_bytes()),
        })
        .collect();
    let plan = FaultPlan::new(9)
        .outage(victim, Time::from_ms(100), Time::from_secs(2))
        .partition(
            vec![victim_ip],
            others,
            Time::from_secs(2),
            Time::from_secs(600),
        );
    let mut clients = vec![Vec::new(); CLIENTS];
    clients[0] = puts;
    let mut cfg = ClusterCfg::new(NODES, R, clients);
    cfg.host.client_start = Time::from_ms(500);
    cfg.host.fault_plan = Some(plan);
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(400)));
    cfg.kv.break_rejoin_get_hiding = break_hiding;
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(30)), "puts drain");

    // 4 s: the victim has rejoined the put ring but its catch-up is
    // blocked, so it sits in the Rejoining state with an empty store.
    // Fan gets out from every client — the LB divisions map one of them
    // onto each get target.
    c.sim.run_until(Time::from_secs(4));
    for &h in &c.clients.clone() {
        c.sim
            .app_mut::<ClientApp>(h)
            .push_ops(keys.iter().map(|k| ClientOp::Get { key: k.clone() }));
    }
    assert!(c.run_until_done(Time::from_secs(40)), "gets drain");

    record_history(&c).check()
}

#[test]
fn checker_catches_broken_get_ring_hiding() {
    let broken = ring_hiding_violations(true);
    assert!(
        !broken.is_empty(),
        "the deliberate §3.3 mutation produced no violation — the checker is blind"
    );
    assert!(
        broken.iter().any(|v| v.kind == ViolationKind::StaleRead),
        "expected stale reads from the rejoining node's empty store: {broken:?}"
    );
    // Control: the intact rule must keep the very same schedule clean.
    let intact = ring_hiding_violations(false);
    assert!(intact.is_empty(), "{intact:?}");
}

// ---------------------------------------------------------------------
// Metadata hot-standby takeover mid-put-storm.
// ---------------------------------------------------------------------

#[test]
fn metadata_failover_mid_put_storm_linearizes() {
    // The active metadata service dies while a put storm is in flight;
    // the hot standby promotes itself and then has to orchestrate a
    // storage-node failure on its own. The clients' history must still
    // linearize end to end.
    let probe = NiceCluster::build(ClusterCfg::new(NODES, R, Vec::new()));
    let victim = probe.sys.ring.replica_set(PartitionId(0))[1].0 as usize;
    drop(probe);

    const STORM_CLIENTS: usize = 3;
    const STORM_WAVES: usize = 8;
    const STORM_WAVE_OPS: usize = 250;
    let mut rng = XorShiftRng::seed_from_u64(0x57_0231);
    let mut storm: Vec<Vec<Vec<ClientOp>>> = Vec::new(); // [wave][client]
    for w in 0..STORM_WAVES {
        let mut per_client = Vec::new();
        for j in 0..STORM_CLIENTS {
            let mut ops = Vec::with_capacity(STORM_WAVE_OPS);
            for i in 0..STORM_WAVE_OPS {
                // Mostly single-writer keys, a sprinkle of 2PC-contended
                // shared ones; both stay under the checker's per-key cap.
                let key = if rng.random_f64() < 0.05 {
                    format!("storm-hot-{}", rng.random_range(0u64..8))
                } else {
                    format!("storm-c{j}-k{}", rng.random_range(0u64..30))
                };
                if rng.random_f64() < 0.6 {
                    ops.push(ClientOp::Put {
                        key,
                        value: Value::from_bytes(format!("sv-c{j}-w{w}-o{i}").into_bytes()),
                    });
                } else {
                    ops.push(ClientOp::Get { key });
                }
            }
            per_client.push(ops);
        }
        storm.push(per_client);
    }

    let mut cfg = ClusterCfg::new(NODES, R, vec![Vec::new(); STORM_CLIENTS]);
    cfg.spec.seed = 23;
    cfg.metadata_standby = true;
    cfg.host.client_start = Time::from_ms(400);
    fast_timers(&mut cfg, 23);
    let mut c = NiceCluster::build(cfg);
    let standby = c.sys.meta_standby.expect("standby deployed");
    // Meta dies early in the storm; a storage secondary dies after the
    // promotion — only the new active can install its handoff.
    c.sim.schedule_crash(Time::from_ms(800), c.sys.meta);
    c.sim.schedule_crash(Time::from_ms(1600), c.servers[victim]);

    let mut pushed = 0usize;
    for (w, per_client) in storm.iter().enumerate() {
        c.sim
            .run_until(Time::from_ms(500) + Time::from_ms(400) * w as u64);
        pushed += push_wave(&mut c, per_client);
    }
    assert!(c.run_until_done(Time::from_secs(60)), "storm drains");

    let sb = c.sim.app::<MetadataApp>(standby);
    assert_eq!(sb.role(), MetaRole::Active, "standby promoted itself");

    let history = record_history(&c);
    let violations = history.check();
    assert!(
        violations.is_empty(),
        "{} violations across the failover:\n{}",
        violations.len(),
        violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
    );
    assert!(
        history.ok_count() * 2 >= pushed,
        "only {}/{pushed} ops succeeded",
        history.ok_count()
    );
}

/// Telemetry determinism contract: two chaos runs from the same seed —
/// same fault plan, same workload, same config — must produce
/// byte-identical metrics snapshots, on NICE and on NOOB (2PC, RAC).
/// Every histogram bucket and counter in the merged cluster registry is
/// derived from simulated time and seeded draws, so even one wall-clock
/// or hash-order leak into the snapshot path shows up here as a diff.
#[test]
fn same_seed_chaos_runs_yield_byte_identical_telemetry() {
    let mut ops: Vec<Vec<ClientOp>> = vec![Vec::new(); 3];
    let mut rng = XorShiftRng::seed_from_u64(0x7E1E);
    for (j, per_client) in ops.iter_mut().enumerate() {
        for i in 0..40 {
            let key = format!("t{}", rng.random_range(0u64..24));
            if i % 4 == 0 {
                per_client.push(ClientOp::Put {
                    key,
                    value: Value::synthetic(256 + j as u32),
                });
            } else {
                per_client.push(ClientOp::Get { key });
            }
        }
    }
    let mut cfg = ClusterCfg::new(6, 3, ops);
    cfg.spec.seed = 0x7E1E;
    cfg.spec.retry_not_found = true;
    cfg.host.fault_plan = Some(FaultPlan::new(0x7E1E).loss(0.01).duplication(0.005));
    fast_timers(&mut cfg, 0x7E1E);
    let noob = NoobClusterCfg::from_nice(&cfg, Access::Rac, NoobMode::TwoPc);
    let a = telemetry_of::<NiceSys>(cfg.clone());
    let b = telemetry_of::<NiceSys>(cfg);
    assert_eq!(a, b, "NICE: same seed must replay to identical telemetry");
    assert_eq!(
        telemetry_of::<NoobSys>(noob.clone()),
        telemetry_of::<NoobSys>(noob),
        "NOOB: same seed must replay to identical telemetry"
    );
    // The snapshot must be non-vacuous: the hot-path histograms and the
    // engine counters all saw traffic. The list also pins the spelling
    // of every name `perfbench/` reads by string — `counter()` returns 0
    // for an unknown name, so a rename would silently zero a per-layer
    // metric. Kind prefix + trailing space make each needle a whole name
    // (`wal.sync` vs `wal.syncs`). Not pinned here: `engine.queued`,
    // which this low-contention run never bumps.
    for needle in [
        "hist client.put_e2e ",
        "hist client.get_e2e ",
        "counter client.retries ",
        "hist client.retry_wait ",
        "hist engine.lock_to_write ",
        "hist engine.lock_to_ack1 ",
        "hist engine.lock_to_commit ",
        "counter engine.puts_committed ",
        "counter engine.puts_aborted ",
        "counter engine.forwarded ",
        "hist wal.sync ",
        "counter wal.syncs ",
        "counter wal.appends ",
        "counter store.bytes_written ",
        "counter transport.probes ",
        "counter transport.nacks_sent ",
        "counter transport.repairs ",
        "counter transport.syn_retries ",
    ] {
        assert!(a.contains(needle), "snapshot is missing {needle}:\n{a}");
    }
}

/// Run one lossy telemetry workload to completion and render the merged
/// registry.
fn telemetry_of<D: Deployment>(cfg: D::Cfg) -> String {
    let mut c = SimCluster::<D>::build(cfg);
    assert!(c.run_until_done(Time::from_secs(120)), "chaos run drains");
    c.metrics().render()
}
