//! Crash–restart survivability on the real runtime: seeded kill/restart
//! storms over real loopback UDP, with durable WAL recovery underneath.
//!
//! The contract under test is fsync-before-ack end to end: once a client
//! saw `ok()` for a put, a storm of node crashes, restarts, packet loss,
//! and duplication must never lose that write. Crashed nodes come back
//! under the same identity, replay their file WAL, run the two-phase
//! rejoin (sync from peers before serving gets), and the final reads
//! must find every acknowledged value.
//!
//! The schedule is a [`ChaosPlan`] — a pure function of one seed — so a
//! failure replays exactly: `CHAOS_SEED=<n> cargo test --test
//! runtime_chaos`. As with `tests/real_cluster.rs`, assertions are on
//! protocol outcomes, never on timing.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nice::kv_core::{ChaosPlan, ChaosSpec, History, RetryPolicy};
use nice::noob::real::server_ip;
use nice::noob::{GatewayPolicy, NoobMode, RealNoobCfg, RealNoobCluster, RealOp};
use nice::rt::{Ipv4, Time};

/// Storage nodes in the storm cluster.
const SERVERS: usize = 5;
/// Distinct keys the storm workload cycles over.
const STORM_KEYS: usize = 48;

/// The replay seed: `CHAOS_SEED` env var, or the committed default.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A5)
}

/// The storm schedule shape: three crash/restart windows on distinct
/// nodes under packet loss/duplication/delay, all healed by the horizon.
fn storm_spec() -> ChaosSpec {
    ChaosSpec {
        nodes: SERVERS,
        horizon: Time::from_secs(6),
        crashes: 3,
        isolations: 0,
        metadata_failover: false,
        admin_churn: false,
    }
}

/// A process-unique scratch directory for WAL files.
fn scratch_wal_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nice-wal-{tag}-{}", std::process::id()))
}

fn wait_done(cluster: &RealNoobCluster, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cluster.all_done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    cluster.all_done()
}

/// Wait until every listed server is up and past its rejoin sync phase.
fn wait_ready(cluster: &RealNoobCluster, servers: &[usize], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if servers.iter().all(|&i| cluster.server_ready(i)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    servers.iter().all(|&i| cluster.server_ready(i))
}

fn assert_linearizable(history: &History) {
    let violations = history.check();
    assert!(
        violations.is_empty(),
        "storm history is not per-key linearizable:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

/// The schedule is a pure function of the seed: deriving it twice gives
/// byte-identical renders, which is what makes `CHAOS_SEED=<n>` an exact
/// replay and lets a CI failure be reproduced locally from one number.
#[test]
fn chaos_plan_replays_byte_identical_for_same_seed() {
    let seed = chaos_seed();
    let a = ChaosPlan::generate(seed, &storm_spec());
    let b = ChaosPlan::generate(seed, &storm_spec());
    assert_eq!(a.render(), b.render());
    assert!(a.outages().len() >= 3, "storm spec draws 3 crash windows");
    assert_ne!(
        a.render(),
        ChaosPlan::generate(seed ^ 1, &storm_spec()).render(),
        "different seeds must draw different schedules"
    );
}

/// WAL recovery in isolation (no nemesis): acknowledge writes, crash
/// *every* server at once — volatile state is gone cluster-wide — then
/// restart and read everything back. The data can only have come from
/// the per-node WAL files.
#[test]
fn wal_replay_survives_whole_cluster_crash() {
    let wal_root = scratch_wal_root("replay");
    let _ = std::fs::remove_dir_all(&wal_root);
    let mut cfg = RealNoobCfg::new(3, 2, vec![Vec::new()]);
    cfg.mode = NoobMode::Quorum { k: 1 };
    cfg.gateway = Some(GatewayPolicy::Primary);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(200)));
    cfg.spec.op_deadline = Some(Time::from_secs(3));
    cfg.host.wal_root = Some(wal_root.clone());
    let mut cluster = RealNoobCluster::build(cfg);

    let puts: Vec<RealOp> = (0..24)
        .map(|i| RealOp::Put {
            key: format!("stable{i}"),
            bytes: format!("v{i}").into_bytes(),
        })
        .collect();
    cluster.push_client_ops(0, puts);
    assert!(
        wait_done(&cluster, Duration::from_secs(30)),
        "healthy puts did not drain"
    );
    for r in &cluster.client_records(0) {
        assert!(r.ok(), "healthy put failed: {:?}", r.err());
    }

    // Lights out: every storage node drops its volatile state.
    for i in 0..3 {
        cluster.crash_server(i);
    }
    for i in 0..3 {
        assert!(
            cluster.server_recovered(i).is_none(),
            "server {i} should be down"
        );
    }
    for i in 0..3 {
        cluster.restart_server(i);
    }
    assert!(
        wait_ready(&cluster, &[0, 1, 2], Duration::from_secs(10)),
        "restarted servers never finished their rejoin sync"
    );
    let recovered: usize = (0..3).filter_map(|i| cluster.server_recovered(i)).sum();
    assert!(
        recovered >= 24,
        "24 acked puts must leave at least 24 WAL records cluster-wide, got {recovered}"
    );

    let gets: Vec<RealOp> = (0..24)
        .map(|i| RealOp::Get {
            key: format!("stable{i}"),
        })
        .collect();
    cluster.push_client_ops(0, gets);
    assert!(
        wait_done(&cluster, Duration::from_secs(30)),
        "post-recovery reads did not drain"
    );
    let records = cluster.client_records(0);
    for (i, r) in records.iter().skip(24).enumerate() {
        assert!(
            r.ok(),
            "acked key stable{i} lost across the cluster-wide crash: {:?}",
            r.err()
        );
        assert_eq!(
            r.bytes.as_deref(),
            Some(format!("v{i}").as_bytes()),
            "key stable{i} recovered the wrong value"
        );
    }
    assert_linearizable(&cluster.history());
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// The acceptance storm: a 5-node WAL-backed cluster behind a gateway
/// takes three seeded crash/restart hits while the socket nemesis
/// drops, duplicates, and delays datagrams — with a closed-loop put/get
/// workload running throughout. Afterwards: every acknowledged write is
/// still readable, the combined history (storm + final audit reads)
/// linearizes per key, and the nemesis provably saw traffic.
#[test]
fn seeded_storm_loses_no_acknowledged_write() {
    let seed = chaos_seed();
    let plan = ChaosPlan::generate(seed, &storm_spec());
    eprintln!("replay with CHAOS_SEED={seed}\n{}", plan.render());

    let wal_root = scratch_wal_root(&format!("storm-{seed}"));
    let _ = std::fs::remove_dir_all(&wal_root);
    let mut cfg = RealNoobCfg::new(SERVERS, 2, vec![Vec::new(), Vec::new(), Vec::new()]);
    cfg.spec.seed = seed;
    cfg.mode = NoobMode::Quorum { k: 1 };
    cfg.gateway = Some(GatewayPolicy::Primary);
    // Exponential backoff keeps retry floods off a downed node; the
    // total deadline bounds every op even when its primary is mid-
    // crash, so the closed-loop queue keeps moving through the storm.
    cfg.spec.retry = Some(RetryPolicy {
        base: Time::from_ms(100),
        cap: Time::from_ms(800),
        exponential: true,
        jitter_pct: 30,
        seed,
    });
    cfg.spec.op_deadline = Some(Time::from_secs(3));
    cfg.host.wal_root = Some(wal_root.clone());
    let storage_ips: Vec<Ipv4> = (0..SERVERS).map(server_ip).collect();
    cfg.host.nemesis = Some(plan.fault_plan(&storage_ips));
    let mut cluster = RealNoobCluster::build(cfg);

    // The storm timeline: crash/restart events from the plan, plus
    // workload waves every 400 ms so operations are in flight across
    // every fault window. All driven from this thread off one clock.
    enum Ev {
        Crash(usize),
        Restart(usize),
        Wave(usize),
    }
    let mut timeline: Vec<(Time, Ev)> = Vec::new();
    for c in plan.outages() {
        timeline.push((c.down, Ev::Crash(c.node)));
        timeline.push((c.up, Ev::Restart(c.node)));
    }
    let mut wave = 0;
    let mut t = Time::from_ms(200);
    while t < storm_spec().horizon {
        timeline.push((t, Ev::Wave(wave)));
        wave += 1;
        t += Time::from_ms(400);
    }
    timeline.sort_by_key(|&(t, _)| t.as_ns());

    let start = Instant::now();
    for (at, ev) in timeline {
        let target = Duration::from_nanos(at.as_ns());
        if let Some(gap) = target.checked_sub(start.elapsed()) {
            std::thread::sleep(gap);
        }
        match ev {
            Ev::Crash(n) => cluster.crash_server(n),
            Ev::Restart(n) => cluster.restart_server(n),
            Ev::Wave(w) => {
                for j in 0..cluster.client_ips.len() {
                    let ops: Vec<RealOp> = (0..4)
                        .map(|i| {
                            let k = (w * 7 + j * 13 + i * 3) % STORM_KEYS;
                            if i % 2 == 0 {
                                RealOp::Put {
                                    key: format!("storm{k}"),
                                    bytes: format!("c{j}-w{w}-i{i}").into_bytes(),
                                }
                            } else {
                                RealOp::Get {
                                    key: format!("storm{k}"),
                                }
                            }
                        })
                        .collect();
                    cluster.push_client_ops(j, ops);
                }
            }
        }
    }

    assert!(
        wait_done(&cluster, Duration::from_secs(120)),
        "storm workload did not drain after the faults healed"
    );
    let restarted: Vec<usize> = plan.outages().iter().map(|c| c.node).collect();
    assert!(
        wait_ready(&cluster, &restarted, Duration::from_secs(15)),
        "a restarted server never finished its rejoin sync"
    );

    // Every value ever sent per key, and the set of keys with at least
    // one *acknowledged* put — the survivability obligation.
    let mut sent: BTreeMap<String, BTreeSet<Vec<u8>>> = BTreeMap::new();
    let mut acked: BTreeSet<String> = BTreeSet::new();
    let mut acked_puts = 0usize;
    for j in 0..cluster.client_ips.len() {
        for r in cluster.client_records(j) {
            if r.is_put {
                if let Some(b) = &r.bytes {
                    sent.entry(r.key.clone()).or_default().insert(b.clone());
                }
                if r.ok() {
                    acked.insert(r.key.clone());
                    acked_puts += 1;
                }
            }
        }
    }
    assert!(
        acked_puts >= STORM_KEYS,
        "storm too quiet to be meaningful: only {acked_puts} acked puts"
    );

    // The audit wave: read back every key that ever got an ack, on the
    // healed cluster. A NotFound here is a lost acknowledged write.
    let before_audit = cluster.client_records(0).len();
    let audit: Vec<RealOp> = acked
        .iter()
        .map(|k| RealOp::Get { key: k.clone() })
        .collect();
    cluster.push_client_ops(0, audit);
    assert!(
        wait_done(&cluster, Duration::from_secs(60)),
        "audit reads did not drain"
    );
    for r in cluster.client_records(0).iter().skip(before_audit) {
        assert!(
            r.ok(),
            "acknowledged write on key {} was lost in the storm: {:?}",
            r.key,
            r.err()
        );
        let value = r.bytes.as_deref().expect("found get carries bytes");
        assert!(
            sent.get(&r.key).is_some_and(|vals| vals.contains(value)),
            "key {} returned bytes nobody wrote: {:?}",
            r.key,
            String::from_utf8_lossy(value)
        );
    }

    assert_linearizable(&cluster.history());

    let stats = cluster.runtime.fault_stats().render();
    eprintln!("{stats}");
    assert!(
        !stats.contains("sent=0 "),
        "nemesis saw no traffic — the storm tested nothing: {stats}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}
