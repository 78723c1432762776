//! End-to-end tests of the *real* runtime: a NOOB cluster booted as OS
//! threads serving actual UDP datagrams on loopback, with the resulting
//! client histories fed through the same per-key linearizability checker
//! the simulator's chaos harness uses.
//!
//! These tests exercise wall-clock timers, real sockets, and real packet
//! loss (a killed node's socket closes), so they are about machine
//! behavior, not determinism — assertions are on protocol outcomes, never
//! on timing.

use std::time::{Duration, Instant};

use nice::kv_core::{History, RetryPolicy};
use nice::noob::{GatewayPolicy, NoobMode, RealNoobCfg, RealNoobCluster, RealOp};
use nice::rt::Time;
use nice::workload::XorShiftRng;

const KEYS: u32 = 128;

/// A deterministic mixed put/get op list over the shared keyspace.
fn mixed_ops(seed: u64, client: usize, count: usize) -> Vec<RealOp> {
    let mut rng = XorShiftRng::seed_from_u64(seed ^ ((client as u64 + 1) * 0x9E37));
    (0..count)
        .map(|i| {
            let key = format!("user{}", rng.next_u64() % u64::from(KEYS));
            if i % 2 == 0 {
                RealOp::Put {
                    key,
                    bytes: format!("c{client}-i{i}").into_bytes(),
                }
            } else {
                RealOp::Get { key }
            }
        })
        .collect()
}

/// Poll until every client drained its ops (or the deadline passes).
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

fn assert_linearizable(history: &History) {
    let violations = history.check();
    assert!(
        violations.is_empty(),
        "real-cluster history is not per-key linearizable:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

/// The acceptance run: 4 real client threads push 1,000 ops through a
/// 3-node cluster behind a gateway, over real loopback UDP; the combined
/// history must pass the Wing–Gong per-key checker.
#[test]
fn loopback_noob_cluster_serves_ycsb_slice() {
    let client_ops: Vec<Vec<RealOp>> = (0..4).map(|j| mixed_ops(0xB0B, j, 250)).collect();
    let total: usize = client_ops.iter().map(Vec::len).sum();
    assert!(total >= 1000, "acceptance floor is 1,000 ops");

    let mut cluster = RealNoobCluster::build(RealNoobCfg::new(3, 2, client_ops));
    assert!(
        wait_done(&cluster, Duration::from_secs(60)),
        "cluster did not drain 1,000 ops: {:?}",
        (0..4)
            .map(|j| cluster.client_completed(j))
            .collect::<Vec<_>>()
    );

    let mut completed = 0;
    for j in 0..4 {
        let records = cluster.client_records(j);
        assert_eq!(records.len(), 250, "client {j} lost ops");
        completed += records.len();
        // Puts must all succeed on a healthy cluster; gets may race the
        // first writer of a key and legitimately observe NotFound.
        for r in &records {
            if r.is_put {
                assert!(r.ok(), "client {j} put failed: {:?}", r.err());
            }
        }
    }
    assert_eq!(completed, total);

    let history = cluster.history();
    assert!(history.ok_count() >= 500);
    assert_linearizable(&history);
    cluster.shutdown();
}

/// Kill a storage node mid-run. Ops whose partitions stay fully alive
/// must drain; an op addressed to the dead primary must visibly retry
/// (attempts > 1); and the combined history — including the wedged put,
/// which the checker holds open as a Maybe — must still pass.
#[test]
fn loopback_noob_cluster_kill_one_node_mid_put() {
    // Quorum k=1 over R=2: a put completes once the primary holds the
    // data, so a dead *secondary* must not wedge anything.
    let mut cfg = RealNoobCfg::new(3, 2, vec![Vec::new()]);
    cfg.mode = NoobMode::Quorum { k: 1 };
    cfg.gateway = Some(GatewayPolicy::Primary);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(200)));
    // Total per-op budget: the doomed put gives up after 3 s of
    // wall-clock instead of grinding through the whole 25-attempt
    // budget — the drain below is bounded by the deadline, not by
    // attempts × period (the old flake under scheduler jitter).
    cfg.spec.op_deadline = Some(Time::from_secs(3));
    let mut cluster = RealNoobCluster::build(cfg);

    // Partition the keyspace by who owns it.
    let victim = 2usize;
    let victim_ip = cluster.server_ips[victim];
    let mut dead_primary_key = None;
    let mut live_keys = Vec::new();
    for k in 0..KEYS {
        let key = format!("user{k}");
        let primary = cluster.ring.primary_addr(&key);
        if primary == victim_ip {
            dead_primary_key.get_or_insert(key);
        } else {
            live_keys.push(key);
        }
    }
    let dead_primary_key = dead_primary_key.expect("some key has the victim as primary");
    assert!(live_keys.len() >= 24, "keyspace too concentrated");

    // Phase 1: healthy writes (some replicate *onto* the future victim).
    let warmup: Vec<RealOp> = live_keys
        .iter()
        .take(16)
        .map(|k| RealOp::Put {
            key: k.clone(),
            bytes: format!("warm-{k}").into_bytes(),
        })
        .collect();
    cluster.push_client_ops(0, warmup);
    assert!(
        wait_done(&cluster, Duration::from_secs(30)),
        "healthy warm-up did not drain"
    );

    // Phase 2: kill the victim, then put to a key it was *primary* for
    // (must retry against a dead socket) and to keys it only backed up
    // (quorum k=1 completes without it).
    cluster.kill_server(victim);
    let mut wave: Vec<RealOp> = vec![RealOp::Put {
        key: dead_primary_key.clone(),
        bytes: b"never-acked".to_vec(),
    }];
    wave.extend(live_keys.iter().skip(16).take(8).map(|k| RealOp::Put {
        key: k.clone(),
        bytes: format!("post-kill-{k}").into_bytes(),
    }));
    let survivors = wave.len() - 1;
    cluster.push_client_ops(0, wave);

    // The doomed put holds the head of the client's serial queue until it
    // exhausts its retries, so first observe attempts > 1...
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_retry = false;
    while Instant::now() < deadline {
        if let Some((attempts, key)) = cluster.client_inflight(0) {
            if key == dead_primary_key && attempts > 1 {
                saw_retry = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_retry, "put to a dead primary never retried");

    // ...then wait for the queue to drain: the doomed put gives up, the
    // survivor puts complete against the two live nodes.
    assert!(
        wait_done(&cluster, Duration::from_secs(60)),
        "survivor ops did not drain after the kill"
    );
    let records = cluster.client_records(0);
    assert_eq!(records.len(), 16 + 1 + survivors);
    let doomed = records
        .iter()
        .find(|r| r.key == dead_primary_key)
        .expect("doomed put recorded");
    assert!(
        doomed.is_put && !doomed.ok(),
        "put to a dead primary cannot commit"
    );
    assert!(doomed.attempts > 1, "doomed put should have retried");
    for r in records.iter().filter(|r| r.key != dead_primary_key) {
        assert!(r.ok(), "op on a live partition failed: {:?}", r.err());
    }

    let history = cluster.history();
    assert_linearizable(&history);
    cluster.shutdown();
}

/// The real runtime records the same telemetry as the simulator, from
/// the identical instrumentation points — just with wall-clock values.
/// A WAL-backed put storm must leave a non-empty fsync-latency
/// histogram and matching client end-to-end distributions in the
/// cluster-wide `metrics()` snapshot.
#[test]
fn wal_sync_histogram_fills_under_put_storm() {
    let wal_root = std::env::temp_dir().join(format!("nice-wal-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let puts: Vec<RealOp> = (0..64)
        .map(|i| RealOp::Put {
            key: format!("storm{i}"),
            bytes: vec![0xEE; 512],
        })
        .collect();
    let mut cfg = RealNoobCfg::new(3, 2, vec![puts]);
    cfg.mode = NoobMode::Quorum { k: 1 };
    cfg.gateway = Some(GatewayPolicy::Primary);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(200)));
    cfg.spec.op_deadline = Some(Time::from_secs(3));
    cfg.host.wal_root = Some(wal_root.clone());
    let mut cluster = RealNoobCluster::build(cfg);
    assert!(
        wait_done(&cluster, Duration::from_secs(60)),
        "put storm did not drain"
    );

    let m = cluster.metrics();
    let wal = m.hist("wal.sync").expect("wal.sync histogram exists");
    assert!(
        wal.count() >= 64,
        "expected at least one fsync per acked put, saw {}",
        wal.count()
    );
    assert!(wal.max() >= wal.quantile(1, 2), "quantiles are ordered");
    assert!(m.counter("wal.syncs") >= 64, "WAL sync counter tracks");
    let put = m.hist("client.put_e2e").expect("client histogram exists");
    assert_eq!(put.count(), 64, "every put latency was recorded");
    assert!(
        put.min() > Time::ZERO,
        "wall-clock latencies are strictly positive"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// The client half of the `ClusterSpec` reaches the real runtime's
/// clients: with `retry_not_found`, a get of a key nobody wrote re-asks
/// after a short backoff instead of completing on the first miss.
#[test]
fn retry_not_found_reaches_real_clients() {
    let get = RealOp::Get {
        key: "never-written".into(),
    };
    let mut cfg = RealNoobCfg::new(3, 2, vec![vec![get]]);
    cfg.spec.retry_not_found = true;
    let mut cluster = RealNoobCluster::build(cfg);
    assert!(
        wait_done(&cluster, Duration::from_secs(60)),
        "the get did not finish"
    );
    let records = cluster.client_records(0);
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(!r.ok() && r.attempts > 1, "a miss was final: {r:?}");
    cluster.shutdown();
}
