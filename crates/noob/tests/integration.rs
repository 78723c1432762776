//! End-to-end tests of every NOOB configuration: ROG/RAG/RAC access ×
//! primary-only/2PC/quorum/chain replication.

use nice_kv::{ClientOp, OpRecord, Value};
use nice_noob::{Access, NoobCluster, NoobClusterCfg, NoobMode};
use nice_sim::Time;

fn put(key: &str, bytes: &[u8]) -> ClientOp {
    ClientOp::Put {
        key: key.into(),
        value: Value::from_bytes(bytes.to_vec()),
    }
}

fn get(key: &str) -> ClientOp {
    ClientOp::Get { key: key.into() }
}

fn roundtrip_ops(n: usize) -> Vec<ClientOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(put(&format!("k{i}"), format!("v{i}").as_bytes()));
        ops.push(get(&format!("k{i}")));
    }
    ops
}

fn assert_roundtrip(c: &NoobCluster, client: usize, n: usize) {
    let recs = &c.client(client).records;
    assert_eq!(recs.len(), 2 * n);
    assert!(recs.iter().all(OpRecord::ok), "ops failed");
    for i in 0..n {
        let r = &recs[2 * i + 1];
        assert_eq!(r.bytes.as_deref(), Some(format!("v{i}").as_bytes()));
    }
}

#[test]
fn rac_primary_only_roundtrip() {
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rac,
        NoobMode::PrimaryOnly,
        vec![roundtrip_ops(15)],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert_roundtrip(&c, 0, 15);
}

#[test]
fn rac_two_pc_roundtrip() {
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rac,
        NoobMode::TwoPc,
        vec![roundtrip_ops(15)],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert_roundtrip(&c, 0, 15);
}

#[test]
fn rag_primary_only_roundtrip() {
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rag,
        NoobMode::PrimaryOnly,
        vec![roundtrip_ops(10)],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert_roundtrip(&c, 0, 10);
    // everything flowed through the gateway
    let gw = c.sim.app::<nice_noob::GatewayApp>(c.sys.gateways[0]);
    assert_eq!(gw.forwarded, 20);
}

#[test]
fn rog_primary_only_roundtrip_forwards() {
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rog,
        NoobMode::PrimaryOnly,
        vec![roundtrip_ops(15)],
    ));
    assert!(c.run_until_done(Time::from_secs(60)));
    assert_roundtrip(&c, 0, 15);
    // random-node routing must have caused some server-side forwarding
    let fwd: u64 = (0..8)
        .map(|i| c.server(i).metrics().counter("engine.forwarded"))
        .sum();
    assert!(fwd > 0, "ROG never hit a wrong node in 30 ops?");
}

#[test]
fn quorum_replies_early_and_replicates_fully() {
    let ops: Vec<ClientOp> = (0..5).map(|i| put(&format!("q{i}"), b"data")).collect();
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        5,
        Access::Rac,
        NoobMode::Quorum { k: 2 },
        vec![ops],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    // background replication still completes everywhere
    c.sim.run_for(Time::from_secs(1));
    for i in 0..5 {
        let key = format!("q{i}");
        let holders = (0..8)
            .filter(|&s| c.server(s).store().get(&key).is_some())
            .count();
        assert_eq!(holders, 5, "{key} fully replicated in the background");
    }
}

#[test]
fn chain_replication_roundtrip() {
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rac,
        NoobMode::Chain,
        vec![roundtrip_ops(10)],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert_roundtrip(&c, 0, 10);
    // every replica holds the data (the chain visited them all)
    for i in 0..10 {
        let key = format!("k{i}");
        let holders = (0..8)
            .filter(|&s| c.server(s).store().get(&key).is_some())
            .count();
        assert_eq!(holders, 3, "{key}");
    }
}

#[test]
fn two_pc_replicates_to_all() {
    let ops = vec![put("x", b"xyz")];
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rac,
        NoobMode::TwoPc,
        vec![ops],
    ));
    assert!(c.run_until_done(Time::from_secs(10)));
    let holders = (0..8)
        .filter(|&s| c.server(s).store().get("x").is_some())
        .count();
    assert_eq!(holders, 3);
}

#[test]
fn primary_only_serves_all_gets_from_primary() {
    let mut all = vec![vec![put("hot", b"v")]];
    for _ in 0..3 {
        all.push((0..20).map(|_| get("hot")).collect());
    }
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        8,
        3,
        Access::Rac,
        NoobMode::PrimaryOnly,
        all,
    ));
    assert!(c.run_until_done(Time::from_secs(60)));
    let primary = c.sys.ring.ring.primary(c.sys.ring.partition_of("hot")).0 as usize;
    let served: Vec<u64> = (0..8)
        .map(|i| c.server(i).metrics().counter("engine.gets_served"))
        .collect();
    assert!(served[primary] >= 55, "primary served {:?}", served);
    for (i, &s) in served.iter().enumerate() {
        if i != primary {
            assert_eq!(s, 0, "node {i} served gets in primary-only mode");
        }
    }
}

#[test]
fn lb_gets_spread_over_replicas_with_2pc() {
    let mut all = vec![vec![put("hot", b"v")]];
    for _ in 0..3 {
        all.push((0..20).map(|_| get("hot")).collect());
    }
    let mut cfg = NoobClusterCfg::new(8, 3, Access::Rac, NoobMode::TwoPc, all);
    cfg.lb_gets = true;
    cfg.spec.retry_not_found = true; // readers race the seeding put
    let mut c = NoobCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(60)));
    let replicas: Vec<usize> = c
        .sys
        .ring
        .ring
        .replica_set(c.sys.ring.partition_of("hot"))
        .iter()
        .map(|n| n.0 as usize)
        .collect();
    let busy = replicas
        .iter()
        .filter(|&&i| c.server(i).metrics().counter("engine.gets_served") > 0)
        .count();
    assert!(busy >= 2, "client-side LB did not spread gets");
}

#[test]
fn multiple_gateways_share_clients() {
    let all: Vec<Vec<ClientOp>> = (0..4).map(|_| roundtrip_ops(5)).collect();
    let mut cfg = NoobClusterCfg::new(8, 3, Access::Rag, NoobMode::PrimaryOnly, all);
    cfg.gateways = 2;
    let mut c = NoobCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(60)));
    for i in 0..4 {
        assert_roundtrip(&c, i, 5);
    }
    let gws = &c.sys.gateways;
    let f0 = c.sim.app::<nice_noob::GatewayApp>(gws[0]).forwarded;
    let f1 = c.sim.app::<nice_noob::GatewayApp>(gws[1]).forwarded;
    assert!(f0 > 0 && f1 > 0, "both gateways used: {f0} {f1}");
}

#[test]
fn noob_primary_link_carries_replication_fanout() {
    // The primary sends R-1 = 4 copies of a 256 KiB object: its NIC must
    // transmit ~4x the object size (the Figure 6/7 inefficiency).
    let size = 256 * 1024;
    let ops = vec![ClientOp::Put {
        key: "big".into(),
        value: Value::synthetic(size),
    }];
    let mut c = NoobCluster::build(NoobClusterCfg::new(
        9,
        5,
        Access::Rac,
        NoobMode::PrimaryOnly,
        vec![ops],
    ));
    assert!(c.run_until_done(Time::from_secs(30)));
    let primary = c.sys.ring.ring.primary(c.sys.ring.partition_of("big")).0 as usize;
    let sent = c.sim.host_stats(c.servers[primary]).bytes_sent;
    assert!(
        sent > 4 * size as u64,
        "primary sent only {sent}, expected ~4x{size}"
    );
}

#[test]
fn caching_rac_warms_up() {
    // §2.1 RAC: "the clients cache the metadata of previously accessed
    // objects, and use it to route subsequent requests." Cold accesses go
    // to a random node (one forwarding hop); repeat accesses go straight
    // to the responsible node.
    let mut ops = Vec::new();
    for i in 0..10 {
        ops.push(put(&format!("c{i}"), b"v"));
    }
    // three passes of gets over the same keys: first pass may miss, the
    // rest must all be cache hits
    for _ in 0..3 {
        for i in 0..10 {
            ops.push(get(&format!("c{i}")));
        }
    }
    let mut cfg = NoobClusterCfg::new(8, 3, Access::Rac, NoobMode::PrimaryOnly, vec![ops]);
    cfg.caching_rac = true;
    let mut c = NoobCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(60)));
    let recs = &c.client(0).records;
    assert!(recs.iter().all(OpRecord::ok));
    let (hits, misses) = c.client(0).cache_stats;
    // 10 puts + 30 gets = 40 routing decisions; at most one miss per key
    assert_eq!(hits + misses, 40);
    assert!(misses <= 10, "misses={misses}");
    assert!(hits >= 30, "hits={hits}");
    // forwarding happened only for cold keys that landed on a wrong node
    let fwd: u64 = (0..8)
        .map(|i| c.server(i).metrics().counter("engine.forwarded"))
        .sum();
    assert!(
        fwd <= misses,
        "forwards ({fwd}) bounded by cold misses ({misses})"
    );
}

#[test]
fn caching_rac_matches_direct_rac_when_warm() {
    // After warmup the caching client routes identically to the
    // warm-cache Direct client: same number of server-side forwards (0).
    let warm_ops: Vec<ClientOp> = (0..5)
        .flat_map(|i| {
            vec![
                put(&format!("w{i}"), b"v"),
                get(&format!("w{i}")),
                get(&format!("w{i}")),
            ]
        })
        .collect();
    let mut cfg = NoobClusterCfg::new(8, 3, Access::Rac, NoobMode::PrimaryOnly, vec![warm_ops]);
    cfg.caching_rac = true;
    let mut c = NoobCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(60)));
    // the second get of each key must be a hit
    let (hits, _) = c.client(0).cache_stats;
    assert!(hits >= 10, "hits={hits}");
}
