//! End-to-end tests of the NICE system: routing, replication, consistency,
//! load balancing, failure handling, and recovery — the mechanisms of
//! §3–§4 exercised through the full simulated fabric.

use kv_core::RetryPolicy;
use nice_kv::{ClientOp, ClusterCfg, MetaEvent, NiceCluster, NodeState, OpRecord, PutMode, Value};
use nice_ring::{NodeIdx, PartitionId};
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

#[test]
fn put_get_roundtrip_many_keys() {
    let mut ops = Vec::new();
    for i in 0..20 {
        ops.push(put(&format!("key-{i}"), format!("value-{i}").as_bytes()));
    }
    for i in 0..20 {
        ops.push(get(&format!("key-{i}")));
    }
    let mut c = NiceCluster::build(ClusterCfg::new(8, 3, vec![ops]));
    assert!(c.run_until_done(Time::from_secs(30)));
    let recs = &c.client(0).records;
    assert_eq!(recs.len(), 40);
    assert!(recs.iter().all(OpRecord::ok), "all ops succeed");
    for i in 0..20 {
        let r = &recs[20 + i];
        assert_eq!(r.bytes.as_deref(), Some(format!("value-{i}").as_bytes()));
    }
    // no retries needed in a healthy cluster
    assert!(
        recs.iter().all(|r| r.attempts == 1),
        "healthy cluster needs no retries"
    );
}

#[test]
fn replication_reaches_all_replicas() {
    let ops = vec![put("replicate-me", b"payload")];
    let mut c = NiceCluster::build(ClusterCfg::new(8, 3, vec![ops]));
    assert!(c.run_until_done(Time::from_secs(10)));
    let holders: Vec<usize> = (0..8)
        .filter(|&i| c.server(i).store().get("replicate-me").is_some())
        .collect();
    assert_eq!(
        holders.len(),
        3,
        "exactly R replicas hold the object: {holders:?}"
    );
    // and they are exactly the ring's replica set for the key's partition
    let ring = &c.sys.ring;
    let p = ring.partition_of_key(b"replicate-me");
    let mut expect: Vec<usize> = ring.replica_set(p).iter().map(|n| n.0 as usize).collect();
    expect.sort();
    assert_eq!(holders, expect);
    // all replicas committed with the same timestamp
    let ts: Vec<_> = holders
        .iter()
        .map(|&i| c.server(i).store().get("replicate-me").unwrap().ts)
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] == w[1]),
        "replicas agree on the commit timestamp"
    );
}

#[test]
fn overwrite_returns_latest_value() {
    let ops = vec![put("k", b"v1"), put("k", b"v2"), put("k", b"v3"), get("k")];
    let mut c = NiceCluster::build(ClusterCfg::new(6, 3, vec![ops]));
    assert!(c.run_until_done(Time::from_secs(10)));
    let recs = &c.client(0).records;
    assert!(recs.iter().all(OpRecord::ok));
    assert_eq!(recs[3].bytes.as_deref(), Some(b"v3".as_slice()));
}

#[test]
fn get_of_missing_key_fails_cleanly() {
    let ops = vec![get("never-written")];
    let mut c = NiceCluster::build(ClusterCfg::new(4, 2, vec![ops]));
    assert!(c.run_until_done(Time::from_secs(10)));
    let recs = &c.client(0).records;
    assert_eq!(recs.len(), 1);
    assert!(!recs[0].ok());
    assert!(recs[0].bytes.is_none());
}

#[test]
fn concurrent_clients_with_disjoint_keys() {
    let mk = |id: usize| {
        let mut ops = Vec::new();
        for i in 0..10 {
            ops.push(put(
                &format!("c{id}-k{i}"),
                format!("c{id}-v{i}").as_bytes(),
            ));
            ops.push(get(&format!("c{id}-k{i}")));
        }
        ops
    };
    let mut c = NiceCluster::build(ClusterCfg::new(8, 3, vec![mk(0), mk(1), mk(2), mk(3)]));
    assert!(c.run_until_done(Time::from_secs(30)));
    for cl in 0..4 {
        let recs = &c.client(cl).records;
        assert_eq!(recs.len(), 20);
        assert!(recs.iter().all(OpRecord::ok), "client {cl}");
        for (i, r) in recs.iter().enumerate() {
            if !r.is_put {
                let k = i / 2;
                assert_eq!(r.bytes.as_deref(), Some(format!("c{cl}-v{k}").as_bytes()));
            }
        }
    }
}

#[test]
fn concurrent_writers_same_key_converge() {
    // Two clients hammer the same key; locks serialize the puts and every
    // replica must converge to the same (latest-timestamp) value.
    let ops_a: Vec<ClientOp> = (0..5)
        .map(|i| put("contended", format!("a{i}").as_bytes()))
        .collect();
    let ops_b: Vec<ClientOp> = (0..5)
        .map(|i| put("contended", format!("b{i}").as_bytes()))
        .collect();
    let mut c = NiceCluster::build(ClusterCfg::new(6, 3, vec![ops_a, ops_b]));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    assert!(c.client(1).records.iter().all(OpRecord::ok));
    let ring = &c.sys.ring;
    let p = ring.partition_of_key(b"contended");
    let replicas: Vec<usize> = ring.replica_set(p).iter().map(|n| n.0 as usize).collect();
    let versions: Vec<(Vec<u8>, nice_kv::Timestamp)> = replicas
        .iter()
        .map(|&i| {
            let cm = c
                .server(i)
                .store()
                .get("contended")
                .expect("replica holds the key");
            (cm.value.bytes.as_ref().clone(), cm.ts)
        })
        .collect();
    assert!(
        versions.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {versions:?}"
    );
}

#[test]
fn load_balancing_spreads_gets_across_replicas() {
    // Many clients read the same hot key; with LB rules the gets must hit
    // more than one replica (§4.5).
    let seed_ops = vec![put("hot", b"hot-value")];
    let mut all = vec![seed_ops];
    for _ in 0..6 {
        all.push((0..30).map(|_| get("hot")).collect());
    }
    let mut cfg = ClusterCfg::new(8, 3, all);
    cfg.kv.load_balancing = true;
    // Clients must start after the seed put; stagger via op dependency:
    // run the seeding client first by giving the getters a later start.
    cfg.host.client_start = Time::from_ms(50);
    let mut c = NiceCluster::build(cfg);
    // Let the seed put land before the readers start hammering: client 0
    // starts first (staggered starts), and retries cover the rest.
    assert!(c.run_until_done(Time::from_secs(60)));
    let ring = &c.sys.ring;
    let p = ring.partition_of_key(b"hot");
    let replicas: Vec<usize> = ring.replica_set(p).iter().map(|n| n.0 as usize).collect();
    let served: Vec<u64> = replicas
        .iter()
        .map(|&i| c.server(i).metrics().counter("engine.gets_served"))
        .collect();
    let busy = served.iter().filter(|&&s| s > 0).count();
    assert!(busy >= 2, "gets concentrated on one replica: {served:?}");
}

#[test]
fn without_load_balancing_primary_serves_all_gets() {
    let seed_ops = vec![put("hot", b"hot-value")];
    let mut all = vec![seed_ops];
    for _ in 0..4 {
        all.push((0..20).map(|_| get("hot")).collect());
    }
    let mut cfg = ClusterCfg::new(8, 3, all);
    cfg.kv.load_balancing = false;
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(60)));
    let ring = &c.sys.ring;
    let p = ring.partition_of_key(b"hot");
    let primary = ring.primary(p).0 as usize;
    let replicas: Vec<usize> = ring.replica_set(p).iter().map(|n| n.0 as usize).collect();
    for &i in &replicas {
        let served = c.server(i).metrics().counter("engine.gets_served");
        if i == primary {
            // a handful of early gets may race the seed put (NotFound)
            assert!(served >= 70, "primary served {served}");
        } else {
            assert_eq!(served, 0, "secondary {i} must be idle without LB");
        }
    }
}

#[test]
fn quorum_mode_completes_puts() {
    let ops: Vec<ClientOp> = (0..5)
        .map(|i| put(&format!("q{i}"), b"quorum-value"))
        .collect();
    let mut cfg = ClusterCfg::new(8, 5, vec![ops]);
    cfg.kv.put_mode = PutMode::Quorum { k: 2 };
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(10)));
    let recs = &c.client(0).records;
    assert_eq!(recs.len(), 5);
    assert!(recs.iter().all(OpRecord::ok));
}

#[test]
fn client_sends_one_copy_regardless_of_replication() {
    // The put payload leaves the client once; the switch replicates it
    // (§4.2 "network and storage optimal").
    let size = 256 * 1024;
    let ops = vec![ClientOp::Put {
        key: "big".into(),
        value: Value::synthetic(size),
    }];
    let mut cfg = ClusterCfg::new(9, 5, vec![ops]);
    cfg.kv.load_balancing = false;
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(10)));
    let sent = c.sim.host_stats(c.clients[0]).bytes_sent;
    assert!(
        sent < (size as u64) * 3 / 2,
        "client sent {sent} bytes for a {size}-byte object at R=5"
    );
    // while every replica received a full copy
    let p = c.sys.ring.partition_of_key(b"big");
    for n in c.sys.ring.replica_set(p) {
        let got = c.sim.host_stats(c.servers[n.0 as usize]).bytes_recv;
        assert!(got >= size as u64, "replica {n:?} received {got}");
    }
}

// ---------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------

#[test]
fn secondary_failure_handoff_and_recovery() {
    // Workload: continuous puts/gets to one partition while a secondary
    // fails and later rejoins (the Figure 11 scenario, compressed).
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, vec![]));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 40);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1]; // a secondary
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(put(k, format!("v{i}").as_bytes()));
        ops.push(get(k));
    }
    let mut cfg = ClusterCfg::new(8, 3, vec![ops]);
    cfg.kv.hb_interval = Time::from_ms(100); // speed the test up
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(400)));
    cfg.host.client_start = Time::from_ms(100);
    let mut c = NiceCluster::build(cfg);

    // Crash before the workload starts so the failure window overlaps it.
    c.sim
        .schedule_crash(Time::from_ms(60), c.servers[victim as usize]);
    c.sim
        .schedule_restart(Time::from_secs(3), c.servers[victim as usize]);
    assert!(
        c.run_until_done(Time::from_secs(30)),
        "workload must finish"
    );
    // run past the scheduled restart so rejoin + recovery complete
    c.sim.run_until(Time::from_secs(8));

    // every op eventually succeeded
    let recs = &c.client(0).records;
    assert!(
        recs.iter().all(OpRecord::ok),
        "ops failed: {:?}",
        recs.iter().filter(|r| !r.ok()).count()
    );
    // some put needed a retry (the <2 s unavailability window)
    let events: Vec<&MetaEvent> = c.meta_app().events.iter().map(|(_, e)| e).collect();
    assert!(
        events.contains(&&MetaEvent::NodeFailed(NodeIdx(victim))),
        "failure detected: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, MetaEvent::HandoffAssigned { failed, .. } if failed.0 == victim)),
        "handoff assigned"
    );
    assert!(events.contains(&&MetaEvent::NodeRejoining(NodeIdx(victim))));
    assert!(events.contains(&&MetaEvent::NodeRecovered(NodeIdx(victim))));
    assert_eq!(c.meta_app().node_state(NodeIdx(victim)), NodeState::Up);

    // run a verification pass: the recovered node must hold every object
    // that was written to the partition (it drained the handoff).
    c.sim.run_for(Time::from_secs(1));
    let store = c.server(victim as usize).store();
    let missing: Vec<&String> = keys.iter().filter(|k| store.get(k).is_none()).collect();
    assert!(missing.is_empty(), "recovered node is missing {missing:?}");
}

#[test]
fn handoff_forwards_gets_for_objects_it_lacks() {
    // Write before the failure; read (from the handoff path) after it.
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, vec![]));
    let p = PartitionId(1);
    let keys = probe.keys_in_partition(p, 5);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1];
    drop(probe);

    let mut writer = Vec::new();
    for k in &keys {
        writer.push(put(k, b"pre-failure"));
    }
    let mut cfg = ClusterCfg::new(8, 3, vec![writer]);
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(400)));
    cfg.kv.load_balancing = true;
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(10)));

    // Fail the secondary, wait for the handoff to take over the get path.
    c.sim
        .schedule_crash(c.sim.now(), c.servers[victim as usize]);
    c.sim.run_for(Time::from_secs(2));
    let handoff = c
        .meta_app()
        .events
        .iter()
        .find_map(|(_, e)| match e {
            MetaEvent::HandoffAssigned {
                partition, handoff, ..
            } if *partition == p => Some(handoff.0),
            _ => None,
        })
        .expect("handoff assigned");

    // Now read every key through a fresh client... we cannot add hosts
    // post-build, so instead drive gets from an existing idle client app.
    c.sim
        .app_mut::<nice_kv::ClientApp>(c.clients[0])
        .push_ops(keys.iter().map(|k| get(k)));
    // nudge the client to resume: its queue was empty, so re-issue by
    // pushing a timer-less kick through another round of ops — the client
    // polls on op completion only, so use a tiny helper: restart issuing.
    c.sim.run_for(Time::from_ms(1));
    let done = c.run_until_done(Time::from_secs(20));
    assert!(done, "post-failure gets must finish");
    let recs = &c.client(0).records;
    let post: Vec<_> = recs.iter().skip(keys.len()).collect();
    assert!(post.iter().all(|r| r.ok()), "gets after failure succeed");
    // if the handoff ever saw one of those gets, it forwarded (it has no
    // pre-failure objects)
    let fwd = c
        .server(handoff as usize)
        .metrics()
        .counter("engine.forwarded");
    let served_direct = c
        .server(handoff as usize)
        .metrics()
        .counter("engine.gets_served");
    assert_eq!(
        served_direct, 0,
        "handoff cannot serve pre-failure objects itself"
    );
    let _ = fwd; // forwarding count depends on LB division assignment
}

#[test]
fn primary_failure_promotes_secondary_and_work_continues() {
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, vec![]));
    let p = PartitionId(2);
    let keys = probe.keys_in_partition(p, 30);
    let primary = probe.sys.ring.primary(p).0;
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(put(k, format!("w{i}").as_bytes()));
        ops.push(get(k));
    }
    let mut cfg = ClusterCfg::new(8, 3, vec![ops]);
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(400)));
    cfg.host.client_start = Time::from_ms(100);
    let mut c = NiceCluster::build(cfg);

    // Crash the primary before the first put lands.
    c.sim
        .schedule_crash(Time::from_ms(60), c.servers[primary as usize]);
    assert!(
        c.run_until_done(Time::from_secs(40)),
        "workload survives primary failure"
    );
    let recs = &c.client(0).records;
    let failed = recs.iter().filter(|r| !r.ok()).count();
    assert_eq!(failed, 0, "every op eventually succeeded");
    let events = &c.meta_app().events;
    assert!(
        events.iter().any(
            |(_, e)| matches!(e, MetaEvent::PrimaryChanged { partition, .. } if *partition == p)
        ),
        "primary was promoted: {events:?}"
    );
    // the view's primary is no longer the crashed node
    let view = c.meta_app().view(p).unwrap();
    assert_ne!(view.primary.0, primary);
}

#[test]
fn writes_during_failure_reach_rejoined_node() {
    // Objects written while a node is down must flow back to it through
    // the handoff drain (§4.4 node recovery).
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, vec![]));
    let p = PartitionId(3);
    let keys = probe.keys_in_partition(p, 10);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[2];
    drop(probe);

    // All writes happen while the victim is down.
    let ops: Vec<ClientOp> = keys.iter().map(|k| put(k, b"written-while-down")).collect();
    let mut cfg = ClusterCfg::new(8, 3, vec![ops]);
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(300)));
    cfg.host.client_start = Time::from_secs(2); // after failure handling settles
    let mut c = NiceCluster::build(cfg);
    c.sim
        .schedule_crash(Time::from_ms(200), c.servers[victim as usize]);
    c.sim
        .schedule_restart(Time::from_secs(6), c.servers[victim as usize]);
    assert!(c.run_until_done(Time::from_secs(30)));
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    // give recovery time to drain the handoff
    c.sim.run_for(Time::from_secs(4));
    assert_eq!(c.meta_app().node_state(NodeIdx(victim)), NodeState::Up);
    let store = c.server(victim as usize).store();
    for k in &keys {
        assert!(store.get(k).is_some(), "rejoined node missing {k}");
        assert_eq!(
            *store.get(k).unwrap().value.bytes,
            b"written-while-down".to_vec()
        );
    }
}

#[test]
fn flow_table_occupancy_matches_section_4_6() {
    // 2N entries without LB ((R+1)N with LB is checked against the live
    // table since divisions round up to powers of two).
    let mut cfg = ClusterCfg::new(8, 3, vec![]);
    cfg.kv.load_balancing = false;
    cfg.spec.partitions = Some(16);
    let mut c = NiceCluster::build(cfg);
    c.sim.run_for(Time::from_ms(100));
    let (entries, groups) = c.meta_app().table_occupancy(c.sim.now());
    // per partition: 1 unicast + 1 multicast rule; plus one PHYS rule per
    // host (8 servers + 0 clients + 1 meta).
    let n = 16;
    let phys = 8 + 1;
    assert_eq!(entries, 2 * n + phys, "entries={entries}");
    assert_eq!(groups, n, "one multicast group per partition");
}
