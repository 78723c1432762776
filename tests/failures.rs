//! Failure-model tests through the facade: multiple failures, handoff
//! chains, metadata-service behavior, and the consistency-aware
//! visibility rules of §3.3/§4.4.

use nice::kv::{ClientOp, ClusterCfg, MetaEvent, NiceCluster, NodeState, OpRecord, Value};
use nice::kv_core::RetryPolicy;
use nice::ring::{NodeIdx, PartitionId};
use nice::sim::{FaultPlan, Ipv4, Time};

/// A cluster config with failure-detection timers tightened so crash /
/// rejoin tests converge in simulated seconds instead of minutes.
fn fast(nodes: usize, r: usize, ops: Vec<Vec<ClientOp>>) -> ClusterCfg {
    let mut cfg = ClusterCfg::new(nodes, r, ops);
    cfg.kv.hb_interval = Time::from_ms(100);
    cfg.kv.op_timeout = Time::from_ms(100);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(400)));
    cfg
}

#[test]
fn two_secondaries_fail_and_system_survives() {
    let probe = NiceCluster::build(ClusterCfg::new(10, 3, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 20);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("w{i}").into_bytes()),
        });
        ops.push(ClientOp::Get { key: k.clone() });
    }
    let mut c = {
        let mut cfg = fast(10, 3, vec![ops]);
        cfg.host.client_start = Time::from_ms(100);
        NiceCluster::build(cfg)
    };
    // both secondaries die before the workload starts
    c.sim
        .schedule_crash(Time::from_ms(40), c.servers[replicas[1] as usize]);
    c.sim
        .schedule_crash(Time::from_ms(50), c.servers[replicas[2] as usize]);
    assert!(
        c.run_until_done(Time::from_secs(60)),
        "workload survives two failures"
    );
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    // the view must now contain the primary + two handoffs
    let view = c.meta_app().view(p).expect("view");
    assert_eq!(view.members.len(), 3, "{view:?}");
    assert!(view.members.iter().any(|&(n, _)| n.0 == replicas[0]));
    assert!(!view
        .members
        .iter()
        .any(|&(n, _)| n.0 == replicas[1] || n.0 == replicas[2]));
}

#[test]
fn failed_node_is_invisible_to_gets_until_recovered() {
    // The consistency-aware fault tolerance core claim (§3.3): a
    // rejoining node must receive puts but never gets while inconsistent.
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 10);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1];
    drop(probe);

    let ops: Vec<ClientOp> = keys
        .iter()
        .map(|k| ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(b"x".to_vec()),
        })
        .collect();
    let mut c = {
        let mut cfg = fast(8, 3, vec![ops]);
        cfg.host.client_start = Time::from_secs(2);
        NiceCluster::build(cfg)
    };
    c.sim
        .schedule_crash(Time::from_ms(100), c.servers[victim as usize]);
    c.sim
        .schedule_restart(Time::from_secs(1), c.servers[victim as usize]);
    // While the node recovers it is Rejoining (put ring only).
    c.sim.run_until(Time::from_ms(1300));
    let state_mid = c.meta_app().node_state(NodeIdx(victim));
    assert!(c.run_until_done(Time::from_secs(30)));
    c.sim.run_for(Time::from_secs(3));
    let state_end = c.meta_app().node_state(NodeIdx(victim));
    assert_eq!(state_end, NodeState::Up);
    // the node was observed in the rejoining (hidden-from-gets) state, or
    // recovery completed before we sampled — either way the event log
    // must show the two-phase rejoin.
    let evs: Vec<&MetaEvent> = c.meta_app().events.iter().map(|(_, e)| e).collect();
    assert!(
        evs.contains(&&MetaEvent::NodeRejoining(NodeIdx(victim))),
        "{evs:?}"
    );
    assert!(evs.contains(&&MetaEvent::NodeRecovered(NodeIdx(victim))));
    let rejoin_pos = evs
        .iter()
        .position(|e| **e == MetaEvent::NodeRejoining(NodeIdx(victim)));
    let recover_pos = evs
        .iter()
        .position(|e| **e == MetaEvent::NodeRecovered(NodeIdx(victim)));
    assert!(
        rejoin_pos < recover_pos,
        "put ring strictly before get ring"
    );
    let _ = state_mid;
    // never served a get while inconsistent
    assert_eq!(
        c.server(victim as usize)
            .metrics()
            .counter("engine.gets_served"),
        0
    );
}

#[test]
fn handoff_failure_is_replaced() {
    // The handoff node itself fails: the metadata service must stand up a
    // replacement for the original failed node.
    let probe = NiceCluster::build(ClusterCfg::new(10, 3, Vec::new()));
    let p = PartitionId(0);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1];
    drop(probe);

    let mut c = NiceCluster::build(fast(10, 3, vec![]));
    c.sim
        .schedule_crash(Time::from_ms(100), c.servers[victim as usize]);
    c.sim.run_until(Time::from_secs(1));
    let first_handoff = c
        .meta_app()
        .events
        .iter()
        .find_map(|(_, e)| match e {
            MetaEvent::HandoffAssigned {
                partition,
                failed,
                handoff,
            } if *partition == p && failed.0 == victim => Some(handoff.0),
            _ => None,
        })
        .expect("first handoff");
    // kill the handoff too
    c.sim
        .schedule_crash(Time::from_secs(1), c.servers[first_handoff as usize]);
    c.sim.run_until(Time::from_secs(3));
    let view = c.meta_app().view(p).expect("view");
    assert!(
        !view
            .members
            .iter()
            .any(|&(n, _)| n.0 == first_handoff || n.0 == victim),
        "dead nodes out of the view: {view:?}"
    );
    assert_eq!(
        view.members.len(),
        3,
        "replacement handoff installed: {view:?}"
    );
}

#[test]
fn primary_and_secondary_fail_together() {
    let probe = NiceCluster::build(ClusterCfg::new(10, 3, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 10);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("d{i}").into_bytes()),
        });
        ops.push(ClientOp::Get { key: k.clone() });
    }
    let mut c = {
        let mut cfg = fast(10, 3, vec![ops]);
        cfg.host.client_start = Time::from_ms(100);
        NiceCluster::build(cfg)
    };
    c.sim
        .schedule_crash(Time::from_ms(30), c.servers[replicas[0] as usize]);
    c.sim
        .schedule_crash(Time::from_ms(40), c.servers[replicas[1] as usize]);
    assert!(c.run_until_done(Time::from_secs(60)));
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    // the remaining original secondary must be the new primary
    let view = c.meta_app().view(p).expect("view");
    assert_eq!(view.primary.0, replicas[2]);
}

#[test]
fn cluster_keeps_serving_unrelated_partitions_during_failure() {
    // A failure in one partition must not disturb puts/gets elsewhere.
    let probe = NiceCluster::build(ClusterCfg::new(10, 3, Vec::new()));
    let p_fail = PartitionId(0);
    let ring = &probe.sys.ring;
    let replicas: Vec<u32> = ring.replica_set(p_fail).iter().map(|n| n.0).collect();
    // find a partition that shares no nodes with p_fail
    let mut other = None;
    for q in 0..ring.num_partitions() {
        let q = PartitionId(q);
        let set: Vec<u32> = ring.replica_set(q).iter().map(|n| n.0).collect();
        if set.iter().all(|n| !replicas.contains(n)) {
            other = Some(q);
            break;
        }
    }
    let other = other.expect("disjoint partition exists in a 10-node ring");
    let keys = probe.keys_in_partition(other, 15);
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("u{i}").into_bytes()),
        });
        ops.push(ClientOp::Get { key: k.clone() });
    }
    let mut c = {
        let mut cfg = fast(10, 3, vec![ops]);
        cfg.host.client_start = Time::from_ms(100);
        NiceCluster::build(cfg)
    };
    c.sim
        .schedule_crash(Time::from_ms(120), c.servers[replicas[0] as usize]);
    assert!(c.run_until_done(Time::from_secs(30)));
    let recs = &c.client(0).records;
    assert!(recs.iter().all(OpRecord::ok));
    // ops to the unrelated partition needed no retries
    assert!(
        recs.iter().all(|r| r.attempts == 1),
        "unrelated partition saw disruption"
    );
}

#[test]
fn full_cluster_crash_converges() {
    // §4.4 "In case of a complete cluster failure, in which all in-memory
    // locks are lost, the persistent logs on the nodes will identify the
    // latest put operations. The new primary will check them all using
    // the rules above."
    //
    // Crash every storage node mid-put at several points in the 2PC
    // timeline; after restart the replicas must converge: either the put
    // is committed with one timestamp everywhere, or it is gone
    // everywhere — never a mix visible to gets.
    for crash_offset_us in [800u64, 1300, 1500] {
        let probe = NiceCluster::build(ClusterCfg::new(8, 3, Vec::new()));
        let p = PartitionId(0);
        let key = probe.keys_in_partition(p, 1).remove(0);
        let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
        drop(probe);

        let ops = vec![ClientOp::Put {
            key: key.clone(),
            value: Value::from_bytes(vec![7u8; 64 * 1024]),
        }];
        let mut c = {
            let mut cfg = fast(8, 3, vec![ops]);
            cfg.kv.hb_interval = Time::from_ms(300);
            cfg.host.client_start = Time::from_ms(100);
            NiceCluster::build(cfg)
        };
        let crash_at = Time::from_ms(100) + Time::from_us(crash_offset_us);
        for &s in &c.servers.clone() {
            c.sim.schedule_crash(crash_at, s);
            c.sim.schedule_restart(Time::from_secs(3), s);
        }
        c.sim.run_until(Time::from_secs(12));

        // Convergence across the replica set: committed values (visible
        // to gets) must agree.
        let committed: Vec<Option<nice::kv::Timestamp>> = replicas
            .iter()
            .map(|&i| c.server(i as usize).store().get(&key).map(|cm| cm.ts))
            .collect();
        let versions: Vec<_> = committed.iter().flatten().collect();
        assert!(
            versions.windows(2).all(|w| w[0] == w[1]),
            "offset {crash_offset_us}us: replicas diverged: {committed:?}"
        );
        // No replica may still hold the lock (resolution settled it).
        for &i in &replicas {
            assert!(
                !c.server(i as usize).store().locked(&key),
                "offset {crash_offset_us}us: node{i} still locked"
            );
        }
        // The client either got its put through (possibly via retries) or
        // saw a clean failure; with retries running for 12s it should
        // normally succeed once the cluster is back.
        let recs = &c.client(0).records;
        if let Some(r) = recs.first() {
            if r.ok() {
                // success implies every surviving committed copy is this put
                assert!(!versions.is_empty(), "client success but nothing committed");
            }
        }
    }
}

#[test]
fn admin_add_node_expands_ring_with_synced_data() {
    use nice::kv::AdminOp;
    // 6-node ring + 1 provisioned spare. Write data, admin-add the spare,
    // and verify it ends up serving partitions with fully synced data.
    let mut ops = Vec::new();
    for i in 0..30 {
        ops.push(ClientOp::Put {
            key: format!("pre{i}"),
            value: Value::from_bytes(format!("v{i}").into_bytes()),
        });
    }
    let mut c = {
        let mut cfg = fast(6, 3, vec![ops]);
        cfg.spec.spares = 1;
        NiceCluster::build(cfg)
    };
    assert!(c.run_until_done(Time::from_secs(30)));

    let spare = NodeIdx(6);
    c.admin(AdminOp::AddNode(spare));
    c.sim.run_for(Time::from_secs(5));

    // the spare is now in the ring and holds data for its partitions
    let meta = c.meta_app();
    let mut serves = 0;
    let mut holds = 0;
    for p in 0..c.sys.cfg.partitions {
        let p = PartitionId(p);
        if let Some(v) = meta.view(p) {
            if v.members.iter().any(|&(n, _)| n == spare) {
                serves += 1;
                assert!(
                    !v.syncing.contains(&spare),
                    "partition {} still syncing",
                    p.0
                );
            }
        }
    }
    for i in 0..30 {
        let key = format!("pre{i}");
        let p = c.partition_of_key(&key);
        let view = c.meta_app().view(p).expect("view");
        if view.members.iter().any(|&(n, _)| n == spare) {
            if c.server(6).store().get(&key).is_some() {
                holds += 1;
            } else {
                panic!("spare serves {key}'s partition but lacks the object");
            }
        }
    }
    assert!(serves > 0, "spare joined at least one replica set");
    let _ = holds;

    // and reads of the pre-existing data still succeed end-to-end
    c.sim
        .app_mut::<nice::kv::ClientApp>(c.clients[0])
        .push_ops((0..30).map(|i| ClientOp::Get {
            key: format!("pre{i}"),
        }));
    assert!(c.run_until_done(Time::from_secs(30)));
    let recs = &c.client(0).records;
    assert!(
        recs[30..].iter().all(OpRecord::ok),
        "post-reconfig reads succeed"
    );
}

#[test]
fn admin_remove_node_keeps_data_available() {
    use nice::kv::AdminOp;
    let mut ops = Vec::new();
    for i in 0..30 {
        ops.push(ClientOp::Put {
            key: format!("rm{i}"),
            value: Value::from_bytes(format!("v{i}").into_bytes()),
        });
    }
    let mut c = NiceCluster::build(fast(8, 3, vec![ops]));
    assert!(c.run_until_done(Time::from_secs(30)));

    let victim = NodeIdx(2);
    c.admin(AdminOp::RemoveNode(victim));
    c.sim.run_for(Time::from_secs(5));

    // victim serves nothing anymore
    for p in 0..c.sys.cfg.partitions {
        let view = c.meta_app().view(PartitionId(p)).expect("view");
        assert!(
            !view.members.iter().any(|&(n, _)| n == victim),
            "partition {p} still lists the removed node"
        );
        assert!(view.syncing.is_empty(), "partition {p} still syncing");
    }
    // every object is still fully replicated R times among the others
    for i in 0..30 {
        let key = format!("rm{i}");
        let holders = (0..8)
            .filter(|&s| s != victim.0 as usize && c.server(s).store().get(&key).is_some())
            .count();
        assert!(holders >= 3, "{key} has only {holders} live replicas");
    }
    // reads still work
    c.sim
        .app_mut::<nice::kv::ClientApp>(c.clients[0])
        .push_ops((0..30).map(|i| ClientOp::Get {
            key: format!("rm{i}"),
        }));
    assert!(c.run_until_done(Time::from_secs(30)));
    assert!(c.client(0).records[30..].iter().all(OpRecord::ok));
}

#[test]
fn metadata_standby_takes_over() {
    use nice::kv::{MetaRole, MetadataApp};
    // §4.1's hot-standby design, implemented: the active metadata service
    // dies mid-run; the standby promotes itself, redirects node
    // reporting, and continues to handle failures (a storage node crash
    // AFTER the failover still gets a handoff).
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 30);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1];
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("s{i}").into_bytes()),
        });
        ops.push(ClientOp::Get { key: k.clone() });
    }
    let mut c = {
        let mut cfg = fast(8, 3, vec![ops]);
        cfg.metadata_standby = true;
        cfg.host.client_start = Time::from_ms(100);
        NiceCluster::build(cfg)
    };
    let standby = c.sys.meta_standby.expect("standby deployed");

    // 1. kill the active metadata service early
    c.sim.schedule_crash(Time::from_ms(200), c.sys.meta);
    // 2. then kill a storage secondary — only the promoted standby can
    //    orchestrate the handoff
    c.sim
        .schedule_crash(Time::from_secs(3), c.servers[victim as usize]);

    assert!(
        c.run_until_done(Time::from_secs(60)),
        "initial workload finishes"
    );
    // run through the failover + storage-failure timeline, then push a
    // second wave of ops that only a working (promoted) metadata path can
    // serve
    c.sim.run_until(Time::from_secs(6));
    c.sim
        .app_mut::<nice::kv::ClientApp>(c.clients[0])
        .push_ops(keys.iter().map(|k| ClientOp::Get { key: k.clone() }));
    assert!(
        c.run_until_done(Time::from_secs(60)),
        "post-failover workload finishes"
    );
    assert!(c.client(0).records.iter().all(OpRecord::ok));

    let sb = c.sim.app::<MetadataApp>(standby);
    assert_eq!(sb.role(), MetaRole::Active, "standby promoted itself");
    assert!(
        sb.events.iter().any(|(_, e)| *e == MetaEvent::Promoted),
        "{:?}",
        sb.events
    );
    assert!(
        sb.events
            .iter()
            .any(|(_, e)| *e == MetaEvent::NodeFailed(NodeIdx(victim))),
        "the promoted standby detected the storage failure: {:?}",
        sb.events
    );
    assert!(
        sb.events.iter().any(
            |(_, e)| matches!(e, MetaEvent::HandoffAssigned { failed, .. } if failed.0 == victim)
        ),
        "and installed a handoff"
    );
}

#[test]
fn rejoin_after_handoff_chain_failure_recovers_all_writes() {
    // Regression: node f fails; handoff n receives writes; n itself then
    // fails and is replaced. When f rejoins, its drain source chain was
    // broken — it must still recover every object written during its
    // outage (via the replacement handoff or the primary fallback).
    let probe = NiceCluster::build(ClusterCfg::new(10, 3, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 12);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let f = replicas[1];
    drop(probe);

    // All writes happen while f is down; half of them before the first
    // handoff dies, half after.
    let ops: Vec<ClientOp> = keys
        .iter()
        .map(|k| ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(b"during-outage".to_vec()),
        })
        .collect();
    let mut c = {
        let mut cfg = fast(10, 3, vec![ops]);
        cfg.host.client_start = Time::from_secs(1); // after f's failure is handled
        NiceCluster::build(cfg)
    };
    c.sim
        .schedule_crash(Time::from_ms(100), c.servers[f as usize]);
    // let the first batch of writes land on the first handoff
    assert!(c.run_until_done(Time::from_secs(30)));
    let first_handoff = c
        .meta_app()
        .events
        .iter()
        .find_map(|(_, e)| match e {
            MetaEvent::HandoffAssigned {
                partition,
                failed,
                handoff,
            } if *partition == p && failed.0 == f => Some(handoff.0),
            _ => None,
        })
        .expect("handoff for f");
    // now the handoff itself dies, then f comes back
    c.sim
        .schedule_crash(c.sim.now(), c.servers[first_handoff as usize]);
    c.sim.run_for(Time::from_secs(2));
    c.sim.schedule_restart(c.sim.now(), c.servers[f as usize]);
    c.sim.run_for(Time::from_secs(5));

    // f must hold every object written during its outage
    let store = c.server(f as usize).store();
    let missing: Vec<&String> = keys.iter().filter(|k| store.get(k).is_none()).collect();
    assert!(
        missing.is_empty(),
        "rejoined node missing {} objects written during its outage: {missing:?}",
        missing.len()
    );
}

#[test]
fn rejoining_node_with_lost_catchup_stays_off_get_ring() {
    // §3.3 under injected faults: the victim restarts onto the put vring,
    // but a fault-plan partition swallows its consistency-catch-up
    // traffic (HandoffFetch/HandoffData never cross). The node must stay
    // in the rejoining state — on the put vring, never on the get vring —
    // and serve zero gets. The outage itself is driven by the same plan.
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, Vec::new()));
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

    // Every object is written while the victim is down, so its store can
    // only become get-consistent through the catch-up we then block.
    let ops: Vec<ClientOp> = keys
        .iter()
        .map(|k| ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(b"x".to_vec()),
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
    let mut c = {
        let mut cfg = fast(8, 3, vec![ops]);
        cfg.host.client_start = Time::from_ms(500);
        cfg.host.fault_plan = Some(plan);
        NiceCluster::build(cfg)
    };
    assert!(c.run_until_done(Time::from_secs(30)), "puts drain");
    assert!(c.client(0).records.iter().all(OpRecord::ok));
    c.sim.run_until(Time::from_secs(12));

    let v = NodeIdx(victim as u32);
    let evs: Vec<&MetaEvent> = c.meta_app().events.iter().map(|(_, e)| e).collect();
    assert!(
        evs.contains(&&MetaEvent::NodeRejoining(v)),
        "victim never re-entered the put ring: {evs:?}"
    );
    assert!(
        !evs.contains(&&MetaEvent::NodeRecovered(v)),
        "victim reached the get ring without its catch-up data: {evs:?}"
    );
    assert_ne!(
        c.meta_app().node_state(v),
        NodeState::Up,
        "victim must stay hidden from gets while inconsistent"
    );
    assert_eq!(c.server(victim).metrics().counter("engine.gets_served"), 0);
    assert!(c.sim.fault_stats().expect("plan installed").partitioned > 0);
}
