//! Fault-tolerance walkthrough (the §4.4 machinery, live):
//!
//! 1. a client continuously writes/reads one partition,
//! 2. a secondary replica crashes — the metadata service hides it from
//!    both virtual rings and installs a handoff node,
//! 3. the node restarts — it rejoins the put ring first, drains the
//!    handoff, and only then becomes visible to gets again.
//!
//! Run with: `cargo run --example fault_tolerance`

use nice::kv::{ClientOp, ClusterCfg, MetaEvent, NiceCluster, Value};
use nice::kv_core::RetryPolicy;
use nice::ring::PartitionId;
use nice::sim::Time;

fn main() {
    // Pin all keys to partition 0 so one replica set serves everything.
    let probe = NiceCluster::build(ClusterCfg::new(8, 3, vec![]));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 30);
    let replicas: Vec<u32> = probe.sys.ring.replica_set(p).iter().map(|n| n.0).collect();
    let victim = replicas[1];
    drop(probe);

    let mut ops = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        ops.push(ClientOp::Put {
            key: k.clone(),
            value: Value::from_bytes(format!("v{i}").into_bytes()),
        });
        ops.push(ClientOp::Get { key: k.clone() });
    }

    let mut cfg = ClusterCfg::new(8, 3, vec![ops]);
    cfg.kv.hb_interval = Time::from_ms(200);
    cfg.kv.op_timeout = Time::from_ms(200);
    cfg.spec.retry = Some(RetryPolicy::fixed(Time::from_ms(500)));
    cfg.host.client_start = Time::from_ms(100);
    let mut cluster = NiceCluster::build(cfg);

    println!(
        "partition {:?} replicas: {replicas:?}; crashing node{victim} at t=60ms",
        p.0
    );
    cluster
        .sim
        .schedule_crash(Time::from_ms(60), cluster.servers[victim as usize]);
    cluster
        .sim
        .schedule_restart(Time::from_secs(4), cluster.servers[victim as usize]);

    cluster.run_until_done(Time::from_secs(30));
    cluster
        .sim
        .run_until(Time::from_secs(10).max(cluster.sim.now()));

    println!("\nmetadata-service event log:");
    for (t, ev) in &cluster.meta_app().events {
        let what = match ev {
            MetaEvent::NodeFailed(n) => {
                format!("node{} declared FAILED (hidden from both vrings)", n.0)
            }
            MetaEvent::HandoffAssigned {
                partition,
                failed,
                handoff,
            } => format!(
                "handoff: node{} stands in for node{} on partition {}",
                handoff.0, failed.0, partition.0
            ),
            MetaEvent::PrimaryChanged {
                partition,
                new_primary,
            } => {
                format!(
                    "node{} promoted to primary of partition {}",
                    new_primary.0, partition.0
                )
            }
            MetaEvent::NodeRejoining(n) => format!("node{} rejoining (put ring only)", n.0),
            MetaEvent::NodeRecovered(n) => {
                format!("node{} consistent again (get ring restored)", n.0)
            }
            MetaEvent::Promoted => "standby metadata service promoted to active".into(),
        };
        println!("  [{t}] {what}");
    }

    let recs = &cluster.client(0).records;
    let retried = recs.iter().filter(|r| r.attempts > 1).count();
    let failed = recs.iter().filter(|r| !r.ok()).count();
    println!(
        "\nclient: {} ops, {} needed retries (the <2s unavailability window), {} failed",
        recs.len(),
        retried,
        failed
    );

    let store = cluster.server(victim as usize).store();
    let have = keys.iter().filter(|k| store.get(k).is_some()).count();
    println!(
        "recovered node{victim} holds {have}/{} objects after draining the handoff",
        keys.len()
    );
}
