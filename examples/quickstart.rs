//! Quickstart: stand up a NICE cluster, write and read a few objects, and
//! inspect where the switch put the replicas.
//!
//! Run with: `cargo run --example quickstart`

use nice::kv::{ClientOp, ClusterCfg, NiceCluster, Value};
use nice::sim::Time;

fn main() {
    // A 5-node cluster with replication level 3 and one client that puts
    // then gets three objects.
    let mut ops = Vec::new();
    for (k, v) in [("alpha", "one"), ("beta", "two"), ("gamma", "three")] {
        ops.push(ClientOp::Put {
            key: k.into(),
            value: Value::from_bytes(v.as_bytes().to_vec()),
        });
    }
    for k in ["alpha", "beta", "gamma"] {
        ops.push(ClientOp::Get { key: k.into() });
    }

    let mut cluster = NiceCluster::build(ClusterCfg::new(5, 3, vec![ops]));
    let finished = cluster.run_until_done(Time::from_secs(10));
    assert!(finished, "workload did not finish");

    println!("operation log (client 0):");
    for r in &cluster.client(0).records {
        let kind = if r.is_put { "PUT" } else { "GET" };
        let val = r
            .bytes
            .as_ref()
            .map(|b| format!(" -> {:?}", String::from_utf8_lossy(b)))
            .unwrap_or_default();
        println!(
            "  {kind} {:<6} ok={} latency={}{}",
            r.key,
            r.ok(),
            r.end - r.start,
            val
        );
    }

    println!("\nreplica placement (from the consistent-hashing ring):");
    for k in ["alpha", "beta", "gamma"] {
        let p = cluster.sys.ring.partition_of_key(k.as_bytes());
        let replicas = cluster.sys.ring.replica_set(p);
        let holders: Vec<String> = replicas
            .iter()
            .map(|n| {
                let has = cluster.server(n.0 as usize).store().get(k).is_some();
                format!("node{}{}", n.0, if has { "(✓)" } else { "(✗)" })
            })
            .collect();
        println!("  {k:<6} partition {:>2} -> {}", p.0, holders.join(", "));
    }

    println!(
        "\nswitch state: {} flow entries, {} multicast groups",
        cluster.meta_app().table_occupancy(cluster.sim.now()).0,
        cluster.meta_app().table_occupancy(cluster.sim.now()).1,
    );
    println!(
        "network: {} KB moved across all links, {} simulated events",
        cluster.sim.total_link_bytes() / 1024,
        cluster.sim.events_processed()
    );
}
