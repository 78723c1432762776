//! In-network load balancing (§4.5), demonstrated: six clients hammer one
//! hot key with and without the source-prefix division rules, and we
//! count which replicas actually served the gets.
//!
//! Run with: `cargo run --example load_balancing`

use nice::kv::{ClientOp, ClusterCfg, NiceCluster, Value};
use nice::sim::Time;

const KEY: &str = "hot-object";

fn run(lb: bool) -> (Vec<u64>, f64) {
    let mut all = vec![vec![ClientOp::Put {
        key: KEY.into(),
        value: Value::from_bytes(b"popular".to_vec()),
    }]];
    for _ in 0..6 {
        all.push(
            (0..200)
                .map(|_| ClientOp::Get { key: KEY.into() })
                .collect(),
        );
    }
    let mut cfg = ClusterCfg::new(8, 3, all);
    cfg.kv.load_balancing = lb;
    cfg.spec.retry_not_found = true;
    let mut c = NiceCluster::build(cfg);
    assert!(c.run_until_done(Time::from_secs(120)));
    let p = c.sys.ring.partition_of_key(KEY.as_bytes());
    let served: Vec<u64> = c
        .sys
        .ring
        .replica_set(p)
        .iter()
        .map(|n| {
            c.server(n.0 as usize)
                .metrics()
                .counter("engine.gets_served")
        })
        .collect();
    let mean_get: f64 = {
        let mut lats = Vec::new();
        for i in 1..7 {
            for r in &c.client(i).records {
                if r.ok() && !r.is_put {
                    lats.push((r.end - r.start).as_ns() as f64 / 1000.0);
                }
            }
        }
        lats.iter().sum::<f64>() / lats.len() as f64
    };
    (served, mean_get)
}

fn main() {
    println!("six clients each reading one hot key 200 times (R=3):\n");
    let (served, lat) = run(false);
    println!("load balancing OFF: per-replica gets served = {served:?}");
    println!("                    mean get latency = {lat:.0}us  (primary does everything)\n");
    let (served, lat) = run(true);
    println!("load balancing ON : per-replica gets served = {served:?}");
    println!(
        "                    mean get latency = {lat:.0}us  (source-prefix rules spread the load)"
    );
    println!(
        "\nThe controller installs one (client-division, partition-subgroup) rule per\n\
         division at higher priority than the base vring rule; clients in different\n\
         divisions are rewritten to different replicas with zero extra hops."
    );
}
