//! Head-to-head: the paper's headline comparison in miniature.
//!
//! One client puts 100 objects of increasing size into (a) NICEKV and
//! (b) the NOOB baseline with replica-aware clients, both at R=3; we
//! print mean put latency and the total network load. The switch-multicast
//! advantage grows with object size.
//!
//! Run with: `cargo run --release --example nice_vs_noob`

use nice::kv::{ClientOp, ClusterCfg, Deployment, KvClient, NiceSys, SimCluster, Value};
use nice::noob::{Access, NoobClusterCfg, NoobMode, NoobSys};
use nice::sim::Time;

fn ops(size: u32, n: usize) -> Vec<ClientOp> {
    (0..n)
        .map(|i| ClientOp::Put {
            key: format!("obj-{size}-{i}"),
            value: Value::synthetic(size),
        })
        .collect()
}

/// Run one system's cluster to completion: (mean put latency in µs,
/// total network bytes).
fn run<D: Deployment>(cfg: D::Cfg) -> (f64, u64) {
    let mut c = SimCluster::<D>::build(cfg);
    assert!(c.run_until_done(Time::from_secs(300)));
    let lats: Vec<f64> = c
        .client(0)
        .records()
        .iter()
        .filter(|r| r.ok())
        .map(|r| (r.end - r.start).as_ns() as f64 / 1e3)
        .collect();
    let mean = lats.iter().sum::<f64>() / lats.len() as f64;
    (mean, c.sim.total_link_bytes())
}

fn main() {
    const N: usize = 100;
    println!(
        "{:>8} | {:>12} {:>12} | {:>9} | {:>10} {:>10}",
        "size", "NICE put", "NOOB put", "speedup", "NICE net", "NOOB net"
    );
    println!("{}", "-".repeat(74));
    for size in [1u32 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let (nice_lat, nice_net) = run::<NiceSys>(ClusterCfg::new(15, 3, vec![ops(size, N)]));
        let (noob_lat, noob_net) = run::<NoobSys>(NoobClusterCfg::new(
            15,
            3,
            Access::Rac,
            NoobMode::PrimaryOnly,
            vec![ops(size, N)],
        ));

        println!(
            "{:>7}K | {:>10.0}us {:>10.0}us | {:>8.2}x | {:>8}MB {:>8}MB",
            size >> 10,
            nice_lat,
            noob_lat,
            noob_lat / nice_lat,
            nice_net / 1_000_000,
            noob_net / 1_000_000,
        );
    }
    println!(
        "\nNICE multicasts each put once (the switch replicates); NOOB's primary\n\
         relays R-1 unicast copies over its own uplink — slower and heavier."
    );
}
