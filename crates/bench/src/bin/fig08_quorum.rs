//! **Figure 8 — Quorum-based Replication.**
//!
//! "The experiment puts 1000 1MB objects using a replication level of 7,
//! while varying the quorum write-set size. To emulate slow nodes we
//! configured the network connection of 3 replicas to be 50Mbps, while
//! the rest of the nodes enjoy a 1Gbps connection. … we note that NICE
//! storage achieves up to 5.6x better performance with quorum sizes of
//! 1 and 3."
//!
//! All keys are pinned to one partition so the same 3 replicas can be
//! throttled in every run.

use nice_bench::harness::{par_map, ArgSpec, CsvOut, Stats};
use nice_bench::systems::nice_cluster;
use nice_bench::{run, RunSpec, System};
use nice_kv::{ClientOp, Value};
use nice_noob::{Access, NoobMode};
use nice_ring::PartitionId;

const SIZE: u32 = 1 << 20;
const R: usize = 7;

fn main() {
    let args = ArgSpec::parse(1000, 50);
    let mut out = CsvOut::new(
        "fig08_quorum",
        "Figure 8: quorum put time (ms) and bandwidth (MB/s); R=7, 3 replicas at 50 Mbps",
    );
    out.header(&["system", "quorum_k", "put_ms", "std_ms", "bandwidth_mbps"]);

    // Probe placement: partition 0's replica set; throttle its last 3.
    let probe = nice_cluster(&RunSpec::new(System::Nice { lb: false }, R, vec![]));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, args.ops);
    let replicas: Vec<usize> = probe
        .sys
        .ring
        .replica_set(p)
        .iter()
        .map(|n| n.0 as usize)
        .collect();
    let slow: Vec<(usize, u64)> = replicas[R - 3..].iter().map(|&i| (i, 50_000_000)).collect();
    drop(probe);

    let mut jobs = Vec::new();
    for k in [1usize, 3, 5, 7] {
        jobs.push((System::NiceQuorum { k }, k));
        jobs.push((
            System::Noob {
                access: Access::Rac,
                mode: NoobMode::Quorum { k },
                lb_gets: false,
            },
            k,
        ));
    }
    let keys = &keys;
    let slow = &slow;
    let results = par_map(jobs, move |(sys, k)| {
        let ops: Vec<ClientOp> = keys
            .iter()
            .map(|key| ClientOp::Put {
                key: key.clone(),
                value: Value::synthetic(SIZE),
            })
            .collect();
        let mut spec = RunSpec::new(sys, R, vec![ops]);
        spec.seed = args.seed;
        spec.throttled = slow.clone();
        let r = run(&spec);
        assert!(r.done, "{} k={k} did not finish", sys.label());
        (sys, k, Stats::of(&r.put_lat))
    });
    for (sys, k, st) in results {
        let ms = st.mean_us / 1e3;
        let bw = (SIZE as f64 / 1e6) / (st.mean_us / 1e6);
        out.row(&[
            sys.label(),
            k.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", st.std_us / 1e3),
            format!("{bw:.1}"),
        ]);
    }
}
