//! **Figure 7 — Storage Load Ratio.**
//!
//! "Figure 7 shows the ratio of the primary replica load to the secondary
//! replica load [in terms of amount of data sent/received during the put
//! operation]. While all NOOB storage system configurations impose 3x
//! more work on the primary compared to the secondary (this load
//! imbalance is proportional to the replication level), NICE load
//! balances the load evenly across the primary and secondary replicas."
//!
//! Method: pin all keys to one partition so the primary/secondary
//! identities are fixed, run the put workload, subtract an idle baseline
//! per host, and compare NIC bytes (sent + received).
//!
//! In addition to the paper's size sweep at R=3, this binary emits the
//! replication-level sweep at 1 MB that the abstract's "3x to 9x load
//! reduction, depending on replication level" refers to.

use nice_bench::harness::{par_map, size_label, ArgSpec, CsvOut};
use nice_bench::systems::{nice_cluster, noob_cluster};
use nice_bench::{RunSpec, System};
use nice_kv::{ClientOp, Deployment, SimCluster, Value};
use nice_noob::{Access, NoobMode};
use nice_ring::PartitionId;
use nice_sim::HostStats;

const SIZES: [u32; 5] = [1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// Per-server NIC stats of `spec`'s run, and of an idle twin of the same
/// shape stopped when the run finished.
fn server_stats<D: Deployment>(
    build: fn(&RunSpec) -> SimCluster<D>,
    spec: &RunSpec,
) -> (Vec<HostStats>, Vec<HostStats>) {
    let mut c = build(spec);
    assert!(c.run_until_done(spec.deadline));
    let finish = c.finish_time().expect("finished");
    let stats = c.servers.iter().map(|&h| c.sim.host_stats(h)).collect();
    let mut idle_spec = spec.clone();
    idle_spec.client_ops = vec![vec![]];
    let mut ic = build(&idle_spec);
    ic.sim.run_until(finish);
    (
        stats,
        ic.servers.iter().map(|&h| ic.sim.host_stats(h)).collect(),
    )
}

/// Run the pinned-partition put workload and return
/// `(primary_bytes, mean_secondary_bytes)` with idle baselines removed.
fn load_ratio(sys: System, r: usize, size: u32, ops: usize, seed: u64) -> (f64, f64) {
    // Probe for placement and pinned keys.
    let probe = nice_cluster(&RunSpec::new(System::Nice { lb: false }, r, vec![]));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, ops);
    let replicas: Vec<usize> = probe
        .sys
        .ring
        .replica_set(p)
        .iter()
        .map(|n| n.0 as usize)
        .collect();
    drop(probe);

    let client_ops: Vec<ClientOp> = keys
        .iter()
        .map(|k| ClientOp::Put {
            key: k.clone(),
            value: Value::synthetic(size),
        })
        .collect();
    let mut spec = RunSpec::new(sys, r, vec![client_ops]);
    spec.seed = seed;

    let (stats, idle) = match sys {
        System::Noob { .. } => server_stats(noob_cluster, &spec),
        _ => server_stats(nice_cluster, &spec),
    };
    let data_bytes = |i: usize| -> f64 {
        let s = stats[i];
        let b = idle[i];
        ((s.bytes_sent + s.bytes_recv).saturating_sub(b.bytes_sent + b.bytes_recv)) as f64
    };
    let primary = data_bytes(replicas[0]);
    let secondaries: Vec<f64> = replicas[1..].iter().map(|&i| data_bytes(i)).collect();
    let mean_sec = secondaries.iter().sum::<f64>() / secondaries.len().max(1) as f64;
    (primary, mean_sec)
}

fn main() {
    let args = ArgSpec::parse(100, 10);
    let systems = [
        System::Nice { lb: false },
        System::Noob {
            access: Access::Rac,
            mode: NoobMode::PrimaryOnly,
            lb_gets: false,
        },
    ];

    let mut out = CsvOut::new(
        "fig07_load_ratio",
        "Figure 7: primary/secondary load ratio vs object size (R=3)",
    );
    out.header(&["system", "size", "ratio", "primary_mb", "secondary_mb"]);
    let mut jobs = Vec::new();
    for sys in systems {
        for size in SIZES {
            jobs.push((sys, size));
        }
    }
    let rows = par_map(jobs, |(sys, size)| {
        let (p, s) = load_ratio(sys, 3, size, args.ops, args.seed);
        (sys, size, p, s)
    });
    for (sys, size, p, s) in rows {
        out.row(&[
            sys.label(),
            size_label(size),
            format!("{:.2}", p / s.max(1.0)),
            format!("{:.2}", p / 1e6),
            format!("{:.2}", s / 1e6),
        ]);
    }

    // Extension: the replication-level sweep behind the "3x to 9x"
    // abstract claim, at 1 MB objects.
    let mut out2 = CsvOut::new(
        "fig07_load_ratio_rsweep",
        "Figure 7 (extension): primary/secondary load ratio vs replication level (1MB objects)",
    );
    out2.header(&["system", "replication", "ratio"]);
    let mut jobs = Vec::new();
    for sys in systems {
        for r in [3usize, 5, 7, 9] {
            jobs.push((sys, r));
        }
    }
    let ops = (args.ops / 2).max(10);
    let rows = par_map(jobs, |(sys, r)| {
        let (p, s) = load_ratio(sys, r, 1 << 20, ops, args.seed);
        (sys, r, p / s.max(1.0))
    });
    for (sys, r, ratio) in rows {
        out2.row(&[sys.label(), r.to_string(), format!("{ratio:.2}")]);
    }
}
