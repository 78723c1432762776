//! Cross-crate system tests through the `nice` facade: the two systems
//! (NICE and NOOB) run the same workloads and must agree on results while
//! differing in network behavior exactly the way the paper says they do.

use nice::kv::{ClientOp, ClusterCfg, NiceCluster, Value};
use nice::noob::{Access, NoobCluster, NoobClusterCfg, NoobMode};
use nice::sim::Time;

fn workload(n: usize) -> Vec<ClientOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(ClientOp::Put {
            key: format!("k{i}"),
            value: Value::from_bytes(format!("value-{i}").into_bytes()),
        });
    }
    for i in 0..n {
        ops.push(ClientOp::Get {
            key: format!("k{i}"),
        });
    }
    ops
}

/// Extract the get results (key -> bytes) from a record list.
fn get_results(records: &[nice::kv::OpRecord]) -> Vec<(String, Option<Vec<u8>>)> {
    records
        .iter()
        .filter(|r| !r.is_put)
        .map(|r| (r.key.clone(), r.bytes.clone()))
        .collect()
}

#[test]
fn both_systems_return_identical_data() {
    let n = 12;
    let shared = |ops| ClusterCfg::new(10, 3, vec![ops]);
    let mut nice_c = NiceCluster::build(shared(workload(n)));
    assert!(nice_c.run_until_done(Time::from_secs(60)));
    let mut noob_c = NoobCluster::build(NoobClusterCfg::from_nice(
        &shared(workload(n)),
        Access::Rac,
        NoobMode::TwoPc,
    ));
    assert!(noob_c.run_until_done(Time::from_secs(60)));
    let a = get_results(&nice_c.client(0).records);
    let b = get_results(&noob_c.client(0).records);
    assert_eq!(a, b, "same workload, same answers");
    assert!(a.iter().all(|(_, v)| v.is_some()));
}

#[test]
fn nice_moves_fewer_bytes_than_noob_for_replicated_puts() {
    // The headline efficiency claim (Figure 6): switch multicast halves
    // (or better) the network load of replicated puts.
    let size = 128 * 1024;
    let ops: Vec<ClientOp> = (0..10)
        .map(|i| ClientOp::Put {
            key: format!("big{i}"),
            value: Value::synthetic(size),
        })
        .collect();
    let shared = |ops| ClusterCfg::new(10, 3, vec![ops]);
    let mut nice_c = NiceCluster::build(shared(ops.clone()));
    assert!(nice_c.run_until_done(Time::from_secs(60)));
    let mut noob_c = NoobCluster::build(NoobClusterCfg::from_nice(
        &shared(ops),
        Access::Rog,
        NoobMode::PrimaryOnly,
    ));
    assert!(noob_c.run_until_done(Time::from_secs(60)));
    let nice_bytes = nice_c.sim.total_link_bytes();
    let noob_bytes = noob_c.sim.total_link_bytes();
    assert!(
        noob_bytes as f64 > nice_bytes as f64 * 1.7,
        "expected >=1.7x network-load reduction: NICE {nice_bytes} vs NOOB {noob_bytes}"
    );
}

#[test]
fn nice_puts_beat_noob_puts_at_large_sizes() {
    // Figure 5's claim, as an invariant: at 1 MB and R=3 the mean NICE
    // put must be at least 2x faster than NOOB+RAC primary-only.
    let ops: Vec<ClientOp> = (0..10)
        .map(|i| ClientOp::Put {
            key: format!("mb{i}"),
            value: Value::synthetic(1 << 20),
        })
        .collect();
    let shared = |ops| ClusterCfg::new(10, 3, vec![ops]);
    let mut nice_c = NiceCluster::build(shared(ops.clone()));
    assert!(nice_c.run_until_done(Time::from_secs(60)));
    let mut noob_c = NoobCluster::build(NoobClusterCfg::from_nice(
        &shared(ops),
        Access::Rac,
        NoobMode::PrimaryOnly,
    ));
    assert!(noob_c.run_until_done(Time::from_secs(60)));
    let nice_put = nice_c.client(0).mean_latency(true).expect("puts ran");
    let noob_put = noob_c.client(0).mean_latency(true).expect("puts ran");
    assert!(
        noob_put.as_ns() as f64 > nice_put.as_ns() as f64 * 2.0,
        "NICE {nice_put} vs NOOB {noob_put}"
    );
}

#[test]
fn deterministic_across_runs() {
    let build = || {
        let mut c = NiceCluster::build(ClusterCfg::new(8, 3, vec![workload(8)]));
        assert!(c.run_until_done(Time::from_secs(60)));
        let lat: Vec<u64> = c
            .client(0)
            .records
            .iter()
            .map(|r| (r.end - r.start).as_ns())
            .collect();
        (lat, c.sim.total_link_bytes(), c.sim.events_processed())
    };
    assert_eq!(build(), build(), "same seed, same universe");
}

#[test]
fn seed_changes_timings_but_not_results() {
    let run_seed = |seed| {
        let mut cfg = ClusterCfg::new(8, 3, vec![workload(6)]);
        cfg.spec.seed = seed;
        let mut c = NiceCluster::build(cfg);
        assert!(c.run_until_done(Time::from_secs(60)));
        get_results(&c.client(0).records)
    };
    assert_eq!(run_seed(1), run_seed(2), "data is seed-independent");
}

#[test]
fn quorum_is_faster_than_full_replication_with_slow_nodes() {
    use nice::kv::PutMode;
    use nice::ring::PartitionId;
    // Mini Figure 8: R=5, 2 slow replicas, any-2 must beat all-5.
    let probe = NiceCluster::build(ClusterCfg::new(10, 5, Vec::new()));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 5);
    let replicas: Vec<usize> = probe
        .sys
        .ring
        .replica_set(p)
        .iter()
        .map(|n| n.0 as usize)
        .collect();
    drop(probe);

    let run = |mode: PutMode| {
        let ops: Vec<ClientOp> = keys
            .iter()
            .map(|k| ClientOp::Put {
                key: k.clone(),
                value: Value::synthetic(1 << 20),
            })
            .collect();
        let mut cfg = ClusterCfg::new(10, 5, vec![ops]);
        cfg.kv.put_mode = mode;
        let mut c = NiceCluster::build(cfg);
        for &i in &replicas[3..] {
            c.sim
                .schedule_link_rate(Time::ZERO, c.servers[i], 50_000_000);
        }
        assert!(c.run_until_done(Time::from_secs(120)));
        c.client(0).mean_latency(true).expect("puts ran")
    };
    let anyk = run(PutMode::Quorum { k: 2 });
    let all = run(PutMode::Quorum { k: 5 });
    assert!(
        all.as_ns() as f64 > anyk.as_ns() as f64 * 3.0,
        "any-2 {anyk} vs all-5 {all}"
    );
}
