//! **Figure 11 — Fault Tolerance Evaluation.**
//!
//! "Three clients access the system with 20/80 put/get ratio and key size
//! of 1KB. All objects are in the same partition. Figure 11 shows the
//! number of put and get requests served per second. At the 30s mark, the
//! secondary node 2 fails. … This process makes the partition unavailable
//! for put for less than 2 seconds. … At 90s mark, the failed node joins
//! back, and starts retrieving the objects it missed."
//!
//! Output: one row per second — puts/sec, gets/sec, gets forwarded by the
//! handoff so far, the recovered node's object count, and the
//! cumulative put/get p99 pulled from the cluster's telemetry
//! histograms (so the CSV and `metrics()` cannot disagree).

use nice_bench::harness::{ArgSpec, CsvOut};
use nice_bench::systems::nice_cluster;
use nice_bench::{RunSpec, System};
use nice_kv::{ClientApp, ClientOp, MetaEvent, MetadataApp, Value};
use nice_ring::PartitionId;
use nice_sim::Time;
use nice_workload::XorShiftRng;

const DURATION_S: u64 = 120;
const FAIL_AT_S: u64 = 30;
const REJOIN_AT_S: u64 = 90;
const OBJ: u32 = 1024;

fn main() {
    let args = ArgSpec::parse(200_000, 20);
    let mut out = CsvOut::new(
        "fig11_fault_tolerance",
        "Figure 11: ops served per second; secondary fails at 30s, rejoins at 90s",
    );
    out.header(&[
        "second",
        "puts_per_sec",
        "gets_per_sec",
        "handoff_forwarded",
        "victim_objects",
        "put_p99_us_cum",
        "get_p99_us_cum",
    ]);

    // Pin everything to one partition; identify the victim secondary.
    let probe = nice_cluster(&RunSpec::new(System::Nice { lb: true }, 3, vec![]));
    let p = PartitionId(0);
    let keys = probe.keys_in_partition(p, 100);
    let replicas: Vec<usize> = probe
        .ring
        .replica_set(p)
        .iter()
        .map(|n| n.0 as usize)
        .collect();
    let victim = replicas[1];
    drop(probe);

    // 20/80 put/get streams over the pinned keys for three clients.
    let mut rng = XorShiftRng::seed_from_u64(args.seed);
    let mk_ops = |rng: &mut XorShiftRng, n: usize| -> Vec<ClientOp> {
        (0..n)
            .map(|_| {
                let key = keys[rng.random_range(0..keys.len())].clone();
                if rng.random_f64() < 0.2 {
                    ClientOp::Put {
                        key,
                        value: Value::synthetic(OBJ),
                    }
                } else {
                    ClientOp::Get { key }
                }
            })
            .collect()
    };
    let client_ops = vec![
        mk_ops(&mut rng, args.ops),
        mk_ops(&mut rng, args.ops),
        mk_ops(&mut rng, args.ops),
    ];

    let spec = RunSpec::new(System::Nice { lb: true }, 3, client_ops);
    let mut c = nice_cluster(&spec);
    c.sim
        .schedule_crash(Time::from_secs(FAIL_AT_S), c.servers[victim]);
    c.sim
        .schedule_restart(Time::from_secs(REJOIN_AT_S), c.servers[victim]);

    let mut prev_puts = 0usize;
    let mut prev_gets = 0usize;
    for sec in 1..=DURATION_S {
        c.sim.run_until(Time::from_secs(sec));
        let (mut puts, mut gets) = (0, 0);
        for &cl in &c.clients {
            let recs = &c.sim.app::<ClientApp>(cl).records;
            for r in recs {
                if r.is_put {
                    // a put only counts when it committed
                    if r.ok() {
                        puts += 1;
                    }
                } else {
                    // a get counts when it got a response (NotFound for a
                    // never-written key is still a served request)
                    gets += 1;
                }
            }
        }
        let handoff_fwd: u64 = (0..c.servers.len())
            .map(|i| c.server(i).metrics().counter("engine.forwarded"))
            .sum();
        let victim_objects = c.server(victim).store().len();
        // Cumulative-so-far tails from the merged client histograms:
        // the same distribution a `metrics()` caller would see.
        let m = c.metrics();
        let p99_us = |name: &str| {
            m.hist(name)
                .map_or(0.0, |h| h.quantile(99, 100).as_ns() as f64 / 1e3)
        };
        out.row(&[
            sec.to_string(),
            (puts - prev_puts).to_string(),
            (gets - prev_gets).to_string(),
            handoff_fwd.to_string(),
            victim_objects.to_string(),
            format!("{:.1}", p99_us("client.put_e2e")),
            format!("{:.1}", p99_us("client.get_e2e")),
        ]);
        prev_puts = puts;
        prev_gets = gets;
    }

    // The paper's headline claim — "this process makes the partition
    // unavailable for put for less than 2 seconds" — asserted from the
    // run's own records rather than eyeballed off the plot. The three
    // closed-loop clients cannot resolve the window by themselves: a
    // put in flight at the crash sleeps the full fixed §6.6 2 s retry
    // period before re-attempting, so every client-side completion gap
    // straddling the failure is ~2 s even though the partition healed
    // much earlier. The run's own failover timeline is the measurement:
    // the partition is put-unavailable from the crash until the
    // metadata service declares the failure (3 missed heartbeats) and
    // installs the handoff view at the survivors (`HandoffAssigned`,
    // logged for exactly this analysis).
    let crash = Time::from_secs(FAIL_AT_S);
    let healed = c
        .sim
        .app::<MetadataApp>(c.meta)
        .events
        .iter()
        .filter(|&&(t, ref ev)| {
            t >= crash
                && matches!(ev, MetaEvent::HandoffAssigned { partition, failed, .. }
                    if *partition == p && failed.0 as usize == victim)
        })
        .map(|&(t, _)| t)
        .min()
        .expect("the metadata service never assigned a handoff for the workload partition");
    let unavail_ms = (healed - crash).as_ns() / 1_000_000;
    assert!(
        healed - crash < Time::from_secs(2),
        "put-unavailability window was {unavail_ms} ms; the paper promises <2 s"
    );

    // Corroborate the bound end-to-end from the client records: every
    // put that straddled the failure committed on its first retry — the
    // first probe after the window found the partition writable again.
    // A window ≥ the 2 s retry period would force a second retry.
    let put_records: Vec<(Time, Time, u32)> = c
        .clients
        .iter()
        .flat_map(|&cl| c.sim.app::<ClientApp>(cl).records.iter())
        .filter(|r| r.is_put && r.ok())
        .map(|r| (r.start, r.end, r.attempts))
        .collect();
    assert!(
        put_records.len() > 100,
        "too few committed puts ({}) to measure the window",
        put_records.len()
    );
    let straddlers: Vec<u32> = put_records
        .iter()
        .filter(|&&(start, end, _)| start <= healed && end >= crash)
        .map(|&(_, _, attempts)| attempts)
        .collect();
    if args.quick && straddlers.is_empty() {
        // At quick scale the clients drain before the crash: there is
        // nothing to corroborate with, which is not a failure.
        eprintln!(
            "--quick: no put straddles the t={FAIL_AT_S}s failure; \
             client-side corroboration skipped"
        );
    } else {
        assert!(
            straddlers.iter().any(|&a| a > 1),
            "no put was blocked by the failure; the workload cannot corroborate the window"
        );
        assert!(
            straddlers.iter().all(|&a| a <= 2),
            "a put straddling the failure needed {} attempts — the partition \
             was still unavailable a full retry period after the crash",
            straddlers.iter().max().unwrap()
        );
    }
    assert!(
        !c.server(victim).store().is_empty(),
        "the rejoined node never drained its missed objects"
    );
    eprintln!(
        "put-unavailability window across the t={FAIL_AT_S}s failure: {unavail_ms} ms \
         (paper: <2s); victim holds {} objects after its t={REJOIN_AT_S}s rejoin.",
        c.server(victim).store().len()
    );
}
