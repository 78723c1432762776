//! **Ablation: the in-network load balancer** (§4.5) and its interaction
//! with skew.
//!
//! Same NICE system, LB rules on vs off, under increasing client counts
//! reading a zipf-hot keyspace. Shows where the source-prefix divisions
//! pay off and what they cost in flow-table entries.

use nice_bench::harness::{par_map, ArgSpec, CsvOut, Stats};
use nice_bench::{RunSpec, System};
use nice_kv::{ClientOp, Value};
use nice_sim::Time;
use nice_workload::XorShiftRng;
use nice_workload::Zipf;

const RECORDS: u64 = 200;

fn main() {
    let args = ArgSpec::parse(500, 25);
    let mut out = CsvOut::new(
        "ablation_lb",
        "Ablation: NICE load balancing off / static divisions — get throughput under zipf skew",
    );
    out.header(&[
        "lb",
        "clients",
        "throughput_ops_s",
        "mean_us",
        "flow_entries",
    ]);

    // lb: off, or the paper's static source-prefix divisions
    let mut jobs = Vec::new();
    for lb in [false, true] {
        for clients in [2usize, 6, 10] {
            jobs.push((lb, clients));
        }
    }
    let results = par_map(jobs, |(lb, clients)| {
        // preload from client 0, then all clients read zipf-hot keys
        let mut per_client: Vec<Vec<ClientOp>> = vec![Vec::new(); clients];
        for i in 0..RECORDS {
            per_client[(i % clients as u64) as usize].push(ClientOp::Put {
                key: format!("z{i}"),
                value: Value::synthetic(1000),
            });
        }
        let loads: Vec<usize> = per_client.iter().map(std::vec::Vec::len).collect();
        let z = Zipf::ycsb(RECORDS);
        for (j, ops) in per_client.iter_mut().enumerate() {
            let mut rng = XorShiftRng::seed_from_u64(args.seed ^ (j as u64 + 1));
            for _ in 0..args.ops {
                ops.push(ClientOp::Get {
                    key: format!("z{}", z.sample(&mut rng)),
                });
            }
        }
        let mut spec = RunSpec::new(System::Nice { lb }, 3, per_client);
        spec.skip = *loads.iter().max().unwrap();
        spec.seed = args.seed;
        spec.retry_not_found = true;
        let mut cfg = nice_kv::ClusterCfg::new(
            spec.storage_nodes,
            spec.replication,
            spec.client_ops.clone(),
        );
        cfg.spec.seed = spec.seed;
        cfg.spec.retry_not_found = true;
        cfg.kv.load_balancing = lb;
        let mut c = nice_kv::NiceCluster::build(cfg);
        let done = c.run_until_done(Time::from_secs(3600));
        assert!(done, "lb={lb} clients={clients}");
        let mut lats = Vec::new();
        let mut start = Time::MAX;
        let mut finish = Time::ZERO;
        for i in 0..c.clients.len() {
            for r in c.client(i).records.iter().skip(spec.skip) {
                if r.ok() && !r.is_put {
                    lats.push(r.end - r.start);
                    start = start.min(r.start);
                    finish = finish.max(r.end);
                }
            }
        }
        let tput = lats.len() as f64 / (finish.saturating_sub(start)).as_secs_f64();
        let entries = c.meta_app().table_occupancy(c.sim.now()).0;
        (lb, clients, tput, Stats::of(&lats), entries)
    });
    for (lb, clients, tput, st, entries) in results {
        out.row(&[
            if lb { "static" } else { "off" }.to_string(),
            clients.to_string(),
            format!("{tput:.0}"),
            format!("{:.1}", st.mean_us),
            entries.to_string(),
        ]);
    }
}
