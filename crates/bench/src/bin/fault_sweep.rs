//! **Fault sweep (Figure 11 companion): availability and latency under
//! increasing message-loss rates.**
//!
//! Both systems run the same 20/80 put/get workload under the same
//! deterministic [`FaultPlan`] — loss applied at the simulator's single
//! delivery choke point, so NICE's switch-multicast path and NOOB's
//! gateway hops see identical per-packet draws. Each (system, loss)
//! point reports the fraction of ops answered successfully
//! (availability), mean and p99 get latency, mean put latency, how many
//! packets the injector actually dropped, and whether the run drained
//! before the deadline.

use nice_bench::harness::{par_map, ArgSpec, CsvOut};
use nice_bench::systems::run;
use nice_bench::{RunSpec, System};
use nice_kv::{ClientOp, Value};
use nice_noob::{Access, NoobMode};
use nice_sim::FaultPlan;
use nice_workload::XorShiftRng;

const RECORDS: u64 = 100;
const CLIENTS: usize = 3;
const OBJ: u32 = 1024;
const LOSS: [f64; 5] = [0.0, 0.002, 0.005, 0.01, 0.02];

/// Which scalar to pull out of a histogram.
enum Hx {
    Mean,
    P99,
    P999,
}

/// A histogram statistic in microseconds (0 when the histogram is
/// missing or empty).
fn hist_us(m: &nice_kv::MetricsRegistry, name: &str, which: Hx) -> f64 {
    m.hist(name).map_or(0.0, |h| {
        let t = match which {
            Hx::Mean => h.mean(),
            Hx::P99 => h.quantile(99, 100),
            Hx::P999 => h.quantile(999, 1000),
        };
        t.as_ns() as f64 / 1e3
    })
}

fn main() {
    let args = ArgSpec::parse(400, 20);
    let mut out = CsvOut::new(
        "fault_sweep",
        "Fault sweep: availability and latency vs message-loss rate (one FaultPlan, both systems)",
    );
    out.header(&[
        "system",
        "loss",
        "availability",
        "ops_ok",
        "ops_failed",
        "get_mean_us",
        "get_p99_us",
        "get_p999_us",
        "put_mean_us",
        "pkts_lost",
        "done",
    ]);

    let systems = [
        System::Nice { lb: true },
        System::Noob {
            access: Access::Rac,
            mode: NoobMode::TwoPc,
            lb_gets: true,
        },
    ];
    let mut jobs = Vec::new();
    for sys in systems {
        for loss in LOSS {
            jobs.push((sys, loss));
        }
    }
    let results = par_map(jobs, |(sys, loss)| {
        // Preload striped across clients, then a seeded 20/80 put/get
        // stream per client over the preloaded keyspace.
        let mut per_client: Vec<Vec<ClientOp>> = vec![Vec::new(); CLIENTS];
        for i in 0..RECORDS {
            per_client[(i % CLIENTS as u64) as usize].push(ClientOp::Put {
                key: format!("f{i}"),
                value: Value::synthetic(OBJ),
            });
        }
        let skip = per_client.iter().map(std::vec::Vec::len).max().unwrap();
        for (j, ops) in per_client.iter_mut().enumerate() {
            let mut rng = XorShiftRng::seed_from_u64(args.seed ^ (j as u64 + 1));
            for _ in 0..args.ops {
                let key = format!("f{}", rng.random_range(0..RECORDS));
                if rng.random_f64() < 0.2 {
                    ops.push(ClientOp::Put {
                        key,
                        value: Value::synthetic(OBJ),
                    });
                } else {
                    ops.push(ClientOp::Get { key });
                }
            }
        }
        let mut spec = RunSpec::new(sys, 3, per_client);
        spec.skip = skip;
        spec.seed = args.seed;
        if loss > 0.0 {
            spec.fault_plan = Some(FaultPlan::new(args.seed).loss(loss));
        }
        (sys, loss, run(&spec))
    });
    for (sys, loss, r) in results {
        let ok = r.put_lat.len() + r.get_lat.len();
        let avail = ok as f64 / (ok + r.failures).max(1) as f64;
        out.row(&[
            sys.label(),
            format!("{loss}"),
            format!("{avail:.4}"),
            ok.to_string(),
            r.failures.to_string(),
            // Latency columns come from the telemetry histograms — the
            // same distribution `metrics()` reports — so the CSV and the
            // registry cannot disagree. (They cover every op the clients
            // issued, preload included.)
            format!("{:.1}", hist_us(&r.metrics, "client.get_e2e", Hx::Mean)),
            format!("{:.1}", hist_us(&r.metrics, "client.get_e2e", Hx::P99)),
            format!("{:.1}", hist_us(&r.metrics, "client.get_e2e", Hx::P999)),
            format!("{:.1}", hist_us(&r.metrics, "client.put_e2e", Hx::Mean)),
            r.fault.map_or(0, |s| s.lost).to_string(),
            r.done.to_string(),
        ]);
    }
}
