//! **Ablation: replication strategies** (the §4.2 design discussion).
//!
//! The paper argues chain replication "may distribute the replication
//! load across the nodes, \[but\] significantly increases the operation
//! latency, and is equally network non-optimal". This harness puts the
//! four strategies side by side at R=3 and R=5:
//!
//! * NICE switch multicast (the paper's design),
//! * NOOB primary fan-out (primary-only),
//! * NOOB chain replication,
//! * NOOB 2PC (fan-out + timestamp round).
//!
//! Reported: mean put latency and network bytes per put.

use nice_bench::harness::{par_map, size_label, ArgSpec, CsvOut, Stats};
use nice_bench::{run, RunSpec, System};
use nice_kv::{ClientOp, Value};
use nice_noob::{Access, NoobMode};

const SIZES: [u32; 3] = [1 << 10, 64 << 10, 1 << 20];

fn systems() -> Vec<System> {
    vec![
        System::Nice { lb: false },
        System::Noob {
            access: Access::Rac,
            mode: NoobMode::PrimaryOnly,
            lb_gets: false,
        },
        System::Noob {
            access: Access::Rac,
            mode: NoobMode::Chain,
            lb_gets: false,
        },
        System::Noob {
            access: Access::Rac,
            mode: NoobMode::TwoPc,
            lb_gets: false,
        },
    ]
}

fn main() {
    let args = ArgSpec::parse(200, 10);
    let mut out = CsvOut::new(
        "ablation_replication",
        "Ablation: replication strategy — mean put latency (us) and network KB per put",
    );
    out.header(&["strategy", "size", "replication", "mean_us", "kb_per_put"]);

    let mut jobs = Vec::new();
    for sys in systems() {
        for size in SIZES {
            for r in [3usize, 5] {
                jobs.push((sys, size, r));
            }
        }
    }
    let results = par_map(jobs, |(sys, size, r)| {
        let ops: Vec<ClientOp> = (0..args.ops)
            .map(|i| ClientOp::Put {
                key: format!("abl-{size}-{r}-{i}"),
                value: Value::synthetic(size),
            })
            .collect();
        let mut spec = RunSpec::new(sys, r, vec![ops]);
        spec.seed = args.seed;
        let res = run(&spec);
        assert!(res.done, "{} size={size} r={r}", sys.label());
        let kb_per_put = res.total_link_bytes as f64 / args.ops as f64 / 1024.0;
        (sys, size, r, Stats::of(&res.put_lat), kb_per_put)
    });
    for (sys, size, r, st, kb) in results {
        let label = match sys {
            System::Nice { .. } => "multicast (NICE)".to_string(),
            System::Noob {
                mode: NoobMode::PrimaryOnly,
                ..
            } => "primary fan-out".to_string(),
            System::Noob {
                mode: NoobMode::Chain,
                ..
            } => "chain".to_string(),
            System::Noob {
                mode: NoobMode::TwoPc,
                ..
            } => "fan-out + 2PC".to_string(),
            other => other.label(),
        };
        out.row(&[
            label,
            size_label(size),
            r.to_string(),
            format!("{:.1}", st.mean_us),
            format!("{kb:.1}"),
        ]);
    }
}
