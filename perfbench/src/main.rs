//! `benchmark`: runs one workload, checks its outputs, prints every metric by
//! name with its unit, and ends with one JSON line for the harness.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark --verify [--seed N] [--seconds S]
//! benchmark --emit-benchmark-json
//! ```
//!
//! See README.md beside this package for what each workload and metric means.

mod check;
mod gen;
mod layers;
mod rt;
mod simwl;
mod stats;
mod sut;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::{MetricDef, Values, END_TO_END, EXACT, PER_LAYER};
use rt::{Load, Plan, Round, ROUNDS};

/// How long one run measures, and what `BENCHMARK.json` tells the harness.
const RUN_SECONDS: u32 = 20;

struct Workload {
    name: &'static str,
    why: &'static str,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rt_get_heavy",
        why: "Real UDP cluster, 2 closed-loop clients, 95% get: no fsync or replication on the path, so host timers, sockets and codec set its time; a WAL or 2PC change must not move it.",
    },
    Workload {
        name: "rt_put_heavy",
        why: "Same cluster, 80% put: engine phases, 3-way fan-out, WAL append/fsync and ack collection do the work; group commit and 2PC changes show here and not on rt_get_heavy.",
    },
    Workload {
        name: "rt_open_mixed",
        why: "Same servers behind the gateway, 20 ops/s arriving on a seeded schedule, 50% put, timed from due time: the idle side of the event loop and the gateway hop, which a closed loop never waits on.",
    },
    Workload {
        name: "sim_ycsb_b",
        why: "Deterministic simulator, 15 nodes, 10 clients, YCSB-B on NICE then NOOB: the only run of nicekv, flow, ring and sim; guards simulator host speed and pins the simulated results.",
    },
];

fn plan(name: &str) -> Option<Plan> {
    let (gateway, load) = match name {
        "rt_get_heavy" => (false, Load::Closed { put_share: 0.05 }),
        "rt_put_heavy" => (false, Load::Closed { put_share: 0.80 }),
        // Each client is busy about 45 % of the time at this rate on the
        // sizing box: the system is mostly found idle, which is the point.
        "rt_open_mixed" => (
            true,
            Load::Open {
                rate_per_s: 20.0,
                put_share: 0.5,
            },
        ),
        _ => return None,
    };
    WORKLOADS.iter().find(|w| w.name == name).map(|w| Plan {
        name: w.name,
        gateway,
        load,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    verify: bool,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        verify: false,
        emit: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            // `--trace 0|1` for the harness; a bare `--trace` means 1.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--verify" => a.verify = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// WAL directories and traces live under the build's target directory, which
/// is inside the checkout and on its file system (never a tmpfs).
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

struct Outcome {
    attempted: usize,
    failed: usize,
    vals: Values,
}

fn run_rt(plan: &Plan, a: &Args, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    // With tracing on, round 0 stays untraced: it is what the traced rounds'
    // median is compared with for `trace.overhead_pct`.
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|i| {
            rt::round(
                plan,
                a.seed,
                i as u64,
                seconds / ROUNDS as f64,
                a.trace && i > 0,
                dir,
            )
        })
        .collect::<Result<_, _>>()?;

    let mut vals = Values::default();
    let samples = || rounds.iter().flat_map(|r| &r.samples);
    let attempted = samples().count();
    let failed = samples().filter(|s| !s.ok).count();
    let lat = |put: bool| -> Vec<f64> {
        samples()
            .filter(|s| s.ok && s.put == put)
            .map(|s| s.lat_ns as f64)
            .collect()
    };
    layers::latencies(
        &mut vals,
        lat(false),
        "get_p50_ms",
        "get_p90_ms",
        "e2e.get_p99_ms",
    );
    layers::latencies(
        &mut vals,
        lat(true),
        "put_p50_ms",
        "put_p90_ms",
        "e2e.put_p99_ms",
    );
    let window_s: f64 = rounds.iter().map(|r| r.window_s).sum();
    vals.set_n("ops_per_s", attempted as f64 / window_s, attempted);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    vals.set_n("setup_s", stats::median(&setups), setups.len());
    vals.set("e2e.fail_share", failed as f64 / attempted.max(1) as f64);

    if a.trace {
        layers::rt_layers(&rounds, &mut vals);
        let path = dir.join(format!("trace_{}.jsonl", plan.name));
        let traced: Vec<(usize, &Round)> = rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| r.traced)
            .collect();
        let parts: Vec<trace::TracePart<'_>> = traced
            .iter()
            .map(|(i, r)| trace::TracePart {
                round: *i,
                ops: &r.op_spans,
                nodes: &r.traces,
            })
            .collect();
        trace::write_jsonl(&path, &parts).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# trace: {}", path.display());
    }
    Ok(Outcome {
        attempted,
        failed,
        vals,
    })
}

fn run_sim(a: &Args, seconds: f64) -> Result<Outcome, String> {
    let per_client = if a.quick {
        simwl::OPS_PER_CLIENT / 10
    } else {
        simwl::OPS_PER_CLIENT
    };
    let rounds = simwl::run(a.seed, seconds, per_client)?;
    let mut vals = Values::default();
    let attempted: usize = rounds.iter().map(|r| r.nice.ops + r.noob.ops).sum();
    let failed: usize = rounds.iter().map(|r| r.nice.failed + r.noob.failed).sum();
    // Median over the rounds, not total over total: one round that shared its
    // core with something else should not move the run.
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| {
            (r.nice.run_ops + r.noob.run_ops) as f64 * 1e9
                / (r.nice.run_host_ns + r.noob.run_host_ns) as f64
        })
        .collect();
    println!("# ops_per_s by round: {per_round:.0?}");
    vals.set_n("ops_per_s", stats::median(&per_round), attempted);
    // Simulated NICE latencies of the run phases of all rounds.
    let ns = |pick: &dyn Fn(&simwl::SimRound) -> &Vec<u64>| -> Vec<f64> {
        rounds.iter().flat_map(pick).map(|&n| n as f64).collect()
    };
    layers::latencies(
        &mut vals,
        ns(&|r| &r.nice.get_ns),
        "get_p50_ms",
        "get_p90_ms",
        "e2e.get_p99_ms",
    );
    layers::latencies(
        &mut vals,
        ns(&|r| &r.nice.put_ns),
        "put_p50_ms",
        "put_p90_ms",
        "e2e.put_p99_ms",
    );
    let setups: Vec<f64> = rounds.iter().map(simwl::SimRound::setup_s).collect();
    vals.set_n("setup_s", stats::median(&setups), setups.len());
    vals.set("e2e.fail_share", failed as f64 / attempted.max(1) as f64);
    // The traced run of the simulator is the timed run plus the isolated
    // micro-timings: there is no host boundary to decorate.
    layers::sim_layers(&rounds, &mut vals);
    Ok(Outcome {
        attempted,
        failed,
        vals,
    })
}

fn run_workload(name: &str, a: &Args) -> Result<Outcome, String> {
    let seconds = if a.quick {
        (a.seconds / 10.0).max(1.5)
    } else {
        a.seconds
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match plan(name) {
        Some(plan) => run_rt(&plan, a, seconds, &dir),
        None if name == "sim_ycsb_b" => run_sim(a, seconds),
        None => Err(format!(
            "unknown workload {name}; one of: {}",
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Every metric by name with its unit, then the harness's JSON line.
fn print_report(name: &str, a: &Args, out: &Outcome) {
    let defs = if a.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# workload {name} seed {} seconds {} trace {} cores {}{}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        if a.quick {
            " QUICK: not comparable with full runs"
        } else {
            ""
        }
    );
    println!("# attempted {} failed {}", out.attempted, out.failed);
    if a.trace {
        // The end-to-end values of a traced run are printed for orientation
        // only: they include tracing and are never compared.
        for d in END_TO_END {
            println!(
                "# (traced) {} = {} {}",
                d.name,
                out.vals.get(d.name),
                d.unit
            );
        }
    }
    for d in defs {
        let n = out
            .vals
            .samples(d.name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!(
            "{:<36} {:>16.4} {}{n}",
            d.name,
            out.vals.get(d.name),
            d.unit
        );
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                out.vals.get(d.name),
                d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn worse_by(d: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match d.better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// Every workload twice with one seed: each end-to-end metric of the second
/// set must be within its own bound of the first, and every simulated value
/// or count must be bit-equal.
fn verify(a: &Args) -> Result<(), String> {
    if a.quick {
        println!("# QUICK: not comparable with full runs");
    }
    let mut bad = Vec::new();
    // End-to-end metrics only ever come from untraced runs.
    let a = Args {
        workload: None,
        trace: false,
        ..*a
    };
    for w in WORKLOADS {
        let exact = w.name == "sim_ycsb_b";
        let first = run_workload(w.name, &a)?;
        let second = run_workload(w.name, &a)?;
        for d in END_TO_END {
            let (x, y) = (first.vals.get(d.name), second.vals.get(d.name));
            // The signed spread of the two sets: positive = second is worse.
            let worse = worse_by(d, x, y);
            let ok = worse <= d.bound;
            println!(
                "{:<14} {:<12} {x:>12.4} {y:>12.4} {:<4} worse by {:>6.2}% (bound {:>4.1}%) {}",
                w.name,
                d.name,
                d.unit,
                worse * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
            if !ok {
                bad.push(format!("{} {}", w.name, d.name));
            }
        }
        println!(
            "{:<14} failed {}/{} then {}/{}",
            w.name, first.failed, first.attempted, second.failed, second.attempted
        );
        if first.failed + second.failed > 0 {
            bad.push(format!("{} failures", w.name));
        }
        if exact {
            for name in EXACT {
                let (x, y) = (first.vals.get(name), second.vals.get(name));
                let same = x.to_bits() == y.to_bits();
                println!(
                    "{:<14} {name:<28} {x} {}",
                    w.name,
                    if same { "identical" } else { "DIFFERS" }
                );
                if !same {
                    bad.push(format!("{} {name}", w.name));
                }
            }
        }
    }
    if bad.is_empty() {
        println!("verify: ok");
        Ok(())
    } else {
        Err(format!("verify: {}", bad.join("; ")))
    }
}

/// `BENCHMARK.json`, from the tables this binary reports by.
fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let e2e = list(
        END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"-q\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        if a.emit {
            print!("{}", benchmark_json());
            return Ok(());
        }
        if a.verify {
            return verify(&a);
        }
        let name = a.workload.clone().ok_or("--workload <name> is required")?;
        let out = run_workload(&name, &a)?;
        print_report(&name, &a, &out);
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed check or a bad argument: no metrics, non-zero exit.
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn names_are_unique_and_within_the_harness_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(names.iter().all(|s| s.len() <= 64));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .chain(PER_LAYER)
            .all(|d| d.unit.len() <= 16));
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|d| d.name == *e)));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn worse_by_follows_the_better_direction() {
        let up = &END_TO_END[0];
        assert_eq!(up.better, "higher");
        assert!((worse_by(up, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(up, 100.0, 110.0) < 0.0);
        let down = &END_TO_END[1];
        assert!((worse_by(down, 10.0, 11.0) - 0.1).abs() < 1e-12);
    }
}
