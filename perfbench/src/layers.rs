//! Metric names, and the per-layer values behind them. `BENCHMARK.json` is
//! generated from the two tables here (`benchmark --emit-benchmark-json`), so
//! the file and the driver cannot disagree.

use std::collections::BTreeMap;

use crate::gen::OBJ_BYTES;
use crate::rt::Round;
use crate::simwl::SimRound;
use crate::stats::Sorted;
use crate::sut::{self, Metrics};
use crate::trace::{self, Role, Span};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one of these;
/// on `sim_ycsb_b` the latencies are NICE's *simulated* times and `ops_per_s`
/// is simulated operations per second of *host* time (README.md).
///
/// A bound holds for the metric on every workload, so each is more than three
/// times the widest seed-to-seed spread (quartile distance over ten runs, as a
/// share of their median) seen on any of them: `ops_per_s` 3.6 % on
/// `sim_ycsb_b` (host speed of a shared box), `get_p50_ms` 4.6 % and
/// `put_p50_ms` 2.1 % on `rt_open_mixed` (200 samples of a wide distribution),
/// `put_p90_ms` 1.9 % on `rt_put_heavy`, `setup_s` 7.9 % on `sim_ycsb_b`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("get_p50_ms", "ms", "lower", 0.18),
    e2e("get_p90_ms", "ms", "lower", 0.10),
    e2e("put_p50_ms", "ms", "lower", 0.10),
    e2e("put_p90_ms", "ms", "lower", 0.12),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One layer each; no bounds. A metric that does not exist on a workload
/// (simulator counts on a real-runtime run, open-loop generator numbers on a
/// closed loop) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // node-rt host
    layer("rt.datagrams_per_op", "1/op", "lower"),
    layer("rt.wire_bytes_per_op", "B/op", "lower"),
    layer("rt.send_us_p50", "us", "lower"),
    layer("rt.timers_per_op", "1/op", "lower"),
    layer("rt.cpu_defers_per_op", "1/op", "lower"),
    layer("rt.cpu_defer_charged_us_per_op", "us/op", "lower"),
    layer("rt.cpu_defer_wait_us_per_op", "us/op", "lower"),
    layer("rt.timer_wait_us_per_op", "us/op", "lower"),
    layer("rt.timer_slip_us_p50", "us", "lower"),
    layer("rt.timer_slip_us_p99", "us", "lower"),
    layer("rt.ctl_push_us_p50", "us", "lower"),
    // codec (node-rt codec + transport wire + noob wire, behind WireCodec)
    layer("codec.encode_ns_p50", "ns", "lower"),
    layer("codec.decode_ns_p50", "ns", "lower"),
    layer("codec.encodes_per_op", "1/op", "lower"),
    layer("codec.decodes_per_op", "1/op", "lower"),
    layer("codec.put1k_encode_ns", "ns", "lower"),
    layer("codec.put1k_decode_ns", "ns", "lower"),
    // noob server / gateway / client apps
    layer("server.busy_us_per_op", "us/op", "lower"),
    layer("server.on_packet_us_p50", "us", "lower"),
    layer("server.on_timer_us_p50", "us", "lower"),
    layer("server.callbacks_per_op", "1/op", "lower"),
    layer("gateway.busy_us_per_op", "us/op", "lower"),
    layer("client.busy_us_per_op", "us/op", "lower"),
    // transport
    layer("transport.probes_per_kop", "1/kop", "lower"),
    layer("transport.nacks_per_kop", "1/kop", "lower"),
    layer("transport.repairs_per_kop", "1/kop", "lower"),
    layer("transport.syn_retries_per_kop", "1/kop", "lower"),
    // kv-core engine
    layer("engine.lock_to_write_us_p50", "us", "lower"),
    layer("engine.lock_to_ack1_us_p50", "us", "lower"),
    layer("engine.lock_to_commit_us_p50", "us", "lower"),
    layer("engine.queued_per_kop", "1/kop", "lower"),
    layer("engine.aborts_per_kop", "1/kop", "lower"),
    layer("engine.forwarded_per_kop", "1/kop", "lower"),
    // kv-core wal / store
    layer("wal.sync_us_p50", "us", "lower"),
    layer("wal.sync_us_p99", "us", "lower"),
    layer("wal.syncs_per_put", "1/put", "lower"),
    layer("wal.appends_per_put", "1/put", "lower"),
    layer("wal.bytes_per_user_byte", "B/B", "lower"),
    layer("store.bytes_written_per_user_byte", "B/B", "lower"),
    // kv-core client
    layer("client.retries_per_kop", "1/kop", "lower"),
    layer("client.retry_wait_us_per_op", "us/op", "lower"),
    // kv-core telemetry
    layer("telemetry.record_ns", "ns", "lower"),
    // where an operation's time goes
    layer("budget.busy_us_per_op", "us/op", "lower"),
    layer("budget.wait_us_per_op", "us/op", "lower"),
    layer("budget.measured_wait_us_per_op", "us/op", "lower"),
    layer("budget.unexplained_us_per_op", "us/op", "lower"),
    // the benchmark's own generator and tracer
    layer("gen.late_ms_p99", "ms", "lower"),
    layer("gen.late_ms_max", "ms", "lower"),
    layer("gen.backlog_end", "count", "lower"),
    layer("gen.clock_skew_bound_us", "us", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    // tails the sample supports (0 with fewer than ten samples beyond), and
    // failures against attempts
    layer("e2e.get_p99_ms", "ms", "lower"),
    layer("e2e.put_p99_ms", "ms", "lower"),
    layer("e2e.fail_share", "ratio", "lower"),
    // simulator (host time unless marked simulated; simulated values and
    // counts repeat exactly for one seed)
    layer("sim.events", "count", "lower"),
    layer("sim.events_per_s", "1/s", "higher"),
    layer("sim.ns_per_event", "ns", "lower"),
    layer("sim.build_ms", "ms", "lower"),
    layer("sim.nice_ops_per_s", "1/s", "higher"),
    layer("sim.noob_ops_per_s", "1/s", "higher"),
    layer("sim.nice_simtime_ms", "ms", "lower"),
    layer("sim.noob_simtime_ms", "ms", "lower"),
    layer("sim.nice_get_p50_us", "us", "lower"),
    layer("sim.nice_put_p50_us", "us", "lower"),
    layer("sim.noob_get_p50_us", "us", "lower"),
    layer("sim.noob_put_p50_us", "us", "lower"),
    layer("sim.nice_link_bytes_per_op", "B/op", "lower"),
    layer("sim.noob_link_bytes_per_op", "B/op", "lower"),
    layer("sim.link_drops", "count", "lower"),
    layer("sim.nice_retries", "count", "lower"),
    layer("sim.nice_aborts", "count", "lower"),
    layer("ring.lookup_ns", "ns", "lower"),
    layer("flow.lookup_1600_ns", "ns", "lower"),
    layer("workload.zipf_ns", "ns", "lower"),
];

/// Per-layer metrics that are simulated time or a simulator count: two runs
/// with one seed must agree on them bit for bit.
pub const EXACT: &[&str] = &[
    "sim.events",
    "sim.nice_simtime_ms",
    "sim.noob_simtime_ms",
    "sim.nice_get_p50_us",
    "sim.nice_put_p50_us",
    "sim.noob_get_p50_us",
    "sim.noob_put_p50_us",
    "sim.nice_link_bytes_per_op",
    "sim.noob_link_bytes_per_op",
    "sim.link_drops",
    "sim.nice_retries",
    "sim.nice_aborts",
];

/// Measured values by metric name, with the sample count where one applies.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, Option<usize>)>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        // `+ 0.0`: an empty f64 sum is -0.0, which would print as "-0".
        self.0.insert(name, (v + 0.0, None));
    }

    pub fn set_n(&mut self, name: &'static str, v: f64, n: usize) {
        self.0.insert(name, (v + 0.0, Some(n)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn samples(&self, name: &str) -> Option<usize> {
        self.0.get(name).and_then(|v| v.1)
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latency metrics of one operation kind from exact samples.
pub fn latencies(
    vals: &mut Values,
    lat_ns: Vec<f64>,
    p50: &'static str,
    p90: &'static str,
    p99: &'static str,
) {
    let s = Sorted::new(lat_ns);
    match s.highest_supported() {
        Some(p) => println!(
            "# {p50}: {} samples support up to p{}",
            s.len(),
            f64::from(p) / 10.0
        ),
        None => println!(
            "# {p50}: {} samples support no percentile (ten beyond it)",
            s.len()
        ),
    }
    vals.set_n(p50, ms(s.pick(500)), s.len());
    vals.set_n(p90, ms(s.pick(900)), s.len());
    vals.set_n(p99, ms(s.pick_supported(990)), s.len());
}

/// The per-layer values of a real-runtime run. Counts read from `metrics()`,
/// the sockets and the WAL files cover every round; everything measured by
/// the decorators covers the traced rounds only.
pub fn rt_layers(rounds: &[Round], vals: &mut Values) {
    let ops: f64 = rounds.iter().map(|r| r.ops_after_preload as f64).sum();
    let puts: f64 = rounds.iter().map(|r| r.puts_after_preload as f64).sum();
    let user_bytes = puts * OBJ_BYTES as f64;
    let delta = |name: &str| -> f64 {
        rounds
            .iter()
            .map(|r| (r.end.counter(name) - r.base.counter(name)) as f64)
            .sum()
    };
    // Histograms cannot be subtracted: their quantiles include each round's
    // preload puts, which run through the same code as measured puts.
    let mut all = Metrics::default();
    for r in rounds {
        all.merge(&r.end);
    }

    vals.set(
        "rt.datagrams_per_op",
        ratio(rounds.iter().map(|r| r.datagrams as f64).sum(), ops),
    );
    let per_kop = |name: &str| ratio(delta(name) * 1e3, ops);
    vals.set("transport.probes_per_kop", per_kop("transport.probes"));
    vals.set("transport.nacks_per_kop", per_kop("transport.nacks_sent"));
    vals.set("transport.repairs_per_kop", per_kop("transport.repairs"));
    vals.set(
        "transport.syn_retries_per_kop",
        per_kop("transport.syn_retries"),
    );
    vals.set(
        "engine.lock_to_write_us_p50",
        all.hist_us("engine.lock_to_write", 1, 2),
    );
    vals.set(
        "engine.lock_to_ack1_us_p50",
        all.hist_us("engine.lock_to_ack1", 1, 2),
    );
    vals.set(
        "engine.lock_to_commit_us_p50",
        all.hist_us("engine.lock_to_commit", 1, 2),
    );
    vals.set("engine.queued_per_kop", per_kop("engine.queued"));
    vals.set("engine.aborts_per_kop", per_kop("engine.puts_aborted"));
    vals.set("engine.forwarded_per_kop", per_kop("engine.forwarded"));
    vals.set("wal.sync_us_p50", all.hist_us("wal.sync", 1, 2));
    vals.set("wal.sync_us_p99", all.hist_us("wal.sync", 99, 100));
    vals.set("wal.syncs_per_put", ratio(delta("wal.syncs"), puts));
    vals.set("wal.appends_per_put", ratio(delta("wal.appends"), puts));
    vals.set(
        "wal.bytes_per_user_byte",
        ratio(rounds.iter().map(|r| r.wal_bytes as f64).sum(), user_bytes),
    );
    vals.set(
        "store.bytes_written_per_user_byte",
        ratio(delta("store.bytes_written"), user_bytes),
    );
    vals.set("client.retries_per_kop", per_kop("client.retries"));
    let retry_wait_us: f64 = rounds
        .iter()
        .map(|r| r.end.hist_sum_us("client.retry_wait") - r.base.hist_sum_us("client.retry_wait"))
        .sum();
    vals.set("client.retry_wait_us_per_op", ratio(retry_wait_us, ops));

    let pushes = Sorted::new(
        rounds
            .iter()
            .flat_map(|r| &r.push_ns)
            .map(|&n| n as f64)
            .collect(),
    );
    vals.set_n("rt.ctl_push_us_p50", us(pushes.pick(500)), pushes.len());
    let late = Sorted::new(
        rounds
            .iter()
            .flat_map(|r| &r.late_ns)
            .map(|&n| n as f64)
            .collect(),
    );
    vals.set_n("gen.late_ms_p99", ms(late.pick(990)), late.len());
    vals.set_n("gen.late_ms_max", ms(late.pick(1000)), late.len());
    vals.set(
        "gen.backlog_end",
        rounds.iter().map(|r| r.backlog_end).max().unwrap_or(0) as f64,
    );
    vals.set(
        "gen.clock_skew_bound_us",
        us(rounds.iter().map(|r| r.skew_bound_ns).max().unwrap_or(0) as f64),
    );

    let (enc, dec) = sut::codec_put1k_ns();
    vals.set("codec.put1k_encode_ns", enc);
    vals.set("codec.put1k_decode_ns", dec);
    vals.set("telemetry.record_ns", sut::telemetry_record_ns());

    traced_layers(rounds, vals);
}

/// What the decorators saw, over the measured phase of the traced rounds.
fn traced_layers(rounds: &[Round], vals: &mut Values) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let ops: f64 = traced.iter().map(|r| r.ops_after_preload as f64).sum();
    if ops == 0.0 {
        return;
    }
    // (role, span) of every span that began in a measured phase.
    let mut spans: Vec<(Role, &Span)> = Vec::new();
    let mut n_spans = 0usize;
    let mut fired = Vec::new();
    for r in &traced {
        for t in &r.traces {
            n_spans += t.spans.len();
            spans.extend(
                t.spans
                    .iter()
                    .filter(|s| s.start_ns >= r.measured_from_ns)
                    .map(|s| (t.role, s)),
            );
            fired.extend(
                t.fired
                    .iter()
                    .filter(|f| f.fired_ns >= r.measured_from_ns)
                    .map(|f| (t.role, *f)),
            );
        }
    }
    let durs = |pick: &dyn Fn(Role, &Span) -> bool| -> Sorted {
        Sorted::new(
            spans
                .iter()
                .filter(|(role, s)| pick(*role, s))
                .map(|(_, s)| s.dur_ns() as f64)
                .collect(),
        )
    };
    let handler = |s: &Span| [trace::ON_START, trace::ON_PACKET, trace::ON_TIMER].contains(&s.name);
    let busy_us_per_op = |role: Role| us(durs(&|r, s| r == role && handler(s)).sum()) / ops;

    let sends = durs(&|_, s| s.name == trace::SEND);
    vals.set_n("rt.send_us_p50", us(sends.pick(500)), sends.len());
    let encodes = durs(&|_, s| s.name == trace::ENCODE);
    let decodes = durs(&|_, s| s.name == trace::DECODE);
    vals.set_n("codec.encode_ns_p50", encodes.pick(500), encodes.len());
    vals.set_n("codec.decode_ns_p50", decodes.pick(500), decodes.len());
    vals.set("codec.encodes_per_op", encodes.len() as f64 / ops);
    vals.set("codec.decodes_per_op", decodes.len() as f64 / ops);
    let wire_bytes: f64 = spans
        .iter()
        .filter(|(_, s)| s.name == trace::ENCODE)
        .map(|(_, s)| s.arg as f64)
        .sum();
    vals.set("rt.wire_bytes_per_op", wire_bytes / ops);

    // An arm's `arg` is the delay it asked for.
    let arms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| s.arg as f64)
            .collect()
    };
    vals.set(
        "rt.timers_per_op",
        (arms(trace::SET_TIMER).len() + arms(trace::TICK).len()) as f64 / ops,
    );
    vals.set(
        "rt.cpu_defers_per_op",
        arms(trace::CPU_DEFER).len() as f64 / ops,
    );
    vals.set(
        "rt.cpu_defer_charged_us_per_op",
        us(arms(trace::CPU_DEFER).iter().sum()) / ops,
    );
    let serving = |role: Role| role != Role::Client;
    // Waits on the serving nodes, by kind of arm. The transport's tick is
    // housekeeping that re-arms itself; no operation waits for it.
    let wait_us = |kind: &str| -> f64 {
        us(fired
            .iter()
            .filter(|(role, f)| serving(*role) && f.kind == kind)
            .map(|(_, f)| f.wait_ns as f64)
            .sum())
    };
    vals.set(
        "rt.cpu_defer_wait_us_per_op",
        wait_us(trace::CPU_DEFER) / ops,
    );
    vals.set("rt.timer_wait_us_per_op", wait_us(trace::SET_TIMER) / ops);
    let slips = Sorted::new(fired.iter().map(|(_, f)| f.slip_ns as f64).collect());
    vals.set_n("rt.timer_slip_us_p50", us(slips.pick(500)), slips.len());
    vals.set_n("rt.timer_slip_us_p99", us(slips.pick(990)), slips.len());

    vals.set("server.busy_us_per_op", busy_us_per_op(Role::Server));
    vals.set("gateway.busy_us_per_op", busy_us_per_op(Role::Gateway));
    vals.set("client.busy_us_per_op", busy_us_per_op(Role::Client));
    let on_packet = durs(&|r, s| r == Role::Server && s.name == trace::ON_PACKET);
    let on_timer = durs(&|r, s| r == Role::Server && s.name == trace::ON_TIMER);
    vals.set_n(
        "server.on_packet_us_p50",
        us(on_packet.pick(500)),
        on_packet.len(),
    );
    vals.set_n(
        "server.on_timer_us_p50",
        us(on_timer.pick(500)),
        on_timer.len(),
    );
    vals.set(
        "server.callbacks_per_op",
        (on_packet.len() + on_timer.len()) as f64 / ops,
    );

    // Budget: busy is every handler (sends and encodes are inside handlers)
    // plus every decode, on all nodes. Wait is what is left of the mean
    // end-to-end time; the part of it seen as timer and cpu_defer waits on the
    // serving nodes is printed beside it, and the rest (socket, scheduler,
    // queueing behind the other client) is the unexplained remainder.
    let busy = us(durs(&|_, s| handler(s) || s.name == trace::DECODE).sum()) / ops;
    let e2e_us: f64 = us(traced
        .iter()
        .flat_map(|r| &r.op_spans)
        .map(|o| (o.end_ns - o.start_ns) as f64)
        .sum())
        / ops;
    let measured_wait = (wait_us(trace::CPU_DEFER) + wait_us(trace::SET_TIMER)) / ops;
    vals.set("budget.busy_us_per_op", busy);
    vals.set("budget.wait_us_per_op", e2e_us - busy);
    vals.set("budget.measured_wait_us_per_op", measured_wait);
    vals.set(
        "budget.unexplained_us_per_op",
        e2e_us - busy - measured_wait,
    );
    vals.set("trace.spans", n_spans as f64);

    // Overhead: median latency of the traced rounds against the untraced
    // round of the same run, on the operation kind the workload has most of.
    let p50 = |traced: bool, put: bool| -> f64 {
        Sorted::new(
            rounds
                .iter()
                .filter(|r| r.traced == traced)
                .flat_map(|r| &r.samples)
                .filter(|s| s.ok && s.put == put)
                .map(|s| s.lat_ns as f64)
                .collect(),
        )
        .pick(500)
    };
    let puts = rounds
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.put)
        .count();
    let mostly_puts = 2 * puts > rounds.iter().map(|r| r.samples.len()).sum::<usize>();
    let (with, without) = (p50(true, mostly_puts), p50(false, mostly_puts));
    vals.set(
        "trace.overhead_pct",
        ratio((with - without) * 100.0, without),
    );
}

/// The per-layer values of a simulator run. Simulated values and counts are
/// totals (or exact percentiles) over all rounds.
pub fn sim_layers(rounds: &[SimRound], vals: &mut Values) {
    let total =
        |pick: &dyn Fn(&SimRound) -> u64| rounds.iter().map(|r| pick(r) as f64).sum::<f64>();
    let events = total(&|r| r.nice.events + r.noob.events);
    // Events are counted over both phases, so their host time is too.
    let run_s = total(&|r| {
        r.nice.load_host_ns + r.nice.run_host_ns + r.noob.load_host_ns + r.noob.run_host_ns
    }) / 1e9;
    vals.set("sim.events", events);
    vals.set("sim.events_per_s", ratio(events, run_s));
    vals.set("sim.ns_per_event", ratio(run_s * 1e9, events));
    let builds: Vec<f64> = rounds
        .iter()
        .map(|r| ms((r.nice.build_host_ns + r.noob.build_host_ns) as f64))
        .collect();
    vals.set_n("sim.build_ms", crate::stats::median(&builds), builds.len());
    let (nice_ops, noob_ops) = (total(&|r| r.nice.ops as u64), total(&|r| r.noob.ops as u64));
    vals.set(
        "sim.nice_ops_per_s",
        ratio(
            total(&|r| r.nice.run_ops as u64) * 1e9,
            total(&|r| r.nice.run_host_ns),
        ),
    );
    vals.set(
        "sim.noob_ops_per_s",
        ratio(
            total(&|r| r.noob.run_ops as u64) * 1e9,
            total(&|r| r.noob.run_host_ns),
        ),
    );
    vals.set("sim.nice_simtime_ms", ms(total(&|r| r.nice.simtime_ns)));
    vals.set("sim.noob_simtime_ms", ms(total(&|r| r.noob.simtime_ns)));
    let p50_us = |name: &'static str, pick: &dyn Fn(&SimRound) -> &Vec<u64>, vals: &mut Values| {
        let s = Sorted::new(rounds.iter().flat_map(pick).map(|&n| n as f64).collect());
        vals.set_n(name, us(s.pick(500)), s.len());
    };
    p50_us("sim.nice_get_p50_us", &|r| &r.nice.get_ns, vals);
    p50_us("sim.nice_put_p50_us", &|r| &r.nice.put_ns, vals);
    p50_us("sim.noob_get_p50_us", &|r| &r.noob.get_ns, vals);
    p50_us("sim.noob_put_p50_us", &|r| &r.noob.put_ns, vals);
    vals.set(
        "sim.nice_link_bytes_per_op",
        ratio(total(&|r| r.nice.link_bytes), nice_ops),
    );
    vals.set(
        "sim.noob_link_bytes_per_op",
        ratio(total(&|r| r.noob.link_bytes), noob_ops),
    );
    vals.set(
        "sim.link_drops",
        total(&|r| r.nice.link_drops + r.noob.link_drops),
    );
    vals.set("sim.nice_retries", total(&|r| r.nice.retries));
    vals.set("sim.nice_aborts", total(&|r| r.nice.aborts));
    vals.set("ring.lookup_ns", sut::ring_lookup_ns());
    vals.set("flow.lookup_1600_ns", sut::flow_lookup_1600_ns());
    vals.set("workload.zipf_ns", sut::workload_zipf_ns());
    vals.set("telemetry.record_ns", sut::telemetry_record_ns());
}
