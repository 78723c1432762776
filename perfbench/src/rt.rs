//! The real-runtime workloads: rounds of (boot + preload, measured phase) on
//! the loopback-UDP cluster. All load comes from this one thread.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::{self, Obs};
use crate::gen::{self, GenOp, OpStream};
use crate::sut::{Metrics, RtCluster, CLIENTS};
use crate::trace::{self, NodeTrace, OpSpan};

/// Records preloaded (and the zipfian key space) per round. Set-up is paid
/// once per round, so this is what keeps three set-ups inside a short run; the
/// store has no cache whose size the working set could cross.
pub const RECORDS: u64 = 100;

/// Set-ups (and measured slices) per run: `setup_s` is their median.
pub const ROUNDS: usize = 3;

pub enum Load {
    /// Each client issues its next operation when the previous one completes.
    Closed { put_share: f64 },
    /// Operations arrive on a seeded schedule at a fixed total rate whatever
    /// the system does; each is timed from when it was due.
    Open { rate_per_s: f64, put_share: f64 },
}

pub struct Plan {
    pub name: &'static str,
    pub gateway: bool,
    pub load: Load,
}

/// One measured operation. `lat_ns` runs from when the operation was due (in a
/// closed loop: when its client issued it) to its completion.
pub struct Sample {
    pub put: bool,
    pub ok: bool,
    pub lat_ns: u64,
}

/// What one round produced.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// Operations that completed inside the measured window.
    pub samples: Vec<Sample>,
    pub window_s: f64,
    /// Every operation after the preload (window + drain): the denominator of
    /// per-operation counts, which are read after the drain.
    pub ops_after_preload: usize,
    pub puts_after_preload: usize,
    /// Registry snapshots after the preload and after the drain.
    pub base: Metrics,
    pub end: Metrics,
    pub datagrams: u64,
    pub wal_bytes: u64,
    /// Tracer clock when the measured phase began; earlier spans are set-up.
    pub measured_from_ns: u64,
    pub traces: Vec<NodeTrace>,
    pub op_spans: Vec<OpSpan>,
    /// Open loop only: how late each push began, how long each push blocked,
    /// operations still queued after the last push, and the bound on the error
    /// of mapping due times onto the node clock.
    pub late_ns: Vec<u64>,
    pub push_ns: Vec<u64>,
    pub backlog_end: usize,
    pub skew_bound_ns: u64,
}

fn wait_until(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let began = Instant::now();
    while !cond() {
        if began.elapsed() > limit {
            return Err(format!("{what}: not reached within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn sleep_until(at: Instant) {
    if let Some(d) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Keep both closed-loop clients busy for `secs`: poll their progress and top
/// their queues up before they drain (a drained client sleeps an idle poll),
/// keeping the backlog small so the drain after the window is short.
fn drive_closed(cluster: &RtCluster, streams: &mut [OpStream], preloaded: &[usize], secs: f64) {
    let mut pushed = [0usize; CLIENTS];
    let mut done = [0usize; CLIENTS];
    let mut top_up = |j: usize, n: usize, pushed: &mut [usize; CLIENTS]| {
        let ops: Vec<GenOp> = streams[j].by_ref().take(n).collect();
        cluster.push(j, &ops);
        pushed[j] += n;
    };
    for j in 0..CLIENTS {
        top_up(j, 16, &mut pushed);
    }
    // The window opens when the first op is issued, a pickup delay after this
    // instant; topping up a little past `secs` keeps it fully loaded.
    let stop = Instant::now() + Duration::from_secs_f64(secs) + Duration::from_millis(60);
    while Instant::now() < stop {
        std::thread::sleep(Duration::from_millis(20));
        for j in 0..CLIENTS {
            let now_done = cluster.completed(j) - preloaded[j];
            let rate = now_done - done[j];
            done[j] = now_done;
            let backlog = pushed[j] - now_done;
            if backlog < (2 * rate).max(6) {
                top_up(j, (4 * rate).max(12) - backlog, &mut pushed);
            }
        }
    }
}

struct OpenStats {
    due_node_ns: Vec<Vec<u64>>,
    late_ns: Vec<u64>,
    push_ns: Vec<u64>,
    backlog_end: usize,
    skew_bound_ns: u64,
}

/// Push each arrival at its due time. Returns, per client, the due time of
/// each of its operations on the node clock.
fn drive_open(cluster: &RtCluster, sched: &[gen::Arrival], preloaded: &[usize]) -> OpenStats {
    // The node clock counts from an `Instant` the runtime takes while it
    // boots; the benchmark only knows the two `Instant`s around it.
    let bracket = cluster.epoch_after - cluster.epoch_before;
    let epoch = cluster.epoch_before + bracket / 2;
    let origin = Instant::now() + Duration::from_millis(5);
    let origin_node_ns = (origin - epoch).as_nanos() as u64;
    let mut st = OpenStats {
        due_node_ns: vec![Vec::new(); CLIENTS],
        late_ns: Vec::new(),
        push_ns: Vec::new(),
        backlog_end: 0,
        skew_bound_ns: (bracket / 2).as_nanos() as u64,
    };
    for a in sched {
        let due = origin + Duration::from_nanos(a.due_ns);
        sleep_until(due);
        let began = Instant::now();
        cluster.push(a.client, &[a.op]);
        st.late_ns.push((began - due).as_nanos() as u64);
        st.push_ns.push(began.elapsed().as_nanos() as u64);
        st.due_node_ns[a.client].push(origin_node_ns + a.due_ns);
    }
    let completed: usize = (0..CLIENTS)
        .map(|j| cluster.completed(j) - preloaded[j])
        .sum();
    st.backlog_end = sched.len() - completed;
    st
}

/// One round: boot, preload, measure, drain, check, tear down.
pub fn round(
    plan: &Plan,
    seed: u64,
    round: u64,
    secs: f64,
    traced: bool,
    dir: &Path,
) -> Result<Round, String> {
    let wal = dir.join(format!("wal_{}_{round}", plan.name));
    let _ = std::fs::remove_dir_all(&wal);
    std::fs::create_dir_all(&wal).map_err(|e| format!("create {}: {e}", wal.display()))?;

    let preload = gen::preload(RECORDS, CLIENTS);
    let preloaded: Vec<usize> = preload.iter().map(Vec::len).collect();
    let began = Instant::now();
    let cluster = RtCluster::boot(seed, &wal, plan.gateway, traced, &preload);
    wait_until("preload", Duration::from_secs(60), || cluster.all_done())?;
    let setup_s = began.elapsed().as_secs_f64();

    let base = cluster.metrics();
    let (datagrams0, wal0) = (cluster.datagrams_sent(), cluster.wal_bytes());
    let measured_from_ns = trace::now_ns();
    let open = match plan.load {
        Load::Closed { put_share } => {
            let mut streams: Vec<OpStream> = (0..CLIENTS)
                .map(|j| OpStream::new(seed, round, j as u64, RECORDS, put_share))
                .collect();
            drive_closed(&cluster, &mut streams, &preloaded, secs);
            None
        }
        Load::Open {
            rate_per_s,
            put_share,
        } => {
            let n = (rate_per_s * secs).round() as usize;
            let window_ns = (secs * 1e9) as u64;
            let sched = gen::open_schedule(seed, round, n, window_ns, CLIENTS, RECORDS, put_share);
            Some(drive_open(&cluster, &sched, &preloaded))
        }
    };
    wait_until("drain", Duration::from_secs(60), || cluster.all_done())?;

    let end = cluster.metrics();
    let datagrams = cluster.datagrams_sent() - datagrams0;
    let wal_bytes = cluster.wal_bytes() - wal0;
    let records: Vec<Vec<Obs>> = (0..CLIENTS).map(|j| cluster.records(j)).collect();
    let traces = cluster.take_traces();
    cluster.shutdown();

    let bad = check::violations(
        records.iter().flatten().cloned().collect(),
        crate::sut::linearize,
    );
    if !bad.is_empty() {
        return Err(format!(
            "{} output violations, first: {}",
            bad.len(),
            bad[0]
        ));
    }
    let _ = std::fs::remove_dir_all(&wal);

    let after: Vec<&[Obs]> = records
        .iter()
        .zip(&preloaded)
        .map(|(r, &n)| &r[n..])
        .collect();
    let mut out = Round {
        traced,
        setup_s,
        samples: Vec::new(),
        window_s: secs,
        ops_after_preload: after.iter().map(|r| r.len()).sum(),
        puts_after_preload: after
            .iter()
            .flat_map(|r| r.iter())
            .filter(|r| r.put)
            .count(),
        base,
        end,
        datagrams,
        wal_bytes,
        measured_from_ns,
        op_spans: op_spans(&after, &traces),
        traces,
        late_ns: Vec::new(),
        push_ns: Vec::new(),
        backlog_end: 0,
        skew_bound_ns: 0,
    };
    match open {
        None => {
            // The window opens at the first measured issue and lasts `secs`.
            let opens = after
                .iter()
                .filter_map(|r| r.first())
                .map(|r| r.start_ns)
                .min();
            let closes = opens.unwrap_or(0) + (secs * 1e9) as u64;
            for r in after
                .iter()
                .flat_map(|r| r.iter())
                .filter(|r| r.end_ns <= closes)
            {
                out.samples.push(Sample {
                    put: r.put,
                    ok: r.ok(),
                    lat_ns: r.end_ns - r.start_ns,
                });
            }
        }
        Some(st) => {
            // A client runs its queue in order, so its k-th record after the
            // preload is its k-th arrival.
            let mut last_end = 0;
            let mut first_due = u64::MAX;
            for (recs, dues) in after.iter().zip(&st.due_node_ns) {
                if recs.len() != dues.len() {
                    return Err(format!(
                        "open loop: {} arrivals, {} records",
                        dues.len(),
                        recs.len()
                    ));
                }
                for (r, &due) in recs.iter().zip(dues) {
                    out.samples.push(Sample {
                        put: r.put,
                        ok: r.ok(),
                        lat_ns: r.end_ns.saturating_sub(due),
                    });
                    last_end = last_end.max(r.end_ns);
                    first_due = first_due.min(due);
                }
            }
            // First due time to last completion: the rate the system kept up.
            out.window_s = last_end.saturating_sub(first_due) as f64 / 1e9;
            out.late_ns = st.late_ns;
            out.push_ns = st.push_ns;
            out.backlog_end = st.backlog_end;
            out.skew_bound_ns = st.skew_bound_ns;
        }
    }
    Ok(out)
}

/// Client operations after the preload as root spans on the tracer's clock
/// (each client node recorded its clock offset at `on_start`).
fn op_spans(after: &[&[Obs]], traces: &[NodeTrace]) -> Vec<OpSpan> {
    let mut spans = Vec::new();
    for recs in after {
        let Some(first) = recs.first() else { continue };
        let Some(node) = traces.iter().find(|t| t.node == first.client) else {
            continue;
        };
        let on_tracer = |node_ns: u64| (node_ns as i64 - node.clock_offset_ns).max(0) as u64;
        spans.extend(recs.iter().map(|r| OpSpan {
            client: r.client,
            seq: r.seq,
            put: r.put,
            start_ns: on_tracer(r.start_ns),
            end_ns: on_tracer(r.end_ns),
        }));
    }
    spans
}
