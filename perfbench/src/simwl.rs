//! The simulator workload: rounds of (generate + build, run to completion) of
//! a YCSB-B input on NICE and then on NOOB, single thread.
//!
//! The amount of work is fixed by `--seconds` (one round per `ROUND_SECONDS`
//! asked for), not by how fast the host is: everything simulated is then a
//! function of the seed and `--seconds` alone and must repeat bit for bit,
//! while host time per operation is what a faster or slower simulator moves.

use std::time::Instant;

use crate::gen::{self, GenOp, OpStream};
use crate::sut::{self, SimOut, SimSystem};

pub const CLIENTS: usize = 10;
pub const RECORDS: u64 = 1_000;
/// Run-phase operations per client and round, sized so that one round (both
/// systems) takes about `ROUND_SECONDS` of host time on the sizing box.
pub const OPS_PER_CLIENT: usize = 2_000;
pub const ROUND_SECONDS: f64 = 2.5;
/// YCSB-B: 95 % reads, 5 % updates. (YCSB-A/F at this scale send NICE into
/// hours of simulated conflict retries, so they are not used.)
const PUT_SHARE: f64 = 0.05;

/// Per client: its stripe of the load phase, and its run phase.
///
/// A client only updates records of its own stripe (reads stay zipfian over all
/// records). Two NICE clients that put one key at the same moment can leave its
/// lock stuck at this commit: every later put of that key then burns 25 retries
/// of 2 simulated seconds and fails. Whether a seed hits that is luck, and a
/// benchmark workload may not fail, so writers never share a key here.
pub fn ops(seed: u64, round: u64, per_client: usize) -> (Vec<Vec<GenOp>>, Vec<Vec<GenOp>>) {
    let own = |j: u64, op: GenOp| GenOp {
        rank: if op.put {
            op.rank - op.rank % CLIENTS as u64 + j
        } else {
            op.rank
        },
        ..op
    };
    let run = (0..CLIENTS as u64)
        .map(|j| {
            OpStream::new(seed, round, j, RECORDS, PUT_SHARE)
                .take(per_client)
                .map(|op| own(j, op))
                .collect()
        })
        .collect();
    (gen::preload(RECORDS, CLIENTS), run)
}

pub struct SimRound {
    pub gen_host_ns: u64,
    pub nice: SimOut,
    pub noob: SimOut,
}

impl SimRound {
    pub fn setup_s(&self) -> f64 {
        (self.gen_host_ns
            + self.nice.build_host_ns
            + self.nice.load_host_ns
            + self.noob.build_host_ns
            + self.noob.load_host_ns) as f64
            / 1e9
    }
}

/// One round per `ROUND_SECONDS` of `secs` (at least one), each on its own
/// input stream.
pub fn run(seed: u64, secs: f64, per_client: usize) -> Result<Vec<SimRound>, String> {
    let n = ((secs / ROUND_SECONDS).round() as u64).max(1);
    let mut rounds: Vec<SimRound> = Vec::new();
    for round in 0..n {
        let t = Instant::now();
        let (load, run) = ops(seed, round, per_client);
        let gen_host_ns = t.elapsed().as_nanos() as u64;
        let nice = sut::run_sim(SimSystem::Nice, seed, &load, &run);
        let noob = sut::run_sim(SimSystem::NoobRac2pc, seed, &load, &run);
        for (name, o) in [("NICE", &nice), ("NOOB", &noob)] {
            if !o.done {
                return Err(format!(
                    "sim {name}: clients did not drain (run_until_done)"
                ));
            }
            if o.short_gets > 0 {
                return Err(format!(
                    "sim {name}: {} gets returned a short object",
                    o.short_gets
                ));
            }
        }
        rounds.push(SimRound {
            gen_host_ns,
            nice,
            noob,
        });
    }
    Ok(rounds)
}
