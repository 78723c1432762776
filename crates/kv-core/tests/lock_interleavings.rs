//! Interleaving checker for the shared 2PC put state machine, driven by
//! the kv-core DPOR explorer.
//!
//! NICE's put protocol (§4.3, Figure 3) serializes concurrent puts to one
//! object through per-replica in-memory locks plus the primary's
//! timestamp quadruplet. The event-driven simulation exercises only the
//! schedules its configuration happens to produce; this harness instead
//! *enumerates* schedules against the production [`TwoPcEngine`] — the
//! same state machine both NICE and NOOB adapt. Each concurrent put is
//! modeled as its visible step sequence —
//!
//! ```text
//!   Lock(r0) … Lock(rN)  →  Decide  →  Finish(r0) … Finish(rN)
//! ```
//!
//! — where `Lock(r)` is the data multicast arriving at replica `r`
//! ([`TwoPcEngine::accept`], with write-completion and PutAck1
//! effects pumped through the engine as they would be on the wire),
//! `Decide` is the coordinator's decision point (the engine has either
//! emitted its `Commit` effect by then, or its put deadline passes and
//! the coordinator gives up on it ([`TwoPcEngine::give_up`]), mirroring
//! §4.3), and `Finish(r)` delivers the buffered commit/abort to replica
//! `r` ([`TwoPcEngine::on_commit`] / [`TwoPcEngine::on_abort`]).
//! Replica 0 hosts the coordinator.
//! Every schedule must uphold:
//!
//! 1. **no stranded locks / no deadlock** — at quiescence no replica
//!    holds a pending lock, the persistent log is drained (every +L got
//!    its -L), and `in_doubt()` is empty;
//! 2. **no lost update** — every replica's committed value for the key
//!    is exactly the value of the committed put with the greatest
//!    timestamp (or absent when every put aborted);
//! 3. **replica convergence** — all replicas hold byte-identical
//!    committed state;
//! 4. **progress** — a put that acquired every replica lock commits.
//!
//! Schedules are [`Schedule`] values; small spaces (two puts × three
//! replicas, three puts × one replica) are still swept exhaustively via
//! [`Schedule::enumerate`] as ground truth. The big spaces run through
//! the [`Explorer`]: [`StepModel`] adapts a live [`Run`] to the
//! [`Model`] trait, observing each step's [`Footprint`] *empirically* —
//! it diffs every replica engine's protocol-visible signature
//! ([`rep_sig`]) across the step to find the write set, and models the
//! read set as the step's home replica. With that relation the full
//! 756,756-schedule three-put × two-replica space is covered in the
//! debug fast tier by visiting one representative per Mazurkiewicz
//! trace class, with the coverage arithmetic (Σ class sizes = full
//! space) asserted exactly; the release tier re-runs the space
//! exhaustively and cross-checks the partition class by class
//! (`three_puts_two_replicas_full_cross_check`).
//!
//! On top of the fault-free sweeps, three failure dimensions are
//! enumerated: **primary failover mid-2PC** (the 2×2 space exhaustively
//! at every crash point; the 2×3 space through the explorer's *prefix*
//! classes — every crash prefix of all 3432 schedules is covered by one
//! representative, with per-depth coverage sums proving the partition),
//! **message loss** (every wire message of every schedule dropped in
//! turn), and **message duplication** (every wire message delivered
//! twice, asserting byte-identical outcomes). Seeded protocol mutations
//! (a forgotten abort release; a lock-stealing accept) confirm both the
//! invariants and the independence relation have teeth: the reduced
//! exploration must catch every mutant the exhaustive sweep catches,
//! while a deliberately-wrong "everything commutes" relation provably
//! misses one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use kv_core::{
    conflict_dependence, normal_form, Effect, EngineCfg, EngineRole, Explorer, Footprint, Group,
    LockResolution, Model, NodeIdx, OpId, Schedule, StorageCfg, Timestamp, TwoPcEngine, Value,
    Visit,
};
use node_rt::{Ipv4, Time};

const KEY: &str = "obj";
const PRIMARY: Ipv4 = Ipv4::new(10, 0, 0, 1);

/// The protocol-visible steps of one put, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The data multicast arrives at replica `r` (lock + forced +L/W).
    Lock(usize),
    /// The coordinator's commit/abort decision point.
    Decide,
    /// The commit/abort notice arrives at replica `r`.
    Finish(usize),
}

fn step_of(idx: usize, replicas: usize) -> Step {
    if idx < replicas {
        Step::Lock(idx)
    } else if idx == replicas {
        Step::Decide
    } else {
        Step::Finish(idx - replicas - 1)
    }
}

fn op_id(o: usize) -> OpId {
    OpId {
        client: Ipv4::new(10, 0, 1, o as u8 + 1),
        client_seq: 1,
    }
}

fn value_of(o: usize) -> Value {
    Value::from_bytes(vec![b'A' + o as u8; 8])
}

fn group(replicas: usize) -> Group {
    Group {
        peers: (1..replicas as u32).map(NodeIdx).collect(),
        self_addr: PRIMARY,
    }
}

/// The NICE-style engine configuration: put deadlines, commit on
/// delivery (not inline), durable pending writes.
fn engine() -> TwoPcEngine {
    TwoPcEngine::new(EngineCfg {
        storage: StorageCfg::default(),
        op_timeout: Some(Time::from_ms(500)),
        inline_commit: false,
        durable_pending: true,
        stale_lock_ttl: None,
    })
}

/// Everything observable after one schedule has run to quiescence.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Committed timestamp per put (`None` = aborted).
    committed: Vec<Option<Timestamp>>,
    /// Final committed `(bytes, ts)` of the key per replica.
    finals: Vec<Option<(Vec<u8>, Timestamp)>>,
    /// Replicas with a pending lock, a log entry, or an in-doubt put left.
    stranded: bool,
}

/// Wire-level fate of one step's message. `Decide` is coordinator-local
/// and is never faulted — loss and duplication act on the messages that
/// carry data and commit/abort notices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The message arrives once (the fault-free path).
    Deliver,
    /// The message is lost; the step has no effect on the replica.
    Drop,
    /// The message arrives twice (a retry raced the original).
    Dup,
}

/// Seeded protocol mutations the checker must be able to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// The faithful protocol.
    None,
    /// The abort path forgets to deliver the release to the replicas.
    SkipAbortRelease,
    /// An arriving put forcibly releases another put's replica lock
    /// before locking (a botched stale-lock heuristic). The stolen put
    /// still believes it holds the replica set, so its commit silently
    /// fails to apply wherever the thief squatted — an order-dependent
    /// divergence only specific interleavings expose.
    LockSteal,
}

/// A single live execution: one production [`TwoPcEngine`] per replica
/// (replica 0 hosts the coordinator) plus the schedule's bookkeeping.
/// `Clone` lets the DPOR explorer fork an execution mid-schedule.
#[derive(Clone)]
struct Run {
    engines: Vec<TwoPcEngine>,
    cursor: Vec<usize>,
    locked: Vec<Vec<bool>>,
    /// None = undecided; Some(Some(ts)) = commit; Some(None) = abort.
    decision: Vec<Option<Option<Timestamp>>>,
    /// Puts whose client received a PutReply (ok or failed).
    replied: Vec<bool>,
    /// Puts whose commit reached at least one replica store.
    applied: Vec<bool>,
}

impl Run {
    fn new(ops: usize, replicas: usize) -> Run {
        Run {
            engines: (0..replicas).map(|_| engine()).collect(),
            cursor: vec![0; ops],
            locked: vec![vec![false; replicas]; ops],
            decision: vec![None; ops],
            replied: vec![false; ops],
            applied: vec![false; ops],
        }
    }

    fn idx(&self, op: OpId) -> usize {
        (0..self.decision.len())
            .find(|&o| op_id(o) == op)
            .expect("effect for an unknown op")
    }

    /// Deliver engine effects as the wire would: write completions back
    /// into their engine, acks to the coordinator, and buffer the
    /// coordinator's Commit/Abort/Reply outcomes for the schedule's
    /// Finish steps.
    fn pump(&mut self, source: usize, fx: Vec<Effect>) {
        let replicas = self.engines.len();
        let mut q: VecDeque<(usize, Effect)> = fx.into_iter().map(|e| (source, e)).collect();
        while let Some((r, e)) = q.pop_front() {
            let mut fx = Vec::new();
            match e {
                Effect::WriteDone { key, op, .. } => {
                    if r == 0 {
                        let g = group(replicas);
                        self.engines[0].on_written(
                            &key,
                            op,
                            EngineRole::Primary(&g),
                            Time::ZERO,
                            &mut fx,
                        );
                    } else {
                        self.engines[r].on_written(&key, op, EngineRole::Peer, Time::ZERO, &mut fx);
                    }
                    q.extend(fx.into_iter().map(|e| (r, e)));
                }
                Effect::Ack1 { key, op } => {
                    let g = group(replicas);
                    self.engines[0].on_ack1(&key, op, NodeIdx(r as u32), &g, Time::ZERO, &mut fx);
                    q.extend(fx.into_iter().map(|e| (0, e)));
                }
                Effect::Ack2 { key, op } => {
                    let g = group(replicas);
                    self.engines[0].on_ack2(&key, op, NodeIdx(r as u32), Some(&g), &mut fx);
                    q.extend(fx.into_iter().map(|e| (0, e)));
                }
                Effect::Commit { op, ts, .. } => {
                    let o = self.idx(op);
                    self.decision[o] = Some(Some(ts));
                    // The coordinator applies its own commit the moment
                    // the timestamp is minted (see `check_commit`), so
                    // the put is on a replica store from here on.
                    self.applied[o] = true;
                }
                Effect::Abort { op, .. } => {
                    let o = self.idx(op);
                    if self.decision[o].is_none() {
                        self.decision[o] = Some(None);
                    }
                }
                Effect::Reply { op, .. } => {
                    let o = self.idx(op);
                    self.replied[o] = true;
                }
                Effect::Deadline { .. } | Effect::Unresponsive { .. } | Effect::Redrive { .. } => {}
            }
        }
    }

    /// Execute put `o`'s next step under `fault`. `strict` keeps the
    /// fault-free invariant that a fully locked put's first commit is
    /// accepted by every peer replica (the coordinator applies it at
    /// decision time instead).
    fn exec(&mut self, o: usize, fault: Fault, mutation: Mutation, strict: bool) {
        let replicas = self.engines.len();
        let step = step_of(self.cursor[o], replicas);
        self.cursor[o] += 1;
        if fault == Fault::Drop && step != Step::Decide {
            return;
        }
        let copies = if fault == Fault::Dup { 2 } else { 1 };
        let op = op_id(o);
        match step {
            Step::Lock(r) => {
                if mutation == Mutation::LockSteal {
                    // The mutant "frees" a lock another put holds. The
                    // release is local misbehavior, not wire traffic, so
                    // its effects are discarded, not pumped.
                    let victim = self.engines[r]
                        .store()
                        .pending(KEY)
                        .map(|p| p.op)
                        .filter(|&v| v != op);
                    if let Some(victim) = victim {
                        let mut sink = Vec::new();
                        self.engines[r].on_abort(KEY, victim, Time::MAX, &mut sink);
                    }
                }
                for _ in 0..copies {
                    let mut fx = Vec::new();
                    self.engines[r].accept(KEY, value_of(o), op, Time::ZERO, &mut fx);
                    self.pump(r, fx);
                }
                self.locked[o][r] = self.engines[r]
                    .store()
                    .pending(KEY)
                    .is_some_and(|p| p.op == op);
            }
            Step::Decide => {
                if self.decision[o].is_none() {
                    // Undecided by now: the round's deadline passes and
                    // the coordinator gives up on it (§4.3 — it aborts
                    // and fails the client).
                    let g = group(replicas);
                    let mut fx = Vec::new();
                    self.engines[0].give_up(KEY, op, Some(&g), Time::ZERO, &mut fx);
                    self.pump(0, fx);
                    if self.decision[o].is_none() {
                        // No replica ever locked or acked, so no
                        // coordinator record exists: nothing to settle.
                        self.decision[o] = Some(None);
                    }
                }
            }
            Step::Finish(r) => match self.decision[o] {
                Some(Some(ts)) => {
                    for dup in 0..copies {
                        let mut fx = Vec::new();
                        let applied = if r == 0 {
                            let g = group(replicas);
                            self.engines[0].on_commit(
                                KEY,
                                op,
                                ts,
                                EngineRole::Primary(&g),
                                Time::ZERO,
                                &mut fx,
                            )
                        } else {
                            self.engines[r].on_commit(
                                KEY,
                                op,
                                ts,
                                EngineRole::Peer,
                                Time::ZERO,
                                &mut fx,
                            )
                        };
                        self.pump(r, fx);
                        if applied {
                            self.applied[o] = true;
                        }
                        // Replica 0 is the coordinator: it committed at
                        // decision time, so this delivery is the loopback
                        // re-delivery and is an idempotent no-op.
                        if strict && dup == 0 && r != 0 {
                            assert!(
                                applied,
                                "replica {r} rejected the commit of a fully locked put {o}"
                            );
                        }
                    }
                }
                Some(None) => {
                    if mutation == Mutation::SkipAbortRelease {
                        return;
                    }
                    for _ in 0..copies {
                        let mut fx = Vec::new();
                        // No retries in this model: the abort is always
                        // for the round that holds the lock.
                        self.engines[r].on_abort(KEY, op, Time::MAX, &mut fx);
                        self.pump(r, fx);
                    }
                }
                None => unreachable!("schedule violated program order"),
            },
        }
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            committed: self.decision.iter().map(|d| d.flatten()).collect(),
            finals: self
                .engines
                .iter()
                .map(|e| e.store().get(KEY).map(|c| (c.value.bytes.to_vec(), c.ts)))
                .collect(),
            stranded: self.engines.iter().any(|e| {
                let s = e.store();
                s.locked(KEY) || !s.in_doubt().is_empty()
            }),
        }
    }
}

// ---------------------------------------------------------------------
// The DPOR model: a Run adapted to kv_core::Model, with footprints
// observed by diffing replica signatures across each step.
// ---------------------------------------------------------------------

/// One replica engine's protocol-visible signature: the lock holder
/// (also the persistent log's entry) and whether its write completed,
/// the committed copy, and the sequence floor. This is exactly the state a step of *another*
/// put can observe — coordinator records, ack counts, and queued waiters
/// are keyed per `(key, op)` and only ever touched by their own put's
/// program-ordered steps, so they cannot carry cross-put dependences.
/// Diffing signatures across a step yields its write footprint
/// empirically; the read footprint is the step's home replica (a
/// delivery consults that replica's lock/committed state to decide what
/// to do).
type RepSig = (Option<(OpId, bool)>, Option<(Vec<u8>, Timestamp)>, u64);

fn rep_sig(e: &TwoPcEngine) -> RepSig {
    let s = e.store();
    (
        s.pending(KEY).map(|p| (p.op, p.written)),
        s.get(KEY).map(|c| (c.value.bytes.to_vec(), c.ts)),
        e.lock_report(&|_| false).1,
    )
}

/// A live [`Run`] as a DPOR [`Model`]: process `p` is put `p`, its steps
/// the `Lock… Decide Finish…` program. One footprint region per replica.
#[derive(Clone)]
struct StepModel {
    run: Run,
    mutation: Mutation,
    strict: bool,
}

impl StepModel {
    fn new(ops: usize, replicas: usize, mutation: Mutation, strict: bool) -> StepModel {
        StepModel {
            run: Run::new(ops, replicas),
            mutation,
            strict,
        }
    }
}

impl Model for StepModel {
    fn procs(&self) -> usize {
        self.run.cursor.len()
    }

    fn remaining(&self, p: usize) -> usize {
        2 * self.run.engines.len() + 1 - self.run.cursor[p]
    }

    fn step(&mut self, p: usize) -> Footprint {
        let replicas = self.run.engines.len();
        let step = step_of(self.run.cursor[p], replicas);
        let undecided = self.run.decision[p].is_none();
        let before: Vec<RepSig> = self.run.engines.iter().map(rep_sig).collect();
        self.run.exec(p, Fault::Deliver, self.mutation, self.strict);
        // Reads: the step's home replica — `accept`/`on_commit`/
        // `on_abort` branch on that replica's lock and committed state.
        // A Decide over an already-buffered decision consults nothing
        // outside its own put's bookkeeping.
        let mut fp = match step {
            Step::Lock(r) | Step::Finish(r) => Footprint::read(r),
            Step::Decide if undecided => Footprint::read(0),
            Step::Decide => Footprint::EMPTY,
        };
        // Writes: every replica whose signature the step changed —
        // including the coordinator when a final ack mints the timestamp
        // (sequence floor + self-applied commit), which is what orders
        // two committing puts.
        for (r, sig) in before.iter().enumerate() {
            if *sig != rep_sig(&self.run.engines[r]) {
                fp.add_write(r);
            }
        }
        fp
    }
}

// ---------------------------------------------------------------------
// Schedule execution + invariants
// ---------------------------------------------------------------------

/// Run one schedule. Each position names the put that takes its next
/// step; each put's own steps execute in program order.
fn run_schedule(ops: usize, replicas: usize, sched: &Schedule) -> Outcome {
    let mut run = Run::new(ops, replicas);
    for o in sched.step_actors() {
        run.exec(o, Fault::Deliver, Mutation::None, true);
    }
    run.outcome()
}

/// The invariant violated by an outcome, if any (None = all hold).
fn outcome_violation(out: &Outcome) -> Option<String> {
    // 1. No stranded locks, log entries, or in-doubt puts.
    if out.stranded {
        return Some("stranded lock/log state".to_owned());
    }
    // 2 + 3. Every replica converged on the max-timestamp committed put.
    let expect = out
        .committed
        .iter()
        .enumerate()
        .filter_map(|(o, ts)| ts.map(|ts| (ts, o)))
        .max()
        .map(|(ts, o)| (value_of(o).bytes.to_vec(), ts));
    for (r, fin) in out.finals.iter().enumerate() {
        if *fin != expect {
            return Some(format!("replica {r} diverged from the winning put"));
        }
    }
    None
}

fn check_outcome(out: &Outcome, what: &str) {
    if let Some(v) = outcome_violation(out) {
        panic!("{v} after schedule {what}");
    }
}

fn check_schedule(ops: usize, replicas: usize, sched: &Schedule) -> Outcome {
    let out = run_schedule(ops, replicas, sched);
    check_outcome(&out, &sched.render());
    out
}

/// Drive every schedule of a configuration and keep cross-schedule tallies.
#[derive(Default)]
struct Tally {
    schedules: usize,
    commits: usize,
    aborts: usize,
    all_committed: usize,
    none_committed: usize,
}

impl Tally {
    /// Absorb one outcome observed `weight` times (1 for exhaustive
    /// sweeps; the class size for DPOR representatives).
    fn absorb(&mut self, ops: usize, out: &Outcome, weight: usize) {
        let c = out.committed.iter().filter(|d| d.is_some()).count();
        self.schedules += weight;
        self.commits += c * weight;
        self.aborts += (ops - c) * weight;
        if c == ops {
            self.all_committed += weight;
        }
        if c == 0 {
            self.none_committed += weight;
        }
    }
}

fn sweep(ops: usize, replicas: usize, cap: u128) -> Tally {
    let counts = vec![2 * replicas + 1; ops];
    let mut t = Tally::default();
    Schedule::enumerate(&counts, cap, &mut |sched| {
        let out = check_schedule(ops, replicas, sched);
        t.absorb(ops, &out, 1);
    });
    t
}

#[test]
fn two_puts_three_replicas_exhaustive() {
    // C(14, 7) distinct interleavings of two 7-step puts.
    let t = sweep(2, 3, u128::MAX);
    assert_eq!(t.schedules, 3432);
    // The serial schedules must let both puts commit...
    assert!(t.all_committed > 0, "no schedule committed both puts");
    // ...while overlapping lock phases must produce aborts somewhere.
    assert!(t.aborts > 0, "no schedule aborted a put");
}

#[test]
fn three_puts_one_replica_exhaustive() {
    // 9! / (3!)^3 distinct interleavings of three 3-step puts.
    let t = sweep(3, 1, u128::MAX);
    assert_eq!(t.schedules, 1680);
    // With a single replica the whole round runs inside the Lock step:
    // the sole ack1 arrives synchronously, the coordinator commits at
    // decision time and releases the lock. No put can ever observe a
    // held lock, so every schedule commits all three puts.
    assert_eq!(t.all_committed, t.schedules);
    assert_eq!(t.aborts, 0);
}

#[test]
fn three_puts_two_replicas_dpor_full() {
    // The tentpole: the full 15!/(5!)^3 = 756,756-schedule space, in the
    // debug fast tier, by exploring one representative per Mazurkiewicz
    // class. `stats.covered` is Σ (linear extensions of each class's
    // happens-before order); equality with the multinomial proves the
    // classes partition the space exactly once. Run twice: the stats
    // must render byte-identically.
    let (ops, replicas) = (3, 2);
    let space = Schedule::space(&[2 * replicas + 1; 3]);
    assert_eq!(space, 756_756);
    let explore = || {
        let root = StepModel::new(ops, replicas, Mutation::None, true);
        let mut t = Tally::default();
        let stats = Explorer::new(conflict_dependence).run(&root, |v| {
            if let Visit::Complete {
                state,
                schedule,
                class_size,
            } = v
            {
                let out = state.run.outcome();
                check_outcome(&out, &schedule.render());
                t.absorb(ops, &out, class_size as usize);
            }
        });
        (stats, t)
    };
    let (a, t) = explore();
    let (b, _) = explore();
    eprintln!("{}", a.render());
    assert_eq!(a.render(), b.render(), "stats must be byte-stable");
    assert_eq!(a.covered, space, "classes must partition the space");
    assert_eq!(t.schedules as u128, space);
    assert!(t.all_committed > 0, "no schedule committed all three puts");
    assert!(t.aborts > 0, "no schedule aborted a put");
    assert!(t.none_committed > 0, "no schedule aborted every put");
}

#[test]
fn two_puts_three_replicas_dpor_matches_exhaustive() {
    // Partition exactness on a real engine space small enough to brute
    // force: classify all 3432 schedules by the greedy normal form of
    // their observed trace, assert every class is outcome-uniform, and
    // assert the explorer visits exactly the normal forms with exactly
    // the brute-force class populations.
    let (ops, replicas) = (2, 3);
    let counts = vec![2 * replicas + 1; ops];
    let mut by_nf: BTreeMap<Schedule, (u128, Outcome)> = BTreeMap::new();
    Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
        let actors = sched.step_actors();
        let mut m = StepModel::new(ops, replicas, Mutation::None, true);
        let fps: Vec<Footprint> = actors.iter().map(|&p| m.step(p)).collect();
        let out = m.run.outcome();
        let nf = normal_form(&actors, &fps, conflict_dependence);
        let e = by_nf.entry(nf).or_insert_with(|| (0, out.clone()));
        e.0 += 1;
        assert_eq!(
            e.1,
            out,
            "outcomes diverged within one class ({})",
            sched.render()
        );
    });
    let mut explored: BTreeMap<Schedule, (u128, Outcome)> = BTreeMap::new();
    let root = StepModel::new(ops, replicas, Mutation::None, true);
    Explorer::new(conflict_dependence).run(&root, |v| {
        if let Visit::Complete {
            state,
            schedule,
            class_size,
        } = v
        {
            explored.insert(schedule.clone(), (class_size, state.run.outcome()));
        }
    });
    assert_eq!(
        explored, by_nf,
        "explored representatives must equal brute-force classes"
    );
}

#[test]
#[ignore = "full 756,756-schedule exhaustive cross-check; wired into scripts/check.sh --release"]
fn three_puts_two_replicas_full_cross_check() {
    // The release-tier cross-check behind the fast tier's DPOR run: walk
    // the complete space exhaustively, verify every schedule's
    // invariants and classify it by normal form (asserting verdicts are
    // identical within each class), then re-run the explorer and demand
    // it produced exactly those classes with exactly those populations.
    let (ops, replicas) = (3, 2);
    let counts = vec![2 * replicas + 1; ops];
    let mut by_nf: BTreeMap<Schedule, (u128, Outcome)> = BTreeMap::new();
    let mut t = Tally::default();
    let n = Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
        let actors = sched.step_actors();
        let mut m = StepModel::new(ops, replicas, Mutation::None, true);
        let fps: Vec<Footprint> = actors.iter().map(|&p| m.step(p)).collect();
        let out = m.run.outcome();
        check_outcome(&out, &sched.render());
        t.absorb(ops, &out, 1);
        let nf = normal_form(&actors, &fps, conflict_dependence);
        let e = by_nf.entry(nf).or_insert_with(|| (0, out.clone()));
        e.0 += 1;
        assert_eq!(
            e.1,
            out,
            "outcomes diverged within one class ({})",
            sched.render()
        );
    });
    assert_eq!(n, 756_756);
    assert!(t.all_committed > 0, "no schedule committed all three puts");
    assert!(t.aborts > 0, "no schedule aborted a put");
    assert!(t.none_committed > 0, "no schedule aborted every put");

    let root = StepModel::new(ops, replicas, Mutation::None, true);
    let mut classes = 0usize;
    let stats = Explorer::new(conflict_dependence).run(&root, |v| {
        if let Visit::Complete {
            state,
            schedule,
            class_size,
        } = v
        {
            let (count, out) = by_nf
                .get(schedule)
                .expect("explorer visited a schedule that is not a normal form");
            assert_eq!(
                *count,
                class_size,
                "class population mismatch at {}",
                schedule.render()
            );
            assert_eq!(
                out,
                &state.run.outcome(),
                "exhaustive and reduced verdicts differ at {}",
                schedule.render()
            );
            classes += 1;
        }
    });
    assert_eq!(classes, by_nf.len(), "explorer missed brute-force classes");
    assert_eq!(stats.covered, 756_756);
}

// ---------------------------------------------------------------------
// Failure dimensions: primary failover mid-2PC, message loss, and
// message duplication. Every faulted run ends with client retries plus
// the production §4.4 resolution (the new primary settles surviving
// locks through `LockResolution`) and the two-phase rejoin catch-up,
// and must then satisfy the same quiescence and convergence invariants
// as the fault-free sweeps.
// ---------------------------------------------------------------------

/// What the §4.4 settlement decided, per verdict.
struct Settled {
    /// Verdicts settled by commit (commit-if-committed-anywhere fired).
    commits: usize,
    /// Verdicts settled by abort (no committed copy was reported).
    aborts: usize,
}

/// Run the production §4.4 resolution until no lock is left anywhere:
/// each round the acting primary seeds a [`LockResolution`] with its own
/// [`TwoPcEngine::lock_report`], absorbs every other member's, and
/// applies the settled verdicts (commit with the reported timestamp, or
/// abort) to every member. One round settles one attempt per key, so
/// stacked lock states (different ops locked on different replicas)
/// drain over successive rounds — exactly how the secondary lock-timeout
/// path re-triggers resolution in the live system.
fn settle_all(run: &mut Run, acting: usize) -> Settled {
    let mut settled = Settled {
        commits: 0,
        aborts: 0,
    };
    let replicas = run.engines.len();
    for _round in 0..8 {
        let (seed, floor) = run.engines[acting].lock_report(&|k| k == KEY);
        let waiting: BTreeSet<NodeIdx> = (0..replicas)
            .filter(|&r| r != acting)
            .map(|r| NodeIdx(r as u32))
            .collect();
        let mut res = LockResolution::new(waiting, seed, floor);
        for r in (0..replicas).filter(|&r| r != acting) {
            let (locked, max_seq) = run.engines[r].lock_report(&|k| k == KEY);
            res.absorb(NodeIdx(r as u32), locked, max_seq);
        }
        assert!(res.complete(), "every member reported synchronously");
        let (max_seq, verdicts) = res.settle();
        run.engines[acting].observe_seq(max_seq);
        if verdicts.is_empty() {
            return settled;
        }
        for (key, op, verdict) in verdicts {
            let o = run.idx(op);
            match verdict {
                Some(ts) => {
                    settled.commits += 1;
                    for r in 0..replicas {
                        let mut fx = Vec::new();
                        if run.engines[r].on_commit(
                            &key,
                            op,
                            ts,
                            EngineRole::Observer,
                            Time::ZERO,
                            &mut fx,
                        ) {
                            run.applied[o] = true;
                        }
                    }
                }
                None => {
                    settled.aborts += 1;
                    for r in 0..replicas {
                        let mut fx = Vec::new();
                        run.engines[r].on_abort(&key, op, Time::MAX, &mut fx);
                    }
                }
            }
        }
    }
    panic!("§4.4 resolution failed to quiesce within 8 rounds");
}

/// §4.3 client retries after a coordinator failure: every put whose
/// client never received a reply re-multicasts its data to the surviving
/// replicas. A retry re-locks wherever the key is free — including on a
/// replica that already committed the attempt, which is what hands the
/// §4.4 resolution its commit-if-committed-anywhere evidence.
fn client_retries(run: &mut Run, survivors: std::ops::Range<usize>) {
    for o in 0..run.replied.len() {
        if run.replied[o] {
            continue;
        }
        for r in survivors.clone() {
            let mut fx = Vec::new();
            run.engines[r].accept(KEY, value_of(o), op_id(o), Time::ZERO, &mut fx);
            for e in fx {
                if let Effect::WriteDone { key, op, .. } = e {
                    let mut sink = Vec::new();
                    run.engines[r].on_written(
                        &key,
                        op,
                        EngineRole::Observer,
                        Time::ZERO,
                        &mut sink,
                    );
                }
            }
        }
    }
}

/// The winning committed copy after resolution, if any.
fn winner_of(run: &Run) -> Option<(Vec<u8>, Timestamp)> {
    run.engines
        .iter()
        .filter_map(|e| e.store().get(KEY))
        .map(|c| (c.value.bytes.to_vec(), c.ts))
        .max_by(|a, b| a.1.cmp(&b.1))
}

/// Phase two of the rejoin: replicas behind the winning copy sync via
/// the recovery path ([`TwoPcEngine::sync_object`]) before they
/// may serve gets again. Returns which replicas needed the sync.
fn catch_up(run: &mut Run, winner: &Option<(Vec<u8>, Timestamp)>) -> Vec<usize> {
    let mut resynced = Vec::new();
    if let Some((bytes, ts)) = winner {
        for r in 0..run.engines.len() {
            if run.engines[r].store().get(KEY).is_none_or(|c| c.ts < *ts) {
                run.engines[r].sync_object(KEY, Value::from_bytes(bytes.clone()), *ts);
                resynced.push(r);
            }
        }
    }
    resynced
}

/// Assert the post-resolution invariants: quiescence (no stranded lock
/// or in-doubt entry anywhere), replica convergence, and no lost
/// update (a commit that reached any replica before the fault survives
/// with a final timestamp at least as new).
fn assert_resolved(run: &Run, applied_pre: &[bool], what: &str) {
    for (r, e) in run.engines.iter().enumerate() {
        let s = e.store();
        assert!(!s.locked(KEY), "stranded lock on replica {r} after {what}");
        assert!(
            s.in_doubt().is_empty(),
            "in-doubt entry left on replica {r} after {what}"
        );
    }
    let finals: Vec<Option<(Vec<u8>, Timestamp)>> = run
        .engines
        .iter()
        .map(|e| e.store().get(KEY).map(|c| (c.value.bytes.to_vec(), c.ts)))
        .collect();
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged after {what}: {finals:?}"
    );
    for (o, &applied) in applied_pre.iter().enumerate() {
        if applied {
            let ts = run.decision[o]
                .flatten()
                .expect("an applied commit implies a commit decision");
            let fin = finals[0]
                .as_ref()
                .unwrap_or_else(|| panic!("applied put {o} vanished after {what}"));
            assert!(
                fin.1 >= ts,
                "lost update: put {o} (ts {ts:?}) was applied but the final copy is older after {what}"
            );
        }
    }
}

/// A put accepted by the new primary while the crashed node is still
/// down: it locks and commits on the surviving replicas only (the new
/// primary's sequence floor comes from the resolution's `observe_seq`),
/// so the rejoiner lags the winning copy until phase two of the rejoin
/// syncs it. Post-resolution the lock must be free everywhere.
fn put_while_down(run: &mut Run) {
    let o = run.decision.len();
    let id = op_id(o);
    let replicas = run.engines.len();
    for r in 1..replicas {
        let mut fx = Vec::new();
        run.engines[r].accept(KEY, value_of(o), id, Time::ZERO, &mut fx);
        assert!(
            run.engines[r]
                .store()
                .pending(KEY)
                .is_some_and(|p| p.op == id),
            "post-resolution lock held on surviving replica {r}"
        );
    }
    let ts = run.engines[1].next_ts(id, PRIMARY);
    for r in 1..replicas {
        let mut fx = Vec::new();
        assert!(
            run.engines[r].on_commit(KEY, id, ts, EngineRole::Observer, Time::ZERO, &mut fx),
            "surviving replica {r} rejected the new primary's commit"
        );
    }
    run.decision.push(Some(Some(ts)));
    run.replied.push(true);
    run.applied.push(true);
}

/// The failover tail grafted onto an executed schedule prefix: the
/// coordinator's node (hosting replica 0's engine) crashes — its
/// in-memory locks and coordinator records vanish
/// ([`TwoPcEngine::reset`]), its written pendings survive as
/// in-doubt entries, and every in-flight step dies with it. With
/// `write_durable` false the crash lands after the lock ack but before
/// the node's object write (W) completed, so its pending does NOT
/// survive. Unreplied clients retry against the survivors, the new
/// primary (replica 1) runs the production resolution — absorbing the
/// rejoiner's persistent-log report too — and with `down_put` true
/// accepts one more put on the surviving replicas while the node is
/// down, so the rejoin must recover the newer object in phase two.
fn failover_continuation(
    mut run: Run,
    write_durable: bool,
    down_put: bool,
    what: &str,
) -> (Settled, Vec<usize>) {
    let replicas = run.engines.len();
    if !write_durable {
        if let Some(p) = run.engines[0].store_mut().pending_mut(KEY) {
            p.written = false;
        }
    }
    run.engines[0].reset();
    let mut applied_pre = run.applied.clone();

    client_retries(&mut run, 1..replicas);
    let settled = settle_all(&mut run, 1);
    if down_put {
        put_while_down(&mut run);
        applied_pre.push(true);
    }
    let winner = winner_of(&run);
    let behind: Vec<usize> = (0..replicas)
        .filter(|&r| match &winner {
            Some((_, ts)) => run.engines[r].store().get(KEY).is_none_or(|c| c.ts < *ts),
            None => false,
        })
        .collect();
    let resynced = catch_up(&mut run, &winner);
    // Two-phase rejoin ordering: every replica whose state lagged the
    // winner at rejoin time must be caught up in phase two, *before*
    // get-eligibility — a get served in between would have returned a
    // stale or missing object.
    assert_eq!(
        behind, resynced,
        "rejoin phase two must sync exactly the lagging replicas ({what})"
    );
    assert_resolved(&run, &applied_pre, what);
    (settled, resynced)
}

/// One primary-failover run: execute the prefix of `sched` before
/// `crash_at`, then hand the state to [`failover_continuation`].
fn check_failover_schedule(
    ops: usize,
    replicas: usize,
    sched: &Schedule,
    crash_at: usize,
    write_durable: bool,
    down_put: bool,
) -> (Settled, Vec<usize>) {
    let mut run = Run::new(ops, replicas);
    for o in &sched.step_actors()[..crash_at] {
        run.exec(*o, Fault::Deliver, Mutation::None, false);
    }
    let what = format!("{} @ crash {crash_at}", sched.render());
    failover_continuation(run, write_durable, down_put, &what)
}

#[test]
fn primary_failover_mid_2pc_exhaustive() {
    // Every interleaving of two 2-replica puts × every crash point. The
    // sweep must exercise the abort rule and make phase two of the
    // rejoin load-bearing. (With a single peer, a commit that reached
    // any survivor has always also been acknowledged, so the
    // commit-resolution rule is exercised by the 3-replica sweep below.)
    let (ops, replicas) = (2, 2);
    let counts = vec![2 * replicas + 1; ops];
    let mut runs = 0usize;
    let mut resolution_aborts = 0usize;
    let mut primary_rejoined_behind = 0usize;
    Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
        for crash_at in 0..=sched.len() {
            for durable in [true, false] {
                for down_put in [false, true] {
                    let (settled, resynced) =
                        check_failover_schedule(ops, replicas, sched, crash_at, durable, down_put);
                    runs += 1;
                    resolution_aborts += settled.aborts;
                    primary_rejoined_behind += usize::from(resynced.contains(&0));
                }
            }
        }
    });
    assert_eq!(
        runs,
        252 * 11 * 4,
        "C(10,5) schedules x 11 crash points x W durability x down-put"
    );
    assert!(resolution_aborts > 0, "abort-of-undecided-puts never fired");
    assert!(
        primary_rejoined_behind > 0,
        "the crashed primary never rejoined behind — two-phase rejoin was never load-bearing"
    );
}

/// The number of length-`len` delivery sequences over `ops` puts of
/// `steps` steps each (each put contributing at most its budget): the
/// full population the explorer's depth-`len` prefix classes must
/// partition.
fn sequences_of_len(ops: usize, steps: usize, len: usize) -> u128 {
    fn binom(n: usize, k: usize) -> u128 {
        let k = k.min(n - k);
        let mut r: u128 = 1;
        for i in 0..k {
            r = r * (n - i) as u128 / (i + 1) as u128;
        }
        r
    }
    let mut ways = vec![0u128; len + 1];
    ways[0] = 1;
    for _ in 0..ops {
        let mut next = vec![0u128; len + 1];
        for d in 0..=len {
            if ways[d] == 0 {
                continue;
            }
            for c in 0..=steps.min(len - d) {
                next[d + c] += ways[d] * binom(d + c, c);
            }
        }
        ways = next;
    }
    ways[len]
}

#[test]
fn primary_failover_three_replicas_dpor_full() {
    // The space the prefix sweep used to sample: two puts × three
    // replicas under every crash point. The explorer's *prefix* classes
    // make it tractable in full — a crash at depth `d` only observes
    // the state the first `d` deliveries produced, so one
    // representative per prefix class covers every (schedule,
    // crash-point) pair. The per-depth coverage sums prove it: at every
    // depth, Σ (prefix class sizes) must equal the total number of
    // length-d delivery sequences. With two peers, a commit can land on
    // one peer while the other is still locked and the client
    // unreplied — the retry re-lock then carries committed evidence, so
    // this sweep is where commit-if-committed-anywhere must fire.
    let (ops, replicas) = (2, 3);
    let steps = 2 * replicas + 1;
    let root = StepModel::new(ops, replicas, Mutation::None, false);
    let mut covered_by_depth = vec![0u128; ops * steps + 1];
    let mut runs = 0usize;
    let mut resolution_commits = 0usize;
    let stats = Explorer::new(conflict_dependence)
        .prefix_sizes(true)
        .run(&root, |v| {
            if let Visit::Prefix {
                state,
                schedule,
                class_size,
            } = v
            {
                let size = class_size.expect("prefix_sizes is on");
                covered_by_depth[schedule.len()] += size;
                let what = format!("{} @ crash {}", schedule.render(), schedule.len());
                for (durable, down_put) in [(true, false), (true, true), (false, true)] {
                    let (settled, _) =
                        failover_continuation(state.run.clone(), durable, down_put, &what);
                    resolution_commits += settled.commits;
                    runs += 1;
                }
            }
        });
    assert_eq!(stats.covered, Schedule::space(&[steps; 2]));
    for (d, &covered) in covered_by_depth.iter().enumerate() {
        assert_eq!(
            covered,
            sequences_of_len(ops, steps, d),
            "prefix classes must partition the depth-{d} sequences"
        );
    }
    // The whole 3432 × 15 × 3 = 154,440-run space, from a fraction of
    // the runs the old 1000-schedule prefix needed.
    assert!(runs < 45_000, "reduction regressed: {runs} runs");
    assert!(
        resolution_commits > 0,
        "commit-if-committed-anywhere never fired"
    );
}

/// The step a schedule position carries (for skipping `Decide`, which is
/// coordinator-local and has no wire message to fault).
fn step_at(actors: &[usize], pos: usize, replicas: usize) -> Step {
    let o = actors[pos];
    let idx = actors[..pos].iter().filter(|&&x| x == o).count();
    step_of(idx, replicas)
}

#[test]
fn single_message_loss_resolves_without_stranding() {
    // Drop each wire message of each schedule in turn. A lost data copy
    // means the put aborts (its PutAck1 never arrives); a lost
    // commit/abort strands a lock that the production §4.4 resolution
    // must settle, with the phase-two catch-up restoring convergence.
    let (ops, replicas) = (2, 2);
    let counts = vec![2 * replicas + 1; ops];
    let mut stranded_then_resolved = 0usize;
    Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
        let actors = sched.step_actors();
        for pos in 0..actors.len() {
            if step_at(&actors, pos, replicas) == Step::Decide {
                continue;
            }
            let mut run = Run::new(ops, replicas);
            for (i, &o) in actors.iter().enumerate() {
                let fault = if i == pos {
                    Fault::Drop
                } else {
                    Fault::Deliver
                };
                run.exec(o, fault, Mutation::None, false);
            }
            let applied_pre = run.applied.clone();
            if run.engines.iter().any(|e| e.store().locked(KEY)) {
                stranded_then_resolved += 1;
            }
            settle_all(&mut run, 0);
            let winner = winner_of(&run);
            catch_up(&mut run, &winner);
            assert_resolved(
                &run,
                &applied_pre,
                &format!("{} drop@{pos}", sched.render()),
            );
        }
    });
    assert!(
        stranded_then_resolved > 0,
        "no dropped message ever stranded a lock — the sweep is vacuous"
    );
}

#[test]
fn duplicated_messages_are_idempotent() {
    // Deliver each wire message of each schedule twice in turn: a
    // re-lock by the same op refreshes (no duplicate log entry), a
    // re-commit / re-abort is a no-op. The outcome must be
    // byte-identical to the clean run.
    let (ops, replicas) = (2, 2);
    let counts = vec![2 * replicas + 1; ops];
    Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
        let clean = run_schedule(ops, replicas, sched);
        let actors = sched.step_actors();
        for pos in 0..actors.len() {
            if step_at(&actors, pos, replicas) == Step::Decide {
                continue;
            }
            let mut run = Run::new(ops, replicas);
            for (i, &o) in actors.iter().enumerate() {
                let fault = if i == pos { Fault::Dup } else { Fault::Deliver };
                run.exec(o, fault, Mutation::None, false);
            }
            let dup = run.outcome();
            assert_eq!(
                dup.committed,
                clean.committed,
                "duplication changed decisions ({} dup@{pos})",
                sched.render()
            );
            assert_eq!(
                dup.finals,
                clean.finals,
                "duplication changed replica state ({} dup@{pos})",
                sched.render()
            );
            assert!(
                !dup.stranded,
                "duplication stranded a lock ({} dup@{pos})",
                sched.render()
            );
        }
    });
}

// ---------------------------------------------------------------------
// Mutation verification: the invariants must catch seeded protocol
// bugs, and the DPOR reduction must catch everything the exhaustive
// sweep catches — while a deliberately-wrong independence relation
// demonstrably loses a bug (so the Σ-coverage arithmetic alone is NOT
// what makes the reduction sound; the relation is).
// ---------------------------------------------------------------------

#[test]
fn seeded_lock_release_mutation_is_caught() {
    // Sanity check of the checker itself: mutate the abort path to
    // forget the release deliveries and the stranded-lock invariant must
    // fire on some schedule.
    let caught = std::panic::catch_unwind(|| {
        let (ops, replicas) = (2, 3);
        let counts = vec![2 * replicas + 1; ops];
        Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
            let mut run = Run::new(ops, replicas);
            for o in sched.step_actors() {
                run.exec(o, Fault::Deliver, Mutation::SkipAbortRelease, false);
            }
            let out = run.outcome();
            assert!(!out.stranded, "stranded lock after {}", sched.render());
        });
    });
    assert!(
        caught.is_err(),
        "the checker failed to catch the seeded lock-release mutation"
    );
}

#[test]
fn dpor_catches_seeded_lock_release_mutation() {
    // The reduced exploration must catch the same mutant the exhaustive
    // sweep above catches: a stranded outcome is a property of the
    // trace class, so some explored representative must exhibit it.
    let caught = std::panic::catch_unwind(|| {
        let root = StepModel::new(2, 3, Mutation::SkipAbortRelease, false);
        Explorer::new(conflict_dependence).run(&root, |v| {
            if let Visit::Complete {
                state, schedule, ..
            } = v
            {
                let out = state.run.outcome();
                assert!(!out.stranded, "stranded lock after {}", schedule.render());
            }
        });
    });
    assert!(
        caught.is_err(),
        "the DPOR exploration failed to catch the seeded lock-release mutation"
    );
}

#[test]
fn seeded_lock_steal_mutation_is_caught() {
    // The lock-steal mutant needs three replicas to diverge: put B
    // steals A's locks on the peers while A's earlier acks still count,
    // then A steals B's last lock back, mints the newer timestamp, and
    // commits — but B's squat makes A's commit silently fail on one
    // peer while B's older value lands there. Order-dependent, so only
    // some schedules expose it; the exhaustive sweep must find one.
    let caught = std::panic::catch_unwind(|| {
        let (ops, replicas) = (2, 3);
        let counts = vec![2 * replicas + 1; ops];
        Schedule::enumerate(&counts, u128::MAX, &mut |sched| {
            let mut run = Run::new(ops, replicas);
            for o in sched.step_actors() {
                run.exec(o, Fault::Deliver, Mutation::LockSteal, false);
            }
            check_outcome(&run.outcome(), &sched.render());
        });
    });
    assert!(
        caught.is_err(),
        "the checker failed to catch the seeded lock-steal mutation"
    );
}

#[test]
fn dpor_catches_seeded_lock_steal_mutation() {
    // The reduction must not lose the lock-steal divergence: the steal
    // shows up in the stolen replica's signature diff, so the schedules
    // that expose it are not merged into innocent classes.
    let caught = std::panic::catch_unwind(|| {
        let root = StepModel::new(2, 3, Mutation::LockSteal, false);
        Explorer::new(conflict_dependence).run(&root, |v| {
            if let Visit::Complete {
                state, schedule, ..
            } = v
            {
                check_outcome(&state.run.outcome(), &schedule.render());
            }
        });
    });
    assert!(
        caught.is_err(),
        "the DPOR exploration failed to catch the seeded lock-steal mutation"
    );
}

#[test]
fn wrong_independence_relation_misses_lock_steal() {
    // The fixture a wrong relation would miss: declare every pair of
    // steps independent and the explorer still *accounts* for the whole
    // space (Σ class sizes is exactly the multinomial — the coverage
    // arithmetic cannot tell the relation is bogus), but it executes
    // only the one serial schedule, where no lock is ever contended and
    // the lock-steal mutant never fires. This is why the mutation tests
    // above exist: soundness lives in the dependence relation, and only
    // mutants can falsify it.
    fn never(_: &Footprint, _: &Footprint) -> bool {
        false
    }
    let (ops, replicas) = (2, 3);
    let root = StepModel::new(ops, replicas, Mutation::LockSteal, false);
    let mut violations = 0usize;
    let stats = Explorer::new(never).run(&root, |v| {
        if let Visit::Complete { state, .. } = v {
            if outcome_violation(&state.run.outcome()).is_some() {
                violations += 1;
            }
        }
    });
    assert_eq!(
        stats.covered,
        Schedule::space(&[2 * replicas + 1; 2]),
        "even the bogus relation passes the coverage arithmetic"
    );
    assert_eq!(stats.classes, 1, "everything-commutes collapses to serial");
    assert_eq!(
        violations, 0,
        "the wrong relation was supposed to miss the lock-steal divergence"
    );
}

#[test]
fn serial_schedules_always_commit_in_order() {
    // Fully serial executions are the baseline the paper's protocol must
    // preserve: every put commits and the last writer wins.
    for ops in [2usize, 3] {
        let replicas = 3;
        let steps = 2 * replicas + 1;
        let mut actors = Vec::new();
        for o in 0..ops {
            actors.extend(std::iter::repeat_n(o, steps));
        }
        let out = check_schedule(ops, replicas, &Schedule::steps(&actors));
        assert!(out.committed.iter().all(std::option::Option::is_some));
        for fin in &out.finals {
            let (bytes, _) = fin.as_ref().expect("value committed");
            assert_eq!(*bytes, value_of(ops - 1).bytes.to_vec());
        }
    }
}
