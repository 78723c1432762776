//! The system-agnostic client core: closed-loop operation issue, the
//! retry/timeout engine with its timers, and completion records.
//!
//! Both systems' clients run the same loop — pop an op, stamp an
//! [`OpId`], send an attempt, arm a retry timer, classify the reply —
//! and differ only in *where* the attempt goes (NICE: reliable-UDP to a
//! vnode address; NOOB: TCP to a gateway or storage node). This module
//! owns the loop and every timer it arms; the client adapters own the
//! wire. Each entry point takes the host and hands back the [`Attempt`]
//! to put on the wire, if any; the adapter sends it and then calls
//! [`ClientCore::sent`], which sets the op's retry deadline — so a send
//! always precedes any timer it arms, the order the simulator's event
//! queue replays.
//!
//! A client arms at most the retry timers it needs. Every retry timer
//! carries one token; the core remembers the deadlines of those armed and
//! not yet fired, and arms a new one only when none of them fires at or
//! before the new deadline. A firing retries the in-flight op if it is
//! due and otherwise re-arms for its deadline, so an op answered before
//! its deadline leaves no dead timer behind it and every retry still
//! happens at `send + delay`.

use std::collections::VecDeque;

use node_rt::{splitmix64, NodeIo, Time};

use crate::error::KvError;
use crate::spec::ClusterSpec;
use crate::telemetry::{MetricsRegistry, Telemetry};
use crate::types::{OpId, Value};

/// Timer token for the start/idle-poll timer.
const TOK_START: u64 = 1;
/// Idle poll period: a drained client re-checks its queue at this rate so
/// harnesses can push more work mid-run.
const IDLE_POLL: Time = Time::from_ms(10);
/// Timer token of every retry timer.
const TOK_RETRY: u64 = 2;
/// The client retry period: "the client will retry after waiting for 2
/// seconds" (§6.6). Every client starts on this fixed schedule;
/// `ClusterSpec::retry` is the one override.
pub const RETRY_PERIOD: Time = Time::from_secs(2);
/// Backoff before re-asking for a key that was not found (only with
/// [`ClientCore::retry_not_found`]).
const NOT_FOUND_BACKOFF: Time = Time::from_ms(5);

/// One client operation.
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Write `value` under `key`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: Value,
    },
    /// Read `key`.
    Get {
        /// The key.
        key: String,
    },
}

impl ClientOp {
    /// The key this op touches.
    pub fn key(&self) -> &str {
        match self {
            ClientOp::Put { key, .. } | ClientOp::Get { key } => key,
        }
    }
}

/// The completion record of one operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Was it a put?
    pub is_put: bool,
    /// The key.
    pub key: String,
    /// The client sequence number ([`OpId::client_seq`]) of the op —
    /// stable across retries, unique per client.
    pub seq: u64,
    /// When the first attempt was issued.
    pub start: Time,
    /// When the final reply arrived.
    pub end: Time,
    /// The typed outcome: `Ok(())` on success, or the [`KvError`] that
    /// ended the operation (not found, rejected, timed out).
    pub result: Result<(), KvError>,
    /// Attempts used (1 = no retries).
    pub attempts: u32,
    /// Value size moved (put: sent; get: received).
    pub size: u32,
    /// Put: the bytes written; get: the bytes returned (the history
    /// checker and tests assert on these).
    pub bytes: Option<Vec<u8>>,
}

impl OpRecord {
    /// Did the operation succeed?
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The error that ended the operation, if it failed.
    pub fn err(&self) -> Option<&KvError> {
        self.result.as_ref().err()
    }
}

/// One attempt the adapter must put on the wire and then hand to
/// [`ClientCore::sent`].
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The operation.
    pub op: ClientOp,
    /// Its id (stable across retries of the same op).
    pub id: OpId,
    /// Attempt number (1 = first try).
    pub attempts: u32,
}

/// The client's retry schedule: either the paper's fixed period ("the
/// client will retry after waiting for 2 seconds", §6.6) or exponential
/// backoff with deterministic seeded jitter.
///
/// The delay is a pure function of `(policy, op id, attempt)`, so a
/// seeded run replays byte-for-byte: no RNG state is carried between
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry (and the fixed period when
    /// `exponential` is off).
    pub base: Time,
    /// Upper bound on any single delay.
    pub cap: Time,
    /// Double the delay on every attempt (clamped to `cap`).
    pub exponential: bool,
    /// Jitter strength in percent: each delay is scaled by a factor
    /// drawn deterministically from `[100 - jitter_pct, 100] / 100`.
    /// `0` disables jitter.
    pub jitter_pct: u32,
    /// Seed mixed into the per-(op, attempt) jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// The classic fixed-period schedule: every retry waits `period`.
    pub const fn fixed(period: Time) -> RetryPolicy {
        RetryPolicy {
            base: period,
            cap: period,
            exponential: false,
            jitter_pct: 0,
            seed: 0,
        }
    }

    /// The delay to arm after attempt number `attempt` (1 = first try)
    /// of operation `id` failed or went unanswered.
    pub fn delay(&self, id: OpId, attempt: u32) -> Time {
        let mut d = self.base.as_ns();
        if self.exponential {
            // base * 2^(attempt-1), saturating, clamped to the cap.
            let shift = attempt.saturating_sub(1).min(20);
            d = d.saturating_mul(1u64 << shift).min(self.cap.as_ns());
        }
        d = d.min(self.cap.as_ns()).max(1);
        if self.jitter_pct > 0 {
            let h = splitmix64(
                self.seed
                    ^ (u64::from(id.client.0) << 32)
                    ^ id.client_seq.rotate_left(17)
                    ^ u64::from(attempt),
            );
            let pct = u64::from(self.jitter_pct.min(99));
            let scale = 100 - (h % (pct + 1)); // in [100 - pct, 100]
            d = (d.saturating_mul(scale) / 100).max(1);
        }
        Time(d)
    }
}

struct InFlight {
    op: ClientOp,
    id: OpId,
    start: Time,
    attempts: u32,
    /// When the op is retried if no reply completes it first.
    retry_at: Time,
}

/// The shared closed-loop client state machine and its timers. The NICE
/// and NOOB client apps deref to this; they route its attempts onto
/// their transports and feed it the replies.
pub struct ClientCore {
    ops: VecDeque<ClientOp>,
    inflight: Option<InFlight>,
    /// Deadlines of the retry timers armed on the host and not yet fired.
    /// Each is armed only below all the others, so there are few.
    armed: Vec<Time>,
    next_seq: u64,
    max_attempts: u32,
    /// Retry schedule armed per attempt ([`RETRY_PERIOD`] fixed by
    /// default, or exponential backoff with seeded jitter).
    pub retry: RetryPolicy,
    /// When the client starts issuing.
    pub start_at: Time,
    /// Treat a NotFound get as transient and retry with a short backoff
    /// (hot-object workloads where the reader races the first writer).
    pub retry_not_found: bool,
    /// Total wall-clock budget per operation, measured from its first
    /// attempt. When a retry timer fires past this deadline the op
    /// completes with [`KvError::Timeout`] even if the attempt budget
    /// remains — the knob that keeps real-runtime clients from retrying
    /// into a crashed node for `max_attempts × period`. `None` (the
    /// default) keeps the attempt budget as the only bound.
    pub op_deadline: Option<Time>,
    /// Completed operations, in completion order.
    pub records: Vec<OpRecord>,
    /// Set once the queue drains.
    pub done_at: Option<Time>,
    /// Telemetry bundle: end-to-end and retry-wait histograms.
    pub tel: Telemetry,
}

impl ClientCore {
    /// A core that runs `ops` once, starting at `start_at`, re-attempting
    /// every [`RETRY_PERIOD`] until [`ClientCore::configure`] says
    /// otherwise.
    pub fn new(ops: Vec<ClientOp>, start_at: Time) -> ClientCore {
        ClientCore {
            ops: ops.into(),
            inflight: None,
            armed: Vec::new(),
            next_seq: 1,
            max_attempts: 25,
            retry: RetryPolicy::fixed(RETRY_PERIOD),
            start_at,
            retry_not_found: false,
            op_deadline: None,
            records: Vec::new(),
            done_at: None,
            tel: Telemetry::default(),
        }
    }

    /// Take the client half of `spec`: its retry schedule (`None` keeps
    /// [`RETRY_PERIOD`]), the not-found retry and the per-op deadline.
    /// Every cluster builder configures its clients through this one
    /// call.
    pub fn configure(&mut self, spec: &ClusterSpec) {
        if let Some(retry) = spec.retry {
            self.retry = retry;
        }
        self.retry_not_found = spec.retry_not_found;
        self.op_deadline = spec.op_deadline;
    }

    /// The metrics snapshot: the end-to-end/retry histograms plus
    /// completion counters derived from the records.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.tel.reg.clone();
        let ok = self.records.iter().filter(|r| r.ok()).count() as u64;
        m.add("client.completed", self.records.len() as u64);
        m.add("client.ok", ok);
        m.add("client.failed", self.records.len() as u64 - ok);
        m
    }

    /// Queue more operations (the driver may extend work mid-run); a
    /// drained client's idle poll picks them up within 10 ms.
    pub fn push_ops(&mut self, ops: impl IntoIterator<Item = ClientOp>) {
        self.ops.extend(ops);
        if !self.ops.is_empty() {
            self.done_at = None;
        }
    }

    /// Operations finished so far.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Mean latency of successful ops of one kind.
    pub fn mean_latency(&self, puts: bool) -> Option<Time> {
        let lats: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.is_put == puts && r.ok())
            .map(|r| (r.end - r.start).as_ns())
            .collect();
        if lats.is_empty() {
            None
        } else {
            Some(Time(lats.iter().sum::<u64>() / lats.len() as u64))
        }
    }

    /// The in-flight operation with its id, first-issue time, and
    /// attempt count. History capture uses this to include an op that
    /// never completed before the run ended (its effect window is still
    /// open, so a put must be treated as "maybe applied").
    pub fn inflight_detail(&self) -> Option<(&ClientOp, OpId, Time, u32)> {
        self.inflight
            .as_ref()
            .map(|inf| (&inf.op, inf.id, inf.start, inf.attempts))
    }

    /// The node booted: arm the start timer.
    pub fn on_start(&self, ctx: &mut dyn NodeIo) {
        ctx.set_timer(self.start_at.saturating_sub(ctx.now()), TOK_START);
    }

    /// A timer fired. The start/idle poll issues the next op; a retry
    /// timer re-sends the in-flight op if it is due or, with the budget
    /// spent, fails it and issues the next. A token this core did not arm
    /// is ignored.
    pub fn on_timer(&mut self, token: u64, ctx: &mut dyn NodeIo) -> Option<Attempt> {
        match token {
            TOK_START => self.issue_next(ctx),
            TOK_RETRY => self.retry(ctx),
            _ => None,
        }
    }

    /// The adapter just put `at` on the wire: it is retried one policy
    /// delay from now.
    pub fn sent(&mut self, at: &Attempt, ctx: &mut dyn NodeIo) {
        let due = ctx.now() + self.retry.delay(at.id, at.attempts);
        self.arm(due, ctx);
    }

    /// Retry the in-flight op at `due`. A host timer is armed only when
    /// no armed one fires at or before `due`; that one re-arms when it
    /// fires early.
    fn arm(&mut self, due: Time, ctx: &mut dyn NodeIo) {
        let Some(inf) = self.inflight.as_mut() else {
            return;
        };
        inf.retry_at = due;
        if self.armed.iter().all(|&t| t > due) {
            self.armed.push(due);
            ctx.set_timer(due.saturating_sub(ctx.now()), TOK_RETRY);
        }
    }

    /// A put reply arrived. A failure inside the attempt budget waits for
    /// the armed retry timer (the partition is healing); otherwise the op
    /// completes and the next one is issued. Replies for any other op
    /// (stale or duplicate) are ignored.
    pub fn on_put_reply(&mut self, op: OpId, ok: bool, ctx: &mut dyn NodeIo) -> Option<Attempt> {
        let inf = self.inflight.as_ref().filter(|inf| inf.id == op)?;
        if !ok && inf.attempts < self.max_attempts {
            return None;
        }
        let result = if ok {
            Ok(())
        } else {
            Err(KvError::PutRejected {
                key: inf.op.key().to_owned(),
            })
        };
        self.complete(result, None, ctx.now());
        self.issue_next(ctx)
    }

    /// A get reply arrived carrying `value` (`None` = not found). Under
    /// [`ClientCore::retry_not_found`] a miss inside the attempt budget
    /// re-asks after a short backoff; otherwise the op completes and the
    /// next one is issued. Replies for any other op are ignored.
    pub fn on_get_reply(
        &mut self,
        op: OpId,
        value: Option<&Value>,
        ctx: &mut dyn NodeIo,
    ) -> Option<Attempt> {
        let inf = self.inflight.as_ref().filter(|inf| inf.id == op)?;
        let result = match value {
            Some(_) => Ok(()),
            None if self.retry_not_found && inf.attempts < self.max_attempts => {
                self.arm(ctx.now() + NOT_FOUND_BACKOFF, ctx);
                return None;
            }
            None => Err(KvError::NotFound {
                key: inf.op.key().to_owned(),
            }),
        };
        self.complete(result, value, ctx.now());
        self.issue_next(ctx)
    }

    /// The transport acknowledged the in-flight put to its quorum (a
    /// completion below the protocol, with no reply message): the op
    /// succeeded; issue the next one.
    pub fn on_quorum_put(&mut self, ctx: &mut dyn NodeIo) -> Option<Attempt> {
        self.complete(Ok(()), None, ctx.now());
        self.issue_next(ctx)
    }

    /// Start the next queued operation, if idle. A drained queue sets
    /// `done_at` and polls for work pushed later.
    fn issue_next(&mut self, ctx: &mut dyn NodeIo) -> Option<Attempt> {
        if self.inflight.is_some() {
            return None;
        }
        let now = ctx.now();
        let Some(op) = self.ops.pop_front() else {
            if self.done_at.is_none() {
                self.done_at = Some(now);
            }
            ctx.set_timer(IDLE_POLL, TOK_START);
            return None;
        };
        let id = OpId {
            client: ctx.ip(),
            client_seq: self.next_seq,
        };
        self.next_seq += 1;
        self.inflight = Some(InFlight {
            op: op.clone(),
            id,
            start: now,
            attempts: 1,
            // `sent` sets the real deadline before any timer can fire.
            retry_at: now,
        });
        Some(Attempt {
            op,
            id,
            attempts: 1,
        })
    }

    /// A retry timer fired: retry the in-flight op if it is due, else
    /// make sure a timer fires at its deadline.
    fn retry(&mut self, ctx: &mut dyn NodeIo) -> Option<Attempt> {
        let now = ctx.now();
        self.armed.retain(|&t| t > now);
        let inf = self.inflight.as_mut()?;
        if inf.retry_at > now {
            let due = inf.retry_at;
            self.arm(due, ctx);
            return None;
        }
        let past_deadline = self
            .op_deadline
            .is_some_and(|d| now.saturating_sub(inf.start) >= d);
        if inf.attempts >= self.max_attempts || past_deadline {
            // Budget exhausted (attempts or total deadline): complete with
            // a typed client-side timeout so histories and benches see the
            // failure (the paper's clients would retry until the partition
            // heals; a bounded budget keeps runs finite without hiding the
            // outcome).
            let err = KvError::Timeout {
                key: inf.op.key().to_owned(),
                attempts: inf.attempts,
            };
            self.complete(Err(err), None, now);
            return self.issue_next(ctx);
        }
        inf.attempts += 1;
        let resend = Attempt {
            op: inf.op.clone(),
            id: inf.id,
            attempts: inf.attempts,
        };
        let waited = now.saturating_sub(inf.start);
        self.tel.record("client.retry_wait", waited);
        self.tel.add("client.retries", 1);
        Some(resend)
    }

    /// Record the in-flight operation as completed; `got` is what a get
    /// reply carried.
    fn complete(&mut self, result: Result<(), KvError>, got: Option<&Value>, now: Time) {
        let Some(inf) = self.inflight.take() else {
            return;
        };
        // Puts record the bytes they wrote (successful or not: a failed
        // put may still have taken effect, and the history checker needs
        // the candidate value); gets record whatever the reply carried.
        let (size, bytes) = match (&inf.op, got) {
            (ClientOp::Put { value, .. }, _) | (ClientOp::Get { .. }, Some(value)) => {
                (value.size(), Some(value.bytes.as_ref().clone()))
            }
            (ClientOp::Get { .. }, None) => (0, None),
        };
        let is_put = matches!(inf.op, ClientOp::Put { .. });
        let e2e = now.saturating_sub(inf.start);
        if result.is_ok() {
            let h = if is_put {
                "client.put_e2e"
            } else {
                "client.get_e2e"
            };
            self.tel.record(h, e2e);
        } else {
            self.tel.record("client.failed_e2e", e2e);
            self.tel.add("client.failures", 1);
        }
        self.records.push(OpRecord {
            is_put,
            key: inf.op.key().to_owned(),
            seq: inf.id.client_seq,
            start: inf.start,
            end: now,
            result,
            attempts: inf.attempts,
            size,
            bytes,
        });
    }

    /// Crash: the in-flight op dies with the process, and so do the
    /// host's timers, so none counts as armed any more.
    pub fn on_crash(&mut self) {
        self.inflight = None;
        self.armed.clear();
    }
}

/// The shared client surface both systems' apps expose to harnesses.
///
/// NICE's `ClientApp` and NOOB's `NoobClientApp` differ only in how an
/// attempt reaches the wire; everything a test driver needs — queueing
/// work, reading completion records, capturing history — lives on the
/// embedded [`ClientCore`]. Implementing this trait lets a harness be
/// written once, generic over the app type, instead of as parallel
/// per-system code paths (`tests/differential.rs` and `tests/chaos.rs`
/// drive both systems through it).
///
/// Implementations only provide the two accessors; the drive-side
/// conveniences are defined once here.
pub trait KvClient {
    /// The protocol-level client state machine.
    fn core(&self) -> &ClientCore;
    /// Mutable access to the client state machine.
    fn core_mut(&mut self) -> &mut ClientCore;

    /// Queue more operations mid-run (see [`ClientCore::push_ops`]).
    fn push_ops(&mut self, ops: impl IntoIterator<Item = ClientOp>)
    where
        Self: Sized,
    {
        self.core_mut().push_ops(ops);
    }

    /// Completion records so far.
    fn records(&self) -> &[OpRecord] {
        &self.core().records
    }

    /// Operations finished so far.
    fn completed(&self) -> usize {
        self.core().completed()
    }

    /// True once the op queue drained with nothing in flight.
    fn is_done(&self) -> bool {
        self.core().done_at.is_some()
    }

    /// The client-side metrics snapshot (end-to-end latency histograms,
    /// retry counters) — the uniform surface harnesses and benches
    /// harvest instead of reaching into per-system internals.
    fn metrics(&self) -> MetricsRegistry {
        self.core().metrics()
    }
}

/// The core is trivially its own client surface (unit-test harnesses
/// drive it without an adapter app around it).
impl KvClient for ClientCore {
    fn core(&self) -> &ClientCore {
        self
    }
    fn core_mut(&mut self) -> &mut ClientCore {
        self
    }
}

#[cfg(test)]
mod tests {
    use node_rt::{Ipv4, Mac, Packet, XorShiftRng};

    use super::*;

    const ME: Ipv4 = Ipv4::new(10, 0, 1, 1);
    /// The transport's tick token (bit 63), which an adapter's `on_timer`
    /// sees among its own.
    const TICK: u64 = 1 << 63;

    /// A host at `ME` that writes down, in order, what it was asked, and
    /// keeps the timers armed on it for [`fire_next`].
    struct FakeIo {
        now: Time,
        asked: Vec<(&'static str, Time, u64)>,
        /// `(deadline, token)` of every timer armed and not yet fired, in
        /// arming order.
        timers: Vec<(Time, u64)>,
        rng: XorShiftRng,
    }

    impl FakeIo {
        fn new() -> FakeIo {
            FakeIo {
                now: Time::ZERO,
                asked: Vec::new(),
                timers: Vec::new(),
                rng: XorShiftRng::seed_from_u64(1),
            }
        }

        /// Deadlines of the armed retry timers (every timer but the
        /// start/idle poll).
        fn retry_timers(&self) -> Vec<Time> {
            let retry = self.timers.iter().filter(|t| t.1 != TOK_START);
            retry.map(|t| t.0).collect()
        }

        /// Move the clock to `now` and forget what was asked so far.
        fn at(&mut self, now: Time) -> &mut FakeIo {
            self.now = now;
            self.asked.clear();
            self
        }
    }

    impl NodeIo for FakeIo {
        fn now(&self) -> Time {
            self.now
        }
        fn ip(&self) -> Ipv4 {
            ME
        }
        fn mac(&self) -> Mac {
            Mac(1)
        }
        fn send(&mut self, _pkt: Packet) {
            self.asked.push(("send", Time::ZERO, 0));
        }
        fn set_timer(&mut self, delay: Time, token: u64) {
            self.asked.push(("set_timer", delay, token));
            self.timers.push((self.now + delay, token));
        }
        fn cpu_work(&mut self, amount: Time) {
            self.asked.push(("cpu_work", amount, 0));
        }
        fn cpu_defer(&mut self, amount: Time, token: u64) {
            self.asked.push(("cpu_defer", amount, token));
        }
        fn rng(&mut self) -> &mut XorShiftRng {
            &mut self.rng
        }
    }

    fn core(ops: Vec<ClientOp>) -> ClientCore {
        ClientCore::new(ops, Time::ZERO)
    }

    fn put(key: &str, n: u32) -> ClientOp {
        ClientOp::Put {
            key: key.to_owned(),
            value: Value::synthetic(n),
        }
    }

    fn get(key: &str) -> ClientOp {
        ClientOp::Get {
            key: key.to_owned(),
        }
    }

    /// What an adapter does with an attempt: put it on the wire (logged
    /// as a send carrying the op sequence), then tell the core.
    fn wire(c: &mut ClientCore, at: Attempt, io: &mut FakeIo) -> Attempt {
        io.asked.push(("send", Time::ZERO, at.id.client_seq));
        c.sent(&at, io);
        at
    }

    /// What the host does with its timers: fire the earliest (arming
    /// order among equal deadlines) at its deadline and wire any attempt
    /// the core hands back. `None` once no timer is armed.
    fn fire_next(c: &mut ClientCore, io: &mut FakeIo) -> Option<(Time, Option<Attempt>)> {
        let i = (0..io.timers.len()).min_by_key(|&i| (io.timers[i].0, i))?;
        let (at, token) = io.timers.remove(i);
        io.now = at;
        let sent = c.on_timer(token, io).map(|a| wire(c, a, io));
        Some((at, sent))
    }

    /// [`fire_next`], naming only when it fired and which attempt it sent.
    fn fire(c: &mut ClientCore, io: &mut FakeIo) -> (Time, Option<u32>) {
        let (at, sent) = fire_next(c, io).expect("a timer is armed");
        (at, sent.map(|a| a.attempts))
    }

    /// Boot `c` and send the attempt its start timer issues.
    fn first(c: &mut ClientCore, io: &mut FakeIo) -> Attempt {
        c.on_start(io);
        let (_, at) = fire_next(c, io).expect("the start timer");
        at.expect("an op is queued")
    }

    #[test]
    fn issues_serially_and_records_completion() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 100), get("a")]);
        let a = first(&mut c, &mut io);
        assert_eq!(a.id.client_seq, 1);
        let busy = c.on_timer(TOK_START, io.at(Time::ZERO));
        assert!(busy.is_none() && io.asked.is_empty(), "one op at a time");
        let g = c.on_put_reply(a.id, true, io.at(Time::from_ms(3)));
        let g = g.expect("the get is issued next");
        assert_eq!(c.records[0].size, 100, "put size from the op itself");
        let value = Value::from_bytes(vec![1; 7]);
        let next = c.on_get_reply(g.id, Some(&value), io.at(Time::from_ms(5)));
        assert!(next.is_none());
        assert_eq!(c.records[1].size, 7, "get size from the reply");
        assert_eq!(c.done_at, Some(Time::from_ms(5)));
        assert_eq!(c.completed(), 2);
    }

    #[test]
    fn an_attempt_is_sent_before_its_retry_timer() {
        let mut c = ClientCore::new(vec![put("a", 10)], Time::from_ms(3));
        let mut io = FakeIo::new();
        c.on_start(io.at(Time::from_ms(1)));
        assert_eq!(io.asked, [("set_timer", Time::from_ms(2), TOK_START)]);
        let at = c.on_timer(TOK_START, io.at(Time::from_ms(3)));
        assert!(io.asked.is_empty(), "nothing is armed before the send");
        wire(&mut c, at.expect("the put"), &mut io);
        let armed = ("set_timer", Time::from_secs(2), TOK_RETRY);
        assert_eq!(io.asked, [("send", Time::ZERO, 1), armed]);
        // A resend goes the same way, armed with its own attempt's delay.
        c.retry = RetryPolicy {
            base: Time::from_ms(100),
            cap: Time::from_ms(1600),
            exponential: true,
            jitter_pct: 0,
            seed: 0,
        };
        let r = c.on_timer(TOK_RETRY, io.at(Time::from_ms(2003)));
        assert!(io.asked.is_empty(), "nothing is armed before the resend");
        wire(&mut c, r.expect("a resend"), &mut io);
        let armed = ("set_timer", Time::from_ms(200), TOK_RETRY);
        assert_eq!(io.asked, [("send", Time::ZERO, 1), armed]);
    }

    #[test]
    fn a_drained_queue_polls_and_issues_ops_pushed_later() {
        let mut io = FakeIo::new();
        let mut c = core(Vec::new());
        c.on_start(&mut io);
        assert!(c.on_timer(TOK_START, io.at(Time::from_ms(1))).is_none());
        assert_eq!(io.asked, [("set_timer", IDLE_POLL, TOK_START)]);
        assert_eq!(c.done_at, Some(Time::from_ms(1)));
        // Still drained at the next poll: poll again.
        assert!(c.on_timer(TOK_START, io.at(Time::from_ms(11))).is_none());
        assert_eq!(io.asked, [("set_timer", IDLE_POLL, TOK_START)]);
        c.push_ops([put("a", 10)]);
        assert!(!c.is_done());
        let at = c.on_timer(TOK_START, io.at(Time::from_ms(21)));
        assert_eq!(at.expect("the pushed op").id.client_seq, 1);
        assert!(io.asked.is_empty());
    }

    #[test]
    fn failed_put_waits_for_retry_timer_then_resends() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10)]);
        let a = first(&mut c, &mut io);
        let next = c.on_put_reply(a.id, false, io.at(Time::from_ms(1)));
        assert!(
            next.is_none(),
            "mid-budget failure does not complete the op"
        );
        assert!(io.asked.is_empty(), "the armed retry timer re-attempts");
        assert_eq!(fire(&mut c, &mut io), (Time::from_secs(2), Some(2)));
        // A retry timer that fires before the resend is due does not
        // resend; the timer the resend armed is still there.
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(3))).is_none());
        assert!(io.asked.is_empty());
        assert_eq!(fire(&mut c, &mut io), (Time::from_secs(4), Some(3)));
    }

    #[test]
    fn stale_retry_and_tick_tokens_resend_nothing() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10), put("b", 10)]);
        let a = first(&mut c, &mut io);
        let b = c.on_put_reply(a.id, true, io.at(Time::from_ms(1)));
        wire(&mut c, b.expect("b is issued next"), &mut io);
        // The tick is the transport's: the core ignores it.
        assert!(c.on_timer(TICK, io.at(Time::from_secs(1))).is_none());
        assert!(io.asked.is_empty(), "the tick armed nothing");
        // `a`'s retry timer outlives it: it re-arms for b's deadline.
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(2))).is_none());
        assert_eq!(io.asked, [("set_timer", Time::from_ms(1), TOK_RETRY)]);
        assert_eq!(c.completed(), 1);
        let b = c
            .inflight_detail()
            .map(|(op, id, _, n)| (op.key(), id.client_seq, n));
        assert_eq!(b, Some(("b", 2, 1)), "b untouched");
    }

    #[test]
    fn crash_forgets_the_inflight_op() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10), put("b", 10)]);
        let a = first(&mut c, &mut io);
        c.on_crash();
        assert!(c.inflight_detail().is_none());
        // The lost op's reply and retry timer find nothing to act on.
        assert!(c
            .on_put_reply(a.id, true, io.at(Time::from_ms(1)))
            .is_none());
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(2))).is_none());
        assert!(io.asked.is_empty() && c.records.is_empty());
        let b = c.on_timer(TOK_START, &mut io).expect("the queue survives");
        assert_eq!((b.op.key(), b.id.client_seq), ("b", 2));
    }

    #[test]
    fn exhausted_budget_records_the_typed_error() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10)]);
        first(&mut c, &mut io);
        let mut now = Time::ZERO;
        loop {
            now += Time::from_secs(2);
            let Some(r) = c.on_timer(TOK_RETRY, io.at(now)) else {
                break;
            };
            assert!(r.attempts <= 25);
            wire(&mut c, r, &mut io);
        }
        assert_eq!(io.asked, [("set_timer", IDLE_POLL, TOK_START)], "drained");
        let r = &c.records[0];
        assert_eq!(r.attempts, 25);
        assert_eq!(r.size, 10, "gave-up puts still account their size");
        assert!(matches!(
            r.err(),
            Some(KvError::Timeout { attempts: 25, .. })
        ));
    }

    #[test]
    fn op_deadline_times_out_before_the_attempt_budget() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10)]);
        c.op_deadline = Some(Time::from_secs(5));
        first(&mut c, &mut io);
        // First two retry firings are inside the deadline: resends.
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(2))).is_some());
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(4))).is_some());
        // The next firing is past the total budget: typed timeout, well
        // before the 25-attempt budget would have.
        assert!(c.on_timer(TOK_RETRY, io.at(Time::from_secs(6))).is_none());
        let r = &c.records[0];
        assert_eq!(r.attempts, 3);
        assert!(matches!(r.err(), Some(KvError::Timeout { .. })));
    }

    #[test]
    fn fixed_policy_is_attempt_independent() {
        let p = RetryPolicy::fixed(Time::from_secs(2));
        let id = OpId {
            client: ME,
            client_seq: 3,
        };
        for attempt in 1..10 {
            assert_eq!(p.delay(id, attempt), Time::from_secs(2));
        }
    }

    #[test]
    fn exponential_policy_doubles_and_caps() {
        let p = RetryPolicy {
            base: Time::from_ms(100),
            cap: Time::from_ms(1600),
            exponential: true,
            jitter_pct: 0,
            seed: 0,
        };
        let id = OpId {
            client: ME,
            client_seq: 1,
        };
        assert_eq!(p.delay(id, 1), Time::from_ms(100));
        assert_eq!(p.delay(id, 2), Time::from_ms(200));
        assert_eq!(p.delay(id, 5), Time::from_ms(1600));
        assert_eq!(p.delay(id, 24), Time::from_ms(1600), "stays capped");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_varied() {
        let p = RetryPolicy {
            base: Time::from_ms(1000),
            cap: Time::from_ms(1000),
            exponential: false,
            jitter_pct: 30,
            seed: 42,
        };
        let mut distinct = std::collections::BTreeSet::new();
        for seq in 1..40u64 {
            let id = OpId {
                client: ME,
                client_seq: seq,
            };
            let d = p.delay(id, 1);
            assert_eq!(d, p.delay(id, 1), "pure function of (policy, id, attempt)");
            assert!(d >= Time::from_ms(700) && d <= Time::from_ms(1000), "{d:?}");
            distinct.insert(d);
        }
        assert!(distinct.len() > 5, "jitter actually spreads the delays");
    }

    #[test]
    fn record_carries_seq_and_put_bytes() {
        let mut io = FakeIo::new();
        let mut c = core(vec![ClientOp::Put {
            key: "a".into(),
            value: Value::from_bytes(vec![7, 8, 9]),
        }]);
        let a = first(&mut c, &mut io);
        c.on_put_reply(a.id, true, io.at(Time::from_ms(1)));
        let r = &c.records[0];
        assert_eq!(r.seq, 1);
        assert_eq!(r.bytes.as_deref(), Some(&[7u8, 8, 9][..]));
    }

    #[test]
    fn a_quorum_completion_records_the_put_and_issues_the_next() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10), get("a")]);
        first(&mut c, &mut io);
        let g = c.on_quorum_put(io.at(Time::from_ms(2)));
        assert_eq!(g.expect("the get").id.client_seq, 2);
        let r = &c.records[0];
        assert!(r.ok() && r.is_put);
        assert_eq!((r.size, r.end), (10, Time::from_ms(2)));
    }

    #[test]
    fn not_found_backoff_keeps_the_op_inflight() {
        let mut io = FakeIo::new();
        let mut c = core(vec![get("a")]);
        c.retry_not_found = true;
        let a = first(&mut c, &mut io);
        assert!(c
            .on_get_reply(a.id, None, io.at(Time::from_ms(1)))
            .is_none());
        assert_eq!(io.asked, [("set_timer", NOT_FOUND_BACKOFF, TOK_RETRY)]);
        assert!(c.inflight_detail().is_some());
        let other = OpId {
            client: ME,
            client_seq: 42,
        };
        let found = Value::synthetic(1);
        let next = c.on_get_reply(other, Some(&found), io.at(Time::from_ms(2)));
        assert!(next.is_none() && io.asked.is_empty() && c.records.is_empty());
        // The backoff fires: ask again.
        let r = c.on_timer(TOK_RETRY, io.at(Time::from_ms(6)));
        assert_eq!(r.expect("a resend").attempts, 2);
    }

    #[test]
    fn ops_answered_before_their_deadlines_arm_one_retry_timer_in_total() {
        let mut io = FakeIo::new();
        let mut c = core((0..5).map(|i| put(&format!("k{i}"), 10)).collect());
        let mut at = first(&mut c, &mut io);
        for ms in 1..5 {
            let next = c.on_put_reply(at.id, true, io.at(Time::from_ms(ms)));
            at = wire(&mut c, next.expect("the next put"), &mut io);
        }
        assert!(c
            .on_put_reply(at.id, true, io.at(Time::from_ms(5)))
            .is_none());
        assert_eq!(c.completed(), 5);
        assert_eq!(io.retry_timers(), [Time::from_secs(2)], "the first op's");
    }

    /// Op `a` is answered halfway to its deadline and `b` is sent then,
    /// under `a`'s armed timer. That timer fires first, stale, and b is
    /// still retried exactly one delay after each of its sends.
    fn stale_timer_then_retry_at_send_plus_delay(policy: RetryPolicy) {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10), put("b", 10)]);
        c.retry = policy;
        let a = first(&mut c, &mut io);
        let a_due = policy.delay(a.id, 1);
        let sent = Time(a_due.as_ns() / 2);
        let b = c.on_put_reply(a.id, true, io.at(sent)).expect("b");
        let b = wire(&mut c, b, &mut io);
        assert_eq!(io.asked, [("send", Time::ZERO, 2)], "b arms no timer");
        let b_due = sent + policy.delay(b.id, 1);
        assert!(b_due > a_due, "a's timer fires first");
        assert_eq!(fire(&mut c, &mut io), (a_due, None));
        assert_eq!(fire(&mut c, &mut io), (b_due, Some(2)));
        let again = b_due + policy.delay(b.id, 2);
        assert_eq!(fire(&mut c, &mut io), (again, Some(3)));
    }

    #[test]
    fn a_stale_timer_leaves_the_fixed_retry_at_send_plus_delay() {
        stale_timer_then_retry_at_send_plus_delay(RetryPolicy::fixed(RETRY_PERIOD));
    }

    #[test]
    fn a_stale_timer_leaves_the_jittered_retry_at_send_plus_delay() {
        stale_timer_then_retry_at_send_plus_delay(RetryPolicy {
            base: Time::from_ms(100),
            cap: Time::from_ms(1600),
            exponential: true,
            jitter_pct: 30,
            seed: 7,
        });
    }

    #[test]
    fn a_not_found_backoff_under_an_armed_timer_arms_its_own() {
        let mut io = FakeIo::new();
        let mut c = core(vec![get("a")]);
        c.retry_not_found = true;
        let a = first(&mut c, &mut io);
        assert!(c
            .on_get_reply(a.id, None, io.at(Time::from_ms(1)))
            .is_none());
        let backoff = Time::from_ms(1) + NOT_FOUND_BACKOFF;
        assert_eq!(io.retry_timers(), [RETRY_PERIOD, backoff]);
        assert_eq!(fire(&mut c, &mut io), (backoff, Some(2)));
        // The resend goes unanswered: it is retried one period after it
        // was sent, not when the first attempt's timer fires.
        assert_eq!(fire(&mut c, &mut io), (RETRY_PERIOD, None));
        assert_eq!(fire(&mut c, &mut io), (backoff + RETRY_PERIOD, Some(3)));
    }

    #[test]
    fn after_a_crash_the_next_attempt_arms_a_timer() {
        let mut io = FakeIo::new();
        let mut c = core(vec![put("a", 10), put("b", 10), put("c", 10)]);
        first(&mut c, &mut io);
        c.on_crash();
        io.timers.clear(); // the host's timers die with it
        c.on_start(io.at(Time::from_ms(1)));
        let (_, b) = fire_next(&mut c, &mut io).expect("the start timer");
        let b = b.expect("b is issued");
        let b_due = Time::from_ms(1) + RETRY_PERIOD;
        assert_eq!(io.retry_timers(), [b_due]);
        // c goes out under b's timer: nothing more is armed, and c is
        // still retried at its own deadline.
        let next = c.on_put_reply(b.id, true, io.at(Time::from_ms(3)));
        wire(&mut c, next.expect("c is issued"), &mut io);
        assert_eq!(io.retry_timers(), [b_due]);
        assert_eq!(fire(&mut c, &mut io), (b_due, None));
        let c_due = Time::from_ms(3) + RETRY_PERIOD;
        assert_eq!(fire(&mut c, &mut io), (c_due, Some(2)));
    }
}
