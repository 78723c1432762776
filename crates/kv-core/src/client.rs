//! The system-agnostic client core: closed-loop operation issue, the
//! retry/timeout engine, and completion records.
//!
//! Both systems' clients run the same loop — pop an op, stamp an
//! [`OpId`], send an attempt, arm a retry timer, classify the reply —
//! and differ only in *where* the attempt goes (NICE: reliable-UDP to a
//! vnode address; NOOB: TCP to a gateway or storage node). This module
//! owns the loop; the client adapters own the wire. Core methods return
//! small verdict enums ([`Issue`], [`ReplyAction`], [`RetryAction`])
//! instead of sending anything.

use std::collections::VecDeque;

use node_rt::{Ipv4, Time};

use crate::error::KvError;
use crate::telemetry::{MetricsRegistry, Telemetry};
use crate::types::{OpId, Value};

/// Timer token for the start/idle-poll timer.
pub const TOK_START: u64 = 1;
/// Idle poll period: a drained client re-checks its queue at this rate so
/// harnesses can push more work mid-run.
pub const IDLE_POLL: Time = Time::from_ms(10);
/// Retry timers carry the op sequence in the low bits.
pub const TOK_RETRY_BASE: u64 = 1 << 32;
/// Backoff before re-asking for a key that was not found (only with
/// [`ClientCore::retry_not_found`]).
pub const NOT_FOUND_BACKOFF: Time = Time::from_ms(5);

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

/// One attempt the adapter must put on the wire (and arm a
/// [`ClientCore::retry_delay`] timer for, under token `TOK_RETRY_BASE |
/// id.client_seq`).
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The operation.
    pub op: ClientOp,
    /// Its id (stable across retries of the same op).
    pub id: OpId,
    /// Attempt number (1 = first try).
    pub attempts: u32,
}

/// What [`ClientCore::issue_next`] decided.
#[derive(Debug)]
pub enum Issue {
    /// Send this attempt.
    Attempt(Attempt),
    /// The queue is empty; `done_at` is set. Arm an [`IDLE_POLL`] timer
    /// to pick up work pushed later.
    Drained,
    /// An operation is already in flight; do nothing.
    Busy,
}

/// What a reply means for the in-flight operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyAction {
    /// Not for the in-flight op (stale or duplicate); ignore.
    NotMine,
    /// A failed put mid-retry-budget: keep waiting, the armed retry
    /// timer will re-attempt (the partition is healing).
    AwaitRetry,
    /// A NotFound get under `retry_not_found`: arm a short
    /// [`NOT_FOUND_BACKOFF`] timer (token `TOK_RETRY_BASE |
    /// op.client_seq`) and keep the op in flight.
    Backoff,
    /// The operation completed (recorded); issue the next one.
    Done,
}

/// What a retry-timer firing means.
#[derive(Debug)]
pub enum RetryAction {
    /// Re-send this attempt.
    Resend(Attempt),
    /// Retry budget exhausted: the op completed with
    /// [`KvError::Timeout`] (recorded); issue the next one.
    GaveUp,
    /// Stale timer for an already-completed op; ignore.
    Stale,
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

/// SplitMix64 finalizer: a stateless avalanche hash, good enough to
/// decorrelate jitter across (client, op, attempt) without carrying RNG
/// state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct InFlight {
    op: ClientOp,
    id: OpId,
    start: Time,
    attempts: u32,
}

/// The shared closed-loop client state machine. The NICE and NOOB client
/// apps deref to this and translate its verdicts into their transports.
pub struct ClientCore {
    ops: VecDeque<ClientOp>,
    inflight: Option<InFlight>,
    next_seq: u64,
    max_attempts: u32,
    /// Retry schedule armed per attempt (fixed period by default — "the
    /// client will retry after waiting for 2 seconds", §6.6 — or
    /// exponential backoff with seeded jitter).
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
    /// Telemetry bundle: end-to-end and retry-wait histograms. Shaped
    /// by [`TelemetryCfg`](crate::TelemetryCfg) through the cluster
    /// spec; defaults to enabled.
    pub tel: Telemetry,
}

impl ClientCore {
    /// A core that runs `ops` once, starting at `start_at`, re-attempting
    /// every `retry` (swap in a different [`RetryPolicy`] via the public
    /// `retry` field for backoff/jitter).
    pub fn new(ops: Vec<ClientOp>, retry: Time, start_at: Time) -> ClientCore {
        ClientCore {
            ops: ops.into(),
            inflight: None,
            next_seq: 1,
            max_attempts: 25,
            retry: RetryPolicy::fixed(retry),
            start_at,
            retry_not_found: false,
            op_deadline: None,
            records: Vec::new(),
            done_at: None,
            tel: Telemetry::default(),
        }
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

    /// Queue more operations (the driver may extend work mid-run); the
    /// idle poll picks them up within [`IDLE_POLL`].
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

    /// The in-flight operation, if any (adapters use this to size
    /// transport-level completions).
    pub fn inflight_op(&self) -> Option<(&ClientOp, OpId)> {
        self.inflight.as_ref().map(|inf| (&inf.op, inf.id))
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

    /// The retry delay to arm for attempt `attempt` of op `id`
    /// (convenience over `self.retry.delay`, used by the adapters when
    /// they put an attempt on the wire).
    pub fn retry_delay(&self, id: OpId, attempt: u32) -> Time {
        self.retry.delay(id, attempt)
    }

    /// Start the next queued operation, if idle.
    pub fn issue_next(&mut self, me: Ipv4, now: Time) -> Issue {
        if self.inflight.is_some() {
            return Issue::Busy;
        }
        let Some(op) = self.ops.pop_front() else {
            if self.done_at.is_none() {
                self.done_at = Some(now);
            }
            return Issue::Drained;
        };
        let id = OpId {
            client: me,
            client_seq: self.next_seq,
        };
        self.next_seq += 1;
        self.inflight = Some(InFlight {
            op: op.clone(),
            id,
            start: now,
            attempts: 1,
        });
        Issue::Attempt(Attempt {
            op,
            id,
            attempts: 1,
        })
    }

    /// Size accounted for the in-flight op when it completes (put: bytes
    /// sent; get replies carry their own size).
    fn inflight_put_size(&self) -> u32 {
        match self.inflight.as_ref().map(|inf| &inf.op) {
            Some(ClientOp::Put { value, .. }) => value.size(),
            _ => 0,
        }
    }

    /// Record the in-flight operation as completed. Most paths go
    /// through the `on_*` verdict methods; adapters with transport-level
    /// completions (quorum-mode Sent tokens) call this directly, then
    /// issue the next op.
    pub fn complete(
        &mut self,
        result: Result<(), KvError>,
        size: u32,
        bytes: Option<Vec<u8>>,
        now: Time,
    ) {
        let Some(inf) = self.inflight.take() else {
            return;
        };
        // Puts record the bytes they wrote (successful or not: a failed
        // put may still have taken effect, and the history checker needs
        // the candidate value); gets record whatever the reply carried.
        let bytes = match &inf.op {
            ClientOp::Put { value, .. } => Some(value.bytes.as_ref().clone()),
            ClientOp::Get { .. } => bytes,
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
            is_put: matches!(inf.op, ClientOp::Put { .. }),
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

    /// Classify a put reply.
    pub fn on_put_reply(&mut self, op: OpId, ok: bool, now: Time) -> ReplyAction {
        let Some(inf) = self.inflight.as_ref() else {
            return ReplyAction::NotMine;
        };
        if inf.id != op {
            return ReplyAction::NotMine;
        }
        if !ok && inf.attempts < self.max_attempts {
            return ReplyAction::AwaitRetry;
        }
        let size = self.inflight_put_size();
        let result = if ok {
            Ok(())
        } else {
            Err(KvError::PutRejected {
                key: inf.op.key().to_owned(),
            })
        };
        self.complete(result, size, None, now);
        ReplyAction::Done
    }

    /// Classify a get reply.
    pub fn on_get_reply(
        &mut self,
        op: OpId,
        found: bool,
        size: u32,
        bytes: Option<Vec<u8>>,
        now: Time,
    ) -> ReplyAction {
        let Some(inf) = self.inflight.as_ref() else {
            return ReplyAction::NotMine;
        };
        if inf.id != op {
            return ReplyAction::NotMine;
        }
        if !found && self.retry_not_found && inf.attempts < self.max_attempts {
            return ReplyAction::Backoff;
        }
        let result = if found {
            Ok(())
        } else {
            Err(KvError::NotFound {
                key: inf.op.key().to_owned(),
            })
        };
        self.complete(result, size, bytes, now);
        ReplyAction::Done
    }

    /// Classify a retry-timer firing for op sequence `seq`.
    pub fn on_retry_timer(&mut self, seq: u64, now: Time) -> RetryAction {
        let Some(inf) = self.inflight.as_mut() else {
            return RetryAction::Stale;
        };
        if inf.id.client_seq != seq {
            return RetryAction::Stale; // for a completed op
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
            let size = self.inflight_put_size();
            self.complete(Err(err), size, None, now);
            return RetryAction::GaveUp;
        }
        inf.attempts += 1;
        let (id, attempts, start) = (inf.id, inf.attempts, inf.start);
        let resend = Attempt {
            op: inf.op.clone(),
            id,
            attempts,
        };
        self.tel
            .record("client.retry_wait", now.saturating_sub(start));
        self.tel.add("client.retries", 1);
        RetryAction::Resend(resend)
    }

    /// Crash: the in-flight op (and its pending timers' meaning) dies
    /// with the process.
    pub fn on_crash(&mut self) {
        self.inflight = None;
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
    use super::*;

    const ME: Ipv4 = Ipv4::new(10, 0, 1, 1);

    fn core(ops: Vec<ClientOp>) -> ClientCore {
        ClientCore::new(ops, Time::from_secs(2), Time::ZERO)
    }

    fn put(key: &str, n: u32) -> ClientOp {
        ClientOp::Put {
            key: key.to_owned(),
            value: Value::synthetic(n),
        }
    }

    #[test]
    fn issues_serially_and_records_completion() {
        let mut c = core(vec![put("a", 100), ClientOp::Get { key: "a".into() }]);
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        assert_eq!(a.id.client_seq, 1);
        assert!(matches!(c.issue_next(ME, Time::ZERO), Issue::Busy));
        assert_eq!(
            c.on_put_reply(a.id, true, Time::from_ms(3)),
            ReplyAction::Done
        );
        assert_eq!(c.records[0].size, 100, "put size from the op itself");
        let Issue::Attempt(g) = c.issue_next(ME, Time::from_ms(3)) else {
            panic!("expected the get");
        };
        assert_eq!(
            c.on_get_reply(g.id, true, 7, Some(vec![1]), Time::from_ms(5)),
            ReplyAction::Done
        );
        assert!(matches!(c.issue_next(ME, Time::from_ms(5)), Issue::Drained));
        assert_eq!(c.done_at, Some(Time::from_ms(5)));
        assert_eq!(c.completed(), 2);
    }

    #[test]
    fn failed_put_waits_for_retry_timer_then_resends() {
        let mut c = core(vec![put("a", 10)]);
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        assert_eq!(
            c.on_put_reply(a.id, false, Time::from_ms(1)),
            ReplyAction::AwaitRetry,
            "mid-budget failure does not complete the op"
        );
        let RetryAction::Resend(r) = c.on_retry_timer(a.id.client_seq, Time::from_secs(2)) else {
            panic!("expected a resend");
        };
        assert_eq!(r.attempts, 2);
        assert!(matches!(
            c.on_retry_timer(999, Time::from_secs(2)),
            RetryAction::Stale
        ));
    }

    #[test]
    fn exhausted_budget_records_the_typed_error() {
        let mut c = core(vec![put("a", 10)]);
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        let mut now = Time::ZERO;
        loop {
            now += Time::from_secs(2);
            match c.on_retry_timer(a.id.client_seq, now) {
                RetryAction::Resend(_) => {}
                RetryAction::GaveUp => break,
                RetryAction::Stale => panic!("live op cannot be stale"),
            }
        }
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
        let mut c = core(vec![put("a", 10)]);
        c.op_deadline = Some(Time::from_secs(5));
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        // First two retry firings are inside the deadline: resends.
        assert!(matches!(
            c.on_retry_timer(a.id.client_seq, Time::from_secs(2)),
            RetryAction::Resend(_)
        ));
        assert!(matches!(
            c.on_retry_timer(a.id.client_seq, Time::from_secs(4)),
            RetryAction::Resend(_)
        ));
        // The next firing is past the total budget: typed timeout, well
        // before the 25-attempt budget would have.
        assert!(matches!(
            c.on_retry_timer(a.id.client_seq, Time::from_secs(6)),
            RetryAction::GaveUp
        ));
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
        let mut c = core(vec![ClientOp::Put {
            key: "a".into(),
            value: Value::from_bytes(vec![7, 8, 9]),
        }]);
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        c.on_put_reply(a.id, true, Time::from_ms(1));
        let r = &c.records[0];
        assert_eq!(r.seq, 1);
        assert_eq!(r.bytes.as_deref(), Some(&[7u8, 8, 9][..]));
    }

    #[test]
    fn not_found_backoff_keeps_the_op_inflight() {
        let mut c = core(vec![ClientOp::Get { key: "a".into() }]);
        c.retry_not_found = true;
        let Issue::Attempt(a) = c.issue_next(ME, Time::ZERO) else {
            panic!("expected an attempt");
        };
        assert_eq!(
            c.on_get_reply(a.id, false, 0, None, Time::from_ms(1)),
            ReplyAction::Backoff
        );
        assert!(c.inflight_op().is_some());
        assert_eq!(
            c.on_get_reply(
                OpId {
                    client: ME,
                    client_seq: 42
                },
                true,
                1,
                None,
                Time::from_ms(2)
            ),
            ReplyAction::NotMine
        );
    }
}
