//! The shared replication engine beneath NICEKV and NOOB.
//!
//! Both systems run the *same* put state machines — NICE-2PC of §4.3 /
//! Figure 3 (lock, forced log write, object write, timestamp round) and
//! the primary-only / quorum direct path — and differ only in how the
//! network routes the messages between replicas. This module owns that
//! system-agnostic half: the [`ObjectStore`] mutations, the in-memory
//! lock/coordinator tables, the waiting-writer queue, the §4.4 lock
//! resolution rules, and the unified [`Counters`].
//!
//! The engine is transport-free. Every state transition returns its
//! outward-visible consequences as [`Effect`]s that the policy adapter
//! (vring multicast for NICE, unicast fan-out for NOOB) turns into wire
//! messages and timers. The adapters therefore cannot drift apart on
//! protocol logic — the invariant the old textual `enum_parity` lint
//! approximated is now enforced by this shared type.

use std::collections::{BTreeMap, BTreeSet};

use node_rt::{Ipv4, Time};

use crate::error::KvError;
use crate::store::{ObjectStore, StorageCfg};
use crate::telemetry::{MetricsRegistry, Telemetry};
use crate::types::{NodeIdx, OpId, Timestamp, Value};

/// Unified protocol tallies for both systems' storage nodes: plain
/// integers on the hot path, published under `engine.*` by
/// [`TwoPcEngine::metrics`].
///
/// The engine itself bumps `puts_committed` / `puts_aborted` /
/// `internal_errors`; the policy adapters bump the routing-dependent
/// ones (`gets_served`, `forwarded`, `replica_writes`,
/// `puts_coordinated`, `failure_reports`) through
/// [`TwoPcEngine::counters_mut`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Gets served from the local store.
    pub gets_served: u64,
    /// Requests forwarded to the responsible node (NICE: handoff get
    /// misses; NOOB: ROG/RAC extra hops).
    pub forwarded: u64,
    /// Puts committed locally.
    pub puts_committed: u64,
    /// Puts aborted.
    pub puts_aborted: u64,
    /// Puts coordinated as primary.
    pub puts_coordinated: u64,
    /// Replica writes performed as secondary.
    pub replica_writes: u64,
    /// Failure reports sent.
    pub failure_reports: u64,
    /// Internal invariant violations survived without panicking
    /// (see [`KvError`]); nonzero indicates a protocol bug.
    pub internal_errors: u64,
}

/// Policy knobs fixed per system at construction time.
#[derive(Debug, Clone, Copy)]
pub struct EngineCfg {
    /// Storage device model.
    pub storage: StorageCfg,
    /// 2PC coordination deadline. `Some`: a coordinator gives up on a
    /// round still open `2 × op_timeout` after it opened (NICE, §4.4
    /// failure handling); `None` runs without (the NOOB baseline).
    pub op_timeout: Option<Time>,
    /// Where the coordinator gives queued writers their turn. `true`:
    /// when the round retires (NOOB's primary drains inline, having no
    /// further self-delivery). `false`: when its own copy of the commit
    /// message loops back (NICE's primary receives its own switch
    /// multicast like any replica). The commit *itself* is always
    /// applied locally the moment the timestamp is generated — a lossy
    /// loopback must never be the only path to the primary's own
    /// durability (see `check_commit`).
    pub inline_commit: bool,
    /// Model the W step of Figure 3 as durable: a pending put whose
    /// local write finished survives a crash as an in-doubt entry for
    /// §4.4 lock resolution. The NOOB baseline keeps tentative values in
    /// memory only.
    pub durable_pending: bool,
    /// Break a conflicting lock whose holder has been silent this long.
    /// NICE runs `None`: its deadline + failure-detector machinery (§4.4)
    /// cleans up orphaned locks. The NOOB baseline has neither, so a lock
    /// abandoned by a crashed peer or a given-up client would wedge the
    /// key forever; a TTL longer than the client retry period is its only
    /// liveness backstop.
    pub stale_lock_ttl: Option<Time>,
}

/// The replica group for one key, from the engine's point of view:
/// everyone who must acknowledge, excluding the local node.
#[derive(Debug, Clone)]
pub struct Group {
    /// The other members that must ack (primary excluded).
    pub peers: Vec<NodeIdx>,
    /// The local node's address (becomes `Timestamp::primary` when this
    /// node generates a commit timestamp).
    pub self_addr: Ipv4,
}

/// The calling node's role for one key, per call — roles change under
/// membership churn, so the adapter derives it fresh from its routing
/// state each time.
#[derive(Debug, Clone, Copy)]
pub enum EngineRole<'a> {
    /// Coordinator for the key's partition.
    Primary(&'a Group),
    /// Replica that acknowledges to a coordinator.
    Peer,
    /// Holds the data but participates in no ack round (e.g. a node
    /// outside the current view applying a late commit).
    Observer,
}

/// An outward-visible consequence of an engine transition. The policy
/// adapter interprets each one — sending a wire message, arming a timer,
/// or re-entering its own put path — in its system's idiom.
#[derive(Debug, Clone)]
pub enum Effect {
    /// The local object write (W) completes at `at`; feed
    /// [`TwoPcEngine::on_written`] back then.
    WriteDone {
        /// Device completion time.
        at: Time,
        /// The key.
        key: String,
        /// The attempt.
        op: OpId,
    },
    /// Tell the coordinator this replica holds the data (phase-1 ack).
    Ack1 {
        /// The key.
        key: String,
        /// The attempt.
        op: OpId,
    },
    /// Tell the coordinator this replica committed (phase-2 ack).
    Ack2 {
        /// The key.
        key: String,
        /// The attempt.
        op: OpId,
    },
    /// Distribute the commit timestamp to every replica (Figure 3's
    /// "timestamp" message).
    Commit {
        /// The key.
        key: String,
        /// The attempt being committed.
        op: OpId,
        /// The commit timestamp.
        ts: Timestamp,
    },
    /// Distribute an abort for a failed round.
    Abort {
        /// The key.
        key: String,
        /// The attempt being aborted.
        op: OpId,
        /// When the abort was decided. Receivers drop the abort if their
        /// lock for `op` is newer — a retry re-locks under the same
        /// `OpId`, and a stale abort surfacing late (a healed partition
        /// flushing queued traffic) must not tear down the live round.
        issued: Time,
    },
    /// Answer the client.
    Reply {
        /// The client's address.
        client: Ipv4,
        /// The attempt this answers.
        op: OpId,
        /// Whether the put committed.
        ok: bool,
    },
    /// Arm the engine's one timer: feed [`TwoPcEngine::on_deadline`]
    /// back at `at`.
    Deadline {
        /// When the timer fires.
        at: Time,
    },
    /// These members never acknowledged before the round's deadline —
    /// report them to the failure detector (§4.4).
    Unresponsive {
        /// The silent members.
        members: Vec<NodeIdx>,
    },
    /// A queued writer's turn came up: re-enter the put path with it.
    Redrive {
        /// The key.
        key: String,
        /// The queued attempt.
        op: OpId,
        /// Its value.
        value: Value,
    },
}

/// How one coordinated put completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoordKind {
    /// Two rounds: ack1 from all peers → commit timestamp → ack2 from
    /// all peers → reply.
    TwoPc,
    /// One round: reply once `quorum` copies (including the local one)
    /// exist; retire the record when every peer acked.
    Direct {
        /// Copies needed before the client reply.
        quorum: usize,
    },
}

/// Coordinator-side state of one in-flight put.
#[derive(Debug, Clone)]
struct Coord {
    client: Ipv4,
    acks1: BTreeSet<NodeIdx>,
    acks2: BTreeSet<NodeIdx>,
    self_written: bool,
    committed: bool,
    /// The timestamp generated when the round committed (drives re-sends
    /// of the timestamp message for retried puts whose round is stuck in
    /// phase 2).
    ts: Option<Timestamp>,
    replied: bool,
    /// When the coordinator gives up on the round, then its open order;
    /// `None` for explicitly coordinated rounds (no deadline).
    due: Option<(Time, u64)>,
    kind: CoordKind,
}

impl Coord {
    fn new(client: Ipv4, kind: CoordKind, due: Option<(Time, u64)>) -> Coord {
        Coord {
            client,
            acks1: BTreeSet::new(),
            acks2: BTreeSet::new(),
            self_written: false,
            committed: false,
            ts: None,
            replied: false,
            due,
            kind,
        }
    }
}

/// The replication engine both systems share; its `pub` methods are the
/// protocol surface both adapters program against.
///
/// Every store mutation and every lock/coordinator-table transition of
/// the put path goes through these methods — the `layering` lint bans
/// the raw [`ObjectStore`] mutators from the adapter crates, so protocol
/// logic cannot be reimplemented (or drift) per system.
///
/// `Clone` is an exploration hook: the DPOR explorer
/// ([`explore`](crate::explore)) forks whole engine states to probe the
/// footprint of a candidate step and to branch its schedule tree.
#[derive(Debug, Clone)]
pub struct TwoPcEngine {
    cfg: EngineCfg,
    store: ObjectStore,
    coords: BTreeMap<(String, OpId), Coord>,
    /// Writers queued behind a lock, FIFO per key.
    waiting: BTreeMap<String, Vec<(OpId, Value)>>,
    primary_seq: u64,
    /// Highest `client_seq` this node applied a commit for, per client.
    /// Because clients are closed-loop (one op in flight at a time), a
    /// floor at or above an attempt's sequence proves that attempt either
    /// committed or was abandoned — either way, a retry of it must not
    /// start a fresh round (re-committing an old value under a new, higher
    /// timestamp would resurrect it over later writes). Rebuilt from the
    /// committed objects after a crash.
    client_floors: BTreeMap<Ipv4, u64>,
    counters: Counters,
    last_internal_error: Option<KvError>,
    /// Telemetry bundle (phase histograms + counters).
    tel: Telemetry,
    /// Lock time of each live round, for phase-duration histograms.
    started: BTreeMap<(String, OpId), Time>,
    /// Rounds opened with a deadline so far.
    opened: u64,
    /// Whether the [`Effect::Deadline`] timer is armed. A round opened
    /// later is never due before it: every round is due `open + 2 × t`.
    timer_armed: bool,
    /// Latest `now` any transition saw — the timestamp source for the
    /// transitions that carry no clock (`on_ack2` and the
    /// `check_commit`/`direct_advance` it reaches). Telemetry only, and
    /// deterministic: it only ever holds values the host clock handed in.
    clock: Time,
}

impl TwoPcEngine {
    /// An empty engine with the given policy.
    pub fn new(cfg: EngineCfg) -> TwoPcEngine {
        TwoPcEngine::with_store(cfg, ObjectStore::new(cfg.storage))
    }

    /// An engine recovered from (or newly backed by) the file WAL at
    /// `path`: opens the log, replays every intact record into a fresh
    /// store, and returns the engine plus the number of records
    /// replayed. The parent directory is created if missing. If the WAL
    /// cannot be opened (I/O error), the engine degrades to the
    /// memory-only model — a node that serves without crash-safety
    /// beats one that refuses to serve.
    pub fn recover(cfg: EngineCfg, path: &std::path::Path) -> (TwoPcEngine, usize) {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match crate::wal::FileWal::open(path) {
            Ok((wal, records)) => {
                let mut store = ObjectStore::with_wal(cfg.storage, Box::new(wal));
                store.replay(&records);
                let recovered = records.len();
                (TwoPcEngine::with_store(cfg, store), recovered)
            }
            Err(_) => (TwoPcEngine::new(cfg), 0),
        }
    }

    /// An engine over a pre-built store — the WAL recovery path: the
    /// caller replays its durable log into a store, then hands it here.
    /// The derived floors (failover sequence, per-client settled
    /// sequences) are rebuilt from the recovered committed objects, so
    /// a restarted node neither re-mints a timestamp below a commit it
    /// already holds nor reruns an attempt that already settled.
    pub fn with_store(cfg: EngineCfg, store: ObjectStore) -> TwoPcEngine {
        let mut e = TwoPcEngine {
            store,
            cfg,
            coords: BTreeMap::new(),
            waiting: BTreeMap::new(),
            primary_seq: 0,
            client_floors: BTreeMap::new(),
            counters: Counters::default(),
            last_internal_error: None,
            tel: Telemetry::default(),
            started: BTreeMap::new(),
            opened: 0,
            timer_armed: false,
            clock: Time::ZERO,
        };
        e.rebuild_floors();
        e
    }

    /// Recompute the derived floors from the committed objects.
    fn rebuild_floors(&mut self) {
        self.primary_seq = self.primary_seq.max(self.store.max_primary_seq());
        self.client_floors.clear();
        let floors: Vec<(Ipv4, u64)> = self
            .store
            .iter()
            .map(|(_, c)| (c.ts.client, c.ts.client_seq))
            .collect();
        for (client, seq) in floors {
            let floor = self.client_floors.entry(client).or_insert(0);
            *floor = (*floor).max(seq);
        }
    }

    /// Force the WAL before an acknowledgement leaves the node; a
    /// failed sync is an internal error (the ack still goes out — the
    /// protocol must progress — but the node records that it is no
    /// longer crash-safe). Records the modeled device sync cost into
    /// the `wal.sync` histogram.
    fn wal_barrier(&mut self, key: &str) {
        let cost = self.store.sync_cost();
        self.tel.record("wal.sync", cost);
        if !self.store.wal_sync() {
            self.tel.add("wal.sync_failed", 1);
            self.note_internal(KvError::WalFailed {
                key: key.to_owned(),
            });
        }
    }

    /// Advance the engine's view of the host clock (monotone).
    fn touch(&mut self, now: Time) {
        self.clock = self.clock.max(now);
    }

    /// The local object store (read-only inspection; mutation goes
    /// through the protocol methods).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable store access for tests and offline tooling. Adapter
    /// crates must not mutate the store directly (`layering` lint).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Mutable counter access for the routing-dependent counters the
    /// adapter owns (`gets_served`, `forwarded`, …).
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// The metrics snapshot: the live registry plus the protocol
    /// tallies (`engine.*`) and store/WAL facts (appends, syncs, object
    /// writes, bytes) folded in as counters, so every name is always
    /// present and per-node snapshots merge into cluster totals by plain
    /// addition.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.tel.reg.clone();
        let c = &self.counters;
        for (name, n) in [
            ("engine.gets_served", c.gets_served),
            ("engine.forwarded", c.forwarded),
            ("engine.puts_committed", c.puts_committed),
            ("engine.puts_aborted", c.puts_aborted),
            ("engine.puts_coordinated", c.puts_coordinated),
            ("engine.replica_writes", c.replica_writes),
            ("engine.failure_reports", c.failure_reports),
            ("engine.internal_errors", c.internal_errors),
            ("wal.appends", self.store.wal().appends()),
            ("wal.syncs", self.store.wal().syncs()),
            ("store.writes", self.store.writes()),
            ("store.bytes_written", self.store.bytes_written()),
        ] {
            m.add(name, n);
        }
        m
    }

    /// Most recent internal invariant violation, if any (a correct run
    /// keeps this `None`).
    pub fn last_internal_error(&self) -> Option<&KvError> {
        self.last_internal_error.as_ref()
    }

    /// Put rounds this node is currently coordinating whose key matches
    /// `filter`. A recovery drain must be ordered *after* these rounds:
    /// their replica group was fixed before the drain's requester joined
    /// the view, so a snapshot taken mid-round could miss their commit.
    pub fn in_flight(&self, filter: &dyn Fn(&str) -> bool) -> Vec<(String, OpId)> {
        self.coords
            .keys()
            .filter(|(k, _)| filter(k))
            .cloned()
            .collect()
    }

    /// The commit timestamp of a still-open round, if it reached the
    /// commit decision. A retried put whose round is stuck in phase 2
    /// re-distributes this timestamp instead of minting a new one.
    pub fn round_commit_ts(&self, key: &str, op: OpId) -> Option<Timestamp> {
        self.coords.get(&(key.to_owned(), op)).and_then(|c| c.ts)
    }

    /// Has this attempt already been settled here — a commit with the
    /// same client and an equal-or-higher sequence applied locally? True
    /// means the put either committed (the reply was lost) or the client
    /// has long moved past it; a closed-loop client never has two
    /// attempts in flight, so answering `ok` to a settled retry is always
    /// correct and starting a fresh round for it never is.
    pub fn op_settled(&self, op: OpId) -> bool {
        self.client_floors
            .get(&op.client)
            .is_some_and(|&floor| floor >= op.client_seq)
    }

    /// Record an applied commit timestamp: advances the failover sequence
    /// floor and the per-client settled floor.
    fn note_commit_ts(&mut self, ts: Timestamp) {
        self.primary_seq = self.primary_seq.max(ts.primary_seq);
        let floor = self.client_floors.entry(ts.client).or_insert(0);
        *floor = (*floor).max(ts.client_seq);
    }

    /// Break the lock on `key` if its holder is provably stale relative
    /// to the incoming attempt `op`: an older attempt by the *same*
    /// client (closed-loop clients abandon an attempt before starting the
    /// next), or — when the engine runs with a `stale_lock_ttl` — any
    /// attempt whose lock went unrefreshed past the TTL. Aborting is safe
    /// in both cases: a held lock means the round never committed here,
    /// and a committed attempt's leftover lock releases without touching
    /// the committed value.
    fn break_stale_lock(&mut self, key: &str, op: OpId, now: Time) {
        let Some(p) = self.store.pending(key) else {
            return;
        };
        if p.op == op {
            return;
        }
        let same_client_older = p.op.client == op.client && p.op.client_seq < op.client_seq;
        let expired = self
            .cfg
            .stale_lock_ttl
            .is_some_and(|ttl| now >= p.locked_at + ttl);
        if same_client_older || expired {
            let old = p.op;
            self.store.abort(key, old, Time::MAX);
            self.coords.remove(&(key.to_owned(), old));
            self.started.remove(&(key.to_owned(), old));
            self.counters.puts_aborted += 1;
            self.tel.add("engine.stale_locks_broken", 1);
        }
    }

    /// Record an internal invariant violation instead of panicking: the
    /// affected operation is dropped (its client times out and retries)
    /// and the node keeps serving.
    pub fn note_internal(&mut self, err: KvError) {
        self.counters.internal_errors += 1;
        self.last_internal_error = Some(err);
    }

    /// Dispatch on the coordinator kind after new information arrived.
    fn advance(&mut self, key: &str, op: OpId, g: &Group, fx: &mut Vec<Effect>) {
        let kind = match self.coords.get(&(key.to_owned(), op)) {
            Some(c) => c.kind,
            None => return,
        };
        match kind {
            CoordKind::TwoPc => {
                self.check_commit(key, op, g, fx);
                self.check_done(key, op, g, fx);
            }
            CoordKind::Direct { quorum } => self.direct_advance(key, op, quorum, g, fx),
        }
    }

    /// All replicas hold the data and so does the coordinator: generate
    /// the timestamp quadruplet and distribute it.
    fn check_commit(&mut self, key: &str, op: OpId, g: &Group, fx: &mut Vec<Effect>) {
        let k = (key.to_owned(), op);
        let Some(c) = self.coords.get(&k) else {
            return;
        };
        if c.committed || !c.self_written {
            return;
        }
        if !g.peers.iter().all(|n| c.acks1.contains(n)) {
            return;
        }
        let ts = self.next_ts(op, g.self_addr);
        match self.coords.get_mut(&k) {
            Some(c) => {
                c.committed = true;
                c.ts = Some(ts);
            }
            None => return self.note_internal(KvError::CoordinatorMissing { key: k.0, op }),
        }
        // The coordinator applies its own commit at decision time
        // (Figure 3: the primary commits, *then* distributes the
        // timestamp message; re-delivery through the multicast loopback
        // is idempotent). Relying on the loopback alone would let a
        // lost self-delivery ack a put — the peers commit and ack2 —
        // that the primary itself never applied, after which the
        // primary serves stale gets for the key.
        if self.store.commit(key, op, ts) {
            self.counters.puts_committed += 1;
        }
        self.note_commit_ts(ts);
        self.wal_barrier(key);
        let at = self.clock;
        if let Some(t0) = self.started.remove(&k) {
            self.tel
                .record("engine.lock_to_commit", at.saturating_sub(t0));
        }
        fx.push(Effect::Commit {
            key: key.to_owned(),
            op,
            ts,
        });
    }

    /// Every replica committed: retire the round and answer the client.
    fn check_done(&mut self, key: &str, op: OpId, g: &Group, fx: &mut Vec<Effect>) {
        let k = (key.to_owned(), op);
        let Some(c) = self.coords.get(&k) else {
            return;
        };
        if !c.committed {
            return;
        }
        if !g.peers.iter().all(|n| c.acks2.contains(n)) {
            return;
        }
        let (client, replied) = (c.client, c.replied);
        self.coords.remove(&k);
        self.started.remove(&k);
        if !replied {
            fx.push(Effect::Reply {
                client,
                op,
                ok: true,
            });
        }
        if self.cfg.inline_commit {
            self.drain(key, fx);
        }
    }

    /// Direct path: reply at quorum, retire once every peer acked.
    fn direct_advance(
        &mut self,
        key: &str,
        op: OpId,
        quorum: usize,
        g: &Group,
        fx: &mut Vec<Effect>,
    ) {
        let k = (key.to_owned(), op);
        let Some(c) = self.coords.get_mut(&k) else {
            return;
        };
        if !c.self_written {
            return;
        }
        // The local copy counts toward the quorum.
        let have = c.acks1.len() + 1;
        if have >= quorum && !c.replied {
            c.replied = true;
            let client = c.client;
            // The client-visible ack of the direct path: the local copy
            // it counts on must be on stable storage first.
            self.wal_barrier(key);
            let at = self.clock;
            if let Some(&t0) = self.started.get(&k) {
                self.tel
                    .record("engine.lock_to_commit", at.saturating_sub(t0));
            }
            fx.push(Effect::Reply {
                client,
                op,
                ok: true,
            });
        }
        if let Some(c) = self.coords.get(&k) {
            if c.acks1.len() >= g.peers.len() {
                self.coords.remove(&k);
                self.started.remove(&k);
            }
        }
    }

    /// Give the next queued writer its turn once the lock is free.
    fn drain(&mut self, key: &str, fx: &mut Vec<Effect>) {
        if self.store.locked(key) {
            return;
        }
        if let Some(mut q) = self.waiting.remove(key) {
            if !q.is_empty() {
                let (op, value) = q.remove(0);
                if !q.is_empty() {
                    self.waiting.insert(key.to_owned(), q);
                }
                fx.push(Effect::Redrive {
                    key: key.to_owned(),
                    op,
                    value,
                });
            }
        }
    }

    /// The coordinator record of `(key, op)`. A deadline-running engine
    /// (NICE) opens it on the first primary-side event, due `2 × op_timeout`
    /// later, and arms its timer unless armed; NOOB coordinates explicitly.
    fn open_round(
        &mut self,
        key: &str,
        op: OpId,
        now: Time,
        fx: &mut Vec<Effect>,
    ) -> Option<&mut Coord> {
        let k = (key.to_owned(), op);
        if !self.coords.contains_key(&k) {
            let at = now + self.cfg.op_timeout? * 2;
            self.opened += 1;
            let c = Coord::new(op.client, CoordKind::TwoPc, Some((at, self.opened)));
            self.coords.insert(k.clone(), c);
            if !std::mem::replace(&mut self.timer_armed, true) {
                fx.push(Effect::Deadline { at });
            }
        }
        self.coords.get_mut(&k)
    }

    /// Coordinator/replica 2PC phase 1: lock `key` for `op`, append the
    /// forced log entry (+L), and start the object write (W). Returns
    /// false when another attempt holds the lock — the op is queued and
    /// will come back as an [`Effect::Redrive`] once the lock clears.
    pub fn prepare(
        &mut self,
        key: &str,
        value: Value,
        op: OpId,
        now: Time,
        fx: &mut Vec<Effect>,
    ) -> bool {
        self.touch(now);
        self.break_stale_lock(key, op, now);
        if !self.store.lock(key, op, value.clone(), now) {
            // Locked by another op: queue behind it.
            let q = self.waiting.entry(key.to_owned()).or_default();
            if !q.iter().any(|(o, _)| *o == op) {
                q.push((op, value));
            }
            self.tel.add("engine.queued", 1);
            return false;
        }
        let size = self.store.pending(key).map_or(0, |p| p.value.size());
        let done = self.stage_write(now, size);
        self.started.entry((key.to_owned(), op)).or_insert(now);
        fx.push(Effect::WriteDone {
            at: done,
            key: key.to_owned(),
            op,
        });
        true
    }

    /// Replica-side 2PC data receive that never queues: lock if free
    /// (ignored otherwise — the commit round resolves conflicts), then
    /// log and write. Always emits [`Effect::WriteDone`].
    pub fn accept(&mut self, key: &str, value: Value, op: OpId, now: Time, fx: &mut Vec<Effect>) {
        // Lock if free; a *live* conflict is left for the commit round to
        // resolve (the coordinator's timestamp decides), but a provably
        // stale holder is broken first so an abandoned attempt cannot
        // wedge the replica.
        self.touch(now);
        self.break_stale_lock(key, op, now);
        self.store.lock(key, op, value.clone(), now);
        let done = self.stage_write(now, value.size());
        self.started.entry((key.to_owned(), op)).or_insert(now);
        fx.push(Effect::WriteDone {
            at: done,
            key: key.to_owned(),
            op,
        });
    }

    /// Open a coordinator record for `(key, op)` (idempotent). `quorum`
    /// `None` runs two-phase commit; `Some(q)` runs the direct path,
    /// replying once `q` copies (including the local one) exist.
    pub fn coordinate(&mut self, key: &str, op: OpId, client: Ipv4, quorum: Option<usize>) {
        let k = (key.to_owned(), op);
        if self.coords.contains_key(&k) {
            return;
        }
        let kind = match quorum {
            Some(q) => CoordKind::Direct { quorum: q },
            None => CoordKind::TwoPc,
        };
        self.coords.insert(k, Coord::new(client, kind, None));
    }

    /// The local object write for `(key, op)` finished. A primary
    /// advances its coordination round (opening it with a deadline when
    /// the engine runs with `op_timeout`); a peer acks; an observer only
    /// records the write.
    pub fn on_written(
        &mut self,
        key: &str,
        op: OpId,
        role: EngineRole<'_>,
        now: Time,
        fx: &mut Vec<Effect>,
    ) {
        self.touch(now);
        if let Some(&t0) = self.started.get(&(key.to_owned(), op)) {
            self.tel
                .record("engine.lock_to_write", now.saturating_sub(t0));
        }
        let durable = self.cfg.durable_pending;
        match self.store.pending_mut(key) {
            Some(p) if p.op == op => {
                if durable {
                    p.written = true;
                }
            }
            // The attempt no longer holds the lock. Direct-path
            // coordinators never lock, and a settled attempt (its commit
            // already applied here) must still advance/ack so a stuck
            // round of a retried put can complete; anything else was
            // superseded or aborted meanwhile and is dropped.
            Some(_) | None => {
                let direct = matches!(
                    self.coords.get(&(key.to_owned(), op)).map(|c| c.kind),
                    Some(CoordKind::Direct { .. })
                );
                if !direct && !self.op_settled(op) {
                    return;
                }
            }
        }
        match role {
            EngineRole::Primary(g) => {
                let Some(c) = self.open_round(key, op, now, fx) else {
                    return;
                };
                c.self_written = true;
                self.advance(key, op, g, fx);
            }
            EngineRole::Peer => {
                // The ack vouches for the +L lock record: force it down
                // before telling the coordinator this replica holds it.
                self.wal_barrier(key);
                fx.push(Effect::Ack1 {
                    key: key.to_owned(),
                    op,
                });
            }
            EngineRole::Observer => {}
        }
    }

    /// A phase-1 ack from `from` arrived at the coordinator.
    pub fn on_ack1(
        &mut self,
        key: &str,
        op: OpId,
        from: NodeIdx,
        g: &Group,
        now: Time,
        fx: &mut Vec<Effect>,
    ) {
        self.touch(now);
        if let Some(&t0) = self.started.get(&(key.to_owned(), op)) {
            self.tel
                .record("engine.lock_to_ack1", now.saturating_sub(t0));
        }
        // An ack can outrun the primary's own write completion.
        let Some(c) = self.open_round(key, op, now, fx) else {
            return;
        };
        c.acks1.insert(from);
        self.advance(key, op, g, fx);
    }

    /// A phase-2 ack from `from` arrived at the coordinator. `g` may be
    /// `None` when the membership view vanished meanwhile: the ack is
    /// still recorded but the round cannot advance.
    pub fn on_ack2(
        &mut self,
        key: &str,
        op: OpId,
        from: NodeIdx,
        g: Option<&Group>,
        fx: &mut Vec<Effect>,
    ) {
        if let Some(c) = self.coords.get_mut(&(key.to_owned(), op)) {
            c.acks2.insert(from);
        }
        if let Some(g) = g {
            self.advance(key, op, g, fx);
        }
    }

    /// A commit timestamp arrived (including the coordinator's own copy
    /// looping back under NICE's switch multicast). Applies the commit,
    /// advances the failover sequence floor, and — on any role — gives a
    /// queued writer its turn. Returns whether the commit applied.
    pub fn on_commit(
        &mut self,
        key: &str,
        op: OpId,
        ts: Timestamp,
        role: EngineRole<'_>,
        now: Time,
        fx: &mut Vec<Effect>,
    ) -> bool {
        self.touch(now);
        let applied = self.store.commit(key, op, ts);
        if applied {
            self.counters.puts_committed += 1;
        }
        // Track the failover sequence floor and the per-client settled
        // floor: the timestamp is a globally decided commit.
        self.note_commit_ts(ts);
        if let Some(t0) = self.started.remove(&(key.to_owned(), op)) {
            self.tel
                .record("engine.lock_to_commit", now.saturating_sub(t0));
        }
        match role {
            EngineRole::Primary(g) => self.check_done(key, op, g, fx),
            EngineRole::Peer => {
                // The ack vouches for the commit record: force it down
                // before the coordinator counts this replica committed.
                self.wal_barrier(key);
                fx.push(Effect::Ack2 {
                    key: key.to_owned(),
                    op,
                });
            }
            EngineRole::Observer => {}
        }
        self.drain(key, fx);
        applied
    }

    /// An abort arrived: release the lock if `op` holds it — and the
    /// lock is not newer than the abort's decision time `issued` (a
    /// retry re-locks under the same `OpId`; an abort from the abandoned
    /// earlier round must not release the live round's lock) — then give
    /// a queued writer its turn. Returns whether state changed.
    pub fn on_abort(&mut self, key: &str, op: OpId, issued: Time, fx: &mut Vec<Effect>) -> bool {
        let applied = self.store.abort(key, op, issued);
        if applied {
            self.counters.puts_aborted += 1;
            self.started.remove(&(key.to_owned(), op));
        }
        self.drain(key, fx);
        applied
    }

    /// The engine's timer fired: give up every round due by `now`, in
    /// the order the rounds opened, then re-arm for the earliest round
    /// still open (no timer while none is). `group_of` names a key's
    /// replica group, `None` when the membership view vanished meanwhile.
    pub fn on_deadline(
        &mut self,
        now: Time,
        group_of: &dyn Fn(&str) -> Option<Group>,
        fx: &mut Vec<Effect>,
    ) {
        let due: BTreeMap<_, _> = self
            .coords
            .iter()
            .filter_map(|(k, c)| Some((c.due.filter(|d| d.0 <= now)?, k.clone())))
            .collect();
        for (key, op) in due.into_values() {
            self.give_up(&key, op, group_of(&key).as_ref(), now, fx);
        }
        let next = self.coords.values().filter_map(|c| c.due).min();
        self.timer_armed = next.is_some();
        if let Some((at, _)) = next {
            fx.push(Effect::Deadline { at });
        }
    }

    /// Give up on the open round `(key, op)`: report the members whose ack
    /// is missing and, with no commit decided, abort the round and fail the
    /// client (§4.4 "Failures during Put Operation"). `g` may be `None`
    /// when the membership view vanished meanwhile.
    pub fn give_up(
        &mut self,
        key: &str,
        op: OpId,
        g: Option<&Group>,
        now: Time,
        fx: &mut Vec<Effect>,
    ) {
        self.touch(now);
        let Some(c) = self.coords.remove(&(key.to_owned(), op)) else {
            return; // completed
        };
        self.tel.add("engine.deadlines", 1);
        let Some(g) = g else {
            return;
        };
        let acks = if c.committed { &c.acks2 } else { &c.acks1 };
        let missing: Vec<NodeIdx> = g
            .peers
            .iter()
            .copied()
            .filter(|n| !acks.contains(n))
            .collect();
        if !missing.is_empty() {
            fx.push(Effect::Unresponsive { members: missing });
        }
        if !c.committed {
            self.store.abort(key, op, Time::MAX);
            self.counters.puts_aborted += 1;
            self.started.remove(&(key.to_owned(), op));
            self.tel.add("engine.deadline_aborts", 1);
            fx.push(Effect::Abort {
                key: key.to_owned(),
                op,
                issued: now,
            });
            fx.push(Effect::Reply {
                client: c.client,
                op,
                ok: false,
            });
            self.drain(key, fx);
        }
    }

    /// Generate the next commit timestamp from this node's sequence.
    pub fn next_ts(&mut self, op: OpId, self_addr: Ipv4) -> Timestamp {
        self.primary_seq += 1;
        Timestamp {
            primary_seq: self.primary_seq,
            primary: self_addr,
            client_seq: op.client_seq,
            client: op.client,
        }
    }

    /// Store a replica copy directly (no lock round): one forced device
    /// write plus an ordered commit. Returns the write completion time.
    pub fn apply_copy(&mut self, key: &str, value: Value, ts: Timestamp, now: Time) -> Time {
        self.touch(now);
        let done = self.store.write_delay(now, value.size(), true);
        self.store.commit_direct(key, value, ts);
        self.note_commit_ts(ts);
        self.counters.puts_committed += 1;
        // A directly applied copy is acked (or served) the moment this
        // returns: force it down now.
        self.wal_barrier(key);
        done
    }

    /// Pay the device cost of a logged object write (+L forced, then W)
    /// without touching the object map; returns the completion time.
    /// `prepare` and `accept` pay it for their locked write; chain heads
    /// stage the write before passing the baton.
    pub fn stage_write(&mut self, now: Time, size: u32) -> Time {
        self.touch(now);
        self.store.write_delay(now, 100, true);
        self.store.write_delay(now, size, false)
    }

    /// Apply one object version without device cost or counting
    /// (ordered; stale versions are ignored).
    pub fn sync_object(&mut self, key: &str, value: Value, ts: Timestamp) {
        self.store.commit_direct(key, value, ts);
        // A synced commit raises the sequence floors exactly like a live
        // one: a node that later becomes primary must never mint a
        // timestamp below a commit it already holds, or the acked value
        // silently loses to its own history.
        self.note_commit_ts(ts);
    }

    /// Bulk-apply recovered objects (handoff drain): one forced device
    /// write for the batch, then ordered commits.
    pub fn ingest(&mut self, now: Time, objects: Vec<(String, Value, Timestamp)>) {
        self.touch(now);
        // Peer-supplied: saturate rather than overflow.
        let total = objects
            .iter()
            .fold(0u32, |sum, (_, v, _)| sum.saturating_add(v.size()));
        self.store.write_delay(now, total, true);
        for (k, v, ts) in objects {
            // A synced commit also settles a lock this node still holds
            // for the same attempt: the commit message was lost while the
            // node was out of the replica group, and an orphaned lock
            // would otherwise trip the stale-lock sweep forever.
            self.store.release_if_committed(&k, ts);
            self.store.commit_direct(&k, v, ts);
            self.note_commit_ts(ts);
        }
        // One barrier for the whole drained batch.
        self.wal_barrier("<ingest>");
    }

    /// Drop a committed object (handoff cleanup after the owner drained
    /// it).
    pub fn forget(&mut self, key: &str) {
        self.store.remove(key);
    }

    /// The §4.4 lock report for keys matching `filter`: every pending
    /// lock with the commit timestamp *of that attempt* if this node
    /// already applied it, plus this node's sequence floor.
    pub fn lock_report(
        &self,
        filter: &dyn Fn(&str) -> bool,
    ) -> (Vec<(String, OpId, Option<Timestamp>)>, u64) {
        let locked: Vec<(String, OpId, Option<Timestamp>)> = self
            .store
            .pending_iter()
            .filter(|(k, _)| filter(k))
            .map(|(k, p)| {
                // "committed" must mean THIS attempt committed somewhere,
                // not that some earlier version of the key exists.
                let cts = self
                    .store
                    .get(k)
                    .filter(|c| c.ts.client == p.op.client && c.ts.client_seq == p.op.client_seq)
                    .map(|c| c.ts);
                (k.clone(), p.op, cts)
            })
            .collect();
        (locked, self.primary_seq.max(self.store.max_primary_seq()))
    }

    /// Raise the local sequence floor (new primary finishing lock
    /// resolution).
    pub fn observe_seq(&mut self, seq: u64) {
        self.primary_seq = self.primary_seq.max(seq);
    }

    /// Is a coordinator record open for `(key, op)` — the round still
    /// live? (duplicate-request detection)
    pub fn coordinating(&self, key: &str, op: OpId) -> bool {
        self.coords.contains_key(&(key.to_owned(), op))
    }

    /// Crash: volatile protocol state (locks whose write never
    /// completed, coordinator records, queued writers) dies; committed
    /// objects, the persistent log, and the sequence floor survive.
    pub fn reset(&mut self) {
        self.store.on_crash();
        self.coords.clear();
        self.timer_armed = false; // the host forgets its timers too
        self.waiting.clear();
        // Rounds die with the process; their phase timers mean nothing
        // after a restart. The telemetry itself survives like the
        // counters do — a recovered node keeps its history.
        self.started.clear();
        // The settled floors are derived state: rebuild them from the
        // committed objects that survived the crash. Keeping stale
        // in-memory floors would let a restarted node answer `ok` for an
        // attempt whose commit never reached disk anywhere.
        self.rebuild_floors();
    }
}

/// Lock-resolution state on a freshly promoted primary (§4.4): "if the
/// object is committed on any secondary node … The primary will commit
/// and unlock the object. If an object is locked on all secondary nodes,
/// then the new primary will abort."
#[derive(Debug)]
pub struct LockResolution {
    waiting: BTreeSet<NodeIdx>,
    /// key -> (op, committed_ts anywhere?, lock count)
    locked: BTreeMap<String, (OpId, Option<Timestamp>, usize)>,
    max_seq: u64,
}

impl LockResolution {
    /// Start a resolution waiting on reports from `waiting`, seeded with
    /// the new primary's own [`TwoPcEngine::lock_report`].
    pub fn new(
        waiting: BTreeSet<NodeIdx>,
        seed: Vec<(String, OpId, Option<Timestamp>)>,
        max_seq: u64,
    ) -> LockResolution {
        let mut locked = BTreeMap::new();
        for (k, op, cts) in seed {
            locked.insert(k, (op, cts, 1));
        }
        LockResolution {
            waiting,
            locked,
            max_seq,
        }
    }

    /// Merge one member's lock report. Returns true once every awaited
    /// member reported.
    pub fn absorb(
        &mut self,
        from: NodeIdx,
        locked: Vec<(String, OpId, Option<Timestamp>)>,
        max_seq: u64,
    ) -> bool {
        self.max_seq = self.max_seq.max(max_seq);
        for (k, op, cts) in locked {
            let e = self.locked.entry(k).or_insert((op, None, 0));
            e.2 += 1;
            if let Some(t) = cts {
                e.1 = Some(e.1.map_or(t, |x: Timestamp| x.max(t)));
            }
        }
        self.waiting.remove(&from);
        self.complete()
    }

    /// Has every awaited member reported?
    pub fn complete(&self) -> bool {
        self.waiting.is_empty()
    }

    /// The verdicts: the sequence floor for the new primary, and per key
    /// the attempt plus `Some(ts)` (commit everywhere with `ts`) or
    /// `None` (locked everywhere, committed nowhere: abort).
    pub fn settle(self) -> (u64, Vec<(String, OpId, Option<Timestamp>)>) {
        let verdicts = self
            .locked
            .into_iter()
            .map(|(k, (op, cts, _count))| (k, op, cts))
            .collect();
        (self.max_seq, verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: Ipv4 = Ipv4::new(10, 0, 1, 1);
    const OTHER_CLIENT: Ipv4 = Ipv4::new(10, 0, 1, 2);
    const PRIMARY: Ipv4 = Ipv4::new(10, 0, 0, 1);

    fn op(seq: u64) -> OpId {
        OpId {
            client: CLIENT,
            client_seq: seq,
        }
    }

    fn nice_cfg() -> EngineCfg {
        EngineCfg {
            storage: StorageCfg::default(),
            op_timeout: Some(Time::from_ms(500)),
            inline_commit: false,
            durable_pending: true,
            stale_lock_ttl: None,
        }
    }

    fn noob_cfg() -> EngineCfg {
        EngineCfg {
            storage: StorageCfg::default(),
            op_timeout: None,
            inline_commit: true,
            durable_pending: false,
            stale_lock_ttl: Some(Time::from_secs(3)),
        }
    }

    fn group(peers: &[u32]) -> Group {
        Group {
            peers: peers.iter().map(|&n| NodeIdx(n)).collect(),
            self_addr: PRIMARY,
        }
    }

    /// Run one 2PC round of `o` on `key` to completion at `now`, as the
    /// primary of `g`.
    fn complete_round(
        e: &mut TwoPcEngine,
        key: &str,
        o: OpId,
        g: &Group,
        now: Time,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        assert!(e.prepare(key, Value::from_bytes(vec![1]), o, now, &mut fx));
        e.on_written(key, o, EngineRole::Primary(g), now, &mut fx);
        for &n in &g.peers {
            e.on_ack1(key, o, n, g, now, &mut fx);
        }
        for &n in &g.peers {
            e.on_ack2(key, o, n, Some(g), &mut fx);
        }
        assert!(!e.coordinating(key, o), "the round closed");
        fx
    }

    /// Open a round of `o` on `key` at `now` that no peer ever acks.
    fn wedge_round(e: &mut TwoPcEngine, key: &str, o: OpId, g: &Group, now: Time) -> Vec<Effect> {
        let mut fx = Vec::new();
        assert!(e.prepare(key, Value::from_bytes(vec![1]), o, now, &mut fx));
        e.on_written(key, o, EngineRole::Primary(g), now, &mut fx);
        fx
    }

    fn deadlines(fx: &[Effect]) -> Vec<Time> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Deadline { at } => Some(*at),
                _ => None,
            })
            .collect()
    }

    fn commit_effect(fx: &[Effect]) -> Option<Timestamp> {
        fx.iter().find_map(|e| match e {
            Effect::Commit { ts, .. } => Some(*ts),
            _ => None,
        })
    }

    #[test]
    fn nice_style_round_commits_at_decision_even_if_loopback_is_lost() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        let mut fx = Vec::new();
        assert!(e.prepare("k", Value::from_bytes(vec![7]), op(1), Time::ZERO, &mut fx));
        assert!(matches!(fx[0], Effect::WriteDone { .. }));
        fx.clear();
        e.on_written("k", op(1), EngineRole::Primary(&g), Time::ZERO, &mut fx);
        assert!(
            matches!(fx[0], Effect::Deadline { .. }),
            "first primary event arms the deadline"
        );
        fx.clear();
        e.on_ack1("k", op(1), NodeIdx(1), &g, Time::ZERO, &mut fx);
        assert!(commit_effect(&fx).is_none(), "one ack short");
        e.on_ack1("k", op(1), NodeIdx(2), &g, Time::ZERO, &mut fx);
        let ts = commit_effect(&fx).expect("commit after all acks");
        assert_eq!(ts.primary, PRIMARY);
        // The primary's own copy is applied the moment the timestamp is
        // generated: a lost multicast loopback must never leave the
        // acked value missing from the primary's store.
        assert_eq!(*e.store().get("k").unwrap().value.bytes, vec![7]);
        assert_eq!(e.counters.puts_committed, 1);
        fx.clear();
        // The loopback re-delivery is a no-op (already applied).
        assert!(!e.on_commit("k", op(1), ts, EngineRole::Primary(&g), Time::ZERO, &mut fx));
        assert_eq!(e.counters.puts_committed, 1);
        fx.clear();
        e.on_ack2("k", op(1), NodeIdx(1), Some(&g), &mut fx);
        assert!(fx.is_empty());
        e.on_ack2("k", op(1), NodeIdx(2), Some(&g), &mut fx);
        assert!(
            matches!(fx[0], Effect::Reply { ok: true, .. }),
            "reply once every peer committed"
        );
        assert!(!e.coordinating("k", op(1)));
    }

    #[test]
    fn inline_engine_commits_at_timestamp_generation() {
        let mut e = TwoPcEngine::new(noob_cfg());
        let g = group(&[1]);
        let mut fx = Vec::new();
        assert!(e.prepare("k", Value::from_bytes(vec![9]), op(1), Time::ZERO, &mut fx));
        e.coordinate("k", op(1), CLIENT, None);
        fx.clear();
        e.on_written("k", op(1), EngineRole::Primary(&g), Time::ZERO, &mut fx);
        assert!(fx.is_empty(), "no deadline without op_timeout");
        e.on_ack1("k", op(1), NodeIdx(1), &g, Time::ZERO, &mut fx);
        assert!(commit_effect(&fx).is_some());
        assert_eq!(
            *e.store().get("k").unwrap().value.bytes,
            vec![9],
            "inline commit applied before the timestamp fan-out"
        );
        fx.clear();
        e.on_ack2("k", op(1), NodeIdx(1), Some(&g), &mut fx);
        assert!(matches!(fx[0], Effect::Reply { ok: true, .. }));
    }

    #[test]
    fn direct_path_replies_at_quorum_and_retires_when_full() {
        let mut e = TwoPcEngine::new(noob_cfg());
        let g = group(&[1, 2]);
        e.coordinate("k", op(1), CLIENT, Some(2));
        let ts = e.next_ts(op(1), PRIMARY);
        e.apply_copy("k", Value::from_bytes(vec![1]), ts, Time::ZERO);
        let mut fx = Vec::new();
        e.on_written("k", op(1), EngineRole::Primary(&g), Time::ZERO, &mut fx);
        assert!(fx.is_empty(), "self copy alone is below quorum 2");
        e.on_ack1("k", op(1), NodeIdx(1), &g, Time::ZERO, &mut fx);
        assert!(matches!(fx[0], Effect::Reply { ok: true, .. }));
        assert!(e.coordinating("k", op(1)), "still waiting for the tail ack");
        fx.clear();
        e.on_ack1("k", op(1), NodeIdx(2), &g, Time::ZERO, &mut fx);
        assert!(fx.is_empty(), "no second reply");
        assert!(!e.coordinating("k", op(1)));
    }

    #[test]
    fn rounds_closed_in_time_arm_one_timer() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        let mut fx = Vec::new();
        for i in 0..10 {
            let now = Time::from_ms(40 * i);
            fx.extend(complete_round(&mut e, &format!("k{i}"), op(i + 1), &g, now));
        }
        assert_eq!(
            deadlines(&fx),
            [Time::from_secs(1)],
            "one timer for ten rounds"
        );
        // It fires with nothing open: no give-up, and no timer after it.
        fx.clear();
        e.on_deadline(Time::from_secs(1), &|_| Some(g.clone()), &mut fx);
        assert!(fx.is_empty(), "{fx:?}");
        assert_eq!(e.counters.puts_aborted, 0);
    }

    #[test]
    fn wedged_round_gives_up_at_twice_op_timeout() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        let fx = complete_round(&mut e, "a", op(1), &g, Time::ZERO);
        assert_eq!(deadlines(&fx), [Time::from_secs(1)]);
        let fx = wedge_round(&mut e, "k", op(2), &g, Time::from_ms(300));
        assert!(deadlines(&fx).is_empty(), "the armed timer fires first");
        // The timer armed for the closed round finds the wedged one not
        // yet due and re-arms for its deadline.
        let mut fx = Vec::new();
        e.on_deadline(Time::from_secs(1), &|_| Some(g.clone()), &mut fx);
        assert_eq!(deadlines(&fx), [Time::from_ms(1300)]);
        assert_eq!(fx.len(), 1);
        assert!(e.coordinating("k", op(2)));
        fx.clear();
        e.on_deadline(Time::from_ms(1300), &|_| Some(g.clone()), &mut fx);
        assert!(matches!(&fx[0], Effect::Unresponsive { members } if members.len() == 2));
        assert!(
            matches!(&fx[1], Effect::Abort { key, op: o, issued } if key == "k" && *o == op(2) && *issued == Time::from_ms(1300))
        );
        assert!(matches!(fx[2], Effect::Reply { ok: false, .. }));
        assert_eq!(fx.len(), 3, "nothing left open: no timer re-armed");
        assert!(!e.store().locked("k"), "lock released");
        assert!(!e.coordinating("k", op(2)));
        assert_eq!(e.counters.puts_aborted, 1);
    }

    #[test]
    fn rounds_due_together_give_up_in_open_order() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        let rival = OpId {
            client: OTHER_CLIENT,
            client_seq: 1,
        };
        // "b" opens before "a": not the order the coordinator table keeps.
        wedge_round(&mut e, "b", op(1), &g, Time::ZERO);
        wedge_round(&mut e, "a", rival, &g, Time::ZERO);
        let mut fx = Vec::new();
        e.on_deadline(Time::from_secs(1), &|_| Some(g.clone()), &mut fx);
        let aborted: Vec<&str> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Abort { key, .. } => Some(key.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(aborted, ["b", "a"]);
    }

    #[test]
    fn reset_disarms_the_timer() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        let fx = wedge_round(&mut e, "k", op(1), &g, Time::ZERO);
        assert_eq!(deadlines(&fx), [Time::from_secs(1)]);
        // The crash takes the host's timer with it: the next round arms.
        e.reset();
        let fx = wedge_round(&mut e, "k", op(2), &g, Time::from_ms(100));
        assert_eq!(deadlines(&fx), [Time::from_ms(1100)]);
    }

    #[test]
    fn reopened_round_gives_up_at_its_own_deadline() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let g = group(&[1, 2]);
        complete_round(&mut e, "k", op(1), &g, Time::ZERO);
        // A late duplicate ack reopens the closed (key, op) at 400 ms.
        let mut fx = Vec::new();
        e.on_ack1("k", op(1), NodeIdx(1), &g, Time::from_ms(400), &mut fx);
        assert!(e.coordinating("k", op(1)));
        // The earlier round's deadline passes without touching it.
        for at in [Time::from_ms(500), Time::from_secs(1)] {
            fx.clear();
            e.on_deadline(at, &|_| Some(g.clone()), &mut fx);
            assert_eq!(deadlines(&fx), [Time::from_ms(1400)], "at {at}");
            assert!(e.coordinating("k", op(1)));
        }
        fx.clear();
        e.on_deadline(Time::from_ms(1400), &|_| Some(g.clone()), &mut fx);
        assert!(!e.coordinating("k", op(1)));
        assert!(matches!(&fx[0], Effect::Unresponsive { members } if members == &[NodeIdx(2)]));
    }

    #[test]
    fn commit_records_lock_to_commit_at_its_own_time() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        e.accept("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx);
        e.on_written("k", op(1), EngineRole::Peer, Time::from_ms(1), &mut fx);
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        assert!(e.on_commit("k", op(1), ts, EngineRole::Peer, Time::from_ms(5), &mut fx));
        let m = e.metrics();
        let h = m.hist("engine.lock_to_commit").expect("recorded");
        assert_eq!((h.count(), h.max()), (1, Time::from_ms(5)));
    }

    #[test]
    fn stale_abort_does_not_tear_down_a_retried_round() {
        // A coordinator gives up on a round (double deadline) and its
        // Abort multicast is delayed in the network — e.g. trapped by a
        // partition. The client retries the SAME op; the retry re-locks
        // everywhere and the new round reaches commit. The old abort
        // surfacing mid-round must not release the re-taken locks, or
        // the commit finds nothing to apply and the acked value is lost.
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        // Attempt 1 lands on a peer at t=100ms.
        e.accept(
            "k",
            Value::from_bytes(vec![1]),
            op(1),
            Time::from_ms(100),
            &mut fx,
        );
        // The coordinator decided to abort at t=300ms (message delayed).
        // Meanwhile the retry re-locks the same op at t=500ms.
        e.accept(
            "k",
            Value::from_bytes(vec![1]),
            op(1),
            Time::from_ms(500),
            &mut fx,
        );
        fx.clear();
        // The stale abort finally arrives: dropped.
        assert!(
            !e.on_abort("k", op(1), Time::from_ms(300), &mut fx),
            "abort older than the live lock is ignored"
        );
        assert!(e.store().locked("k"), "the retried round keeps its lock");
        // The retried round's commit applies normally.
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        assert!(e.on_commit("k", op(1), ts, EngineRole::Observer, Time::ZERO, &mut fx));
        assert_eq!(*e.store().get("k").unwrap().value.bytes, vec![1]);
        // A current abort (issued after the lock) still works.
        e.accept(
            "k",
            Value::from_bytes(vec![2]),
            op(2),
            Time::from_secs(2),
            &mut fx,
        );
        assert!(e.on_abort("k", op(2), Time::from_secs(3), &mut fx));
        assert!(!e.store().locked("k"));
    }

    #[test]
    fn conflicting_writer_queues_and_redrives() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        // Conflicting writers are different clients: a newer op from the
        // *same* client supersedes the old lock instead of queueing.
        assert!(e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx));
        let rival = OpId {
            client: OTHER_CLIENT,
            client_seq: 2,
        };
        assert!(!e.prepare("k", Value::from_bytes(vec![2]), rival, Time::ZERO, &mut fx));
        fx.clear();
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        e.on_commit("k", op(1), ts, EngineRole::Observer, Time::ZERO, &mut fx);
        let redrive = fx
            .iter()
            .any(|e| matches!(e, Effect::Redrive { op: o, .. } if o.client_seq == 2));
        assert!(redrive, "queued writer gets its turn after the commit");
    }

    #[test]
    fn newer_attempt_from_same_client_breaks_abandoned_lock() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        assert!(e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx));
        // The client gave up on op 1 and moved to op 2 (closed-loop
        // clients never have two attempts in flight): the orphan lock
        // must not block the client's own next put forever.
        assert!(
            e.prepare(
                "k",
                Value::from_bytes(vec![2]),
                op(2),
                Time::from_ms(1),
                &mut fx
            ),
            "newer attempt from the same client supersedes the orphan"
        );
        assert_eq!(e.store().pending("k").unwrap().op, op(2));
        assert_eq!(e.counters.puts_aborted, 1);
    }

    #[test]
    fn ttl_breaks_stale_cross_client_lock() {
        let mut e = TwoPcEngine::new(noob_cfg()); // 3 s stale-lock TTL
        let mut fx = Vec::new();
        assert!(e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx));
        let rival = OpId {
            client: OTHER_CLIENT,
            client_seq: 1,
        };
        assert!(
            !e.prepare(
                "k",
                Value::from_bytes(vec![2]),
                rival,
                Time::from_secs(2),
                &mut fx
            ),
            "within the TTL the holder may still be live"
        );
        assert!(
            e.prepare(
                "k",
                Value::from_bytes(vec![2]),
                rival,
                Time::from_secs(4),
                &mut fx
            ),
            "past the TTL the orphan is broken"
        );
        assert_eq!(e.store().pending("k").unwrap().op, rival);
    }

    #[test]
    fn retry_refreshes_lock_age() {
        let mut e = TwoPcEngine::new(noob_cfg());
        let mut fx = Vec::new();
        assert!(e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx));
        // The holder's client retried at 2 s: the lock is live again.
        assert!(e.prepare(
            "k",
            Value::from_bytes(vec![1]),
            op(1),
            Time::from_secs(2),
            &mut fx
        ));
        let rival = OpId {
            client: OTHER_CLIENT,
            client_seq: 1,
        };
        assert!(
            !e.prepare(
                "k",
                Value::from_bytes(vec![2]),
                rival,
                Time::from_secs(4),
                &mut fx
            ),
            "TTL counts from the last refresh, not the first lock"
        );
    }

    #[test]
    fn settled_floor_covers_committed_and_older_attempts() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        e.prepare("k", Value::from_bytes(vec![1]), op(3), Time::ZERO, &mut fx);
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 3,
            client: CLIENT,
        };
        e.on_commit("k", op(3), ts, EngineRole::Observer, Time::ZERO, &mut fx);
        assert!(e.op_settled(op(3)), "the committed attempt is settled");
        assert!(e.op_settled(op(2)), "older attempts from the client too");
        assert!(!e.op_settled(op(4)), "future attempts are not");
        let other = OpId {
            client: OTHER_CLIENT,
            client_seq: 1,
        };
        assert!(!e.op_settled(other), "floors are per client");
        // The floor is derived from durable state: a crash rebuilds it.
        e.reset();
        assert!(
            e.op_settled(op(3)),
            "floor survives via the committed object"
        );
    }

    #[test]
    fn settled_peer_still_acks_a_retried_round() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx);
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        e.on_commit("k", op(1), ts, EngineRole::Observer, Time::ZERO, &mut fx);
        fx.clear();
        // A retry of the already-committed attempt writes again (the
        // primary never saw our ack): the peer must still ack1 so the
        // round can complete, even though the pending state is gone.
        e.on_written("k", op(1), EngineRole::Peer, Time::ZERO, &mut fx);
        assert!(
            matches!(fx[0], Effect::Ack1 { .. }),
            "settled attempt acks instead of going silent"
        );
    }

    #[test]
    fn committed_round_exposes_its_timestamp() {
        let mut e = TwoPcEngine::new(noob_cfg());
        let g = group(&[1, 2]);
        let mut fx = Vec::new();
        e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx);
        e.coordinate("k", op(1), CLIENT, None);
        e.on_written("k", op(1), EngineRole::Primary(&g), Time::ZERO, &mut fx);
        assert!(e.round_commit_ts("k", op(1)).is_none(), "not yet decided");
        e.on_ack1("k", op(1), NodeIdx(1), &g, Time::ZERO, &mut fx);
        e.on_ack1("k", op(1), NodeIdx(2), &g, Time::ZERO, &mut fx);
        let ts = e.round_commit_ts("k", op(1)).expect("decided");
        assert_eq!(ts, commit_effect(&fx).unwrap());
        // Phase 2 completes: the record retires and the getter goes dark.
        e.on_ack2("k", op(1), NodeIdx(1), Some(&g), &mut fx);
        e.on_ack2("k", op(1), NodeIdx(2), Some(&g), &mut fx);
        assert!(e.round_commit_ts("k", op(1)).is_none());
    }

    #[test]
    fn lock_report_matches_attempt_not_key_history() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        // op 1 commits, then op 2 locks the same key.
        e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx);
        let ts = Timestamp {
            primary_seq: 1,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        e.on_commit("k", op(1), ts, EngineRole::Observer, Time::ZERO, &mut fx);
        e.prepare("k", Value::from_bytes(vec![2]), op(2), Time::ZERO, &mut fx);
        let (locked, max_seq) = e.lock_report(&|_| true);
        assert_eq!(locked.len(), 1);
        assert_eq!(locked[0].1, op(2));
        assert!(
            locked[0].2.is_none(),
            "op 1's commit must not vouch for op 2's lock"
        );
        assert_eq!(max_seq, 1);
    }

    #[test]
    fn resolution_commits_anywhere_aborts_everywhere() {
        let seed = vec![("a".to_owned(), op(1), None), ("b".to_owned(), op(2), None)];
        let mut r = LockResolution::new([NodeIdx(1), NodeIdx(2)].into(), seed, 3);
        let cts = Timestamp {
            primary_seq: 9,
            primary: PRIMARY,
            client_seq: 1,
            client: CLIENT,
        };
        assert!(!r.absorb(NodeIdx(1), vec![("a".to_owned(), op(1), Some(cts))], 9));
        assert!(r.absorb(NodeIdx(2), vec![("b".to_owned(), op(2), None)], 0));
        let (max_seq, verdicts) = r.settle();
        assert_eq!(max_seq, 9);
        assert_eq!(
            verdicts,
            vec![
                ("a".to_owned(), op(1), Some(cts)),
                ("b".to_owned(), op(2), None),
            ]
        );
    }

    #[test]
    fn reset_keeps_sequence_floor_and_committed_objects() {
        let mut e = TwoPcEngine::new(nice_cfg());
        let mut fx = Vec::new();
        e.prepare("k", Value::from_bytes(vec![1]), op(1), Time::ZERO, &mut fx);
        let ts = e.next_ts(op(1), PRIMARY);
        e.on_commit("k", op(1), ts, EngineRole::Observer, Time::ZERO, &mut fx);
        e.prepare("x", Value::from_bytes(vec![2]), op(2), Time::ZERO, &mut fx);
        e.coordinate("x", op(2), CLIENT, None);
        e.reset();
        assert!(e.store().get("k").is_some(), "committed survives");
        assert!(!e.store().locked("x"), "unwritten pending is volatile");
        assert!(!e.coordinating("x", op(2)));
        assert_eq!(e.next_ts(op(3), PRIMARY).primary_seq, 2, "floor kept");
    }
}
