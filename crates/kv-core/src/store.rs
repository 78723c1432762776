//! The local object store of one storage node.
//!
//! Models what Figure 3 requires: in-memory object locks ("Object locks
//! are maintained in memory only"), a persistent operation log with forced
//! writes (+L / -L), and persistent object writes (W) with a bandwidth +
//! latency cost on a serial storage device.
//!
//! Crash semantics: locks and pending (uncommitted) values are volatile;
//! committed objects and the log survive. The device-queue model mirrors
//! the link model: a write issued at `t` completes at
//! `max(t, device_busy) + latency + size/bandwidth`.

use std::collections::BTreeMap;

use node_rt::Time;

use crate::types::{OpId, Timestamp, Value};
use crate::wal::{DurableLog, MemLog, WalRecord};

/// Storage device cost model.
#[derive(Debug, Clone, Copy)]
pub struct StorageCfg {
    /// Sequential write bandwidth (bytes/sec). The paper's nodes carry
    /// 120 GB SSDs; 300 MB/s is a typical 2017 SATA SSD.
    pub write_bw: u64,
    /// Per-operation latency (sync/flush cost) for forced writes.
    pub op_latency: Time,
}

/// A pending (locked, uncommitted) put.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The attempt that holds the lock.
    pub op: OpId,
    /// The tentative value.
    pub value: Value,
    /// Set once the local write (W in Figure 3) completed.
    pub written: bool,
    /// When the lock was taken (drives the secondary-side detection of a
    /// failed primary: a lock nobody commits is a timeout, §4.4).
    pub locked_at: Time,
}

/// One committed object.
#[derive(Debug, Clone)]
pub struct Committed {
    /// The value.
    pub value: Value,
    /// Its commit timestamp.
    pub ts: Timestamp,
}

/// The object store.
///
/// `Clone` is part of the exploration API: the DPOR explorer forks the
/// store (inside a cloned [`TwoPcEngine`](crate::TwoPcEngine)) to probe
/// a step's read/write footprint without committing to the branch.
#[derive(Debug)]
pub struct ObjectStore {
    cfg: StorageCfg,
    /// Committed objects (persistent).
    committed: BTreeMap<String, Committed>,
    /// Pending puts holding in-memory locks. Each one's +L record is in
    /// the persistent log (the WAL); the written ones survive a crash as
    /// in-doubt entries.
    pending: BTreeMap<String, Pending>,
    /// Device queue.
    busy_until: Time,
    /// Counters.
    writes: u64,
    bytes_written: u64,
    /// The durable log behind the persistent write path: a [`MemLog`]
    /// model in the simulator, a file-backed WAL on real hosts.
    wal: Box<dyn DurableLog>,
}

impl Default for ObjectStore {
    fn default() -> ObjectStore {
        ObjectStore {
            cfg: StorageCfg::default(),
            committed: BTreeMap::new(),
            pending: BTreeMap::new(),
            busy_until: Time::ZERO,
            writes: 0,
            bytes_written: 0,
            wal: Box::new(MemLog::default()),
        }
    }
}

impl Clone for ObjectStore {
    fn clone(&self) -> ObjectStore {
        ObjectStore {
            cfg: self.cfg,
            committed: self.committed.clone(),
            pending: self.pending.clone(),
            busy_until: self.busy_until,
            writes: self.writes,
            bytes_written: self.bytes_written,
            // Clones are exploration branches: they fork the durable log
            // into a throwaway in-memory copy, never a second file writer.
            wal: self.wal.fork(),
        }
    }
}

impl Default for StorageCfg {
    fn default() -> StorageCfg {
        StorageCfg {
            write_bw: 300_000_000,
            op_latency: Time::from_us(60),
        }
    }
}

impl ObjectStore {
    /// An empty store with the given device model.
    pub fn new(cfg: StorageCfg) -> ObjectStore {
        ObjectStore {
            cfg,
            ..ObjectStore::default()
        }
    }

    /// An empty store whose persistent write path appends to `wal`
    /// (real hosts pass a [`FileWal`](crate::FileWal) here).
    pub fn with_wal(cfg: StorageCfg, wal: Box<dyn DurableLog>) -> ObjectStore {
        ObjectStore {
            cfg,
            wal,
            ..ObjectStore::default()
        }
    }

    /// Force every appended WAL record to stable storage. Must be
    /// called before any acknowledgement of the appended writes leaves
    /// the node (`fsync_discipline` lint rule). Returns false when the
    /// backing log can no longer guarantee durability.
    pub fn wal_sync(&mut self) -> bool {
        self.wal.sync()
    }

    /// The durable log (stats inspection).
    pub fn wal(&self) -> &dyn DurableLog {
        self.wal.as_ref()
    }

    /// The modeled cost of one forced sync on this device (the
    /// `op_latency` of the cost model). Telemetry charges this per WAL
    /// barrier so the `wal.sync` histogram is identical across hosts —
    /// the real runtime's actual fsync stalls still surface in the
    /// wall-clock phase and end-to-end histograms.
    pub fn sync_cost(&self) -> Time {
        self.cfg.op_latency
    }

    /// Rebuild store state from recovered WAL `records`, in order,
    /// without re-appending them. Recovered pending locks are marked
    /// `written` — their +L reached stable storage by definition — so
    /// they surface as in-doubt entries for §4.4 lock resolution;
    /// `locked_at` restarts at `Time::ZERO`, letting the stale-lock TTL
    /// clear any orphan whose round died with the crash. Replaying the
    /// same records onto the same starting state twice is idempotent.
    pub fn replay(&mut self, records: &[WalRecord]) {
        for rec in records {
            match rec {
                WalRecord::Lock { key, op, value } => {
                    self.pending.insert(
                        key.clone(),
                        Pending {
                            op: *op,
                            value: value.clone(),
                            written: true,
                            locked_at: Time::ZERO,
                        },
                    );
                }
                WalRecord::Commit { key, op, ts } => {
                    let Some(p) = self.pending.get(key) else {
                        continue;
                    };
                    if p.op != *op {
                        continue;
                    }
                    let value = p.value.clone();
                    self.pending.remove(key);
                    if self.committed.get(key).is_none_or(|c| *ts > c.ts) {
                        self.committed
                            .insert(key.clone(), Committed { value, ts: *ts });
                    }
                }
                WalRecord::Apply { key, value, ts } => {
                    if self.committed.get(key).is_none_or(|c| *ts > c.ts) {
                        self.committed.insert(
                            key.clone(),
                            Committed {
                                value: value.clone(),
                                ts: *ts,
                            },
                        );
                    }
                }
                WalRecord::Release { key, op } => {
                    if self.pending.get(key).is_some_and(|p| p.op == *op) {
                        self.pending.remove(key);
                    }
                }
            }
        }
    }

    /// Schedule a device write of `size` bytes at `now`; returns its
    /// completion time. `forced` writes pay the sync latency.
    pub fn write_delay(&mut self, now: Time, size: u32, forced: bool) -> Time {
        let xfer = Time(((size as u64) * 1_000_000_000).div_ceil(self.cfg.write_bw));
        let lat = if forced {
            self.cfg.op_latency
        } else {
            Time::ZERO
        };
        let done = self.busy_until.max(now) + lat + xfer;
        self.busy_until = done;
        self.writes += 1;
        self.bytes_written += size as u64;
        done
    }

    /// Is `key` currently locked?
    pub fn locked(&self, key: &str) -> bool {
        self.pending.contains_key(key)
    }

    /// The pending put on `key`, if any.
    pub fn pending(&self, key: &str) -> Option<&Pending> {
        self.pending.get(key)
    }

    /// Mutable access to the pending put on `key`.
    pub fn pending_mut(&mut self, key: &str) -> Option<&mut Pending> {
        self.pending.get_mut(key)
    }

    /// All pending puts (lock-resolution support).
    pub fn pending_iter(&self) -> impl Iterator<Item = (&String, &Pending)> {
        self.pending.iter()
    }

    /// Lock `key` for `op` with tentative `value` and append the log
    /// entry (+L). Fails (returns false) if locked by a *different* op.
    /// Re-locking by the same op (a client retry) refreshes the value
    /// and the lock time — a lock is only "stale" once its client went
    /// silent.
    pub fn lock(&mut self, key: &str, op: OpId, value: Value, now: Time) -> bool {
        match self.pending.get_mut(key) {
            Some(p) if p.op == op => {
                p.value = value.clone();
                p.locked_at = now;
                self.wal.append(&WalRecord::Lock {
                    key: key.to_owned(),
                    op,
                    value,
                });
                true
            }
            Some(_) => false,
            None => {
                self.pending.insert(
                    key.to_owned(),
                    Pending {
                        op,
                        value: value.clone(),
                        written: false,
                        locked_at: now,
                    },
                );
                self.wal.append(&WalRecord::Lock {
                    key: key.to_owned(),
                    op,
                    value,
                });
                true
            }
        }
    }

    /// Commit the pending put on `key` with timestamp `ts`: promote the
    /// tentative value, release the lock, delete the log entry (-L).
    /// Stale commits (older `ts` than the committed version) release the
    /// lock but keep the newer value. Returns true if state changed.
    pub fn commit(&mut self, key: &str, op: OpId, ts: Timestamp) -> bool {
        let Some(p) = self.pending.remove(key) else {
            return false;
        };
        if p.op != op {
            // A different put holds the lock: leave it untouched.
            self.pending.insert(key.to_owned(), p);
            return false;
        }
        let newer = self.committed.get(key).is_none_or(|c| ts > c.ts);
        if newer {
            self.committed
                .insert(key.to_owned(), Committed { value: p.value, ts });
        }
        self.wal.append(&WalRecord::Commit {
            key: key.to_owned(),
            op,
            ts,
        });
        true
    }

    /// Commit `key` directly with a known value (recovery sync path).
    pub fn commit_direct(&mut self, key: &str, value: Value, ts: Timestamp) {
        let newer = self.committed.get(key).is_none_or(|c| ts > c.ts);
        if newer {
            self.wal.append(&WalRecord::Apply {
                key: key.to_owned(),
                value: value.clone(),
                ts,
            });
            self.committed
                .insert(key.to_owned(), Committed { value, ts });
        }
    }

    /// Release a pending lock whose attempt `ts` proves committed (the
    /// synced timestamp carries the committing client + sequence). A lock
    /// held by a *different* attempt stays: its commit or abort is still
    /// in flight. Returns true if a lock was released.
    pub fn release_if_committed(&mut self, key: &str, ts: Timestamp) -> bool {
        match self.pending.get(key) {
            Some(p) if p.op.client == ts.client && p.op.client_seq == ts.client_seq => {
                let op = p.op;
                self.pending.remove(key);
                self.wal.append(&WalRecord::Release {
                    key: key.to_owned(),
                    op,
                });
                true
            }
            _ => false,
        }
    }

    /// Abort the pending put on `key` (release lock, -L) — but only if
    /// the lock predates `issued`. A retry of the same op re-locks under
    /// the same `OpId`, so an abort from an earlier, abandoned round can
    /// arrive late (e.g. released by a healing partition) and must not
    /// release the lock the *new* round is counting on: the commit that
    /// follows would find nothing to apply and an acked value would
    /// silently vanish. Callers aborting on their own authority (their
    /// round, their stale-lock sweep) pass `Time::MAX`.
    pub fn abort(&mut self, key: &str, op: OpId, issued: Time) -> bool {
        match self.pending.get(key) {
            Some(p) if p.op == op && p.locked_at <= issued => {
                self.pending.remove(key);
                self.wal.append(&WalRecord::Release {
                    key: key.to_owned(),
                    op,
                });
                true
            }
            _ => false,
        }
    }

    /// The committed version of `key`.
    pub fn get(&self, key: &str) -> Option<&Committed> {
        self.committed.get(key)
    }

    /// Number of committed objects.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// True if no objects are committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Iterate committed objects.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Committed)> {
        self.committed.iter()
    }

    /// Remove a committed object (handoff cleanup after the original node
    /// drained it).
    pub fn remove(&mut self, key: &str) -> Option<Committed> {
        self.committed.remove(key)
    }

    /// Highest commit `primary_seq` applied (the failover sequence floor).
    pub fn max_primary_seq(&self) -> u64 {
        self.committed
            .values()
            .map(|c| c.ts.primary_seq)
            .max()
            .unwrap_or(0)
    }

    /// Crash semantics. Locks are volatile ("Object locks are maintained
    /// in memory only"), but the W step of Figure 3 *persisted* the
    /// tentative value and +L persisted the log entry — so pending puts
    /// whose write completed survive a crash as in-doubt entries that the
    /// §4.4 resolution rules (commit-if-committed-anywhere /
    /// abort-if-locked-everywhere) later settle. Unwritten pendings are
    /// simply gone.
    pub fn on_crash(&mut self) {
        self.pending.retain(|_, p| p.written);
        self.busy_until = Time::ZERO;
    }

    /// In-doubt entries after a restart: written-but-uncommitted puts
    /// identified by the persistent log (§4.4 "the persistent logs on the
    /// nodes will identify the latest put operations").
    pub fn in_doubt(&self) -> Vec<(String, OpId)> {
        self.pending
            .iter()
            .filter(|(_, p)| p.written)
            .map(|(k, p)| (k.clone(), p.op))
            .collect()
    }

    /// Total device writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes written to the device.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use node_rt::Ipv4;

    fn op(seq: u64) -> OpId {
        OpId {
            client: Ipv4::new(10, 0, 1, 1),
            client_seq: seq,
        }
    }

    fn ts(pseq: u64, cseq: u64) -> Timestamp {
        Timestamp {
            primary_seq: pseq,
            primary: Ipv4::new(10, 0, 0, 11),
            client_seq: cseq,
            client: Ipv4::new(10, 0, 1, 1),
        }
    }

    #[test]
    fn lock_commit_roundtrip() {
        let mut s = ObjectStore::new(StorageCfg::default());
        assert!(s.lock("k", op(1), Value::from_bytes(vec![1]), Time::ZERO));
        assert_eq!(s.pending("k").map(|p| p.op), Some(op(1)));
        assert!(s.get("k").is_none(), "pending value invisible to gets");
        assert!(s.commit("k", op(1), ts(1, 1)));
        assert!(!s.locked("k"), "-L removed the entry");
        assert_eq!(*s.get("k").unwrap().value.bytes, vec![1]);
    }

    #[test]
    fn conflicting_lock_rejected_retry_allowed() {
        let mut s = ObjectStore::new(StorageCfg::default());
        assert!(s.lock("k", op(1), Value::from_bytes(vec![1]), Time::ZERO));
        assert!(
            !s.lock("k", op(2), Value::from_bytes(vec![2]), Time::ZERO),
            "other op must wait"
        );
        assert!(
            s.lock("k", op(1), Value::from_bytes(vec![3]), Time::ZERO),
            "same op may retry"
        );
        let p = s.pending("k").unwrap();
        assert_eq!((p.op, &*p.value.bytes), (op(1), &vec![3]), "one entry");
    }

    #[test]
    fn stale_commit_keeps_newer_value() {
        let mut s = ObjectStore::new(StorageCfg::default());
        s.lock("k", op(2), Value::from_bytes(vec![2]), Time::ZERO);
        s.commit("k", op(2), ts(5, 2));
        // an older put (lower primary_seq) arrives late
        s.lock("k", op(1), Value::from_bytes(vec![1]), Time::ZERO);
        assert!(s.commit("k", op(1), ts(3, 1)));
        assert_eq!(*s.get("k").unwrap().value.bytes, vec![2], "newer ts wins");
        assert!(!s.locked("k"), "lock still released");
    }

    #[test]
    fn abort_releases_without_commit() {
        let mut s = ObjectStore::new(StorageCfg::default());
        s.lock("k", op(1), Value::from_bytes(vec![1]), Time::ZERO);
        assert!(s.abort("k", op(1), Time::MAX));
        assert!(!s.locked("k"));
        assert!(s.get("k").is_none());
        // aborting a non-pending key is a no-op
        assert!(!s.abort("k", op(1), Time::MAX));
    }

    #[test]
    fn stale_abort_spares_a_relocked_attempt() {
        let mut s = ObjectStore::new(StorageCfg::default());
        s.lock("k", op(1), Value::from_bytes(vec![1]), Time::from_ms(100));
        // The round is abandoned; a retry of the SAME op re-locks later.
        s.lock("k", op(1), Value::from_bytes(vec![1]), Time::from_ms(500));
        // The abandoned round's abort surfaces late (decided at 200ms,
        // delivered after the re-lock): it must not release the live
        // round's lock, or the commit that follows finds nothing.
        assert!(!s.abort("k", op(1), Time::from_ms(200)));
        assert!(s.locked("k"), "the retried attempt keeps its lock");
        // An abort decided after the re-lock applies normally.
        assert!(s.abort("k", op(1), Time::from_ms(600)));
        assert!(!s.locked("k"));
    }

    #[test]
    fn crash_drops_unwritten_keeps_committed_and_written_pendings() {
        let mut s = ObjectStore::new(StorageCfg::default());
        s.lock("a", op(1), Value::from_bytes(vec![1]), Time::ZERO);
        s.commit("a", op(1), ts(1, 1));
        // "b" locked but its W never completed: gone after the crash.
        s.lock("b", op(2), Value::from_bytes(vec![2]), Time::ZERO);
        // "c" locked AND written: survives as an in-doubt entry.
        s.lock("c", op(3), Value::from_bytes(vec![3]), Time::ZERO);
        s.pending_mut("c").unwrap().written = true;
        s.on_crash();
        assert!(s.get("a").is_some(), "committed survives");
        assert!(!s.locked("b"), "unwritten pending is volatile");
        assert!(s.locked("c"), "written pending survives (it is on disk)");
        assert_eq!(
            s.in_doubt(),
            vec![("c".to_string(), op(3))],
            "exactly the in-doubt put"
        );
    }

    #[test]
    fn device_queue_serializes_writes() {
        let cfg = StorageCfg {
            write_bw: 100_000_000, // 100 MB/s
            op_latency: Time::from_us(50),
        };
        let mut s = ObjectStore::new(cfg);
        let t1 = s.write_delay(Time::ZERO, 1_000_000, false);
        // 1 MB at 100 MB/s = 10 ms
        assert_eq!(t1, Time::from_ms(10));
        let t2 = s.write_delay(Time::ZERO, 0, true);
        assert_eq!(
            t2,
            Time::from_ms(10) + Time::from_us(50),
            "queued behind first write"
        );
        assert_eq!(s.writes(), 2);
        assert_eq!(s.bytes_written(), 1_000_000);
    }

    #[test]
    fn max_primary_seq_tracks_commits() {
        let mut s = ObjectStore::new(StorageCfg::default());
        assert_eq!(s.max_primary_seq(), 0);
        s.lock("a", op(1), Value::from_bytes(vec![1]), Time::ZERO);
        s.commit("a", op(1), ts(7, 1));
        s.lock("b", op(2), Value::from_bytes(vec![2]), Time::ZERO);
        s.commit("b", op(2), ts(3, 2));
        assert_eq!(s.max_primary_seq(), 7);
    }

    #[test]
    fn wal_roundtrip_recovers_committed_and_in_doubt_state() {
        use crate::wal::FileWal;
        let path = std::env::temp_dir().join(format!("nice-store-wal-{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        {
            let (wal, recovered) = FileWal::open(&path).expect("fresh wal");
            assert!(recovered.is_empty());
            let mut s = ObjectStore::with_wal(StorageCfg::default(), Box::new(wal));
            s.lock("a", op(1), Value::from_bytes(vec![1]), Time::ZERO);
            s.commit("a", op(1), ts(1, 1));
            s.commit_direct("b", Value::from_bytes(vec![2]), ts(2, 2));
            // "c" stays locked: an in-doubt put at crash time.
            s.lock("c", op(3), Value::from_bytes(vec![3]), Time::ZERO);
            assert!(s.wal_sync());
        }
        let recover = |path: &std::path::Path| {
            let (wal, records) = FileWal::open(path).expect("recover");
            let mut s = ObjectStore::with_wal(StorageCfg::default(), Box::new(wal));
            s.replay(&records);
            s
        };
        let once = recover(&path);
        assert_eq!(*once.get("a").unwrap().value.bytes, vec![1]);
        assert_eq!(*once.get("b").unwrap().value.bytes, vec![2]);
        assert!(once.locked("c"), "in-doubt lock survives recovery");
        assert!(
            once.pending("c").unwrap().written,
            "recovered pending counts as written (its +L is on disk)"
        );
        assert_eq!(once.in_doubt(), vec![("c".to_string(), op(3))]);
        // Recover → recover again ⇒ identical store (replay idempotence;
        // recovery appends nothing, so the file is unchanged too).
        let twice = recover(&path);
        assert_eq!(
            format!("{:?}", once.iter().collect::<Vec<_>>()),
            format!("{:?}", twice.iter().collect::<Vec<_>>()),
        );
        assert_eq!(twice.in_doubt(), once.in_doubt());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_direct_respects_order() {
        let mut s = ObjectStore::new(StorageCfg::default());
        s.commit_direct("k", Value::from_bytes(vec![9]), ts(9, 1));
        s.commit_direct("k", Value::from_bytes(vec![1]), ts(1, 1));
        assert_eq!(*s.get("k").unwrap().value.bytes, vec![9]);
    }
}
