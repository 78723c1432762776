//! The durable log behind the object store's persistent write path.
//!
//! Figure 3's +L / -L steps and the W object write are *modeled* by the
//! simulator (device-queue delays, [`crate::ObjectStore`]'s in-memory
//! `log`) but must be *real* on the real runtime: a node killed
//! mid-storm may only re-enter the cluster if every acknowledged write
//! survives in its on-disk state. [`DurableLog`] is that seam — the
//! store appends a [`WalRecord`] for every durable mutation and the
//! engine forces a [`DurableLog::sync`] before any ack-bearing
//! [`Effect`](crate::Effect) leaves the node (the `fsync_discipline`
//! lint rule checks this discipline statically).
//!
//! Two implementations:
//!
//! * [`MemLog`] — the simulator's model: appends count, sync is free.
//!   The in-memory store state *is* the durable state there; crashes go
//!   through [`ObjectStore::on_crash`](crate::ObjectStore::on_crash).
//! * [`FileWal`] — a real file-backed WAL for `node-rt` hosts:
//!   CRC32-framed append records, `fdatasync` on [`DurableLog::sync`],
//!   and a recovery scan ([`FileWal::open`]) that rebuilds the store
//!   (committed objects + the 2PC lock table) and truncates a torn
//!   tail.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use node_rt::{ByteReader, ByteWriter};

use crate::codec::{get_op, get_ts, get_value, put_op, put_ts, put_value};
use crate::types::{OpId, Timestamp, Value};

/// One durable mutation of the object store.
///
/// Replaying a record sequence in order rebuilds exactly the state the
/// store's own mutators produced: `Lock` is +L (the tentative value
/// rides along so the later `Commit` needs no second value write),
/// `Commit` is the timestamped promotion (-L), `Apply` is the direct
/// path (`commit_direct`), and `Release` is -L without a promotion
/// (abort, or a lock settled by a recovery sync).
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// +L: `op` locked `key` with tentative `value`.
    Lock {
        /// The key.
        key: String,
        /// The attempt that holds the lock.
        op: OpId,
        /// The tentative value.
        value: Value,
    },
    /// The pending put of `op` on `key` committed with timestamp `ts`.
    Commit {
        /// The key.
        key: String,
        /// The attempt being committed.
        op: OpId,
        /// The commit timestamp.
        ts: Timestamp,
    },
    /// `key` committed directly to `value` at `ts` (no lock round).
    Apply {
        /// The key.
        key: String,
        /// The committed value.
        value: Value,
        /// The commit timestamp.
        ts: Timestamp,
    },
    /// The lock of `op` on `key` released without a local promotion.
    Release {
        /// The key.
        key: String,
        /// The attempt whose lock was released.
        op: OpId,
    },
}

const TAG_LOCK: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_APPLY: u8 = 3;
const TAG_RELEASE: u8 = 4;

/// Frame header: `u32` payload length + `u32` CRC32 of the payload.
const FRAME_HDR: usize = 8;
/// Upper bound on one record's payload; a larger length prefix in the
/// file is corruption, not a record. Also bounds a decoded value's
/// logical size.
pub(crate) const MAX_RECORD: u32 = 64 << 20;

impl WalRecord {
    /// Serialize the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WalRecord::Lock { key, op, value } => {
                w.u8(TAG_LOCK);
                w.str(key);
                put_op(&mut w, op);
                put_value(&mut w, value);
            }
            WalRecord::Commit { key, op, ts } => {
                w.u8(TAG_COMMIT);
                w.str(key);
                put_op(&mut w, op);
                put_ts(&mut w, ts);
            }
            WalRecord::Apply { key, value, ts } => {
                w.u8(TAG_APPLY);
                w.str(key);
                put_value(&mut w, value);
                put_ts(&mut w, ts);
            }
            WalRecord::Release { key, op } => {
                w.u8(TAG_RELEASE);
                w.str(key);
                put_op(&mut w, op);
            }
        }
        w.into_vec()
    }

    /// Deserialize one record payload; `None` means corruption.
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let rec = match r.u8()? {
            TAG_LOCK => WalRecord::Lock {
                key: r.str()?,
                op: get_op(&mut r)?,
                value: get_value(&mut r)?,
            },
            TAG_COMMIT => WalRecord::Commit {
                key: r.str()?,
                op: get_op(&mut r)?,
                ts: get_ts(&mut r)?,
            },
            TAG_APPLY => WalRecord::Apply {
                key: r.str()?,
                value: get_value(&mut r)?,
                ts: get_ts(&mut r)?,
            },
            TAG_RELEASE => WalRecord::Release {
                key: r.str()?,
                op: get_op(&mut r)?,
            },
            _ => return None,
        };
        if r.is_empty() {
            Some(rec)
        } else {
            None
        }
    }
}

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the hot append path is one table walk per byte.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the per-record checksum of the WAL frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for &b in bytes {
        let idx = ((c ^ u32::from(b)) & 0xFF) as usize;
        let entry = CRC_TABLE.get(idx).copied().unwrap_or(0);
        c = entry ^ (c >> 8);
    }
    !c
}

/// The durable-log seam of the object store's persistent write path.
///
/// Mutators append; the engine syncs before every ack-bearing effect.
/// `fork` supports the exploration API ([`crate::ObjectStore`] is
/// `Clone` for the DPOR explorer): a forked log is a throwaway
/// in-memory branch, never a second writer on the same file.
pub trait DurableLog: fmt::Debug {
    /// Append one record (buffered; durable only after [`sync`]).
    ///
    /// [`sync`]: DurableLog::sync
    fn append(&mut self, rec: &WalRecord);

    /// Force every appended record to stable storage. Returns false if
    /// durability can no longer be guaranteed (an I/O error on the
    /// backing file); the caller surfaces that as an internal error
    /// rather than acking a write that may not survive.
    fn sync(&mut self) -> bool;

    /// A throwaway in-memory branch of this log for explorer clones.
    fn fork(&self) -> Box<dyn DurableLog>;

    /// Records appended so far.
    fn appends(&self) -> u64;

    /// Syncs performed so far.
    fn syncs(&self) -> u64;
}

/// The simulator's durable-log model: counters only. The in-memory
/// [`ObjectStore`](crate::ObjectStore) state *is* the durable state in
/// the simulator; crash volatility is applied by `on_crash`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemLog {
    appends: u64,
    syncs: u64,
}

impl DurableLog for MemLog {
    fn append(&mut self, _rec: &WalRecord) {
        self.appends += 1;
    }

    fn sync(&mut self) -> bool {
        self.syncs += 1;
        true
    }

    fn fork(&self) -> Box<dyn DurableLog> {
        Box::new(*self)
    }

    fn appends(&self) -> u64 {
        self.appends
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// A file-backed WAL for real (`node-rt`) hosts.
///
/// Record framing: `u32` payload length, `u32` CRC32 of the payload,
/// payload bytes. Appends buffer in memory; [`DurableLog::sync`] writes
/// the buffer and `fdatasync`s the file, so a crash can only lose
/// records that were never synced — i.e. writes that were never acked.
#[derive(Debug)]
pub struct FileWal {
    file: File,
    path: PathBuf,
    /// Appended-but-unsynced frames.
    buf: Vec<u8>,
    appends: u64,
    syncs: u64,
    io_errors: u64,
}

impl FileWal {
    /// Open (or create) the WAL at `path`, replay every intact record,
    /// and truncate the file after the last one — a torn tail (partial
    /// frame from a crash mid-write) or a CRC-rejected record ends the
    /// replay and is cut off, so the next append extends a clean log.
    pub fn open(path: &Path) -> std::io::Result<(FileWal, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, good_len) = scan(&bytes);
        if good_len < bytes.len() as u64 {
            file.set_len(good_len)?;
        }
        file.seek(SeekFrom::Start(good_len))?;
        Ok((
            FileWal {
                file,
                path: path.to_path_buf(),
                buf: Vec::new(),
                appends: 0,
                syncs: 0,
                io_errors: 0,
            },
            records,
        ))
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// I/O errors swallowed so far (nonzero means durability is gone).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl DurableLog for FileWal {
    fn append(&mut self, rec: &WalRecord) {
        let payload = rec.encode();
        let mut w = ByteWriter::new();
        w.u32(payload.len() as u32);
        w.u32(crc32(&payload));
        let mut frame = w.into_vec();
        frame.extend_from_slice(&payload);
        self.buf.extend_from_slice(&frame);
        self.appends += 1;
    }

    fn sync(&mut self) -> bool {
        if !self.buf.is_empty() {
            if self.file.write_all(&self.buf).is_err() {
                self.io_errors += 1;
                return false;
            }
            self.buf.clear();
        }
        if self.file.sync_data().is_err() {
            self.io_errors += 1;
            return false;
        }
        self.syncs += 1;
        self.io_errors == 0
    }

    fn fork(&self) -> Box<dyn DurableLog> {
        // Explorer clones must not share (or reopen) the file: a fork
        // is a what-if branch whose durability is never consulted.
        Box::new(MemLog {
            appends: self.appends,
            syncs: self.syncs,
        })
    }

    fn appends(&self) -> u64 {
        self.appends
    }

    fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Walk the raw WAL bytes: every intact frame yields a record; the walk
/// stops at the first torn or corrupt frame. Returns the records and
/// the byte length of the intact prefix.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut at = 0usize;
    // A torn header (or clean end-of-file) ends the walk.
    while let Some(hdr) = bytes.get(at..at + FRAME_HDR) {
        let mut r = ByteReader::new(hdr);
        let (Some(len), Some(crc)) = (r.u32(), r.u32()) else {
            break;
        };
        if len > MAX_RECORD {
            break; // length prefix is garbage: corrupt frame
        }
        let start = at + FRAME_HDR;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // CRC-rejected record
        }
        let Some(rec) = WalRecord::decode(payload) else {
            break; // CRC ok but undecodable: treat as corruption
        };
        records.push(rec);
        at = start + len as usize;
    }
    (records, at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use node_rt::Ipv4;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("nice-wal-{}-{tag}-{n}.wal", std::process::id()))
    }

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

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Lock {
                key: "a".into(),
                op: op(1),
                value: Value::from_bytes(vec![1, 2, 3]),
            },
            WalRecord::Commit {
                key: "a".into(),
                op: op(1),
                ts: ts(1, 1),
            },
            WalRecord::Apply {
                key: "b".into(),
                value: Value::from_bytes(vec![9]),
                ts: ts(2, 2),
            },
            WalRecord::Release {
                key: "c".into(),
                op: op(3),
            },
        ]
    }

    fn render(recs: &[WalRecord]) -> String {
        format!("{recs:?}")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).expect("roundtrip");
            assert_eq!(render(&[rec]), render(&[back]));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_records().remove(3).encode();
        bytes.push(0xFF);
        assert!(WalRecord::decode(&bytes).is_none());
    }

    #[test]
    fn file_wal_replays_what_was_synced() {
        let path = temp_wal("replay");
        {
            let (mut wal, recovered) = FileWal::open(&path).expect("fresh wal");
            assert!(recovered.is_empty());
            for rec in sample_records() {
                wal.append(&rec);
            }
            assert!(wal.sync());
            assert_eq!(wal.appends(), 4);
            assert_eq!(wal.syncs(), 1);
        }
        let (_wal, recovered) = FileWal::open(&path).expect("reopen");
        assert_eq!(render(&recovered), render(&sample_records()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsynced_appends_are_lost_on_reopen() {
        let path = temp_wal("unsynced");
        {
            let (mut wal, _) = FileWal::open(&path).expect("fresh wal");
            wal.append(&sample_records().remove(0));
            // no sync: the record never reached the file
        }
        let (_wal, recovered) = FileWal::open(&path).expect("reopen");
        assert!(recovered.is_empty(), "unsynced records must not replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_mid_record() {
        let path = temp_wal("torn");
        {
            let (mut wal, _) = FileWal::open(&path).expect("fresh wal");
            for rec in sample_records() {
                wal.append(&rec);
            }
            assert!(wal.sync());
        }
        // Tear the file mid-way through the final record.
        let full = std::fs::read(&path).expect("read wal");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let (_wal, recovered) = FileWal::open(&path).expect("recover");
        assert_eq!(
            render(&recovered),
            render(&sample_records()[..3]),
            "intact prefix replays, torn record is dropped"
        );
        assert!(
            std::fs::metadata(&path).expect("meta").len() < full.len() as u64 - 3,
            "the torn tail was truncated away"
        );
        // A new append after recovery extends a clean log.
        {
            let (mut wal, _) = FileWal::open(&path).expect("reopen");
            wal.append(&WalRecord::Release {
                key: "z".into(),
                op: op(9),
            });
            assert!(wal.sync());
        }
        let (_wal, recovered) = FileWal::open(&path).expect("final");
        assert_eq!(recovered.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_rejected_record_ends_replay() {
        let path = temp_wal("crc");
        {
            let (mut wal, _) = FileWal::open(&path).expect("fresh wal");
            for rec in sample_records() {
                wal.append(&rec);
            }
            assert!(wal.sync());
        }
        // Flip one payload byte inside the second record.
        let mut bytes = std::fs::read(&path).expect("read wal");
        let first_len = {
            let mut r = ByteReader::new(&bytes);
            r.u32().expect("len") as usize
        };
        let target = FRAME_HDR + first_len + FRAME_HDR + 1;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");
        let (_wal, recovered) = FileWal::open(&path).expect("recover");
        assert_eq!(
            render(&recovered),
            render(&sample_records()[..1]),
            "replay stops at the CRC-rejected record"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_log_counts_and_forks() {
        let mut log = MemLog::default();
        log.append(&sample_records().remove(0));
        assert!(log.sync());
        let fork = log.fork();
        assert_eq!(fork.appends(), 1);
        assert_eq!(fork.syncs(), 1);
    }
}
