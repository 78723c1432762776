//! YCSB-style workload definitions (Cooper et al., SoCC '10), as used by
//! the paper's §6.7: "We use two workloads: C, the read-only workload, and
//! F, the read-modify-write workload … these two have a zipf popularity
//! distribution. … We use the default YCSB configuration with 1KB
//! objects."

use crate::rng::XorShiftRng;

use crate::ops::{Op, OpKind};
use crate::zipf::Zipf;

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// YCSB zipfian (theta = 0.99).
    Zipfian,
    /// Uniform over the key space.
    Uniform,
    /// Always the most recently inserted key (YCSB "latest" approximated
    /// as the highest rank).
    Latest,
}

/// A YCSB workload: an operation mix over a keyspace. Whatever share
/// `read`, `update` and `rmw` leave is inserts of new keys.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name ("YCSB-C").
    pub name: &'static str,
    /// Fraction of reads.
    pub read: f64,
    /// Fraction of blind updates.
    pub update: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
    /// Popularity distribution.
    pub dist: KeyDist,
    /// Number of records preloaded.
    pub records: u64,
    /// Object size in bytes (YCSB default: 1 KB).
    pub object_size: u32,
}

impl Workload {
    /// YCSB-A: 50% read / 50% update, zipfian.
    pub fn a(records: u64) -> Workload {
        Workload {
            name: "YCSB-A",
            read: 0.5,
            update: 0.5,
            rmw: 0.0,
            dist: KeyDist::Zipfian,
            records,
            object_size: 1000,
        }
    }

    /// YCSB-B: 95% read / 5% update, zipfian.
    pub fn b(records: u64) -> Workload {
        Workload {
            name: "YCSB-B",
            read: 0.95,
            update: 0.05,
            rmw: 0.0,
            dist: KeyDist::Zipfian,
            records,
            object_size: 1000,
        }
    }

    /// YCSB-C: 100% read, zipfian — the paper's read-only workload.
    pub fn c(records: u64) -> Workload {
        Workload {
            name: "YCSB-C",
            read: 1.0,
            update: 0.0,
            rmw: 0.0,
            dist: KeyDist::Zipfian,
            records,
            object_size: 1000,
        }
    }

    /// YCSB-D: 95% read / 5% insert, latest.
    pub fn d(records: u64) -> Workload {
        Workload {
            name: "YCSB-D",
            read: 0.95,
            update: 0.0,
            rmw: 0.0,
            dist: KeyDist::Latest,
            records,
            object_size: 1000,
        }
    }

    /// YCSB-E is scan-heavy; key-value stores without range scans (like
    /// NICEKV) typically substitute reads. 95% read / 5% insert, zipfian.
    pub fn e(records: u64) -> Workload {
        Workload {
            name: "YCSB-E",
            read: 0.95,
            update: 0.0,
            rmw: 0.0,
            dist: KeyDist::Zipfian,
            records,
            object_size: 1000,
        }
    }

    /// YCSB-F: 50% read / 50% read-modify-write, zipfian — the paper's
    /// highest-put-ratio workload ("which generates the highest ratio
    /// (50%) of puts in YCSB").
    pub fn f(records: u64) -> Workload {
        Workload {
            name: "YCSB-F",
            read: 0.5,
            update: 0.0,
            rmw: 0.5,
            dist: KeyDist::Zipfian,
            records,
            object_size: 1000,
        }
    }

    /// The key name for record `rank` (YCSB's `user<N>` convention).
    pub fn key(&self, rank: u64) -> String {
        format!("user{rank}")
    }

    /// The operations that preload the store (one put per record).
    pub fn load_ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.records).map(|i| Op {
            kind: OpKind::Put,
            key: self.key(i),
            size: self.object_size,
        })
    }
}

/// Streams the run-phase operations of a workload.
pub struct WorkloadRun {
    wl: Workload,
    zipf: Option<Zipf>,
    inserted: u64,
}

impl WorkloadRun {
    /// Start a run over `wl`.
    pub fn new(wl: Workload) -> WorkloadRun {
        let zipf = match wl.dist {
            KeyDist::Zipfian => Some(Zipf::ycsb(wl.records)),
            _ => None,
        };
        WorkloadRun {
            inserted: wl.records,
            wl,
            zipf,
        }
    }

    /// The workload being run.
    pub fn workload(&self) -> &Workload {
        &self.wl
    }

    fn pick_key(&self, rng: &mut XorShiftRng) -> String {
        match self.wl.dist {
            KeyDist::Zipfian => self
                .wl
                .key(self.zipf.as_ref().expect("zipfian sampler").sample(rng)),
            KeyDist::Uniform => self.wl.key(rng.random_range(0..self.inserted)),
            KeyDist::Latest => self.wl.key(self.inserted.saturating_sub(1)),
        }
    }

    /// Draw the next operation(s). A read-modify-write yields a get
    /// followed by a put of the same key, which is why this returns one
    /// or two ops.
    pub fn next_ops(&mut self, rng: &mut XorShiftRng) -> Vec<Op> {
        let x = rng.random_f64();
        let w = &self.wl;
        if x < w.read {
            vec![Op {
                kind: OpKind::Get,
                key: self.pick_key(rng),
                size: 0,
            }]
        } else if x < w.read + w.update {
            vec![Op {
                kind: OpKind::Put,
                key: self.pick_key(rng),
                size: w.object_size,
            }]
        } else if x < w.read + w.update + w.rmw {
            let key = self.pick_key(rng);
            vec![
                Op {
                    kind: OpKind::Get,
                    key: key.clone(),
                    size: 0,
                },
                Op {
                    kind: OpKind::Put,
                    key,
                    size: w.object_size,
                },
            ]
        } else {
            // insert
            let key = self.wl.key(self.inserted);
            self.inserted += 1;
            vec![Op {
                kind: OpKind::Put,
                key,
                size: w.object_size,
            }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    fn mix(wl: Workload, n: usize) -> (usize, usize) {
        let mut run = WorkloadRun::new(wl);
        let mut rng = XorShiftRng::seed_from_u64(5);
        let mut gets = 0;
        let mut puts = 0;
        for _ in 0..n {
            for op in run.next_ops(&mut rng) {
                match op.kind {
                    OpKind::Get => gets += 1,
                    OpKind::Put => puts += 1,
                }
            }
        }
        (gets, puts)
    }

    #[test]
    fn c_is_read_only() {
        let (gets, puts) = mix(Workload::c(100), 5000);
        assert_eq!(puts, 0);
        assert_eq!(gets, 5000);
    }

    #[test]
    fn f_has_fifty_percent_puts() {
        // F: half the draws are RMW = get+put, half pure get.
        let (gets, puts) = mix(Workload::f(100), 10_000);
        let put_ratio = puts as f64 / (gets + puts) as f64;
        // paper: "the highest ratio (50%) of puts" — RMW contributes a get
        // too, so op-level ratio is ~1/3; request-level put/draw is ~50%.
        assert!(puts > 4500 && puts < 5500, "puts={puts}");
        assert!(put_ratio > 0.25 && put_ratio < 0.40, "{put_ratio}");
    }

    #[test]
    fn a_is_half_updates() {
        let (gets, puts) = mix(Workload::a(100), 10_000);
        assert!(
            (gets as i64 - puts as i64).unsigned_abs() < 600,
            "gets={gets} puts={puts}"
        );
    }

    #[test]
    fn d_inserts_extend_keyspace() {
        let wl = Workload::d(10);
        let mut run = WorkloadRun::new(wl);
        let mut rng = XorShiftRng::seed_from_u64(6);
        let mut newest = vec![];
        for _ in 0..2000 {
            for op in run.next_ops(&mut rng) {
                if op.kind == OpKind::Put {
                    newest.push(op.key);
                }
            }
        }
        assert!(!newest.is_empty());
        // inserted keys are fresh (user10, user11, ...)
        assert!(newest.iter().any(|k| k == "user10"));
    }

    #[test]
    fn load_phase_covers_all_records() {
        let wl = Workload::c(42);
        let ops: Vec<Op> = wl.load_ops().collect();
        assert_eq!(ops.len(), 42);
        assert!(ops.iter().all(|o| o.kind == OpKind::Put && o.size == 1000));
        assert_eq!(ops[41].key, "user41");
    }

    #[test]
    fn rmw_ops_target_same_key() {
        let mut run = WorkloadRun::new(Workload::f(50));
        let mut rng = XorShiftRng::seed_from_u64(7);
        for _ in 0..1000 {
            let ops = run.next_ops(&mut rng);
            if ops.len() == 2 {
                assert_eq!(ops[0].key, ops[1].key);
                assert_eq!(ops[0].kind, OpKind::Get);
                assert_eq!(ops[1].kind, OpKind::Put);
            }
        }
    }
}
