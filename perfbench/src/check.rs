//! Output checks on what the clients observed. A run whose outputs are wrong
//! prints no metrics.
//!
//! The repository's per-key linearizability checker refuses more than 128
//! operations on one key, and a zipfian run puts thousands on the hottest.
//! So each key's history is cut into segments at *settled points*: an instant
//! at which no operation on the key is in flight and the latest put overlapped
//! no other put. Every operation before the point precedes every one after it
//! in any linearization, and the register then holds that put's value whatever
//! the order of the rest, so the history linearizes exactly when every segment
//! does, with that put repeated as the first write of the next segment.

use std::collections::BTreeMap;

use crate::gen::OBJ_BYTES;

/// How one operation ended, as its client recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    Ok,
    /// A get that found nothing.
    NotFound,
    /// Failed or timed out. A put that ended so may still take effect, at any
    /// time; a get that ended so observed nothing.
    Failed,
}

/// One completed client operation; times are on the node clock (ns since the
/// runtime's epoch, one epoch for all nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obs {
    pub client: u32,
    pub seq: u64,
    pub put: bool,
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ended: Ended,
    /// Put: the bytes written. Get: the bytes read.
    pub bytes: Option<Vec<u8>>,
}

impl Obs {
    pub fn ok(&self) -> bool {
        self.ended == Ended::Ok
    }

    /// When the operation's effect window closed; never, for a failed put.
    pub fn settled_ns(&self) -> Option<u64> {
        (self.ended != Ended::Failed).then_some(self.end_ns)
    }
}

/// Cut no segment shorter than this; the checker's cap is 128.
const SEG_MIN: usize = 48;

/// Split one key's operations into independently checkable segments.
pub fn segments(mut ops: Vec<Obs>) -> Vec<Vec<Obs>> {
    // A failed get observed nothing and constrains nothing.
    ops.retain(|o| o.put || o.ended != Ended::Failed);
    ops.sort_by_key(|o| (o.start_ns, o.client, o.seq));
    let mut out = Vec::new();
    let mut seg: Vec<Obs> = Vec::new();
    let mut busy_until = 0u64; // latest completion of any op so far
    let mut puts_busy_until = 0u64; // latest completion of any put so far
    let mut settled_put: Option<usize> = None; // latest put, if it overlapped no other
    for i in 0..ops.len() {
        let op = &ops[i];
        let end = op.settled_ns().unwrap_or(u64::MAX);
        if op.put {
            let alone = op.ok() && op.start_ns > puts_busy_until;
            settled_put = alone.then_some(i);
            puts_busy_until = puts_busy_until.max(end);
        }
        busy_until = busy_until.max(end);
        seg.push(op.clone());
        let quiet = ops
            .get(i + 1)
            .is_some_and(|next| next.start_ns > busy_until);
        if let (true, true, Some(p)) = (quiet, seg.len() >= SEG_MIN, settled_put) {
            out.push(std::mem::replace(&mut seg, vec![ops[p].clone()]));
        }
    }
    out.push(seg);
    out
}

/// All checks over one cluster's observations. `linearize` is the
/// repository's checker behind `sut`; it returns one line per violation.
pub fn violations(obs: Vec<Obs>, linearize: impl Fn(&[Obs]) -> Vec<String>) -> Vec<String> {
    let mut bad = Vec::new();
    let mut by_key: BTreeMap<String, Vec<Obs>> = BTreeMap::new();
    for o in obs {
        // Every key is preloaded and every value is OBJ_BYTES long.
        if !o.put {
            match (o.ended, &o.bytes) {
                (Ended::Ok, Some(b)) if b.len() == OBJ_BYTES => {}
                // A failed get is not a wrong output; it is counted as failed.
                (Ended::Failed, _) => {}
                (ended, b) => bad.push(format!(
                    "get {}#{} of {:?}: {ended:?} with {:?} bytes, want {OBJ_BYTES}",
                    o.client,
                    o.seq,
                    o.key,
                    b.as_ref().map(Vec::len)
                )),
            }
        }
        by_key.entry(o.key.clone()).or_default().push(o);
    }
    for (_, ops) in by_key {
        for seg in segments(ops) {
            bad.extend(linearize(&seg));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64, put: bool, invoke: u64, complete: u64) -> Obs {
        Obs {
            client: 1,
            seq,
            put,
            key: "k".into(),
            start_ns: invoke,
            end_ns: complete,
            ended: Ended::Ok,
            bytes: Some(vec![seq as u8; OBJ_BYTES]),
        }
    }

    #[test]
    fn a_long_sequential_history_is_cut_at_settled_points() {
        // 300 back-to-back ops, every third a put.
        let ops: Vec<Obs> = (0..300u64)
            .map(|i| op(i, i % 3 == 0, 10 * i + 1, 10 * i + 9))
            .collect();
        let segs = segments(ops);
        assert!(segs.len() >= 5, "{}", segs.len());
        assert!(segs.iter().all(|s| s.len() <= 128));
        // Each later segment starts with the latest put of the one before.
        for w in segs.windows(2) {
            let last_put = w[0].iter().rev().find(|o| o.put);
            assert_eq!(last_put, w[1].first());
        }
        let total: usize = segs.iter().map(Vec::len).sum();
        assert_eq!(total, 300 + segs.len() - 1);
    }

    #[test]
    fn one_put_and_hundreds_of_gets_still_fit_the_checker() {
        let mut ops = vec![op(0, true, 1, 5)];
        ops.extend((1..400u64).map(|i| op(i, false, 10 * i + 1, 10 * i + 9)));
        let segs = segments(ops);
        assert!(segs.iter().all(|s| s.len() <= 128 && s[0].put));
    }

    #[test]
    fn no_cut_while_anything_overlaps_or_after_a_failed_put() {
        // Every op overlaps the one after it: the key is never quiet.
        let ops: Vec<Obs> = (0..200u64)
            .map(|i| op(i, i % 2 == 0, 10 * i, 10 * i + 15))
            .collect();
        assert_eq!(segments(ops).len(), 1);
        // The latest put overlapped another put: its value may not be the
        // register's, so quiet gaps after it still cut nothing...
        let mut ops = vec![op(0, true, 1, 20), op(1, true, 10, 30)];
        ops.extend((2..100u64).map(|i| op(i, false, 100 * i, 100 * i + 9)));
        assert_eq!(segments(ops.clone()).len(), 1);
        // ...until a later put runs alone.
        ops.push(op(100, true, 20_000, 20_009));
        ops.extend((101..200u64).map(|i| op(i, false, 100 * i + 20_000, 100 * i + 20_009)));
        let segs = segments(ops);
        assert!(segs.len() > 1);
        assert_eq!(segs[1][0].seq, 100);
        // A failed put keeps its window open for good.
        let mut ops: Vec<Obs> = (0..200u64)
            .map(|i| op(i, true, 10 * i + 1, 10 * i + 9))
            .collect();
        ops[0].ended = Ended::Failed;
        assert_eq!(segments(ops).len(), 1);
    }

    #[test]
    fn short_or_missing_get_values_are_violations() {
        let mut g = op(1, false, 1, 2);
        g.bytes = Some(vec![0; 10]);
        let mut nf = op(2, false, 3, 4);
        nf.ended = Ended::NotFound;
        nf.bytes = None;
        let bad = violations(vec![op(0, true, 0, 0), g, nf], |_| Vec::new());
        assert_eq!(bad.len(), 2, "{bad:?}");
        let bad = violations(vec![op(0, false, 1, 2)], |_| vec!["x".into()]);
        assert_eq!(bad, vec!["x".to_string()]);
    }
}
