//! The time-ordered work queue both hosts run on.
//!
//! [`Scheduler`] orders entries by `(at, seq)`, where `seq` counts every
//! push, so entries due at the same time come out in push order. The
//! simulator queues every event in one; the UDP runtime queues each
//! node's timers in one.
//!
//! Payloads sit in a slab with a free list; the heaps move only 24-byte
//! `(at, seq, slot)` keys. There are two heaps. An entry due more than
//! [`FAR`] after the last popped time waits in the far heap; every other
//! entry waits in the near heap. [`Scheduler::pop_due`] takes the smaller
//! of the two tops, so the pop order is the one a single heap would
//! give: the tier decides only where an entry waits, never when it
//! leaves. What the tier buys is that long timers armed in rising order
//! (client retry timers, mostly for operations that completed long
//! before they would fire) cost O(1) to push and stay out of the path
//! of every short-lived packet and tick.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// How far past the last popped time an entry must be due to wait in
/// the far heap.
const FAR: Time = Time::from_ms(100);

/// `(at, seq, slot)`, reversed so the max-heap yields the earliest.
/// `seq` is unique, so `slot` never decides an order.
type Key = Reverse<(Time, u64, usize)>;

/// A time-ordered queue of `E`s: earliest `at` first, push order among
/// equal `at`s.
pub struct Scheduler<E> {
    near: BinaryHeap<Key>,
    far: BinaryHeap<Key>,
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
    /// `at` of the last popped entry: the near/far boundary is `FAR`
    /// past it.
    last: Time,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            last: Time::ZERO,
        }
    }
}

impl<E> Scheduler<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `ev` to come due at `at`.
    pub fn push(&mut self, at: Time, ev: E) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if let Some(cell) = self.slab.get_mut(slot) {
            *cell = Some(ev);
        }
        let key = Reverse((at, self.seq, slot));
        self.seq += 1;
        if at.saturating_sub(self.last) > FAR {
            self.far.push(key);
        } else {
            self.near.push(key);
        }
    }

    /// The earliest entry, if it is due at or before `limit`.
    pub fn pop_due(&mut self, limit: Time) -> Option<(Time, E)> {
        // `Reverse` flips the order: the greater key is the earlier.
        let heap = match (self.near.peek(), self.far.peek()) {
            (Some(near), Some(far)) if far > near => &mut self.far,
            (None, Some(_)) => &mut self.far,
            _ => &mut self.near,
        };
        let Reverse((at, _, slot)) = *heap.peek()?;
        if at > limit {
            return None;
        }
        heap.pop();
        self.last = at;
        self.free.push(slot);
        // `push` filled this slot; only a popped key empties it.
        let ev = self.slab.get_mut(slot)?.take()?;
        Some((at, ev))
    }

    /// When the earliest entry comes due.
    pub fn next_deadline(&self) -> Option<Time> {
        let at = |k: &Key| k.0 .0;
        match (self.near.peek().map(at), self.far.peek().map(at)) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (n, f) => n.or(f),
        }
    }

    /// Drop every queued entry.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_workload::XorShiftRng;

    /// The one-heap queue the scheduler must be indistinguishable from.
    #[derive(Default)]
    struct Oracle {
        heap: BinaryHeap<Reverse<(Time, u64)>>,
        seq: u64,
    }

    impl Oracle {
        /// Payloads are the push order, so the popped `(at, seq)` pairs
        /// are the popped `(at, payload)` pairs.
        fn push(&mut self, at: Time) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq)));
            seq
        }

        fn pop_due(&mut self, limit: Time) -> Option<(Time, u64)> {
            let Reverse((at, seq)) = *self.heap.peek()?;
            if at > limit {
                return None;
            }
            self.heap.pop();
            Some((at, seq))
        }

        fn next_deadline(&self) -> Option<Time> {
            self.heap.peek().map(|k| k.0 .0)
        }
    }

    fn queued(s: &Scheduler<u64>) -> usize {
        s.near.len() + s.far.len()
    }

    fn drain(s: &mut Scheduler<u64>) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| s.pop_due(Time::MAX)).collect()
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut s = Scheduler::new();
        for i in 0..5 {
            s.push(Time::from_us(10), i);
        }
        s.push(Time::from_us(5), 99);
        assert_eq!(s.next_deadline(), Some(Time::from_us(5)));
        let order: Vec<u64> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![99, 0, 1, 2, 3, 4]);
        assert_eq!(queued(&s), 0);
    }

    #[test]
    fn pop_due_stops_at_the_limit() {
        let mut s = Scheduler::new();
        s.push(Time::from_us(3), 1u64);
        s.push(Time::from_us(7), 2);
        assert_eq!(s.pop_due(Time::from_us(2)), None);
        assert_eq!(s.pop_due(Time::from_us(3)), Some((Time::from_us(3), 1)));
        assert_eq!(s.pop_due(Time::from_us(6)), None);
        assert_eq!(queued(&s), 1);
        s.clear();
        assert_eq!(s.next_deadline(), None);
        assert_eq!(s.pop_due(Time::MAX), None);
    }

    #[test]
    fn a_far_entry_due_before_later_near_entries_pops_first() {
        let mut s = Scheduler::new();
        // Far from t = 0; near once the clock has moved up to it.
        s.push(FAR + Time::from_ms(1), 0u64);
        s.push(FAR, 1);
        assert_eq!(s.pop_due(FAR), Some((FAR, 1)));
        s.push(FAR + Time::from_ms(2), 2);
        s.push(FAR + Time::from_ms(3), 3);
        assert_eq!(s.far.len(), 1, "the first entry waits in the far heap");
        assert_eq!(s.near.len(), 2);
        let order: Vec<u64> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 2, 3]);
    }

    #[test]
    fn equal_times_split_across_the_tiers_pop_in_push_order() {
        let mut s = Scheduler::new();
        let at = FAR + Time::from_ms(50);
        s.push(at, 0u64); // far: more than FAR past t = 0
        s.push(at, 1);
        s.push(Time::from_ms(60), 2);
        assert_eq!(s.pop_due(Time::from_ms(60)), Some((Time::from_ms(60), 2)));
        s.push(at, 3); // near: now within FAR of the last pop
        s.push(at, 4);
        assert_eq!((s.far.len(), s.near.len()), (2, 2));
        let order: Vec<u64> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 3, 4]);
    }

    /// Random interleavings of push / pop_due / clear pop exactly what a
    /// single `(at, seq)` heap pops.
    #[test]
    fn matches_a_one_heap_oracle() {
        for case in 0..200u64 {
            let mut rng = XorShiftRng::seed_from_u64(case);
            let mut s = Scheduler::new();
            let mut o = Oracle::default();
            let mut now = Time::ZERO;
            for step in 0..400 {
                match rng.random_range(0u32..20) {
                    0..=11 => {
                        let offset = match rng.random_range(0u32..7) {
                            0 => Time::ZERO,
                            1 => FAR,
                            2 => FAR.saturating_sub(Time::from_ns(1)),
                            3 => FAR + Time::from_ns(1),
                            4 => Time::from_secs(2) + Time::from_us(rng.random_range(0..1000)),
                            5 => Time::from_us(rng.random_range(0..300_000)),
                            // Equal times: reuse the oracle's next deadline.
                            _ => o
                                .next_deadline()
                                .map_or(Time::ZERO, |t| t.saturating_sub(now)),
                        };
                        let at = now + offset;
                        let id = o.push(at);
                        s.push(at, id);
                    }
                    12..=18 => {
                        let limit = now + Time::from_us(rng.random_range(0..400_000));
                        loop {
                            let got = s.pop_due(limit);
                            assert_eq!(got, o.pop_due(limit), "case {case} step {step}");
                            let Some((at, _)) = got else {
                                now = limit;
                                break;
                            };
                            now = at;
                            if rng.random_range(0u32..3) == 0 {
                                break;
                            }
                        }
                    }
                    _ => {
                        s.clear();
                        o.heap.clear();
                    }
                }
                assert_eq!(queued(&s), o.heap.len(), "case {case} step {step}");
                assert_eq!(
                    s.next_deadline(),
                    o.next_deadline(),
                    "case {case} step {step}"
                );
            }
            assert_eq!(
                drain(&mut s),
                std::iter::from_fn(|| o.pop_due(Time::MAX)).collect::<Vec<_>>()
            );
        }
    }
}
