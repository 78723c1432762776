//! The time-ordered work queue both hosts run on.
//!
//! [`Scheduler`] orders entries by `(at, seq)`, where `seq` counts every
//! push, so entries due at the same time come out in push order. The
//! simulator queues every event in one; the UDP runtime queues each
//! node's timers in one.
//!
//! One binary heap orders 24-byte `(at, seq, slot)` keys; the payloads
//! sit in a slab with a free list, so a sift moves only keys however
//! large an entry is.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// `(at, seq, slot)`, reversed so the max-heap yields the earliest.
/// `seq` is unique, so `slot` never decides an order.
type Key = Reverse<(Time, u64, usize)>;

/// A time-ordered queue of `E`s: earliest `at` first, push order among
/// equal `at`s.
pub struct Scheduler<E> {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
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
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// The earliest entry, if it is due at or before `limit`.
    pub fn pop_due(&mut self, limit: Time) -> Option<(Time, E)> {
        let Reverse((at, _, slot)) = *self.heap.peek()?;
        if at > limit {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        // `push` filled this slot; only a popped key empties it.
        let ev = self.slab.get_mut(slot)?.take()?;
        Some((at, ev))
    }

    /// When the earliest entry comes due.
    pub fn next_deadline(&self) -> Option<Time> {
        self.heap.peek().map(|k| k.0 .0)
    }

    /// Drop every queued entry.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_workload::XorShiftRng;

    /// A plain `(at, seq)` heap: the order the slab must not change.
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
        assert_eq!(s.heap.len(), 0);
    }

    #[test]
    fn pop_due_stops_at_the_limit() {
        let mut s = Scheduler::new();
        s.push(Time::from_us(3), 1u64);
        s.push(Time::from_us(7), 2);
        assert_eq!(s.pop_due(Time::from_us(2)), None);
        assert_eq!(s.pop_due(Time::from_us(3)), Some((Time::from_us(3), 1)));
        assert_eq!(s.pop_due(Time::from_us(6)), None);
        assert_eq!(s.heap.len(), 1);
        s.clear();
        assert_eq!(s.next_deadline(), None);
        assert_eq!(s.pop_due(Time::MAX), None);
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
                        let offset = match rng.random_range(0u32..4) {
                            0 => Time::ZERO,
                            1 => Time::from_secs(2) + Time::from_us(rng.random_range(0..1000)),
                            2 => Time::from_us(rng.random_range(0..300_000)),
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
                assert_eq!(s.heap.len(), o.heap.len(), "case {case} step {step}");
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
