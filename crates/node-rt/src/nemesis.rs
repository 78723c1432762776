//! Socket-level fault injection for the real UDP runtime.
//!
//! The simulator injects faults at its single delivery choke point; the
//! real runtime has no such point — every node thread writes straight
//! to its own socket. [`NemesisUdp`] restores one: it wraps the
//! loopback socket and applies the shared [`FaultPlan`] on the send
//! side, deterministically per `(src, dst, payload-hash)` — the same
//! frame between the same pair always draws the same verdict — so a
//! storm is reproducible up to thread scheduling while remaining real
//! UDP on the wire (loss means the datagram is never written,
//! duplication means two writes, delay means a deferred write). The
//! plan's outages are not applied here: the harness crashes and
//! restarts nodes from the same `plan.outages`.
//!
//! [`FaultStats`] counts what the verdicts actually did.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nice_workload::splitmix64;

use crate::fault::FaultPlan;
use crate::net::Ipv4;
use crate::time::Time;

/// What the plan decided for one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Write it to the socket.
    Deliver,
    /// Never write it.
    Drop,
    /// Write it twice.
    Duplicate,
    /// Write it after this extra delay.
    Delay(Time),
}

/// 64-bit FNV-1a over the frame bytes: the payload half of the
/// `(src, dst, payload-hash)` verdict key.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A [`FaultPlan`] armed for the socket: its probabilities converted
/// once to parts-per-million so each verdict is pure integer arithmetic
/// on the hash draw.
#[derive(Debug)]
pub struct Nemesis {
    plan: FaultPlan,
    loss_ppm: u32,
    dup_ppm: u32,
    delay_ppm: u32,
}

impl Nemesis {
    /// Arm `plan`.
    pub fn new(plan: FaultPlan) -> Nemesis {
        let ppm = |p: f64| (p * 1e6) as u32;
        Nemesis {
            loss_ppm: ppm(plan.loss),
            dup_ppm: ppm(plan.dup),
            delay_ppm: ppm(plan.delay_prob),
            plan,
        }
    }

    /// The plan's verdict for one frame from `src` to `dst` at `now`.
    /// Pure: the same `(seed, src, dst, frame)` always draws the same
    /// verdict; `now` only gates the partition and fault windows.
    pub fn verdict(&self, now: Time, src: Ipv4, dst: Ipv4, frame: &[u8]) -> Verdict {
        if self.plan.partitions.iter().any(|p| p.severs(now, src, dst)) {
            return Verdict::Drop;
        }
        if !self.plan.window.contains(&now) {
            return Verdict::Deliver;
        }
        let key = splitmix64(
            self.plan.seed
                ^ splitmix64(u64::from(src.0))
                ^ splitmix64(u64::from(dst.0).rotate_left(32))
                ^ fnv1a64(frame),
        );
        let draw = (key % 1_000_000) as u32;
        if draw < self.loss_ppm {
            return Verdict::Drop;
        }
        if draw < self.loss_ppm.saturating_add(self.dup_ppm) {
            return Verdict::Duplicate;
        }
        let delay_edge = self
            .loss_ppm
            .saturating_add(self.dup_ppm)
            .saturating_add(self.delay_ppm);
        if draw < delay_edge && self.plan.delay_max > Time::ZERO {
            let ns = 1 + splitmix64(key) % self.plan.delay_max.as_ns().max(1);
            return Verdict::Delay(Time(ns));
        }
        Verdict::Deliver
    }
}

/// Shared counters of what the nemesis actually did (all node threads
/// bump the same instance).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Datagrams written to a socket (including duplicates).
    pub sent: AtomicU64,
    /// Datagrams dropped by verdict or partition.
    pub dropped: AtomicU64,
    /// Datagrams written twice.
    pub duplicated: AtomicU64,
    /// Datagrams deferred by a delay verdict.
    pub delayed: AtomicU64,
}

impl FaultStats {
    /// Render the counters as one stable `key=value` line (archived by
    /// the `runtime-chaos` check tier).
    pub fn render(&self) -> String {
        format!(
            "nemesis sent={} dropped={} duplicated={} delayed={}",
            self.sent.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }
}

/// The loopback socket behind one node, with the fault plan applied on
/// every send. Without a plan it is a transparent passthrough.
#[derive(Debug)]
pub struct NemesisUdp {
    socket: UdpSocket,
    plan: Option<Arc<Nemesis>>,
    stats: Arc<FaultStats>,
    /// Delay-verdict frames awaiting their deadline, keyed by
    /// `(deliver-at ns, arm order)`.
    delayed: BTreeMap<(u64, u64), (Vec<u8>, SocketAddr)>,
    delay_seq: u64,
}

impl NemesisUdp {
    /// Wrap `socket`; `plan = None` disables injection entirely.
    pub fn new(
        socket: UdpSocket,
        plan: Option<Arc<Nemesis>>,
        stats: Arc<FaultStats>,
    ) -> NemesisUdp {
        NemesisUdp {
            socket,
            plan,
            stats,
            delayed: BTreeMap::new(),
            delay_seq: 0,
        }
    }

    /// Send `frame` from `src` to the resolved `addr` of `dst`, subject
    /// to the plan's verdict at `now`.
    pub fn send_to(&mut self, frame: &[u8], addr: SocketAddr, src: Ipv4, dst: Ipv4, now: Time) {
        let verdict = match &self.plan {
            None => Verdict::Deliver,
            Some(p) => p.verdict(now, src, dst, frame),
        };
        match verdict {
            Verdict::Deliver => {
                self.stats.sent.fetch_add(1, Ordering::Relaxed);
                let _ = self.socket.send_to(frame, addr);
            }
            Verdict::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Duplicate => {
                self.stats.sent.fetch_add(2, Ordering::Relaxed);
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                let _ = self.socket.send_to(frame, addr);
                let _ = self.socket.send_to(frame, addr);
            }
            Verdict::Delay(d) => {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.delay_seq += 1;
                let at = now.as_ns().saturating_add(d.as_ns());
                self.delayed
                    .insert((at, self.delay_seq), (frame.to_vec(), addr));
            }
        }
    }

    /// Write every delayed frame whose deadline has passed.
    pub fn flush_due(&mut self, now: Time) {
        loop {
            let Some((&(at, seq), _)) = self.delayed.first_key_value() else {
                return;
            };
            if at > now.as_ns() {
                return;
            }
            if let Some((frame, addr)) = self.delayed.remove(&(at, seq)) {
                self.stats.sent.fetch_add(1, Ordering::Relaxed);
                let _ = self.socket.send_to(&frame, addr);
            }
        }
    }

    /// Deadline (ns) of the earliest delayed frame, if any — the event
    /// loop bounds its blocking receive by this.
    pub fn next_due(&self) -> Option<u64> {
        self.delayed.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Receive into `buf` (plain passthrough; faults are send-side).
    pub fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        self.socket.recv_from(buf)
    }

    /// Bound the next blocking receive.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.socket.set_read_timeout(dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Nemesis {
        Nemesis::new(
            FaultPlan::new(42)
                .loss(0.2)
                .duplication(0.1)
                .extra_delay(0.1, Time::from_ms(2))
                .window(Time::from_ms(100), Time::from_secs(10)),
        )
    }

    fn addrs() -> (Ipv4, Ipv4) {
        (Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2))
    }

    #[test]
    fn verdicts_are_deterministic_per_key() {
        let p = plan();
        let (a, b) = addrs();
        let now = Time::from_secs(1);
        for frame in [b"hello".as_slice(), b"world", b"x", b""] {
            let v1 = p.verdict(now, a, b, frame);
            let v2 = p.verdict(now, a, b, frame);
            assert_eq!(v1, v2, "same key, same verdict");
        }
    }

    #[test]
    fn verdict_mix_covers_all_outcomes_at_plan_rates() {
        let p = plan();
        let (a, b) = addrs();
        let now = Time::from_secs(1);
        let (mut drops, mut dups, mut delays, mut delivers) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..2_000u32 {
            match p.verdict(now, a, b, &i.to_be_bytes()) {
                Verdict::Drop => drops += 1,
                Verdict::Duplicate => dups += 1,
                Verdict::Delay(d) => {
                    assert!(d > Time::ZERO && d <= Time::from_ms(2));
                    delays += 1;
                }
                Verdict::Deliver => delivers += 1,
            }
        }
        // 20% / 10% / 10% nominal rates over 2,000 draws: generous bands.
        assert!((200..=600).contains(&drops), "drops={drops}");
        assert!((80..=350).contains(&dups), "dups={dups}");
        assert!((80..=350).contains(&delays), "delays={delays}");
        assert!(delivers >= 1000, "delivers={delivers}");
    }

    #[test]
    fn delayed_frames_flush_in_deadline_order() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let rx_addr = rx.local_addr().expect("rx addr");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let stats = Arc::new(FaultStats::default());
        // A plan that delays everything inside its window.
        let plan = FaultPlan::new(7).extra_delay(1.0, Time::from_ms(1));
        let (a, b) = addrs();
        let plan = Some(Arc::new(Nemesis::new(plan)));
        let mut nem = NemesisUdp::new(tx, plan, Arc::clone(&stats));
        nem.send_to(b"first", rx_addr, a, b, Time::from_ms(10));
        assert_eq!(stats.delayed.load(Ordering::Relaxed), 1);
        assert!(nem.next_due().is_some());
        // Not due yet: nothing flushes.
        nem.flush_due(Time::from_ms(10));
        assert!(nem.next_due().is_some());
        // Past every possible deadline: the frame goes out.
        nem.flush_due(Time::from_ms(20));
        assert!(nem.next_due().is_none());
        rx.set_read_timeout(Some(Duration::from_secs(2))).ok();
        let mut buf = [0u8; 16];
        let (n, _) = rx.recv_from(&mut buf).expect("delayed frame arrives");
        assert_eq!(&buf[..n], b"first");
        assert_eq!(stats.sent.load(Ordering::Relaxed), 1);
    }
}
