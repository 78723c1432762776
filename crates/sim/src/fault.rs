//! Deterministic fault injection: the simulator's applier of the shared
//! [`FaultPlan`].
//!
//! The plan type itself is host-agnostic and lives in `node_rt::fault`
//! (re-exported here); the real runtime applies the same value on its
//! sockets. The simulator applies it at a **single choke point** —
//! every packet enqueue onto a channel goes through
//! [`Simulation::channel_enqueue`], whether it came from a host NIC, a
//! switch forwarding action, or a controller injection — so NICE, NOOB,
//! and the flow controller all run under the same plan without code
//! changes. ARP is spared from loss, duplication and delay.
//!
//! Determinism: all random draws come from one in-tree
//! [`XorShiftRng`] seeded from the plan seed, consumed in event order by
//! the (single-threaded, deterministically ordered) event loop. The same
//! seed therefore produces a byte-identical fault trace
//! ([`Simulation::fault_trace`]) and an identical simulation outcome —
//! `crates/sim/tests` and the nicekv fault suites assert this.
//!
//! [`Simulation::channel_enqueue`]: crate::Simulation
//! [`Simulation::fault_trace`]: crate::Simulation::fault_trace

use std::fmt;

use nice_workload::{Rng, XorShiftRng};

pub use node_rt::fault::{FaultPlan, Outage, Partition};

use crate::net::{Ipv4, Packet, Proto};
use crate::time::Time;

/// What kind of fault fired for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Dropped by the random-loss draw.
    Loss,
    /// Dropped by an open partition window.
    Partition,
    /// Delivered twice.
    Duplicate,
    /// Delivered with extra latency.
    Delay(Time),
}

/// One entry of the fault trace: a fault that fired, with enough packet
/// identity to make traces comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the packet hit the choke point.
    pub at: Time,
    /// The fault applied.
    pub kind: FaultKind,
    /// Packet source IP.
    pub src: Ipv4,
    /// Packet destination IP.
    pub dst: Ipv4,
    /// Packet wire size in bytes.
    pub wire: u32,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FaultKind::Loss => "loss".to_string(),
            FaultKind::Partition => "partition".to_string(),
            FaultKind::Duplicate => "dup".to_string(),
            FaultKind::Delay(d) => format!("delay+{}", d.as_ns()),
        };
        write!(
            f,
            "{} {} {}->{} {}B",
            self.at.as_ns(),
            kind,
            self.src,
            self.dst,
            self.wire
        )
    }
}

/// Counters over every packet the injector inspected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets that reached the choke point.
    pub inspected: u64,
    /// Packets dropped by the loss draw.
    pub lost: u64,
    /// Packets dropped by a partition.
    pub partitioned: u64,
    /// Packets duplicated.
    pub duplicated: u64,
    /// Packets given extra delay.
    pub delayed: u64,
}

/// The per-packet verdict of the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// How many copies to enqueue: 0 (dropped), 1, or 2 (duplicated).
    pub copies: u32,
    /// Extra latency added to each copy's arrival.
    pub extra_delay: Time,
}

impl Verdict {
    /// The no-fault verdict: one copy, no extra delay.
    pub const CLEAN: Verdict = Verdict {
        copies: 1,
        extra_delay: Time::ZERO,
    };
}

/// Runtime state of an installed [`FaultPlan`]: the plan, its RNG
/// stream, counters, and the replayable trace.
pub struct FaultState {
    plan: FaultPlan,
    rng: XorShiftRng,
    stats: FaultStats,
    trace: Vec<FaultRecord>,
}

impl FaultState {
    /// Instantiate the runtime state for `plan`.
    pub fn new(plan: FaultPlan) -> FaultState {
        // Premix the plan seed away from the per-host RNG streams so a
        // plan seeded equal to the simulation seed still draws an
        // independent sequence.
        let rng = XorShiftRng::seed_from_u64(plan.seed ^ 0x0FA0_17D1_5ACE_5EED_u64);
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
            trace: Vec::new(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Render the trace one record per line — byte-identical across
    /// same-seed runs (asserted by tests).
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for r in &self.trace {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    fn record(&mut self, at: Time, kind: FaultKind, pkt: &Packet) {
        self.trace.push(FaultRecord {
            at,
            kind,
            src: pkt.src,
            dst: pkt.dst,
            wire: pkt.wire_size,
        });
    }

    /// Judge one packet at the choke point. Draws from the plan RNG in
    /// event order; partitions are checked first (no draw), then the
    /// window, then loss, duplication, and delay.
    pub fn judge(&mut self, at: Time, pkt: &Packet) -> Verdict {
        self.stats.inspected += 1;
        for i in 0..self.plan.partitions.len() {
            if self.plan.partitions[i].severs(at, pkt.src, pkt.dst) {
                self.stats.partitioned += 1;
                self.record(at, FaultKind::Partition, pkt);
                return Verdict {
                    copies: 0,
                    extra_delay: Time::ZERO,
                };
            }
        }
        if !self.plan.window.contains(&at) {
            return Verdict::CLEAN;
        }
        // ARP is spared so address resolution (gratuitous ARPs at boot)
        // cannot be permanently lost — the protocols under test ride
        // UDP/TCP.
        if pkt.proto == Proto::Arp {
            return Verdict::CLEAN;
        }
        if self.plan.loss > 0.0 && self.rng.random_f64() < self.plan.loss {
            self.stats.lost += 1;
            self.record(at, FaultKind::Loss, pkt);
            return Verdict {
                copies: 0,
                extra_delay: Time::ZERO,
            };
        }
        let mut v = Verdict::CLEAN;
        if self.plan.dup > 0.0 && self.rng.random_f64() < self.plan.dup {
            self.stats.duplicated += 1;
            self.record(at, FaultKind::Duplicate, pkt);
            v.copies = 2;
        }
        if self.plan.delay_prob > 0.0
            && self.plan.delay_max > Time::ZERO
            && self.rng.random_f64() < self.plan.delay_prob
        {
            let ns = self.rng.random_range(0..self.plan.delay_max.as_ns()) + 1;
            let d = Time::from_ns(ns);
            self.stats.delayed += 1;
            self.record(at, FaultKind::Delay(d), pkt);
            v.extra_delay = d;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn pkt(src: Ipv4, dst: Ipv4) -> Packet {
        Packet::udp(src, crate::net::Mac(1), dst, 1, 2, 100, Rc::new(0u32))
    }

    #[test]
    fn clean_plan_never_faults() {
        let mut st = FaultState::new(FaultPlan::new(1));
        let p = pkt(Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
        for i in 0..1000 {
            assert_eq!(st.judge(Time::from_us(i), &p), Verdict::CLEAN);
        }
        assert_eq!(st.stats().inspected, 1000);
        assert!(st.render_trace().is_empty());
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut st = FaultState::new(FaultPlan::new(2).loss(0.2));
        let p = pkt(Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
        let mut dropped = 0;
        for i in 0..10_000 {
            if st.judge(Time::from_us(i), &p).copies == 0 {
                dropped += 1;
            }
        }
        assert!((1500..2500).contains(&dropped), "{dropped}");
        assert_eq!(st.stats().lost, dropped);
    }

    #[test]
    fn arp_is_spared() {
        let arp = Packet::arp_request(
            Ipv4::new(10, 0, 0, 1),
            crate::net::Mac(1),
            Ipv4::new(10, 0, 0, 2),
        );
        let mut spared = FaultState::new(FaultPlan::new(5).loss(1.0));
        assert_eq!(spared.judge(Time::ZERO, &arp).copies, 1);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .loss(0.1)
                .duplication(0.1)
                .extra_delay(0.1, Time::from_us(50));
            let mut st = FaultState::new(plan);
            let p = pkt(Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
            for i in 0..5000 {
                st.judge(Time::from_us(i), &p);
            }
            st.render_trace()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn duplicate_and_delay_stack() {
        let plan = FaultPlan::new(6)
            .duplication(1.0)
            .extra_delay(1.0, Time::from_us(10));
        let mut st = FaultState::new(plan);
        let p = pkt(Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
        let v = st.judge(Time::ZERO, &p);
        assert_eq!(v.copies, 2);
        assert!(v.extra_delay > Time::ZERO && v.extra_delay <= Time::from_us(10));
        assert_eq!(st.stats().duplicated, 1);
        assert_eq!(st.stats().delayed, 1);
    }
}
