//! The fault vocabulary both hosts share.
//!
//! A [`FaultPlan`] is a seeded, declarative, host-agnostic description
//! of network and node faults: per-packet loss, duplication and extra
//! delay inside one window, link partitions between address sets, and
//! node crash/restart windows. It is a pure value; each host applies it
//! in its own way:
//!
//! - the simulator judges every packet at its single delivery choke
//!   point, drawing from one XorShift stream in event order
//!   (`nice_sim::fault::FaultState`), and schedules the outages itself
//!   (`Simulation::install_fault_plan`);
//! - the real runtime judges every datagram on the send side with a
//!   pure per-frame hash ([`crate::nemesis::Nemesis`]); the harness
//!   drives the outages.
//!
//! Deterministic verdicts (partitions, the window edges, certain loss)
//! agree between the two; probabilistic draws differ by design.

use std::ops::Range;

use crate::net::Ipv4;
use crate::time::Time;

/// A scheduled crash and restart of a node, as an index into the node
/// list of whoever applies the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Index into the applier's storage-node list.
    pub node: usize,
    /// Absolute crash time.
    pub down: Time,
    /// Absolute restart time.
    pub up: Time,
}

/// A bidirectional link partition between two address sets: packets
/// with source in one set and destination in the other are dropped
/// while the window `[from, until)` is open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<Ipv4>,
    /// The other side of the cut.
    pub b: Vec<Ipv4>,
    /// Partition start (inclusive).
    pub from: Time,
    /// Partition end (exclusive).
    pub until: Time,
}

impl Partition {
    /// Does this partition drop a packet from `src` to `dst` at `at`?
    pub fn severs(&self, at: Time, src: Ipv4, dst: Ipv4) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        (self.a.contains(&src) && self.b.contains(&dst))
            || (self.b.contains(&src) && self.a.contains(&dst))
    }
}

/// A deterministic, replayable fault schedule. Build one with the
/// fluent API; install it with `Simulation::install_fault_plan` on the
/// simulator or as `UdpHostCfg::nemesis` on the real runtime.
///
/// ```
/// use node_rt::{FaultPlan, Time};
/// let plan = FaultPlan::new(7)
///     .loss(0.05)
///     .duplication(0.01)
///     .extra_delay(0.02, Time::from_ms(2))
///     .window(Time::from_ms(100), Time::MAX);
/// assert_eq!(plan.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The determinism seed every verdict derives from.
    pub seed: u64,
    /// Drop probability of each packet inside the window.
    pub loss: f64,
    /// Duplication probability of each delivered packet inside the window.
    pub dup: f64,
    /// Extra-delay probability of each delivered packet inside the window.
    pub delay_prob: f64,
    /// Upper bound of an extra delay (drawn from `(0, delay_max]`).
    pub delay_max: Time,
    /// Where loss, duplication and delay apply: start inclusive, end
    /// exclusive. Partitions and outages carry their own windows.
    pub window: Range<Time>,
    /// Link cuts, checked before the window.
    pub partitions: Vec<Partition>,
    /// Node crash/restart windows. The simulator schedules them; on the
    /// real runtime the harness drives them from this same list.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// A plan with no faults, drawing from `seed`, whose window is
    /// always open.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss: 0.0,
            dup: 0.0,
            delay_prob: 0.0,
            delay_max: Time::ZERO,
            window: Time::ZERO..Time::MAX,
            partitions: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Drop each packet independently with probability `p`.
    pub fn loss(mut self, p: f64) -> FaultPlan {
        self.loss = p;
        self
    }

    /// Duplicate each delivered packet with probability `p`.
    pub fn duplication(mut self, p: f64) -> FaultPlan {
        self.dup = p;
        self
    }

    /// With probability `p`, delay a delivered packet by an extra amount
    /// drawn uniformly from `(0, max]`.
    pub fn extra_delay(mut self, p: f64, max: Time) -> FaultPlan {
        self.delay_prob = p;
        self.delay_max = max;
        self
    }

    /// Restrict loss, duplication and delay to `[from, until)`.
    pub fn window(mut self, from: Time, until: Time) -> FaultPlan {
        self.window = from..until;
        self
    }

    /// Sever traffic between address sets `a` and `b` during
    /// `[from, until)`.
    pub fn partition(
        mut self,
        a: impl Into<Vec<Ipv4>>,
        b: impl Into<Vec<Ipv4>>,
        from: Time,
        until: Time,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            a: a.into(),
            b: b.into(),
            from,
            until,
        });
        self
    }

    /// Crash node `node` at `down` and restart it at `up`.
    pub fn outage(mut self, node: usize, down: Time, up: Time) -> FaultPlan {
        self.outages.push(Outage { node, down, up });
        self
    }
}
