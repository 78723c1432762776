//! The seeded nemesis: randomized fault schedules from one xorshift
//! seed, replayable byte-for-byte.
//!
//! A [`ChaosPlan`] is a *pure function of `(seed, spec)`*: node
//! crash/restart windows, link-level loss/duplication/delay intensities,
//! single-node isolations (partitions), an optional active-metadata
//! crash (driving the hot-standby takeover of §4.4), and optional admin
//! churn (add a spare / remove a node). The packet faults and the
//! crash/restart windows are held as the shared [`FaultPlan`];
//! [`ChaosPlan::fault_plan`] adds the isolations once storage addresses
//! exist, and both the simulator and the real runtime apply the result.
//! This module deliberately knows nothing about transports or topologies
//! so the same plan can drive NICE and NOOB (and the checker can blame
//! the protocol, never the schedule).
//!
//! Every fault in a plan heals before `spec.horizon`, so a run that
//! lasts comfortably past the horizon always ends with a connected,
//! fully-live cluster — histories stay non-vacuous.

use std::fmt::Write as _;

use node_rt::{FaultPlan, Ipv4, Outage, Time};

use crate::explore::{Choice, ChoiceKind, Schedule};

/// What kinds and how much chaos to draw.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Storage-node count (crash/isolation targets are drawn from it).
    pub nodes: usize,
    /// All fault activity ends by this time (downed nodes restarted,
    /// partitions healed, packet-level faults switched off).
    pub horizon: Time,
    /// Crash/restart events to draw (each on a distinct node).
    pub crashes: usize,
    /// Single-node isolation windows to draw.
    pub isolations: usize,
    /// Crash the active metadata service mid-run (NICE: the hot standby
    /// must take over).
    pub metadata_failover: bool,
    /// Queue admin churn mid-run: add a spare node, then remove a node.
    pub admin_churn: bool,
}

/// One single-node network isolation window (the node stays alive but
/// cannot reach the other storage nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationEvent {
    /// The node (storage index) to isolate.
    pub node: usize,
    /// Isolation start.
    pub from: Time,
    /// Isolation end (heals).
    pub until: Time,
}

/// Admin churn drawn into a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminEvent {
    /// Bring the provisioned spare (storage index `node`) into service.
    AddNode(usize),
    /// Decommission storage node `node`.
    RemoveNode(usize),
}

/// A fully-derived chaos schedule. See the module docs.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed, packet-fault intensities, window (ending at `spec.horizon`)
    /// and crash windows as outages. It lacks the isolations, so it stays
    /// private: the installable plan is [`ChaosPlan::fault_plan`].
    faults: FaultPlan,
    /// Node isolation windows, by storage index (a plan is drawn before
    /// any address exists).
    pub isolations: Vec<IsolationEvent>,
    /// When to crash the active metadata service, if drawn.
    pub meta_crash: Option<Time>,
    /// Timed admin operations, sorted by time.
    pub admin: Vec<(Time, AdminEvent)>,
}

/// xorshift64* — the same tiny PRNG family the simulator uses; state
/// premixed so seed 0 still works.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift((seed ^ 0xC4A0_5C4A_05C4_A05C) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`; `lo` when the range is empty.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next() % (hi - lo)
    }

    /// A time uniform in `[lo, hi)`, at microsecond granularity.
    fn time_in(&mut self, lo: Time, hi: Time) -> Time {
        Time(self.range(lo.as_ns() / 1_000, hi.as_ns() / 1_000) * 1_000)
    }
}

impl ChaosPlan {
    /// Derive the full schedule for `seed` under `spec`. Pure: the same
    /// arguments always produce the identical plan.
    pub fn generate(seed: u64, spec: &ChaosSpec) -> ChaosPlan {
        let mut rng = Xorshift::new(seed);
        // Mild packet-level background noise: enough to exercise retry
        // and duplicate-suppression paths, small against retry periods.
        let loss = rng.f64() * 0.03;
        let dup = rng.f64() * 0.01;
        let delay_prob = rng.f64() * 0.05;
        let delay_max = Time(rng.range(100_000, 2_000_000)); // 0.1–2 ms
        let mut faults = FaultPlan::new(seed)
            .loss(loss)
            .duplication(dup)
            .extra_delay(delay_prob, delay_max)
            .window(Time::from_ms(500), spec.horizon);

        // Crash windows on distinct nodes, each healing before the
        // horizon (restart leaves time for the two-phase rejoin).
        let mut pool: Vec<usize> = (0..spec.nodes).collect();
        for _ in 0..spec.crashes.min(pool.len()) {
            let node = pool.remove(rng.range(0, pool.len() as u64) as usize);
            let latest_down = Time(spec.horizon.as_ns() / 2);
            let down = rng.time_in(Time::from_ms(800), latest_down);
            let up = down + rng.time_in(Time::from_ms(500), Time::from_ms(2500));
            faults = faults.outage(node, down, up);
        }

        let mut isolations = Vec::new();
        for _ in 0..spec.isolations {
            let node = rng.range(0, spec.nodes as u64) as usize;
            let from = rng.time_in(Time::from_ms(800), Time(spec.horizon.as_ns() * 2 / 3));
            let until = from + rng.time_in(Time::from_ms(300), Time::from_ms(1500));
            isolations.push(IsolationEvent { node, from, until });
        }

        let meta_crash = spec
            .metadata_failover
            .then(|| rng.time_in(Time::from_ms(1000), Time(spec.horizon.as_ns() / 2)));

        let mut admin = Vec::new();
        if spec.admin_churn {
            // The driver provisions one spare at index `nodes`; bring it
            // in, then (later) remove an original node that is not mid-
            // crash, shrinking back to the starting capacity.
            let t_add = rng.time_in(Time::from_ms(1200), Time(spec.horizon.as_ns() / 2));
            admin.push((t_add, AdminEvent::AddNode(spec.nodes)));
            let crashed: Vec<usize> = faults.outages.iter().map(|c| c.node).collect();
            let candidates: Vec<usize> = (0..spec.nodes).filter(|n| !crashed.contains(n)).collect();
            if !candidates.is_empty() {
                let victim = candidates[rng.range(0, candidates.len() as u64) as usize];
                let t_rm = t_add + rng.time_in(Time::from_ms(500), Time::from_ms(1500));
                admin.push((t_rm, AdminEvent::RemoveNode(victim)));
            }
        }
        admin.sort_by_key(|(t, _)| *t);

        ChaosPlan {
            faults,
            isolations,
            meta_crash,
            admin,
        }
    }

    /// The plan's fault timeline as a typed [`Schedule`]: every timed
    /// event — crash, restart, isolation start/heal, metadata crash,
    /// admin churn — as a [`Choice`] in time order (ties keep the
    /// category order crashes < isolations < meta < admin). This is the
    /// same vocabulary the DPOR explorer and the interleaving sweeps
    /// use, so a chaos replay witness and an explored counterexample
    /// render in one notation.
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        let mut timed: Vec<(Time, Choice)> = Vec::new();
        let choice = |kind, node: usize| Choice {
            kind,
            actor: node as u32,
        };
        for c in &self.faults.outages {
            timed.push((c.down, choice(ChoiceKind::Crash, c.node)));
            timed.push((c.up, choice(ChoiceKind::Restart, c.node)));
        }
        for i in &self.isolations {
            timed.push((i.from, choice(ChoiceKind::Isolate, i.node)));
            timed.push((i.until, choice(ChoiceKind::Heal, i.node)));
        }
        if let Some(t) = self.meta_crash {
            timed.push((t, choice(ChoiceKind::MetaCrash, 0)));
        }
        for &(t, ev) in &self.admin {
            timed.push(match ev {
                AdminEvent::AddNode(n) => (t, choice(ChoiceKind::AddNode, n)),
                AdminEvent::RemoveNode(n) => (t, choice(ChoiceKind::RemoveNode, n)),
            });
        }
        timed.sort_by_key(|&(t, _)| t);
        Schedule::from_choices(timed.into_iter().map(|(_, c)| c).collect())
    }

    /// The crash/restart windows, on distinct storage indices: the
    /// simulator schedules them, a real-runtime harness drives them.
    pub fn outages(&self) -> &[Outage] {
        &self.faults.outages
    }

    /// The plan as both hosts apply it: the seed, packet faults, window
    /// and outages plus one partition per isolation, cutting the isolated
    /// node's address off from every other storage address.
    /// `storage_ips[i]` is the address of storage node `i`.
    pub fn fault_plan(&self, storage_ips: &[Ipv4]) -> FaultPlan {
        let mut fp = self.faults.clone();
        for iso in &self.isolations {
            let others: Vec<Ipv4> = storage_ips
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != iso.node)
                .map(|(_, &ip)| ip)
                .collect();
            fp = fp.partition(vec![storage_ips[iso.node]], others, iso.from, iso.until);
        }
        fp
    }

    /// A deterministic, byte-stable rendering of the schedule (replay
    /// assertions compare these across runs).
    pub fn render(&self) -> String {
        let f = &self.faults;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan seed={} loss={:.6} dup={:.6} delay_p={:.6} delay_max={}ns \
             window=[{},{}]ns",
            f.seed,
            f.loss,
            f.dup,
            f.delay_prob,
            f.delay_max.as_ns(),
            f.window.start.as_ns(),
            f.window.end.as_ns(),
        );
        for c in &f.outages {
            let _ = writeln!(
                s,
                "crash node={} down={}ns up={}ns",
                c.node,
                c.down.as_ns(),
                c.up.as_ns()
            );
        }
        for i in &self.isolations {
            let _ = writeln!(
                s,
                "isolate node={} from={}ns until={}ns",
                i.node,
                i.from.as_ns(),
                i.until.as_ns()
            );
        }
        if let Some(t) = self.meta_crash {
            let _ = writeln!(s, "meta-crash at={}ns", t.as_ns());
        }
        for (t, ev) in &self.admin {
            let _ = writeln!(s, "admin at={}ns {:?}", t.as_ns(), ev);
        }
        let sched = self.schedule();
        if !sched.is_empty() {
            let _ = writeln!(s, "schedule {}", sched.render());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChaosSpec {
        ChaosSpec {
            nodes: 8,
            horizon: Time::from_secs(8),
            crashes: 2,
            isolations: 1,
            metadata_failover: true,
            admin_churn: true,
        }
    }

    #[test]
    fn same_seed_same_plan_byte_for_byte() {
        let a = ChaosPlan::generate(7, &spec());
        let b = ChaosPlan::generate(7, &spec());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::generate(1, &spec());
        let b = ChaosPlan::generate(2, &spec());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn every_fault_heals_before_the_horizon_plus_slack() {
        for seed in 0..50 {
            let p = ChaosPlan::generate(seed, &spec());
            for c in &p.faults.outages {
                assert!(c.down < c.up, "seed {seed}: {c:?}");
                assert!(c.up < spec().horizon, "seed {seed}: restart too late {c:?}");
            }
            for i in &p.isolations {
                assert!(i.from < i.until, "seed {seed}: {i:?}");
                assert!(i.until < spec().horizon, "seed {seed}: heal too late {i:?}");
            }
            let crashed: Vec<usize> = p.faults.outages.iter().map(|c| c.node).collect();
            let distinct: std::collections::BTreeSet<usize> = crashed.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                crashed.len(),
                "seed {seed}: crash nodes repeat"
            );
        }
    }

    #[test]
    fn schedule_is_the_typed_timeline_in_time_order() {
        let p = ChaosPlan::generate(7, &spec());
        let sched = p.schedule();
        // Every drawn event appears exactly once: crash+restart per
        // crash window, isolate+heal per isolation, meta, admin.
        let expect = 2 * p.faults.outages.len()
            + 2 * p.isolations.len()
            + usize::from(p.meta_crash.is_some())
            + p.admin.len();
        assert_eq!(sched.len(), expect);
        assert!(sched.step_actors().is_empty(), "fault-only timeline");
        // Byte-stable and embedded in the replay witness.
        assert_eq!(
            sched.render(),
            ChaosPlan::generate(7, &spec()).schedule().render()
        );
        assert!(p.render().contains(&format!("schedule {}", sched.render())));
        // A node's restart renders after its crash (time order).
        let r = sched.render();
        for c in &p.faults.outages {
            let crash = format!("!{}", c.node);
            let restart = format!("^{}", c.node);
            let ci = r.find(&crash).expect("crash rendered");
            let ri = r.find(&restart).expect("restart rendered");
            assert!(ci < ri, "{r}");
        }
    }

    #[test]
    fn churn_respects_the_spec_flags() {
        let quiet = ChaosSpec {
            metadata_failover: false,
            admin_churn: false,
            ..spec()
        };
        let p = ChaosPlan::generate(9, &quiet);
        assert!(p.meta_crash.is_none());
        assert!(p.admin.is_empty());
        let loud = ChaosPlan::generate(9, &spec());
        assert!(loud.meta_crash.is_some());
        assert!(!loud.admin.is_empty());
        assert!(loud.admin.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
    }
}
