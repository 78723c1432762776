//! The flow table and group table of one switch.
//!
//! The controller shares the table with the switch logic through
//! `Rc<RefCell<FlowTable>>` (the simulation is single-threaded). To model
//! the control-channel delay honestly, every mutation takes an *activation
//! time*: a rule installed "now" by the controller only starts matching at
//! `now + ctrl_latency`, which is how the paper's failure-hiding window
//! (the <2 s unavailability of Figure 11) arises.

use std::collections::HashMap;

use nice_sim::{Packet, Port, SwitchAction, Time};

use crate::rule::{Action, FlowMatch, FlowRule, GroupId};

/// A bucket of a group-table entry: the action list applied to one copy of
/// the packet (OpenFlow "all" groups — the multicast replication of §4.2).
#[derive(Debug, Clone)]
pub struct GroupBucket {
    /// Actions applied to this copy.
    pub actions: Vec<Action>,
}

impl GroupBucket {
    /// Bucket that rewrites dst IP/MAC and outputs — the shape every NICE
    /// multicast bucket takes.
    pub fn rewrite_to(ip: nice_sim::Ipv4, mac: nice_sim::Mac, port: Port) -> GroupBucket {
        GroupBucket {
            actions: vec![
                Action::SetIpDst(ip),
                Action::SetMacDst(mac),
                Action::Output(port),
            ],
        }
    }
}

#[derive(Debug, Clone)]
struct GroupVersion {
    active_from: Time,
    buckets: Vec<GroupBucket>,
}

#[derive(Debug)]
struct Entry {
    rule: FlowRule,
    installed_at: Time,
    active_from: Time,
    /// Pending deletion: stops matching at this time.
    dead_from: Option<Time>,
    last_match: Time,
    seq: u64,
    /// Packets matched.
    hits: u64,
    /// Bytes matched.
    bytes: u64,
}

impl Entry {
    fn live(&self, now: Time) -> bool {
        if now < self.active_from {
            return false;
        }
        if let Some(d) = self.dead_from {
            if now >= d {
                return false;
            }
        }
        if let Some(h) = self.rule.hard_timeout {
            if now >= self.installed_at + h {
                return false;
            }
        }
        if let Some(i) = self.rule.idle_timeout {
            if now >= self.last_match + i {
                return false;
            }
        }
        true
    }
}

/// Statistics of one rule, for tests and the scalability table.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleStats {
    /// Packets that matched this rule.
    pub hits: u64,
    /// Wire bytes that matched this rule.
    pub bytes: u64,
}

/// A switch's flow + group tables.
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: Vec<Entry>,
    groups: HashMap<GroupId, Vec<GroupVersion>>,
    next_seq: u64,
    /// Installs since the last amortized purge of dead entries.
    installs_since_purge: u64,
    /// Latest packet time observed by `apply` (a safe, never-future purge
    /// threshold).
    last_seen: Time,
    /// Packets that matched no rule (counted before the miss behavior —
    /// punt to controller — is applied by the switch logic).
    pub misses: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Install `rule`, active from `at`. Replaces any live rule with an
    /// identical (priority, match): OpenFlow flow-mod semantics.
    ///
    /// Long-dead entries are purged on an amortized schedule so repeated
    /// replacements (failure handling, load-balancer rebalancing) do not
    /// grow the per-packet scan without bound.
    pub fn install(&mut self, rule: FlowRule, at: Time) {
        self.installs_since_purge += 1;
        if self.installs_since_purge >= 256 {
            self.installs_since_purge = 0;
            // Purge against the last *observed* packet time — never a
            // future activation time, which could still be served between
            // now and then.
            let t = self.last_seen;
            self.purge(t);
        }
        for e in &mut self.entries {
            if e.rule.priority == rule.priority && e.rule.m == rule.m && e.dead_from.is_none() {
                e.dead_from = Some(at);
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            installed_at: at,
            active_from: at,
            dead_from: None,
            last_match: at,
            seq,
            hits: 0,
            bytes: 0,
            rule,
        });
    }

    /// Mark every rule with `cookie` dead from `at`; returns how many were
    /// affected.
    pub fn remove_by_cookie(&mut self, cookie: u64, at: Time) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            if e.rule.cookie == cookie && e.dead_from.is_none() {
                e.dead_from = Some(at);
                n += 1;
            }
        }
        n
    }

    /// Install (or atomically replace) group `id` with `buckets`, active
    /// from `at`.
    pub fn set_group(&mut self, id: GroupId, buckets: Vec<GroupBucket>, at: Time) {
        let versions = self.groups.entry(id).or_default();
        versions.retain(|v| v.active_from < at);
        versions.push(GroupVersion {
            active_from: at,
            buckets,
        });
    }

    /// Remove group `id` entirely from `at` (an empty version).
    pub fn remove_group(&mut self, id: GroupId, at: Time) {
        self.set_group(id, Vec::new(), at);
    }

    /// Number of live flow entries at `now` — the forwarding-table
    /// occupancy of the §4.6 scalability analysis.
    pub fn live_entries(&self, now: Time) -> usize {
        self.entries.iter().filter(|e| e.live(now)).count()
    }

    /// Number of live groups (with at least one bucket) at `now`.
    pub fn live_groups(&self, now: Time) -> usize {
        self.groups
            .values()
            .filter(|vs| {
                vs.iter()
                    .filter(|v| v.active_from <= now)
                    .max_by_key(|v| v.active_from)
                    .is_some_and(|v| !v.buckets.is_empty())
            })
            .count()
    }

    /// Stats of the highest-priority live rule matching `(priority, m)`.
    pub fn rule_stats(&self, priority: u16, m: &FlowMatch, now: Time) -> Option<RuleStats> {
        self.entries
            .iter()
            .filter(|e| e.live(now) && e.rule.priority == priority && e.rule.m == *m)
            .max_by_key(|e| e.seq)
            .map(|e| RuleStats {
                hits: e.hits,
                bytes: e.bytes,
            })
    }

    /// Drop dead entries (bookkeeping only; matching already ignores them).
    pub fn purge(&mut self, now: Time) {
        self.entries.retain(|e| {
            e.live(now) || e.active_from > now // keep not-yet-active rules
        });
    }

    fn group_buckets(&self, id: GroupId, now: Time) -> Option<&[GroupBucket]> {
        let versions = self.groups.get(&id)?;
        versions
            .iter()
            .filter(|v| v.active_from <= now)
            .max_by_key(|v| v.active_from)
            .map(|v| v.buckets.as_slice())
    }

    /// Match `pkt` (arrived on `in_port` at `now`) and apply the winning
    /// rule's actions, producing switch actions. Returns `None` on a table
    /// miss (the caller decides the miss behavior).
    pub fn apply(&mut self, in_port: Port, pkt: &Packet, now: Time) -> Option<Vec<SwitchAction>> {
        self.last_seen = self.last_seen.max(now);
        let mut best: Option<(usize, &Entry)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.live(now) || !e.rule.m.matches(in_port, pkt) {
                continue;
            }
            let better = best.is_none_or(|(_, b)| {
                let ka = (e.rule.priority, e.rule.m.specificity(), e.seq);
                let kb = (b.rule.priority, b.rule.m.specificity(), b.seq);
                ka > kb
            });
            if better {
                best = Some((i, e));
            }
        }
        let best = best.map(|(i, _)| i);
        let Some(e) = best.and_then(|i| self.entries.get_mut(i)) else {
            self.misses += 1;
            return None;
        };
        e.last_match = now;
        e.hits += 1;
        e.bytes += pkt.wire_size as u64;
        let actions = e.rule.actions.clone();
        Some(self.run_actions(&actions, pkt, now))
    }

    /// Apply an action list to (a copy of) `pkt`.
    fn run_actions(&self, actions: &[Action], pkt: &Packet, now: Time) -> Vec<SwitchAction> {
        let mut out = Vec::new();
        let mut cur = pkt.clone();
        for act in actions {
            match *act {
                Action::SetIpDst(ip) => cur.dst = ip,
                Action::SetMacDst(m) => cur.dst_mac = m,
                Action::SetIpSrc(ip) => cur.src = ip,
                Action::Output(port) => out.push(SwitchAction::Forward {
                    port,
                    pkt: cur.clone(),
                }),
                Action::Controller => out.push(SwitchAction::ToController { pkt: cur.clone() }),
                Action::Group(gid) => {
                    if let Some(buckets) = self.group_buckets(gid, now) {
                        // Each bucket operates on an independent copy.
                        let copies: Vec<Vec<Action>> =
                            buckets.iter().map(|b| b.actions.clone()).collect();
                        for b in copies {
                            out.extend(self.run_actions(&b, &cur, now));
                        }
                    }
                }
                Action::Drop => return Vec::new(),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nice_sim::{Ipv4, Mac};
    use std::rc::Rc;

    fn pkt(dst: Ipv4) -> Packet {
        Packet::udp(Ipv4::new(10, 0, 0, 1), Mac(1), dst, 1, 2, 10, Rc::new(()))
    }

    fn fwd(port: u16) -> Vec<Action> {
        vec![Action::Output(Port(port))]
    }

    #[test]
    fn priority_wins() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(1, FlowMatch::any(), fwd(1)), Time::ZERO);
        t.install(
            FlowRule::new(10, FlowMatch::any().dst_ip(Ipv4::new(10, 10, 0, 1)), fwd(2)),
            Time::ZERO,
        );
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(10, 10, 0, 1)), Time::from_us(1))
            .unwrap();
        match &acts[0] {
            SwitchAction::Forward { port, .. } => assert_eq!(*port, Port(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(
                5,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 10, 0, 0), 16),
                fwd(1),
            ),
            Time::ZERO,
        );
        t.install(
            FlowRule::new(
                5,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 10, 1, 0), 24),
                fwd(2),
            ),
            Time::ZERO,
        );
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(10, 10, 1, 9)), Time::from_us(1))
            .unwrap();
        match &acts[0] {
            SwitchAction::Forward { port, .. } => assert_eq!(*port, Port(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn activation_time_respected() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(1)),
            Time::from_us(100),
        );
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(50))
            .is_none());
        assert_eq!(t.misses, 1);
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(100))
            .is_some());
    }

    #[test]
    fn cookie_removal_takes_effect_later() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(1)).cookie(7),
            Time::ZERO,
        );
        assert_eq!(t.remove_by_cookie(7, Time::from_us(10)), 1);
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(5))
            .is_some());
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(10))
            .is_none());
    }

    #[test]
    fn reinstall_replaces_same_match() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(1, FlowMatch::any(), fwd(1)), Time::ZERO);
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(2)),
            Time::from_us(10),
        );
        // before the replacement activates, old rule matches
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(5))
            .unwrap();
        assert!(matches!(
            acts[0],
            SwitchAction::Forward { port: Port(1), .. }
        ));
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(10))
            .unwrap();
        assert!(matches!(
            acts[0],
            SwitchAction::Forward { port: Port(2), .. }
        ));
        assert_eq!(t.live_entries(Time::from_us(10)), 1);
    }

    #[test]
    fn hard_and_idle_timeouts() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(1)).hard(Time::from_us(100)),
            Time::ZERO,
        );
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(99))
            .is_some());
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(100))
            .is_none());

        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(1)).idle(Time::from_us(50)),
            Time::ZERO,
        );
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(40))
            .is_some());
        // refreshed by the match at 40us: still alive at 80us
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(80))
            .is_some());
        // but dies after 50us of silence
        assert!(t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(131))
            .is_none());
    }

    #[test]
    fn rewrite_then_output() {
        let mut t = FlowTable::new();
        let phys = Ipv4::new(10, 0, 0, 9);
        t.install(
            FlowRule::new(
                10,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 10, 1, 0), 24),
                vec![
                    Action::SetIpDst(phys),
                    Action::SetMacDst(Mac(9)),
                    Action::Output(Port(4)),
                ],
            ),
            Time::ZERO,
        );
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(10, 10, 1, 77)), Time::from_us(1))
            .unwrap();
        match &acts[0] {
            SwitchAction::Forward { port, pkt } => {
                assert_eq!(*port, Port(4));
                assert_eq!(pkt.dst, phys);
                assert_eq!(pkt.dst_mac, Mac(9));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_multicast_rewrites_per_bucket() {
        let mut t = FlowTable::new();
        let g = GroupId(3);
        t.set_group(
            g,
            vec![
                GroupBucket::rewrite_to(Ipv4::new(10, 0, 0, 1), Mac(1), Port(1)),
                GroupBucket::rewrite_to(Ipv4::new(10, 0, 0, 2), Mac(2), Port(2)),
                GroupBucket::rewrite_to(Ipv4::new(10, 0, 0, 3), Mac(3), Port(3)),
            ],
            Time::ZERO,
        );
        t.install(
            FlowRule::new(
                10,
                FlowMatch::any().dst_prefix(Ipv4::new(10, 11, 1, 0), 24),
                vec![Action::Group(g)],
            ),
            Time::ZERO,
        );
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(10, 11, 1, 5)), Time::from_us(1))
            .unwrap();
        assert_eq!(acts.len(), 3);
        let mut dsts: Vec<(Ipv4, Port)> = acts
            .iter()
            .map(|a| match a {
                SwitchAction::Forward { port, pkt } => (pkt.dst, *port),
                other => panic!("{other:?}"),
            })
            .collect();
        dsts.sort();
        assert_eq!(
            dsts,
            vec![
                (Ipv4::new(10, 0, 0, 1), Port(1)),
                (Ipv4::new(10, 0, 0, 2), Port(2)),
                (Ipv4::new(10, 0, 0, 3), Port(3)),
            ]
        );
    }

    #[test]
    fn group_replacement_versioned() {
        let mut t = FlowTable::new();
        let g = GroupId(1);
        t.set_group(
            g,
            vec![GroupBucket::rewrite_to(
                Ipv4::new(1, 0, 0, 1),
                Mac(1),
                Port(1),
            )],
            Time::ZERO,
        );
        t.set_group(
            g,
            vec![
                GroupBucket::rewrite_to(Ipv4::new(1, 0, 0, 2), Mac(2), Port(2)),
                GroupBucket::rewrite_to(Ipv4::new(1, 0, 0, 3), Mac(3), Port(3)),
            ],
            Time::from_us(10),
        );
        t.install(
            FlowRule::new(1, FlowMatch::any(), vec![Action::Group(g)]),
            Time::ZERO,
        );
        assert_eq!(
            t.apply(Port(0), &pkt(Ipv4::new(9, 9, 9, 9)), Time::from_us(5))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            t.apply(Port(0), &pkt(Ipv4::new(9, 9, 9, 9)), Time::from_us(10))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(t.live_groups(Time::from_us(10)), 1);
        t.remove_group(g, Time::from_us(20));
        assert_eq!(t.live_groups(Time::from_us(20)), 0);
    }

    #[test]
    fn drop_action() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), vec![Action::Drop]),
            Time::ZERO,
        );
        let acts = t
            .apply(Port(0), &pkt(Ipv4::new(1, 1, 1, 1)), Time::from_us(1))
            .unwrap();
        assert!(acts.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any();
        t.install(FlowRule::new(1, m, fwd(1)), Time::ZERO);
        let p = pkt(Ipv4::new(1, 1, 1, 1));
        t.apply(Port(0), &p, Time::from_us(1));
        t.apply(Port(0), &p, Time::from_us(2));
        let s = t.rule_stats(1, &m, Time::from_us(3)).unwrap();
        assert_eq!(s.hits, 2);
        assert_eq!(s.bytes, 2 * p.wire_size as u64);
    }

    #[test]
    fn purge_drops_dead_keeps_future() {
        let mut t = FlowTable::new();
        t.install(
            FlowRule::new(1, FlowMatch::any(), fwd(1)).hard(Time::from_us(10)),
            Time::ZERO,
        );
        t.install(FlowRule::new(2, FlowMatch::any(), fwd(2)), Time::from_ms(1));
        t.purge(Time::from_us(500));
        assert_eq!(t.live_entries(Time::from_us(500)), 0);
        assert_eq!(t.live_entries(Time::from_ms(1)), 1);
    }
}
