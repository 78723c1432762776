//! The flow table and group table of one switch.
//!
//! The controller shares the table with the switch logic through
//! `Rc<RefCell<FlowTable>>` (the simulation is single-threaded). To model
//! the control-channel delay honestly, every mutation takes an *activation
//! time*: a rule installed "now" by the controller only starts matching at
//! `now + CTRL_LATENCY`, which is how the paper's failure-hiding window
//! (the <2 s unavailability of Figure 11) arises.

use std::collections::{BTreeMap, HashMap};

use nice_sim::{Ipv4, Packet, Port, SwitchAction, Time};

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

/// Entry indices by destination prefix. Per `ip_dst` prefix length in use,
/// a map from network to the entries whose `ip_dst` is that prefix; plus
/// the entries with no `ip_dst`. The entries a packet can match are then
/// one probe per length plus the dst-less ones (NetChain's exact-match
/// table and TurboKV's range directory index switch lookups the same way).
#[derive(Debug, Default)]
struct DstIndex {
    by_len: BTreeMap<u8, HashMap<Ipv4, Vec<usize>>>,
    any_dst: Vec<usize>,
}

impl DstIndex {
    /// Index entry `i`, whose match is `m`.
    fn add(&mut self, i: usize, m: &FlowMatch) {
        match m.ip_dst {
            Some((net, len)) => self
                .by_len
                .entry(len)
                .or_default()
                .entry(net.network(len))
                .or_default()
                .push(i),
            None => self.any_dst.push(i),
        }
    }

    /// Every entry whose `ip_dst` (if any) covers `dst`, each once, in no
    /// particular order.
    fn candidates(&self, dst: Ipv4) -> impl Iterator<Item = usize> + '_ {
        self.by_len
            .iter()
            .filter_map(move |(&len, nets)| nets.get(&dst.network(len)))
            .flatten()
            .chain(&self.any_dst)
            .copied()
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
    /// `entries` by destination prefix, so a lookup need not scan them all.
    index: DstIndex,
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
    /// grow the table, or the lookup's candidate lists, without bound.
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
        self.index.add(self.entries.len(), &rule.m);
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
        self.index = DstIndex::default();
        for (i, e) in self.entries.iter().enumerate() {
            self.index.add(i, &e.rule.m);
        }
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
        let candidates = self
            .index
            .candidates(pkt.dst)
            .filter_map(|i| Some((i, self.entries.get(i)?)));
        let mut best: Option<(usize, &Entry)> = None;
        for (i, e) in candidates {
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
        let e = best.and_then(|i| self.entries.get(i))?;
        Some(self.run_actions(&e.rule.actions, pkt, now))
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
                    // Each bucket operates on an independent copy.
                    for b in self.group_buckets(gid, now).unwrap_or_default() {
                        out.extend(self.run_actions(&b.actions, &cur, now));
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

    /// `apply` as a scan of every entry: the max of (priority,
    /// specificity, seq) over the live matches. Kept as the oracle of the
    /// destination index.
    fn apply_by_scan(
        t: &mut FlowTable,
        in_port: Port,
        pkt: &Packet,
        now: Time,
    ) -> Option<Vec<SwitchAction>> {
        t.last_seen = t.last_seen.max(now);
        let best = t
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.live(now) && e.rule.m.matches(in_port, pkt))
            .max_by_key(|(_, e)| (e.rule.priority, e.rule.m.specificity(), e.seq))
            .map(|(i, _)| i);
        let Some(e) = best.and_then(|i| t.entries.get_mut(i)) else {
            t.misses += 1;
            return None;
        };
        e.last_match = now;
        e.hits += 1;
        e.bytes += pkt.wire_size as u64;
        let actions = e.rule.actions.clone();
        Some(t.run_actions(&actions, pkt, now))
    }

    /// An entry's `(seq, hits, bytes, last_match)`.
    type EntryCounters = (u64, u64, u64, Time);

    /// Everything `apply` may change, entry by entry.
    fn counters(t: &FlowTable) -> (Vec<EntryCounters>, u64, Time) {
        let entries = t.entries.iter();
        let entries = entries.map(|e| (e.seq, e.hits, e.bytes, e.last_match));
        (entries.collect(), t.misses, t.last_seen)
    }

    /// Forwarded packets with the headers the rules rewrite.
    fn rendered(acts: &Option<Vec<SwitchAction>>) -> Option<Vec<String>> {
        let acts = acts.as_ref()?.iter().map(|a| match a {
            SwitchAction::Forward { port, pkt } => format!("{port:?} {pkt:?} {:?}", pkt.dst_mac),
            other => format!("{other:?}"),
        });
        Some(acts.collect())
    }

    /// The destination index picks the rule the linear scan picks: over
    /// random rule sets (every prefix length from /0 to /32 and rules with
    /// no `ip_dst`; port, MAC, protocol and source matches; equal
    /// priorities; hard and idle timeouts; rules not yet active; cookie
    /// deletions; replacements, enough to trigger the amortized purge),
    /// random packets get the same actions and leave the same counters.
    #[test]
    fn indexed_apply_matches_the_linear_scan() {
        use nice_sim::{Proto, XorShiftRng};
        let addr = |rng: &mut XorShiftRng| {
            let net = [10 << 24 | 10 << 16, 10 << 24 | 11 << 16, 10 << 24];
            Ipv4(net[rng.random_range(0usize..3)] | rng.random_range(0u32..1 << 10))
        };
        let lens = [0u8, 8, 16, 22, 24, 26, 30, 32, 32, 32];
        for case in 0..8u64 {
            let mut rng = XorShiftRng::seed_from_u64(0xf10a_0001 ^ case);
            let (mut indexed, mut scanned) = (FlowTable::new(), FlowTable::new());
            let mut installed: Vec<(u16, FlowMatch)> = Vec::new();
            let mut now = Time::ZERO;
            let (mut hits, mut purges) = (0u32, 0u32);
            for step in 0..6_000u32 {
                now += Time::from_us(rng.random_range(0u64..20));
                let roll = rng.random_range(0u32..100);
                if roll < 20 {
                    let (priority, m) = match installed.len() {
                        n if n > 0 && rng.random_range(0u32..3) == 0 => {
                            installed[rng.random_range(0..n)]
                        }
                        _ => {
                            let mut m = FlowMatch::any();
                            if rng.random_range(0u32..5) > 0 {
                                let len = lens[rng.random_range(0usize..lens.len())];
                                m = m.dst_prefix(addr(&mut rng), len);
                            }
                            let r = rng.random_range(0u32..64);
                            if r & 1 != 0 {
                                m = m.in_port(Port(rng.random_range(0u32..3) as u16));
                            }
                            if r & 2 != 0 {
                                m = m.eth_dst(Mac(rng.random_range(0u64..3)));
                            }
                            if r & 4 != 0 {
                                m = m.proto([Proto::Udp, Proto::Tcp][rng.random_range(0usize..2)]);
                            }
                            if r & 8 != 0 {
                                m = m.dst_port(9000 + rng.random_range(0u32..2) as u16);
                            }
                            if r & 16 != 0 {
                                m = m.src_port(7000 + rng.random_range(0u32..2) as u16);
                            }
                            if r & 32 != 0 {
                                m = m.src_prefix(addr(&mut rng), 24);
                            }
                            let priority = [1u16, 5, 5, 10][rng.random_range(0usize..4)];
                            installed.push((priority, m));
                            (priority, m)
                        }
                    };
                    let port = Port(rng.random_range(0u32..16) as u16);
                    let mac = Mac(rng.random_range(0u64..1 << 20));
                    let mut rule = FlowRule::new(
                        priority,
                        m,
                        vec![Action::SetMacDst(mac), Action::Output(port)],
                    )
                    .cookie(rng.random_range(0u64..4));
                    match rng.random_range(0u32..8) {
                        0 => rule = rule.hard(Time::from_us(rng.random_range(1u64..3_000))),
                        1 => rule = rule.idle(Time::from_us(rng.random_range(1u64..500))),
                        _ => {}
                    }
                    let at = now + Time::from_us(rng.random_range(0u64..200));
                    let before = indexed.entries.len();
                    indexed.install(rule.clone(), at);
                    scanned.install(rule, at);
                    purges += u32::from(indexed.entries.len() <= before);
                } else if roll < 22 {
                    let (cookie, at) = (rng.random_range(0u64..4), now + Time::from_us(50));
                    indexed.remove_by_cookie(cookie, at);
                    scanned.remove_by_cookie(cookie, at);
                } else {
                    let dst = addr(&mut rng);
                    let (src_port, dst_port) = (
                        7000 + rng.random_range(0u32..2) as u16,
                        9000 + rng.random_range(0u32..2) as u16,
                    );
                    let src = addr(&mut rng);
                    let mut pkt = if rng.random_range(0u32..2) == 0 {
                        Packet::udp(src, Mac(9), dst, src_port, dst_port, 100, Rc::new(()))
                    } else {
                        Packet::tcp(src, Mac(9), dst, src_port, dst_port, 100, Rc::new(()))
                    };
                    pkt.dst_mac = Mac(rng.random_range(0u64..3));
                    let in_port = Port(rng.random_range(0u32..3) as u16);
                    let got = indexed.apply(in_port, &pkt, now);
                    let want = apply_by_scan(&mut scanned, in_port, &pkt, now);
                    assert_eq!(rendered(&got), rendered(&want), "case {case} step {step}");
                    hits += u32::from(want.is_some());
                }
                assert_eq!(
                    counters(&indexed),
                    counters(&scanned),
                    "case {case} step {step}"
                );
            }
            // The schedule reached what the test is about.
            assert!(
                hits > 1_000 && purges > 0,
                "case {case}: {hits} hits, {purges} purges"
            );
        }
    }
}
