//! **Membership maintenance scalability (§1, §2.1, §4.1).**
//!
//! "Membership maintenance in NICEKV is highly scalable and eliminates
//! the maintenance operations overhead." — NICE needs O(S) switch updates
//! plus O(R) node notifications per membership change; NOOB's
//! full-membership model needs O(N) messages (or an epidemic protocol
//! with O(log N) steps and over O(N) messages).
//!
//! This binary measures the *actual* bytes and messages the NICE metadata
//! service emits to handle one node failure at several cluster sizes, and
//! prints them next to the analytic NOOB costs.

use nice_bench::harness::CsvOut;
use nice_bench::systems::nice_cluster;
use nice_bench::{RunSpec, System};
use nice_sim::Time;

fn main() {
    let mut out = CsvOut::new(
        "membership_scalability",
        "Membership update cost for one node failure: measured NICE vs analytic NOOB",
    );
    out.header(&[
        "nodes",
        "nice_meta_msgs",
        "nice_meta_kb",
        "nice_rules_touched",
        "noob_full_membership_msgs",
        "noob_epidemic_msgs",
    ]);

    for nodes in [5usize, 10, 15] {
        let mut spec = RunSpec::new(System::Nice { lb: true }, 3, vec![]);
        spec.storage_nodes = nodes;
        let mut c = nice_cluster(&spec);
        // settle, snapshot, fail one node, settle again
        c.sim.run_until(Time::from_secs(1));
        let before = c.sim.host_stats(c.sys.meta);
        let victim = c.servers[1];
        c.sim.schedule_crash(Time::from_secs(1), victim);
        c.sim.run_until(Time::from_secs(5));
        let after = c.sim.host_stats(c.sys.meta);
        // subtract steady-state control traffic measured on an idle twin
        let mut idle_spec = spec.clone();
        idle_spec.client_ops = vec![];
        let mut ic = nice_cluster(&idle_spec);
        ic.sim.run_until(Time::from_secs(1));
        let ib = ic.sim.host_stats(ic.sys.meta);
        ic.sim.run_until(Time::from_secs(5));
        let ia = ic.sim.host_stats(ic.sys.meta);
        let msgs = (after.pkts_sent - before.pkts_sent).saturating_sub(ia.pkts_sent - ib.pkts_sent);
        let bytes =
            (after.bytes_sent - before.bytes_sent).saturating_sub(ia.bytes_sent - ib.bytes_sent);
        // rules touched = partitions where the victim was a replica, times
        // (unicast + LB + group updates)
        let affected = c.sys.ring.partitions_of(nice_ring::NodeIdx(1)).len();
        out.row(&[
            nodes.to_string(),
            msgs.to_string(),
            format!("{:.1}", bytes as f64 / 1024.0),
            affected.to_string(),
            // NOOB full-membership: contact every node
            nodes.to_string(),
            // epidemic: O(log n) rounds, >= O(N) messages
            (nodes as f64 * (nodes as f64).log2().ceil()).to_string(),
        ]);
    }
    println!("# NICE per-failure cost depends on R (partitions the victim served), not on N");
}
