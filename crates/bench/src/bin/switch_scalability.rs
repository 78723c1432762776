//! **§4.6 — Switch Scalability (table).**
//!
//! "The proposed approach requires, for each physical partition, one entry
//! in the switch forwarding table for the unicast vring mapping and one
//! entry for the multicast vring mapping … a total of 2N entries … If
//! load balancing is enabled, it uses R entries per partition …, leading
//! to a total of (R+1)N entries. … Current switches support tables with
//! 128K or more entries; they can easily support storage systems with up
//! to 64K storage nodes without load balancing. With load balancing
//! enabled and with a replication level of 3 they can support up to 32K
//! storage nodes."
//!
//! This binary (a) reproduces the analytic table and (b) validates the
//! formula against the *live* flow table of small deployed clusters.

use nice_bench::harness::CsvOut;
use nice_bench::systems::nice_cluster;
use nice_bench::{RunSpec, System};
use nice_sim::Time;

const TABLE_CAPACITY: u64 = 128 * 1024;

fn main() {
    // (a) Analytic capacity table. LB uses next_pow2(R) division rules per
    // partition (pure-prefix matching), so the LB entry count is
    // (next_pow2(R)+1)N; the paper's idealized count is (R+1)N.
    let mut out = CsvOut::new(
        "switch_scalability",
        "Section 4.6: forwarding-table entries per deployment and max supported nodes (128K-entry switch)",
    );
    out.header(&["config", "entries_per_node", "max_nodes"]);
    out.row(&[
        "no-LB (2N)".into(),
        "2".into(),
        (TABLE_CAPACITY / 2).to_string(),
    ]);
    for r in [3u64, 5, 7] {
        let ideal = r + 1;
        out.row(&[
            format!("LB R={r} paper ((R+1)N)"),
            ideal.to_string(),
            (TABLE_CAPACITY / ideal).to_string(),
        ]);
        let ours = r.next_power_of_two() + 1;
        out.row(&[
            format!("LB R={r} ours ((2^ceil(lg R))+1)N"),
            ours.to_string(),
            (TABLE_CAPACITY / ours).to_string(),
        ]);
    }

    // (b) Validate against live tables for a few cluster sizes.
    let mut out2 = CsvOut::new(
        "switch_scalability_live",
        "Section 4.6 validation: live flow-table occupancy vs formula",
    );
    out2.header(&[
        "nodes",
        "partitions",
        "lb",
        "live_entries",
        "formula",
        "phys_rules",
        "groups",
    ]);
    for (nodes, lb) in [(8usize, false), (8, true), (15, false), (15, true)] {
        let mut spec = RunSpec::new(System::Nice { lb }, 3, vec![]);
        spec.storage_nodes = nodes;
        let mut c = nice_cluster(&spec);
        c.sim.run_until(Time::from_ms(200));
        let (entries, groups) = c.meta_app().table_occupancy(c.sim.now());
        let parts = c.sys.cfg.partitions as usize;
        let phys = nodes + 1; // per-host unicast rules + metadata node
        let divisions = 3usize.next_power_of_two();
        let formula = if lb {
            // multicast + unicast base + division rules, per partition
            parts * (2 + divisions) + phys
        } else {
            parts * 2 + phys
        };
        out2.row(&[
            nodes.to_string(),
            parts.to_string(),
            lb.to_string(),
            entries.to_string(),
            formula.to_string(),
            phys.to_string(),
            groups.to_string(),
        ]);
        assert_eq!(entries, formula, "live table does not match the formula");
    }
    println!("# live occupancy matches the formula for every configuration");
}
