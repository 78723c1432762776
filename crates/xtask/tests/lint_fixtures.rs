//! Fixture-based self-tests for the linter: every rule must fire on its
//! known-bad snippet and stay silent on the known-good one. This is the
//! proof that each rule is live — a refactor that silently disables a
//! rule breaks the `bad` half of its pair.
//!
//! Each fixture root mirrors the workspace shape (`crates/<name>/src/`)
//! so [`xtask::collect_findings`] runs against it unchanged.

use std::path::PathBuf;

use xtask::{collect_findings, Finding};

fn fixture(rule: &str, kind: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(kind);
    assert!(root.is_dir(), "missing fixture tree {}", root.display());
    collect_findings(&root)
}

fn assert_fires(rule: &str) -> Vec<Finding> {
    let found = fixture(rule, "bad");
    let hits: Vec<Finding> = found.iter().filter(|f| f.rule == rule).cloned().collect();
    assert!(
        !hits.is_empty(),
        "rule `{rule}` did not fire on its bad fixture; findings were: {found:?}"
    );
    hits
}

fn assert_silent(rule: &str) {
    let found = fixture(rule, "good");
    let hits: Vec<&Finding> = found.iter().filter(|f| f.rule == rule).collect();
    assert!(
        hits.is_empty(),
        "rule `{rule}` fired on its good fixture: {hits:?}"
    );
}

#[test]
fn panic_path_fires_on_bad_and_reports_the_chain() {
    let hits = assert_fires("panic_path");
    let msg = &hits[0].msg;
    assert!(
        msg.contains("Server::on_request") && msg.contains("first_byte") && msg.contains("→"),
        "expected the full entry→helper call chain in the message, got: {msg}"
    );
    assert_eq!(
        hits[0].ctx, "first_byte",
        "finding should sit on the panicking fn"
    );
}

#[test]
fn panic_path_silent_on_good() {
    assert_silent("panic_path");
}

#[test]
fn effect_purity_fires_on_bad_and_reports_the_chain() {
    let hits = assert_fires("effect_purity");
    let msg = &hits[0].msg;
    assert!(
        msg.contains("TwoPcEngine::on_tick") && msg.contains("log_state"),
        "expected the transition→helper chain in the message, got: {msg}"
    );
}

#[test]
fn effect_purity_skips_constructors_without_self() {
    // The bad fixture's `TwoPcEngine::recover` touches `std::fs` (the
    // shape of the real WAL-opening constructor) but takes no `self`.
    let hits = assert_fires("effect_purity");
    assert!(
        hits.iter().all(|h| h.ctx == "log_state"),
        "only the transition's helper may be reported, got: {hits:?}"
    );
}

#[test]
fn effect_purity_silent_on_good() {
    assert_silent("effect_purity");
}

#[test]
fn determinism_taint_fires_on_bad_and_reports_the_chain() {
    let hits = assert_fires("determinism_taint");
    let msg = &hits[0].msg;
    assert!(
        msg.contains("render") && msg.contains("stamp"),
        "expected the render→stamp chain in the message, got: {msg}"
    );
    // The telemetry snapshot surface is a root too: hash-order
    // iteration inside a `metrics` fn must be flagged.
    assert!(
        hits.iter()
            .any(|f| f.ctx.contains("metrics") && f.msg.contains("hash container")),
        "metrics snapshot root did not catch hash-order iteration: {hits:?}"
    );
}

#[test]
fn determinism_taint_silent_on_good() {
    assert_silent("determinism_taint");
}

#[test]
fn determinism_taint_stops_at_the_real_runtime_boundary() {
    // Two render fns reach clock reads: one through `crates/node-rt/src`
    // (the real runtime — exempt by scope), one through an ordinary
    // helper crate (the control — must still fire). The control proves
    // the cross-crate edge resolves, so the node-rt silence is the
    // carve-out working and not the walk going blind.
    let found = fixture("determinism_taint", "boundary");
    let hits: Vec<&Finding> = found
        .iter()
        .filter(|f| f.rule == "determinism_taint")
        .collect();
    assert!(
        hits.iter().any(|f| f.file.contains("crates/other/")),
        "control clock read was not flagged; findings: {found:?}"
    );
    assert!(
        hits.iter().all(|f| !f.file.contains("node-rt")),
        "real-runtime internals must be exempt, got: {hits:?}"
    );
}

#[test]
fn determinism_fires_on_bad() {
    assert_fires("determinism");
}

#[test]
fn determinism_silent_on_good() {
    assert_silent("determinism");
}

#[test]
fn unordered_iter_fires_on_bad() {
    assert_fires("unordered_iter");
}

#[test]
fn unordered_iter_silent_on_good() {
    assert_silent("unordered_iter");
}

#[test]
fn layering_fires_on_bad() {
    let hits = assert_fires("layering");
    // Both halves: the adapter store-mutation AND the protocol crate
    // naming the simulator instead of NodeIo.
    assert!(
        hits.iter().any(|f| f.detail == "nice_sim"),
        "nice_sim host-boundary violation not flagged: {hits:?}"
    );
    assert!(
        hits.iter().any(|f| f.detail != "nice_sim"),
        "adapter store-mutation violation not flagged: {hits:?}"
    );
}

#[test]
fn layering_silent_on_good() {
    assert_silent("layering");
}

#[test]
fn unbounded_queue_fires_on_bad() {
    assert_fires("unbounded_queue");
}

#[test]
fn unbounded_queue_silent_on_good() {
    assert_silent("unbounded_queue");
}

#[test]
fn allow_reason_fires_on_bad() {
    let hits = assert_fires("allow_reason");
    assert!(
        hits[0].msg.contains("without a reason"),
        "got: {}",
        hits[0].msg
    );
}

#[test]
fn allow_reason_silent_on_good() {
    // The reasoned waiver must both satisfy allow_reason AND actually
    // suppress the determinism finding it sits on.
    let found = fixture("allow_reason", "good");
    assert!(
        found.is_empty(),
        "expected a fully clean run (waiver applied, reason accepted), got: {found:?}"
    );
}

#[test]
fn dead_effect_fires_on_bad_and_names_the_variant() {
    let hits = assert_fires("dead_effect");
    assert_eq!(hits.len(), 1, "only `Retire` is dead: {hits:?}");
    assert!(
        hits[0].msg.contains("`Retire`") && hits[0].file.contains("engine"),
        "expected the finding on Retire's declaration, got: {:?}",
        hits[0]
    );
}

#[test]
fn dead_effect_silent_on_good() {
    assert_silent("dead_effect");
}

#[test]
fn fsync_discipline_fires_on_bad() {
    let hits = assert_fires("fsync_discipline");
    // Both bad shapes: no barrier at all, and barrier after the push.
    assert_eq!(hits.len(), 2, "expected both ack sites flagged: {hits:?}");
    assert!(
        hits.iter().any(|f| f.detail == "Effect::Ack1")
            && hits.iter().any(|f| f.detail == "Effect::Commit"),
        "expected one Ack1 and one Commit finding: {hits:?}"
    );
    assert!(
        hits[0].msg.contains("fsync-before-ack"),
        "got: {}",
        hits[0].msg
    );
}

#[test]
fn fsync_discipline_silent_on_good() {
    assert_silent("fsync_discipline");
}

#[test]
fn write_only_fires_on_bad_and_names_the_fields() {
    let hits = assert_fires("write_only");
    let fields: Vec<(&str, &str)> = hits
        .iter()
        .map(|f| (f.ctx.as_str(), f.detail.as_str()))
        .collect();
    assert_eq!(
        fields,
        [("Gateway", "dropped"), ("Gateway", "last_error")],
        "only the two unread fields, not the one a method reads: {hits:?}"
    );
}

#[test]
fn write_only_silent_on_good() {
    assert_silent("write_only");
}

#[test]
fn stale_allow_fires_on_bad() {
    let hits = assert_fires("stale_allow");
    assert!(hits[0].msg.contains("determinism"), "got: {}", hits[0].msg);
}

#[test]
fn stale_allow_silent_on_good() {
    assert_silent("stale_allow");
}
