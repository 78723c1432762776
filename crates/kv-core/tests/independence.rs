//! Unit tests for the DPOR independence relation, at two levels.
//!
//! **Engine level** — the ground truth the footprint model must respect:
//! two deliveries are independent iff executing them in either order
//! leaves the production [`TwoPcEngine`] in the identical state. These
//! tests run real delivery pairs both ways on cloned engines and compare
//! the protocol-visible signature byte for byte.
//!
//! **Model level** — the [`Footprint`]/[`conflict_dependence`]
//! abstraction the explorer prunes with: the footprints the scenarios
//! above would produce must classify each pair the same way the engine
//! does. Read/read never conflicts; write/anything on a shared region
//! always does. An under-approximating relation here is what the
//! `wrong_independence_relation_misses_lock_steal` fixture in
//! `lock_interleavings.rs` demonstrates end to end.

use kv_core::{
    conflict_dependence, Effect, EngineCfg, EngineRole, Footprint, LogEntry, OpId, StorageCfg,
    Timestamp, TwoPcEngine, Value,
};
use node_rt::{Ipv4, Time};

fn engine() -> TwoPcEngine {
    TwoPcEngine::new(EngineCfg {
        storage: StorageCfg::default(),
        op_timeout: Some(Time::from_ms(500)),
        inline_commit: false,
        durable_pending: true,
        telemetry: kv_core::TelemetryCfg::default(),
        stale_lock_ttl: None,
    })
}

fn op(o: u8) -> OpId {
    OpId {
        client: Ipv4::new(10, 0, 1, o + 1),
        client_seq: 1,
    }
}

fn val(b: u8) -> Value {
    Value::from_bytes(vec![b; 8])
}

fn ts_of(o: u8, seq: u64) -> Timestamp {
    Timestamp {
        primary_seq: seq,
        primary: Ipv4::new(10, 0, 0, 1),
        client_seq: 1,
        client: Ipv4::new(10, 0, 1, o + 1),
    }
}

/// The protocol-visible state of one engine over `keys`: pending lock
/// holder + written flag, committed bytes + timestamp, and the
/// persistent log. Two engines with equal signatures are
/// indistinguishable to every later delivery.
type Sig = Vec<(
    Option<(OpId, bool)>,
    Option<(Vec<u8>, Timestamp)>,
    Vec<LogEntry>,
)>;

fn sig(e: &TwoPcEngine, keys: &[&str]) -> Sig {
    keys.iter()
        .map(|k| {
            let s = e.store();
            (
                s.pending(k).map(|p| (p.op, p.written)),
                s.get(k).map(|c| (c.value.bytes.to_vec(), c.ts)),
                // Per-key log content: the log is one append-ordered vec
                // for the whole engine, so its *global* order encodes
                // arrival order even for keys that never interact.
                s.log()
                    .iter()
                    .filter(|l| l.key == *k)
                    .cloned()
                    .collect::<Vec<LogEntry>>(),
            )
        })
        .collect()
}

/// Run `a` then `b` and `b` then `a` on clones of `base`; return the two
/// resulting signatures.
fn both_orders(
    base: &TwoPcEngine,
    keys: &[&str],
    a: &dyn Fn(&mut TwoPcEngine, &mut Vec<Effect>),
    b: &dyn Fn(&mut TwoPcEngine, &mut Vec<Effect>),
) -> (Sig, Sig) {
    let mut fx = Vec::new();
    let mut ab = base.clone();
    a(&mut ab, &mut fx);
    b(&mut ab, &mut fx);
    let mut ba = base.clone();
    b(&mut ba, &mut fx);
    a(&mut ba, &mut fx);
    (sig(&ab, keys), sig(&ba, keys))
}

// -------------------------------------------------------------------
// Engine level: real delivery pairs, both orders.
// -------------------------------------------------------------------

#[test]
fn accepts_on_distinct_keys_commute() {
    let base = engine();
    let (ab, ba) = both_orders(
        &base,
        &["a", "b"],
        &|e, fx| e.accept("a", val(b'A'), op(0), Time::ZERO, fx),
        &|e, fx| e.accept("b", val(b'B'), op(1), Time::ZERO, fx),
    );
    assert_eq!(ab, ba, "distinct-key accepts must be order-insensitive");
}

#[test]
fn accepts_on_the_same_key_do_not_commute() {
    // Lock-acquire vs. lock-acquire on one key: the first arriver holds
    // the pending lock, so order is observable — the relation must mark
    // this pair dependent or the explorer would prune a real schedule.
    let base = engine();
    let (ab, ba) = both_orders(
        &base,
        &["obj"],
        &|e, fx| e.accept("obj", val(b'A'), op(0), Time::ZERO, fx),
        &|e, fx| e.accept("obj", val(b'B'), op(1), Time::ZERO, fx),
    );
    assert_ne!(ab, ba, "same-key lock acquisition must be order-sensitive");
}

#[test]
fn commit_and_abort_on_distinct_keys_commute() {
    let mut base = engine();
    let mut fx = Vec::new();
    base.accept("a", val(b'A'), op(0), Time::ZERO, &mut fx);
    base.accept("b", val(b'B'), op(1), Time::ZERO, &mut fx);
    let (ab, ba) = both_orders(
        &base,
        &["a", "b"],
        &|e, fx| {
            e.on_commit("a", op(0), ts_of(0, 1), EngineRole::Observer, fx);
        },
        &|e, fx| {
            e.on_abort("b", op(1), Time::MAX, fx);
        },
    );
    assert_eq!(
        ab, ba,
        "distinct-key commit/abort must be order-insensitive"
    );
}

#[test]
fn commit_and_abort_of_one_put_do_not_commute() {
    // The order-sensitive same-key finish pair: commit-then-abort leaves
    // the value committed (the late abort finds no pending and no-ops),
    // abort-then-commit loses it (the commit finds no pending holder).
    // This is exactly the window a healing partition can reorder, so the
    // relation must keep a put's finishes dependent.
    let mut base = engine();
    let mut fx = Vec::new();
    base.accept("obj", val(b'A'), op(0), Time::ZERO, &mut fx);
    let (ab, ba) = both_orders(
        &base,
        &["obj"],
        &|e, fx| {
            e.on_commit("obj", op(0), ts_of(0, 1), EngineRole::Observer, fx);
        },
        &|e, fx| {
            e.on_abort("obj", op(0), Time::MAX, fx);
        },
    );
    assert_ne!(
        ab, ba,
        "commit vs. abort of one put must be order-sensitive"
    );
}

#[test]
fn commits_of_rival_puts_on_one_key_commute_but_stay_ordered() {
    // Two rounds racing for one key: only the lock holder's commit
    // applies (`store.commit` no-ops when a different op holds the
    // pending lock), so this particular pair happens to commute at the
    // engine level. The footprint model still marks same-key finishes
    // dependent — over-approximating dependence only costs reduction;
    // under-approximating it (the unsound direction) prunes real
    // schedules, which is what the `wrong_independence_relation_*`
    // mutant in `lock_interleavings.rs` demonstrates.
    let mut base = engine();
    let mut fx = Vec::new();
    base.accept("obj", val(b'A'), op(0), Time::ZERO, &mut fx);
    base.accept("obj", val(b'B'), op(1), Time::ZERO, &mut fx);
    let (ab, ba) = both_orders(
        &base,
        &["obj"],
        &|e, fx| {
            e.on_commit("obj", op(0), ts_of(0, 1), EngineRole::Observer, fx);
        },
        &|e, fx| {
            e.on_commit("obj", op(1), ts_of(1, 2), EngineRole::Observer, fx);
        },
    );
    assert_eq!(ab, ba, "rival commits resolve to the lock holder's value");
    // The model keeps them ordered anyway: both write the key's region.
    assert!(conflict_dependence(
        &Footprint::write(0),
        &Footprint::write(0)
    ));
}

#[test]
fn reads_commute_with_everything_that_reads() {
    // Gets never mutate the store: any interleaving of gets (same key or
    // not) around a fixed write history observes identical state.
    let mut e = engine();
    let mut fx = Vec::new();
    e.accept("a", val(b'A'), op(0), Time::ZERO, &mut fx);
    e.on_commit("a", op(0), ts_of(0, 1), EngineRole::Observer, &mut fx);
    let before = sig(&e, &["a", "b"]);
    let g1 = e.store().get("a").map(|c| c.value.bytes.to_vec());
    let g2 = e.store().get("b").map(|c| c.value.bytes.to_vec());
    let g1_again = e.store().get("a").map(|c| c.value.bytes.to_vec());
    assert_eq!(g1, g1_again, "a get is stable across other gets");
    assert_eq!(g2, None);
    assert_eq!(sig(&e, &["a", "b"]), before, "gets leave no footprint");
}

// -------------------------------------------------------------------
// Model level: the footprints those scenarios produce must classify
// identically.
// -------------------------------------------------------------------

#[test]
fn footprint_model_matches_the_engine_verdicts() {
    // Region r = the state accessed at key/replica r. Writers of the
    // scenarios above:
    let w0 = Footprint::write(0); // accept/commit touching region 0
    let w1 = Footprint::write(1); // accept/commit touching region 1
    let r0 = Footprint::read(0); // a get of region 0
    let r1 = Footprint::read(1);

    // Distinct-key accepts / commit-vs-abort: disjoint writes commute.
    assert!(!conflict_dependence(&w0, &w1));
    // Same-key lock acquires / rival commits: overlapping writes don't.
    assert!(conflict_dependence(&w0, &w0));
    // Gets: read/read is independent even on the same region…
    assert!(!conflict_dependence(&r0, &r0));
    assert!(!conflict_dependence(&r0, &r1));
    // …but a read is ordered against a write of its region.
    assert!(conflict_dependence(&r0, &w0));
    assert!(!conflict_dependence(&r0, &w1));
}

#[test]
fn footprint_union_accumulates_both_sets() {
    let mut f = Footprint::read(0);
    f.add_write(1);
    let g = Footprint::write(2);
    let u = f.union(g);
    assert!(u.reads() & 1 != 0, "read of 0 kept");
    assert!(u.writes() & 0b110 == 0b110, "writes of 1 and 2 merged");
    assert!(conflict_dependence(&u, &Footprint::write(0)));
    assert!(conflict_dependence(&u, &Footprint::read(2)));
    assert!(!conflict_dependence(&u, &Footprint::read(3)));
}
