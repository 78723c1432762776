//! `determinism_taint`: nondeterminism sources must not flow into
//! protocol state, message bytes, or replay output. Roots are the
//! deterministic surfaces — every `TwoPcEngine` transition,
//! every `render`/`render_*` fn (trace/replay output that must be
//! byte-identical across runs), and every `metrics`/`snapshot` fn (the
//! telemetry snapshot contract: two same-seed sim runs must produce
//! byte-identical registries) — and the rule walks everything they
//! transitively call, looking for:
//!
//! * wall-clock reads (`Instant::now`, `SystemTime`),
//! * iteration over `HashMap`/`HashSet` (order randomized per process),
//! * pointer/address formatting (`{:p}`, `.as_ptr()`, `as *const` /
//!   `as *mut` casts) — addresses differ across runs and ASLR.
//!
//! The textual `determinism`/`unordered_iter` rules ban some of these
//! per-directory; this rule follows the *flow*, so a clock read in a
//! helper crate the directory rules never look at is still caught the
//! moment a render fn or engine transition can reach it.
//!
//! One scope carve-out: the walk stops at [`REAL_RUNTIME_DIRS`] — the
//! threaded UDP runtime's internals are wall-clock by design and need
//! no waivers.

use crate::rules::textual::{hash_container_names, iterates_name};
use crate::rules::{finding, is_engine_transition, RuleCtx};
use crate::source::contains_token;
use crate::Finding;

/// The real-runtime host on the far side of the `NodeIo` boundary.
/// Wall clocks, OS threads, and sockets are that crate's *job* — it
/// implements `now()` with `Instant` by design — so the taint walk
/// stops at its door instead of demanding a per-line waiver for every
/// legitimate clock read. Protocol code stays covered: it only reaches
/// a wall clock through `NodeIo`, and under the simulator host that
/// same call is virtual time.
pub const REAL_RUNTIME_DIRS: &[&str] = &["crates/node-rt/src"];

fn in_real_runtime(file: &str) -> bool {
    REAL_RUNTIME_DIRS
        .iter()
        .any(|d| file.starts_with(&format!("{d}/")))
}

/// Run the rule: BFS from render fns + engine transitions, scan each
/// reached fn's body for nondeterminism sources.
pub fn run(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    let g = &ctx.graph;
    let roots: Vec<usize> = g
        .production()
        .filter(|&i| {
            let f = &g.fns[i];
            f.name == "render"
                || f.name.starts_with("render_")
                || f.name == "metrics"
                || f.name == "snapshot"
                || is_engine_transition(f)
        })
        .collect();
    let parent = g.reach(&roots);
    for &idx in parent.keys() {
        let f = &g.fns[idx];
        if in_real_runtime(&f.file) {
            continue;
        }
        let Some(sf) = ctx.files.get(&f.file) else {
            continue;
        };
        let hash_names = hash_container_names(sf);
        for ln in f.line..=f.end_line.min(sf.code.len()) {
            let i = ln - 1; // 0-based
            if sf.in_test[i] {
                continue;
            }
            let code = &sf.code[i];
            let mut hit = |detail: &str, what: String| {
                let chain = g.chain(&parent, idx);
                finding(
                    out,
                    "determinism_taint",
                    &f.file,
                    ln,
                    &f.qualname(),
                    detail,
                    format!(
                        "{what} flows into deterministic output (via {chain}); \
                         protocol state, message bytes and render/replay output \
                         must be identical across runs"
                    ),
                );
            };
            for tok in ["Instant::now", "SystemTime"] {
                if contains_token(code, tok) {
                    hit(tok, format!("wall-clock read `{tok}`"));
                }
            }
            for name in &hash_names {
                if iterates_name(code, name) {
                    hit(
                        name,
                        format!("randomized-order iteration over hash container `{name}`"),
                    );
                }
            }
            if sf.raw[i].contains("{:p}") {
                hit("{:p}", "pointer formatting `{:p}`".to_string());
            }
            if code.contains(".as_ptr()") {
                hit(".as_ptr()", "pointer value `.as_ptr()`".to_string());
            }
            if contains_token(code, "as *const") || contains_token(code, "as *mut") {
                hit("ptr-cast", "pointer cast `as *const/*mut`".to_string());
            }
        }
    }
}
