//! Transitive `panic_path`: propagate may-panic sites (`unwrap`,
//! `expect`, `panic!`-family macros, slice indexing) up the workspace
//! call graph and flag every site reachable from a request-path entry
//! point — anywhere in the workspace, not a fixed file list.
//!
//! A malformed or re-ordered message must degrade to a typed `KvError`
//! or a counter bump, never a crash — including two helper calls deep.

use crate::callgraph::FnItem;
use crate::rules::{finding, is_engine_transition, RuleCtx};
use crate::Finding;

/// Non-`on_*` function names that start a request path: packet drivers,
/// client ops, and the engine/server step loops.
const ENTRY_NAMES: &[&str] = &["drive", "handle", "step", "issue_next", "complete"];

/// Is `f` a request-path entry point? Engine transitions (`on_*` and
/// every `TwoPcEngine` method taking `self`), handler/driver names, and the
/// transport send surface (`send` / `*_send`).
pub fn is_entry(f: &FnItem) -> bool {
    if f.is_test {
        return false;
    }
    if is_engine_transition(f) {
        return true;
    }
    f.name.starts_with("on_")
        || ENTRY_NAMES.contains(&f.name.as_str())
        || f.name == "send"
        || f.name.ends_with("_send")
}

/// Run the rule: BFS from every entry point, report each panic site in
/// a reached fn with the full call chain from its entry.
pub fn run(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    let g = &ctx.graph;
    let roots: Vec<usize> = g.production().filter(|&i| is_entry(&g.fns[i])).collect();
    let parent = g.reach(&roots);
    for &idx in parent.keys() {
        let f = &g.fns[idx];
        for site in &f.panics {
            let chain = g.chain(&parent, idx);
            finding(
                out,
                "panic_path",
                &f.file,
                site.line,
                &f.qualname(),
                &site.what,
                format!(
                    "`{}` may panic on a request path (via {}); return a typed \
                     error (KvError) and bump a counter instead",
                    site.what, chain
                ),
            );
        }
    }
}
