//! `effect_purity`: `kv-core`'s `TwoPcEngine` transition methods
//! must be pure state-machine steps. All side effects — sends, timers,
//! sleeps, logging, filesystem or network I/O — leave the engine only
//! as emitted `Effect` values; the adapter executes them. Enforced
//! transitively: a helper three calls below `on_ack1` doing a
//! `thread::sleep` is the same bug as the transition doing it directly.
//!
//! Clock reads (`Instant::now`/`SystemTime`) are reported by the
//! sibling `determinism_taint` rule over the same roots, not here.

use crate::rules::{finding, is_engine_transition, RuleCtx};
use crate::source::contains_token;
use crate::Finding;

/// Ambient-effect tokens banned anywhere reachable from an engine
/// transition, with the reason shown in the message.
const IMPURE_TOKENS: &[(&str, &str)] = &[
    (
        ".send(",
        "direct send — emit an Effect and let the adapter send",
    ),
    ("sleep(", "sleeping — deadlines come in via on_deadline"),
    ("println!", "console I/O"),
    ("eprintln!", "console I/O"),
    ("print!", "console I/O"),
    ("eprint!", "console I/O"),
    ("dbg!", "console I/O"),
    ("std::fs", "filesystem I/O"),
    ("File::", "filesystem I/O"),
    ("std::net", "network I/O"),
    ("UdpSocket", "network I/O"),
    ("TcpStream", "network I/O"),
    ("TcpListener", "network I/O"),
    ("std::process", "process control"),
    ("std::env", "ambient environment read"),
    ("io::stdin", "console I/O"),
    ("io::stdout", "console I/O"),
    ("io::stderr", "console I/O"),
];

/// Run the rule: BFS from every `TwoPcEngine` method taking `self`, then
/// scan each reached fn's body lines for ambient-effect tokens.
pub fn run(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    let g = &ctx.graph;
    let roots: Vec<usize> = g
        .production()
        .filter(|&i| is_engine_transition(&g.fns[i]))
        .collect();
    let parent = g.reach(&roots);
    for &idx in parent.keys() {
        let f = &g.fns[idx];
        let Some(sf) = ctx.files.get(&f.file) else {
            continue;
        };
        for ln in f.line..=f.end_line.min(sf.code.len()) {
            let i = ln - 1; // 0-based
            if sf.in_test[i] {
                continue;
            }
            for (tok, why) in IMPURE_TOKENS {
                if contains_token(&sf.code[i], tok) {
                    let chain = g.chain(&parent, idx);
                    finding(
                        out,
                        "effect_purity",
                        &f.file,
                        ln,
                        &f.qualname(),
                        tok,
                        format!(
                            "`{}` inside an engine transition ({why}); reachable \
                             via {} — the replication engine is pure, side effects \
                             leave only as Effect values",
                            tok.trim_matches(['.', '(']),
                            chain
                        ),
                    );
                }
            }
        }
    }
}
