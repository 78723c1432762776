//! Workspace automation for the NICE reproduction.
//!
//! `cargo run -p xtask -- lint` runs the project-specific static-analysis
//! suite: invariants the compiler and clippy cannot express because they
//! are about *this* codebase's correctness story (see DESIGN.md, "Static
//! analysis & lint policy").
//!
//! The suite has two tiers. The **textual rules** scan blanked source
//! lines per directory:
//!
//! 1. **determinism** — no wall-clock time and no OS randomness inside
//!    the simulator and protocol decision paths; the discrete-event
//!    simulator must replay bit-for-bit from a seed.
//! 2. **unordered_iter** — no iteration over `HashMap`/`HashSet` in
//!    protocol crates: iteration order is randomized per process.
//! 3. **layering** — protocol logic lives in exactly one crate: policy
//!    adapters must not mutate the store or rerun 2PC transitions, and
//!    `kv-core` must not depend on the policy/topology crates.
//! 4. **unbounded_queue** — a `self.*` push in an `on_packet` handler
//!    with no drain anywhere in the file is a remote-triggered leak.
//! 5. **allow_reason** — every `lint:allow(<rule>)` waiver must name a
//!    known rule and carry a reason.
//!
//! The **graph rules** ([`lexer`] → [`callgraph`]) build a workspace-
//! wide function/call graph and propagate facts transitively:
//!
//! 6. **panic_path** — may-panic sites (`unwrap`/`expect`/panicking
//!    macros/slice indexing) reachable from any request-path entry
//!    point, with the full call chain in the message.
//! 7. **effect_purity** — `TwoPcEngine` transitions are pure:
//!    no sends/sleeps/I-O anywhere they can reach; effects leave the
//!    engine only as `Effect` values.
//! 8. **determinism_taint** — clock reads, hash-order iteration, and
//!    pointer formatting must not flow into protocol state or
//!    `render()`/replay output.
//! 9. **dead_effect** — every `Effect` enum variant must be matched by
//!    some host adapter outside its defining file; an effect nobody
//!    interprets is a silently dropped side effect.
//! 10. **fsync_discipline** — a durability acknowledgement
//!     (`Effect::Ack1`/`Ack2`/`Commit`) must be preceded by a
//!     `wal_barrier()`/`wal_sync()` call in the same function:
//!     fsync-before-ack, or a crash after the send loses an
//!     acknowledged write.
//! 11. **stale_allow** — a waiver that no longer suppresses a finding
//!     is itself a finding.
//! 12. **write_only** — a struct field that is assigned but that no code
//!     in the crates, tests, examples or benchmark reads.
//!
//! Findings are compared against the committed `lint_baseline.json`
//! ([`baseline`]): new findings fail, fixed findings auto-shrink the
//! file, so CI ratchets toward zero without blocking on legacy debt.
//!
//! Exit status: 0 when no unbaselined finding, 1 otherwise.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod source;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::RuleCtx;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Containing function's qualified name, or `-` for file-level
    /// rules. Part of the baseline key, so findings survive line drift.
    pub ctx: String,
    /// Short machine-ish token naming what was found (part of the key).
    pub detail: String,
    /// Human message, including the call chain for graph rules.
    pub msg: String,
    /// Baseline identity: `rule|file|ctx|detail#ordinal`. Line-number
    /// free, so unrelated edits above a finding do not churn the
    /// baseline.
    pub key: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Run every rule over the workspace at `root` and return the
/// post-waiver finding set, keyed and sorted. This is the library
/// entry the fixture tests drive.
pub fn collect_findings(root: &Path) -> Vec<Finding> {
    let ctx = RuleCtx::load(root);
    let mut pre = Vec::new();
    rules::textual::determinism(&ctx, &mut pre);
    rules::textual::unordered_iter(&ctx, &mut pre);
    rules::textual::layering(&ctx, &mut pre);
    rules::textual::unbounded_queue(&ctx, &mut pre);
    rules::textual::allow_reason(&ctx, &mut pre);
    rules::panic_path::run(&ctx, &mut pre);
    rules::effect_purity::run(&ctx, &mut pre);
    rules::determinism_taint::run(&ctx, &mut pre);
    rules::dead_effect::run(&ctx, &mut pre);
    rules::fsync_discipline::run(&ctx, &mut pre);
    rules::write_only::run(&ctx, &mut pre);

    // Waiver pass: rules emit unconditionally; `lint:allow` markers are
    // applied here so stale_allow can see the pre-waiver set.
    let mut kept: Vec<Finding> = pre.iter().filter(|f| !waived(&ctx, f)).cloned().collect();
    rules::stale_allow::run(&ctx, &pre, &mut kept);

    kept.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail, &a.ctx)
            .cmp(&(&b.file, b.line, b.rule, &b.detail, &b.ctx))
    });
    assign_keys(&mut kept);
    kept
}

/// Is `f` suppressed by a `lint:allow` marker on its own or the
/// preceding line? Meta-rules about the markers themselves are never
/// waivable.
fn waived(ctx: &RuleCtx, f: &Finding) -> bool {
    if f.rule == "allow_reason" || f.rule == "stale_allow" {
        return false;
    }
    f.line >= 1
        && ctx
            .files
            .get(&f.file)
            .is_some_and(|sf| sf.allowed(f.line - 1, f.rule))
}

/// Assign baseline keys: `rule|file|ctx|detail#ordinal`, ordinal by
/// position in the (already file/line-sorted) finding list — the 2nd
/// `unwrap()` in the same fn is `#2` regardless of its line number.
fn assign_keys(findings: &mut [Finding]) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in findings.iter_mut() {
        let base = format!("{}|{}|{}|{}", f.rule, f.file, f.ctx, f.detail);
        let n = counts.entry(base.clone()).or_insert(0);
        *n += 1;
        f.key = format!("{base}#{n}");
    }
}

/// Render the full findings report as byte-stable JSON (sorted input,
/// hand-rolled writer, no map iteration).
pub fn render_json(findings: &[Finding], baselined: &BTreeSet<String>) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    let mut first = true;
    for f in findings {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"key\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"baselined\": {}, \"msg\": \"{}\"}}",
            baseline::escape(&f.key),
            f.rule,
            baseline::escape(&f.file),
            f.line,
            baselined.contains(&f.key),
            baseline::escape(&f.msg),
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

const USAGE: &str =
    "usage: cargo run -p xtask -- lint [--root <workspace>] [--json] [--no-baseline] [--write-baseline]";

/// CLI entry (the `xtask` binary is a thin wrapper around this).
pub fn cli(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cmd = None;
    let mut json = false;
    let mut no_baseline = false;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(r) => root = PathBuf::from(r),
                    None => {
                        eprintln!("--root requires a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            c if cmd.is_none() => cmd = Some(c.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    match cmd.as_deref() {
        Some("lint") => run_lint(&root, json, no_baseline, write_baseline),
        Some(other) => {
            eprintln!("unknown command: {other}\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(root: &Path, json: bool, no_baseline: bool, write_baseline: bool) -> ExitCode {
    let findings = collect_findings(root);
    let current: BTreeSet<String> = findings.iter().map(|f| f.key.clone()).collect();
    let baseline_path = root.join("lint_baseline.json");

    if write_baseline {
        if let Err(e) = baseline::write(&baseline_path, &current) {
            eprintln!("cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "xtask lint: baseline written with {} finding(s)",
            current.len()
        );
        return ExitCode::SUCCESS;
    }

    let known: BTreeSet<String> = if no_baseline {
        BTreeSet::new()
    } else {
        baseline::read(&baseline_path).unwrap_or_default()
    };
    let fresh: Vec<&Finding> = findings
        .iter()
        .filter(|f| !known.contains(&f.key))
        .collect();
    let gone: Vec<&String> = known.difference(&current).collect();

    if json {
        print!("{}", render_json(&findings, &known));
    } else {
        for f in &fresh {
            println!("{f}");
        }
    }

    if !fresh.is_empty() {
        eprintln!(
            "xtask lint: {} new finding(s) not in baseline ({} baselined)",
            fresh.len(),
            findings.len() - fresh.len()
        );
        return ExitCode::FAILURE;
    }
    if !gone.is_empty() && !no_baseline {
        // Ratchet: findings that disappeared leave the baseline for good.
        if let Err(e) = baseline::write(&baseline_path, &current) {
            eprintln!("cannot shrink {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask lint: {} finding(s) fixed — baseline shrunk to {}",
            gone.len(),
            current.len()
        );
    }
    if !json {
        println!("xtask lint: clean ({} baselined finding(s))", current.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(rule: &'static str, file: &str, line: usize, ctx: &str, detail: &str) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            ctx: ctx.into(),
            detail: detail.into(),
            msg: format!("{detail} at {file}:{line}"),
            key: String::new(),
        }
    }

    #[test]
    fn keys_are_line_free_and_ordinal_stable() {
        let mut fs = vec![
            fake("panic_path", "a.rs", 10, "T::f", "unwrap()"),
            fake("panic_path", "a.rs", 20, "T::f", "unwrap()"),
            fake("determinism", "a.rs", 30, "-", "SystemTime"),
        ];
        assign_keys(&mut fs);
        assert_eq!(fs[0].key, "panic_path|a.rs|T::f|unwrap()#1");
        assert_eq!(fs[1].key, "panic_path|a.rs|T::f|unwrap()#2");
        assert_eq!(fs[2].key, "determinism|a.rs|-|SystemTime#1");
        // Shifting every line must not change any key.
        let mut shifted = vec![
            fake("panic_path", "a.rs", 15, "T::f", "unwrap()"),
            fake("panic_path", "a.rs", 25, "T::f", "unwrap()"),
            fake("determinism", "a.rs", 35, "-", "SystemTime"),
        ];
        assign_keys(&mut shifted);
        for (a, b) in fs.iter().zip(&shifted) {
            assert_eq!(a.key, b.key);
        }
    }

    #[test]
    fn json_report_is_flagged_and_stable() {
        let mut fs = vec![fake("determinism", "a.rs", 3, "-", "SystemTime")];
        assign_keys(&mut fs);
        let known: BTreeSet<String> = [fs[0].key.clone()].into_iter().collect();
        let doc = render_json(&fs, &known);
        assert!(doc.contains("\"baselined\": true"));
        assert_eq!(doc, render_json(&fs, &known), "byte-stable");
        let empty = render_json(&[], &BTreeSet::new());
        assert!(empty.contains("\"findings\": []"));
    }
}
