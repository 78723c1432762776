//! The lint rules, split by mechanism.
//!
//! * [`textual`] — the single-line token rules (`determinism`,
//!   `unordered_iter`, `layering`, `unbounded_queue`, `allow_reason`),
//!   scanning blanked source lines.
//! * [`panic_path`], [`effect_purity`], [`determinism_taint`] — the
//!   call-graph rules, propagating leaf facts transitively from
//!   request-path / engine / render roots over [`crate::callgraph`].
//! * [`dead_effect`] — cross-file reference rule: every `Effect` enum
//!   variant must be interpreted by some host adapter.
//! * [`write_only`] — cross-file reference rule: every struct field
//!   must be read somewhere.
//! * [`stale_allow`] — meta-rule: a waiver whose line no longer
//!   triggers the waived rule is itself a finding.
//!
//! Every rule pushes findings *unconditionally* (no waiver filtering):
//! the orchestrator in `lib.rs` applies `lint:allow` waivers afterward,
//! which is what lets `stale_allow` see the pre-waiver finding set.

pub mod dead_effect;
pub mod determinism_taint;
pub mod effect_purity;
pub mod fsync_discipline;
pub mod panic_path;
pub mod stale_allow;
pub mod textual;
pub mod write_only;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::callgraph::{FnItem, Workspace};
use crate::source::{rs_files, SourceFile};
use crate::Finding;

/// Every rule name a `lint:allow(...)` marker may reference.
pub const ALL_RULES: &[&str] = &[
    "determinism",
    "panic_path",
    "unordered_iter",
    "layering",
    "unbounded_queue",
    "allow_reason",
    "effect_purity",
    "determinism_taint",
    "dead_effect",
    "fsync_discipline",
    "stale_allow",
    "write_only",
];

/// Crate source dirs excluded from the call graph: `xtask` is the lint
/// itself, `bench` is measurement harness code that drives the system
/// from outside any request path.
pub(crate) const GRAPH_EXCLUDED: &[&str] = &["crates/xtask", "crates/bench"];

/// Is `f` a replication-engine transition — a `TwoPcEngine` method
/// taking `self`? The root set of `effect_purity` and
/// `determinism_taint`, and part of `panic_path`'s. Constructors (no
/// `self`) stay out: `recover` opens the WAL file by design.
pub fn is_engine_transition(f: &FnItem) -> bool {
    f.self_ty.as_deref() == Some("TwoPcEngine") && f.has_self
}

/// Shared per-run state: every loaded source file plus the parsed
/// workspace call graph.
pub struct RuleCtx {
    /// Workspace root.
    pub root: PathBuf,
    /// rel path → loaded file, for every `.rs` under `crates/*/src`
    /// and the facade `src/`.
    pub files: BTreeMap<String, SourceFile>,
    /// The workspace function/call-graph model (protocol crates only;
    /// `xtask` and `bench` are excluded).
    pub graph: Workspace,
}

impl RuleCtx {
    /// Load all sources under `root` and build the call graph.
    pub fn load(root: &Path) -> RuleCtx {
        let mut files = BTreeMap::new();
        let mut dirs: Vec<String> = vec!["src".to_string()];
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            for e in entries.flatten() {
                if e.path().is_dir() {
                    dirs.push(format!("crates/{}/src", e.file_name().to_string_lossy()));
                }
            }
        }
        dirs.sort();
        for dir in &dirs {
            for rel in rs_files(root, dir, &[]) {
                if let Some(sf) = SourceFile::load(root, &rel) {
                    files.insert(rel, sf);
                }
            }
        }
        let graph_inputs: Vec<(String, String)> = files
            .keys()
            .filter(|rel| {
                !GRAPH_EXCLUDED
                    .iter()
                    .any(|ex| rel.starts_with(&format!("{ex}/")))
            })
            .filter_map(|rel| {
                std::fs::read_to_string(root.join(rel))
                    .ok()
                    .map(|text| (rel.clone(), text))
            })
            .collect();
        let graph = Workspace::parse(&graph_inputs);
        RuleCtx {
            root: root.to_path_buf(),
            files,
            graph,
        }
    }

    /// Loaded files whose path starts with any of `dirs` (each given as
    /// a dir prefix like `crates/sim/src`), excluding out-of-line test
    /// modules when `skip_tests`.
    pub fn files_under<'c>(
        &'c self,
        dirs: &'c [&str],
        skip_tests: bool,
    ) -> impl Iterator<Item = &'c SourceFile> {
        self.files.iter().filter_map(move |(rel, sf)| {
            let in_dir = dirs.iter().any(|d| rel.starts_with(&format!("{d}/")));
            if !in_dir {
                return None;
            }
            if skip_tests && (rel.ends_with("/tests.rs") || rel.ends_with("/prop_tests.rs")) {
                return None;
            }
            Some(sf)
        })
    }
}

/// Push a finding, filling the common fields.
pub fn finding(
    out: &mut Vec<Finding>,
    rule: &'static str,
    file: &str,
    line: usize,
    ctx: &str,
    detail: &str,
    msg: String,
) {
    out.push(Finding {
        rule,
        file: file.to_string(),
        line,
        ctx: ctx.to_string(),
        detail: detail.to_string(),
        msg,
        key: String::new(), // assigned by the orchestrator
    });
}
