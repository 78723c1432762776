//! The single-line token rules: `determinism`, `unordered_iter`,
//! `layering`, `unbounded_queue`, and `allow_reason`. These scan blanked
//! source lines ([`crate::source`]) — no call graph needed, because the
//! banned fact and the place it is banned are the same line.

use crate::rules::{finding, RuleCtx};
use crate::source::{contains_token, ident_before_colon, last_ident, SourceFile};
use crate::Finding;

/// Deterministic decision paths: the simulator, the policy layer, the
/// engine, and the NICE adapter.
pub const DETERMINISM_DIRS: &[&str] = &[
    "crates/sim/src",
    "crates/flow/src",
    "crates/kv-core/src",
    "crates/nicekv/src",
];

const DETERMINISM_TOKENS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "OS-seeded randomness"),
    ("OsRng", "OS randomness"),
    ("from_entropy", "OS-seeded randomness"),
    ("getrandom", "OS randomness"),
    ("rand::", "external randomness crate"),
];

/// No wall-clock time and no OS randomness inside the simulator and
/// protocol decision paths: the discrete-event simulator must replay
/// bit-for-bit from a seed.
pub fn determinism(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    for sf in ctx.files_under(DETERMINISM_DIRS, true) {
        for (i, line) in sf.code.iter().enumerate() {
            if sf.in_test[i] {
                continue;
            }
            for (tok, why) in DETERMINISM_TOKENS {
                if contains_token(line, tok) {
                    finding(
                        out,
                        "determinism",
                        &sf.rel,
                        i + 1,
                        "-",
                        tok,
                        format!(
                            "`{tok}` ({why}) in a deterministic decision path; \
                             derive everything from the seeded simulation clock/PRNG"
                        ),
                    );
                }
            }
        }
    }
}

/// Protocol crates where hash-container iteration order could leak into
/// a protocol decision.
pub const UNORDERED_DIRS: &[&str] = &[
    "crates/sim/src",
    "crates/flow/src",
    "crates/kv-core/src",
    "crates/nicekv/src",
    "crates/noob/src",
    "crates/transport/src",
];

/// Iterator-producing methods whose order is randomized on hash
/// containers.
pub const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// No iteration over `HashMap`/`HashSet` in protocol crates: iteration
/// order is randomized per process.
pub fn unordered_iter(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    for sf in ctx.files_under(UNORDERED_DIRS, true) {
        let names = hash_container_names(sf);
        if names.is_empty() {
            continue;
        }
        for (i, line) in sf.code.iter().enumerate() {
            if sf.in_test[i] {
                continue;
            }
            for name in &names {
                if iterates_name(line, name) {
                    finding(
                        out,
                        "unordered_iter",
                        &sf.rel,
                        i + 1,
                        "-",
                        name,
                        format!(
                            "iteration over hash container `{name}` (randomized order) \
                             may feed an ordered protocol decision; use BTreeMap/BTreeSet \
                             or sort first"
                        ),
                    );
                }
            }
        }
    }
}

/// Names declared in this file with a `HashMap`/`HashSet` type or
/// initialized from one (fields, lets, fn params).
pub fn hash_container_names(sf: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for (i, line) in sf.code.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        // `name: HashMap<...>` (field, param, or typed let)
        for ty in ["HashMap<", "HashSet<"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(ty) {
                let abs = from + pos;
                if let Some(n) = ident_before_colon(&line[..abs]) {
                    push_unique(&mut names, n);
                }
                from = abs + ty.len();
            }
        }
        // `let [mut] name = HashMap::new()` / `::default()` / `::with_capacity`
        for ctor in ["HashMap::", "HashSet::"] {
            if let Some(pos) = line.find(ctor) {
                if let Some(eq) = line[..pos].rfind('=') {
                    if let Some(n) = last_ident(&line[..eq]) {
                        push_unique(&mut names, n);
                    }
                }
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, n: String) {
    if !names.contains(&n) {
        names.push(n);
    }
}

/// True when `name` appears on this line with an ident boundary and is
/// iterated: either `name.<iter-method>` or as the tail of a `for .. in`.
pub fn iterates_name(line: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let abs = from + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &line[abs + name.len()..];
        let after_first = after.chars().next();
        let boundary_ok = !after_first.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && boundary_ok {
            if ITER_METHODS.iter().any(|m| after.starts_with(m)) {
                return true;
            }
            // `for x in [&[mut]] [self.]name {` — direct IntoIterator use
            if let Some(in_pos) = line[..abs].rfind(" in ") {
                let between = line[in_pos + 4..abs].trim();
                let clean_tail = after.trim_start();
                let tail_ends_expr = clean_tail.is_empty() || clean_tail.starts_with('{');
                let between_ok = matches!(
                    between,
                    "" | "&" | "&mut" | "self." | "&self." | "&mut self."
                );
                if line[..in_pos].contains("for ") && between_ok && tail_ends_expr {
                    return true;
                }
            }
        }
        from = abs + name.len().max(1);
    }
    false
}

/// `ObjectStore` mutators and protocol-state transitions that only the
/// shared engine (`kv-core`) may invoke. A policy adapter calling one of
/// these is reimplementing lock-table or commit logic the engine owns.
/// (`.commit(`/`.abort(` match store calls only — the engine entry points
/// are `.on_commit(`/`.on_abort(`.)
const STORE_MUTATION_TOKENS: &[&str] = &[
    ": ObjectStore",
    "ObjectStore::new",
    ".lock(",
    ".pending_mut(",
    ".commit(",
    ".commit_direct(",
    ".abort(",
    ".write_delay(",
];

/// The policy-adapter source trees: addressing, transport, views and
/// failure policy only — no store mutation, no 2PC transitions.
const ADAPTER_DIRS: &[&str] = &["crates/nicekv/src", "crates/noob/src"];

/// Crates `kv-core` must not depend on: the engine sits beneath the
/// policy and topology layers and stays system- and transport-agnostic.
const CORE_FORBIDDEN_DEPS: &[&str] = &["nice-flow", "nice-ring", "nice-transport"];

/// Crates whose production code must be host-agnostic: everything the
/// apps need from their host comes through `node_rt::NodeIo`.
const NODEIO_DIRS: &[&str] = &[
    "crates/transport/src",
    "crates/noob/src",
    "crates/nicekv/src",
    "crates/kv-core/src",
    "crates/ring/src",
];

/// Sim-side files inside those crates: cluster builders wire apps onto
/// simulated hosts, and the metadata service programs simulated switch
/// tables (the in-network half of NICE has no real-runtime analogue).
const NODEIO_EXEMPT: &[&str] = &[
    "crates/noob/src/cluster.rs",
    "crates/nicekv/src/cluster.rs",
    "crates/nicekv/src/metadata.rs",
];

/// Protocol logic lives in exactly one crate: adapters must not mutate
/// the store or rerun 2PC transitions, and kv-core must not depend on
/// the policy/topology crates.
pub fn layering(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    // Adapters must not mutate the store or run protocol transitions.
    for sf in ctx.files_under(ADAPTER_DIRS, true) {
        for (i, line) in sf.code.iter().enumerate() {
            if sf.in_test[i] {
                continue;
            }
            for tok in STORE_MUTATION_TOKENS {
                if line.contains(tok) {
                    finding(
                        out,
                        "layering",
                        &sf.rel,
                        i + 1,
                        "-",
                        tok.trim(),
                        format!(
                            "`{}` in a policy adapter — store mutation and 2PC \
                             transitions belong to kv-core's TwoPcEngine",
                            tok.trim()
                        ),
                    );
                }
            }
        }
    }

    // kv-core must not link the policy/topology crates... (skipped when
    // the tree has no kv-core at all, e.g. a lint-fixture root).
    if ctx.root.join("crates/kv-core/src").is_dir() {
        let manifest_rel = "crates/kv-core/Cargo.toml";
        match std::fs::read_to_string(ctx.root.join(manifest_rel)) {
            Ok(manifest) => {
                for (i, line) in manifest.lines().enumerate() {
                    for dep in CORE_FORBIDDEN_DEPS {
                        if line.trim_start().starts_with(dep) {
                            finding(
                                out,
                                "layering",
                                manifest_rel,
                                i + 1,
                                "-",
                                dep,
                                format!("kv-core must not depend on `{dep}`"),
                            );
                        }
                    }
                }
            }
            Err(_) => finding(
                out,
                "layering",
                manifest_rel,
                1,
                "-",
                "manifest",
                "cannot read the kv-core manifest".to_string(),
            ),
        }
    }

    // ...nor name their modules in source (a `path =` workaround would
    // slip past the manifest check above).
    for sf in ctx.files_under(&["crates/kv-core/src"], false) {
        for (i, line) in sf.code.iter().enumerate() {
            for krate in &["nice_flow", "nice_ring", "nice_transport"] {
                if contains_token(line, &format!("{krate}::")) {
                    finding(
                        out,
                        "layering",
                        &sf.rel,
                        i + 1,
                        "-",
                        krate,
                        format!("kv-core references `{krate}` — the engine is layered beneath it"),
                    );
                }
            }
        }
    }

    // Protocol logic talks to its host only through `NodeIo` — naming
    // the simulator directly would silently tie an app to one host and
    // break the real-runtime deployment. The sim-side harness files
    // (cluster builders, the SDN metadata service that programs
    // simulated switch tables) are the deliberate exceptions; in-crate
    // test modules may also drive the simulator (skip_tests).
    for sf in ctx.files_under(NODEIO_DIRS, true) {
        if NODEIO_EXEMPT.contains(&sf.rel.as_str()) {
            continue;
        }
        for (i, line) in sf.code.iter().enumerate() {
            if sf.in_test[i] {
                continue;
            }
            if contains_token(line, "nice_sim") {
                finding(
                    out,
                    "layering",
                    &sf.rel,
                    i + 1,
                    "-",
                    "nice_sim",
                    "protocol code names the simulator — host access goes through \
                     node_rt::NodeIo so the same app runs on the sim and the real \
                     UDP runtime"
                        .to_string(),
                );
            }
        }
    }
}

/// Tokens that shrink a collection (or replace it wholesale). A `self.*`
/// push inside `on_packet` is fine as long as the same field sees one of
/// these somewhere in the file.
const DRAIN_TOKENS: &[&str] = &[
    ".pop(",
    ".pop_front(",
    ".pop_back(",
    ".drain(",
    ".drain(..)",
    ".clear(",
    ".remove(",
    ".retain(",
    ".truncate(",
    ".swap_remove(",
    ".split_off(",
];

/// A `push` onto a `self.*` collection inside an `on_packet` handler
/// without any drain of that collection elsewhere in the file is a
/// remote-triggered memory leak.
pub fn unbounded_queue(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    for sf in ctx.files_under(UNORDERED_DIRS, true) {
        for (i, path) in on_packet_self_pushes(sf) {
            let field = path.rsplit('.').next().unwrap_or(&path).to_string();
            if field_is_drained(sf, &field) {
                continue;
            }
            finding(
                out,
                "unbounded_queue",
                &sf.rel,
                i + 1,
                "-",
                &path,
                format!(
                    "`{path}.push(..)` in an on_packet path with no drain of \
                     `{field}` anywhere in this file: every received packet \
                     grows it forever; drain it, bound it, or waive with a reason"
                ),
            );
        }
    }
}

/// `(line, self-path)` for every `self.<path>.push(` inside a function
/// named `on_packet` (tracked by brace depth from the `fn on_packet`
/// header). Pushes onto locals are per-packet scratch and stay exempt.
fn on_packet_self_pushes(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // (depth at which the on_packet body opened)
    let mut body_until: Option<i64> = None;
    let mut in_header = false;
    for (i, line) in sf.code.iter().enumerate() {
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if body_until.is_none() && contains_token(line, "fn on_packet") {
            in_header = true;
        }
        if in_header && opens > 0 {
            body_until = Some(depth);
            in_header = false;
        }
        if body_until.is_some() && !sf.in_test[i] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(".push(") {
                let abs = from + pos;
                if let Some(path) = self_path_before(&line[..abs]) {
                    out.push((i, path));
                }
                from = abs + ".push(".len();
            }
        }
        depth += opens - closes;
        if let Some(d) = body_until {
            if depth <= d {
                body_until = None;
            }
        }
    }
    out
}

/// The `self.a.b` path ending at `prefix`'s tail, if the receiver of the
/// following method call is reached through `self`.
fn self_path_before(prefix: &str) -> Option<String> {
    let t = prefix.trim_end();
    let start = t
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_' || *c == '.')
        .map(|(i, _)| i)
        .last()?;
    let path = &t[start..];
    if path.starts_with("self.") && path.len() > "self.".len() {
        Some(path.to_string())
    } else {
        None
    }
}

/// Does any non-test line shrink or replace `field`? Reassignment
/// (`field = ...`) and `mem::take(&mut ...field)` both count.
fn field_is_drained(sf: &SourceFile, field: &str) -> bool {
    for (i, line) in sf.code.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        for tok in DRAIN_TOKENS {
            let pat = format!("{field}{tok}");
            if contains_token(line, &pat) {
                return true;
            }
        }
        if contains_token(line, &format!("{field} =")) && !line.contains("==") {
            return true;
        }
        if line.contains("take(&mut") && contains_token(line, field) {
            return true;
        }
    }
    false
}

/// Directories whose waiver markers are checked (`allow_reason` and
/// `stale_allow`). `crates/xtask` is excluded: it mentions markers in
/// its own diagnostics and tests.
pub const ALLOW_REASON_DIRS: &[&str] = &[
    "crates/sim/src",
    "crates/flow/src",
    "crates/kv-core/src",
    "crates/ring/src",
    "crates/transport/src",
    "crates/nicekv/src",
    "crates/noob/src",
    "crates/workload/src",
    "crates/bench/src",
];

/// `(0-based line, rule-name)` for every `lint:allow(<known rule>)`
/// marker in `sf` (raw lines — markers live in comments).
pub fn allow_markers(sf: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, raw) in sf.raw.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = raw[from..].find("lint:allow(") {
            let abs = from + pos;
            let rest = &raw[abs + "lint:allow(".len()..];
            from = abs + "lint:allow(".len();
            if let Some(close) = rest.find(')') {
                out.push((i, rest[..close].to_string()));
            }
        }
    }
    out
}

/// Every `lint:allow(<rule>)` waiver must name a known rule and carry a
/// reason on the same line.
pub fn allow_reason(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    for sf in ctx.files_under(ALLOW_REASON_DIRS, false) {
        for (i, raw) in sf.raw.iter().enumerate() {
            let mut from = 0;
            while let Some(pos) = raw[from..].find("lint:allow(") {
                let abs = from + pos;
                let rest = &raw[abs + "lint:allow(".len()..];
                from = abs + "lint:allow(".len();
                let Some(close) = rest.find(')') else {
                    continue;
                };
                let rule = &rest[..close];
                if !crate::rules::ALL_RULES.contains(&rule) {
                    finding(
                        out,
                        "allow_reason",
                        &sf.rel,
                        i + 1,
                        "-",
                        rule,
                        format!("waiver names unknown rule `{rule}`"),
                    );
                    continue;
                }
                let reason = rest[close + 1..]
                    .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
                    .trim();
                if reason.chars().filter(|c| c.is_alphanumeric()).count() < 8 {
                    finding(
                        out,
                        "allow_reason",
                        &sf.rel,
                        i + 1,
                        "-",
                        rule,
                        format!(
                            "`lint:allow({rule})` without a reason; write \
                             `lint:allow({rule}) — <why this is safe>`"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_detection() {
        assert!(iterates_name("for (k, v) in &self.coords {", "coords"));
        assert!(iterates_name(
            "let v: Vec<_> = coords.values().collect();",
            "coords"
        ));
        assert!(iterates_name("for k in coords.keys() {", "coords"));
        assert!(!iterates_name("self.coords.insert(k, v);", "coords"));
        assert!(!iterates_name("let x = coords.get(&k);", "coords"));
        assert!(!iterates_name("for x in &self.records {", "coords"));
    }

    #[test]
    fn declared_names_found() {
        let sf = sf_from_code(&[
            "    coords: HashMap<String, Coord>,",
            "    let mut seen = HashSet::new();",
            "    views: BTreeMap<PartitionId, View>,",
        ]);
        let names = hash_container_names(&sf);
        assert_eq!(names, vec!["coords".to_string(), "seen".to_string()]);
    }

    fn sf_from_code(lines: &[&str]) -> SourceFile {
        let code: Vec<String> = lines.iter().map(std::string::ToString::to_string).collect();
        let n = code.len();
        SourceFile {
            rel: "x".into(),
            raw: vec![String::new(); n],
            code,
            in_test: vec![false; n],
        }
    }

    #[test]
    fn self_path_extraction() {
        assert_eq!(
            self_path_before("        self.inbox"),
            Some("self.inbox".to_string())
        );
        assert_eq!(
            self_path_before("let v = self.a.b"),
            Some("self.a.b".to_string())
        );
        assert_eq!(self_path_before("local_vec"), None);
        assert_eq!(self_path_before("self."), None);
    }

    #[test]
    fn on_packet_pushes_detected_only_in_body() {
        let sf = sf_from_code(&[
            "impl App {",
            "    fn setup(&mut self) {",
            "        self.ready.push(1);",
            "    }",
            "    fn on_packet(&mut self, b: u8) {",
            "        let mut scratch = Vec::new();",
            "        scratch.push(b);",
            "        self.inbox.push(b);",
            "    }",
            "}",
        ]);
        let pushes = on_packet_self_pushes(&sf);
        assert_eq!(pushes, vec![(7, "self.inbox".to_string())]);
    }

    #[test]
    fn drained_fields_recognized() {
        let sf = sf_from_code(&[
            "self.inbox.push(b);",
            "let x = self.inbox.pop();",
            "self.log.push(e);",
            "self.backlog = Vec::new();",
        ]);
        assert!(field_is_drained(&sf, "inbox"));
        assert!(!field_is_drained(&sf, "log"));
        assert!(field_is_drained(&sf, "backlog"));
    }

    #[test]
    fn layering_tokens_hit_store_calls_not_engine_hooks() {
        // Store mutators must trip the rule...
        let banned = [
            "self.store.lock(&key, op);",
            "self.store.commit(&key, op, ts);",
            "self.store.abort(&key, op, t);",
            "let d = self.store.write_delay(size, true);",
            "store: ObjectStore,",
        ];
        for line in banned {
            assert!(
                STORE_MUTATION_TOKENS.iter().any(|t| line.contains(t)),
                "expected a layering hit in `{line}`"
            );
        }
        // ...while the engine's own entry points must not.
        let fine = [
            "self.engine.on_commit(&key, op, ts, role);",
            "self.engine.on_abort(&key, op, t);",
            "self.engine.on_ack1(&key, op, from);",
            "let r = self.engine.lock_report(|k| part(k) == pid);",
            "pub fn store(&self) -> &ObjectStore {",
        ];
        for line in fine {
            assert!(
                !STORE_MUTATION_TOKENS.iter().any(|t| line.contains(t)),
                "false layering hit in `{line}`"
            );
        }
    }

    #[test]
    fn allow_markers_found_in_comments() {
        let sf = SourceFile::from_text(
            "x.rs",
            "let a = 1; // lint:allow(determinism) — seeded elsewhere\nlet b = 2;\n",
        );
        assert_eq!(allow_markers(&sf), vec![(0, "determinism".to_string())]);
    }
}
