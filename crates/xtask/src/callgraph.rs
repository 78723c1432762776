//! Workspace-wide function/call-graph model for the graph-based rules.
//!
//! Built on the token stream from [`crate::lexer`]: a lightweight item
//! parser walks each file's tokens, tracking `mod`/`impl`/`trait`/`fn`
//! scopes by delimiter matching, and records for every function
//!
//! * its identity (name, impl type, trait, file, line span, test-ness),
//! * every call site in its body (bare `f(...)`, path `T::f(...)`,
//!   method `recv.f(...)` with the receiver shape), and
//! * its may-panic sites (`unwrap`/`expect`/panic-family macros and
//!   slice/array indexing).
//!
//! Name resolution is heuristic but type-assisted: struct field types,
//! `let` bindings, fn parameter types, and generic bounds let most
//! method calls resolve to the concrete impl. Unresolvable method names
//! fall back to every workspace method of that name — *except* a list
//! of ubiquitous std names (`push`, `get`, `insert`, ...) whose fallback
//! edges would wire the whole graph together through `Vec`/`BTreeMap`
//! calls. The result is deliberately conservative in the direction that
//! matters for the lint: a false edge can at worst surface a finding a
//! human then waives; a pruned std edge cannot hide a workspace call
//! because workspace methods sharing a std name still resolve through
//! their receiver type.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, Token};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub enum CallStyle {
    /// `name(...)` — a free function in scope.
    Bare,
    /// `Qual::name(...)` — `qual` is the path segment before the name.
    Path {
        /// Last path segment before `::name` (type, trait, or module).
        qual: String,
    },
    /// `recv.name(...)`.
    Method {
        /// Receiver shape, for type lookup.
        recv: Recv,
    },
}

/// Receiver of a method call, as far as the parser can see.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// Literally `self.name(...)`.
    SelfVal,
    /// `self.field.name(...)` — one field deep.
    SelfField(String),
    /// `var.name(...)` on a local or parameter.
    Var(String),
    /// Anything else (chained calls, temporaries, paths).
    Other,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// Shape of the call.
    pub style: CallStyle,
    /// 1-based source line.
    pub line: usize,
}

/// A may-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// What panics: `unwrap()`, `expect(..)`, `panic!`, `indexing` ...
    pub what: String,
}

/// One parsed function (free fn, inherent/trait-impl method, or trait
/// default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `impl` self type (last path segment), if a method.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for T` methods and trait defaults.
    pub trait_name: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// Crate directory, e.g. `crates/kv-core` (or `src` for the facade).
    pub crate_dir: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
    /// Inside `#[cfg(test)]` or carrying `#[test]`.
    pub is_test: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// May-panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Local/param name → type last-segment, for receiver resolution.
    pub locals: BTreeMap<String, String>,
    /// Generic param → bound trait names (from fn + enclosing impl).
    pub bounds: BTreeMap<String, Vec<String>>,
}

impl FnItem {
    /// `Type::name` or bare `name`, for diagnostics.
    pub fn qualname(&self) -> String {
        match (&self.self_ty, &self.trait_name) {
            (Some(t), _) => format!("{t}::{}", self.name),
            (None, Some(tr)) => format!("{tr}::{}", self.name),
            _ => self.name.clone(),
        }
    }
}

/// The parsed workspace: all functions plus the indexes used to resolve
/// calls into edges.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every parsed function.
    pub fns: Vec<FnItem>,
    /// Trait name → declared method names (from `trait T { fn m(..); }`).
    pub traits: BTreeMap<String, BTreeSet<String>>,
    /// Struct name → field name → field type last-segment.
    pub fields: BTreeMap<String, BTreeMap<String, String>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_ty_method: BTreeMap<(String, String), Vec<usize>>,
    by_trait_method: BTreeMap<(String, String), Vec<usize>>,
}

/// Method names whose *unresolved* fallback edges are suppressed: they
/// are overwhelmingly std collection/option/iterator calls, and a
/// workspace method of the same name still resolves via its receiver
/// type. See module docs for why this cannot hide real calls.
const STD_COMMON: &[&str] = &[
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "into_keys",
    "into_values",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "map_or",
    "map_while",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partition",
    "peek",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_str",
    "range",
    "remove",
    "repeat",
    "replace",
    "rev",
    "retain",
    "rfind",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_off",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "zip",
];

/// Path qualifiers that are std/core modules or primitives: a
/// `qual::name(...)` call through one of these never targets workspace
/// code.
const STD_QUALS: &[&str] = &[
    "std", "core", "alloc", "mem", "ptr", "fmt", "cmp", "iter", "slice", "str", "char", "u8",
    "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32", "f64",
    "bool", "Box", "Vec", "String", "Option", "Result", "Some", "None", "Ok", "Err", "BTreeMap",
    "BTreeSet", "HashMap", "HashSet", "VecDeque", "Ordering", "Duration", "Iterator", "array",
    "env", "process", "thread", "time", "convert", "TryFrom", "TryInto", "From", "Into",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rust keywords that look like `ident (` call heads but are not calls.
const KEYWORDS: &[&str] = &[
    "as", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

impl Workspace {
    /// Parse every `(rel_path, source)` pair into one workspace model
    /// and build the resolution indexes.
    pub fn parse(files: &[(String, String)]) -> Workspace {
        let mut ws = Workspace::default();
        for (rel, text) in files {
            parse_file(rel, text, &mut ws);
        }
        for (i, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(ty) = &f.self_ty {
                ws.by_ty_method
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
            if let Some(tr) = &f.trait_name {
                ws.by_trait_method
                    .entry((tr.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        ws
    }

    /// All production (non-test) function indexes.
    pub fn production(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.fns.len()).filter(|&i| !self.fns[i].is_test)
    }

    /// Resolve one call site in `caller` to candidate callee indexes.
    /// Conservative: may return several candidates (trait dispatch,
    /// same-name fallback), or none (std calls).
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        let f = &self.fns[caller];
        let out = match &call.style {
            CallStyle::Bare => {
                if KEYWORDS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                self.candidates_by_name(&call.name, f, /* methods_only */ false)
            }
            CallStyle::Path { qual } => self.resolve_path(f, qual, &call.name),
            CallStyle::Method { recv } => self.resolve_method(f, recv, &call.name),
        };
        out.into_iter().filter(|&i| !self.fns[i].is_test).collect()
    }

    fn resolve_path(&self, f: &FnItem, qual: &str, name: &str) -> Vec<usize> {
        let qual = if qual == "Self" {
            match &f.self_ty {
                Some(t) => t.clone(),
                None => return Vec::new(),
            }
        } else {
            qual.to_string()
        };
        if let Some(v) = self.by_ty_method.get(&(qual.clone(), name.to_string())) {
            return v.clone();
        }
        if let Some(v) = self.by_trait_method.get(&(qual.clone(), name.to_string())) {
            return v.clone();
        }
        if STD_QUALS.contains(&qual.as_str()) {
            return Vec::new();
        }
        // Module-qualified free fn: `history::check(...)` — match fns of
        // that name defined in a file named after the module.
        let modfile = format!("/{qual}.rs");
        if let Some(v) = self.by_name.get(name) {
            let in_mod: Vec<usize> = v
                .iter()
                .copied()
                .filter(|&i| self.fns[i].file.ends_with(&modfile))
                .collect();
            if !in_mod.is_empty() {
                return in_mod;
            }
        }
        // Unknown qualifier (type from std, enum constructor path, ...):
        // fall back by name, minus ubiquitous std names.
        if STD_COMMON.contains(&name) || name == "new" {
            return Vec::new();
        }
        self.candidates_by_name(name, f, false)
    }

    fn resolve_method(&self, f: &FnItem, recv: &Recv, name: &str) -> Vec<usize> {
        let recv_ty: Option<String> = match recv {
            Recv::SelfVal => f.self_ty.clone(),
            Recv::SelfField(field) => f
                .self_ty
                .as_ref()
                .and_then(|t| self.fields.get(t))
                .and_then(|m| m.get(field))
                .cloned(),
            Recv::Var(v) => f.locals.get(v).cloned(),
            Recv::Other => None,
        };
        if let Some(ty) = recv_ty {
            if let Some(v) = self.by_ty_method.get(&(ty.clone(), name.to_string())) {
                return v.clone();
            }
            // Trait object / generic bound receiver → all impls of the
            // trait (plus its default methods).
            let mut traits: Vec<&str> = Vec::new();
            if self.traits.contains_key(&ty) {
                traits.push(&ty);
            }
            if let Some(bs) = f.bounds.get(&ty) {
                traits.extend(bs.iter().map(String::as_str));
            }
            let mut out = Vec::new();
            for tr in traits {
                if let Some(v) = self
                    .by_trait_method
                    .get(&(tr.to_string(), name.to_string()))
                {
                    out.extend(v.iter().copied());
                }
            }
            if !out.is_empty() {
                return out;
            }
            // `self.method()` reaching a Deref target or an unparsed
            // receiver type: fall through to the name-based fallback.
        }
        if STD_COMMON.contains(&name) {
            return Vec::new();
        }
        self.candidates_by_name(name, f, true)
    }

    /// Same-file, then same-crate, then workspace candidates named
    /// `name`.
    fn candidates_by_name(&self, name: &str, from: &FnItem, methods_only: bool) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        let all: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| !methods_only || self.fns[i].has_self)
            .collect();
        for narrower in [
            |f: &FnItem, from: &FnItem| f.file == from.file,
            |f: &FnItem, from: &FnItem| f.crate_dir == from.crate_dir,
        ] {
            let sub: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| narrower(&self.fns[i], from))
                .collect();
            if !sub.is_empty() {
                return sub;
            }
        }
        // Workspace-wide tier: a call landing on a ubiquitous std name
        // with no same-file/same-crate match is almost surely std —
        // every real workspace call of such a name resolves through a
        // receiver type or one of the nearer tiers above.
        if STD_COMMON.contains(&name) {
            return Vec::new();
        }
        all
    }

    /// Breadth-first reachability from `roots` over resolved call
    /// edges, restricted to production fns. Returns, for each reached
    /// fn, the index of the fn it was first reached from (roots map to
    /// themselves), enabling shortest-chain reconstruction.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if !self.fns[r].is_test && parent.insert(r, r).is_none() {
                queue.push(r);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let cur = queue[qi];
            qi += 1;
            for call in &self.fns[cur].calls {
                for cand in self.resolve(cur, call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(cand) {
                        e.insert(cur);
                        queue.push(cand);
                    }
                }
            }
        }
        parent
    }

    /// `root → ... → target` as ` → `-joined qualified names, read off
    /// the `reach` parent map.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut rev = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.iter()
            .map(|&i| self.fns[i].qualname())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Crate directory of a workspace-relative path: `crates/<name>` for
/// crate sources, the first component otherwise (`src`, `tests`, ...).
fn crate_dir_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        format!("crates/{}", parts[1])
    } else {
        parts[0].to_string()
    }
}

// ---------------------------------------------------------------------
// File parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Scope {
    /// Any `{}` block we do not model (struct body already handled,
    /// expression blocks, match arms, ...). Carries `fn_idx` when the
    /// block is (inside) a function body.
    Block { fn_idx: Option<usize> },
    /// An `impl` block: (self type, trait name, generic bounds).
    Impl {
        self_ty: Option<String>,
        trait_name: Option<String>,
        bounds: BTreeMap<String, Vec<String>>,
        is_test: bool,
    },
    /// A `trait Name { ... }` definition body.
    Trait { name: String, is_test: bool },
    /// `mod name { ... }`.
    Mod { is_test: bool },
    /// A function body (index into `ws.fns`).
    Fn { fn_idx: usize },
    /// `struct Name { ... }` field list.
    Struct { name: String },
}

struct Parser<'a> {
    toks: &'a [Token],
    rel: &'a str,
    crate_dir: String,
    /// Tokens accumulated since the last `;`, `{`, or `}` at item
    /// level — the candidate item head.
    head: Vec<Token>,
    scopes: Vec<Scope>,
}

fn parse_file(rel: &str, text: &str, ws: &mut Workspace) {
    let toks = lex(text);
    let mut p = Parser {
        toks: &toks,
        rel,
        crate_dir: crate_dir_of(rel),
        head: Vec::new(),
        scopes: Vec::new(),
    };
    p.run(ws);
}

impl<'a> Parser<'a> {
    fn enclosing_fn(&self) -> Option<usize> {
        for s in self.scopes.iter().rev() {
            match s {
                Scope::Fn { fn_idx } => return Some(*fn_idx),
                Scope::Block { fn_idx } => {
                    if fn_idx.is_some() {
                        return *fn_idx;
                    }
                }
                _ => return None,
            }
        }
        None
    }

    fn enclosing_impl(
        &self,
    ) -> (
        Option<String>,
        Option<String>,
        BTreeMap<String, Vec<String>>,
    ) {
        for s in self.scopes.iter().rev() {
            match s {
                Scope::Impl {
                    self_ty,
                    trait_name,
                    bounds,
                    ..
                } => return (self_ty.clone(), trait_name.clone(), bounds.clone()),
                Scope::Trait { name, .. } => return (None, Some(name.clone()), BTreeMap::new()),
                _ => {}
            }
        }
        (None, None, BTreeMap::new())
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| match s {
            Scope::Impl { is_test, .. } | Scope::Trait { is_test, .. } | Scope::Mod { is_test } => {
                *is_test
            }
            _ => false,
        })
    }

    fn run(&mut self, ws: &mut Workspace) {
        let mut i = 0usize;
        while i < self.toks.len() {
            let t = &self.toks[i];
            match &t.kind {
                Tok::Punct('{') => {
                    let scope = self.classify_head(ws);
                    // A fn head opens a body: record the item now so
                    // nested calls attribute to it.
                    self.scopes.push(scope);
                    self.head.clear();
                    i += 1;
                    // Struct bodies and fn bodies get scanned by their
                    // dedicated loops to keep head tracking simple.
                    match self.scopes.last().cloned() {
                        Some(Scope::Struct { name }) => {
                            i = self.scan_struct_fields(ws, i, &name);
                        }
                        Some(Scope::Fn { fn_idx }) => {
                            i = self.scan_fn_body(ws, i, fn_idx);
                        }
                        _ => {}
                    }
                }
                Tok::Punct('}') => {
                    self.scopes.pop();
                    self.head.clear();
                    i += 1;
                }
                Tok::Punct(';') => {
                    // Bodyless trait method: record the declaration.
                    self.note_trait_decl(ws);
                    self.head.clear();
                    i += 1;
                }
                _ => {
                    self.head.push(t.clone());
                    i += 1;
                }
            }
        }
    }

    /// Decide what an opening `{` opens, from the accumulated head
    /// tokens. Registers `FnItem`s as a side effect.
    fn classify_head(&mut self, ws: &mut Workspace) -> Scope {
        let head = std::mem::take(&mut self.head);
        let idents: Vec<(usize, &str)> = head
            .iter()
            .enumerate()
            .filter_map(|(k, t)| t.ident().map(|s| (k, s)))
            .collect();
        let is_test_attr = head_has_test_attr(&head);
        let in_test = self.in_test_scope() || is_test_attr || is_test_file(self.rel);

        // The *last* item keyword wins: `pub fn f(x: impl Trait)` has
        // both `fn` and `impl`, and the head is a fn.
        let mut kw: Option<(usize, &str)> = None;
        for &(k, s) in &idents {
            if matches!(
                s,
                "fn" | "impl" | "trait" | "mod" | "struct" | "enum" | "union"
            ) {
                // `impl`/`fn` inside parens/brackets of an earlier item
                // head (e.g. `fn f(x: impl Fn())`) — keep the first
                // item keyword, not type-position ones.
                if kw.is_none() {
                    kw = Some((k, s));
                }
            }
        }
        match kw {
            Some((k, "fn")) => {
                let item = self.parse_fn_head(ws, &head, k, in_test);
                Scope::Fn { fn_idx: item }
            }
            Some((k, "impl")) => {
                let (self_ty, trait_name, bounds) = parse_impl_head(&head[k..]);
                Scope::Impl {
                    self_ty,
                    trait_name,
                    bounds,
                    is_test: in_test,
                }
            }
            Some((k, "trait")) => {
                let name = head
                    .get(k + 1)
                    .and_then(Token::ident)
                    .unwrap_or("")
                    .to_string();
                ws.traits.entry(name.clone()).or_default();
                Scope::Trait {
                    name,
                    is_test: in_test,
                }
            }
            Some((_, "mod")) => Scope::Mod { is_test: in_test },
            Some((k, "struct")) => {
                let name = head
                    .get(k + 1)
                    .and_then(Token::ident)
                    .unwrap_or("")
                    .to_string();
                Scope::Struct { name }
            }
            Some((_, "enum" | "union")) => Scope::Struct {
                name: String::new(),
            },
            _ => Scope::Block {
                fn_idx: self.enclosing_fn(),
            },
        }
    }

    /// Parse a fn head (`... fn name <generics> ( params ) -> ...`) and
    /// register the `FnItem`. Returns its index.
    fn parse_fn_head(
        &mut self,
        ws: &mut Workspace,
        head: &[Token],
        fn_kw: usize,
        is_test: bool,
    ) -> usize {
        let name = head
            .get(fn_kw + 1)
            .and_then(Token::ident)
            .unwrap_or("")
            .to_string();
        let line = head.get(fn_kw).map_or(1, |t| t.line);
        let (self_ty, trait_name, mut bounds) = self.enclosing_impl();
        for (p, bs) in parse_generic_bounds(&head[fn_kw..]) {
            bounds.entry(p).or_default().extend(bs);
        }
        let (has_self, locals) = parse_params(&head[fn_kw..]);
        let idx = ws.fns.len();
        ws.fns.push(FnItem {
            name: name.clone(),
            self_ty,
            trait_name: trait_name.clone(),
            file: self.rel.to_string(),
            crate_dir: self.crate_dir.clone(),
            line,
            end_line: line,
            is_test,
            has_self,
            calls: Vec::new(),
            panics: Vec::new(),
            locals,
            bounds,
        });
        if let Some(tr) = trait_name {
            ws.traits.entry(tr).or_default().insert(name);
        }
        idx
    }

    /// A head ending in `;`: record `fn` declarations inside `trait`
    /// bodies so bound-based dispatch knows the trait's surface.
    fn note_trait_decl(&mut self, ws: &mut Workspace) {
        let Some(Scope::Trait { name, .. }) = self
            .scopes
            .iter()
            .rev()
            .find(|s| !matches!(s, Scope::Block { .. }))
        else {
            self.head.clear();
            return;
        };
        let name = name.clone();
        let mut it = self.head.iter();
        while let Some(t) = it.next() {
            if t.ident() == Some("fn") {
                if let Some(m) = it.next().and_then(Token::ident) {
                    ws.traits.entry(name.clone()).or_default().insert(m.into());
                }
                break;
            }
        }
    }

    /// Scan `struct Name { field: Type, ... }`, recording field types.
    /// Returns the index just past the closing `}`.
    fn scan_struct_fields(&mut self, ws: &mut Workspace, mut i: usize, name: &str) -> usize {
        let mut depth = 1i32;
        let mut field: Option<String> = None;
        while i < self.toks.len() && depth > 0 {
            let t = &self.toks[i];
            match &t.kind {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                Tok::Punct(':')
                    if depth == 1 && self.toks.get(i + 1).is_some_and(|n| !n.is(':')) =>
                {
                    // `field :` at depth 1 — previous ident is the name,
                    // the type's last segment follows before `,`.
                    if let Some(f) = field.take() {
                        let (ty, ni) = last_type_segment(self.toks, i + 1);
                        if !name.is_empty() && !ty.is_empty() {
                            ws.fields.entry(name.to_string()).or_default().insert(f, ty);
                        }
                        i = ni;
                        continue;
                    }
                }
                Tok::Punct(':') => {
                    // second `:` of `::` — skip its pair
                    i += 1;
                    continue;
                }
                Tok::Ident(s) => field = Some(s.clone()),
                _ => {}
            }
            i += 1;
        }
        self.scopes.pop();
        i
    }

    /// Scan a fn body: collect call sites, panic sites, and local `let`
    /// types, handling nested blocks inline (nested *items* are rare
    /// and deliberately treated as part of this body). Returns the
    /// index just past the body's closing `}`.
    fn scan_fn_body(&mut self, ws: &mut Workspace, mut i: usize, fn_idx: usize) -> usize {
        let mut depth = 1i32;
        while i < self.toks.len() && depth > 0 {
            let t = &self.toks[i];
            match &t.kind {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        ws.fns[fn_idx].end_line = t.line;
                    }
                }
                Tok::Punct('[') => {
                    if let Some(site) = index_site(self.toks, i) {
                        ws.fns[fn_idx].panics.push(site);
                    }
                }
                Tok::Punct('!') => {
                    // macro call: `name ! ( / [ / {`
                    if let (Some(prev), Some(next)) = (
                        i.checked_sub(1).map(|k| &self.toks[k]),
                        self.toks.get(i + 1),
                    ) {
                        if next.is('(') || next.is('[') || next.is('{') {
                            if let Some(mac) = prev.ident() {
                                if PANIC_MACROS.contains(&mac) {
                                    ws.fns[fn_idx].panics.push(PanicSite {
                                        line: prev.line,
                                        what: format!("{mac}!"),
                                    });
                                }
                            }
                        }
                    }
                }
                Tok::Ident(name) if self.toks.get(i + 1).is_some_and(|n| n.is('(')) => {
                    if let Some(call) = call_site(self.toks, i, name) {
                        if matches!(call.style, CallStyle::Method { .. })
                            && (name == "unwrap" || name == "expect")
                        {
                            ws.fns[fn_idx].panics.push(PanicSite {
                                line: t.line,
                                what: if name == "unwrap" {
                                    "unwrap()".into()
                                } else {
                                    "expect(..)".into()
                                },
                            });
                        } else {
                            ws.fns[fn_idx].calls.push(call);
                        }
                    }
                }
                Tok::Ident(kw) if kw == "let" => {
                    if let Some((var, ty, ni)) = let_binding_type(self.toks, i) {
                        ws.fns[fn_idx].locals.insert(var, ty);
                        i = ni;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.scopes.pop();
        i
    }
}

/// `#[test]` / `#[cfg(test)]` present among the head's attributes?
fn head_has_test_attr(head: &[Token]) -> bool {
    let mut i = 0;
    while i + 1 < head.len() {
        if head[i].is('#') && head[i + 1].is('[') {
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut inner: Vec<&str> = Vec::new();
            while j < head.len() && depth > 0 {
                match &head[j].kind {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(s) => inner.push(s),
                    _ => {}
                }
                j += 1;
            }
            match inner.as_slice() {
                ["test"] => return true,
                ["cfg", rest @ ..] if rest.contains(&"test") => return true,
                _ => {}
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

/// Out-of-line test modules and integration-test trees.
fn is_test_file(rel: &str) -> bool {
    rel.ends_with("/tests.rs") || rel.ends_with("/prop_tests.rs") || rel.contains("/tests/")
}

/// Parse `impl<G> Trait for Type` / `impl Type` heads starting at the
/// `impl` keyword: returns (self type, trait, generic bounds incl.
/// `where` clause single-segment bounds).
fn parse_impl_head(
    head: &[Token],
) -> (
    Option<String>,
    Option<String>,
    BTreeMap<String, Vec<String>>,
) {
    let mut bounds = parse_generic_bounds(head);
    // Split at a depth-0 `for` (trait impl) if present.
    let mut angle = 0i32;
    let mut for_at: Option<usize> = None;
    let mut where_at: Option<usize> = None;
    for (k, t) in head.iter().enumerate() {
        match &t.kind {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(s) if s == "for" && angle == 0 && for_at.is_none() => {
                for_at = Some(k);
            }
            Tok::Ident(s) if s == "where" && angle == 0 => {
                where_at = Some(k);
                break;
            }
            _ => {}
        }
    }
    let end = where_at.unwrap_or(head.len());
    let (trait_name, self_ty) = match for_at {
        Some(f) => (
            last_path_ident(&head[..f]),
            last_path_ident(&head[f + 1..end]),
        ),
        None => (None, last_path_ident(&head[..end])),
    };
    if let Some(w) = where_at {
        for (p, bs) in parse_where_bounds(&head[w + 1..]) {
            bounds.entry(p).or_default().extend(bs);
        }
    }
    (self_ty, trait_name, bounds)
}

/// The last plain ident of a token slice that is part of a type path,
/// ignoring generic argument lists.
fn last_path_ident(toks: &[Token]) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    for t in toks {
        match &t.kind {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(s)
                if angle == 0
                    && !matches!(
                        s.as_str(),
                        "impl" | "dyn" | "for" | "pub" | "unsafe" | "mut"
                    ) =>
            {
                last = Some(s.clone());
            }
            _ => {}
        }
    }
    last
}

/// `<P: Trait + Trait2, Q: Trait3>` bounds from the first angle group.
fn parse_generic_bounds(toks: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let Some(start) = toks.iter().position(|t| t.is('<')) else {
        return out;
    };
    // Only a generics list directly after the keyword/name region
    // counts; `(` before `<` means we hit the param list first.
    if let Some(paren) = toks.iter().position(|t| t.is('(')) {
        if paren < start {
            return out;
        }
    }
    let mut depth = 0i32;
    let mut param: Option<String> = None;
    let mut in_bounds = false;
    for t in &toks[start..] {
        match &t.kind {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct(',') if depth == 1 => {
                param = None;
                in_bounds = false;
            }
            Tok::Punct(':') if depth == 1 => in_bounds = true,
            Tok::Ident(s) if depth == 1 => {
                if in_bounds {
                    if let Some(p) = &param {
                        out.entry(p.clone())
                            .or_insert_with(Vec::new)
                            .push(s.clone());
                    }
                } else {
                    param = Some(s.clone());
                }
            }
            _ => {}
        }
    }
    out
}

/// `where E: Engine, F: Other` — single-segment bounds.
fn parse_where_bounds(toks: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut param: Option<String> = None;
    let mut in_bounds = false;
    let mut angle = 0i32;
    for t in toks {
        match &t.kind {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct(',') if angle == 0 => {
                param = None;
                in_bounds = false;
            }
            Tok::Punct(':') if angle == 0 => in_bounds = true,
            Tok::Ident(s) if angle == 0 => {
                if in_bounds {
                    if let Some(p) = &param {
                        out.entry(p.clone())
                            .or_insert_with(Vec::new)
                            .push(s.clone());
                    }
                } else {
                    param = Some(s.clone());
                }
            }
            _ => {}
        }
    }
    out
}

/// Parse a fn head's parameter list: whether it has a `self` receiver,
/// and `param → type last-segment` for every typed parameter.
fn parse_params(toks: &[Token]) -> (bool, BTreeMap<String, String>) {
    let mut locals = BTreeMap::new();
    let Some(start) = toks.iter().position(|t| t.is('(')) else {
        return (false, locals);
    };
    let mut depth = 0i32;
    let mut has_self = false;
    let mut i = start;
    let mut pending: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // A binding mode, not a parameter name (`&mut self`, `mut x`).
            Tok::Ident(s) if depth == 1 && s == "mut" => {}
            // Only a bare receiver (`self`, `&mut self`), not
            // `x: &Self` etc.
            Tok::Ident(s) if depth == 1 && s == "self" && pending.is_none() => {
                has_self = true;
            }
            Tok::Ident(s) if depth == 1 && pending.is_none() => {
                pending = Some(s.clone());
            }
            Tok::Punct(':') if depth == 1 && !toks.get(i + 1).is_some_and(|n| n.is(':')) => {
                if let Some(p) = pending.take() {
                    let (ty, ni) = last_type_segment(toks, i + 1);
                    if !ty.is_empty() {
                        locals.insert(p, ty);
                    }
                    i = ni;
                    continue;
                }
            }
            Tok::Punct(',') if depth == 1 => pending = None,
            _ => {}
        }
        i += 1;
    }
    (has_self, locals)
}

/// From `toks[i]`, consume a type up to a depth-0 `,`, `)`, `{`, or
/// `;`, returning its last meaningful path segment and the index of
/// the terminator.
fn last_type_segment(toks: &[Token], mut i: usize) -> (String, usize) {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut last = String::new();
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                if angle == 0 {
                    break; // `->` arrow tail or closing of outer generics
                }
                angle -= 1;
            }
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                if paren == 0 {
                    break; // incl. `}` closing the enclosing struct body
                }
                paren -= 1;
            }
            Tok::Punct(',') | Tok::Punct('{') | Tok::Punct(';') | Tok::Punct('=')
                if angle == 0 && paren == 0 =>
            {
                break;
            }
            Tok::Ident(s)
                if angle == 0
                    && paren == 0
                    && !matches!(
                        s.as_str(),
                        "dyn"
                            | "impl"
                            | "mut"
                            | "ref"
                            | "Box"
                            | "Rc"
                            | "Arc"
                            | "Option"
                            | "Vec"
                            | "where"
                    ) =>
            {
                last = s.clone();
            }
            _ => {}
        }
        i += 1;
    }
    (last, i)
}

/// Classify the call at `toks[i]` (an ident directly followed by `(`).
/// Returns `None` for keywords and for idents that are actually macro
/// names (`name!(`) or fn definitions (`fn name(`).
fn call_site(toks: &[Token], i: usize, name: &str) -> Option<Call> {
    if KEYWORDS.contains(&name) {
        return None;
    }
    let prev = i.checked_sub(1).map(|k| &toks[k]);
    if let Some(p) = prev {
        if p.ident() == Some("fn") {
            return None;
        }
        if p.is('!') {
            return None; // macro body scanned separately
        }
    }
    let line = toks[i].line;
    // `.name(` → method call; work out the receiver shape.
    if prev.is_some_and(|p| p.is('.')) {
        let recv = receiver_shape(toks, i - 1);
        return Some(Call {
            name: name.to_string(),
            style: CallStyle::Method { recv },
            line,
        });
    }
    // `Qual::name(` → path call (two `:` puncts precede the name).
    if i >= 3 && toks[i - 1].is(':') && toks[i - 2].is(':') {
        if let Some(q) = toks[i - 3].ident() {
            return Some(Call {
                name: name.to_string(),
                style: CallStyle::Path {
                    qual: q.to_string(),
                },
                line,
            });
        }
        // turbofish `Type::<..>::name(` — give up on the qualifier.
        return Some(Call {
            name: name.to_string(),
            style: CallStyle::Path {
                qual: String::new(),
            },
            line,
        });
    }
    Some(Call {
        name: name.to_string(),
        style: CallStyle::Bare,
        line,
    })
}

/// Shape of the receiver ending at the `.` at `toks[dot]`.
fn receiver_shape(toks: &[Token], dot: usize) -> Recv {
    // Walk back over `ident(.ident)*`.
    let mut segs: Vec<&str> = Vec::new();
    let mut k = dot;
    loop {
        if k == 0 {
            break;
        }
        let Some(id) = toks[k - 1].ident() else {
            break;
        };
        segs.push(id);
        if k >= 3 && toks[k - 2].is('.') {
            k -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    match segs.as_slice() {
        ["self"] => Recv::SelfVal,
        ["self", f] => Recv::SelfField((*f).to_string()),
        [v] => Recv::Var((*v).to_string()),
        // Deeper paths: resolve by the *first* hop when it's a self
        // field (`self.a.b.m()` → treat as field `a`'s type is at
        // least crate-local; give up otherwise).
        ["self", f, ..] => Recv::SelfField((*f).to_string()),
        _ => Recv::Other,
    }
}

/// Is the `[` at `toks[i]` an index expression that can panic?
fn index_site(toks: &[Token], i: usize) -> Option<PanicSite> {
    let prev = i.checked_sub(1).map(|k| &toks[k])?;
    let indexable = match &prev.kind {
        Tok::Ident(s) => !KEYWORDS.contains(&s.as_str()),
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    };
    if !indexable {
        return None;
    }
    // `xs[..]` — a full-range slice borrow never panics; skip it.
    if toks.get(i + 1).is_some_and(|t| t.is('.'))
        && toks.get(i + 2).is_some_and(|t| t.is('.'))
        && toks.get(i + 3).is_some_and(|t| t.is(']'))
    {
        return None;
    }
    let recv = prev.ident().unwrap_or("..");
    Some(PanicSite {
        line: toks[i].line,
        what: format!("indexing `{recv}[..]`"),
    })
}

/// `let [mut] name : Type = ...` or `let [mut] name = Type::...` /
/// `Type { ...`: returns (name, type last-segment, index to resume at).
fn let_binding_type(toks: &[Token], let_at: usize) -> Option<(String, String, usize)> {
    let mut i = let_at + 1;
    if toks.get(i).and_then(Token::ident) == Some("mut") {
        i += 1;
    }
    let name = toks.get(i).and_then(Token::ident)?.to_string();
    if KEYWORDS.contains(&name.as_str()) {
        return None;
    }
    i += 1;
    match toks.get(i).map(|t| &t.kind) {
        Some(Tok::Punct(':')) if !toks.get(i + 1).is_some_and(|n| n.is(':')) => {
            let (ty, ni) = last_type_segment(toks, i + 1);
            if ty.is_empty() {
                None
            } else {
                Some((name, ty, ni))
            }
        }
        Some(Tok::Punct('=')) if !toks.get(i + 1).is_some_and(|n| n.is('=')) => {
            // `= Type::ctor(...)` / `= Type { ... }`
            let first = toks.get(i + 1)?.ident()?;
            if !first.chars().next().is_some_and(char::is_uppercase) {
                return None;
            }
            let is_path = toks.get(i + 2).is_some_and(|t| t.is(':'));
            let is_lit = toks.get(i + 2).is_some_and(|t| t.is('{'));
            if (is_path || is_lit) && !STD_QUALS.contains(&first) {
                // Resume *at* the `=` so the ctor call is still scanned.
                Some((name, first.to_string(), i))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::parse(&[("crates/demo/src/lib.rs".to_string(), src.to_string())])
    }

    fn find<'w>(w: &'w Workspace, name: &str) -> &'w FnItem {
        w.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn parses_impl_methods_and_free_fns() {
        let w = ws("struct S { n: u32 }\nimpl S {\n    fn m(&self) -> u32 { helper(self.n) }\n}\nfn helper(x: u32) -> u32 { x }\n");
        let m = find(&w, "m");
        assert_eq!(m.self_ty.as_deref(), Some("S"));
        assert!(m.has_self);
        assert_eq!(m.calls.len(), 1);
        assert_eq!(m.calls[0].name, "helper");
        let h = find(&w, "helper");
        assert!(!h.has_self);
        assert_eq!(w.fields["S"]["n"], "u32");
    }

    #[test]
    fn mut_receivers_and_params_parse() {
        let w = ws("struct S;\nimpl S {\n    fn m(&mut self, mut n: u32) -> u32 { n }\n    fn v(mut self) {}\n}\n");
        let m = find(&w, "m");
        assert!(m.has_self);
        assert_eq!(m.locals["n"], "u32");
        assert!(find(&w, "v").has_self);
    }

    #[test]
    fn trait_impls_and_bounds_resolve() {
        let src = "
trait Engine { fn tick(&mut self); }
struct A;
impl Engine for A { fn tick(&mut self) { self.go() } }
impl A { fn go(&self) {} }
struct Holder<E: Engine> { eng: E }
impl<E: Engine> Holder<E> {
    fn run(&mut self) { self.eng.tick() }
}";
        let w = ws(src);
        assert!(w.traits["Engine"].contains("tick"));
        let tick = find(&w, "tick");
        assert_eq!(tick.trait_name.as_deref(), Some("Engine"));
        // Holder::run's `self.eng.tick()` resolves via field type E →
        // bound Engine → impl Engine for A.
        let run_idx = w.fns.iter().position(|f| f.name == "run").unwrap();
        let run = &w.fns[run_idx];
        let call = run.calls.iter().find(|c| c.name == "tick").unwrap();
        let cands = w.resolve(run_idx, call);
        assert_eq!(cands.len(), 1);
        assert_eq!(w.fns[cands[0]].qualname(), "A::tick");
    }

    #[test]
    fn panic_sites_collected_not_treated_as_calls() {
        let w = ws("fn f(v: Vec<u32>) { v.first().unwrap(); panic!(\"x\"); let _ = v[0]; }");
        let f = find(&w, "f");
        let whats: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert!(whats.contains(&"unwrap()"));
        assert!(whats.contains(&"panic!"));
        assert!(whats.iter().any(|wt| wt.starts_with("indexing")));
        assert!(f.calls.iter().all(|c| c.name != "unwrap"));
    }

    #[test]
    fn full_range_slice_and_attrs_are_not_index_sites() {
        let w = ws("#[derive(Debug)]\nstruct T;\nfn f(xs: &[u8]) -> &[u8] { &xs[..] }");
        let f = find(&w, "f");
        assert!(f.panics.is_empty());
    }

    #[test]
    fn std_common_fallback_suppressed_but_type_resolution_wins() {
        let src = "
struct Store;
impl Store { fn get(&self, k: u32) -> u32 { k } }
struct App { store: Store }
impl App {
    fn a(&self, m: &std::collections::BTreeMap<u32, u32>) { m.get(&1); }
    fn b(&self) { self.store.get(1); }
}";
        let w = ws(src);
        let a_idx = w.fns.iter().position(|f| f.name == "a").unwrap();
        let b_idx = w.fns.iter().position(|f| f.name == "b").unwrap();
        let a_call = w.fns[a_idx].calls.iter().find(|c| c.name == "get").unwrap();
        // `m` has a known type (BTreeMap last segment) with no
        // workspace impl → no edge, std suppression.
        assert!(w.resolve(a_idx, a_call).is_empty());
        let b_call = w.fns[b_idx].calls.iter().find(|c| c.name == "get").unwrap();
        let cands = w.resolve(b_idx, b_call);
        assert_eq!(cands.len(), 1);
        assert_eq!(w.fns[cands[0]].qualname(), "Store::get");
    }

    #[test]
    fn reach_and_chain_report_shortest_path() {
        let src = "
fn on_req() { mid() }
fn mid() { deep() }
fn deep() { x() }
fn x() {}";
        let w = ws(src);
        let root = w.fns.iter().position(|f| f.name == "on_req").unwrap();
        let parent = w.reach(&[root]);
        let deep = w.fns.iter().position(|f| f.name == "deep").unwrap();
        assert!(parent.contains_key(&deep));
        assert_eq!(w.chain(&parent, deep), "on_req → mid → deep");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() { prod() }
    #[test]
    fn t() { helper() }
}";
        let w = ws(src);
        assert!(!find(&w, "prod").is_test);
        assert!(find(&w, "helper").is_test);
        assert!(find(&w, "t").is_test);
    }

    #[test]
    fn let_bindings_type_locals() {
        let src = "
struct Engine;
impl Engine { fn fire(&self) {} }
fn f() {
    let e: Engine = Engine;
    e.fire();
    let g = Engine::default();
    g.fire();
}";
        let w = ws(src);
        let f_idx = w.fns.iter().position(|x| x.name == "f").unwrap();
        for call in w.fns[f_idx].calls.iter().filter(|c| c.name == "fire") {
            let cands = w.resolve(f_idx, call);
            assert_eq!(cands.len(), 1, "both lets resolve to Engine::fire");
        }
    }
}
