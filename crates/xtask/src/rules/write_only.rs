//! `write_only`: a struct field that no code reads is assigned work that
//! changes no outcome. Declarations are the named fields of non-test
//! `struct`s under `crates/*/src`. Reads are looked for in `crates/`
//! (lint fixtures excluded), `src/`, `tests/`, `examples/`, and
//! `perfbench/src`, which supplies reads only.
//!
//! A read is a field access `.name` that is not a method call and not
//! part of the target of `=` or a compound assignment (`self.a.b += 1`
//! reads neither `a` nor `b`), or a struct pattern that binds the field
//! (`let S { name, .. } = s`). Derived impls are not source: a field only
//! `#[derive(Debug)]` shows is still write-only.
//!
//! Known blind spots, both toward silence: fields match by name, not by
//! type (a read of any field called `x` clears every `x`), and mutation
//! through a method call counts as a read (`self.load.entry(k)` reads
//! `load`).

use std::collections::BTreeSet;

use crate::lexer::{lex, Tok, Token};
use crate::rules::{finding, RuleCtx};
use crate::source::rs_files;
use crate::Finding;

/// Run the rule: gather every field name read anywhere, then flag each
/// declared field whose name is not among them.
pub fn run(ctx: &RuleCtx, out: &mut Vec<Finding>) {
    let dirs = ["crates", "src", "tests", "examples", "perfbench/src"];
    let files = dirs.iter().flat_map(|d| rs_files(&ctx.root, d, &[]));
    let mut reads = BTreeSet::new();
    for rel in files.filter(|rel| !rel.contains("/fixtures/")) {
        if let Ok(text) = std::fs::read_to_string(ctx.root.join(&rel)) {
            collect_reads(&lex(&text), &mut reads);
        }
    }
    for sf in ctx.files_under(&["crates"], true) {
        for (ty, field, line) in field_decls(&lex(&sf.raw.join("\n"))) {
            if sf.in_test.get(line - 1) == Some(&false) && !reads.contains(&field) {
                let msg = format!(
                    "field `{ty}::{field}` is assigned but no code reads a field of that \
                     name: delete it, or read it where it matters"
                );
                finding(out, "write_only", &sf.rel, line, &ty, &field, msg);
            }
        }
    }
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(Token::ident)
}

fn is(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is(c))
}

/// Index of the delimiter that closes the one opened at `open`.
fn group_end(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return Some(k);
        }
    }
    None
}

/// `(struct, field, line)` of every named field of every `struct` body.
fn field_decls(toks: &[Token]) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let (Some("struct"), Some(ty)) = (ident(toks, i), ident(toks, i + 1)) else {
            continue;
        };
        // The body is the first `{`, unless a `;` (unit struct) or a `(`
        // (tuple struct, or a bound like `Fn(..)`: skipped) comes first.
        let body = (i + 2..toks.len()).find(|&j| "{;(".chars().any(|c| is(toks, j, c)));
        let Some(open) = body.filter(|&j| is(toks, j, '{')) else {
            continue;
        };
        let mut depth = 0i32;
        for k in open..group_end(toks, open).unwrap_or(toks.len()) {
            match toks[k].kind {
                Tok::Punct('{' | '(' | '[') => depth += 1,
                Tok::Punct('}' | ')' | ']') => depth -= 1,
                _ => {}
            }
            // `name:` opens a field after `{`, `,`, `pub`, `pub(..)` or
            // an attribute.
            let after_sep = "{,)]".chars().any(|c| is(toks, k - 1, c));
            let opens_field = after_sep || ident(toks, k - 1) == Some("pub");
            if let Some(f) = ident(toks, k).filter(|_| depth == 1 && opens_field) {
                if is(toks, k + 1, ':') && !is(toks, k + 2, ':') {
                    out.push((ty.to_string(), f.to_string(), toks[k].line));
                }
            }
        }
    }
    out
}

/// Add every field name `toks` reads to `reads`.
fn collect_reads(toks: &[Token], reads: &mut BTreeSet<String>) {
    for i in 1..toks.len() {
        // `.name`, but not the `..name` of a range.
        let access = toks[i - 1].is('.') && !(i >= 2 && toks[i - 2].is('.'));
        if let Some(name) = ident(toks, i).filter(|_| access) {
            if !is_call(toks, i + 1) && !assigned(toks, i + 1) {
                reads.insert(name.to_string());
            }
        }
        let after_path = ident(toks, i - 1).is_some_and(|s| s.starts_with(char::is_uppercase));
        if toks[i].is('{') && after_path {
            if let Some(end) = group_end(toks, i).filter(|&end| is_pattern(toks, end)) {
                pattern_reads(toks, i, end, reads);
            }
        }
    }
}

/// Does a call follow `.name`: `(` or a turbofish `::` at `j`?
fn is_call(toks: &[Token], j: usize) -> bool {
    is(toks, j, '(') || (is(toks, j, ':') && is(toks, j + 1, ':'))
}

/// Does the place expression continuing at `j` (further `.field`s and
/// `[index]`es) end as the target of `=` or a compound assignment?
fn assigned(toks: &[Token], mut j: usize) -> bool {
    loop {
        if is(toks, j, '.') && ident(toks, j + 1).is_some() && !is_call(toks, j + 2) {
            j += 2;
        } else if let Some(end) = group_end(toks, j).filter(|_| is(toks, j, '[')) {
            j = end + 1;
        } else {
            break;
        }
    }
    if is(toks, j, '=') {
        return !is(toks, j + 1, '=') && !is(toks, j + 1, '>');
    }
    let shift = ['<', '>']
        .iter()
        .any(|&c| is(toks, j, c) && is(toks, j + 1, c));
    let op = if shift { j + 2 } else { j + 1 };
    (shift || "+-*/%^&|".chars().any(|c| is(toks, j, c))) && is(toks, op, '=')
}

/// Is the brace group closing at `end` a pattern? It ends in a rest
/// (`..}`), or what follows it past closing delimiters is `=`, `=>`,
/// `|` or a match guard's `if`.
fn is_pattern(toks: &[Token], end: usize) -> bool {
    if is(toks, end - 1, '.') && is(toks, end - 2, '.') {
        return true;
    }
    let mut j = end + 1;
    while is(toks, j, ')') || is(toks, j, ']') {
        j += 1;
    }
    (is(toks, j, '=') && !is(toks, j + 1, '=')) || is(toks, j, '|') || ident(toks, j) == Some("if")
}

/// The fields the struct pattern `open..end` binds, its nested patterns'
/// included: an ident after `{` or `,` (and any `ref`/`mut`) that `,`,
/// `}` or a single `:` follows.
fn pattern_reads(toks: &[Token], open: usize, end: usize, reads: &mut BTreeSet<String>) {
    for k in open + 1..end {
        let Some(f) = ident(toks, k) else {
            continue;
        };
        let mut before = k - 1;
        while matches!(ident(toks, before), Some("ref" | "mut")) {
            before -= 1;
        }
        let opens = is(toks, before, '{') || is(toks, before, ',');
        if opens && ",}:".chars().any(|c| is(toks, k + 1, c)) && !is(toks, k + 2, ':') {
            reads.insert(f.to_string());
        }
    }
}
