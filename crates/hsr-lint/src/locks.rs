//! Lock-order lint.
//!
//! Intraprocedural guard tracking plus a global lock-order graph:
//!
//! * Acquisitions are `.lock()` / `.read()` / `.write()` calls with empty
//!   argument lists (so `stream.read(&mut buf)` never matches), and calls
//!   to the workspace's poison-tolerant helper `lock_unpoisoned(&m)`.
//! * A lock's *class* is the trailing identifier of its receiver
//!   (`self.state.lock()` → `state`), which names the field rather than
//!   the instance — the right granularity for ordering.
//! * `let`-bound guards are held to the end of the enclosing block;
//!   expression temporaries to the end of the statement. Acquiring B
//!   while A is held adds the edge A→B to the global graph.
//! * `LOCK-CYCLE` — the global graph must be acyclic.
//! * `LOCK-ORDER` — acquiring a class while a guard of the *same* class
//!   is held (`shards[a]` then `shards[b]`), or sweeping guards of a
//!   whole collection into scope at once (`shards.iter().map(|m|
//!   m.lock())...collect()`, or the point-free
//!   `.map(lock_unpoisoned).collect()`), needs a `// lock-order:`
//!   comment stating the canonical acquisition order (e.g. ascending
//!   index).

use crate::config::Config;
use crate::lexer::Tok;
use crate::source::SourceFile;
use crate::Finding;

/// A directed edge in the global lock-order graph, with the site that
/// witnessed it.
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub suppressed: bool,
}

struct Held {
    class: String,
    depth: usize,
    let_bound: bool,
}

pub fn scan_file(sf: &SourceFile, cfg: &Config, edges: &mut Vec<Edge>, out: &mut Vec<Finding>) {
    if cfg.is_test_exempt(&sf.rel) {
        return;
    }
    let toks = &sf.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].ident().is_some() {
            // Find the body: first `{` before a `;` ends the header.
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    body = Some(j);
                    break;
                }
                if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                if let Some(close) = sf.matching_close(open, '{', '}') {
                    scan_fn(sf, open, close, edges, out);
                    i = close;
                }
            }
        }
        i += 1;
    }
}

fn scan_fn(
    sf: &SourceFile,
    open: usize,
    close: usize,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    let toks = &sf.tokens;
    let mut depth = 0usize;
    let mut held: Vec<Held> = Vec::new();
    let mut stmt_is_let = false;
    let mut stmt_start = open + 1;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                stmt_is_let = false;
                stmt_start = i + 1;
            }
            Tok::Punct('}') => {
                // Let-bound guards of this block die with it; statement
                // temporaries never outlive a block boundary either.
                held.retain(|h| h.let_bound && h.depth < depth);
                depth = depth.saturating_sub(1);
                stmt_is_let = false;
                stmt_start = i + 1;
            }
            Tok::Punct(';') => {
                held.retain(|h| h.let_bound);
                stmt_is_let = false;
                stmt_start = i + 1;
            }
            Tok::Ident(id) if id == "let" => {
                stmt_is_let = true;
            }
            _ => {}
        }
        if let Some(acq) = acquisition_at(sf, i, stmt_start) {
            if !sf.in_test(i) {
                record_acquisition(sf, i, &acq, depth, stmt_is_let, &mut held, edges, out);
            }
            i = acq.resume;
            continue;
        }
        i += 1;
    }
}

struct Acq {
    class: String,
    /// Sweep over a whole collection of locks with guards retained.
    sweep: bool,
    /// Transient per-element guard inside an iterator closure (not held).
    transient: bool,
    /// Token index to resume scanning at (past the call).
    resume: usize,
}

/// Recognize an acquisition whose method/helper identifier sits at `i`.
fn acquisition_at(sf: &SourceFile, i: usize, stmt_start: usize) -> Option<Acq> {
    let toks = &sf.tokens;
    let name = toks[i].ident()?;
    let method = matches!(name, "lock" | "read" | "write") && i > 0 && toks[i - 1].is_punct('.');
    let helper = name == "lock_unpoisoned" && (i == 0 || !toks[i - 1].is_punct('.'));
    if !method && !helper {
        return None;
    }
    // Point-free sweep: `coll.iter().map(lock_unpoisoned).collect()` —
    // the closure-free form clippy's `redundant_closure` prefers. The
    // helper ident is an argument here, not a call, so handle it before
    // requiring a `(` after it.
    if helper && i + 1 < toks.len() && toks[i + 1].is_punct(')') {
        let mut j = i; // start of the (possibly `::`-qualified) path
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].ident().is_some()
        {
            j -= 3;
        }
        if j >= 3
            && toks[j - 1].is_punct('(')
            && toks[j - 2].is_ident("map")
            && toks[j - 3].is_punct('.')
        {
            if let Some(coll) = iterated_collection(sf, j - 2, stmt_start) {
                // `.collect()` retains every guard at once; anything
                // else consumes them per element.
                let retained = toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("collect"));
                return Some(Acq {
                    class: coll,
                    sweep: retained,
                    transient: !retained,
                    resume: i + 2,
                });
            }
        }
        return None;
    }
    if i + 1 >= toks.len() || !toks[i + 1].is_punct('(') {
        return None;
    }
    let close = sf.matching_close(i + 1, '(', ')')?;
    let receiver: Option<String> = if method {
        // `.lock()` family must have an empty argument list.
        if close != i + 2 {
            return None;
        }
        receiver_trailing_ident(sf, i - 1)
    } else {
        // `lock_unpoisoned(&self.inner)`: class from the argument path.
        if close == i + 2 {
            return None;
        }
        let mut last = None;
        for t in &toks[i + 2..close] {
            if let Tok::Ident(id) = &t.tok {
                if id != "self" && id != "mut" {
                    last = Some(id.clone());
                }
            }
        }
        last
    };
    let class = receiver?;
    // Is the receiver (or helper argument) a closure parameter of this
    // statement? Then this is an iterated acquisition over a collection.
    let param = if method {
        single_ident_receiver(sf, i - 1)
    } else {
        Some(class.clone())
    };
    let mut sweep = false;
    let mut transient = false;
    let mut swept_class = class.clone();
    if let Some(p) = param {
        if is_closure_param(sf, i, stmt_start, &p) {
            if let Some(coll) = iterated_collection(sf, i, stmt_start) {
                swept_class = coll;
                // Guards are retained when the closure does nothing with
                // the guard beyond unwrapping it; a continued chain
                // (`.clone()` etc.) means per-element temporaries.
                if chain_retains_guard(sf, close) {
                    sweep = true;
                } else {
                    transient = true;
                }
            }
        }
    }
    Some(Acq { class: swept_class, sweep, transient, resume: close + 1 })
}

#[allow(clippy::too_many_arguments)]
fn record_acquisition(
    sf: &SourceFile,
    i: usize,
    acq: &Acq,
    depth: usize,
    stmt_is_let: bool,
    held: &mut Vec<Held>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Finding>,
) {
    if acq.transient {
        return;
    }
    let line = sf.tokens[i].line;
    if acq.sweep && !sf.annotation_near(i, "lock-order:") {
        out.push(Finding::new(
            &sf.rel,
            line,
            "LOCK-ORDER",
            format!(
                "all-member guard sweep over `{}` needs a `// lock-order:` comment stating the canonical acquisition order",
                acq.class
            ),
        ));
    }
    for h in held.iter() {
        if h.class == acq.class {
            if !acq.sweep && !sf.annotation_near(i, "lock-order:") {
                out.push(Finding::new(
                    &sf.rel,
                    line,
                    "LOCK-ORDER",
                    format!(
                        "`{}` acquired while another `{}` guard is held; nested same-class locking needs a `// lock-order:` comment",
                        acq.class, acq.class
                    ),
                ));
            }
        } else {
            edges.push(Edge {
                from: h.class.clone(),
                to: acq.class.clone(),
                file: sf.rel.clone(),
                line,
                suppressed: sf.annotation_with_reason(i, "lint: allow(lock-cycle)"),
            });
        }
    }
    held.push(Held { class: acq.class.clone(), depth, let_bound: stmt_is_let });
}

/// The single identifier immediately before the `.` at `dot`, if the
/// receiver is exactly one identifier (`m.lock()` → `m`).
fn single_ident_receiver(sf: &SourceFile, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let id = sf.tokens[dot - 1].ident()?;
    if dot >= 2 && (sf.tokens[dot - 2].is_punct('.') || sf.tokens[dot - 2].is_punct(':')) {
        return None;
    }
    Some(id.to_string())
}

/// Trailing identifier of a receiver chain (`self.shards[k].lock()` →
/// `shards`).
fn receiver_trailing_ident(sf: &SourceFile, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = dot - 1;
    match &sf.tokens[prev].tok {
        Tok::Ident(id) => Some(id.clone()),
        Tok::Punct(']') => sf
            .matching_open(prev, '[', ']')
            .and_then(|open| open.checked_sub(1))
            .and_then(|k| sf.tokens[k].ident().map(str::to_string)),
        Tok::Punct(')') => sf
            .matching_open(prev, '(', ')')
            .and_then(|open| open.checked_sub(1))
            .and_then(|k| sf.tokens[k].ident().map(|s| format!("{s}()"))),
        _ => None,
    }
}

/// Is `name` declared as a closure parameter (`|name|`, `|name, ..|`)
/// between `stmt_start` and the acquisition at `i`?
fn is_closure_param(sf: &SourceFile, i: usize, stmt_start: usize, name: &str) -> bool {
    let toks = &sf.tokens;
    let mut k = stmt_start;
    while k + 1 < i {
        if toks[k].is_punct('|') {
            let mut m = k + 1;
            while m < i && !toks[m].is_punct('|') {
                match &toks[m].tok {
                    Tok::Ident(id) if id == name => return true,
                    Tok::Ident(_) | Tok::Punct(',' | '&') => {}
                    _ => break,
                }
                m += 1;
            }
            k = m + 1;
        } else {
            k += 1;
        }
    }
    false
}

/// The collection being iterated in this statement (`self.shards.iter()`
/// → `shards`), if any.
fn iterated_collection(sf: &SourceFile, i: usize, stmt_start: usize) -> Option<String> {
    let toks = &sf.tokens;
    for k in (stmt_start..i.saturating_sub(2)).rev() {
        let iterish = toks[k]
            .ident()
            .is_some_and(|id| matches!(id, "iter" | "iter_mut" | "values" | "values_mut"));
        if iterish && k > 0 && toks[k - 1].is_punct('.') {
            return receiver_trailing_ident(sf, k - 1);
        }
    }
    None
}

/// After the acquisition call's `)` at `close`, allow `.expect(..)`,
/// `.unwrap()`, `.unwrap_or_else(..)`; guards are retained if the chain
/// ends there (next token closes the enclosing call), transient if the
/// chain continues.
fn chain_retains_guard(sf: &SourceFile, mut close: usize) -> bool {
    let toks = &sf.tokens;
    loop {
        let Some(next) = toks.get(close + 1) else {
            return true;
        };
        if !next.is_punct('.') {
            return next.is_punct(')') || next.is_punct(',');
        }
        let Some(m) = toks.get(close + 2).and_then(|t| t.ident()) else {
            return false;
        };
        if !matches!(m, "expect" | "unwrap" | "unwrap_or_else") {
            return false;
        }
        if !toks.get(close + 3).is_some_and(|t| t.is_punct('(')) {
            return false;
        }
        match sf.matching_close(close + 3, '(', ')') {
            Some(c) => close = c,
            None => return false,
        }
    }
}

/// Global cycle detection over the accumulated edges.
pub fn cycle_findings(edges: &[Edge], out: &mut Vec<Finding>) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        if !e.suppressed {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
    }
    // Iterative DFS with colors; report the first back edge per start.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            match color.get(node).copied().unwrap_or(0) {
                0 => {
                    color.insert(node, 1);
                    let mut path2 = path.clone();
                    path2.push(node);
                    // Re-push to blacken after children.
                    stack.push((node, path));
                    for &next in adj.get(node).into_iter().flatten() {
                        if color.get(next).copied().unwrap_or(0) == 1 {
                            // Back edge: cycle next → ... → node → next.
                            let cycle_start = path2.iter().position(|&p| p == next).unwrap_or(0);
                            let mut cycle: Vec<&str> = path2[cycle_start..].to_vec();
                            cycle.push(next);
                            let witness = edges
                                .iter()
                                .find(|e| e.from == node && e.to == next)
                                .expect("back edge came from the edge list");
                            out.push(Finding::new(
                                &witness.file,
                                witness.line,
                                "LOCK-CYCLE",
                                format!("lock-order cycle: {}", cycle.join(" -> ")),
                            ));
                        } else if color.get(next).copied().unwrap_or(0) == 0 {
                            stack.push((next, path2.clone()));
                        }
                    }
                }
                1 => {
                    color.insert(node, 2);
                }
                _ => {}
            }
        }
    }
}
