//! hsr-lint: workspace-invariant static analysis.
//!
//! The serving stack rests on hand-rolled concurrency invariants —
//! Release/Acquire counter pipelines, a global lock order,
//! non-blocking trace rings, a panic-free request path — that the
//! compiler cannot check and PR review has already missed once (the PR-9
//! torn-snapshot atomics bug). This crate re-checks them on every commit
//! with four analyses over a hand-rolled lexer (no `syn`, no
//! dependencies, consistent with the offline no-registry constraint):
//!
//! | Lint ID           | Invariant                                              |
//! |-------------------|--------------------------------------------------------|
//! | `ATOMIC-EXPLICIT` | atomic calls spell literal `Ordering::*` at the site   |
//! | `ATOMIC-JUSTIFY`  | each site has `// ordering:` or a module policy        |
//! | `ATOMIC-PAIR`     | no Relaxed write read back with Acquire                |
//! | `LOCK-CYCLE`      | the global lock-order graph is acyclic                 |
//! | `LOCK-ORDER`      | same-class / all-shard acquisition states its order    |
//! | `PANIC-PATH`      | no `unwrap`/`expect`/`panic!` on the request path      |
//! | `UNSAFE-FILE`     | `unsafe` only in allowlisted files                     |
//! | `UNSAFE-SAFETY`   | every `unsafe` has a `// SAFETY:` comment              |
//!
//! Run with `cargo run -p hsr-lint -- check`; findings print one per
//! line as `file:line: LINT-ID message` and any finding exits nonzero,
//! which is what the CI `lint-smoke` job gates on.

#![forbid(unsafe_code)]

pub mod atomics;
pub mod config;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod source;
pub mod unsafe_audit;

pub use config::Config;

use source::SourceFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding, displayed as `file:line: LINT-ID message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, lint: &'static str, message: String) -> Finding {
        Finding { file: file.to_string(), line, lint, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.file, self.line, self.lint, self.message)
    }
}

/// Run every analysis over all `.rs` files under `root`. Findings come
/// back sorted by (file, line, lint) for deterministic output.
pub fn run_check(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    let mut atomic_sites = Vec::new();
    let mut lock_edges = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        let sf = SourceFile::parse(rel, &src);
        atomics::scan_file(&sf, cfg, &mut atomic_sites, &mut findings);
        locks::scan_file(&sf, cfg, &mut lock_edges, &mut findings);
        panics::scan_file(&sf, cfg, &mut findings);
        unsafe_audit::scan_file(&sf, cfg, &mut findings);
    }
    atomics::pair_findings(&atomic_sites, &mut findings);
    locks::cycle_findings(&lock_edges, &mut findings);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        // Normalize with a leading slash so `/target/`-style skip
        // fragments match at the top level too.
        let probe = format!("/{rel}");
        if cfg.is_skipped(&probe) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}
