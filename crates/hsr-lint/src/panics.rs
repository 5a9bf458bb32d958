//! Panic-freedom lint (`PANIC-PATH`).
//!
//! In designated request-path files, any of `unwrap()`, `expect(`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!` outside
//! `#[cfg(test)]` is a finding unless the site carries an adjacent
//! `// lint: allow(panic): <reason>` annotation. A panic on these paths
//! does not return an error to one client — it kills a shard or worker
//! thread and degrades every connection mapped to it.
//!
//! One shape is exempt: `.expect(...)?`. The trailing `?` proves the
//! callee returns `Result` and the error propagates (the serde shim's
//! `Deserializer::expect` token check, for example) — that *is* typed
//! error propagation, not a panic.

use crate::config::Config;
use crate::source::SourceFile;
use crate::Finding;

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ALLOW: &str = "lint: allow(panic)";

pub fn scan_file(sf: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.is_panic_path(&sf.rel) {
        return;
    }
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let method = PANIC_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(');
        let mac = PANIC_MACROS.contains(&name) && i + 1 < toks.len() && toks[i + 1].is_punct('!');
        if !method && !mac {
            continue;
        }
        if sf.in_test(i) {
            continue;
        }
        if method {
            // `.expect(...)?` propagates a Result instead of panicking.
            let propagated = sf
                .matching_close(i + 1, '(', ')')
                .and_then(|c| toks.get(c + 1))
                .is_some_and(|t| t.is_punct('?'));
            if propagated {
                continue;
            }
        }
        if sf.annotation_with_reason(i, ALLOW) {
            continue;
        }
        let what = if method {
            format!(".{name}()")
        } else {
            format!("{name}!")
        };
        out.push(Finding::new(
            &sf.rel,
            toks[i].line,
            "PANIC-PATH",
            format!(
                "`{what}` on the request path; return a typed error or annotate `// lint: allow(panic): <reason>`"
            ),
        ));
    }
}
