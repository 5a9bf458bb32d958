//! Lint configuration: which files are on the panic-free request path,
//! where `unsafe` may live, and which modules have a blanket atomics
//! ordering policy instead of per-site justifications.
//!
//! All paths are workspace-relative with forward slashes and matched by
//! suffix, so the same config works regardless of where the checkout
//! lives.

/// Tunable policy for a lint run. [`Config::workspace`] is the policy
/// the CI gate enforces; tests build narrower configs aimed at fixture
/// trees.
pub struct Config {
    /// Files where `unwrap()`/`expect(`/`panic!`/`unreachable!`/`todo!`
    /// are denied outside `#[cfg(test)]` (suffix match).
    pub panic_paths: Vec<String>,
    /// Files allowed to contain `unsafe` at all (suffix match). Every
    /// occurrence still needs an adjacent `// SAFETY:` comment.
    pub unsafe_allow: Vec<String>,
    /// Per-module atomics policy: sites in these files may use the listed
    /// orderings without a per-site `// ordering:` justification. Meant
    /// for modules that are wall-to-wall monotonic counters and say so
    /// once at module level.
    pub atomics_policy: Vec<(String, Vec<String>)>,
    /// Path fragments excluded from the walk entirely.
    pub skip: Vec<String>,
    /// Exempt `/tests/`, `/benches/`, `/examples/` files from the
    /// atomics and lock disciplines (the unsafe audit never exempts
    /// them). On for the workspace policy; off for fixture configs so
    /// seeded-violation files under `tests/fixtures/` still get
    /// scanned.
    pub exempt_test_paths: bool,
}

impl Config {
    /// The policy for this workspace — the one `cargo run -p hsr-lint --
    /// check` and the CI `lint-smoke` job enforce.
    pub fn workspace() -> Self {
        Config {
            panic_paths: vec![
                // The serving request path: a panic here kills a shard
                // or worker thread under live traffic.
                "crates/hsr-serve/src/server.rs".into(),
                "crates/hsr-serve/src/event_loop.rs".into(),
                "crates/hsr-serve/src/protocol.rs".into(),
                "crates/hsr-serve/src/catalog.rs".into(),
                // Observability record paths run inside every request.
                "crates/hsr-obs/src/span.rs".into(),
                "crates/hsr-obs/src/hist.rs".into(),
                // The scene cache sits on the tiled-eval hot path.
                "crates/hsr-tile/src/cache.rs".into(),
            ],
            unsafe_allow: vec![
                // The poll(2) FFI shim holds the workspace's only
                // `unsafe`; every other crate and shim forbids it.
                "shims/polling/src/lib.rs".into(),
            ],
            atomics_policy: vec![
                // Work/depth measurement counters: monotonic tallies read
                // only after the parallel section joins.
                ("crates/hsr-pram/src/cost.rs".into(), vec!["Relaxed".into()]),
                // Helper-thread budget gauge: admission control only, no
                // data is published through it.
                ("shims/rayon/src/lib.rs".into(), vec!["Relaxed".into()]),
            ],
            skip: vec![
                "/target/".into(),
                "/.git/".into(),
                // The lint engine's seeded-violation fixtures.
                "tests/fixtures/".into(),
            ],
            exempt_test_paths: true,
        }
    }

    /// A minimal config for fixture tests: no designated panic files, no
    /// unsafe allowlist, no policy modules, nothing skipped.
    pub fn bare() -> Self {
        Config {
            panic_paths: Vec::new(),
            unsafe_allow: Vec::new(),
            atomics_policy: Vec::new(),
            skip: Vec::new(),
            exempt_test_paths: false,
        }
    }

    /// True when `rel` holds test or bench code this config exempts
    /// from the atomics and lock disciplines.
    pub fn is_test_exempt(&self, rel: &str) -> bool {
        self.exempt_test_paths && is_test_path(rel)
    }

    pub fn is_panic_path(&self, rel: &str) -> bool {
        self.panic_paths.iter().any(|p| rel.ends_with(p.as_str()))
    }

    pub fn is_unsafe_allowed(&self, rel: &str) -> bool {
        self.unsafe_allow.iter().any(|p| rel.ends_with(p.as_str()))
    }

    /// Orderings the file's module-level policy covers, if any.
    pub fn policy_orderings(&self, rel: &str) -> Option<&[String]> {
        self.atomics_policy
            .iter()
            .find(|(p, _)| rel.ends_with(p.as_str()))
            .map(|(_, o)| o.as_slice())
    }

    pub fn is_skipped(&self, rel: &str) -> bool {
        self.skip.iter().any(|p| rel.contains(p.as_str()))
    }
}

/// True for files that hold test or bench code, where the atomics and
/// lock disciplines do not apply (the unsafe audit still does).
pub fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}
