//! Pipeline configuration and the engine dispatch: which algorithm runs
//! on the ordered edges, with what options, and how long each stage
//! took. A view is evaluated end to end by [`crate::view::evaluate`].

use crate::edges::SceneEdge;
use crate::pct::{Pct, Phase2Output};
use std::time::Instant;

/// Which algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Algorithm {
    /// The paper's parallel algorithm (PCT + persistent prefix profiles).
    Parallel(Phase2Mode),
    /// The sequential Reif–Sen baseline.
    Sequential,
    /// The `O(n²)` strawman.
    Naive,
}

/// Phase-2 engine (DESIGN.md §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Phase2Mode {
    /// Persistent shared prefix profiles (default).
    Persistent,
    /// Static envelopes copied per node (rebuild ablation).
    Rebuild,
}

/// Pipeline configuration. Cheap to compare and hash: a request
/// scheduler groups views of one terrain by it, since views with equal
/// configs evaluate identically alone or batched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HsrConfig {
    /// Algorithm selection.
    pub algorithm: Algorithm,
    /// Use the layered parallel Kahn ordering instead of sequential Kahn.
    pub parallel_order: bool,
    /// Collect per-layer sharing statistics (adds traversal cost).
    pub collect_stats: bool,
}

impl Default for HsrConfig {
    fn default() -> Self {
        HsrConfig {
            algorithm: Algorithm::Parallel(Phase2Mode::Persistent),
            parallel_order: true,
            collect_stats: false,
        }
    }
}

/// Wall-clock timings of the pipeline stages, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Timings {
    /// From the start of the evaluation through the image-space remap,
    /// edge projection, front-to-back ordering and (viewsheds) target
    /// classification.
    pub order_s: f64,
    /// Phase 1 (PCT build + intermediate profiles).
    pub phase1_s: f64,
    /// Phase 2 (prefix profiles + visibility extraction).
    pub phase2_s: f64,
    /// Total, ending when the engine does.
    pub total_s: f64,
}

/// Runs the configured engine on edges in front-to-back order. Returns
/// its output and the instant phase 1 ended: after the PCT build for the
/// parallel algorithm, at once for the baselines, which have no phase 1.
pub(crate) fn run_engine(cfg: &HsrConfig, ordered: Vec<SceneEdge>) -> (Phase2Output, Instant) {
    let baseline = |vis| Phase2Output { vis, layers: Vec::new(), internal_crossings: 0 };
    match cfg.algorithm {
        Algorithm::Parallel(mode) => {
            let pct = Pct::build(ordered);
            let phase1_end = Instant::now();
            let out = match mode {
                Phase2Mode::Persistent => pct.phase2(cfg.collect_stats),
                Phase2Mode::Rebuild => pct.phase2_rebuild(),
            };
            (out, phase1_end)
        }
        Algorithm::Sequential => {
            let phase1_end = Instant::now();
            (baseline(crate::seq::run_sequential(&ordered)), phase1_end)
        }
        Algorithm::Naive => {
            let phase1_end = Instant::now();
            (baseline(crate::naive::run_naive(&ordered)), phase1_end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{evaluate, View};
    use hsr_terrain::gen;

    #[test]
    fn all_algorithms_agree_end_to_end() {
        let tin = gen::fbm(9, 9, 3, 8.0, 13).to_tin().unwrap();
        let base = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        for alg in [
            Algorithm::Parallel(Phase2Mode::Rebuild),
            Algorithm::Sequential,
            Algorithm::Naive,
        ] {
            let other = evaluate(&tin, &View::orthographic(0.0).algorithm(alg)).unwrap();
            let ag = base.vis.agreement(&other.vis);
            assert!(ag > 0.9999, "{alg:?} agreement {ag}");
            assert_eq!(base.vis.vertical_visible, other.vis.vertical_visible, "{alg:?}");
        }
    }

    #[test]
    fn output_size_reported() {
        let tin = gen::quadratic_comb(6);
        let r = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        assert_eq!(r.k, r.vis.output_size());
        assert!(r.k > r.n, "comb must have superlinear output");
        assert!(r.timings.total_s > 0.0);
    }

    #[test]
    fn stats_collection_is_optional() {
        let tin = gen::gaussian_hills(8, 8, 3, 17).to_tin().unwrap();
        let with = evaluate(&tin, &View::orthographic(0.0).stats(true)).unwrap();
        assert!(!with.layers.is_empty());
        let without = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        assert!(without.layers.is_empty());
        assert!(with.vis.agreement(&without.vis) > 0.9999);
    }
}
