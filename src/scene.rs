//! High-level API: build a scene once, evaluate any number of views.
//!
//! 1. [`Scene`] — the validated terrain with its edge set and
//!    edge↔triangle adjacency, the projection-independent state every
//!    view shares. Build it from a heightfield grid
//!    ([`Scene::from_grid`]), raw vertices and triangles
//!    ([`Scene::from_vertices`]) or an already validated TIN
//!    ([`Scene::from_tin`]).
//! 2. [`View`] — *where the viewer stands* plus the per-view pipeline
//!    configuration, built fluently
//!    (`View::orthographic(0.3).algorithm(Algorithm::Sequential)`).
//! 3. [`Scene::eval`] evaluates one view and [`Scene::eval_batch`] a
//!    batch in parallel against the shared state, returning a unified
//!    [`Report`] per view.
//!
//! ```
//! use terrain_hsr::{Scene, View};
//! use terrain_hsr::terrain::gen;
//!
//! let scene = Scene::from_grid(&gen::fbm(12, 12, 3, 6.0, 5)).unwrap();
//! let report = scene.eval(&View::orthographic(0.0)).unwrap();
//! assert!(report.k > 0);
//! ```

use std::sync::Arc;

use hsr_geometry::Point3;
use hsr_terrain::{GridTerrain, Tin};

pub use hsr_core::error::HsrError;
pub use hsr_core::pipeline::{Algorithm, Phase2Mode, Timings};
pub use hsr_core::view::{Projection, Report, View};
pub use hsr_core::viewshed::Verdict;
pub use hsr_pram::cost::{CostCollector, CostReport};

/// A validated terrain with its shared, projection-independent state.
///
/// Building a scene is the only place the full TIN validation and
/// adjacency construction run; every view evaluated through it reuses
/// them. Cloning a scene is cheap: clones share the terrain behind an
/// [`Arc`]. A batch fans its views out in parallel, one evaluation per
/// view, with no per-view TIN rebuild.
///
/// Every evaluation owns a scoped [`CostCollector`], so each returned
/// [`Report`]'s `cost` counters are exact for that view even when the
/// batch runs views concurrently. To bracket a wider region (several
/// evaluations, scene builds, your own code), install a collector of your
/// own — evaluations nest under it and it observes their charges too:
///
/// ```
/// use terrain_hsr::{CostCollector, Scene, View};
/// use terrain_hsr::terrain::gen;
///
/// let bracket = CostCollector::new();
/// let guard = bracket.install();
/// let scene = Scene::from_grid(&gen::fbm(10, 10, 3, 6.0, 1)).unwrap();
/// let report = scene.eval(&View::orthographic(0.0)).unwrap();
/// drop(guard);
/// // The bracket saw the TIN build *and* everything the view did.
/// assert!(bracket.report().total_work() > report.cost.total_work());
/// ```
#[derive(Clone, Debug)]
pub struct Scene {
    tin: Arc<Tin>,
}

impl Scene {
    /// A scene from a heightfield grid, triangulated and validated.
    pub fn from_grid(grid: &GridTerrain) -> Result<Scene, HsrError> {
        Ok(Scene::from_tin(grid.to_tin()?))
    }

    /// A scene from raw vertices and triangles, validated.
    pub fn from_vertices(
        vertices: Vec<Point3>,
        triangles: Vec<[u32; 3]>,
    ) -> Result<Scene, HsrError> {
        Ok(Scene::from_tin(Tin::new(vertices, triangles)?))
    }

    /// A scene from an already validated TIN.
    pub fn from_tin(tin: Tin) -> Scene {
        Scene { tin: Arc::new(tin) }
    }

    /// Evaluates a single view.
    pub fn eval(&self, view: &View) -> Result<Report, HsrError> {
        hsr_core::view::evaluate(&self.tin, view)
    }

    /// Evaluates a batch of views in parallel, preserving input order.
    pub fn eval_batch(&self, views: &[View]) -> Vec<Result<Report, HsrError>> {
        hsr_core::view::evaluate_batch(&self.tin, views)
    }

    /// The underlying terrain.
    pub fn tin(&self) -> &Tin {
        &self.tin
    }

    /// A shared handle to the terrain state (cheap `Arc` clone) — what
    /// long-lived holders such as the serving layer keep, so a scene
    /// registered with a server shares the validated TIN instead of
    /// duplicating it.
    pub fn shared_tin(&self) -> Arc<Tin> {
        Arc::clone(&self.tin)
    }

    /// Scene size `(vertices, edges, faces)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.tin.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsr_terrain::gen;

    #[test]
    fn end_to_end_via_facade() {
        let scene = Scene::from_grid(&gen::fbm(8, 8, 3, 6.0, 5)).unwrap();
        let report = scene.eval(&View::orthographic(0.0)).unwrap();
        assert!(report.k > 0);
        assert_eq!(report.n, scene.counts().1);
    }

    #[test]
    fn rotated_views_through_session() {
        let scene = Scene::from_grid(&gen::gaussian_hills(8, 8, 3, 6)).unwrap();
        let report = scene.eval(&View::orthographic(0.4)).unwrap();
        assert!(report.k > 0);
    }

    #[test]
    fn batch_preserves_order_and_count() {
        let scene = Scene::from_grid(&gen::fbm(8, 8, 3, 6.0, 9)).unwrap();
        let views: Vec<View> = (0..4).map(|i| View::orthographic(0.3 * i as f64)).collect();
        let reports = scene.eval_batch(&views);
        assert_eq!(reports.len(), 4);
        for r in reports {
            assert!(r.unwrap().k > 0);
        }
    }

    #[test]
    fn builder_validates_raw_input() {
        use hsr_terrain::TinError;
        let err = Scene::from_vertices(vec![Point3::new(0.0, 0.0, f64::NAN)], vec![]).unwrap_err();
        assert!(matches!(err, HsrError::Terrain(TinError::NonFiniteVertex(0))));
    }

    #[test]
    fn algorithms_agree_through_the_session() {
        let scene = Scene::from_grid(&gen::fbm(8, 8, 3, 6.0, 5)).unwrap();
        let report = scene.eval(&View::orthographic(0.0)).unwrap();
        assert!(report.k > 0);
        let seq = scene
            .eval(&View::orthographic(0.0).algorithm(Algorithm::Sequential))
            .unwrap();
        assert!(report.vis.agreement(&seq.vis) > 0.9999);
        let stats = scene.eval(&View::orthographic(0.0).stats(true)).unwrap();
        assert!(!stats.layers.is_empty());
    }
}
