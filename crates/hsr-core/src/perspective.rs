//! Perspective projection support.
//!
//! The paper (§2): "We are viewing the scene in a direction perpendicular
//! to the projection plane, however the algorithm works for perspective
//! projection as well." The standard way to realize that claim is a
//! projective pre-transform that sends the viewpoint to infinity:
//!
//! For a viewpoint `O = (vx, vy, vz)` with the whole terrain strictly in
//! front (`x < vx`), map
//!
//! ```text
//! X' = 1 / (vx − x)        (depth; closer to O ⇒ larger X')
//! Y' = (y − vy) / (vx − x) (screen abscissa)
//! Z' = (z − vz) / (vx − x) (screen ordinate)
//! ```
//!
//! * rays through `O` become lines parallel to the `X'` axis, with the
//!   near-to-far order along each ray preserved as decreasing `X'` — the
//!   orthographic convention (viewer at `X' = +∞`);
//! * planes map to planes, so triangles stay (planar) triangles;
//! * the function-graph property is preserved: `(X', Y')` determines
//!   `(x, y)` and hence a unique surface point.
//!
//! Running the ordinary pipeline on the transformed terrain therefore
//! computes perspective-correct visibility, with `(Y', Z')` the true
//! perspective image coordinates.

use hsr_geometry::Point3;
use hsr_terrain::{Tin, TinError};

/// Errors from the perspective pre-transform.
#[derive(Clone, Debug, PartialEq)]
pub enum PerspectiveError {
    /// The viewpoint does not see the whole terrain from the front: some
    /// vertex has `x >= vx - margin`.
    ViewpointInsideScene {
        /// The viewpoint depth.
        vx: f64,
        /// The offending maximum terrain depth.
        max_x: f64,
    },
    /// The transformed vertex set fails TIN validation (numerically
    /// degenerate configuration).
    Degenerate(TinError),
}

impl std::fmt::Display for PerspectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerspectiveError::ViewpointInsideScene { vx, max_x } => {
                write!(f, "viewpoint depth {vx} must exceed the terrain's maximum depth {max_x}")
            }
            PerspectiveError::Degenerate(e) => write!(f, "degenerate after transform: {e}"),
        }
    }
}

impl std::error::Error for PerspectiveError {}

/// The viewpoint of a perspective view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Viewpoint {
    /// Depth of the eye (must exceed every terrain `x`).
    pub vx: f64,
    /// Eye ground ordinate.
    pub vy: f64,
    /// Eye height.
    pub vz: f64,
}

impl Viewpoint {
    /// Forward transform of a world point (see module docs).
    #[inline]
    pub fn project(&self, p: Point3) -> Point3 {
        let w = 1.0 / (self.vx - p.x);
        Point3::new(w, (p.y - self.vy) * w, (p.z - self.vz) * w)
    }

    /// Inverse transform of a transformed point back to world space.
    #[inline]
    pub fn unproject(&self, q: Point3) -> Point3 {
        let d = 1.0 / q.x; // vx − x
        Point3::new(self.vx - d, self.vy + q.y * d, self.vz + q.z * d)
    }
}

/// Checks the conditioning margin of the pre-transform: the eye depth
/// must clear the scene's maximum depth by a sliver relative to the depth
/// span so `1/(vx − x)` stays well conditioned. The single source of the
/// margin rule — `perspective_tin` and the view validation both use it.
pub fn check_eye_margin(
    depths: impl Iterator<Item = f64>,
    eye_depth: f64,
) -> Result<(), PerspectiveError> {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    for x in depths {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
    }
    let span = (max_x - min_x).max(1e-9);
    if eye_depth <= max_x + 1e-9 * span {
        return Err(PerspectiveError::ViewpointInsideScene { vx: eye_depth, max_x });
    }
    Ok(())
}

/// Transforms a terrain so that the orthographic pipeline computes
/// perspective-correct visibility from `view`.
pub fn perspective_tin(tin: &Tin, view: Viewpoint) -> Result<Tin, PerspectiveError> {
    check_eye_margin(tin.vertices().iter().map(|v| v.x), view.vx)?;
    let vertices: Vec<Point3> = tin.vertices().iter().map(|&p| view.project(p)).collect();
    Tin::new(vertices, tin.triangles().to_vec()).map_err(PerspectiveError::Degenerate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Algorithm;
    use crate::view::{evaluate, Report, View};
    use hsr_terrain::gen;

    #[test]
    fn transform_roundtrips() {
        let v = Viewpoint { vx: 100.0, vy: 3.0, vz: 7.0 };
        for p in [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(10.0, -5.0, 2.0),
            Point3::new(99.0, 50.0, -3.0),
        ] {
            let q = v.unproject(v.project(p));
            assert!((q.x - p.x).abs() < 1e-9);
            assert!((q.y - p.y).abs() < 1e-9);
            assert!((q.z - p.z).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_viewpoint_inside() {
        let tin = gen::fbm(8, 8, 3, 5.0, 1).to_tin().unwrap();
        let err = perspective_tin(&tin, Viewpoint { vx: 3.0, vy: 0.0, vz: 5.0 }).unwrap_err();
        assert!(matches!(err, PerspectiveError::ViewpointInsideScene { .. }));
    }

    #[test]
    fn depth_order_is_preserved_along_rays() {
        // Two points on one ray through the viewpoint: the closer one must
        // come out with the larger transformed depth and equal screen
        // coordinates.
        let v = Viewpoint { vx: 50.0, vy: 0.0, vz: 10.0 };
        let far = Point3::new(0.0, 4.0, 2.0);
        // A point 40% of the way from `far` to the eye.
        let near = Point3::new(
            far.x + 0.4 * (v.vx - far.x),
            far.y + 0.4 * (v.vy - far.y),
            far.z + 0.4 * (v.vz - far.z),
        );
        let (f, n) = (v.project(far), v.project(near));
        assert!(n.x > f.x, "closer point must have larger transformed depth");
        assert!((n.y - f.y).abs() < 1e-12 && (n.z - f.z).abs() < 1e-12);
    }

    #[test]
    fn distant_viewpoint_approaches_orthographic() {
        let tin = gen::gaussian_hills(10, 10, 4, 9).to_tin().unwrap();
        let ortho = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        // Viewpoint very far away, centered on the terrain.
        let (lo, hi) = tin.ground_bounds();
        let view = Viewpoint { vx: 1e7, vy: 0.5 * (lo.y + hi.y), vz: 5.0 };
        let persp_tin = perspective_tin(&tin, view).unwrap();
        let persp = evaluate(&persp_tin, &View::orthographic(0.0)).unwrap();
        // Edge-level visibility (which edges have any visible portion)
        // converges to the orthographic answer.
        let vis_set = |r: &Report| {
            let mut s: Vec<u32> = r.vis.per_edge_intervals().keys().copied().collect();
            s.extend(&r.vis.vertical_visible);
            s.sort_unstable();
            s
        };
        let a = vis_set(&ortho);
        let b = vis_set(&persp);
        let common = a.iter().filter(|e| b.binary_search(e).is_ok()).count();
        let denom = a.len().max(b.len()).max(1);
        assert!(
            common as f64 / denom as f64 > 0.97,
            "edge visibility sets diverge: {} vs {} (common {})",
            a.len(),
            b.len(),
            common
        );
    }

    #[test]
    fn perspective_view_agrees_across_algorithms() {
        let tin = gen::ridge_field(12, 10, 3, 10.0, 5).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let view = Viewpoint { vx: hi.x + 20.0, vy: 0.5 * (lo.y + hi.y), vz: 25.0 };
        let ptin = perspective_tin(&tin, view).unwrap();
        let par = evaluate(&ptin, &View::orthographic(0.0)).unwrap();
        let seq =
            evaluate(&ptin, &View::orthographic(0.0).algorithm(Algorithm::Sequential)).unwrap();
        assert!(par.vis.agreement(&seq.vis) > 0.9999);
    }

    #[test]
    fn perspective_matches_exact_point_oracle() {
        // Visibility computed through the transform must agree with direct
        // occlusion tests against the *transformed* terrain (which is the
        // perspective-correct oracle by construction).
        let tin = gen::occlusion_knob(10, 10, 0.8, 10.0, 3).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let view = Viewpoint { vx: hi.x + 15.0, vy: 0.5 * (lo.y + hi.y), vz: 12.0 };
        let ptin = perspective_tin(&tin, view).unwrap();
        let res = evaluate(&ptin, &View::orthographic(0.0)).unwrap();
        let intervals = res.vis.per_edge_intervals();
        let empty = Vec::new();
        let (mut agree, mut total) = (0, 0);
        for (e, &[a, b]) in ptin.edges().iter().enumerate() {
            let (pa, pb) = (ptin.vertices()[a as usize], ptin.vertices()[b as usize]);
            if (pb.y - pa.y).abs() < 1e-12 {
                continue;
            }
            let iv = intervals.get(&(e as u32)).unwrap_or(&empty);
            for s in 0..8 {
                let t = (s as f64 + 0.5) / 8.0;
                let y = pa.y + t * (pb.y - pa.y);
                if iv
                    .iter()
                    .any(|&(u, v)| (y - u).abs() < 1e-9 || (y - v).abs() < 1e-9)
                {
                    continue;
                }
                let p = Point3::new(pa.x + t * (pb.x - pa.x), y, pa.z + t * (pb.z - pa.z));
                let alg = iv.iter().any(|&(u, v)| u <= y && y <= v);
                let exact = !crate::oracle::occluded(&ptin, p, 1e-12);
                total += 1;
                if alg == exact {
                    agree += 1;
                }
            }
        }
        assert!(
            agree as f64 / total.max(1) as f64 > 0.99,
            "perspective oracle agreement {agree}/{total}"
        );
    }
}
