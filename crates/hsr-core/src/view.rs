//! Viewpoint-centric view descriptions and their evaluation.
//!
//! The paper computes one visibility map for one viewing direction. Real
//! workloads want many: a flyby is a batch of perspective views, a radar
//! study is a viewshed, a rotation sweep is a batch of orthographic
//! views. This module gives every such scenario one vocabulary:
//!
//! * [`Projection`] — *where the viewer stands*: orthographic at
//!   `x = +∞` after an azimuth rotation, perspective from a finite eye
//!   (realized through the projective pre-transform of
//!   [`crate::perspective`]), or a viewshed classifying target points
//!   against an observer.
//! * [`View`] — a projection plus its per-view pipeline configuration
//!   (algorithm, ordering mode, statistics), built fluently:
//!   `View::orthographic(0.3).algorithm(Algorithm::Sequential)`.
//! * [`evaluate`] — the one evaluation body every projection takes;
//!   [`evaluate_batch`] and [`evaluate_many`] fan it out in parallel over
//!   one shared terrain or many, reusing each terrain's edge/adjacency
//!   structure across views through [`Tin::remap_vertices`] instead of
//!   re-validating per view.
//! * [`Report`] — the unified result: visibility map, `n`/`k`, cost
//!   counters, timings, optional per-layer statistics, and (for
//!   viewsheds) per-target verdicts. Serializes to JSON for the bench
//!   binaries when the `serde` feature is on.

use crate::edges::{project_edges, SceneEdge};
use crate::error::HsrError;
use crate::order::{depth_order, depth_order_parallel};
use crate::pct::LayerStats;
use crate::perspective::{check_eye_margin, Viewpoint};
use crate::pipeline::{run_engine, Algorithm, HsrConfig, Phase2Mode, Timings};
use crate::viewshed::{classify_points, Verdict};
use crate::visibility::VisibilityMap;
use hsr_geometry::Point3;
use hsr_pram::cost::{Category, CostCollector, CostReport};
use hsr_terrain::Tin;
use std::f64::consts::PI;
use std::time::Instant;

/// Where the viewer stands.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Projection {
    /// Viewer at `x = +∞` after rotating the scene by `azimuth` radians
    /// about the vertical axis (the paper's §2 setting; `azimuth = 0` is
    /// the canonical view along `-x`).
    Orthographic {
        /// View direction as a rotation about `z`, in radians.
        azimuth: f64,
    },
    /// True perspective from a finite eye point, realized by the
    /// projective pre-transform (§2 remark): the scene is rotated so the
    /// eye looks along `-x`, then mapped so the eye goes to infinity.
    Perspective {
        /// The eye position in world coordinates.
        eye: Point3,
        /// A world point the eye looks towards; only its ground direction
        /// from `eye` matters.
        look: Point3,
        /// Horizontal field of view in radians, in `(0, π]`. The image is
        /// clipped to `|Y'| ≤ tan(fov/2)`; `fov = π` keeps the whole
        /// half-space image unclipped.
        fov: f64,
        /// Advisory raster resolution (pixels across) for downstream
        /// device-dependent rendering; carried into [`Report::resolution`].
        /// Must be ≥ 1.
        resolution: u32,
    },
    /// Point-visibility classification: which of `targets` (world points
    /// on or above the terrain) can `observer` see? The observer must see
    /// the whole terrain from the front (`observer.x` beyond every
    /// terrain `x`); an empty target list classifies the terrain's own
    /// vertices, i.e. computes the terrain viewshed.
    Viewshed {
        /// The observing eye (a finite viewpoint in front of the scene).
        observer: Point3,
        /// Query points to classify; empty = the terrain vertices.
        targets: Vec<Point3>,
    },
}

/// A fully configured view: a [`Projection`] plus the per-view pipeline
/// configuration. Construct with [`View::orthographic`],
/// [`View::perspective`] or [`View::viewshed`] and refine with the
/// builder methods.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct View {
    /// Where the viewer stands.
    pub projection: Projection,
    /// Pipeline configuration for this view.
    pub config: HsrConfig,
}

impl View {
    /// An orthographic view along `-x` after an `azimuth` rotation.
    pub fn orthographic(azimuth: f64) -> View {
        View { projection: Projection::Orthographic { azimuth }, config: HsrConfig::default() }
    }

    /// A perspective view from `eye` towards `look` with the given
    /// horizontal field of view (radians) and advisory raster resolution.
    pub fn perspective(eye: Point3, look: Point3, fov: f64, resolution: u32) -> View {
        View {
            projection: Projection::Perspective { eye, look, fov, resolution },
            config: HsrConfig::default(),
        }
    }

    /// A viewshed: classify `targets` as seen from `observer` (empty
    /// targets = classify the terrain's own vertices).
    pub fn viewshed(observer: Point3, targets: Vec<Point3>) -> View {
        View {
            projection: Projection::Viewshed { observer, targets },
            config: HsrConfig::default(),
        }
    }

    /// Selects the algorithm for this view.
    pub fn algorithm(mut self, algorithm: Algorithm) -> View {
        self.config.algorithm = algorithm;
        self
    }

    /// Selects the phase-2 engine (implies the parallel algorithm).
    pub fn phase2(mut self, mode: Phase2Mode) -> View {
        self.config.algorithm = Algorithm::Parallel(mode);
        self
    }

    /// Chooses between the layered parallel Kahn ordering and the
    /// sequential one.
    pub fn parallel_order(mut self, on: bool) -> View {
        self.config.parallel_order = on;
        self
    }

    /// Enables per-layer statistics collection ([`Report::layers`]).
    pub fn stats(mut self, on: bool) -> View {
        self.config.collect_stats = on;
        self
    }

    /// Checks everything about the view that needs no terrain: finite
    /// coordinates, a field of view in `(0, π]`, a resolution ≥ 1, an eye
    /// and look point with distinct ground positions, and viewshed
    /// targets strictly in front of the observer (`x` below the
    /// observer's). [`evaluate`] runs it before touching the terrain, and
    /// tiled evaluation runs it before loading a tile. The one rule that
    /// needs the terrain — the eye or observer must lie beyond every
    /// terrain `x` — is checked by [`evaluate`].
    pub fn validate(&self) -> Result<(), HsrError> {
        let invalid = |why: String| Err(HsrError::InvalidView(why));
        match &self.projection {
            Projection::Orthographic { azimuth } => {
                if !azimuth.is_finite() {
                    return invalid("azimuth must be finite".into());
                }
            }
            Projection::Perspective { eye, look, fov, resolution } => {
                if !(fov.is_finite() && *fov > 0.0 && *fov <= PI) {
                    return invalid(format!("fov must lie in (0, π], got {fov}"));
                }
                if *resolution == 0 {
                    return invalid("resolution must be ≥ 1".into());
                }
                if !eye.is_finite() {
                    return invalid("eye must be finite".into());
                }
                let (dx, dy) = (look.x - eye.x, look.y - eye.y);
                if !(dx.is_finite() && dy.is_finite()) || (dx == 0.0 && dy == 0.0) {
                    return invalid(
                        "eye and look must have distinct, finite ground positions".into(),
                    );
                }
            }
            Projection::Viewshed { observer, targets } => {
                if !observer.is_finite() {
                    return invalid("observer must be finite".into());
                }
                for (i, t) in targets.iter().enumerate() {
                    if !t.is_finite() {
                        return invalid(format!("target {i} is not finite"));
                    }
                    if t.x >= observer.x {
                        return invalid(format!("target {i} lies at or behind the observer depth"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Everything one view evaluation produced.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Report {
    /// The visible image (in the view's own image plane).
    pub vis: VisibilityMap,
    /// Input size `n` (number of terrain edges).
    pub n: usize,
    /// Output size `k` (pieces + crossings + vertical points), measured
    /// after any field-of-view clipping.
    pub k: usize,
    /// Cost-model counters of exactly this evaluation. Each `evaluate`
    /// owns a scoped [`CostCollector`], so the counters are correct under
    /// concurrent batch evaluation: a view's report never includes work of
    /// views that overlapped it in time.
    pub cost: CostReport,
    /// Stage timings.
    pub timings: Timings,
    /// Per-layer statistics (only when stats collection was requested).
    pub layers: Vec<LayerStats>,
    /// Crossings discovered at internal PCT merges.
    pub internal_crossings: u64,
    /// Per-target verdicts (viewshed views only; empty otherwise). Index
    /// `i` answers for target `i` — or for vertex `i` when the target
    /// list was empty.
    pub verdicts: Vec<Verdict>,
    /// Advisory raster resolution (perspective views only).
    pub resolution: Option<u32>,
}

impl Report {
    /// The report of an evaluation over nothing: empty map, zero sizes and
    /// counters. The identity of [`Report::absorb`] — stitching loops fold
    /// part reports into it.
    pub fn empty() -> Report {
        Report {
            vis: VisibilityMap::default(),
            n: 0,
            k: 0,
            cost: CostReport::zeroed(),
            timings: Timings::default(),
            layers: Vec::new(),
            internal_crossings: 0,
            verdicts: Vec::new(),
            resolution: None,
        }
    }

    /// Stitches the report of another *part* of a partitioned scene into
    /// this one (the merge step of tiled / out-of-core evaluation, where
    /// each part is a sub-terrain evaluated under the same view).
    ///
    /// * The visibility map is concatenated with the part's edge ids
    ///   shifted by `edge_offset` (the cumulative edge count of the parts
    ///   already absorbed), so piece/crossing edge ids stay unambiguous
    ///   across parts; `n` accumulates and `k` is recomputed from the
    ///   merged map. Each part's map resolves occlusion *within* that
    ///   part only — stitching does not re-run hidden-surface removal
    ///   across part boundaries.
    /// * Cost counters add ([`CostReport::absorb`]) and timings add stage
    ///   by stage — cumulative compute time, not wall-clock time, when
    ///   the parts ran concurrently; per-layer statistics concatenate;
    ///   `internal_crossings` accumulates.
    /// * Viewshed verdicts combine pointwise with *Hidden dominating*:
    ///   when every part classified the same target list, a target is
    ///   visible in the stitched scene iff no part occludes it — exactly
    ///   the monolithic classification, because a target is hidden iff
    ///   *some* terrain in front covers it and every triangle belongs to
    ///   at least one part. A report with no verdicts (a non-viewshed
    ///   part) leaves the other side's verdicts untouched; mismatched
    ///   non-empty lengths panic, as that means the parts classified
    ///   different target lists.
    /// * `resolution` keeps the first advisory value seen.
    pub fn absorb(&mut self, other: &Report, edge_offset: u32) {
        self.vis.absorb_offset(&other.vis, edge_offset);
        self.n += other.n;
        self.k = self.vis.output_size();
        self.cost.absorb(&other.cost);
        let (t, o) = (&mut self.timings, &other.timings);
        t.order_s += o.order_s;
        t.phase1_s += o.phase1_s;
        t.phase2_s += o.phase2_s;
        t.total_s += o.total_s;
        self.layers.extend(other.layers.iter().cloned());
        self.internal_crossings += other.internal_crossings;
        if self.verdicts.is_empty() {
            self.verdicts = other.verdicts.clone();
        } else if !other.verdicts.is_empty() {
            assert_eq!(
                self.verdicts.len(),
                other.verdicts.len(),
                "absorbed reports classified different target lists"
            );
            for (v, o) in self.verdicts.iter_mut().zip(&other.verdicts) {
                if *o == Verdict::Hidden {
                    *v = Verdict::Hidden;
                }
            }
        }
        if self.resolution.is_none() {
            self.resolution = other.resolution;
        }
    }
}

/// Evaluates one view against a terrain.
///
/// Every projection takes the same path: validate the view
/// ([`View::validate`]), remap the terrain into image space, project and
/// order its edges front to back, classify the viewshed targets against
/// that same order, run the configured engine, and clip a perspective
/// image to its field of view. The terrain's combinatorial structure
/// (edges, adjacency) is reused for every projection through
/// [`Tin::remap_vertices`]; no full TIN rebuild/validation happens per
/// view, and the canonical view (azimuth 0) evaluates the terrain as
/// given.
///
/// Each evaluation owns one scoped [`CostCollector`] covering everything
/// it does, so [`Report::cost`] is exact per view — including inside a
/// concurrent [`evaluate_batch`] — and a caller's own collector, if
/// installed, still observes the evaluation through collector nesting.
pub fn evaluate(tin: &Tin, view: &View) -> Result<Report, HsrError> {
    let t_start = Instant::now();
    view.validate()?;
    let collector = CostCollector::new();
    let scope = collector.install();

    // Image space: the remapped terrain (none for the canonical view),
    // the projected viewshed queries, and the perspective fov clip.
    let mut queries = None;
    let mut clip = None;
    let mut resolution = None;
    let remapped = match &view.projection {
        Projection::Orthographic { azimuth } if *azimuth == 0.0 => None,
        Projection::Orthographic { azimuth } => Some(tin.rotated_about_z(*azimuth)?),
        Projection::Perspective { eye, look, fov, resolution: pixels } => {
            // Rotate the scene so the look direction becomes `-x` (the
            // pipeline's view axis). Rotating a vector at angle θ by
            // α = π − θ lands it at angle π, i.e. along −x.
            let alpha = PI - (look.y - eye.y).atan2(look.x - eye.x);
            let (s, c) = alpha.sin_cos();
            let rot = |p: Point3| Point3::new(c * p.x - s * p.y, s * p.x + c * p.y, p.z);
            let rot_eye = rot(*eye);
            check_eye_margin(tin.vertices().iter().map(|&v| rot(v).x), rot_eye.x)?;
            let vp = Viewpoint { vx: rot_eye.x, vy: rot_eye.y, vz: rot_eye.z };
            clip = (*fov < PI).then(|| (0.5 * fov).tan());
            resolution = Some(*pixels);
            Some(if alpha.abs() < 1e-15 {
                tin.remap_vertices(|p| vp.project(p))?
            } else {
                tin.remap_vertices(|p| vp.project(rot(p)))?
            })
        }
        Projection::Viewshed { observer, targets } => {
            check_eye_margin(tin.vertices().iter().map(|v| v.x), observer.x)?;
            let vp = Viewpoint { vx: observer.x, vy: observer.y, vz: observer.z };
            // An empty target list classifies the terrain's own vertices.
            let points = if targets.is_empty() {
                tin.vertices()
            } else {
                targets
            };
            queries = Some(points.iter().map(|&p| vp.project(p)).collect::<Vec<_>>());
            Some(tin.remap_vertices(|p| vp.project(p))?)
        }
    };
    let image = remapped.as_ref().unwrap_or(tin);

    // One projection + ordering pass, shared by the target
    // classification and the engine.
    let (ordered, verdicts) = {
        let edges = project_edges(image);
        let order = if view.config.parallel_order {
            depth_order_parallel(image)?
        } else {
            depth_order(image)?
        };
        let verdicts =
            queries.map_or_else(Vec::new, |q| classify_points(image, &edges, &order, &q));
        let ordered: Vec<SceneEdge> = order.iter().map(|&e| edges[e as usize]).collect();
        (ordered, verdicts)
    };
    let t_order = Instant::now();
    let (out, t_phase1) = run_engine(&view.config, ordered);
    let t_end = Instant::now();

    let mut vis = out.vis;
    if let Some(half) = clip {
        vis.clip_abscissa(-half, half);
        // Vertical points carry no geometry in the map; their abscissa
        // is the shared image `y` of the edge endpoints.
        vis.vertical_visible.retain(|&e| {
            let [a, _] = image.edges()[e as usize];
            (-half..=half).contains(&image.vertices()[a as usize].y)
        });
    }
    drop(scope);
    Ok(Report {
        n: image.edges().len(),
        k: vis.output_size(),
        vis,
        cost: collector.report(),
        timings: Timings {
            order_s: (t_order - t_start).as_secs_f64(),
            phase1_s: (t_phase1 - t_order).as_secs_f64(),
            phase2_s: (t_end - t_phase1).as_secs_f64(),
            total_s: (t_end - t_start).as_secs_f64(),
        },
        layers: out.layers,
        internal_crossings: out.internal_crossings,
        verdicts,
        resolution,
    })
}

/// The span tree of one evaluation, derived from measurements the
/// [`Report`] already carries: a root `"evaluate"` span with the
/// end-to-end duration, Brent work/depth totals, and the
/// `PredicateFilter`/`PredicateExact` counters of [`Report::cost`], and
/// one child per pipeline stage (`"order"`, `"phase1"`, `"phase2"`)
/// from [`Report::timings`]. Building it reads the finished report
/// only, so it costs nothing on the evaluation hot path; the server
/// grafts it under each traced request's `evaluate` stage.
pub fn evaluate_span(report: &Report) -> hsr_obs::SpanRecord {
    let ns = |s: f64| if s > 0.0 { (s * 1e9) as u64 } else { 0 };
    let t = &report.timings;
    let mut root = hsr_obs::SpanRecord::new("evaluate", 0, ns(t.total_s));
    root.work = report.cost.total_work();
    root.depth = report.cost.total_depth();
    root.pred_filter = report.cost.work_of(Category::PredicateFilter);
    root.pred_exact = report.cost.work_of(Category::PredicateExact);
    let mut at = 0u64;
    for (name, dur) in [
        ("order", ns(t.order_s)),
        ("phase1", ns(t.phase1_s)),
        ("phase2", ns(t.phase2_s)),
    ] {
        root.children.push(hsr_obs::SpanRecord::new(name, at, dur));
        at += dur;
    }
    root
}

/// Evaluates a batch of views against one shared terrain, in parallel.
///
/// Views are split recursively over the collector-propagating
/// [`hsr_pram::join`], so a batch of `m` views uses the available thread
/// budget while every view reads the same terrain structure — the
/// adjacency is built once (when the [`Tin`] was constructed), not once
/// per view. Results come back in input order. Every view owns its own
/// cost collector (see [`evaluate`]), so the per-view [`Report::cost`]
/// counters match what a solo evaluation of the same view would report,
/// and any collector installed by the caller observes the whole batch.
pub fn evaluate_batch(tin: &Tin, views: &[View]) -> Vec<Result<Report, HsrError>> {
    fanout(views.len(), |i| evaluate(tin, &views[i]))
}

/// Evaluates heterogeneous `(terrain, view)` jobs in parallel — the same
/// collector-propagating fan-out as [`evaluate_batch`], but each job may
/// target a different terrain. This is the evaluation engine of tiled /
/// out-of-core scenes (`hsr-tile`), where one logical view becomes one job
/// per resident tile. Results come back in input order; every job owns its
/// scoped cost collector exactly as in [`evaluate`].
pub fn evaluate_many(jobs: &[(&Tin, View)]) -> Vec<Result<Report, HsrError>> {
    fanout(jobs.len(), |i| evaluate(jobs[i].0, &jobs[i].1))
}

/// Recursive binary fan-out over [`hsr_pram::join`]: runs `f(0..n)` with
/// the available thread budget, preserving index order in the output and
/// propagating any installed cost collector into stolen subtasks.
fn fanout<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    fn rec<T: Send>(base: usize, out: &mut [Option<T>], f: &(impl Fn(usize) -> T + Sync)) {
        match out.len() {
            0 => {}
            1 => out[0] = Some(f(base)),
            n => {
                let mid = n / 2;
                let (oa, ob) = out.split_at_mut(mid);
                hsr_pram::join(|| rec(base, oa, f), || rec(base + mid, ob, f));
            }
        }
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    rec(0, &mut out, &f);
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perspective::perspective_tin;
    use hsr_terrain::gen;

    fn fingerprint(vis: &VisibilityMap) -> Vec<(u32, u64, u64)> {
        vis.pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits()))
            .collect()
    }

    #[test]
    fn evaluate_span_mirrors_the_report() {
        let tin = gen::fbm(8, 8, 3, 8.0, 7).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let front = Point3::new(hi.x + 30.0, 0.5 * (lo.y + hi.y), 20.0);
        let center = Point3::new(0.5 * (lo.x + hi.x), front.y, 0.0);
        // Every projection takes the same path, so its stages tile the
        // evaluation the same way: the canonical view, a rotated one, a
        // perspective view and a viewshed.
        for view in [
            View::orthographic(0.0),
            View::orthographic(0.7),
            View::perspective(front, center, 1.2, 64),
            View::viewshed(front, vec![Point3::new(center.x, center.y, 30.0)]),
        ] {
            let report = evaluate(&tin, &view).unwrap();
            let root = &evaluate_span(&report);
            assert_eq!(root.name, "evaluate");
            let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["order", "phase1", "phase2"]);
            // Wall-clock and cost attribution both ride on the span.
            assert_eq!(root.dur_ns, (report.timings.total_s * 1e9) as u64);
            assert_eq!(root.work, report.cost.total_work());
            assert_eq!(root.pred_filter, report.cost.work_of(Category::PredicateFilter));
            // The pipeline stages tile the evaluation: children are
            // contiguous and their sum covers at least half of the root
            // (the remainder is bookkeeping outside the three stages).
            let sum = root.stage_sum_ns();
            assert!(sum <= root.dur_ns);
            assert!(
                sum as f64 >= root.dur_ns as f64 * 0.5,
                "{view:?}: stages {} vs total {}",
                sum,
                root.dur_ns
            );
        }
    }

    #[test]
    fn rotated_view_matches_rotated_terrain() {
        let tin = gen::gaussian_hills(8, 8, 3, 6).to_tin().unwrap();
        let a = evaluate(&tin, &View::orthographic(0.4)).unwrap();
        let b = evaluate(&tin.rotated_about_z(0.4).unwrap(), &View::orthographic(0.0)).unwrap();
        assert_eq!(fingerprint(&a.vis), fingerprint(&b.vis));
    }

    #[test]
    fn perspective_view_matches_pretransformed_terrain() {
        let tin = gen::gaussian_hills(10, 10, 4, 9).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let eye = Point3::new(hi.x + 25.0, 0.5 * (lo.y + hi.y), 20.0);
        // Look straight along -x so the alignment rotation is identity.
        let look = Point3::new(eye.x - 1.0, eye.y, 0.0);
        let a = evaluate(&tin, &View::perspective(eye, look, std::f64::consts::PI, 640)).unwrap();
        let ptin = perspective_tin(&tin, Viewpoint { vx: eye.x, vy: eye.y, vz: eye.z }).unwrap();
        let b = evaluate(&ptin, &View::orthographic(0.0)).unwrap();
        assert_eq!(fingerprint(&a.vis), fingerprint(&b.vis));
        assert_eq!(a.resolution, Some(640));
    }

    #[test]
    fn perspective_fov_clips_the_image() {
        let tin = gen::ridge_field(12, 10, 3, 10.0, 5).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let eye = Point3::new(hi.x + 20.0, 0.5 * (lo.y + hi.y), 25.0);
        let look = Point3::new(lo.x, eye.y, 0.0);
        let wide = evaluate(&tin, &View::perspective(eye, look, std::f64::consts::PI, 64)).unwrap();
        let narrow = evaluate(&tin, &View::perspective(eye, look, 0.2, 64)).unwrap();
        assert!(narrow.k < wide.k, "narrow fov {} !< wide fov {}", narrow.k, wide.k);
        let half = (0.1f64).tan();
        for p in &narrow.vis.pieces {
            assert!(p.x0 >= -half - 1e-12 && p.x1 <= half + 1e-12);
        }
    }

    #[test]
    fn perspective_look_direction_is_a_rotation() {
        // The same relative eye→scene geometry, expressed with a rotated
        // look direction, yields the same image sizes.
        let tin = gen::gaussian_hills(9, 9, 3, 4).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let center = Point3::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y), 0.0);
        let eye = Point3::new(hi.x + 30.0, center.y, 18.0);
        let r = evaluate(&tin, &View::perspective(eye, center, 1.2, 64)).unwrap();
        assert!(r.k > 0);
        // An eye on the other side of the scene also works (rotation ≠ 0).
        let eye2 = Point3::new(lo.x - 30.0, center.y, 18.0);
        let r2 = evaluate(&tin, &View::perspective(eye2, center, 1.2, 64)).unwrap();
        assert!(r2.k > 0);
    }

    #[test]
    fn viewshed_classifies_targets() {
        let tin = gen::occlusion_knob(12, 12, 1.0, 10.0, 2).to_tin().unwrap();
        let (lo, hi) = tin.ground_bounds();
        let observer = Point3::new(hi.x + 50.0, 0.5 * (lo.y + hi.y), 8.0);
        let targets = vec![
            Point3::new(1.0, 5.5, 100.0), // far above everything
            Point3::new(1.0, 5.5, 0.5),   // behind and below the wall
            Point3::new(11.5, 5.5, 0.5),  // in front of the wall
        ];
        let r = evaluate(&tin, &View::viewshed(observer, targets)).unwrap();
        assert_eq!(r.verdicts[0], Verdict::Visible);
        assert_eq!(r.verdicts[1], Verdict::Hidden);
        assert_eq!(r.verdicts[2], Verdict::Visible);
        // The report's cost bracket covers the shared projection/ordering
        // pass, not just the pipeline body.
        assert!(r.cost.work_of(hsr_pram::cost::Category::Order) > 0);
        // Empty targets: one verdict per terrain vertex.
        let r = evaluate(&tin, &View::viewshed(observer, Vec::new())).unwrap();
        assert_eq!(r.verdicts.len(), tin.vertices().len());
        assert!(r.verdicts.contains(&Verdict::Visible));
    }

    #[test]
    fn invalid_views_are_rejected() {
        let tin = gen::fbm(6, 6, 2, 4.0, 1).to_tin().unwrap();
        let eye = Point3::new(100.0, 0.0, 10.0);
        let look = Point3::new(0.0, 0.0, 0.0);
        assert!(matches!(
            evaluate(&tin, &View::orthographic(f64::NAN)).unwrap_err(),
            HsrError::InvalidView(_)
        ));
        assert!(matches!(
            evaluate(&tin, &View::perspective(eye, look, 0.0, 64)).unwrap_err(),
            HsrError::InvalidView(_)
        ));
        assert!(matches!(
            evaluate(&tin, &View::perspective(eye, look, 1.0, 0)).unwrap_err(),
            HsrError::InvalidView(_)
        ));
        assert!(matches!(
            evaluate(&tin, &View::perspective(eye, eye, 1.0, 64)).unwrap_err(),
            HsrError::InvalidView(_)
        ));
        // Non-finite eyes / observers / targets are malformed *views*,
        // not terrain errors.
        assert!(matches!(
            evaluate(&tin, &View::perspective(Point3::new(100.0, 0.0, f64::NAN), look, 1.0, 64))
                .unwrap_err(),
            HsrError::InvalidView(_)
        ));
        assert!(matches!(
            evaluate(&tin, &View::viewshed(Point3::new(100.0, f64::NAN, 5.0), Vec::new()))
                .unwrap_err(),
            HsrError::InvalidView(_)
        ));
        assert!(matches!(
            evaluate(&tin, &View::viewshed(eye, vec![Point3::new(1.0, 1.0, f64::NAN)]))
                .unwrap_err(),
            HsrError::InvalidView(_)
        ));
        // Eye inside the scene.
        assert!(matches!(
            evaluate(&tin, &View::perspective(Point3::new(2.0, 0.0, 5.0), look, 1.0, 64))
                .unwrap_err(),
            HsrError::ViewpointInsideScene { .. }
        ));
        assert!(matches!(
            evaluate(&tin, &View::viewshed(Point3::new(2.0, 0.0, 5.0), Vec::new())).unwrap_err(),
            HsrError::ViewpointInsideScene { .. }
        ));
    }

    #[test]
    fn evaluate_many_matches_solo_runs_per_terrain() {
        let a = gen::fbm(8, 8, 3, 6.0, 3).to_tin().unwrap();
        let b = gen::ridge_field(9, 9, 3, 8.0, 4).to_tin().unwrap();
        let jobs: Vec<(&Tin, View)> = vec![
            (&a, View::orthographic(0.0)),
            (&b, View::orthographic(0.0)),
            (&a, View::orthographic(0.5)),
            (&b, View::orthographic(0.0).algorithm(Algorithm::Sequential)),
        ];
        let many = evaluate_many(&jobs);
        assert_eq!(many.len(), jobs.len());
        for ((tin, view), got) in jobs.iter().zip(&many) {
            let solo = evaluate(tin, view).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(fingerprint(&got.vis), fingerprint(&solo.vis));
            assert_eq!((got.n, got.k), (solo.n, solo.k));
            assert_eq!(got.cost.total_work(), solo.cost.total_work());
        }
    }

    #[test]
    fn report_absorb_stitches_parts() {
        let a = gen::fbm(7, 7, 3, 6.0, 5).to_tin().unwrap();
        let b = gen::gaussian_hills(8, 8, 3, 6).to_tin().unwrap();
        let ra = evaluate(&a, &View::orthographic(0.0)).unwrap();
        let rb = evaluate(&b, &View::orthographic(0.0)).unwrap();
        let mut merged = Report::empty();
        merged.absorb(&ra, 0);
        merged.absorb(&rb, ra.n as u32);
        assert_eq!(merged.n, ra.n + rb.n);
        assert_eq!(merged.k, merged.vis.output_size());
        assert_eq!(merged.vis.pieces.len(), ra.vis.pieces.len() + rb.vis.pieces.len());
        // Edge ids from part B were shifted past part A's id space.
        assert!(merged
            .vis
            .pieces
            .iter()
            .skip(ra.vis.pieces.len())
            .all(|p| p.edge >= ra.n as u32));
        assert_eq!(merged.cost.total_work(), ra.cost.total_work() + rb.cost.total_work());
        assert!((merged.timings.total_s - (ra.timings.total_s + rb.timings.total_s)).abs() < 1e-12);
    }

    #[test]
    fn report_absorb_merges_verdicts_hidden_dominates() {
        let mk = |verdicts: Vec<Verdict>| Report { verdicts, ..Report::empty() };
        let mut m = Report::empty();
        m.absorb(&mk(vec![Verdict::Visible, Verdict::Visible, Verdict::Hidden]), 0);
        m.absorb(&mk(vec![Verdict::Visible, Verdict::Hidden, Verdict::Visible]), 0);
        m.absorb(&Report::empty(), 0); // non-viewshed part: verdicts untouched
        assert_eq!(m.verdicts, vec![Verdict::Visible, Verdict::Hidden, Verdict::Hidden]);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn views_roundtrip_through_json() {
        let views = vec![
            View::orthographic(0.35).algorithm(Algorithm::Sequential),
            View::perspective(Point3::new(40.0, 3.0, 18.0), Point3::new(0.0, 3.0, 0.0), 1.2, 640)
                .stats(true),
            View::viewshed(Point3::new(60.0, 4.0, 9.0), vec![Point3::new(1.0, 2.0, 3.0)])
                .parallel_order(false),
        ];
        for view in views {
            let json = serde_json::to_string(&view).unwrap();
            let back: View = serde_json::from_str(&json).unwrap();
            assert_eq!(back, view, "json was {json}");
            assert_eq!(back.config, view.config);
        }
    }

    #[test]
    fn batch_matches_individual_evaluations() {
        let tin = gen::ridge_field(10, 10, 3, 8.0, 7).to_tin().unwrap();
        let views: Vec<View> = (0..5)
            .map(|i| View::orthographic(0.25 * i as f64))
            .chain(std::iter::once(View::orthographic(0.1).algorithm(Algorithm::Sequential)))
            .collect();
        let batch = evaluate_batch(&tin, &views);
        assert_eq!(batch.len(), views.len());
        for (view, got) in views.iter().zip(&batch) {
            let solo = evaluate(&tin, view).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(fingerprint(&got.vis), fingerprint(&solo.vis));
            assert_eq!(got.k, solo.k);
        }
    }
}
