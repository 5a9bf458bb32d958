//! Out-of-core evaluation: one logical view over a tiled terrain.
//!
//! A [`TiledScene`] is the tile-pyramid counterpart of the facade's
//! monolithic `Scene`: it holds a [`TileStore`] plus a capped
//! [`SceneCache`] and evaluates a [`View`] by
//!
//! 1. **selecting** the covering tiles — every tile for an orthographic
//!    sweep, a view-frustum wedge test for perspective, and a
//!    region-of-interest test for viewsheds (only tiles whose ground box
//!    meets an observer→target sight segment can occlude anything, so the
//!    selection is exact, not heuristic);
//! 2. **picking a level of detail per tile** from its ground distance to
//!    the eye (or a fixed level override);
//! 3. **evaluating** the resident tiles in capacity-bounded chunks
//!    through the parallel fan-out of [`hsr_core::view::evaluate_many`],
//!    the one evaluation path every monolithic view takes too;
//! 4. **stitching** the per-tile [`Report`]s into one merged report
//!    ([`Report::absorb`]): concatenated visibility maps with disjoint
//!    edge-id ranges, summed cost/timings, and pointwise-merged viewshed
//!    verdicts (hidden dominates).
//!
//! For viewsheds at full resolution the stitched verdicts are *bit
//! identical* to a monolithic evaluation of the same terrain: a target is
//! hidden exactly when some tile's terrain occludes it, and every
//! triangle lives in at least one tile (skirts only duplicate, and the
//! envelope maximum is idempotent). The per-tile visible-segment maps
//! resolve occlusion within each tile only; stitching does not re-run
//! hidden-surface removal across tile boundaries.

use crate::cache::{unpinned, CacheStats, Lru, SceneCache};
use crate::pyramid::{PyramidMeta, TileId, TilePyramid, TilingConfig};
use crate::store::{TileStore, TileStoreError};
use hsr_core::error::HsrError;
use hsr_core::view::{evaluate_many, Projection, Report, View};
use hsr_core::viewshed::Verdict;
use hsr_terrain::tin::TinError;
use hsr_terrain::{GridTerrain, Tin};
use std::sync::Arc;

/// Evaluation-side configuration of a tiled scene.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TiledSceneConfig {
    /// Hard cap on resident tiles (the [`SceneCache`] capacity). Also the
    /// evaluation chunk size: at most this many tiles are materialized at
    /// once.
    pub cache_capacity: usize,
    /// Ground distance (from the eye to a tile's box) under which a tile
    /// is evaluated at full resolution; each doubling beyond it coarsens
    /// by one level. `None` picks four tile edge lengths.
    pub lod_near: Option<f64>,
    /// Evaluate every tile at this fixed level instead of by distance.
    /// Orthographic views (no finite eye) always use
    /// `fixed_level.unwrap_or(0)`.
    pub fixed_level: Option<u32>,
}

impl Default for TiledSceneConfig {
    fn default() -> Self {
        TiledSceneConfig { cache_capacity: 16, lod_near: None, fixed_level: None }
    }
}

/// Errors from tiled evaluation.
#[derive(Debug)]
pub enum TiledError {
    /// The tile store failed (I/O, codec, missing meta).
    Store(TileStoreError),
    /// The store exists but its pyramid meta is invalid — truncated,
    /// bit-flipped, or internally inconsistent. Distinct from
    /// [`TiledError::Store`] so callers can tell "this store is damaged,
    /// rebuild it" apart from transient I/O.
    CorruptStore {
        /// The meta file that was rejected.
        path: std::path::PathBuf,
    },
    /// A materialized tile failed TIN validation.
    Terrain(TinError),
    /// A per-tile evaluation failed.
    Hsr(HsrError),
    /// A view shape the tiled evaluator cannot serve.
    UnsupportedView(String),
    /// Stitching the next part would push an edge id past `u32::MAX`:
    /// the terrain has too many edges at the evaluated resolution for
    /// the 32-bit edge-id space of [`hsr_core::visibility::VisibilityMap`].
    /// Evaluate at a coarser level (or fewer tiles) instead of silently
    /// wrapping offsets and corrupting the stitched map.
    EdgeIdOverflow {
        /// Cumulative edge count of the parts already stitched.
        offset: u32,
        /// Edge count of the part that does not fit.
        part_edges: usize,
    },
}

impl std::fmt::Display for TiledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TiledError::Store(e) => write!(f, "tile store: {e}"),
            TiledError::CorruptStore { path } => {
                write!(f, "corrupt tile store: {} is not a valid pyramid meta", path.display())
            }
            TiledError::Terrain(e) => write!(f, "tile terrain invalid: {e}"),
            TiledError::Hsr(e) => write!(f, "tile evaluation: {e}"),
            TiledError::UnsupportedView(what) => write!(f, "unsupported view: {what}"),
            TiledError::EdgeIdOverflow { offset, part_edges } => write!(
                f,
                "stitching overflows the 32-bit edge-id space: {offset} edges already \
                 stitched + {part_edges} in the next part exceed u32::MAX"
            ),
        }
    }
}

impl std::error::Error for TiledError {}

impl From<TileStoreError> for TiledError {
    fn from(e: TileStoreError) -> Self {
        TiledError::Store(e)
    }
}

impl From<HsrError> for TiledError {
    fn from(e: HsrError) -> Self {
        TiledError::Hsr(e)
    }
}

/// What one tile contributed to a stitched evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TileEval {
    /// The tile (level = the LOD it was evaluated at).
    pub id: TileId,
    /// The tile's input size (edges).
    pub n: usize,
    /// The tile's output size.
    pub k: usize,
}

/// The result of one tiled evaluation: the stitched report plus the
/// out-of-core evidence (which tiles ran, at what level, and how the
/// cache behaved).
#[derive(Clone, Debug)]
pub struct TiledReport {
    /// The stitched per-view report (see [`Report::absorb`] for merge
    /// semantics; `report.n` is the summed tile edge count, and piece
    /// edge ids of tile `t` start at the sum of earlier tiles' `n`).
    pub report: Report,
    /// Per-tile contributions in stitch order.
    pub tiles: Vec<TileEval>,
    /// Tiles in the pyramid (per level); `tiles.len()` of them were
    /// selected for this view.
    pub tiles_total: usize,
    /// Cache counters observed right after this evaluation;
    /// `cache.peak_resident` never exceeds the configured capacity.
    pub cache: CacheStats,
}

/// A terrain too large to hold as one scene: a tile pyramid on disk, a
/// capped cache of resident tiles, and `Scene`-like evaluation on top.
pub struct TiledScene {
    meta: PyramidMeta,
    store: TileStore,
    cache: SceneCache,
    cfg: TiledSceneConfig,
    /// Serializes [`TiledScene::eval`] calls: each evaluation may pin up
    /// to `cache_capacity` tiles for its current chunk, so two concurrent
    /// evaluations could pin more than the cap between them (breaking the
    /// cache's checkout contract). Parallelism lives *inside* an
    /// evaluation (the chunk fan-out); concurrent callers queue here.
    eval_lock: std::sync::Mutex<()>,
}

impl TiledScene {
    /// Cuts `grid` into a pyramid materialized in `store` and opens the
    /// result for evaluation. The grid can be dropped afterwards —
    /// evaluation streams tiles from the store.
    pub fn build(
        grid: &GridTerrain,
        tiling: TilingConfig,
        store: TileStore,
        cfg: TiledSceneConfig,
    ) -> Result<TiledScene, TiledError> {
        let meta = TilePyramid::build(grid, tiling, &store)?;
        Ok(TiledScene {
            cache: Lru::new(cfg.cache_capacity, unpinned),
            meta,
            store,
            cfg,
            eval_lock: std::sync::Mutex::new(()),
        })
    }

    /// Opens an already materialized store (reads its pyramid meta).
    ///
    /// A store whose meta file is damaged — truncated, bit-flipped, or
    /// internally inconsistent — fails with
    /// [`TiledError::CorruptStore`], never a panic downstream.
    pub fn open(store: TileStore, cfg: TiledSceneConfig) -> Result<TiledScene, TiledError> {
        let meta = store.read_meta().map_err(|e| match e {
            TileStoreError::BadMeta { path } => TiledError::CorruptStore { path },
            other => TiledError::Store(other),
        })?;
        Ok(TiledScene {
            cache: Lru::new(cfg.cache_capacity, unpinned),
            meta,
            store,
            cfg,
            eval_lock: std::sync::Mutex::new(()),
        })
    }

    /// The pyramid description.
    pub fn meta(&self) -> &PyramidMeta {
        &self.meta
    }

    /// The cache counters (residency, hit/load/eviction history).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Mirror this scene's tile-cache activity into `recorder`'s
    /// `tile_*` event counters (see [`Lru::attach_recorder`]).
    pub fn attach_recorder(&self, recorder: &hsr_obs::Recorder) {
        self.cache.attach_recorder(recorder, "tile");
    }

    /// Evaluates one view against the tiled terrain. See the module docs
    /// for the select → LOD → chunked-evaluate → stitch sequence and the
    /// merge semantics.
    ///
    /// Safe to call from several threads: evaluations are serialized on
    /// an internal lock so the resident-tile bound holds across callers
    /// (each evaluation parallelizes internally over its chunk).
    pub fn eval(&self, view: &View) -> Result<TiledReport, TiledError> {
        self.eval_many(std::slice::from_ref(view))?
            .pop()
            .expect("one view in, one report out")
    }

    /// Evaluates several views against the tiled terrain in one pass —
    /// the coalesced form of [`TiledScene::eval`] that a request batcher
    /// (`hsr-serve`) uses. The union of the views' covering tiles streams
    /// through the cache *once*: a tile selected by many views is
    /// materialized once per residency instead of once per view, and each
    /// capacity-bounded chunk fans every `(tile, view)` job through the
    /// same parallel [`evaluate_many`] fan-out.
    ///
    /// Results come back in view order and each stitched report is
    /// bit-identical to what a solo [`TiledScene::eval`] of that view
    /// returns (each `(tile, view)` evaluation owns a scoped cost
    /// collector and is independent of the batch around it; stitching
    /// follows the view's own selection order). The outer `Err` is an
    /// infrastructure failure (a tile failed to load) that aborts the
    /// whole batch; inner errors are per-view (bad view shape, per-tile
    /// evaluation failure, edge-id overflow).
    pub fn eval_many(
        &self,
        views: &[View],
    ) -> Result<Vec<Result<TiledReport, TiledError>>, TiledError> {
        let _serialized = self.eval_lock.lock().expect("eval lock");
        // Select per view; selection errors settle that view immediately.
        let mut out: Vec<Option<Result<TiledReport, TiledError>>> =
            views.iter().map(|_| None).collect();
        let mut selections: Vec<Vec<TileId>> = views.iter().map(|_| Vec::new()).collect();
        for (i, view) in views.iter().enumerate() {
            match self.select(view) {
                Ok(sel) => selections[i] = sel,
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        // The union of covering tiles, deduplicated, in deterministic
        // (level, ti, tj) order, with the views interested in each tile.
        let mut views_of: std::collections::BTreeMap<TileId, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, sel) in selections.iter().enumerate() {
            if out[i].is_none() {
                for &id in sel {
                    views_of.entry(id).or_default().push(i);
                }
            }
        }
        let union: Vec<TileId> = views_of.keys().copied().collect();
        // Per-view stitch state: each view absorbs its parts in its own
        // (sweep-order) selection order — the order a solo eval would
        // have used — advancing a cursor as parts become available.
        struct Stitch {
            report: Report,
            tiles: Vec<TileEval>,
            edge_offset: u32,
            next: usize,
            failed: Option<TiledError>,
        }
        let mut stitches: Vec<Stitch> = views
            .iter()
            .zip(&selections)
            .map(|(view, sel)| Stitch {
                report: Report { verdicts: unoccluded(view), ..Report::empty() },
                tiles: Vec::with_capacity(sel.len()),
                edge_offset: 0,
                next: 0,
                failed: None,
            })
            .collect();
        // Stream the union through the cache in capacity-bounded chunks,
        // fanning every (tile, view) pair of a chunk out in parallel and
        // stitching eagerly after each chunk, so a part report is freed
        // as soon as its view's selection order reaches it (for a single
        // view — or any batch evaluated at one level — the union order
        // matches the selection order and nothing outlives its chunk).
        let mut parts: std::collections::HashMap<(TileId, usize), Result<Report, HsrError>> =
            std::collections::HashMap::new();
        let chunk = self.cfg.cache_capacity.min(union.len()).max(1);
        for group in union.chunks(chunk) {
            // Materialize the chunk (≤ capacity tiles pinned at once)…
            let mut pinned: Vec<(TileId, Arc<Tin>)> = Vec::with_capacity(group.len());
            for &id in group {
                let tin = self
                    .cache
                    .get_or_load(&id, || {
                        self.store
                            .read_tile(id)
                            .map_err(TiledError::Store)
                            .and_then(|g| g.to_tin().map_err(TiledError::Terrain))
                            .map(Arc::new)
                    })
                    .expect("chunk size never exceeds cache capacity")?;
                pinned.push((id, tin));
            }
            // …fan the chunk's (tile, view) jobs out in parallel
            // (skipping views that already settled or failed)…
            let mut keys: Vec<(TileId, usize)> = Vec::new();
            let mut jobs: Vec<(&Tin, View)> = Vec::new();
            for (id, tin) in &pinned {
                for &vi in &views_of[id] {
                    if out[vi].is_none() && stitches[vi].failed.is_none() {
                        keys.push((*id, vi));
                        jobs.push((tin.as_ref(), views[vi].clone()));
                    }
                }
            }
            let results = evaluate_many(&jobs);
            parts.extend(keys.into_iter().zip(results));
            // …and absorb everything that is now in selection order.
            for (i, sel) in selections.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                let s = &mut stitches[i];
                while s.failed.is_none() && s.next < sel.len() {
                    let Some(part) = parts.remove(&(sel[s.next], i)) else {
                        break;
                    };
                    match part {
                        Ok(part) => {
                            s.tiles
                                .push(TileEval { id: sel[s.next], n: part.n, k: part.k });
                            s.report.absorb(&part, s.edge_offset);
                            match advance_edge_offset(s.edge_offset, part.n) {
                                Ok(next) => s.edge_offset = next,
                                Err(e) => s.failed = Some(e),
                            }
                        }
                        Err(e) => s.failed = Some(TiledError::Hsr(e)),
                    }
                    s.next += 1;
                }
            }
            // Parts of failed views pending in later selection slots
            // will never be consumed; drop them now.
            parts.retain(|&(_, i), _| stitches[i].failed.is_none());
        }
        for (i, (sel, s)) in selections.iter().zip(stitches).enumerate() {
            if out[i].is_some() {
                continue;
            }
            out[i] = Some(match s.failed {
                Some(e) => Err(e),
                None => {
                    debug_assert_eq!(s.next, sel.len(), "every selected part stitched");
                    Ok(TiledReport {
                        report: s.report,
                        tiles: s.tiles,
                        tiles_total: self.meta.tile_count(),
                        cache: self.cache.stats(),
                    })
                }
            });
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every view settled"))
            .collect())
    }

    /// The tiles a view needs, each at its level of detail, in row-major
    /// sweep order. The view is validated first, by the same
    /// [`View::validate`] the monolithic [`hsr_core::view::evaluate`]
    /// runs, so an invalid view fails before any tile loads; the one
    /// tiled-only rule is that a viewshed names explicit targets.
    fn select(&self, view: &View) -> Result<Vec<TileId>, TiledError> {
        view.validate()?;
        let meta = &self.meta;
        let level_for = |eye: Option<(f64, f64)>, ti: u32, tj: u32| -> u32 {
            if let Some(level) = self.cfg.fixed_level {
                return level.min(meta.levels - 1);
            }
            let Some(eye) = eye else { return 0 };
            let (lo, hi) = meta.ground_aabb(ti, tj);
            let near = self.cfg.lod_near.unwrap_or_else(|| {
                4.0 * (meta.tile_size as f64) * meta.dx.abs().max(meta.dy.abs())
            });
            lod_level(aabb_distance(eye, lo, hi), near, meta.levels)
        };
        let mut out = Vec::new();
        match &view.projection {
            // The full back-to-front row sweep: every tile contributes.
            Projection::Orthographic { .. } => {
                for (ti, tj) in meta.tile_coords() {
                    out.push(TileId { level: level_for(None, ti, tj), ti, tj });
                }
            }
            Projection::Perspective { eye, look, fov, .. } => {
                let apex = (eye.x, eye.y);
                let dir = (look.x - eye.x, look.y - eye.y);
                for (ti, tj) in meta.tile_coords() {
                    let (lo, hi) = meta.ground_aabb(ti, tj);
                    if wedge_intersects_aabb(apex, dir, 0.5 * fov, lo, hi) {
                        out.push(TileId { level: level_for(Some(apex), ti, tj), ti, tj });
                    }
                }
            }
            Projection::Viewshed { observer, targets } => {
                if targets.is_empty() {
                    return Err(TiledError::UnsupportedView(
                        "tiled viewsheds need explicit targets: with an empty target list each \
                         tile would classify its own vertices and the per-tile verdict lists \
                         could not be aligned — materialize the query points instead"
                            .into(),
                    ));
                }
                let obs = (observer.x, observer.y);
                for (ti, tj) in meta.tile_coords() {
                    let (lo, hi) = meta.ground_aabb(ti, tj);
                    // Only terrain under a sight segment can occlude; the
                    // exactness of the stitched verdicts relies on this
                    // test being conservative (never a false negative).
                    let relevant = targets
                        .iter()
                        .any(|t| segment_intersects_aabb(obs, (t.x, t.y), lo, hi));
                    if relevant {
                        out.push(TileId { level: level_for(Some(obs), ti, tj), ti, tj });
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The verdicts a viewshed stitch starts from: every target visible.
/// `Visible` is the identity of the hidden-dominates merge in
/// [`Report::absorb`], so a stitch with parts ends where it did without
/// this start, and a target whose sight line crosses no tile answers
/// `Visible`, as in the monolithic scene, instead of going missing.
fn unoccluded(view: &View) -> Vec<Verdict> {
    match &view.projection {
        Projection::Viewshed { targets, .. } => vec![Verdict::Visible; targets.len()],
        _ => Vec::new(),
    }
}

/// The distance-based level-of-detail rule: level 0 (full resolution)
/// out to ground distance `near`, one level coarser per doubling beyond
/// it, clamped to the pyramid's deepest level.
///
/// The clamps are explicit rather than trusting the saturating
/// float→int cast: a ratio that float noise rounds to exactly 1 (or a
/// `log2` that lands a hair below 0) still yields level 1, and an
/// astronomically large ratio (tiny `near`, `log2` → huge or `+∞`)
/// clamps to `levels - 1` instead of the `+ 1` wrapping the saturated
/// `u32::MAX`. The function is monotone non-decreasing in `d` and never
/// exceeds `levels - 1` (the property test pins both). `near ≤ 0` or
/// NaN disables distance-based coarsening, as does a NaN distance.
pub fn lod_level(d: f64, near: f64, levels: u32) -> u32 {
    assert!(levels >= 1, "a pyramid has at least level 0");
    let max = levels - 1;
    let exceeds = |a: f64, b: &f64| a.partial_cmp(b) == Some(std::cmp::Ordering::Greater);
    if !exceeds(near, &0.0) || !exceeds(d, &near) {
        return 0;
    }
    let raw = (d / near).log2().floor();
    if !exceeds(raw, &0.0) {
        // d barely beyond near: the ratio rounded to ≤ 1 (or log2 noise
        // dipped below 0) — the first coarsening band, not a saturating
        // cast accident.
        return 1.min(max);
    }
    if raw >= max as f64 {
        return max;
    }
    // 0 < raw < max ≤ u32::MAX, so both the cast and the + 1 are exact.
    (raw as u32 + 1).min(max)
}

/// Advances the stitching edge-id offset past a part with `n` edges.
/// A many-tile full-resolution terrain can push the cumulative edge
/// count past `u32::MAX`; that must surface as
/// [`TiledError::EdgeIdOverflow`], not wrap and corrupt the stitched
/// [`hsr_core::visibility::VisibilityMap`] offsets.
fn advance_edge_offset(offset: u32, n: usize) -> Result<u32, TiledError> {
    u32::try_from(n)
        .ok()
        .and_then(|n| offset.checked_add(n))
        .ok_or(TiledError::EdgeIdOverflow { offset, part_edges: n })
}

/// Ground distance from a point to an axis-aligned box (0 inside).
fn aabb_distance(p: (f64, f64), lo: (f64, f64), hi: (f64, f64)) -> f64 {
    let dx = (lo.0 - p.0).max(0.0).max(p.0 - hi.0);
    let dy = (lo.1 - p.1).max(0.0).max(p.1 - hi.1);
    (dx * dx + dy * dy).sqrt()
}

/// Closed-set segment/AABB intersection via slab clipping.
fn segment_intersects_aabb(a: (f64, f64), b: (f64, f64), lo: (f64, f64), hi: (f64, f64)) -> bool {
    let (mut t0, mut t1) = (0.0f64, 1.0f64);
    for ((p, d), (l, h)) in [
        ((a.0, b.0 - a.0), (lo.0, hi.0)),
        ((a.1, b.1 - a.1), (lo.1, hi.1)),
    ] {
        if d == 0.0 {
            if p < l || p > h {
                return false;
            }
            continue;
        }
        let (mut u0, mut u1) = ((l - p) / d, (h - p) / d);
        if u0 > u1 {
            std::mem::swap(&mut u0, &mut u1);
        }
        t0 = t0.max(u0);
        t1 = t1.min(u1);
        if t0 > t1 {
            return false;
        }
    }
    true
}

/// Does the infinite wedge with the given apex, center direction and
/// half-angle (≤ π/2) meet the box? Exact for closed sets: the wedge and
/// box intersect iff the apex is inside the box, a box corner is inside
/// the wedge, or a wedge boundary ray crosses the box.
fn wedge_intersects_aabb(
    apex: (f64, f64),
    dir: (f64, f64),
    half_angle: f64,
    lo: (f64, f64),
    hi: (f64, f64),
) -> bool {
    if lo.0 <= apex.0 && apex.0 <= hi.0 && lo.1 <= apex.1 && apex.1 <= hi.1 {
        return true;
    }
    let len = (dir.0 * dir.0 + dir.1 * dir.1).sqrt();
    let d = (dir.0 / len, dir.1 / len);
    let cos_half = half_angle.cos();
    let corners = [(lo.0, lo.1), (lo.0, hi.1), (hi.0, lo.1), (hi.0, hi.1)];
    for c in corners {
        let u = (c.0 - apex.0, c.1 - apex.1);
        let norm = (u.0 * u.0 + u.1 * u.1).sqrt();
        if u.0 * d.0 + u.1 * d.1 >= norm * cos_half {
            return true;
        }
    }
    let (sin, cos) = half_angle.sin_cos();
    for s in [sin, -sin] {
        let ray = (d.0 * cos - d.1 * s, d.0 * s + d.1 * cos);
        if ray_intersects_aabb(apex, ray, lo, hi) {
            return true;
        }
    }
    false
}

/// Closed-set ray/AABB intersection (slab method, `t ≥ 0`).
fn ray_intersects_aabb(p: (f64, f64), d: (f64, f64), lo: (f64, f64), hi: (f64, f64)) -> bool {
    let (mut t0, mut t1) = (0.0f64, f64::INFINITY);
    for ((p, d), (l, h)) in [((p.0, d.0), (lo.0, hi.0)), ((p.1, d.1), (lo.1, hi.1))] {
        if d == 0.0 {
            if p < l || p > h {
                return false;
            }
            continue;
        }
        let (mut u0, mut u1) = ((l - p) / d, (h - p) / d);
        if u0 > u1 {
            std::mem::swap(&mut u0, &mut u1);
        }
        t0 = t0.max(u0);
        t1 = t1.min(u1);
        if t0 > t1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_aabb_cases() {
        let (lo, hi) = ((0.0, 0.0), (2.0, 2.0));
        assert!(segment_intersects_aabb((-1.0, 1.0), (3.0, 1.0), lo, hi)); // through
        assert!(segment_intersects_aabb((1.0, 1.0), (5.0, 5.0), lo, hi)); // from inside
        assert!(segment_intersects_aabb((-1.0, -1.0), (0.0, 0.0), lo, hi)); // touches corner
        assert!(!segment_intersects_aabb((-1.0, 3.0), (3.0, 3.0), lo, hi)); // above
        assert!(!segment_intersects_aabb((3.0, -1.0), (3.0, 3.0), lo, hi)); // right of
        assert!(!segment_intersects_aabb((-2.0, 0.0), (0.0, -2.0), lo, hi)); // clips corner off
        assert!(segment_intersects_aabb((1.0, 1.0), (1.0, 1.0), lo, hi)); // degenerate inside
        assert!(!segment_intersects_aabb((3.0, 3.0), (3.0, 3.0), lo, hi)); // degenerate outside
    }

    #[test]
    fn wedge_aabb_cases() {
        let (lo, hi) = ((2.0, -1.0), (3.0, 1.0));
        // Looking straight +x from the origin: box dead ahead.
        assert!(wedge_intersects_aabb((0.0, 0.0), (1.0, 0.0), 0.1, lo, hi));
        // Looking away.
        assert!(!wedge_intersects_aabb((0.0, 0.0), (-1.0, 0.0), 0.4, lo, hi));
        // Narrow wedge aimed past the box misses it…
        assert!(!wedge_intersects_aabb((0.0, 10.0), (1.0, 0.0), 0.05, lo, hi));
        // …a wide one from the same place reaches down to it.
        assert!(wedge_intersects_aabb(
            (0.0, 10.0),
            (1.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            lo,
            hi
        ));
        // Apex inside.
        assert!(wedge_intersects_aabb((2.5, 0.0), (1.0, 0.0), 0.05, lo, hi));
        // A thin wedge that pierces a box face: no corner lies inside the
        // wedge and the apex is outside, so only the boundary-ray test
        // can (and must) detect it.
        assert!(wedge_intersects_aabb((2.5, -5.0), (0.0, 1.0), 0.02, lo, hi));
    }

    #[test]
    fn advance_edge_offset_checks_the_boundary() {
        assert_eq!(advance_edge_offset(0, 17).unwrap(), 17);
        // Exactly fills the id space.
        assert_eq!(advance_edge_offset(u32::MAX - 5, 5).unwrap(), u32::MAX);
        // One past it: the regression the unchecked `+=` wrapped through.
        match advance_edge_offset(u32::MAX - 5, 6) {
            Err(TiledError::EdgeIdOverflow { offset, part_edges }) => {
                assert_eq!((offset, part_edges), (u32::MAX - 5, 6));
            }
            other => panic!("expected EdgeIdOverflow, got {other:?}"),
        }
        // A single part too large for u32 at all.
        assert!(matches!(
            advance_edge_offset(0, u32::MAX as usize + 2),
            Err(TiledError::EdgeIdOverflow { .. })
        ));
    }

    #[test]
    fn lod_level_clamps_explicitly() {
        // In the near band and at the boundary: full resolution.
        assert_eq!(lod_level(0.0, 10.0, 4), 0);
        assert_eq!(lod_level(10.0, 10.0, 4), 0);
        // Doubling bands.
        assert_eq!(lod_level(10.0 + 1e-9, 10.0, 4), 1);
        assert_eq!(lod_level(19.9, 10.0, 4), 1);
        assert_eq!(lod_level(20.1, 10.0, 4), 2);
        assert_eq!(lod_level(40.1, 10.0, 4), 3);
        // Clamped to the deepest level.
        assert_eq!(lod_level(1e9, 10.0, 4), 3);
        // A ratio so large `log2` saturates: must clamp, not wrap the
        // `+ 1` past the saturated u32 cast (the pre-fix code did).
        assert_eq!(lod_level(1e300, 1e-300, 4), 3);
        assert_eq!(lod_level(f64::MAX, f64::MIN_POSITIVE, 2), 1);
        // Ratio rounding to exactly 1: explicit first-band clamp.
        let near = 3.000000000000001_f64;
        let d = near * (1.0 + f64::EPSILON);
        assert!(d > near && lod_level(d, near, 8) == 1);
        // Disabled coarsening: non-positive or NaN near, NaN distance.
        assert_eq!(lod_level(100.0, 0.0, 4), 0);
        assert_eq!(lod_level(100.0, -1.0, 4), 0);
        assert_eq!(lod_level(100.0, f64::NAN, 4), 0);
        assert_eq!(lod_level(f64::NAN, 10.0, 4), 0);
        // A one-level pyramid only ever evaluates level 0.
        assert_eq!(lod_level(1e12, 1.0, 1), 0);
    }

    #[test]
    fn aabb_distance_cases() {
        let (lo, hi) = ((0.0, 0.0), (2.0, 2.0));
        assert_eq!(aabb_distance((1.0, 1.0), lo, hi), 0.0);
        assert_eq!(aabb_distance((4.0, 1.0), lo, hi), 2.0);
        assert!((aabb_distance((-3.0, -4.0), lo, hi) - 5.0).abs() < 1e-12);
    }
}
