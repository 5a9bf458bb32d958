//! Point-visibility queries ("is this object visible above the terrain?").
//!
//! A downstream application of the profile machinery: given query points
//! above (or on) the terrain — aircraft, towers, markers — decide which
//! are visible from the viewer at `x = +∞`.
//!
//! For a query point `q` **on or above the terrain surface**, `q` is
//! occluded exactly when the upper profile of the edges *in front of* `q`
//! exceeds its image height: along the view ray the surface cross-section
//! is piecewise linear with its maxima on edge crossings, and every
//! in-front crossing belongs to an edge the order places before `q`'s
//! depth position. (For points *inside* the terrain this reduction is
//! invalid — the face fragment directly overhead can occlude without any
//! in-front edge reaching the query height — so callers must keep queries
//! above the surface.) The implementation runs the sequential profile
//! sweep with the queries spliced into the front-to-back order at their
//! depth positions, so a batch of `Q` queries costs one HSR pass plus the
//! rank computation — *not* `Q` ray marches.

use crate::edges::SceneEdge;
use crate::envelope::{relate, EnvelopeBuilder, Piece, Relation};
use crate::seq::insert_edge;
use hsr_geometry::{Point3, TotalF64};
use hsr_pstruct::ArenaTreap;
use hsr_terrain::Tin;
use std::collections::BTreeMap;

/// A visibility verdict for one query point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Verdict {
    /// Nothing in front reaches the query point's image height.
    Visible,
    /// Some terrain in front strictly covers it.
    Hidden,
}

/// Batch-classifies query points against a terrain view.
///
/// `order` is the front-to-back edge order (from [`crate::order`]);
/// `edges` the projected scene edges indexed by edge id.
///
/// Data-oriented: the `O(Q·n)` rank scan runs over flat per-edge
/// coefficient columns (no vertex-index chasing per query), and the
/// profile sweep splices an [`ArenaTreap`] in place through the
/// sequential algorithm's own edge insertion, which coalesces touching
/// fragments of one edge. Both changes are layout-only — every
/// coefficient and piece is computed by the same arithmetic as
/// [`classify_points_legacy`], so verdicts are bit-identical.
pub fn classify_points(
    tin: &Tin,
    edges: &[SceneEdge],
    order: &[u32],
    queries: &[Point3],
) -> Vec<Verdict> {
    // Depth position of a query: the number of order entries whose ground
    // crossing at the query's ordinate lies strictly in front (larger
    // ground x). Edges not crossing the ordinate are irrelevant at that
    // ordinate, so any consistent position among them is fine.
    //
    // Columnar precompute: per order entry, the ordinate window and the
    // crossing-line coefficients. `dy`/`dx` hold the very differences the
    // scalar code formed inside the loop, so `t` and `x_cross` below are
    // the identical computations.
    let verts = tin.vertices();
    let n = order.len();
    let (mut ylo, mut yhi) = (vec![0.0f64; n], vec![0.0f64; n]);
    let (mut pay, mut dy) = (vec![0.0f64; n], vec![0.0f64; n]);
    let (mut pax, mut dx) = (vec![0.0f64; n], vec![0.0f64; n]);
    for (k, &e) in order.iter().enumerate() {
        let [a, b] = tin.edges()[e as usize];
        let (pa, pb) = (verts[a as usize], verts[b as usize]);
        ylo[k] = pa.y.min(pb.y);
        yhi[k] = pa.y.max(pb.y);
        pay[k] = pa.y;
        dy[k] = pb.y - pa.y;
        pax[k] = pa.x;
        dx[k] = pb.x - pa.x;
    }
    // For each query, find its insertion rank: after the last in-front
    // crossing edge.
    let mut insertions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut last_front = 0usize;
        for pos in 0..n {
            if !(ylo[pos] < q.y && q.y < yhi[pos]) {
                continue;
            }
            let t = (q.y - pay[pos]) / dy[pos];
            let x_cross = pax[pos] + t * dx[pos];
            if x_cross > q.x {
                last_front = pos + 1;
            }
        }
        insertions.entry(last_front).or_default().push(qi);
    }

    // One sequential profile sweep with queries answered at their depth.
    let mut profile: ArenaTreap<TotalF64, Piece> = ArenaTreap::new();
    let mut verdicts = vec![Verdict::Visible; queries.len()];
    let eval = |profile: &ArenaTreap<TotalF64, Piece>, x: f64| -> Option<f64> {
        let (_, p) = profile.floor(&TotalF64(x))?;
        (x <= p.x1).then(|| p.eval(x))
    };
    let mut answer = |profile: &ArenaTreap<TotalF64, Piece>, qi: usize| {
        let q = queries[qi];
        let img_x = q.y; // image abscissa = world y
        let img_z = q.z;
        verdicts[qi] = match eval(profile, img_x) {
            Some(env) if env >= img_z => Verdict::Hidden,
            _ => Verdict::Visible,
        };
    };
    if let Some(qs) = insertions.get(&0) {
        for &qi in qs {
            answer(&profile, qi);
        }
    }
    for (pos, &e) in order.iter().enumerate() {
        if let Some(piece) = edges[e as usize].piece() {
            insert_edge(&mut profile, piece);
        }
        if let Some(qs) = insertions.get(&(pos + 1)) {
            for &qi in qs {
                answer(&profile, qi);
            }
        }
    }
    verdicts
}

/// The pre-columnar classification (vertex chasing per query, `BTreeMap`
/// profile), kept verbatim as the differential reference: `exp_hotpath`
/// asserts [`classify_points`] returns identical verdicts.
pub fn classify_points_legacy(
    tin: &Tin,
    edges: &[SceneEdge],
    order: &[u32],
    queries: &[Point3],
) -> Vec<Verdict> {
    let verts = tin.vertices();
    let ground = |e: u32| {
        let [a, b] = tin.edges()[e as usize];
        (verts[a as usize], verts[b as usize])
    };
    let mut insertions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut last_front = 0usize;
        for (pos, &e) in order.iter().enumerate() {
            let (pa, pb) = ground(e);
            let (ylo, yhi) = (pa.y.min(pb.y), pa.y.max(pb.y));
            if !(ylo < q.y && q.y < yhi) {
                continue;
            }
            let t = (q.y - pa.y) / (pb.y - pa.y);
            let x_cross = pa.x + t * (pb.x - pa.x);
            if x_cross > q.x {
                last_front = pos + 1;
            }
        }
        insertions.entry(last_front).or_default().push(qi);
    }

    let mut profile: BTreeMap<TotalF64, Piece> = BTreeMap::new();
    let mut verdicts = vec![Verdict::Visible; queries.len()];
    let eval = |profile: &BTreeMap<TotalF64, Piece>, x: f64| -> Option<f64> {
        let (_, p) = profile.range(..=TotalF64(x)).next_back()?;
        (x <= p.x1).then(|| p.eval(x))
    };
    let mut answer = |profile: &BTreeMap<TotalF64, Piece>, qi: usize| {
        let q = queries[qi];
        let img_x = q.y;
        let img_z = q.z;
        verdicts[qi] = match eval(profile, img_x) {
            Some(env) if env >= img_z => Verdict::Hidden,
            _ => Verdict::Visible,
        };
    };
    if let Some(qs) = insertions.get(&0) {
        for &qi in qs {
            answer(&profile, qi);
        }
    }
    for (pos, &e) in order.iter().enumerate() {
        if let Some(piece) = edges[e as usize].piece() {
            splice_legacy(&mut profile, piece);
        }
        if let Some(qs) = insertions.get(&(pos + 1)) {
            for &qi in qs {
                answer(&profile, qi);
            }
        }
    }
    verdicts
}

/// The `BTreeMap` splice used by [`classify_points_legacy`]; identical
/// piece arithmetic to the sequential sweep's `insert_edge` (touching
/// fragments of one edge coalesce), differing only in the container.
fn splice_legacy(profile: &mut BTreeMap<TotalF64, Piece>, s: Piece) {
    let mut affected: Vec<Piece> = Vec::new();
    if let Some((_, p)) = profile.range(..TotalF64(s.x0)).next_back() {
        if p.x1 > s.x0 {
            affected.push(*p);
        }
    }
    affected.extend(
        profile
            .range(TotalF64(s.x0)..TotalF64(s.x1))
            .map(|(_, p)| *p),
    );

    let mut out = EnvelopeBuilder::with_capacity(affected.len() + 2);
    let mut x = s.x0;
    for p in &affected {
        if p.x0 < s.x0 {
            out.push_clip(p, p.x0, s.x0);
        }
        if p.x0 > x {
            out.push_clip(&s, x, p.x0);
            x = p.x0;
        }
        let v = p.x1.min(s.x1);
        if v > x {
            match relate(p, &s, x, v) {
                Relation::AAbove => out.push_clip(p, x, v),
                Relation::BAbove => out.push_clip(&s, x, v),
                Relation::CrossAtoB { x: cx, .. } => {
                    out.push_clip(p, x, cx);
                    out.push_clip(&s, cx, v);
                }
                Relation::CrossBtoA { x: cx, .. } => {
                    out.push_clip(&s, x, cx);
                    out.push_clip(p, cx, v);
                }
            }
            x = v;
        }
        if p.x1 > s.x1 {
            out.push_clip(p, s.x1, p.x1);
        }
    }
    if x < s.x1 {
        out.push_clip(&s, x, s.x1);
    }
    for p in &affected {
        profile.remove(&TotalF64(p.x0));
    }
    for p in out.finish() {
        profile.insert(TotalF64(p.x0), p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::project_edges;
    use crate::oracle;
    use crate::order::depth_order;
    use hsr_terrain::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(tin: &Tin) -> (Vec<SceneEdge>, Vec<u32>) {
        (project_edges(tin), depth_order(tin).unwrap())
    }

    #[test]
    fn high_points_visible_low_points_behind_wall_hidden() {
        let tin = gen::occlusion_knob(12, 12, 1.0, 10.0, 2).to_tin().unwrap();
        let (edges, order) = setup(&tin);
        let queries = vec![
            Point3::new(1.0, 5.5, 100.0), // far above everything
            Point3::new(1.0, 5.5, 0.5),   // behind and below the wall
            Point3::new(11.5, 5.5, 0.5),  // in front of the wall
        ];
        let v = classify_points(&tin, &edges, &order, &queries);
        assert_eq!(v[0], Verdict::Visible);
        assert_eq!(v[1], Verdict::Hidden);
        assert_eq!(v[2], Verdict::Visible);
    }

    /// Terrain surface height at a ground position (test helper).
    fn surface_z(tin: &Tin, x: f64, y: f64) -> Option<f64> {
        let verts = tin.vertices();
        for t in tin.triangles() {
            let (a, b, c) = (verts[t[0] as usize], verts[t[1] as usize], verts[t[2] as usize]);
            let det = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
            if det == 0.0 {
                continue;
            }
            let l1 = ((b.x - a.x) * (y - a.y) - (x - a.x) * (b.y - a.y)) / det;
            let l2 = ((x - a.x) * (c.y - a.y) - (c.x - a.x) * (y - a.y)) / det;
            let l0 = 1.0 - l1 - l2;
            if l0 >= 0.0 && l1 >= 0.0 && l2 >= 0.0 {
                return Some(l0 * a.z + l2 * b.z + l1 * c.z);
            }
        }
        None
    }

    #[test]
    fn matches_exact_oracle_on_random_points() {
        for (seed, theta) in [(3u64, 0.3), (4, 0.8)] {
            let tin = gen::occlusion_knob(12, 12, theta, 10.0, seed)
                .to_tin()
                .unwrap();
            let (edges, order) = setup(&tin);
            let (lo, hi) = tin.ground_bounds();
            let (_, zhi) = tin.height_range();
            let mut rng = SmallRng::seed_from_u64(seed);
            // Queries strictly above the surface (the documented domain).
            let queries: Vec<Point3> = std::iter::repeat_with(|| {
                let x = rng.random_range(lo.x..hi.x);
                let y = rng.random_range(lo.y..hi.y);
                let floor = surface_z(&tin, x, y)?;
                Some(Point3::new(
                    x,
                    y,
                    floor + rng.random_range(1e-3..(zhi - floor).max(0.1) + 3.0),
                ))
            })
            .flatten()
            .take(200)
            .collect();
            let verdicts = classify_points(&tin, &edges, &order, &queries);
            let mut agree = 0;
            for (q, v) in queries.iter().zip(&verdicts) {
                let exact = if oracle::occluded(&tin, *q, 1e-9) {
                    Verdict::Hidden
                } else {
                    Verdict::Visible
                };
                if exact == *v {
                    agree += 1;
                }
            }
            // Points exactly on occlusion boundaries can tie-break either
            // way; require near-perfect agreement.
            assert!(agree >= 196, "agreement {agree}/200 (theta {theta})");
        }
    }

    #[test]
    fn empty_query_batch() {
        let tin = gen::fbm(6, 6, 2, 4.0, 1).to_tin().unwrap();
        let (edges, order) = setup(&tin);
        assert!(classify_points(&tin, &edges, &order, &[]).is_empty());
    }

    #[test]
    fn columnar_matches_legacy_verdicts() {
        for seed in [1u64, 9, 42] {
            let tin = gen::fbm(10, 10, 3, 9.0, seed).to_tin().unwrap();
            let (edges, order) = setup(&tin);
            let (lo, hi) = tin.ground_bounds();
            let (zlo, zhi) = tin.height_range();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ff_ee00);
            let queries: Vec<Point3> = std::iter::repeat_with(|| {
                Point3::new(
                    rng.random_range(lo.x..hi.x),
                    rng.random_range(lo.y..hi.y),
                    rng.random_range(zlo - 1.0..zhi + 3.0),
                )
            })
            .take(300)
            .collect();
            let fast = classify_points(&tin, &edges, &order, &queries);
            let slow = classify_points_legacy(&tin, &edges, &order, &queries);
            assert_eq!(fast, slow, "verdict drift at seed {seed}");
        }
    }
}
