//! The sequential baseline: Reif–Sen style incremental profile maintenance
//! (paper §2, "In the sequential algorithm, the edges are processed one by
//! one sequentially in order").
//!
//! The profile is a mutable ordered map of envelope pieces — an
//! [`ArenaTreap`], since this working set never exploits persistence:
//! nodes live in one contiguous arena, splices mutate in place, and
//! removed slots are recycled instead of path-copied. For each edge in
//! front-to-back order, the pieces overlapping its span are walked, the
//! visible sub-intervals and crossings are extracted, and the profile is
//! spliced. The cost per edge is `O(log m + overlapped + changed)` — the
//! practical analogue of the `O((n + k) log² n)` bound the paper's Remark
//! compares against.

use crate::edges::SceneEdge;
use crate::envelope::{relate, CrossEvent, Envelope, EnvelopeBuilder, Piece, Relation};
use crate::visibility::VisibilityMap;
use hsr_geometry::TotalF64;
use hsr_pram::cost::{add_work, record_depth, Category};
use hsr_pstruct::ArenaTreap;

/// Runs the sequential algorithm over edges already in front-to-back
/// order; returns the visible image.
pub fn run_sequential(edges: &[SceneEdge]) -> VisibilityMap {
    let mut profile: ArenaTreap<TotalF64, Piece> = ArenaTreap::new();
    let mut vis = VisibilityMap { n_edges: edges.len(), ..Default::default() };
    record_depth(Category::EnvelopeMerge, edges.len() as u64);

    for edge in edges {
        let Some(s) = edge.piece() else {
            // Vertical projection: point query against the profile.
            let x = edge.seg.a.x;
            let top = edge.seg.a.y.max(edge.seg.b.y);
            let visible = eval(&profile, x).is_none_or(|z| top > z);
            if visible {
                vis.vertical_visible.push(edge.id);
            }
            continue;
        };
        let (pieces, crossings) = insert_edge(&mut profile, s);
        vis.pieces.extend(pieces);
        vis.crossings.extend(crossings);
    }
    add_work(Category::Crossings, vis.crossings.len() as u64);
    vis.canonicalize();
    vis
}

fn eval(profile: &ArenaTreap<TotalF64, Piece>, x: f64) -> Option<f64> {
    let (_, p) = profile.floor(&TotalF64(x))?;
    (x <= p.x1).then(|| p.eval(x))
}

/// Splices piece `s` into the profile; returns the surfaced (visible)
/// sub-pieces of `s` and the crossings found. Touching fragments of one
/// edge coalesce, so the profile stays as small as the envelope itself
/// (the viewshed sweep splices through here too).
pub(crate) fn insert_edge(
    profile: &mut ArenaTreap<TotalF64, Piece>,
    s: Piece,
) -> (Vec<Piece>, Vec<CrossEvent>) {
    // Collect the pieces overlapping [s.x0, s.x1] (including a straddler
    // that starts before s.x0).
    let mut affected: Vec<Piece> = Vec::new();
    if let Some((_, p)) = profile.floor_strict(&TotalF64(s.x0)) {
        if p.x1 > s.x0 {
            affected.push(*p);
        }
    }
    profile.for_range(&TotalF64(s.x0), &TotalF64(s.x1), &mut |_, p| affected.push(*p));
    add_work(Category::EnvelopeMerge, 1 + affected.len() as u64);

    // Rebuild the affected span: visible parts of s plus surviving parts
    // of the old pieces.
    let mut vis = EnvelopeBuilder::with_capacity(2);
    let mut out = EnvelopeBuilder::with_capacity(affected.len() + 2);
    let mut crossings = Vec::new();
    let mut x = s.x0;
    let push_s = |b: &mut EnvelopeBuilder, v: &mut EnvelopeBuilder, u: f64, w: f64| {
        if let Some(c) = s.clip(u, w) {
            b.push(c);
            v.push(c);
        }
    };
    for p in &affected {
        // Keep the part of p before s's span untouched in the rebuild.
        if p.x0 < s.x0 {
            out.push_clip(p, p.x0, s.x0);
        }
        // Gap before this piece: s surfaces.
        if p.x0 > x {
            push_s(&mut out, &mut vis, x, p.x0);
            x = p.x0;
        }
        let v = p.x1.min(s.x1);
        if v > x {
            match relate(p, &s, x, v) {
                Relation::AAbove => out.push_clip(p, x, v),
                Relation::BAbove => push_s(&mut out, &mut vis, x, v),
                Relation::CrossAtoB { x: cx, z } => {
                    crossings.push(CrossEvent {
                        x: cx,
                        z,
                        upper_left: p.edge,
                        upper_right: s.edge,
                    });
                    out.push_clip(p, x, cx);
                    push_s(&mut out, &mut vis, cx, v);
                }
                Relation::CrossBtoA { x: cx, z } => {
                    crossings.push(CrossEvent {
                        x: cx,
                        z,
                        upper_left: s.edge,
                        upper_right: p.edge,
                    });
                    push_s(&mut out, &mut vis, x, cx);
                    out.push_clip(p, cx, v);
                }
            }
            x = v;
        }
        // Part of p after s's span survives untouched.
        if p.x1 > s.x1 {
            out.push_clip(p, s.x1, p.x1);
        }
    }
    if x < s.x1 {
        push_s(&mut out, &mut vis, x, s.x1);
    }

    // Splice: remove the affected pieces (the in-span run in one
    // split/join, plus the straddler key sitting before the span), insert
    // the rebuilt ones.
    profile.remove_range(&TotalF64(s.x0), &TotalF64(s.x1));
    if let Some(p) = affected.first() {
        if p.x0 < s.x0 {
            profile.remove(&TotalF64(p.x0));
        }
    }
    for p in out.finish() {
        profile.insert(TotalF64(p.x0), p);
    }
    (vis.finish(), crossings)
}

/// Materialises the final profile (for tests).
pub fn final_profile(edges: &[SceneEdge]) -> Envelope {
    let mut profile: ArenaTreap<TotalF64, Piece> = ArenaTreap::new();
    for edge in edges {
        if let Some(s) = edge.piece() {
            insert_edge(&mut profile, s);
        }
    }
    Envelope::from_sorted_pieces(profile.into_values())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::project_edges;
    use crate::order::depth_order;
    use hsr_terrain::gen;

    fn ordered_edges(tin: &hsr_terrain::Tin) -> Vec<SceneEdge> {
        let edges = project_edges(tin);
        let order = depth_order(tin).unwrap();
        order.iter().map(|&e| edges[e as usize]).collect()
    }

    #[test]
    fn front_edge_fully_visible() {
        let tin = gen::fbm(6, 6, 3, 5.0, 1).to_tin().unwrap();
        let edges = ordered_edges(&tin);
        let vis = run_sequential(&edges);
        // The very first processed edge is always fully visible.
        let first = edges.iter().find(|e| !e.vertical).unwrap();
        let iv = vis.per_edge_intervals();
        let spans = iv.get(&first.id).expect("first edge visible");
        let len: f64 = spans.iter().map(|(u, v)| v - u).sum();
        assert!((len - (first.seg.b.x - first.seg.a.x)).abs() < 1e-9);
    }

    #[test]
    fn final_profile_matches_global_envelope() {
        let tin = gen::gaussian_hills(8, 8, 4, 2).to_tin().unwrap();
        let edges = ordered_edges(&tin);
        let seq_prof = final_profile(&edges);
        let pieces: Vec<Piece> = edges.iter().filter_map(|e| e.piece()).collect();
        let direct = Envelope::from_pieces(&pieces);
        for i in 0..400 {
            let x = i as f64 * 8.0 / 400.0;
            let (a, b) = (seq_prof.eval(x), direct.eval(x));
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-9, "profile mismatch at {x}: {a} vs {b}")
                }
                _ => panic!("gap mismatch at {x}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn matches_parallel_pct() {
        for tin in [
            gen::fbm(8, 8, 3, 8.0, 7).to_tin().unwrap(),
            gen::ridge_field(10, 8, 3, 12.0, 8).to_tin().unwrap(),
            gen::quadratic_comb(5),
            gen::random_tin(70, 8.0, 9),
        ] {
            let edges = ordered_edges(&tin);
            let seq = run_sequential(&edges);
            let pct = crate::pct::Pct::build(edges);
            let par = pct.phase2(false);
            let ag = seq.agreement(&par.vis);
            assert!(ag > 0.9999, "agreement {ag}");
            assert_eq!(seq.vertical_visible, par.vis.vertical_visible);
        }
    }
}
