//! Integration: serialization round-trips and failure injection.

mod common;

use common::run_default;
use terrain_hsr::core::order;
use terrain_hsr::geometry::Point3;
use terrain_hsr::terrain::gen;
use terrain_hsr::terrain::{GridTerrain, Tin, TinError};

#[cfg(feature = "serde")]
#[test]
fn grid_terrain_roundtrips_through_json() {
    let g = gen::fbm(9, 11, 3, 7.0, 31);
    let json = serde_json::to_string(&g).unwrap();
    let back: GridTerrain = serde_json::from_str(&json).unwrap();
    assert_eq!(g.heights, back.heights);
    assert_eq!((g.nx, g.ny), (back.nx, back.ny));
}

#[cfg(feature = "serde")]
#[test]
fn tin_roundtrips_through_json() {
    let tin = gen::quadratic_comb(5);
    let json = serde_json::to_string(&tin).unwrap();
    let back: Tin = serde_json::from_str(&json).unwrap();
    assert_eq!(tin.counts(), back.counts());
    // And the deserialized terrain computes the same image.
    let a = run_default(&tin);
    let b = run_default(&back);
    assert!(a.vis.agreement(&b.vis) > 0.9999);
}

#[cfg(feature = "serde")]
#[test]
fn visibility_map_roundtrips_through_json() {
    let tin = gen::fbm(10, 10, 3, 8.0, 3).to_tin().unwrap();
    let res = run_default(&tin);
    let json = serde_json::to_string(&res.vis).unwrap();
    let back: terrain_hsr::core::VisibilityMap = serde_json::from_str(&json).unwrap();
    assert_eq!(res.vis.pieces.len(), back.pieces.len());
    assert!((res.vis.agreement(&back) - 1.0).abs() < 1e-12);
}

#[cfg(feature = "serde")]
#[test]
fn timings_and_cost_report_roundtrip_through_json() {
    let tin = gen::fbm(9, 9, 3, 7.0, 5).to_tin().unwrap();
    let report = run_default(&tin);

    let json = serde_json::to_string(&report.timings).unwrap();
    let back: terrain_hsr::Timings = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report.timings);

    let json = serde_json::to_string(&report.cost).unwrap();
    let back: terrain_hsr::pram::cost::CostReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report.cost);
}

#[cfg(feature = "serde")]
#[test]
fn full_report_roundtrips_through_json() {
    use terrain_hsr::geometry::Point3;
    use terrain_hsr::{Scene, View};

    let grid = gen::occlusion_knob(10, 10, 0.8, 10.0, 6);
    let scene = Scene::from_grid(&grid).unwrap();
    let (lo, hi) = scene.tin().ground_bounds();
    let observer = Point3::new(hi.x + 100.0, 0.5 * (lo.y + hi.y), 9.0);
    let targets = vec![Point3::new(lo.x + 0.5, 0.5 * (lo.y + hi.y), 50.0)];
    // A viewshed with stats exercises every Report field: verdicts,
    // layers (with nested merge counters), cost, timings.
    let report = scene
        .eval(&View::viewshed(observer, targets).stats(true))
        .unwrap();
    assert!(!report.layers.is_empty());
    assert!(!report.verdicts.is_empty());

    let json = serde_json::to_string(&report).unwrap();
    let back: terrain_hsr::Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back.n, report.n);
    assert_eq!(back.k, report.k);
    assert_eq!(back.cost, report.cost);
    assert_eq!(back.timings, report.timings);
    assert_eq!(back.verdicts, report.verdicts);
    assert_eq!(back.layers.len(), report.layers.len());
    assert_eq!(back.resolution, report.resolution);
    assert!((back.vis.agreement(&report.vis) - 1.0).abs() < 1e-12);
    // Bench JSON stability: re-serializing the round-tripped report
    // reproduces the bytes exactly.
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn tin_rejects_invalid_inputs() {
    // NaN coordinate.
    let err = Tin::new(vec![Point3::new(0.0, f64::NAN, 0.0)], vec![]).unwrap_err();
    assert!(matches!(err, TinError::NonFiniteVertex(0)));

    // Function-graph violation.
    let err =
        Tin::new(vec![Point3::new(1.0, 2.0, 0.0), Point3::new(1.0, 2.0, 5.0)], vec![]).unwrap_err();
    assert!(matches!(err, TinError::DuplicateGroundPosition(0, 1)));

    // Bad index and degenerate triangle.
    let verts = vec![
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(1.0, 0.0, 0.0),
        Point3::new(2.0, 0.0, 0.0),
    ];
    assert!(matches!(
        Tin::new(verts.clone(), vec![[0, 1, 9]]).unwrap_err(),
        TinError::BadIndex(0)
    ));
    assert!(matches!(
        Tin::new(verts, vec![[0, 1, 2]]).unwrap_err(),
        TinError::DegenerateTriangle(0)
    ));
}

#[test]
fn cyclic_occlusion_is_detected() {
    // Three long thin triangles arranged in a rock-paper-scissors occlusion
    // cycle. Their projections overlap pairwise (not a function graph over
    // the overlaps — vertex positions are still distinct, so TIN
    // construction accepts it), and the occlusion order has a cycle the
    // pairwise order must reject.
    let verts = vec![
        // Triangle A: long along y at x≈0, slightly tilted.
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(0.4, 8.0, 0.0),
        Point3::new(1.0, 4.0, 1.0),
        // Triangle B: long along y at x≈4, crossing over A's far end.
        Point3::new(4.0, 7.9, 0.0),
        Point3::new(-3.0, 8.2, 0.0),
        Point3::new(0.5, 12.0, 1.0),
        // Triangle C: crossing over B's far end and under A's near end.
        Point3::new(-2.6, 9.0, 0.0),
        Point3::new(-2.2, -1.0, 0.0),
        Point3::new(-6.0, 4.0, 1.0),
    ];
    let tris = vec![[0u32, 1, 2], [3, 4, 5], [6, 7, 8]];
    let tin = Tin::new(verts, tris).expect("vertices are distinct, TIN accepts");
    assert_eq!(
        order::depth_order_pairwise(&tin).unwrap_err(),
        order::CyclicOcclusion,
        "crossing projections must be rejected as unorderable"
    );
}

#[test]
fn empty_and_tiny_scenes() {
    // A single triangle whose back edge towers over the front vertex:
    // all three edges visible.
    let tin = Tin::new(
        vec![
            Point3::new(0.0, 0.0, 5.0),
            Point3::new(1.0, 1.0, 0.0),
            Point3::new(0.0, 2.0, 5.0),
        ],
        vec![[0, 1, 2]],
    )
    .unwrap();
    let res = run_default(&tin);
    assert_eq!(res.n, 3);
    assert_eq!(res.vis.pieces.len() + res.vis.vertical_visible.len(), 3);

    // And one where the face hides its own back edge: only the two front
    // edges survive.
    let tin = Tin::new(
        vec![
            Point3::new(0.0, 0.0, 1.0),
            Point3::new(1.0, 1.0, 5.0),
            Point3::new(0.0, 2.0, 1.0),
        ],
        vec![[0, 1, 2]],
    )
    .unwrap();
    let res = run_default(&tin);
    assert_eq!(res.vis.pieces.len(), 2);
}
