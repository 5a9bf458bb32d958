//! Integration: the viewpoint-centric Scene/View API.
//!
//! The headline acceptance check lives here: a batch of eight
//! rotated/perspective views of one terrain evaluated through a single
//! `Scene` must produce results bit-identical to eight independent
//! `Scene` runs — while building the shared terrain state (TIN
//! validation + adjacency) exactly once, asserted through the cost
//! model's `TinBuild` counter.

use terrain_hsr::geometry::Point3;
use terrain_hsr::pram::cost::{Category, CostCollector};
use terrain_hsr::terrain::gen;
use terrain_hsr::{Report, Scene, Verdict, View};

type Fingerprint = (Vec<(u32, [u64; 4])>, Vec<(u32, u32, [u64; 2])>, Vec<u32>);

fn fingerprint(r: &Report) -> Fingerprint {
    (
        r.vis
            .pieces
            .iter()
            .map(|p| {
                (
                    p.edge,
                    [
                        p.x0.to_bits(),
                        p.x1.to_bits(),
                        p.z0.to_bits(),
                        p.z1.to_bits(),
                    ],
                )
            })
            .collect(),
        r.vis
            .crossings
            .iter()
            .map(|c| (c.upper_left, c.upper_right, [c.x.to_bits(), c.z.to_bits()]))
            .collect(),
        r.vis.vertical_visible.clone(),
    )
}

fn eight_views(grid: &terrain_hsr::terrain::GridTerrain) -> Vec<View> {
    let tin = grid.to_tin().unwrap();
    let (lo, hi) = tin.ground_bounds();
    let mid_y = 0.5 * (lo.y + hi.y);
    let mut views: Vec<View> = (0..6)
        .map(|i| View::orthographic(0.35 * i as f64))
        .collect();
    for dz in [12.0, 25.0] {
        let eye = Point3::new(hi.x + 30.0, mid_y, dz);
        let look = Point3::new(eye.x - 1.0, eye.y, 0.0);
        views.push(View::perspective(eye, look, std::f64::consts::PI, 256));
    }
    views
}

#[test]
fn batch_of_eight_matches_independent_scenes_and_builds_state_once() {
    let grid = gen::ridge_field(16, 14, 4, 10.0, 23);
    let views = eight_views(&grid);
    assert_eq!(views.len(), 8);

    // Eight independent Scene runs: a fresh Scene per view.
    let independent: Vec<Report> = views
        .iter()
        .map(|v| {
            let scene = Scene::from_grid(&grid).unwrap();
            scene.eval(v).unwrap()
        })
        .collect();

    // One Scene, one batch — the shared state is built exactly once.
    // The bracketing collector nests over the per-view collectors the
    // batch installs, so it sees any TIN build wherever it happens —
    // including inside a worker-thread evaluation.
    let bracket = CostCollector::new();
    let guard = bracket.install();
    let scene = Scene::from_grid(&grid).unwrap();
    let batch = scene.eval_batch(&views);
    drop(guard);
    let builds = bracket.report().work_of(Category::TinBuild);
    assert_eq!(
        builds, 1,
        "a batch over one Scene must build the shared terrain state exactly once"
    );

    assert_eq!(batch.len(), independent.len());
    for (i, (solo, got)) in independent.iter().zip(&batch).enumerate() {
        let got = got.as_ref().unwrap();
        assert_eq!(fingerprint(got), fingerprint(solo), "view {i} diverged");
        assert_eq!(got.n, solo.n, "view {i}: n");
        assert_eq!(got.k, solo.k, "view {i}: k");
    }

    // The independent runs, by contrast, paid one build per view.
    let bracket = CostCollector::new();
    let guard = bracket.install();
    for v in &views {
        let scene = Scene::from_grid(&grid).unwrap();
        let _ = scene.eval(v).unwrap();
    }
    drop(guard);
    let builds = bracket.report().work_of(Category::TinBuild);
    assert_eq!(builds, 8, "independent scenes rebuild the state per view");
}

#[test]
fn rotated_views_need_no_rebuild() {
    let scene = Scene::from_grid(&gen::gaussian_hills(12, 12, 4, 5)).unwrap();
    let bracket = CostCollector::new();
    let guard = bracket.install();
    for i in 0..4 {
        let r = scene.eval(&View::orthographic(0.4 * i as f64)).unwrap();
        assert!(r.k > 0);
        assert_eq!(r.cost.work_of(Category::TinBuild), 0, "view {i} rebuilt terrain state");
    }
    drop(guard);
    let builds = bracket.report().work_of(Category::TinBuild);
    assert_eq!(builds, 0, "rotated projections must reuse the shared adjacency");
}

#[test]
fn viewshed_through_session_matches_direct_classification() {
    let grid = gen::occlusion_knob(12, 12, 0.9, 10.0, 4);
    let scene = Scene::from_grid(&grid).unwrap();
    let tin = scene.tin();
    let (lo, hi) = tin.ground_bounds();
    let observer = Point3::new(hi.x + 200.0, 0.5 * (lo.y + hi.y), 12.0);
    let targets = vec![
        Point3::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y), 100.0),
        Point3::new(lo.x + 0.1, 0.5 * (lo.y + hi.y), 0.05),
    ];
    let report = scene
        .eval(&View::viewshed(observer, targets.clone()))
        .unwrap();
    assert_eq!(report.verdicts.len(), targets.len());
    assert_eq!(report.verdicts[0], Verdict::Visible, "a point far above everything");
    // The full visibility map of the observer's view rides along.
    assert!(report.k > 0);
}

#[test]
fn batch_propagates_per_view_errors_without_poisoning_the_rest() {
    let scene = Scene::from_grid(&gen::fbm(8, 8, 3, 6.0, 2)).unwrap();
    let views = vec![
        View::orthographic(0.0),
        View::orthographic(f64::NAN), // invalid
        View::orthographic(0.2),
    ];
    let results = scene.eval_batch(&views);
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1].as_ref().unwrap_err(),
        terrain_hsr::HsrError::InvalidView(_)
    ));
    assert!(results[2].is_ok());
}
