//! Concurrent cost attribution: per-view `CostReport`s must be exact.
//!
//! The regression this file pins down: with the old process-global
//! counter arrays, `evaluate` bracketed `snapshot()`/`since()` around its
//! body, so two views evaluating concurrently inside `evaluate_batch`
//! charged each other's work to themselves — reports depended on
//! scheduling. With scoped collectors, the work counters of a view
//! evaluated in a parallel batch are bit-identical to the counters of the
//! same view evaluated solo. (The batch assertions here fail on the
//! pre-collector code whenever two evaluations actually overlap.)

use terrain_hsr::geometry::Point3;
use terrain_hsr::pram::cost::{Category, CostCollector};
use terrain_hsr::terrain::gen;
use terrain_hsr::{Algorithm, Report, Scene, View};

/// A batch of views with wildly different work profiles: cheap and
/// expensive orthographic rotations, the sequential baseline, the `O(n²)`
/// naive strawman, a perspective view, and a viewshed.
fn mixed_views(scene: &Scene) -> Vec<View> {
    let (lo, hi) = scene.tin().ground_bounds();
    let mid_y = 0.5 * (lo.y + hi.y);
    let eye = Point3::new(hi.x + 40.0, mid_y, 18.0);
    let look = Point3::new(eye.x - 1.0, eye.y, 0.0);
    let observer = Point3::new(hi.x + 60.0, mid_y, 10.0);
    vec![
        View::orthographic(0.0),
        View::orthographic(0.9),
        View::orthographic(0.0).algorithm(Algorithm::Sequential),
        View::orthographic(0.0).algorithm(Algorithm::Naive),
        View::perspective(eye, look, std::f64::consts::PI, 128),
        View::viewshed(observer, vec![Point3::new(0.5 * (lo.x + hi.x), mid_y, 50.0)]),
        View::orthographic(0.3).stats(true),
    ]
}

fn scene() -> Scene {
    Scene::from_grid(&gen::ridge_field(14, 12, 4, 9.0, 31)).unwrap()
}

#[test]
fn batch_reports_match_solo_reports_counter_for_counter() {
    let scene = scene();
    let views = mixed_views(&scene);

    let solo: Vec<Report> = views.iter().map(|v| scene.eval(v).unwrap()).collect();
    let batch = scene.eval_batch(&views);

    for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
        let b = b.as_ref().unwrap();
        assert_eq!(
            b.cost.work, s.cost.work,
            "view {i}: batch work counters diverged from solo evaluation"
        );
        assert_eq!(
            b.cost.depth, s.cost.depth,
            "view {i}: batch depth counters diverged from solo evaluation"
        );
    }

    // Sanity on the workload spread: the naive view's counters dwarf the
    // cheap orthographic one's, so cross-attribution between concurrent
    // views could not have cancelled out invisibly.
    assert!(
        solo[3].cost.total_work() > 10 * solo[0].cost.total_work(),
        "naive work {} should dwarf parallel work {}",
        solo[3].cost.total_work(),
        solo[0].cost.total_work()
    );
}

#[test]
fn ambient_collector_sees_exactly_the_sum_of_the_batch() {
    let scene = scene();
    let views = mixed_views(&scene);

    let bracket = CostCollector::new();
    let guard = bracket.install();
    let batch = scene.eval_batch(&views);
    drop(guard);

    let mut sum = 0u64;
    for r in &batch {
        sum += r.as_ref().unwrap().cost.total_work();
    }
    assert_eq!(
        bracket.report().total_work(),
        sum,
        "an outer bracket must observe every view's charges, nothing else"
    );
}

#[test]
fn concurrent_solo_evaluations_on_plain_threads_stay_isolated() {
    let scene = scene();
    let views = mixed_views(&scene);
    let expected: Vec<Vec<u64>> = views
        .iter()
        .map(|v| scene.eval(v).unwrap().cost.work)
        .collect();

    // Evaluate every view simultaneously from plain OS threads (no shared
    // rayon scope): each report must still match its solo counters.
    let got: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = views
            .iter()
            .map(|v| {
                let scene = scene.clone();
                s.spawn(move || scene.eval(v).unwrap().cost.work)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, expected);
}

#[test]
fn interval_filter_counters_are_reported_and_batch_stable() {
    // The batched predicate kernel (ISSUE 8) attributes every pair
    // classification to either the interval-filter fast tier
    // (`PredicateFilter`) or the exact/scalar fallback (`PredicateExact`).
    // Both must surface in `Report::cost`, the filter must actually fire
    // on a real terrain, and — like every other counter — the totals must
    // be bit-identical whether the view runs solo or inside a parallel
    // `eval_batch` alongside dissimilar workloads.
    let scene = scene();
    let views = mixed_views(&scene);

    let solo: Vec<Report> = views.iter().map(|v| scene.eval(v).unwrap()).collect();
    assert!(
        solo[0].cost.work_of(Category::PredicateFilter) > 0,
        "interval filter never fired on the parallel orthographic view"
    );
    let filtered: u64 = solo
        .iter()
        .map(|r| r.cost.work_of(Category::PredicateFilter))
        .sum();
    let exact: u64 = solo
        .iter()
        .map(|r| r.cost.work_of(Category::PredicateExact))
        .sum();
    // On TIN terrains adjacent pieces share endpoints, so the exact
    // endpoint tier legitimately fires often; both tiers must show up.
    assert!(filtered > 0 && exact > 0, "{filtered} filtered vs {exact} exact");

    let batch = scene.eval_batch(&views);
    for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
        let b = b.as_ref().unwrap();
        for cat in [Category::PredicateFilter, Category::PredicateExact] {
            assert_eq!(
                b.cost.work_of(cat),
                s.cost.work_of(cat),
                "view {i}: {cat:?} diverged between solo and batched evaluation"
            );
        }
    }
}

#[test]
fn uninstrumented_callers_still_get_per_view_counters() {
    // No collector anywhere in the caller: Report::cost is still filled
    // (each evaluation installs its own), and nothing leaks to a
    // collector created afterwards.
    let scene = scene();
    let r = scene.eval(&View::orthographic(0.2)).unwrap();
    assert!(r.cost.total_work() > 0);
    assert!(r.cost.work_of(Category::Order) > 0);
    let c = CostCollector::new();
    assert_eq!(c.report().total_work(), 0);
}

/// The serving layer inherits the guarantee: a request evaluated inside
/// a server-coalesced batch reports cost counters bit-identical to a
/// solo evaluation of the same view — over the wire, across worker
/// threads, whatever group a worker took it in (ISSUE 5).
#[cfg(feature = "serve")]
#[test]
fn served_coalesced_requests_report_solo_cost_counters() {
    use terrain_hsr::serve::{Client, ServerBuilder, TerrainSource};

    let scene = scene();
    let views = mixed_views(&scene);
    let solo: Vec<Report> = views.iter().map(|v| scene.eval(v).unwrap()).collect();

    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Tin(scene.shared_tin()))
        .workers(2)
        .max_batch(8)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Pipelined: the workers take compatible queued requests as batched
    // fan-outs (the naive and sequential views land in groups of their
    // own — a different `view.config`).
    let results = client.eval_pipelined("t", &views).unwrap();

    for (i, (s, b)) in solo.iter().zip(&results).enumerate() {
        let b = b.as_ref().unwrap();
        assert_eq!(
            b.cost.work, s.cost.work,
            "view {i}: served work counters diverged from solo evaluation"
        );
        assert_eq!(
            b.cost.depth, s.cost.depth,
            "view {i}: served depth counters diverged from solo evaluation"
        );
    }
    assert!(server.stats().max_batch_observed >= 2, "{:?}", server.stats());
    server.shutdown();
}
