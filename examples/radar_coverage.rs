//! Radar coverage: which of a fleet of low-flying aircraft can a coastal
//! radar (far off-shore, looking in over the ridges) actually see? A
//! direct application of the `View::viewshed` projection — batched
//! point-visibility queries riding the profile sweep.
//!
//! ```sh
//! cargo run --release --example radar_coverage
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use terrain_hsr::geometry::Point3;
use terrain_hsr::terrain::gen;
use terrain_hsr::{Scene, Verdict, View};

fn main() {
    // Mountainous coast: ridges across the radar's line of sight.
    let scene = Scene::from_grid(&gen::ridge_field(96, 96, 7, 16.0, 13)).expect("valid terrain");
    let (lo, hi) = scene.tin().ground_bounds();
    // The radar sits far off-shore beyond the terrain's maximum depth.
    let radar = Point3::new(hi.x + 5000.0, 0.5 * (lo.y + hi.y), 25.0);

    // A fleet of aircraft at random positions, one viewshed view per
    // altitude band — evaluated as a single parallel batch.
    let mut rng = SmallRng::seed_from_u64(99);
    let altitudes = [2.0, 6.0, 10.0, 14.0, 18.0];
    let views: Vec<View> = altitudes
        .iter()
        .map(|&altitude| {
            let fleet: Vec<Point3> = (0..400)
                .map(|_| {
                    Point3::new(
                        rng.random_range(lo.x..hi.x),
                        rng.random_range(lo.y..hi.y),
                        altitude,
                    )
                })
                .collect();
            View::viewshed(radar, fleet)
        })
        .collect();
    let reports = scene.eval_batch(&views);

    println!("terrain: {} edges; radar at x = {:.0}", scene.counts().1, radar.x);
    println!("| altitude | aircraft | visible | coverage |");
    println!("|---|---|---|---|");
    for (altitude, report) in altitudes.iter().zip(reports) {
        let report = report.expect("radar sees the terrain from the front");
        let visible = report
            .verdicts
            .iter()
            .filter(|v| **v == Verdict::Visible)
            .count();
        println!(
            "| {altitude:.0} | {} | {visible} | {:.0}% |",
            report.verdicts.len(),
            100.0 * visible as f64 / report.verdicts.len() as f64
        );
    }
    println!();
    println!("higher altitude bands clear the ridge silhouettes and coverage");
    println!("rises towards 100% — the same profile machinery that renders the");
    println!("terrain answers the operational question directly.");
}
