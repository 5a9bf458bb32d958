//! Rotation sweep: rotate the camera around a terrain and watch the
//! output size `k` and the visible fraction change with the view
//! direction — the same terrain can be cheap or expensive to display
//! depending on where you stand.
//!
//! The whole sweep is one `Scene` batch: twelve orthographic views
//! evaluated in parallel against one shared terrain state (no per-angle
//! TIN rebuild).
//!
//! ```sh
//! cargo run --release --example viewshed_rotation
//! ```

use terrain_hsr::terrain::gen;
use terrain_hsr::{Scene, View};

fn main() {
    let scene = Scene::from_grid(&gen::ridge_field(48, 48, 6, 14.0, 11)).expect("valid terrain");
    let (_, n_edges, _) = scene.counts();
    println!("ridge terrain with {n_edges} edges, sweeping view direction:");

    let degrees: Vec<usize> = (0..180).step_by(15).collect();
    let sweep: Vec<View> = degrees
        .iter()
        .map(|&deg| View::orthographic((deg as f64).to_radians()))
        .collect();
    let reports = scene.eval_batch(&sweep);

    println!("| angle (deg) | k | k/n | visible width | ms |");
    println!("|---|---|---|---|---|");
    for (deg, report) in degrees.iter().zip(reports) {
        let report = report.expect("rotation keeps validity");
        println!(
            "| {deg} | {} | {:.2} | {:.1} | {:.1} |",
            report.k,
            report.k as f64 / n_edges as f64,
            report.vis.total_visible_width(),
            report.timings.total_s * 1e3,
        );
    }
    println!();
    println!("looking along the ridges (0°) exposes far more of the terrain than");
    println!("looking across them (90°), where the front ridge hides the rest —");
    println!("and the algorithm's cost tracks k, not n.");
}
