//! Quickstart: build a small fractal terrain, run hidden-surface removal,
//! inspect the output.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use terrain_hsr::terrain::gen;
use terrain_hsr::{Algorithm, Scene, View};

fn main() {
    // A 64×64 fractal heightfield; the scene's shared state (edge set,
    // adjacency) is validated and built exactly once here.
    let grid = gen::fbm(64, 64, 5, 12.0, 42);
    let scene = Scene::from_grid(&grid).expect("valid terrain");
    let (nv, ne, nf) = scene.counts();
    println!("terrain: {nv} vertices, {ne} edges, {nf} faces");

    // The paper's parallel algorithm (PCT + persistent prefix profiles),
    // viewed from x = +∞.
    let report = scene
        .eval(&View::orthographic(0.0))
        .expect("terrain input is acyclic");
    println!(
        "visible image: {} pieces, {} crossings  (output size k = {})",
        report.vis.pieces.len(),
        report.vis.crossings.len(),
        report.k
    );
    println!(
        "timings: order {:.1} ms | phase 1 {:.1} ms | phase 2 {:.1} ms | total {:.1} ms",
        report.timings.order_s * 1e3,
        report.timings.phase1_s * 1e3,
        report.timings.phase2_s * 1e3,
        report.timings.total_s * 1e3,
    );

    // Cross-check against the sequential Reif–Sen baseline: same view,
    // different algorithm — one builder call away.
    let seq = scene
        .eval(&View::orthographic(0.0).algorithm(Algorithm::Sequential))
        .unwrap();
    println!(
        "sequential baseline: k = {}, agreement = {:.6}",
        seq.k,
        report.vis.agreement(&seq.vis)
    );

    // The output is device independent: render it to SVG.
    let svg = terrain_hsr::render::visibility_svg(&report.vis, 800.0);
    let path = std::env::temp_dir().join("hsr_quickstart.svg");
    std::fs::write(&path, svg).expect("write svg");
    println!("wrote {}", path.display());
}
