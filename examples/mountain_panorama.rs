//! Mountain panorama: a realistic-scale fractal range rendered two ways —
//! the object-space visibility map (SVG, resolution independent) and the
//! image-space z-buffer (PPM, the device-dependent contrast from the
//! paper's introduction).
//!
//! ```sh
//! cargo run --release --example mountain_panorama
//! ```

use std::time::Instant;
use terrain_hsr::terrain::gen;
use terrain_hsr::{Scene, View};

fn main() {
    let n = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(160usize);
    println!("generating a {n}×{n} fractal range…");
    let grid = gen::fbm(n, n, 6, 18.0, 7);
    let scene = Scene::from_grid(&grid).expect("valid terrain");
    let (nv, ne, nf) = scene.counts();
    println!("terrain: {nv} vertices, {ne} edges, {nf} faces");

    let t = Instant::now();
    let report = scene.eval(&View::orthographic(0.0)).expect("acyclic");
    println!(
        "object-space HSR: k = {} in {:.0} ms ({} pieces, {} crossings)",
        report.k,
        t.elapsed().as_secs_f64() * 1e3,
        report.vis.pieces.len(),
        report.vis.crossings.len()
    );
    let total_projected_width: f64 = scene
        .tin()
        .edges()
        .iter()
        .map(|&[a, b]| {
            let va = scene.tin().vertices()[a as usize];
            let vb = scene.tin().vertices()[b as usize];
            (vb.y - va.y).abs()
        })
        .sum();
    println!(
        "visible fraction of total projected edge width: {:.1}%",
        100.0 * report.vis.total_visible_width() / total_projected_width.max(1e-9)
    );

    let svg = terrain_hsr::render::visibility_svg(&report.vis, 1200.0);
    let svg_path = std::env::temp_dir().join("hsr_panorama.svg");
    std::fs::write(&svg_path, svg).expect("write svg");
    println!("object-space rendering: {}", svg_path.display());

    let t = Instant::now();
    let ppm = terrain_hsr::render::zbuffer_ppm(scene.tin(), 1024);
    let ppm_path = std::env::temp_dir().join("hsr_panorama_depth.ppm");
    std::fs::write(&ppm_path, ppm).expect("write ppm");
    println!(
        "image-space z-buffer at 1024 px took {:.0} ms: {}",
        t.elapsed().as_secs_f64() * 1e3,
        ppm_path.display()
    );
    println!("note: the SVG re-renders losslessly at any resolution; the PPM does not.");
}
