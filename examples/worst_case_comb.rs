//! The Ω(n²) adversary: a comb of teeth in front of rising ridges makes
//! the *visible image* quadratically larger than the terrain. This is the
//! case the paper's title is about — an output-size sensitive algorithm
//! must pay for `k`, and only for `k`.
//!
//! ```sh
//! cargo run --release --example worst_case_comb
//! ```

use std::time::Instant;
use terrain_hsr::terrain::gen;
use terrain_hsr::{Algorithm, Phase2Mode, Scene, View};

fn main() {
    println!(
        "| m (teeth) | n (edges) | k (output) | k/n | parallel ms | sequential ms | naive ms |"
    );
    println!("|---|---|---|---|---|---|---|");
    for m in [8usize, 16, 32, 64] {
        let scene = Scene::from_tin(gen::quadratic_comb(m));
        let (_, n_edges, _) = scene.counts();

        let t = Instant::now();
        let par = scene
            .eval(&View::orthographic(0.0).phase2(Phase2Mode::Persistent))
            .unwrap();
        let t_par = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let seq = scene
            .eval(&View::orthographic(0.0).algorithm(Algorithm::Sequential))
            .unwrap();
        let t_seq = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let naive = scene
            .eval(&View::orthographic(0.0).algorithm(Algorithm::Naive))
            .unwrap();
        let t_naive = t.elapsed().as_secs_f64() * 1e3;

        assert!(par.vis.agreement(&seq.vis) > 0.999);
        assert!(par.vis.agreement(&naive.vis) > 0.999);

        println!(
            "| {m} | {} | {} | {:.1} | {t_par:.1} | {t_seq:.1} | {t_naive:.1} |",
            n_edges,
            par.k,
            par.k as f64 / n_edges as f64,
        );
    }
    println!();
    println!("k grows quadratically in m while n grows linearly: the image is");
    println!("asymptotically larger than the scene, and every algorithm must pay");
    println!("at least k — output sensitivity means paying little more than that.");
}
