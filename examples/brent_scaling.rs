//! The PRAM lens: measure the algorithm's work and depth with the cost
//! model, calibrate the Brent slow-down prediction (the paper's Lemma
//! 2.1), and compare predicted against measured wall-clock speedups.
//!
//! ```sh
//! cargo run --release --example brent_scaling
//! ```

use std::time::Instant;
use terrain_hsr::pram::{with_threads, BrentModel};
use terrain_hsr::terrain::gen;
use terrain_hsr::{Scene, View};

fn main() {
    let grid = gen::fbm(128, 128, 5, 14.0, 3);
    let scene = Scene::from_grid(&grid).expect("valid terrain");
    let (_, n_edges, _) = scene.counts();

    // Measure work and depth once; the evaluation's report carries its
    // own scoped counters (nothing global, nothing to reset).
    let report = scene.eval(&View::orthographic(0.0)).expect("acyclic");
    let (work, depth) = (report.cost.total_work(), report.cost.total_depth());
    println!(
        "n = {n_edges}, k = {}: measured work = {work} tasks, structural depth = {depth}",
        report.k
    );

    let max_p = terrain_hsr::pram::pool::max_threads();
    let time_at = |p: usize| {
        with_threads(p, || {
            let t = Instant::now();
            let r = scene.eval(&View::orthographic(0.0)).expect("acyclic");
            std::hint::black_box(r.k);
            t.elapsed().as_secs_f64()
        })
    };
    // Warm up, then calibrate on 1 and max threads.
    let _ = time_at(max_p);
    let t1 = time_at(1);
    let tp = time_at(max_p);
    let model = BrentModel::calibrate(work, depth, t1, max_p, tp);

    println!("Brent model: T_p = {:.3e}·W/p + {:.3e}·D seconds", model.cw, model.cd);
    println!("| threads | measured ms | predicted ms | speedup | predicted speedup |");
    println!("|---|---|---|---|---|");
    let mut p = 1;
    while p <= max_p {
        let t = time_at(p);
        println!(
            "| {p} | {:.1} | {:.1} | {:.2}× | {:.2}× |",
            t * 1e3,
            model.predict(p) * 1e3,
            t1 / t,
            model.predicted_speedup(p),
        );
        p *= 2;
    }
    println!();
    println!("speedup ceiling implied by the critical path: {:.1}×", model.speedup_ceiling());
}
