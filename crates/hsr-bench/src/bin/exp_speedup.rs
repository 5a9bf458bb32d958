//! E3 — parallel speedup vs the Brent slow-down prediction (Lemmas
//! 2.1/2.2).
//!
//! For each workload: measure work `W` and depth `D` once, calibrate
//! `T_p = cw·W/p + cd·D`, then sweep the thread count and compare measured
//! wall time against the model. Beside the self-relative speedup each row
//! gives Parallel ÷ Sequential: the parallel time over the sequential
//! Reif–Sen baseline's single-thread wall time on the same input.
//!
//! ```sh
//! cargo run --release -p hsr-bench --bin exp_speedup [-- --json]
//! ```

use hsr_bench::harness::{maybe_write_reports, md_table, time_best};
use hsr_core::view::{evaluate, Report, View};
use hsr_core::Algorithm;
use hsr_pram::merge::par_merge;
use hsr_pram::pool::{max_threads, with_threads};
use hsr_pram::{BrentModel, CostCollector};
use hsr_terrain::gen::Workload;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 64 } else { 128 };
    let workloads = [
        Workload::Fbm { nx: side, ny: side, seed: 1 },
        Workload::Ridges { nx: side, ny: side, ridges: 8, seed: 2 },
        Workload::Comb { m: if quick { 64 } else { 128 } },
    ];
    let max_p = max_threads();
    let mut kept: Vec<(String, Report)> = Vec::new();

    for w in workloads {
        let tin = w.build();
        println!("## E3 — {} (n = {})", w.name(), tin.edges().len());

        // Work/depth come from the evaluation's own scoped report — no
        // global counter reset, no bleed from anything else running.
        let res = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        let (work, depth) = (res.cost.total_work(), res.cost.total_depth());
        println!("k = {}, work = {work}, depth = {depth}", res.k);
        kept.push((w.name(), res));

        let reps = if quick { 1 } else { 2 };
        let measure = |p: usize| {
            with_threads(p, || {
                time_best(reps, || evaluate(&tin, &View::orthographic(0.0)).unwrap().k)
            })
        };
        let sequential = View::orthographic(0.0).algorithm(Algorithm::Sequential);
        let t_seq = with_threads(1, || time_best(reps, || evaluate(&tin, &sequential).unwrap().k));
        println!("Sequential (1 thread): {:.1} ms", t_seq * 1e3);
        let t1 = measure(1);
        let tp = measure(max_p);
        let model = BrentModel::calibrate(work, depth, t1, max_p, tp);

        let mut rows = Vec::new();
        let mut p = 1;
        while p <= max_p {
            let t = measure(p);
            rows.push(vec![
                p.to_string(),
                format!("{:.1}", t * 1e3),
                format!("{:.1}", model.predict(p) * 1e3),
                format!("{:.2}", t1 / t),
                format!("{:.2}", model.predicted_speedup(p)),
                format!("{:.2}", t / t_seq),
            ]);
            p *= 2;
        }
        md_table(
            &[
                "threads",
                "measured ms",
                "Brent ms",
                "speedup",
                "Brent speedup",
                "Parallel ÷ Sequential",
            ],
            &rows,
        );
        println!("speedup ceiling (critical path): {:.1}×\n", model.speedup_ceiling());
    }

    // Scoped-counter overhead: the same parallel merge timed on the
    // uninstrumented fast path (no collector installed — counting is a
    // thread-local read and nothing else) vs under a scoped collector.
    // Before the collector rewrite every relaxed add hit process-global
    // cache lines from all worker threads at once; now instrumentation is
    // opt-in per measurement.
    let m = if quick { 400_000u64 } else { 2_000_000 };
    let a: Vec<u64> = (0..m).map(|i| i * 2).collect();
    let b: Vec<u64> = (0..m).map(|i| i * 2 + 1).collect();
    let reps = if quick { 2 } else { 5 };
    let t_off = time_best(reps, || par_merge(&a, &b).len());
    let t_on = time_best(reps, || {
        let c = CostCollector::new();
        let _g = c.install();
        par_merge(&a, &b).len()
    });
    println!("## Scoped cost accounting — instrumentation overhead");
    md_table(
        &[
            "par_merge items",
            "uninstrumented ms",
            "collector ms",
            "overhead",
        ],
        &[vec![
            (2 * m).to_string(),
            format!("{:.2}", t_off * 1e3),
            format!("{:.2}", t_on * 1e3),
            format!("{:+.1}%", (t_on / t_off - 1.0) * 100.0),
        ]],
    );

    maybe_write_reports("speedup", &kept);
}
