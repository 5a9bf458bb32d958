//! E8 — data-oriented hot paths vs the legacy scalar kernels (ISSUE 8).
//!
//! Head-to-head on the three refactored layers, with **bit-identical
//! output asserted on every rep** before a timing is accepted:
//!
//! 1. phase-1 envelope build: `from_pieces_legacy` (AoS sort + scalar
//!    `relate`) vs `Envelope::from_pieces` (columnar merge tree with the
//!    batched interval-filtered classifier);
//! 2. pairwise merge of two prebuilt envelopes, same two kernels;
//! 3. viewshed point classification: `classify_points_legacy` (vertex
//!    chasing + `BTreeMap` profile) vs `classify_points` (coefficient
//!    columns + arena treap).
//!
//! Also reports the interval-filter hit rate from the evaluation's own
//! cost counters and, with `--json`, writes the per-workload reports to
//! `BENCH_hotpath.json`.
//!
//! The binary doubles as the observability overhead gate: per workload,
//! the recording path the server runs for each traced request — build
//! the span tree with `evaluate_span`, one histogram sample, one
//! trace-ring write — is timed on its own, interleaved with plain
//! evaluations, and its best time must stay within 2% of the plain
//! evaluation's best. `--json` writes the comparison to
//! `BENCH_obs.json`.
//!
//! ```sh
//! cargo run --release -p hsr-bench --bin exp_hotpath [-- --quick --json]
//! ```

use hsr_bench::harness::{md_table, reports_json, time_best};
use hsr_core::envelope::{from_pieces_legacy, merge_pieces_legacy, Envelope, Piece};
use hsr_core::order::depth_order;
use hsr_core::project_edges;
use hsr_core::view::{evaluate, evaluate_span, Report, View};
use hsr_core::viewshed::{classify_points, classify_points_legacy};
use hsr_geometry::Point3;
use hsr_obs::{Recorder, RecorderConfig, TraceRecord};
use hsr_pram::cost::Category;
use hsr_terrain::gen::Workload;

fn assert_same_pieces(a: &[Piece], b: &[Piece], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: piece count");
    for (p, q) in a.iter().zip(b) {
        let same = p.edge == q.edge
            && p.x0.to_bits() == q.x0.to_bits()
            && p.x1.to_bits() == q.x1.to_bits()
            && p.z0.to_bits() == q.z0.to_bits()
            && p.z1.to_bits() == q.z1.to_bits();
        assert!(same, "{what}: verdict drift ({p:?} vs {q:?})");
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 48 } else { 112 };
    let reps = if quick { 2 } else { 5 };
    let workloads = [
        Workload::Fbm { nx: side, ny: side, seed: 1 },
        Workload::Ridges { nx: side, ny: side, ridges: 8, seed: 2 },
        Workload::Comb { m: if quick { 48 } else { 112 } },
    ];
    let mut kept: Vec<(String, Report)> = Vec::new();
    let mut rows = Vec::new();
    let mut cmp_json = Vec::new();

    // Overhead gate: one recorder shared across workloads, the histogram
    // `Arc` fetched once — exactly how the server holds them.
    let recorder = Recorder::new(RecorderConfig::default());
    let obs_hist = recorder.hist("evaluate");
    let mut obs_rows = Vec::new();
    let mut obs_json = Vec::new();

    for w in workloads {
        let tin = w.build();
        let edges = project_edges(&tin);
        let order = depth_order(&tin).expect("acyclic workload");
        let pieces: Vec<Piece> = edges.iter().filter_map(|e| e.piece()).collect();
        println!("## E8 — {} (n = {} pieces)", w.name(), pieces.len());

        // Layer 1: divide-and-conquer envelope build. Equality is checked
        // once up front; the timed closures run the bare kernels.
        let want = from_pieces_legacy(&pieces);
        assert_same_pieces(&Envelope::from_pieces(&pieces).to_pieces(), &want, "from_pieces");
        let t_build_legacy = time_best(reps, || from_pieces_legacy(&pieces).len());
        let t_build_soa = time_best(reps, || Envelope::from_pieces(&pieces).size());

        // Layer 2: pairwise merge of two halves of the scene.
        let (lo, hi) = pieces.split_at(pieces.len() / 2);
        let (ea, eb) = (Envelope::from_pieces(lo), Envelope::from_pieces(hi));
        let (pa, pb) = (ea.to_pieces(), eb.to_pieces());
        let want_m = merge_pieces_legacy(&pa, &pb);
        assert_same_pieces(&Envelope::merge(&ea, &eb).to_pieces(), &want_m, "merge");
        let t_merge_legacy = time_best(reps, || merge_pieces_legacy(&pa, &pb).len());
        let t_merge_soa = time_best(reps, || Envelope::merge(&ea, &eb).size());

        // Layer 3: viewshed classification over a query grid.
        let (glo, ghi) = tin.ground_bounds();
        let (_, zhi) = tin.height_range();
        let q_side = if quick { 12 } else { 24 };
        let queries: Vec<Point3> = (0..q_side * q_side)
            .map(|i| {
                let (ix, iy) = (i % q_side, i / q_side);
                Point3::new(
                    glo.x + (ix as f64 + 0.5) / q_side as f64 * (ghi.x - glo.x),
                    glo.y + (iy as f64 + 0.5) / q_side as f64 * (ghi.y - glo.y),
                    0.35 * zhi,
                )
            })
            .collect();
        let want_v = classify_points_legacy(&tin, &edges, &order, &queries);
        assert_eq!(classify_points(&tin, &edges, &order, &queries), want_v, "viewshed verdicts");
        let t_view_legacy =
            time_best(reps, || classify_points_legacy(&tin, &edges, &order, &queries).len());
        let t_view_soa = time_best(reps, || classify_points(&tin, &edges, &order, &queries).len());

        // End-to-end pipeline + filter hit rate from its own counters.
        let t_eval = time_best(reps, || evaluate(&tin, &View::orthographic(0.0)).unwrap().k);
        let res = evaluate(&tin, &View::orthographic(0.0)).unwrap();
        println!(
            "stage timings: order {:.2} ms, phase1 {:.2} ms, phase2 {:.2} ms",
            res.timings.order_s * 1e3,
            res.timings.phase1_s * 1e3,
            res.timings.phase2_s * 1e3
        );
        let filtered = res.cost.work_of(Category::PredicateFilter);
        let exact = res.cost.work_of(Category::PredicateExact);
        let hit = filtered as f64 / (filtered + exact).max(1) as f64;

        // The recording path must be invisible next to the evaluation.
        // It is timed on its own, right after each plain evaluation
        // whose report it records, and the two are compared best vs
        // best. Timing the recording path alone keeps the host's
        // speed-state swings (one op runs ~1.6× apart between states)
        // out of a difference of two end-to-end timings.
        let view = View::orthographic(0.0);
        let (mut t_plain, mut t_record) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps.max(7) {
            let t = std::time::Instant::now();
            let report = evaluate(&tin, &view).unwrap();
            t_plain = t_plain.min(t.elapsed().as_secs_f64());
            let t = std::time::Instant::now();
            let root = evaluate_span(&report);
            obs_hist.record(root.dur_ns);
            recorder.record_trace(TraceRecord { id: 0, terrain: w.name(), root });
            t_record = t_record.min(t.elapsed().as_secs_f64());
            std::hint::black_box(report.k);
        }
        let overhead = t_record / t_plain;
        assert!(
            t_record <= t_plain * 0.02,
            "{}: recording costs more than 2% of an evaluation: plain {:.3} ms, record {:.4} ms",
            w.name(),
            t_plain * 1e3,
            t_record * 1e3,
        );
        obs_rows.push(vec![
            w.name(),
            format!("{:.2}", t_plain * 1e3),
            format!("{:.4}", t_record * 1e3),
            format!("{:.3}%", overhead * 100.0),
        ]);
        obs_json.push(format!(
            concat!(
                "{{\"workload\":\"{}\",\"plain_ms\":{:.4},\"record_ms\":{:.5},",
                "\"overhead\":{:.6}}}"
            ),
            w.name(),
            t_plain * 1e3,
            t_record * 1e3,
            overhead,
        ));

        rows.push(vec![
            w.name(),
            format!("{:.2}", t_build_legacy * 1e3),
            format!("{:.2}", t_build_soa * 1e3),
            format!("{:.2}×", t_build_legacy / t_build_soa),
            format!("{:.2}", t_merge_legacy * 1e3),
            format!("{:.2}", t_merge_soa * 1e3),
            format!("{:.2}×", t_merge_legacy / t_merge_soa),
            format!("{:.2}", t_view_legacy * 1e3),
            format!("{:.2}", t_view_soa * 1e3),
            format!("{:.2}×", t_view_legacy / t_view_soa),
            format!("{:.2}", t_eval * 1e3),
            format!("{:.0}%", hit * 100.0),
        ]);
        cmp_json.push(format!(
            concat!(
                "{{\"workload\":\"{}\",\"n_pieces\":{},\"k\":{},",
                "\"build_legacy_ms\":{:.3},\"build_soa_ms\":{:.3},",
                "\"merge_legacy_ms\":{:.3},\"merge_soa_ms\":{:.3},",
                "\"viewshed_legacy_ms\":{:.3},\"viewshed_soa_ms\":{:.3},",
                "\"evaluate_ms\":{:.3},\"filter_hit_rate\":{:.4}}}"
            ),
            w.name(),
            pieces.len(),
            res.k,
            t_build_legacy * 1e3,
            t_build_soa * 1e3,
            t_merge_legacy * 1e3,
            t_merge_soa * 1e3,
            t_view_legacy * 1e3,
            t_view_soa * 1e3,
            t_eval * 1e3,
            hit,
        ));
        kept.push((w.name(), res));
    }

    md_table(
        &[
            "workload",
            "build legacy ms",
            "build SoA ms",
            "build ×",
            "merge legacy ms",
            "merge SoA ms",
            "merge ×",
            "viewshed legacy ms",
            "viewshed SoA ms",
            "viewshed ×",
            "evaluate ms",
            "filter hit",
        ],
        &rows,
    );
    println!("\nAll verdicts bit-identical between legacy and data-oriented kernels.");

    println!("## E9 — observability overhead (span build + histogram + trace ring)");
    md_table(&["workload", "plain ms", "record ms", "overhead"], &obs_rows);
    let obs_snap = recorder.snapshot();
    println!(
        "recorder after the run: {} evaluate samples, {} traces resident\n",
        obs_snap.hist("evaluate").map_or(0, |h| h.total),
        obs_snap.recent.len(),
    );

    // Unlike the plain report dumps of the other binaries, the hotpath
    // artifact leads with the legacy-vs-data-oriented comparison itself
    // (the legacy kernels are the pre-refactor implementations, kept as
    // differential references).
    if std::env::args().any(|a| a == "--json") {
        let out = format!(
            "{{\"bit_identical\":true,\"kernel_comparison\":[{}],\"reports\":{}}}",
            cmp_json.join(","),
            reports_json(&kept),
        );
        std::fs::write("BENCH_hotpath.json", out).expect("write bench json");
        println!("(wrote BENCH_hotpath.json)");
        // The overhead artifact: the recording path's best time against
        // the plain evaluation's, per workload, bounded at 2%.
        let obs_out = format!(
            "{{\"bound\":\"record <= plain * 0.02\",\"overhead\":[{}]}}",
            obs_json.join(","),
        );
        std::fs::write("BENCH_obs.json", obs_out).expect("write obs json");
        println!("(wrote BENCH_obs.json)");
    }
}
