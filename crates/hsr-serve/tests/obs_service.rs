//! Observability over the serving stack (ISSUE 9): the wire `Metrics`
//! verb, per-request span trees whose stages account for the request's
//! wall-clock (ping-pong and a coalesced pipelined burst), histogram
//! totals matching the serve counters, slow-ring capture, and the
//! torn-snapshot regression for `ServeStats`.

use hsr_core::pipeline::Algorithm;
use hsr_core::view::View;
use hsr_geometry::Point3;
use hsr_serve::{
    Client, ErrorKind, Recorder, RecorderConfig, Request, Response, ServerBuilder, TerrainSource,
};
use hsr_terrain::gen;
use std::io::{BufRead as _, BufReader, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn metrics_over_the_wire_capture_spans_and_histograms() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(28, 28, 4, 9.0, 7)))
        .observe(RecorderConfig::default())
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..12 {
        client
            .eval("t", &View::orthographic(0.02 * i as f64))
            .unwrap();
    }
    // One failing request: unknown terrains travel the full traced path
    // and must land in the same histograms as successes.
    let err = client.eval("nope", &View::orthographic(0.0)).unwrap_err();
    let hsr_serve::ClientError::Server(err) = err else {
        panic!("expected a server-side error, got {err:?}");
    };
    assert_eq!(err.kind, ErrorKind::UnknownTerrain);

    // A request's histogram samples and span tree land *after* its
    // response is enqueued (the respond stage must be timed), so a
    // scrape racing the final response can lag by one in-flight
    // finalize. Settle briefly before asserting exact totals.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let snap = loop {
        let snap = client.metrics().unwrap();
        let settled =
            snap.hist("request").map(|h| h.total) == Some(13) && snap.traces_recorded == 13;
        if settled || std::time::Instant::now() > deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(snap.enabled);
    let stats = server.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed, 1);

    // Every served (completed or failed) request is exactly one sample
    // in the end-to-end histogram and in each per-stage histogram.
    let request = snap.hist("request").expect("request histogram exists");
    assert_eq!(request.total, stats.completed + stats.failed);
    assert!(request.mean_ns() > 0);
    for stage in ["parse", "queue_wait", "coalesce", "evaluate", "respond"] {
        assert_eq!(snap.hist(stage).map(|h| h.total), Some(13), "stage {stage}");
    }
    let hits = snap.hist("lookup_hit").map(|h| h.total).unwrap_or(0);
    let prepares = snap.hist("lookup_prepare").map(|h| h.total).unwrap_or(0);
    assert_eq!(hits + prepares, 13, "every request took exactly one lookup path");
    assert!(prepares >= 1, "the first request must have prepared the scene");

    // The prepared-scene cache mirrors its outcomes as events.
    assert_eq!(snap.event("scene_hit") + snap.event("scene_load"), 12);
    assert_eq!(snap.event("scene_error"), 1);

    // Span trees: stages tile the request interval, and their sum
    // accounts for the end-to-end latency (the ISSUE 9 5% acceptance).
    assert_eq!(snap.traces_recorded, 13);
    assert_eq!(snap.traces_dropped, 0);
    assert!(!snap.recent.is_empty());
    for trace in &snap.recent {
        assert_eq!(trace.root.name, "request");
        let sum = trace.root.stage_sum_ns();
        assert!(sum <= trace.root.dur_ns, "stages are disjoint sub-intervals");
        assert!(
            sum as f64 >= 0.95 * trace.root.dur_ns as f64,
            "stages must account for ≥95% of the request: {sum} of {} ns (id {})",
            trace.root.dur_ns,
            trace.id,
        );
        let evaluate = trace
            .root
            .children
            .iter()
            .find(|c| c.name == "evaluate")
            .expect("every request has an evaluate stage");
        if trace.terrain == "t" {
            // Successful evals graft the pipeline-phase children and
            // the per-report cost counters under the evaluate stage.
            assert_eq!(
                evaluate
                    .children
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>(),
                ["order", "phase1", "phase2"]
            );
            assert!(evaluate.work > 0, "Brent work attribution rides the span");
        } else {
            assert_eq!(trace.terrain, "nope");
            assert!(evaluate.children.is_empty());
        }
    }

    // The pre-existing Stats verb answers unchanged alongside Metrics.
    let stats_over_wire = client.stats().unwrap();
    assert_eq!(stats_over_wire.serve, stats);

    // A pipelined burst of viewsheds in one write coalesces into one
    // group. Job k's answer waits while the worker answers jobs
    // 1..k−1, and its stages must account for that time too. The
    // Sequential engine keeps the group's evaluation short next to
    // those answers.
    let burst_ids = 101..106u64;
    let mut burst = String::new();
    for id in burst_ids.clone() {
        let observer = Point3::new(40.0 + id as f64, 14.0, 12.0);
        let view = View::viewshed(observer, vec![Point3::new(6.5, 9.5, 3.0)])
            .algorithm(Algorithm::Sequential);
        burst += &serde_json::to_string(&Request::eval(id, "t", view)).unwrap();
        burst.push('\n');
    }
    let before = server.stats();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for _ in burst_ids.clone() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(burst_ids.contains(&response.id));
        response.into_result().unwrap();
    }
    assert_eq!(server.stats().batches - before.batches, 1, "one burst, one group");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let snap = loop {
        let snap = client.metrics().unwrap();
        if snap.traces_recorded == 18 || std::time::Instant::now() > deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let traces: Vec<_> = snap
        .recent
        .iter()
        .filter(|t| burst_ids.contains(&t.id))
        .collect();
    assert_eq!(traces.len(), 5);
    for trace in traces {
        let sum = trace.root.stage_sum_ns();
        assert!(sum <= trace.root.dur_ns, "stages are disjoint sub-intervals");
        assert!(
            sum as f64 >= 0.95 * trace.root.dur_ns as f64,
            "burst stages must account for ≥95% of the request: {sum} of {} ns (id {})",
            trace.root.dur_ns,
            trace.id,
        );
    }
    server.shutdown();
}

#[test]
fn zero_slow_threshold_captures_every_trace_in_the_slow_ring() {
    let recorder = Arc::new(Recorder::new(RecorderConfig {
        slow_threshold: Duration::ZERO,
        ..RecorderConfig::default()
    }));
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(20, 20, 3, 8.0, 5)))
        .recorder(Arc::clone(&recorder))
        .bind("127.0.0.1:0")
        .unwrap();
    assert!(server.recorder().is_some());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..5 {
        client
            .eval("t", &View::orthographic(0.05 * i as f64))
            .unwrap();
    }
    // Threshold zero classifies every request as slow: captured in the
    // slow ring *and* the recent ring. (Traces land just after the
    // response is enqueued — settle briefly.)
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let snap = loop {
        let snap = recorder.snapshot();
        if snap.traces_recorded == 5 || std::time::Instant::now() > deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(snap.slow.len(), 5);
    assert_eq!(snap.recent.len(), 5);
    assert_eq!(snap.slow_threshold_ns, 0);
    server.shutdown();
}

#[test]
fn recorderless_server_answers_disabled_metrics() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(16, 16, 3, 8.0, 3)))
        .bind("127.0.0.1:0")
        .unwrap();
    assert!(server.recorder().is_none());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.eval("t", &View::orthographic(0.1)).unwrap();
    let snap = client.metrics().unwrap();
    assert!(!snap.enabled);
    assert!(snap.hists.is_empty());
    assert!(snap.recent.is_empty() && snap.slow.is_empty());
    server.shutdown();
}

/// The ISSUE 9 torn-snapshot regression, serve side: hammer the server
/// from several connections while a reader polls `Server::stats`, and
/// require the documented causal inequalities in *every* snapshot plus
/// exact closure at quiescence.
#[test]
fn serve_stats_invariants_hold_in_every_snapshot_under_load() {
    let server = Arc::new(
        ServerBuilder::new()
            .terrain("t", TerrainSource::Grid(gen::fbm(16, 16, 3, 8.0, 3)))
            .workers(2)
            .queue_depth(1024)
            .bind("127.0.0.1:0")
            .unwrap(),
    );
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut prev = server.stats();
            let mut samples = 0u64;
            while !done.load(Ordering::Acquire) {
                let s = server.stats();
                assert!(
                    s.completed + s.failed <= s.batched_requests,
                    "outcomes visible before their dispatch: {s:?}"
                );
                assert!(
                    s.batched_requests <= s.admitted,
                    "dispatch visible before its admission: {s:?}"
                );
                assert!(
                    s.admitted >= prev.admitted
                        && s.completed >= prev.completed
                        && s.failed >= prev.failed
                        && s.batched_requests >= prev.batched_requests,
                    "counters regressed: {prev:?} -> {s:?}"
                );
                prev = s;
                samples += 1;
            }
            assert!(samples > 0);
        })
    };

    let writers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let views: Vec<View> = (0..40)
                    .map(|i| View::orthographic(0.01 * (w * 40 + i) as f64))
                    .collect();
                for result in client.eval_pipelined("t", &views).unwrap() {
                    result.unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    reader.join().unwrap();

    // Quiescent: every admitted request was dispatched and answered.
    let s = server.stats();
    assert_eq!(s.completed, 160);
    assert_eq!(s.failed, 0);
    assert_eq!(s.batched_requests, s.admitted);
    assert_eq!(s.completed + s.failed, s.admitted);
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server still shared"));
    server.shutdown();
}
