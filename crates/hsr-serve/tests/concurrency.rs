//! Concurrency behavior of the service: documented backpressure, the
//! capacity-1 prepared-scene LRU under terrain alternation, coalesced
//! batches matching solo evaluations counter for counter, a pipelined
//! burst coalescing into one group, shutdown answering every queued
//! job, and the tile-cache stats invariant on the tiled backend.

use hsr_core::pipeline::Algorithm;
use hsr_core::view::{evaluate, Report, View};
use hsr_geometry::Point3;
use hsr_serve::{Client, ErrorKind, Request, Response, ServerBuilder, TerrainSource};
use hsr_terrain::gen;
use hsr_tile::{TileStore, TiledScene, TiledSceneConfig, TilingConfig};
use std::time::{Duration, Instant};

fn fingerprint(r: &Report) -> (Vec<(u32, u64, u64)>, usize, usize) {
    (
        r.vis
            .pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits()))
            .collect(),
        r.n,
        r.k,
    )
}

#[test]
fn bounded_queue_rejects_with_overloaded_when_full() {
    let grid = gen::ridge_field(22, 22, 3, 9.0, 11);
    let tin = grid.to_tin().unwrap();
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid))
        .workers(1)
        .queue_depth(1)
        .max_batch(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Occupy the single worker with an O(n²) naive evaluation…
    let slow_view = View::orthographic(0.0).algorithm(Algorithm::Naive);
    let slow = {
        let view = slow_view.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.eval("t", &view)
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // …then flood far past the queue depth while it grinds.
    let mut flood = Client::connect(addr).unwrap();
    let views: Vec<View> = (0..40)
        .map(|i| View::orthographic(0.01 * i as f64))
        .collect();
    let results = flood.eval_pipelined("t", &views).unwrap();

    // Every request got exactly one answer; the overflow was rejected
    // immediately with the documented error, not buffered or dropped.
    assert_eq!(results.len(), 40);
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(e) if e.kind == ErrorKind::Overloaded))
        .count();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok + rejected, 40, "only Overloaded errors are acceptable: {results:?}");
    assert!(rejected > 0, "the flood must overflow a depth-1 queue");
    assert!(ok > 0, "the queued request must still complete");

    let slow_report = slow.join().unwrap().unwrap();
    assert_eq!(fingerprint(&slow_report), fingerprint(&evaluate(&tin, &slow_view).unwrap()));

    let stats = server.stats();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed, ok as u64 + 1); // + the slow request
    drop(flood);
    server.shutdown();
}

#[test]
fn capacity_one_scene_lru_serves_alternating_terrains() {
    let grid_a = gen::fbm(14, 14, 3, 7.0, 3);
    let grid_b = gen::gaussian_hills(14, 14, 3, 8);
    let tin_a = grid_a.to_tin().unwrap();
    let tin_b = grid_b.to_tin().unwrap();
    let server = ServerBuilder::new()
        .terrain("a", TerrainSource::Grid(grid_a))
        .terrain("b", TerrainSource::Grid(grid_b))
        .scene_capacity(1)
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // N clients × 2 terrains, racing against the capacity-1 LRU.
    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut out = Vec::new();
                for round in 0..3 {
                    let az = 0.1 * (c * 3 + round) as f64;
                    let terrain = if (c + round) % 2 == 0 { "a" } else { "b" };
                    out.push((terrain, az, client.eval(terrain, &View::orthographic(az)).unwrap()));
                }
                out
            })
        })
        .collect();
    for handle in handles {
        for (terrain, az, report) in handle.join().unwrap() {
            let tin = if terrain == "a" { &tin_a } else { &tin_b };
            let solo = evaluate(tin, &View::orthographic(az)).unwrap();
            assert_eq!(fingerprint(&report), fingerprint(&solo), "{terrain} az {az}");
        }
    }

    let prepared = server.prepared_stats();
    assert_eq!(prepared.peak_resident, 1, "the LRU must never retain more than one scene");
    assert!(prepared.evictions > 0, "alternating terrains must evict under capacity 1");
    assert_eq!(prepared.hits + prepared.loads + prepared.errors, prepared.lookups);
    server.shutdown();
}

#[test]
fn coalesced_batches_match_solo_evaluation_counter_for_counter() {
    let grid = gen::ridge_field(16, 14, 3, 8.0, 23);
    let tin = grid.to_tin().unwrap();
    let (lo, hi) = tin.ground_bounds();
    let observer = Point3::new(hi.x + 40.0, 0.5 * (lo.y + hi.y), 12.0);
    // A single worker: whatever of the pipelined batch below queues up
    // while it evaluates is taken as one group.
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid))
        .workers(1)
        .max_batch(8)
        .bind("127.0.0.1:0")
        .unwrap();

    let views: Vec<View> = (0..6)
        .map(|i| View::orthographic(0.15 * i as f64))
        .chain(std::iter::once(View::viewshed(
            observer,
            vec![Point3::new(0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y), 60.0)],
        )))
        .collect();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let results = client.eval_pipelined("t", &views).unwrap();

    for (view, result) in views.iter().zip(&results) {
        let got = result.as_ref().unwrap();
        let solo = evaluate(&tin, view).unwrap();
        assert_eq!(fingerprint(got), fingerprint(&solo));
        assert_eq!(got.verdicts, solo.verdicts);
        // The per-request cost counters are exact — bit-identical to a
        // solo evaluation — no matter how the batch was coalesced
        // (scoped collectors, PR 3).
        assert_eq!(got.cost.work, solo.cost.work);
        assert_eq!(got.cost.depth, solo.cost.depth);
    }

    let stats = server.stats();
    assert!(
        stats.max_batch_observed >= 2,
        "pipelined same-terrain requests queued behind a busy worker must coalesce, got {stats:?}"
    );
    assert_eq!(stats.batched_requests, stats.admitted);
    server.shutdown();
}

/// A pipelined burst that reaches the server in one write is admitted
/// under one lock acquisition, so a worker takes it as one group with
/// no batching timer: the shape of a client pipelining viewsheds.
#[test]
fn pipelined_burst_in_one_write_forms_one_group() {
    let grid = gen::diamond_square(5, 0.6, 9.0, 29); // 33×33
    let tin = grid.to_tin().unwrap();
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid))
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let views: Vec<View> = (0..5)
        .map(|i| {
            let observer = Point3::new(60.0 + 10.0 * i as f64, 16.0, 15.0);
            View::viewshed(
                observer,
                vec![Point3::new(8.37, 9.53, 4.0), Point3::new(20.1, 4.2, 3.0)],
            )
        })
        .collect();
    let mut burst = String::new();
    for (i, view) in views.iter().enumerate() {
        burst += &serde_json::to_string(&Request::eval(i as u64 + 1, "t", view.clone())).unwrap();
        burst.push('\n');
    }
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let before = server.stats();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut answered = vec![None; views.len()];
    for _ in 0..views.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(line.trim()).unwrap();
        let slot = (response.id - 1) as usize;
        answered[slot] = Some(response.into_result().unwrap());
    }
    for (view, got) in views.iter().zip(&answered) {
        let got = got.as_ref().expect("every id answered once");
        assert_eq!(got.verdicts, evaluate(&tin, view).unwrap().verdicts);
    }

    let after = server.stats();
    assert_eq!(after.admitted - before.admitted, 5);
    assert_eq!(after.batches - before.batches, 1, "one burst, one group: {after:?}");
    assert_eq!(after.max_batch_observed, 5);
    server.shutdown();
}

/// Shutdown with jobs queued behind a busy worker: the worker finishes
/// its group, every queued job is answered `ShuttingDown`, and no id
/// goes unanswered.
#[test]
fn shutdown_answers_every_queued_job() {
    let grid = gen::ridge_field(22, 22, 3, 9.0, 11);
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(grid))
        .workers(1)
        .max_batch(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();
    // An O(n²) naive evaluation occupies the single worker; the six
    // views behind it wait in the queue.
    let views: Vec<View> = std::iter::once(View::orthographic(0.0).algorithm(Algorithm::Naive))
        .chain((1..7).map(|i| View::orthographic(0.1 * i as f64)))
        .collect();
    let n = views.len() as u64;
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.eval_pipelined("t", &views)
    });
    // Shut down once every job is queued and the worker has taken the
    // oldest, the naive view: it is busy, and the rest wait behind it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = server.stats();
        if stats.admitted == n && stats.batches >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "jobs never queued and taken: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    };
    server.shutdown();

    let results = client
        .join()
        .unwrap()
        .expect("every pipelined id is answered before the connection closes");
    assert_eq!(results.len() as u64, n);
    let shutting_down = results
        .iter()
        .filter(|r| matches!(r, Err(e) if e.kind == ErrorKind::ShuttingDown))
        .count();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok + shutting_down, results.len(), "only Ok or ShuttingDown: {results:?}");
    assert!(results[0].is_ok(), "the busy worker finishes its group");
    assert!(
        shutting_down > 0,
        "jobs queued at shutdown are answered ShuttingDown (stats before: {stats:?})"
    );
}

#[test]
fn tiled_backend_serves_and_cache_counters_partition_lookups() {
    let grid = gen::diamond_square(5, 0.6, 9.0, 29); // 33×33
    let observer = Point3::new(180.0, 16.0, 15.0);
    let targets: Vec<Point3> = (1..6)
        .map(|i| Point3::new(3.1 * i as f64 + 0.37, 5.0 + 2.0 * i as f64 + 0.53, 4.0))
        .collect();
    let dir = std::env::temp_dir().join(format!("hsr-serve-tiled-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tiling = TilingConfig { tile_size: 8, levels: 2 };
    let cfg = TiledSceneConfig { cache_capacity: 3, fixed_level: Some(0), ..Default::default() };
    let scene = TiledScene::build(&grid, tiling, TileStore::create(&dir).unwrap(), cfg).unwrap();
    let solo = scene
        .eval(&View::viewshed(observer, targets.clone()))
        .unwrap();
    drop(scene);

    let server = ServerBuilder::new()
        .terrain("big", TerrainSource::TiledStore { dir: dir.clone(), config: cfg })
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..3)
        .map(|_| {
            let targets = targets.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .eval("big", &View::viewshed(observer, targets))
                    .unwrap()
            })
        })
        .collect();
    for handle in handles {
        let report = handle.join().unwrap();
        assert_eq!(report.verdicts, solo.report.verdicts);
        assert_eq!(fingerprint(&report), fingerprint(&solo.report));
    }

    // The served scene's resident-tile cache respected its cap and its
    // counters partition the lookups (satellite invariant).
    let cache = server
        .tile_cache_stats("big")
        .expect("tiled terrain resident");
    assert!(cache.peak_resident <= 3, "peak {} over cap", cache.peak_resident);
    assert_eq!(cache.hits + cache.loads + cache.errors, cache.lookups);
    assert!(cache.lookups > 0);

    // Unknown terrains answer cleanly too.
    let mut client = Client::connect(addr).unwrap();
    let err = client.eval("nope", &View::orthographic(0.0)).unwrap_err();
    match err {
        hsr_serve::ClientError::Server(e) => assert_eq!(e.kind, ErrorKind::UnknownTerrain),
        other => panic!("expected server error, got {other}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_lines_get_bad_request_answers() {
    let server = ServerBuilder::new()
        .terrain("t", TerrainSource::Grid(gen::fbm(8, 8, 2, 5.0, 1)))
        .bind("127.0.0.1:0")
        .unwrap();
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let response: hsr_serve::Response = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(response.id, 0);
    assert_eq!(response.into_result().unwrap_err().kind, ErrorKind::BadRequest);
    assert_eq!(server.stats().malformed, 1);
    server.shutdown();
}
