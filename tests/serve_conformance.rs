//! ISSUE 5 acceptance: server responses are **bit-identical** — the
//! visibility map, the verdicts, and `n`/`k` — to calling
//! `Scene::eval` (or `TiledScene::eval`) directly, under ≥ 8
//! concurrent clients, on both the monolithic and the tiled backend.
//!
//! The wire format makes this possible: the JSON float codec emits the
//! shortest round-trippable decimal, so every finite `f64` in a report
//! survives the TCP hop with its exact bits.

#![cfg(feature = "serve")]

use std::sync::Arc;

use terrain_hsr::core::view::Report;
use terrain_hsr::geometry::Point3;
use terrain_hsr::serve::{ServerBuilder, TerrainSource};
use terrain_hsr::terrain::gen;
use terrain_hsr::tile::{TileStore, TilingConfig};
use terrain_hsr::{Scene, TiledScene, TiledSceneConfig, View};

/// Every bit of a report that evaluation determines (timings are
/// wall-clock and cache counters are load-dependent, so those are out).
fn bits(r: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        r.vis
            .pieces
            .iter()
            .map(|p| (p.edge, p.x0.to_bits(), p.x1.to_bits(), p.z0.to_bits(), p.z1.to_bits()))
            .collect::<Vec<_>>(),
        r.vis
            .crossings
            .iter()
            .map(|c| (c.x.to_bits(), c.z.to_bits(), c.upper_left, c.upper_right))
            .collect::<Vec<_>>(),
        r.vis.vertical_visible.clone(),
        (r.n, r.k, r.vis.n_edges),
        r.verdicts.clone(),
        r.cost.work.clone(),
        r.resolution,
    )
}

fn fractional_targets(grid: &hsr_terrain::GridTerrain) -> Vec<Point3> {
    let mut targets = Vec::new();
    for i in (1..grid.nx - 1).step_by(4) {
        for j in (1..grid.ny - 1).step_by(4) {
            let (x, y) = (i as f64 + 0.37, j as f64 + 0.53);
            targets.push(Point3::new(x, y, grid.sample(x, y) + 1.7));
        }
    }
    targets
}

/// ISSUE 6 acceptance: the event-driven connection layer multiplexes
/// hundreds of idle connections on a fixed-size thread set without
/// perturbing active clients — their reports stay bit-identical to solo
/// evaluation while ≥ 512 idle connections are held open.
#[test]
fn active_clients_stay_bit_identical_under_hundreds_of_idle_connections() {
    let grid = gen::diamond_square(5, 0.6, 9.0, 77); // 33×33
    let scene = Scene::from_grid(&grid).unwrap();
    let (lo, hi) = scene.tin().ground_bounds();
    let mid_y = 0.5 * (lo.y + hi.y);
    let observer = Point3::new(hi.x + 60.0, mid_y, 14.0);
    let targets = fractional_targets(&grid);

    let views = vec![
        View::orthographic(0.0),
        View::orthographic(0.45),
        View::viewshed(observer, targets),
    ];
    let expected: Vec<Report> = views.iter().map(|v| scene.eval(v).unwrap()).collect();

    let server = ServerBuilder::new()
        .terrain("mono", TerrainSource::Tin(scene.shared_tin()))
        .shards(2)
        .workers(2)
        .queue_depth(128)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // Hold ≥ 512 connections open. Half stay completely silent; half
    // park the *front half* of a valid request line (no newline) so
    // their shards carry per-connection read state the whole time. None
    // may ever be answered or dropped.
    let parked_line =
        serde_json::to_string(&terrain_hsr::serve::Request::eval(1, "mono", views[0].clone()))
            .unwrap();
    let (parked_front, parked_back) = parked_line.split_at(parked_line.len() / 2);
    let idle: Vec<std::net::TcpStream> = (0..512)
        .map(|i| {
            let stream = std::net::TcpStream::connect(addr).expect("idle connect");
            if i % 2 == 0 {
                use std::io::Write as _;
                (&stream)
                    .write_all(parked_front.as_bytes())
                    .expect("park partial line");
            }
            stream
        })
        .collect();

    let views = Arc::new(views);
    let expected = Arc::new(expected);
    let actives: Vec<_> = (0..8)
        .map(|c| {
            let views = Arc::clone(&views);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = terrain_hsr::serve::Client::connect(addr).expect("connect");
                for round in 0..2 {
                    let i = (c + round) % views.len();
                    let got = client.eval("mono", &views[i]).expect("eval amid idle herd");
                    assert_eq!(
                        bits(&got),
                        bits(&expected[i]),
                        "client {c} round {round}: view {i} diverged under idle load"
                    );
                }
            })
        })
        .collect();
    for active in actives {
        active.join().expect("active client thread");
    }

    let stats = server.stats();
    assert!(stats.connections >= 512 + 8, "all connections accepted: {stats:?}");
    assert_eq!(stats.dropped_slow, 0, "idle is not slow: nobody owed them bytes: {stats:?}");
    assert_eq!(stats.malformed, 0, "a parked partial line is not (yet) malformed: {stats:?}");
    assert_eq!(stats.completed, 8 * 2);

    // The idle connections are still alive: complete one parked line
    // into a valid request and get a real answer on it.
    {
        use std::io::{BufRead as _, BufReader, Write as _};
        let mut parked = idle.into_iter().next().expect("kept the idle herd");
        parked
            .write_all(parked_back.as_bytes())
            .expect("complete the parked line");
        parked.write_all(b"\n").expect("terminate the parked line");
        parked
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut line = String::new();
        BufReader::new(parked)
            .read_line(&mut line)
            .expect("parked connection answered");
        let response: terrain_hsr::serve::Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(response.id, 1);
        let got = response.into_result().expect("parked request evaluates");
        assert_eq!(bits(&got), bits(&expected[0]), "parked request diverged");
    }

    server.shutdown();
}

#[test]
fn racing_clients_get_bit_identical_reports_on_both_backends() {
    let grid = gen::diamond_square(5, 0.6, 9.0, 77); // 33×33
    let scene = Scene::from_grid(&grid).unwrap();
    let (lo, hi) = scene.tin().ground_bounds();
    let mid_y = 0.5 * (lo.y + hi.y);
    let observer = Point3::new(hi.x + 60.0, mid_y, 14.0);
    let eye = Point3::new(hi.x + 25.0, mid_y, 20.0);
    let look = Point3::new(lo.x, mid_y, 0.0);
    let targets = fractional_targets(&grid);

    // The tiled twin of the same terrain, at full resolution so its
    // verdicts are bit-identical to the monolithic classification.
    let dir = std::env::temp_dir().join(format!("thsr-serve-conf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tiled_cfg =
        TiledSceneConfig { cache_capacity: 4, fixed_level: Some(0), ..Default::default() };
    let tiled = TiledScene::build(
        &grid,
        TilingConfig { tile_size: 8, levels: 2 },
        TileStore::create(&dir).unwrap(),
        tiled_cfg,
    )
    .unwrap();

    // The per-client work list: (terrain, view) pairs spanning all
    // three projections; expectations computed by direct evaluation
    // before the server sees anything.
    let mono_views = vec![
        View::orthographic(0.0),
        View::orthographic(0.45),
        View::perspective(eye, look, 1.1, 512),
        View::viewshed(observer, targets.clone()),
    ];
    let tiled_view = View::viewshed(observer, targets.clone());
    let mono_expected: Vec<Report> = mono_views.iter().map(|v| scene.eval(v).unwrap()).collect();
    let tiled_expected = tiled.eval(&tiled_view).unwrap().report;
    // Full-resolution tiled verdicts agree with the monolithic ones.
    assert_eq!(tiled_expected.verdicts, mono_expected[3].verdicts);
    drop(tiled);

    let server = ServerBuilder::new()
        .terrain("mono", TerrainSource::Tin(scene.shared_tin()))
        .terrain("tiled", TerrainSource::TiledStore { dir: dir.clone(), config: tiled_cfg })
        .workers(3)
        .queue_depth(128)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    let mono_views = Arc::new(mono_views);
    let mono_expected = Arc::new(mono_expected);
    let tiled_view = Arc::new(tiled_view);
    let tiled_expected = Arc::new(tiled_expected);

    let clients: Vec<_> = (0..8)
        .map(|c| {
            let mono_views = Arc::clone(&mono_views);
            let mono_expected = Arc::clone(&mono_expected);
            let tiled_view = Arc::clone(&tiled_view);
            let tiled_expected = Arc::clone(&tiled_expected);
            std::thread::spawn(move || {
                let mut client = terrain_hsr::serve::Client::connect(addr).expect("connect");
                // Interleave mono and tiled requests differently per
                // client so the groups the workers take vary.
                for round in 0..2 {
                    let i = (c + round) % mono_views.len();
                    let got = client.eval("mono", &mono_views[i]).expect("mono eval");
                    assert_eq!(
                        bits(&got),
                        bits(&mono_expected[i]),
                        "client {c} round {round}: mono view {i} diverged over the wire"
                    );
                    if (c + round) % 2 == 0 {
                        let got = client.eval("tiled", &tiled_view).expect("tiled eval");
                        assert_eq!(
                            bits(&got),
                            bits(&tiled_expected),
                            "client {c} round {round}: tiled view diverged over the wire"
                        );
                    }
                }
                // A pipelined burst exercises the coalescing path too.
                let burst = client
                    .eval_pipelined("mono", &mono_views)
                    .expect("pipelined");
                for (i, result) in burst.into_iter().enumerate() {
                    let got = result.expect("pipelined eval");
                    assert_eq!(bits(&got), bits(&mono_expected[i]), "client {c} burst view {i}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.rejected, 0, "queue depth 128 must absorb this load: {stats:?}");
    assert_eq!(stats.malformed, 0);
    assert!(stats.completed >= 8 * (2 + 4));
    let prepared = server.prepared_stats();
    assert_eq!(prepared.hits + prepared.loads + prepared.errors, prepared.lookups);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
