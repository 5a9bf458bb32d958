//! A viewshed server end to end: host a terrain twice — monolithic and
//! out-of-core tiled — behind the TCP visibility-query service, then
//! race a handful of clients against it and show that every response is
//! bit-identical to a direct evaluation.
//!
//! ```sh
//! cargo run --release --example viewshed_server
//! ```

use std::sync::Arc;

use terrain_hsr::geometry::Point3;
use terrain_hsr::serve::{Client, ServerBuilder, TerrainSource};
use terrain_hsr::terrain::gen;
use terrain_hsr::tile::{TileStore, TilingConfig};
use terrain_hsr::{Scene, TiledScene, TiledSceneConfig, Verdict, View};

fn main() {
    // A 129×129 heightfield, built once into each backend.
    let grid = gen::diamond_square(7, 0.6, 18.0, 4242);
    let scene = Scene::from_grid(&grid).expect("valid terrain");
    let (lo, hi) = scene.tin().ground_bounds();
    let mid_y = 0.5 * (lo.y + hi.y);

    let dir = std::env::temp_dir().join(format!("thsr-viewshed-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tiled_cfg =
        TiledSceneConfig { cache_capacity: 6, fixed_level: Some(0), ..Default::default() };
    TiledScene::build(
        &grid,
        TilingConfig { tile_size: 32, levels: 2 },
        TileStore::create(&dir).expect("store dir"),
        tiled_cfg,
    )
    .expect("tile pyramid");

    let server = ServerBuilder::new()
        .terrain("hills", TerrainSource::Tin(scene.shared_tin()))
        .terrain("hills-tiled", TerrainSource::TiledStore { dir: dir.clone(), config: tiled_cfg })
        .workers(3)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();
    println!("serving `hills` (monolithic) and `hills-tiled` (out-of-core) on {addr}");

    // An observation tower and a ring of query points around it.
    let observer = Point3::new(hi.x + 400.0, mid_y, 60.0);
    let targets: Vec<Point3> = (0..24)
        .map(|i| {
            let a = i as f64 / 24.0 * std::f64::consts::TAU;
            let (x, y) = (64.0 + 40.0 * a.cos(), 64.0 + 40.0 * a.sin());
            Point3::new(x, y, grid.sample(x, y) + 2.0)
        })
        .collect();
    let view = View::viewshed(observer, targets.clone());
    let expected = scene.eval(&view).expect("local eval");

    // Four clients race the two hosted backends.
    let view = Arc::new(view);
    let verdicts = Arc::new(expected.verdicts.clone());
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let view = Arc::clone(&view);
            let verdicts = Arc::clone(&verdicts);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let terrain = if c % 2 == 0 { "hills" } else { "hills-tiled" };
                let report = client.eval(terrain, &view).expect("served eval");
                assert_eq!(
                    &report.verdicts, &*verdicts,
                    "client {c}: `{terrain}` verdicts diverged from the local evaluation"
                );
                (c, terrain, report.k, report.cost.total_work())
            })
        })
        .collect();
    for client in clients {
        let (c, terrain, k, work) = client.join().expect("client");
        println!("client {c} ← {terrain:12} k = {k:5}  work = {work}");
    }

    let visible = expected
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::Visible)
        .count();
    println!(
        "tower sees {visible}/{} ring points; server stats: {:?}",
        targets.len(),
        server.stats()
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
