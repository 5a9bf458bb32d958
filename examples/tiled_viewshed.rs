//! Out-of-core viewshed over a tiled terrain.
//!
//! Builds a ~1M-cell diamond-square heightfield, materializes it as an
//! on-disk tile pyramid, drops the grid, and answers a radar-style
//! visibility question — which of a ring of low-flying waypoints can a
//! watchtower see? — streaming at most `CACHE_CAP` tiles into memory at
//! a time. Far tiles are evaluated at a coarser level of detail.
//!
//! ```sh
//! cargo run --release --example tiled_viewshed
//! ```

use terrain_hsr::geometry::Point3;
use terrain_hsr::terrain::gen;
use terrain_hsr::tile::{TileStore, TilingConfig};
use terrain_hsr::{TiledScene, TiledSceneConfig, Verdict, View};

const CACHE_CAP: usize = 6;

fn main() {
    let grid = gen::diamond_square(10, 0.55, 45.0, 20260728); // 1025×1025
    let (nx, ny) = (grid.nx, grid.ny);
    println!("terrain: {nx}×{ny} samples ({} cells)", (nx - 1) * (ny - 1));

    let dir = std::env::temp_dir().join(format!("tiled-viewshed-{}", std::process::id()));
    let t = std::time::Instant::now();
    let scene = TiledScene::build(
        &grid,
        TilingConfig { tile_size: 128, levels: 3 },
        TileStore::create(&dir).expect("store dir"),
        TiledSceneConfig { cache_capacity: CACHE_CAP, ..Default::default() },
    )
    .expect("pyramid build");
    println!(
        "pyramid: {}×{} tiles × {} levels materialized in {:.2}s at {}",
        scene.meta().tiles_i,
        scene.meta().tiles_j,
        scene.meta().levels,
        t.elapsed().as_secs_f64(),
        dir.display()
    );
    // A watchtower just past the front edge, and a ring of waypoints
    // skimming 3 units over the terrain interior — low enough that
    // intervening ridges hide some of them.
    let observer = Point3::new(1500.0, 512.0, 55.0);
    let targets: Vec<Point3> = (0..48)
        .map(|s| {
            let a = s as f64 / 48.0 * std::f64::consts::TAU;
            let (x, y) = (512.0 + 380.0 * a.cos(), 512.0 + 380.0 * a.sin());
            Point3::new(x, y, grid.sample(x, y) + 3.0)
        })
        .collect();
    drop(grid); // everything below streams from disk

    let t = std::time::Instant::now();
    let out = scene
        .eval(&View::viewshed(observer, targets))
        .expect("tiled viewshed");
    let visible = out
        .report
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::Visible)
        .count();
    println!(
        "viewshed: {visible}/{} waypoints visible in {:.2}s",
        out.report.verdicts.len(),
        t.elapsed().as_secs_f64()
    );
    let coarse = out.tiles.iter().filter(|t| t.id.level > 0).count();
    println!(
        "tiles: {}/{} selected ({} at coarser LOD), stitched n = {}, k = {}",
        out.tiles.len(),
        out.tiles_total,
        coarse,
        out.report.n,
        out.report.k
    );
    println!(
        "cache: {} loads, {} hits, {} evictions, peak resident {} (cap {CACHE_CAP})",
        out.cache.loads, out.cache.hits, out.cache.evictions, out.cache.peak_resident
    );
    assert!(out.cache.peak_resident <= CACHE_CAP);

    let _ = std::fs::remove_dir_all(&dir);
}
