//! Tiled, multi-resolution terrain store with cached out-of-core scene
//! evaluation.
//!
//! The monolithic pipeline holds one validated TIN in memory and
//! evaluates views against it. That caps the terrain at what fits in
//! RAM. This crate removes the cap the way the I/O-efficient visibility
//! literature does (Haverkort & Toma's tiling with bounded resident
//! memory; Erickson's finite-resolution evaluation): cut the terrain
//! into fixed-size tiles with one-cell overlap skirts, coarsen each tile
//! into a small level-of-detail pyramid, materialize the lot on disk,
//! and evaluate a view by streaming only the covering tiles — at a
//! resolution matched to their distance from the eye — through a
//! hard-capped LRU cache of resident per-tile scenes.
//!
//! * [`pyramid`] — tile layout: skirts, per-tile sample ranges, LOD
//!   shapes, and [`TilePyramid::build`] to materialize a grid.
//! * [`store`] — the on-disk format: one compact binary file per tile
//!   (see [`hsr_terrain::io::grid_to_bytes`]) plus a pyramid meta file.
//! * [`cache`] — [`Lru`], the one bounded cache: at most `capacity`
//!   entries resident, ever, with loads outside its lock. The
//!   resident-tile [`SceneCache`] is one, and so is the serving layer's
//!   prepared-scene cache.
//! * [`scene`] — [`TiledScene`]: select covering tiles per
//!   [`View`](hsr_core::view::View), pick a level per tile, evaluate
//!   chunks in parallel, stitch one merged
//!   [`Report`](hsr_core::view::Report).
//!
//! ```
//! use hsr_tile::{TiledScene, TiledSceneConfig, TileStore, TilingConfig};
//! use hsr_core::view::View;
//! use hsr_geometry::Point3;
//! use hsr_terrain::gen;
//!
//! let grid = gen::diamond_square(5, 0.6, 9.0, 7); // 33×33 heightfield
//! let dir = std::env::temp_dir().join(format!("hsr-tile-doc-{}", std::process::id()));
//! let scene = TiledScene::build(
//!     &grid,
//!     TilingConfig { tile_size: 8, levels: 2 },
//!     TileStore::create(&dir).unwrap(),
//!     TiledSceneConfig { cache_capacity: 4, ..Default::default() },
//! )
//! .unwrap();
//!
//! // A viewshed: which query points does an observer in front see?
//! let observer = Point3::new(80.0, 16.0, 25.0);
//! let targets = vec![Point3::new(10.3, 12.7, 40.0), Point3::new(3.6, 20.2, 0.5)];
//! let out = scene.eval(&View::viewshed(observer, targets)).unwrap();
//! assert_eq!(out.report.verdicts.len(), 2);
//! assert!(out.cache.peak_resident <= 4);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pyramid;
pub mod scene;
pub mod store;

pub use cache::{CacheStats, Lru, SceneCache};
pub use pyramid::{PyramidMeta, TileId, TilePyramid, TilingConfig};
pub use scene::{TileEval, TiledError, TiledReport, TiledScene, TiledSceneConfig};
pub use store::{TileStore, TileStoreError};
