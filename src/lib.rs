//! # terrain-hsr
//!
//! Output-size sensitive parallel hidden-surface removal for polyhedral
//! terrains — a reproduction of Gupta & Sen, *"An Improved Output-size
//! Sensitive Parallel Algorithm for Hidden-Surface Removal for Terrains"*
//! (IPPS 1998).
//!
//! This facade crate re-exports the workspace crates and offers the
//! high-level viewpoint-centric API: build a [`Scene`] once, describe
//! *where the viewer stands* with a [`View`] (orthographic, perspective,
//! or viewshed), and evaluate one view or a whole batch against it:
//!
//! ```
//! use terrain_hsr::{Algorithm, Scene, View};
//! use terrain_hsr::terrain::gen;
//!
//! // Validate the terrain and build its shared state exactly once.
//! let scene = Scene::from_grid(&gen::fbm(16, 16, 4, 8.0, 7)).unwrap();
//!
//! // The canonical orthographic view from x = +∞.
//! let report = scene.eval(&View::orthographic(0.0)).unwrap();
//! assert!(report.k > 0);
//!
//! // The parallel algorithm agrees with the sequential baseline.
//! let seq = scene
//!     .eval(&View::orthographic(0.0).algorithm(Algorithm::Sequential))
//!     .unwrap();
//! assert!(report.vis.agreement(&seq.vis) > 0.9999);
//! ```
//!
//! A true perspective view is one variant away — the pipeline runs after
//! the paper's projective pre-transform, so the result is an exact
//! object-space perspective image, not a raster:
//!
//! ```
//! use terrain_hsr::geometry::Point3;
//! use terrain_hsr::{Scene, View};
//! use terrain_hsr::terrain::gen;
//!
//! let scene = Scene::from_grid(&gen::gaussian_hills(12, 12, 4, 9)).unwrap();
//! let (lo, hi) = scene.tin().ground_bounds();
//! let eye = Point3::new(hi.x + 30.0, 0.5 * (lo.y + hi.y), 20.0);
//! let look = Point3::new(lo.x, 0.5 * (lo.y + hi.y), 0.0);
//! let frame = scene.eval(&View::perspective(eye, look, 1.2, 640)).unwrap();
//! assert!(frame.k > 0);
//! ```
//!
//! Batches evaluate in parallel against the same shared terrain state —
//! no per-view TIN rebuild:
//!
//! ```
//! use terrain_hsr::{Scene, View};
//! use terrain_hsr::terrain::gen;
//!
//! let scene = Scene::from_grid(&gen::ridge_field(12, 12, 3, 8.0, 11)).unwrap();
//! let sweep: Vec<_> = (0..4).map(|i| View::orthographic(0.4 * i as f64)).collect();
//! let reports = scene.eval_batch(&sweep);
//! assert!(reports.into_iter().all(|r| r.unwrap().k > 0));
//! ```
//!
//! Terrains too large for one in-memory scene evaluate *out of core*
//! through a [`TiledScene`]: [`TiledScene::build`] cuts the terrain into
//! an on-disk tile pyramid (fixed-size tiles with overlap skirts plus
//! coarsened levels of detail) and each view streams only its covering
//! tiles through a hard-capped cache — see the [`tile`] crate for a
//! worked example.
//!
//! And scenes can be *served*: [`serve`] (the `hsr-serve` crate,
//! feature `serve`, on by default) binds a TCP service that answers
//! visibility queries over newline-delimited JSON — coalescing queued
//! requests with compatible configuration into one batched fan-out,
//! reusing prepared scenes through an LRU spanning the monolithic and
//! tiled backends, and rejecting (rather than buffering) load beyond its
//! bounded admission queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hsr_core as core;
pub use hsr_geometry as geometry;
pub use hsr_pram as pram;
pub use hsr_pstruct as pstruct;
/// Serving: the `hsr-serve` crate. A built [`Scene`] is hosted by
/// sharing its TIN:
///
/// ```
/// use terrain_hsr::serve::{Client, ServerBuilder, TerrainSource};
/// use terrain_hsr::terrain::gen;
/// use terrain_hsr::{Scene, View};
///
/// let scene = Scene::from_grid(&gen::fbm(16, 16, 3, 7.0, 5)).unwrap();
/// let server = ServerBuilder::new()
///     .terrain("demo", TerrainSource::Tin(scene.shared_tin()))
///     .workers(2)
///     .bind("127.0.0.1:0")
///     .unwrap();
///
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let report = client.eval("demo", &View::orthographic(0.2)).unwrap();
/// // The served report is bit-identical to a local evaluation.
/// let local = scene.eval(&View::orthographic(0.2)).unwrap();
/// assert_eq!(report.k, local.k);
/// server.shutdown();
/// ```
#[cfg(feature = "serve")]
pub use hsr_serve as serve;
pub use hsr_terrain as terrain;
pub use hsr_tile as tile;

pub mod render;
pub mod scene;

pub use hsr_tile::{TiledReport, TiledScene, TiledSceneConfig};
pub use scene::{
    Algorithm, CostCollector, CostReport, HsrError, Phase2Mode, Projection, Report, Scene, Timings,
    Verdict, View,
};

/// The Rust blocks of `README.md`, compiled and run as doctests so the
/// README cannot drift from the API. Several blocks use the serving
/// layer, hence the `serve` gate.
#[cfg(all(doctest, feature = "serve"))]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
