//! # terrain-hsr
//!
//! Output-size sensitive parallel hidden-surface removal for polyhedral
//! terrains — a reproduction of Gupta & Sen, *"An Improved Output-size
//! Sensitive Parallel Algorithm for Hidden-Surface Removal for Terrains"*
//! (IPPS 1998).
//!
//! This facade crate re-exports the workspace crates and offers the
//! high-level viewpoint-centric API: build a [`Scene`] once with
//! [`SceneBuilder`], describe *where the viewer stands* with a [`View`]
//! (orthographic, perspective, or viewshed), and evaluate one view or a
//! whole batch through a [`Session`]:
//!
//! ```
//! use terrain_hsr::{Algorithm, SceneBuilder, View};
//! use terrain_hsr::terrain::gen;
//!
//! // Validate the terrain and build its shared state exactly once.
//! let scene = SceneBuilder::from_grid(&gen::fbm(16, 16, 4, 8.0, 7)).build().unwrap();
//! let session = scene.session();
//!
//! // The canonical orthographic view from x = +∞.
//! let report = session.eval(&View::orthographic(0.0)).unwrap();
//! assert!(report.k > 0);
//!
//! // The parallel algorithm agrees with the sequential baseline.
//! let seq = session
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
//! use terrain_hsr::{SceneBuilder, View};
//! use terrain_hsr::terrain::gen;
//!
//! let scene = SceneBuilder::from_grid(&gen::gaussian_hills(12, 12, 4, 9)).build().unwrap();
//! let (lo, hi) = scene.tin().ground_bounds();
//! let eye = Point3::new(hi.x + 30.0, 0.5 * (lo.y + hi.y), 20.0);
//! let look = Point3::new(lo.x, 0.5 * (lo.y + hi.y), 0.0);
//! let frame = scene
//!     .session()
//!     .eval(&View::perspective(eye, look, 1.2, 640))
//!     .unwrap();
//! assert!(frame.k > 0);
//! ```
//!
//! Batches evaluate in parallel against the same shared terrain state —
//! no per-view TIN rebuild:
//!
//! ```
//! use terrain_hsr::{SceneBuilder, View};
//! use terrain_hsr::terrain::gen;
//!
//! let scene = SceneBuilder::from_grid(&gen::ridge_field(12, 12, 3, 8.0, 11)).build().unwrap();
//! let sweep: Vec<_> = (0..4).map(|i| View::orthographic(0.4 * i as f64)).collect();
//! let reports = scene.session().eval_batch(&sweep);
//! assert!(reports.into_iter().all(|r| r.unwrap().k > 0));
//! ```
//!
//! Terrains too large for one in-memory scene evaluate *out of core*
//! through [`TiledSceneBuilder`]: the terrain becomes an on-disk tile
//! pyramid (fixed-size tiles with overlap skirts plus coarsened levels
//! of detail) and each view streams only its covering tiles through a
//! hard-capped cache — see the [`tiled`] module for a worked example.
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
/// use terrain_hsr::{SceneBuilder, View};
///
/// let scene = SceneBuilder::from_grid(&gen::fbm(16, 16, 3, 7.0, 5)).build().unwrap();
/// let server = ServerBuilder::new()
///     .terrain("demo", TerrainSource::Tin(scene.shared_tin()))
///     .workers(2)
///     .bind("127.0.0.1:0")
///     .unwrap();
///
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let report = client.eval("demo", &View::orthographic(0.2)).unwrap();
/// // The served report is bit-identical to a local evaluation.
/// let local = scene.session().eval(&View::orthographic(0.2)).unwrap();
/// assert_eq!(report.k, local.k);
/// server.shutdown();
/// ```
#[cfg(feature = "serve")]
pub use hsr_serve as serve;
pub use hsr_terrain as terrain;
pub use hsr_tile as tile;

pub mod render;
pub mod scene;
pub mod tiled;

pub use scene::{
    Algorithm, CostCollector, CostReport, HsrError, Phase2Mode, Projection, Report, Scene,
    SceneBuilder, SceneReport, Session, Timings, Verdict, View,
};
pub use tiled::{TiledReport, TiledScene, TiledSceneBuilder, TiledSceneConfig};
