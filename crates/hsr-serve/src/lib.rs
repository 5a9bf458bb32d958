//! A concurrent visibility-query service over the HSR pipeline.
//!
//! The workspace below this crate holds the evaluation machinery — one
//! [`hsr_core::view::evaluate`] per view with its batched fan-outs,
//! scoped per-view cost accounting, and out-of-core tiled evaluation.
//! This crate is the layer that accepts *requests* and turns them into
//! batched evaluations: the workload of a viewshed/visibility service
//! over massive grid terrains (Haverkort & Toma's setting), made
//! schedulable by the paper's output-size sensitive bound — per-request
//! cost counters arrive with every response.
//!
//! * [`protocol`] — newline-delimited JSON over TCP; [`Request`] wraps
//!   an [`hsr_core::view::View`], [`Response`] carries the full
//!   [`hsr_core::view::Report`], bit-identical to a local evaluation.
//!   Request id 0 is reserved for answers to unparseable lines.
//! * [`server`] + the event-driven connection layer (ISSUE 6) — a
//!   fixed-size set of event-loop shards multiplexes every connection
//!   with nonblocking I/O: capped request-line buffers, bounded
//!   per-connection outgoing queues (a slow reader is disconnected,
//!   never buffered without bound), a bounded admission queue with
//!   immediate [`ErrorKind::Overloaded`] rejection, and a bounded
//!   worker pool that pulls from that queue. Each worker **coalesces**:
//!   it takes the oldest queued request plus every queued request
//!   targeting the same terrain with the same pipeline configuration
//!   ([`hsr_core::pipeline::HsrConfig`]), evaluates them as one
//!   `evaluate_batch`/`eval_many` fan-out, and *enqueues* the
//!   responses instead of blocking on client sockets. No timer holds a
//!   request back: a lone request starts as soon as a worker is free,
//!   and a pipelined burst read in one go is queued whole.
//! * [`catalog`] — named terrains behind a hard-capped prepared-scene
//!   LRU (the same [`hsr_tile::Lru`] as the resident-tile cache: one
//!   lock, prepares outside it), with two backends: a monolithic
//!   in-memory TIN, or an out-of-core [`hsr_tile::TiledScene`] so
//!   multi-million-cell terrains serve under the tiled residency cap.
//! * [`client`] — a small blocking client (single-shot and pipelined),
//!   including the admin verbs: chunked uploads, register/list/info/
//!   delete, and a [`StatsSnapshot`] of every server counter family.
//! * Persistence (ISSUE 7) — attach an [`hsr_catalog::Catalog`] via
//!   [`ServerBuilder::catalog_dir`] and terrains uploaded over the wire
//!   survive process restarts: content-addressed blobs plus an
//!   append-only manifest, served through the same prepared-scene LRU
//!   with exact invalidation on overwrite/delete.
//! * Observability (ISSUE 9) — install an [`hsr_obs::Recorder`] via
//!   [`ServerBuilder::observe`] and every served request records a span
//!   tree (parse → queue wait → coalesce → scene lookup → evaluate →
//!   respond, with the pipeline's phase children and cost counters
//!   grafted under `evaluate`) plus per-stage latency histograms;
//!   requests slower than the configured threshold are captured in a
//!   separate bounded ring. [`Request::Metrics`] snapshots all of it
//!   over the wire; without a recorder every touchpoint is one branch.
//!
//! The scoped cost collectors of PR 3 are what make coalescing safe:
//! a view evaluated inside a coalesced batch reports counters
//! bit-identical to a solo evaluation, so batching is purely a
//! throughput decision.
//!
//! ```no_run
//! use hsr_core::view::View;
//! use hsr_serve::{Client, ServerBuilder, TerrainSource};
//! use hsr_terrain::gen;
//!
//! let server = ServerBuilder::new()
//!     .terrain("demo", TerrainSource::Grid(gen::fbm(32, 32, 4, 9.0, 5)))
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let report = client.eval("demo", &View::orthographic(0.3)).unwrap();
//! assert!(report.k > 0);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod b64;
pub mod catalog;
pub mod client;
mod event_loop;
pub mod protocol;
pub mod server;

pub use catalog::{PreparedCache, PreparedScene, TerrainSource};
pub use client::{Client, ClientError};
pub use hsr_catalog::{Catalog, CatalogError, CatalogStats, TerrainFormat, TerrainInfo};
pub use hsr_obs::{
    HistSnapshot, MetricsSnapshot, Recorder, RecorderConfig, SpanRecord, TraceRecord,
};
pub use hsr_tile::CacheStats;
pub use protocol::{ErrorKind, Payload, Request, Response, StatsSnapshot, UploadAck, WireError};
pub use server::{ServeConfig, ServeStats, Server, ServerBuilder};
