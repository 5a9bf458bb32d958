//! Output-size sensitive parallel hidden-surface removal for polyhedral
//! terrains — the algorithm of Gupta & Sen (IPPS 1998) and its baselines.
//!
//! # Pipeline
//!
//! 1. [`edges`] projects terrain edges onto the image plane.
//! 2. [`order`] computes the front-to-back order (the separator-tree step).
//! 3. [`pct`] builds the Profile Computation Tree: phase 1 computes every
//!    node's intermediate profile bottom-up ([`envelope`], Lemma 3.1);
//!    phase 2 propagates *actual* prefix profiles top-down layer by layer,
//!    sharing them through persistence ([`ptenv`]) and discovering
//!    intersections output-sensitively.
//! 4. The leaves yield the [`visibility`] map — the device-independent
//!    description of the visible scene.
//!
//! [`view::evaluate`] runs these steps for one [`View`] — orthographic,
//! perspective or viewshed — and is the one way a view is evaluated;
//! [`view::evaluate_batch`] and [`view::evaluate_many`] fan it out.
//! [`pipeline`] holds the configuration it runs under.
//!
//! [`cg`] implements the Chazelle–Guibas search structure with convex-chain
//! augmentation (the ACG of Lemmas 3.3–3.6) used for queries and for the
//! rebuild-per-layer ablation mode. [`seq`] and [`naive`] are the
//! sequential Reif–Sen baseline and the `O(n²)` strawman; [`zbuffer`] is an
//! image-space oracle used for validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod chains;
pub mod edges;
pub mod envelope;
pub mod error;
pub mod naive;
pub mod oracle;
pub mod order;
pub mod pct;
pub mod perspective;
pub mod pipeline;
pub mod ptenv;
pub mod seq;
pub mod silhouette;
pub mod view;
pub mod viewshed;
pub mod visibility;
pub mod zbuffer;

pub use edges::{project_edges, SceneEdge};
pub use envelope::{CrossEvent, Envelope, Piece};
pub use error::HsrError;
pub use pipeline::{Algorithm, HsrConfig, Phase2Mode, Timings};
pub use ptenv::PEnvelope;
pub use view::{evaluate, evaluate_batch, evaluate_many, evaluate_span, Projection, Report, View};
pub use visibility::VisibilityMap;
