//! # hsr-obs — low-overhead observability for the HSR stack
//!
//! Small, dependency-free pieces that the serving stack threads
//! together (this crate sits below `hsr-core`; it depends only on the
//! serde shim):
//!
//! * [`hist`] — fixed-bucket **log-linear latency histograms**:
//!   concurrent relaxed-atomic recording, mergeable/windowable sparse
//!   snapshots, quantiles exact to within [`hist::RELATIVE_ERROR`]
//!   (6.25%) relative error.
//! * [`span`] — **per-request span trees** with Brent work/depth and
//!   predicate-filter attribution, bounded non-blocking **span rings**
//!   (overwrite-oldest, exact drop counter), and the [`Recorder`] hub
//!   with named histograms/counters, a recent-traces ring, a
//!   slow-request capture ring, and a serde-round-trippable
//!   [`MetricsSnapshot`].
//! * [`sync`] — [`lock_unpoisoned`], the workspace's poison-tolerant
//!   lock helper.
//!
//! Recording is opt-in at the call site: the server builds a span tree
//! from each finished report only when a [`Recorder`] is installed, so
//! observability is free when it is not wanted.
//!
//! ```
//! use hsr_obs::{Histogram, Recorder, RecorderConfig};
//! use std::time::Duration;
//!
//! let rec = Recorder::new(RecorderConfig::default());
//! let h = rec.hist("request"); // cache the Arc on hot paths
//! h.record_duration(Duration::from_micros(350));
//! let snap = rec.snapshot();
//! assert_eq!(snap.hist("request").unwrap().total, 1);
//! let p99_ns = snap.hist("request").unwrap().quantile(0.99);
//! assert!(p99_ns >= 350_000);
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod span;
pub mod sync;

pub use hist::{HistSnapshot, Histogram, RELATIVE_ERROR};
pub use span::{
    MetricsSnapshot, NamedCount, NamedHist, Recorder, RecorderConfig, SpanRecord, TraceRecord,
};
pub use sync::lock_unpoisoned;
