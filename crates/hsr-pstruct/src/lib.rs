//! Persistent (fully functional, path-copying) data structures.
//!
//! The paper's phase 2 keeps *one* visibility structure per PCT layer and
//! lets the many prefix profiles of a layer share their common visible
//! portions "along the lines of a persistent binary tree structure
//! (Driscoll et al.)". This crate supplies that substrate:
//!
//! * [`ptreap::PTreap`] — a persistent treap with deterministic priorities
//!   (canonical shape for a given key set), O(log n) expected
//!   insert/remove/split/join (also around a new middle entry, `join3`) by
//!   path copying, and user-defined **subtree aggregates** used by the
//!   pruned envelope merge in `hsr-core`. Every
//!   path-copied node charges `Category::TreapOps` in the `hsr-pram` cost
//!   model (a no-op unless the caller installed a `CostCollector`).
//! * [`arena::ArenaTreap`] — the mutable, arena-backed sibling for
//!   single-version working sets (phase-1 builds, profile sweeps): nodes in
//!   a contiguous `Vec` addressed by `u32` indices, in-place mutation and
//!   a free list. Slot writes charge
//!   `Category::TreapArena`, keeping the two representations separable in
//!   cost reports.
//! * [`stats`] — version-sharing statistics: how many distinct nodes back a
//!   set of versions vs. the sum of their logical sizes (the quantity
//!   Figure 3 of the paper illustrates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod ptreap;
pub mod stats;

pub use arena::ArenaTreap;
pub use ptreap::{det_prio, Aggregate, CountAgg, NoAgg, NodeHandle, PTreap};
pub use stats::SharingStats;
