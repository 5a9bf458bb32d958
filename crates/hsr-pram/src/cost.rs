//! Work and depth accounting, scoped per measurement.
//!
//! *Work* is counted in abstract "tasks" (the paper's unit in Lemma 2.1):
//! algorithms call [`add_work`] with a category and a batch count at natural
//! chunk boundaries; relaxed atomic adds keep the overhead negligible
//! compared to per-operation counting.
//!
//! *Depth* is structural: each algorithm phase knows its dependent-round
//! count (PCT layers, recursion depth of a divide-and-conquer, rounds of a
//! topological peel) and records it through [`record_depth`] or the
//! [`DepthScope`] guard. Sequential phases add; the maximum nesting within a
//! phase is what the phase records.
//!
//! # Scoped collection
//!
//! Counters live in a [`CostCollector`] — a cheap `Arc`-backed handle a
//! measurement creates and *installs* in a thread-local slot for the
//! duration of the measured region:
//!
//! ```
//! use hsr_pram::cost::{self, Category, CostCollector};
//!
//! let collector = CostCollector::new();
//! let guard = collector.install();
//! cost::add_work(Category::Query, 3); // charged to `collector`
//! drop(guard);
//! assert_eq!(collector.report().work_of(Category::Query), 3);
//! ```
//!
//! [`add_work`] / [`record_depth`] / [`DepthScope`] resolve the calling
//! thread's active collector; when none is installed they are a no-op, so
//! uninstrumented hot loops pay a thread-local read and nothing else.
//! Collectors *nest*: a collector created while another is active keeps a
//! parent link, and every charge propagates up the chain, so an outer
//! bracket (for example a test asserting that a batch of views builds the
//! shared terrain state exactly once) still observes everything its inner
//! scopes counted.
//!
//! Thread-locals do not cross `rayon` task boundaries on their own. Code
//! that forks inside a measured region must use [`crate::join`] /
//! [`crate::scope`] (collector-propagating wrappers of `rayon::join` /
//! `rayon::scope`) so work-stolen subtasks keep charging the collector of
//! the evaluation that spawned them. Every parallel primitive in this
//! crate and every fork in the HSR pipeline does; concurrent measurements
//! therefore never bleed counts into each other — the defect that made
//! per-view `CostReport`s untrustworthy when the old process-global
//! counters were bracketed with `snapshot()`/`since()` under parallel
//! batch evaluation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Work/depth categories, roughly one per paper ingredient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
#[repr(usize)]
pub enum Category {
    /// Front-to-back ordering (separator-tree substitute).
    Order,
    /// Phase-1 intermediate profile construction (Lemma 3.1).
    EnvelopeBuild,
    /// Phase-2 prefix profile merging.
    EnvelopeMerge,
    /// Persistent-treap node copies (the persistence cost).
    TreapOps,
    /// CG/ACG structure construction (Lemmas 3.3–3.5).
    CgBuild,
    /// Intersection queries (Lemmas 3.2, 3.6).
    Query,
    /// Crossings actually found (chargeable to the output size `k`).
    Crossings,
    /// Basic parallel routines (scan / merge / sort).
    Primitive,
    /// Full terrain adjacency builds (TIN validation + edge extraction).
    /// One unit per build — lets callers assert that shared terrain state
    /// was constructed exactly once across a batch of views.
    TinBuild,
    /// Everything else.
    Other,
    // New categories append at the end: the `repr` discriminant indexes
    // serialized counter arrays, so existing indices must stay stable.
    /// Arena-treap slot writes (allocations and cross-epoch copies of the
    /// non-persistent, index-linked treap representation). Kept separate
    /// from [`Category::TreapOps`] so the experiments can attribute cost
    /// to the `Arc` path-copying representation vs. the arena one.
    TreapArena,
    /// Piece-pair relations settled by the interval filter alone (the
    /// batched-predicate fast path; one unit per filtered pair). The
    /// fast-path hit rate is `PredicateFilter / (PredicateFilter +
    /// PredicateExact)`.
    PredicateFilter,
    /// Piece-pair relations where the interval filter was inconclusive
    /// and the exact (expansion-sign or scalar) fallback ran.
    PredicateExact,
}

/// Number of categories (length of the counter arrays).
pub const N_CATEGORIES: usize = 13;

/// All categories in `repr` order.
pub const ALL_CATEGORIES: [Category; N_CATEGORIES] = [
    Category::Order,
    Category::EnvelopeBuild,
    Category::EnvelopeMerge,
    Category::TreapOps,
    Category::CgBuild,
    Category::Query,
    Category::Crossings,
    Category::Primitive,
    Category::TinBuild,
    Category::Other,
    Category::TreapArena,
    Category::PredicateFilter,
    Category::PredicateExact,
];

/// The atomic counter arrays of one collector, plus the parent link that
/// makes nested brackets see their children's charges.
#[derive(Debug)]
struct Counters {
    work: [AtomicU64; N_CATEGORIES],
    depth: [AtomicU64; N_CATEGORIES],
    parent: Option<Arc<Counters>>,
}

impl Counters {
    fn new(parent: Option<Arc<Counters>>) -> Counters {
        Counters {
            work: std::array::from_fn(|_| AtomicU64::new(0)),
            depth: std::array::from_fn(|_| AtomicU64::new(0)),
            parent,
        }
    }
}

thread_local! {
    /// The calling thread's innermost installed collector.
    static ACTIVE: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
}

/// Charges `f` to the active collector and every ancestor in its chain;
/// no-op when nothing is installed.
#[inline]
fn charge(f: impl Fn(&Counters)) {
    ACTIVE.with(|a| {
        let borrow = a.borrow();
        let mut cur = borrow.as_deref();
        while let Some(c) = cur {
            f(c);
            cur = c.parent.as_deref();
        }
    });
}

/// A scoped set of work/depth counters.
///
/// Created per measurement (each `evaluate` of a view owns one), installed
/// with [`CostCollector::install`], read back with
/// [`CostCollector::report`]. The handle is a cheap `Arc` clone and is
/// `Send + Sync`; [`crate::join`] and [`crate::scope`] carry it across
/// rayon task boundaries automatically.
#[derive(Clone, Debug)]
pub struct CostCollector {
    inner: Arc<Counters>,
}

impl CostCollector {
    /// Creates a collector. If the calling thread already has an active
    /// collector, the new one is nested under it: every charge to the new
    /// collector also propagates to the enclosing one, preserving
    /// outer-bracket semantics.
    pub fn new() -> CostCollector {
        let parent = ACTIVE.with(|a| a.borrow().clone());
        CostCollector { inner: Arc::new(Counters::new(parent)) }
    }

    /// Installs this collector as the calling thread's active one,
    /// returning a guard that restores the previous collector when
    /// dropped. The guard must be dropped on the thread that created it
    /// (it is deliberately `!Send`).
    #[must_use = "dropping the guard immediately uninstalls the collector"]
    pub fn install(&self) -> CollectorGuard {
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(Arc::clone(&self.inner)));
        CollectorGuard { prev, _not_send: std::marker::PhantomData }
    }

    /// A snapshot of everything charged to this collector so far.
    pub fn report(&self) -> CostReport {
        CostReport {
            work: self
                .inner
                .work
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            depth: self
                .inner
                .depth
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Runs `f` under a fresh collector and returns its result together
    /// with the collected counters — the one-line measurement bracket.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, CostReport) {
        let collector = CostCollector::new();
        let guard = collector.install();
        let r = f();
        drop(guard);
        (r, collector.report())
    }
}

impl Default for CostCollector {
    fn default() -> Self {
        CostCollector::new()
    }
}

/// RAII guard of [`CostCollector::install`]; restores the previously
/// active collector on drop.
pub struct CollectorGuard {
    prev: Option<Arc<Counters>>,
    /// The guard manipulates a thread-local slot; sending it to another
    /// thread would restore the wrong slot.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// The calling thread's active collector, if any — a cheap handle clone.
/// [`crate::join`] / [`crate::scope`] use this to re-install the collector
/// on the threads their subtasks land on.
pub fn current() -> Option<CostCollector> {
    ACTIVE.with(|a| a.borrow().clone().map(|inner| CostCollector { inner }))
}

/// Runs `f` with `active` installed (when `Some`); used by the
/// task-boundary wrappers to propagate the spawning thread's collector.
pub fn with_active<R>(active: Option<CostCollector>, f: impl FnOnce() -> R) -> R {
    match active {
        Some(c) => {
            let _guard = c.install();
            f()
        }
        None => f(),
    }
}

/// True when the calling thread has a collector installed (i.e. counting
/// is live rather than the no-op fast path).
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Adds `n` units of work in `cat` to the active collector (and its
/// ancestors); no-op when no collector is installed.
#[inline]
pub fn add_work(cat: Category, n: u64) {
    charge(|c| {
        c.work[cat as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Records that a phase of category `cat` ran `d` dependent rounds;
/// sequential phases of the same category accumulate. No-op when no
/// collector is installed.
#[inline]
pub fn record_depth(cat: Category, d: u64) {
    charge(|c| {
        c.depth[cat as usize].fetch_add(d, Ordering::Relaxed);
    });
}

/// A snapshot of all counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostReport {
    /// Work per category, `repr` order (see [`ALL_CATEGORIES`]).
    pub work: Vec<u64>,
    /// Accumulated structural depth per category.
    pub depth: Vec<u64>,
}

impl CostReport {
    /// A report with every category present and zero.
    pub fn zeroed() -> CostReport {
        CostReport { work: vec![0; N_CATEGORIES], depth: vec![0; N_CATEGORIES] }
    }

    /// Work in one category (0 when the report predates the category).
    pub fn work_of(&self, cat: Category) -> u64 {
        self.work.get(cat as usize).copied().unwrap_or(0)
    }

    /// Depth of one category (0 when the report predates the category).
    pub fn depth_of(&self, cat: Category) -> u64 {
        self.depth.get(cat as usize).copied().unwrap_or(0)
    }

    /// Total work over all categories.
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Total depth (sum of per-category accumulated phase depths; phases of
    /// different categories run sequentially in the pipeline).
    pub fn total_depth(&self) -> u64 {
        self.depth.iter().sum()
    }

    /// Counter-wise sum of `other` into `self` — the accounting of a
    /// measurement stitched together from parts (e.g. per-tile reports of
    /// a tiled evaluation). Work adds; depth also adds, modelling the
    /// parts as evaluated sequentially — a conservative (upper-bound)
    /// depth for schedules that overlap parts. Length-tolerant like
    /// [`CostReport::since`]: missing categories count as zero and the
    /// result covers the longer vector.
    pub fn absorb(&mut self, other: &CostReport) {
        fn add(a: &mut Vec<u64>, b: &[u64]) {
            if a.len() < b.len() {
                a.resize(b.len(), 0);
            }
            for (x, &y) in a.iter_mut().zip(b) {
                *x = x.saturating_add(y);
            }
        }
        add(&mut self.work, &other.work);
        add(&mut self.depth, &other.depth);
    }

    /// Counter-wise difference `self - earlier` (for comparing two
    /// reports). Robust against reports of different vintages: missing
    /// categories (older serialized reports) count as zero, and the
    /// subtraction saturates instead of panicking when `earlier` is ahead
    /// in some category.
    pub fn since(&self, earlier: &CostReport) -> CostReport {
        fn diff(a: &[u64], b: &[u64]) -> Vec<u64> {
            (0..a.len().max(b.len()))
                .map(|i| {
                    let x = a.get(i).copied().unwrap_or(0);
                    let y = b.get(i).copied().unwrap_or(0);
                    x.saturating_sub(y)
                })
                .collect()
        }
        CostReport {
            work: diff(&self.work, &earlier.work),
            depth: diff(&self.depth, &earlier.depth),
        }
    }
}

/// RAII guard that records the depth of a phase as `ceil(log2(n)) + 1`
/// rounds — the canonical depth of a balanced divide-and-conquer or a
/// layer-by-layer pass over a balanced tree of `n` leaves.
pub struct DepthScope {
    cat: Category,
    rounds: u64,
}

impl DepthScope {
    /// Opens a scope for a phase over `n` items with logarithmic round
    /// structure.
    pub fn logarithmic(cat: Category, n: usize) -> Self {
        let rounds = (usize::BITS - n.max(1).leading_zeros()) as u64;
        DepthScope { cat, rounds }
    }

    /// Opens a scope for a phase with an explicit round count.
    pub fn rounds(cat: Category, rounds: u64) -> Self {
        DepthScope { cat, rounds }
    }
}

impl Drop for DepthScope {
    fn drop(&mut self) {
        record_depth(self.cat, self.rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstrumented_fast_path_is_a_noop() {
        assert!(!is_active());
        add_work(Category::Query, 10); // nowhere to go; must not panic
        record_depth(Category::Query, 3);
        let c = CostCollector::new();
        assert_eq!(c.report().total_work(), 0);
        assert_eq!(c.report().total_depth(), 0);
    }

    #[test]
    fn work_accumulates_per_collector() {
        let c = CostCollector::new();
        let g = c.install();
        add_work(Category::Query, 10);
        add_work(Category::Query, 5);
        add_work(Category::Crossings, 2);
        drop(g);
        add_work(Category::Query, 99); // after uninstall: not charged
        let r = c.report();
        assert_eq!(r.work_of(Category::Query), 15);
        assert_eq!(r.work_of(Category::Crossings), 2);
        assert_eq!(r.total_work(), 17);
    }

    #[test]
    fn guard_restores_previous_collector() {
        let outer = CostCollector::new();
        let og = outer.install();
        {
            let inner = CostCollector::new();
            let ig = inner.install();
            add_work(Category::Order, 4);
            drop(ig);
            // Nested: the inner charge propagated to the outer bracket too.
            assert_eq!(inner.report().work_of(Category::Order), 4);
        }
        add_work(Category::Order, 1); // outer is active again
        drop(og);
        assert_eq!(outer.report().work_of(Category::Order), 5);
    }

    #[test]
    fn nesting_chains_to_all_ancestors() {
        let grandparent = CostCollector::new();
        let gg = grandparent.install();
        let parent = CostCollector::new();
        let pg = parent.install();
        let child = CostCollector::new();
        let cg = child.install();
        add_work(Category::TreapOps, 7);
        drop(cg);
        drop(pg);
        drop(gg);
        assert_eq!(child.report().work_of(Category::TreapOps), 7);
        assert_eq!(parent.report().work_of(Category::TreapOps), 7);
        assert_eq!(grandparent.report().work_of(Category::TreapOps), 7);
    }

    #[test]
    fn measure_brackets() {
        let (value, report) = CostCollector::measure(|| {
            add_work(Category::CgBuild, 21);
            "done"
        });
        assert_eq!(value, "done");
        assert_eq!(report.work_of(Category::CgBuild), 21);
        assert!(!is_active());
    }

    #[test]
    fn collectors_on_other_threads_are_isolated() {
        let here = CostCollector::new();
        let g = here.install();
        std::thread::scope(|s| {
            s.spawn(|| {
                // A plain OS thread has no collector: charges vanish.
                assert!(!is_active());
                add_work(Category::Other, 1_000);
            })
            .join()
            .unwrap();
        });
        add_work(Category::Other, 1);
        drop(g);
        assert_eq!(here.report().work_of(Category::Other), 1);
    }

    #[test]
    fn depth_scope_logs() {
        let c = CostCollector::new();
        let g = c.install();
        {
            let _s = DepthScope::logarithmic(Category::EnvelopeBuild, 1024);
        }
        drop(g);
        assert_eq!(c.report().depth_of(Category::EnvelopeBuild), 11); // ceil(log2(1024)) + 1
    }

    #[test]
    fn since_subtracts() {
        let c = CostCollector::new();
        let g = c.install();
        add_work(Category::Order, 7);
        let a = c.report();
        add_work(Category::Order, 3);
        let b = c.report();
        drop(g);
        assert_eq!(b.since(&a).work_of(Category::Order), 3);
    }

    #[test]
    fn absorb_sums_and_tolerates_length_mismatch() {
        let mut a = CostReport { work: vec![1, 2], depth: vec![3] };
        let b = CostReport { work: vec![10, 20, 30], depth: vec![1, 1] };
        a.absorb(&b);
        assert_eq!(a.work, vec![11, 22, 30]);
        assert_eq!(a.depth, vec![4, 1]);
        let mut z = CostReport::zeroed();
        z.absorb(&CostReport::default());
        assert_eq!(z, CostReport::zeroed());
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let newer = CostReport { work: vec![5, 2], depth: vec![0, 1] };
        let older = CostReport { work: vec![9, 1], depth: vec![3, 0] };
        let d = newer.since(&older);
        assert_eq!(d.work, vec![0, 1]);
        assert_eq!(d.depth, vec![0, 1]);
    }

    #[test]
    fn since_tolerates_length_mismatched_reports() {
        // An older serialized report may predate newer categories (shorter
        // vectors) or come from a build with more (longer); both directions
        // must subtract as if padded with zeros, not truncate.
        let long = CostReport { work: vec![4, 4, 4], depth: vec![1, 1, 1] };
        let short = CostReport { work: vec![1], depth: vec![] };
        let d = long.since(&short);
        assert_eq!(d.work, vec![3, 4, 4]);
        assert_eq!(d.depth, vec![1, 1, 1]);
        let d2 = short.since(&long);
        assert_eq!(d2.work, vec![0, 0, 0]);
        assert_eq!(d2.depth, vec![0, 0, 0]);
        // Accessors are equally robust on short reports.
        assert_eq!(short.depth_of(Category::Other), 0);
        assert_eq!(short.work_of(Category::Other), 0);
    }
}
