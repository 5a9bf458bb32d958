//! Per-request span trees, bounded span rings, and the [`Recorder`].
//!
//! A [`SpanRecord`] is one named interval of work with optional cost
//! attribution (Brent work/depth and predicate-filter counters, threaded
//! in from the evaluation's own `CostReport`) and child spans. A
//! [`TraceRecord`] is the finished span tree of one served request.
//!
//! Finished traces land in bounded **span rings**: fixed slot arrays
//! where a writer claims a slot with one atomic `fetch_add` and then
//! `try_lock`s it — the push never blocks. The documented drop policy:
//!
//! * the ring keeps at most `capacity` traces; a new trace **overwrites
//!   the oldest** slot (overwrites are the normal steady-state and are
//!   *not* drops);
//! * if the claimed slot is momentarily held (a concurrent writer that
//!   wrapped onto the same slot, or a reader mid-snapshot), the trace is
//!   discarded and counted — **exactly** — in `dropped`.
//!
//! Every push therefore increments exactly one of `recorded` or
//! `dropped`, which is what the concurrency regression test asserts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{HistSnapshot, Histogram};
use crate::sync::lock_unpoisoned;

/// One named interval of work inside a request, with cost attribution.
///
/// `start_ns` is the offset from the *root* span's start (every span in
/// a tree shares the root's clock), so sibling stages tile the request
/// interval and their durations can be checked against the root's.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Stage name (e.g. `"parse"`, `"evaluate"`, `"phase1"`).
    pub name: String,
    /// Start offset from the root span's start, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Brent work charged while this span ran (0 when not attributed).
    pub work: u64,
    /// Brent critical-path depth (0 when not attributed).
    pub depth: u64,
    /// `PredicateFilter` hits (interval filter answered exactly).
    pub pred_filter: u64,
    /// `PredicateExact` fallbacks (exact arithmetic was needed).
    pub pred_exact: u64,
    /// Child spans, in start order, offsets relative to the root.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A span with wall-clock data only (costs zero, no children).
    pub fn new(name: &str, start_ns: u64, dur_ns: u64) -> Self {
        SpanRecord { name: name.to_string(), start_ns, dur_ns, ..SpanRecord::default() }
    }

    /// Sum of the direct children's durations — compared against
    /// `dur_ns` to check that the recorded stages account for the
    /// request's wall-clock latency.
    pub fn stage_sum_ns(&self) -> u64 {
        self.children.iter().map(|c| c.dur_ns).sum()
    }

    /// Shift this span and its subtree `delta` nanoseconds later
    /// (re-anchoring child offsets when grafting under a new root).
    pub fn shift(&mut self, delta: u64) {
        self.start_ns += delta;
        for c in &mut self.children {
            c.shift(delta);
        }
    }

    /// Fraction of predicate evaluations the interval filter resolved
    /// without exact arithmetic (`0.0` when none were recorded).
    pub fn filter_hit_rate(&self) -> f64 {
        let n = self.pred_filter + self.pred_exact;
        if n == 0 {
            0.0
        } else {
            self.pred_filter as f64 / n as f64
        }
    }
}

/// The finished span tree of one served request.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceRecord {
    /// The request id the client supplied.
    pub id: u64,
    /// The terrain the request addressed.
    pub terrain: String,
    /// The root span (`dur_ns` is the request's end-to-end latency).
    pub root: SpanRecord,
}

/// Bounded non-blocking trace ring (see the module docs for the drop
/// policy). Push is one `fetch_add` plus one `try_lock`.
struct Ring {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, t: TraceRecord) {
        // ordering: slot claim is load-balancing only; no data rides on it.
        let claim = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        match self.slots[claim].try_lock() {
            Ok(mut slot) => {
                *slot = Some(t);
                // ordering: Release publishes the slot write to Acquire readers.
                self.recorded.fetch_add(1, Ordering::Release);
            }
            Err(_) => {
                // ordering: Release pairs with the Acquire snapshot reads.
                self.dropped.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Clone out the resident traces (locks each slot briefly; a writer
    /// that collides with the reader counts its trace as dropped).
    fn snapshot(&self) -> Vec<TraceRecord> {
        self.slots
            .iter()
            .filter_map(|s| lock_unpoisoned(s).clone())
            .collect()
    }
}

/// Sizing and slow-capture policy for a [`Recorder`].
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Capacity of the recent-traces ring.
    pub recent_capacity: usize,
    /// Capacity of the slow-traces ring.
    pub slow_capacity: usize,
    /// Requests at least this slow have their span tree captured in the
    /// slow ring (in addition to the recent ring).
    pub slow_threshold: Duration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            recent_capacity: 256,
            slow_capacity: 64,
            slow_threshold: Duration::from_millis(250),
        }
    }
}

/// The process-wide observability hub: named histograms, named event
/// counters, a recent-traces ring, and a slow-traces ring.
///
/// There is no global instance: a recorder exists only where something
/// installed one (`Option<Arc<Recorder>>` on the server), mirroring the
/// `CostCollector` off-switch — no recorder, no work.
pub struct Recorder {
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    recent: Ring,
    slow: Ring,
    slow_threshold_ns: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(RecorderConfig::default())
    }
}

impl Recorder {
    /// A recorder with the given ring sizes and slow threshold.
    pub fn new(config: RecorderConfig) -> Self {
        Recorder {
            hists: Mutex::new(BTreeMap::new()),
            events: Mutex::new(BTreeMap::new()),
            recent: Ring::new(config.recent_capacity),
            slow: Ring::new(config.slow_capacity),
            slow_threshold_ns: u64::try_from(config.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// The named histogram, created empty on first use. Callers on hot
    /// paths should fetch the `Arc` once and record through it; the
    /// registry lock is only for lookup.
    pub fn hist(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_unpoisoned(&self.hists);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// The named event counter, created at zero on first use. As with
    /// [`Recorder::hist`], hot paths should cache the `Arc`.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = lock_unpoisoned(&self.events);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// Bump a named event counter (registry lookup per call — use
    /// [`Recorder::counter`] on hot paths).
    pub fn add_event(&self, name: &str, n: u64) {
        // ordering: Release so a snapshot that sees the count also sees
        // whatever work the caller did before bumping it.
        self.counter(name).fetch_add(n, Ordering::Release);
    }

    /// File a finished request trace: always into the recent ring, and
    /// into the slow ring too when the root latency reaches the
    /// configured threshold.
    pub fn record_trace(&self, t: TraceRecord) {
        if t.root.dur_ns >= self.slow_threshold_ns {
            self.slow.push(t.clone());
        }
        self.recent.push(t);
    }

    /// The configured slow-capture threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_threshold_ns)
    }

    /// Traces filed so far. Counted on the recent ring, which every
    /// [`Recorder::record_trace`] call passes through — so
    /// `traces_recorded + traces_dropped` equals the number of calls
    /// exactly, regardless of how many traces *also* entered the slow
    /// ring.
    pub fn traces_recorded(&self) -> u64 {
        // ordering: Acquire pairs with the Release bump in `Ring::push`.
        self.recent.recorded.load(Ordering::Acquire)
    }

    /// Traces discarded on slot collision (exact; see
    /// [`Recorder::traces_recorded`] for the call-count identity).
    pub fn traces_dropped(&self) -> u64 {
        // ordering: Acquire pairs with the Release bump in `Ring::push`.
        self.recent.dropped.load(Ordering::Acquire)
    }

    /// Freeze everything into a wire-ready [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hists = {
            let map = lock_unpoisoned(&self.hists);
            map.iter()
                .map(|(name, h)| NamedHist { name: name.clone(), hist: h.snapshot() })
                .collect()
        };
        let events = {
            let map = lock_unpoisoned(&self.events);
            map.iter()
                .map(|(name, c)| NamedCount {
                    name: name.clone(),
                    // ordering: Acquire pairs with the Release adds.
                    value: c.load(Ordering::Acquire),
                })
                .collect()
        };
        MetricsSnapshot {
            enabled: true,
            hists,
            events,
            recent: self.recent.snapshot(),
            slow: self.slow.snapshot(),
            traces_recorded: self.traces_recorded(),
            traces_dropped: self.traces_dropped(),
            slow_threshold_ns: self.slow_threshold_ns,
        }
    }
}

/// A histogram snapshot with its registry name.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NamedHist {
    /// Registry name (e.g. `"request"`, `"evaluate"`).
    pub name: String,
    /// The frozen histogram.
    pub hist: HistSnapshot,
}

/// An event counter with its registry name.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NamedCount {
    /// Registry name (e.g. `"scene_hit"`, `"tile_evict"`).
    pub name: String,
    /// Current (monotonic) count.
    pub value: u64,
}

/// Everything a `Request::Metrics` scrape returns: every named
/// histogram and event counter, the recent and slow trace rings, and the
/// ring bookkeeping. Serde-round-trippable plain data.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// `false` when the server answered without a recorder installed
    /// (every other field is then empty).
    pub enabled: bool,
    /// All named histograms, sorted by name.
    pub hists: Vec<NamedHist>,
    /// All named event counters, sorted by name.
    pub events: Vec<NamedCount>,
    /// Resident traces in the recent ring (arbitrary order).
    pub recent: Vec<TraceRecord>,
    /// Resident traces in the slow ring (arbitrary order).
    pub slow: Vec<TraceRecord>,
    /// Traces filed since startup (monotonic; one per
    /// `record_trace` call that landed, counted on the recent ring).
    pub traces_recorded: u64,
    /// Traces discarded on slot collision since startup (monotonic,
    /// exact — see the ring drop policy in the module docs).
    /// `traces_recorded + traces_dropped` is exactly the number of
    /// traces the server filed.
    pub traces_dropped: u64,
    /// The configured slow-capture threshold, nanoseconds.
    pub slow_threshold_ns: u64,
}

impl MetricsSnapshot {
    /// The snapshot a recorder-less server answers with.
    pub fn disabled() -> Self {
        MetricsSnapshot::default()
    }

    /// Look up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// Look up an event counter by name (`0` when absent).
    pub fn event(&self, name: &str) -> u64 {
        self.events
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, dur_ns: u64) -> TraceRecord {
        TraceRecord { id, terrain: "t".into(), root: SpanRecord::new("request", 0, dur_ns) }
    }

    #[test]
    fn ring_keeps_most_recent_up_to_capacity() {
        let r = Ring::new(4);
        for i in 0..10 {
            r.push(trace(i, 1));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let mut ids: Vec<u64> = snap.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded.load(Ordering::Acquire), 10);
        assert_eq!(r.dropped.load(Ordering::Acquire), 0);
    }

    #[test]
    fn slow_threshold_routes_to_slow_ring() {
        let rec = Recorder::new(RecorderConfig {
            recent_capacity: 8,
            slow_capacity: 8,
            slow_threshold: Duration::from_nanos(1000),
        });
        rec.record_trace(trace(1, 10));
        rec.record_trace(trace(2, 2000));
        let s = rec.snapshot();
        assert_eq!(s.recent.len(), 2);
        assert_eq!(s.slow.len(), 1);
        assert_eq!(s.slow[0].id, 2);
        assert!(s.enabled);
    }

    #[test]
    fn span_shift_and_stage_sum() {
        let mut root = SpanRecord::new("request", 0, 100);
        root.children.push(SpanRecord::new("a", 0, 40));
        let mut b = SpanRecord::new("b", 40, 60);
        b.children.push(SpanRecord::new("b1", 40, 30));
        root.children.push(b);
        assert_eq!(root.stage_sum_ns(), 100);
        root.shift(10);
        assert_eq!(root.start_ns, 10);
        assert_eq!(root.children[1].children[0].start_ns, 50);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let rec = Recorder::default();
        rec.hist("request").record(123);
        rec.add_event("scene_hit", 3);
        let mut t = trace(7, 5000);
        t.root.children.push(SpanRecord {
            name: "evaluate".into(),
            start_ns: 100,
            dur_ns: 4000,
            work: 42,
            depth: 7,
            pred_filter: 90,
            pred_exact: 10,
            children: vec![SpanRecord::new("phase1", 100, 1500)],
        });
        rec.record_trace(t);
        let s = rec.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.event("scene_hit"), 3);
        assert_eq!(back.hist("request").unwrap().total, 1);
        assert!((back.recent[0].root.children[0].filter_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disabled_snapshot_is_empty() {
        let s = MetricsSnapshot::disabled();
        assert!(!s.enabled);
        assert!(s.hists.is_empty() && s.recent.is_empty());
        assert_eq!(s.event("anything"), 0);
    }
}
