//! Log-linear latency histograms over `u64` nanoseconds.
//!
//! The bucket layout is the classic log-linear ("HDR-style") scheme:
//! values below [`LINEAR`] get one exact bucket each, and every octave
//! `[2^h, 2^{h+1})` above that is split into [`LINEAR`] equal sub-buckets.
//! A bucket's width is therefore at most `1/LINEAR` of the values it
//! holds, so any quantile answered from bucket upper bounds is exact to
//! within a relative error of [`RELATIVE_ERROR`] (6.25%) — independent
//! of the value range, with no dynamic allocation and no rebinning.
//!
//! [`Histogram`] is the concurrent recording side: a fixed array of
//! relaxed atomics, safe to hammer from any number of threads.
//! [`HistSnapshot`] is the frozen, serde-round-trippable view: sparse
//! (only non-empty buckets travel over the wire), mergeable, and
//! subtractable so callers can window a live counter between two
//! scrapes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per octave, and the width of the exact low range.
pub const LINEAR: u64 = 16;
const LOW_BITS: u32 = 4; // log2(LINEAR)
/// Octaves covered above the exact range (powers `LOW_BITS..=63`).
const OCTAVES: usize = 64 - LOW_BITS as usize;
/// Total bucket count: `LINEAR` exact low buckets plus `LINEAR` per octave.
pub const N_BUCKETS: usize = LINEAR as usize * (1 + OCTAVES);

/// Worst-case relative error of a quantile answered from bucket bounds.
pub const RELATIVE_ERROR: f64 = 1.0 / LINEAR as f64;

/// Index of the bucket holding `v`. Total order: `bucket_of` is
/// monotone in `v`, and every `u64` maps to exactly one of the
/// [`N_BUCKETS`] slots.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // >= LOW_BITS
        let sub = (v >> (h - LOW_BITS)) & (LINEAR - 1);
        (LINEAR as u32 + (h - LOW_BITS) * LINEAR as u32 + sub as u32) as usize
    }
}

/// Largest value stored in bucket `i` (the bound `quantile` reports).
fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR as usize {
        i as u64
    } else {
        let h = LOW_BITS + ((i - LINEAR as usize) / LINEAR as usize) as u32;
        let sub = ((i - LINEAR as usize) % LINEAR as usize) as u128;
        let next = (LINEAR as u128 + sub + 1) << (h - LOW_BITS);
        u64::try_from(next - 1).unwrap_or(u64::MAX)
    }
}

/// Concurrent fixed-bucket log-linear histogram of `u64` samples
/// (by convention, durations in nanoseconds).
///
/// `record` is three relaxed atomic adds and one atomic max — no locks,
/// no allocation — so it is safe on hot paths. Counters only ever grow;
/// `snapshot` freezes a self-consistent sparse view (its `total` is the
/// sum of the bucket counts it actually captured).
pub struct Histogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates the fixed bucket array once).
    pub fn new() -> Self {
        Histogram {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        // ordering: sum/max are advisory aggregates, written before the
        // bucket so the Release below publishes them with the sample.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // ordering: see `sum` above.
        self.max.fetch_max(v, Ordering::Relaxed);
        // ordering: Release pairs with the Acquire bucket reads in
        // `snapshot`: a reader that sees the sample also sees `max` at
        // or above it.
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Release);
    }

    /// Record a [`Duration`] as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Freeze a sparse snapshot. The snapshot's `total` is computed from
    /// the captured bucket counts, so `total == n.iter().sum()` always
    /// holds even while writers race; `sum_ns`/`max_ns` are read after
    /// the buckets and may reflect slightly newer samples, so `max_ns`
    /// bounds every captured sample.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut bucket = Vec::new();
        let mut n = Vec::new();
        let mut total = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            // ordering: Acquire pairs with the Release add in `record`.
            let v = c.load(Ordering::Acquire);
            if v != 0 {
                bucket.push(i as u32);
                n.push(v);
                total += v;
            }
        }
        HistSnapshot {
            bucket,
            n,
            total,
            // ordering: advisory aggregates, documented as unsynchronized.
            sum_ns: self.sum.load(Ordering::Relaxed),
            // ordering: see `sum_ns` above.
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen sparse view of a [`Histogram`]: parallel `bucket`/`n` vectors
/// holding only the non-empty buckets, in increasing bucket order.
///
/// Snapshots are plain data — they serialize over the wire, merge
/// (`merge` adds bucket-wise) and window (`since` subtracts an earlier
/// scrape of the same histogram) without losing quantile accuracy.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistSnapshot {
    /// Indices of non-empty buckets, ascending.
    pub bucket: Vec<u32>,
    /// Sample count per bucket, parallel to `bucket`.
    pub n: Vec<u64>,
    /// Total samples (always the sum of `n`).
    pub total: u64,
    /// Sum of all recorded values, for means.
    pub sum_ns: u64,
    /// Largest recorded value (exact, not a bucket bound).
    pub max_ns: u64,
}

impl HistSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`), answered as the upper bound of
    /// the bucket containing the `ceil(q · total)`-th smallest sample,
    /// clamped to `max_ns` so no quantile exceeds the observed maximum.
    /// Exact to within [`RELATIVE_ERROR`] relative error; `0` if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.bucket.iter().zip(&self.n) {
            seen += c;
            if seen >= rank {
                return bucket_upper(*i as usize).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean of all recorded values in nanoseconds (`0` if empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.total).unwrap_or(0)
    }

    /// Add another snapshot bucket-wise (histogram merge).
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut bucket = Vec::with_capacity(self.bucket.len() + other.bucket.len());
        let mut n = Vec::with_capacity(bucket.capacity());
        let (mut a, mut b) = (0, 0);
        while a < self.bucket.len() || b < other.bucket.len() {
            let ka = self.bucket.get(a).copied().unwrap_or(u32::MAX);
            let kb = other.bucket.get(b).copied().unwrap_or(u32::MAX);
            let k = ka.min(kb);
            let mut c = 0u64;
            if ka == k {
                c += self.n[a];
                a += 1;
            }
            if kb == k {
                c += other.n[b];
                b += 1;
            }
            bucket.push(k);
            n.push(c);
        }
        self.bucket = bucket;
        self.n = n;
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The window between an `earlier` scrape of the same histogram and
    /// this one: bucket-wise saturating subtraction. `max_ns` is kept
    /// from `self` (the maximum is not windowable).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut bucket = Vec::new();
        let mut n = Vec::new();
        let mut total = 0u64;
        let mut b = 0;
        for (i, &c) in self.bucket.iter().zip(&self.n) {
            while b < earlier.bucket.len() && earlier.bucket[b] < *i {
                b += 1;
            }
            let prev = if earlier.bucket.get(b) == Some(i) {
                earlier.n[b]
            } else {
                0
            };
            let d = c.saturating_sub(prev);
            if d != 0 {
                bucket.push(*i);
                n.push(d);
                total += d;
            }
        }
        HistSnapshot {
            bucket,
            n,
            total,
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            max_ns: self.max_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_line() {
        // Monotone, exhaustive at the seams, and upper bounds consistent.
        let mut probes: Vec<u64> = (0..LINEAR * 4)
            .chain((4..64).flat_map(|h| {
                let p = 1u64 << h;
                [p - 1, p, p + 1, p + p / 2, p.saturating_mul(2) - 1]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        probes.sort_unstable();
        probes.dedup();
        let mut prev = 0;
        for &v in &probes {
            let i = bucket_of(v);
            assert!(i < N_BUCKETS, "index in range for {v}");
            assert!(i >= prev, "monotone at {v}");
            prev = i;
            assert!(bucket_upper(i) >= v, "upper bound covers {v}");
            // The bound is within one sub-bucket of the value.
            let width = (bucket_upper(i) - v) as f64;
            assert!(
                width <= (v as f64 * RELATIVE_ERROR).max(1.0),
                "relative error bound at {v}: upper {}",
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn exact_low_range() {
        for v in 0..LINEAR {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // First octave is still exact (width-1 sub-buckets).
        for v in LINEAR..2 * LINEAR {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_match_exact_within_relative_error() {
        let h = Histogram::new();
        let mut vals: Vec<u64> = (0..10_000u64).map(|i| (i * 7919) % 1_000_000 + 1).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.total, vals.len() as u64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let approx = s.quantile(q);
            assert!(approx >= exact, "quantile lower-bounds exact at q={q}");
            assert!(
                approx as f64 <= exact as f64 * (1.0 + RELATIVE_ERROR) + 1.0,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(s.max_ns, *vals.last().unwrap());
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        let h = Histogram::new();
        h.record(1000); // bucket [992, 1023]
        let s = h.snapshot();
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.quantile(1.0), s.max_ns);
        assert_eq!(s.quantile(0.5), 1000);
        h.record(10);
        assert_eq!(h.snapshot().quantile(0.99), 1000);
    }

    #[test]
    fn merge_equals_recording_union() {
        let (a, b) = (Histogram::new(), Histogram::new());
        let all = Histogram::new();
        for i in 0..500u64 {
            let v = i * i % 7777;
            if i % 2 == 0 { &a } else { &b }.record(v);
            all.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn since_windows_between_scrapes() {
        let h = Histogram::new();
        for v in [5u64, 100, 100, 9000] {
            h.record(v);
        }
        let early = h.snapshot();
        for v in [5u64, 77, 1 << 40] {
            h.record(v);
        }
        let late = h.snapshot();
        let win = late.since(&early);
        assert_eq!(win.total, 3);
        let fresh = Histogram::new();
        for v in [5u64, 77, 1 << 40] {
            fresh.record(v);
        }
        let want = fresh.snapshot();
        assert_eq!(win.bucket, want.bucket);
        assert_eq!(win.n, want.n);
        assert_eq!(win.sum_ns, want.sum_ns);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = Histogram::new();
        for v in [0u64, 1, 15, 16, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().total, 40_000);
    }
}
