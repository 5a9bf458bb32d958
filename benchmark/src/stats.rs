//! Exact order statistics of raw samples.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` samples is
//! the `⌈p·n⌉`-th smallest sample. It is always an observed value, so it
//! can never exceed the observed maximum, unlike a bucketed histogram
//! quantile. Following "report a median and the highest percentile that
//! has at least ten samples beyond it", a tail percentile (`p > 0.5`) is
//! withheld when fewer than [`MIN_BEYOND`] samples lie beyond its rank;
//! the median of any non-empty set is reported, with its sample count.

/// Samples a tail percentile needs above its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// Raw samples, sorted once.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes the samples; non-finite values are a caller bug.
    pub fn new(mut values: Vec<f64>) -> Samples {
        assert!(values.iter().all(|v| v.is_finite()), "samples must be finite");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// The largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The nearest-rank `p`-th percentile, `p` in `(0, 1]`; `None` when
    /// there are no samples, or for `p > 0.5` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let r = rank(p, n);
        if p > 0.5 && n - r < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[r - 1])
    }

    /// The median (nearest-rank p50).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }
}

/// 1-based nearest rank `⌈p·n⌉`, clamped to `1..=n`. The product is
/// rounded to 9 decimals first so `0.9 × 100` ranks 90, not 91.
fn rank(p: f64, n: usize) -> usize {
    let exact = (p * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        // Reversed, so the helper has to sort.
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p50_and_p90_on_known_samples() {
        let s = one_to(100);
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        let s = one_to(101);
        assert_eq!(s.median(), Some(51.0));
        assert_eq!(s.percentile(0.9), Some(91.0));
        let s = Samples::new(vec![7.0, 1.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn percentiles_are_observed_samples_never_above_the_max() {
        let values: Vec<f64> = (0..250)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.37)
            .collect();
        let s = Samples::new(values.clone());
        for p in [0.5, 0.75, 0.9, 0.95] {
            let v = s.percentile(p).expect("250 samples cover p95");
            assert!(v <= s.max().unwrap());
            assert!(values.contains(&v), "p{p} = {v} is not a sample");
        }
        assert_eq!(s.max(), values.iter().copied().reduce(f64::max));
    }

    #[test]
    fn sample_counts_are_reported() {
        assert_eq!(Samples::new(Vec::new()).len(), 0);
        assert_eq!(one_to(37).len(), 37);
        assert_eq!(one_to(37).min(), Some(1.0));
        assert_eq!(Samples::new(Vec::new()).min(), None);
    }

    #[test]
    fn tail_percentile_withheld_with_fewer_than_ten_beyond() {
        // 99 samples: p90 ranks 90 (⌈89.1⌉), leaving nine beyond.
        assert_eq!(one_to(99).percentile(0.9), None);
        // 100 samples: exactly ten beyond rank 90.
        assert_eq!(one_to(100).percentile(0.9), Some(90.0));
        // The median needs no tail and is reported for one sample.
        assert_eq!(one_to(1).median(), Some(1.0));
        assert_eq!(Samples::new(Vec::new()).median(), None);
    }
}
