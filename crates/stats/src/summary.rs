//! Welford running moments and summary records.
//!
//! [`RunningStats`] accumulates count, mean, variance (via the numerically
//! stable Welford update), min and max in O(1) memory. Accumulators can be
//! [`merge`](RunningStats::merge)d, which is what the Monte-Carlo fleet in
//! `rendez-fleet` uses to fold partial results.

/// Numerically stable streaming accumulator for mean/variance/min/max.
///
/// Uses Welford's algorithm: pushing a value costs a handful of flops and
/// never allocates. `merge` implements the Chan et al. parallel combination
/// so partial accumulators from worker threads can be folded exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Accumulate every value in `xs`.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Build an accumulator from an iterator of observations.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(xs: I) -> Self {
        let mut s = Self::new();
        s.extend(xs);
        s
    }

    /// Exactly combine two accumulators (Chan et al. parallel variance).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n-1` denominator; 0.0 when `n < 2`).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freeze into an immutable [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            sem: self.sem(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Immutable summary of a sample: the record every experiment table prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub sem: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Normal-approximation 95% confidence interval for the mean.
    ///
    /// All the paper's experiments use ≥10³ trials, where the normal
    /// approximation is accurate; we do not implement Student t quantiles.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.959_963_985 * self.sem;
        (self.mean - half, self.mean + half)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} max={:.6}",
            self.n, self.mean, self.std_dev, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sem(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = RunningStats::new();
        s.push(4.25);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 4.25);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 4.25);
        assert_eq!(s.max(), 4.25);
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [1.0, 2.5, -3.0, 7.25, 0.5, 2.0, 2.0, 11.0];
        let s = RunningStats::from_iter(xs.iter().copied());
        let (mean, var) = naive_mean_var(&xs);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 11.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = RunningStats::from_iter(xs.iter().copied());
        for split in [0usize, 1, 37, 50, 99, 100] {
            let mut a = RunningStats::from_iter(xs[..split].iter().copied());
            let b = RunningStats::from_iter(xs[split..].iter().copied());
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-10);
            assert!((a.variance() - whole.variance()).abs() < 1e-9);
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::from_iter([1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci95_shrinks_with_n() {
        let few = RunningStats::from_iter((0..10).map(|i| i as f64)).summary();
        let many = RunningStats::from_iter((0..1000).map(|i| (i % 10) as f64)).summary();
        let w1 = few.ci95().1 - few.ci95().0;
        let w2 = many.ci95().1 - many.ci95().0;
        assert!(w2 < w1);
    }
}
