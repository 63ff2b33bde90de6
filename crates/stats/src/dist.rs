//! Discrete distributions: Poisson, Binomial, Hypergeometric and Zipf.
//!
//! The paper's analysis leans on each of these directly: Lemma 1
//! Poissonizes binomial request counts, Lemma 3 characterizes per-set date
//! counts as hypergeometric, and the §2 skew conjecture experiments sweep
//! Zipf selector weights. Probabilities are evaluated exactly in log space
//! via [`crate::special`], so large parameters do not overflow.

use crate::special::{ln_choose, ln_factorial, reg_lower_gamma};

/// Poisson distribution with rate `lambda` (`support: k = 0, 1, 2, …`).
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Poisson with mean `lambda`.
    ///
    /// # Panics
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "Poisson rate must be finite and non-negative, got {lambda}"
        );
        Self { lambda }
    }

    /// `P[X = k] = e^{−λ} λ^k / k!`.
    pub fn pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        (k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)).exp()
    }

    /// Survival `P[X > k] = P(k + 1, λ)` (regularized lower gamma), which
    /// stays accurate deep in the tail where `1 − P[X ≤ k]` would cancel.
    pub fn sf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return 0.0;
        }
        reg_lower_gamma(k as f64 + 1.0, self.lambda)
    }
}

/// Binomial distribution: `n` trials with success probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Binomial over `n` trials with per-trial probability `p`.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "Binomial p must be in [0,1], got {p}"
        );
        Self { n, p }
    }

    /// `P[X = k] = C(n, k) p^k (1−p)^{n−k}`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        (ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln())
            .exp()
    }
}

/// Hypergeometric distribution: draws without replacement.
///
/// Population of `total` items, `marked` of which are special; `draws`
/// items are taken; the variable counts special items among the draws.
#[derive(Debug, Clone, Copy)]
pub struct Hypergeometric {
    total: u64,
    marked: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Hypergeometric(`total` = N, `marked` = K, `draws` = n).
    ///
    /// # Panics
    /// Panics if `marked > total` or `draws > total`.
    pub fn new(total: u64, marked: u64, draws: u64) -> Self {
        assert!(
            marked <= total,
            "marked {marked} exceeds population {total}"
        );
        assert!(draws <= total, "draws {draws} exceeds population {total}");
        Self {
            total,
            marked,
            draws,
        }
    }

    /// Smallest attainable value: `max(0, draws + marked − total)`.
    pub fn support_min(&self) -> u64 {
        (self.draws + self.marked).saturating_sub(self.total)
    }

    /// Largest attainable value: `min(draws, marked)`.
    pub fn support_max(&self) -> u64 {
        self.draws.min(self.marked)
    }

    /// `P[X = x] = C(K, x) C(N−K, n−x) / C(N, n)`.
    pub fn pmf(&self, x: u64) -> f64 {
        if x < self.support_min() || x > self.support_max() {
            return 0.0;
        }
        (ln_choose(self.marked, x) + ln_choose(self.total - self.marked, self.draws - x)
            - ln_choose(self.total, self.draws))
        .exp()
    }
}

/// Zipf rank weights: rank `i` (0-based) has weight `∝ (i+1)^{−s}`.
///
/// This is a weight vector, not a sampler — the workspace draws from it
/// through `rendez_core`'s alias selector, which is O(1) per draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    weights: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s ≥ 0` (`s = 0` is uniform).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent invalid: {s}");
        let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        Self { weights }
    }

    /// The normalized weight vector (sums to 1, non-increasing in rank).
    pub fn weights(&self) -> Vec<f64> {
        self.weights.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_pmf_sums_to_one() {
        for &lambda in &[0.1, 1.0, 5.0, 30.0] {
            let p = Poisson::new(lambda);
            let total: f64 = (0..400).map(|k| p.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-10, "λ={lambda}: {total}");
        }
    }

    #[test]
    fn poisson_sf_complements_pmf_partial_sums() {
        let p = Poisson::new(7.5);
        let mut below = 0.0;
        for k in 0..50 {
            below += p.pmf(k);
            assert!((p.sf(k) - (1.0 - below)).abs() < 1e-12, "k={k}");
        }
        assert_eq!(Poisson::new(0.0).sf(0), 0.0);
    }

    #[test]
    fn binomial_degenerate_edges() {
        let zero = Binomial::new(10, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        let one = Binomial::new(10, 1.0);
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.pmf(9), 0.0);
    }

    #[test]
    fn binomial_matches_poisson_limit() {
        // Binomial(n, λ/n) → Poisson(λ).
        let b = Binomial::new(10_000, 3.0 / 10_000.0);
        let p = Poisson::new(3.0);
        for k in 0..12 {
            assert!((b.pmf(k) - p.pmf(k)).abs() < 1e-3, "k={k}");
        }
    }

    #[test]
    fn hypergeometric_support_and_mass() {
        let h = Hypergeometric::new(20, 6, 9);
        assert_eq!(h.support_min(), 0);
        assert_eq!(h.support_max(), 6);
        let total: f64 = (h.support_min()..=h.support_max()).map(|x| h.pmf(x)).sum();
        assert!((total - 1.0).abs() < 1e-10);
        // Tight support case: draws + marked > total.
        let h = Hypergeometric::new(10, 8, 7);
        assert_eq!(h.support_min(), 5);
        assert_eq!(h.support_max(), 7);
        assert_eq!(h.pmf(4), 0.0);
    }

    #[test]
    fn zipf_uniform_at_zero_exponent() {
        let z = Zipf::new(5, 0.0);
        for w in z.weights() {
            assert!((w - 0.2).abs() < 1e-12);
        }
        assert_eq!(z.weights().len(), 5);
    }
}
