//! Goodness-of-fit tests: chi-square and two-sample Kolmogorov–Smirnov.
//!
//! These back two verification jobs in the workspace:
//!
//! * **Lemma 3** — conditioned on the number of dates `k`, the dating
//!   service's date set must be a *uniform* random `k`-matching; we
//!   enumerate small matchings and chi-square the observed frequencies.
//! * **Oracle ≡ distributed protocol** — the oracle sampler and the
//!   message-passing protocol on the round runtime must produce
//!   identically distributed date counts; we compare samples with the KS
//!   test.

use crate::special::reg_upper_gamma;

/// Result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy)]
pub struct ChiSquareResult {
    /// The chi-square statistic `Σ (O−E)²/E`.
    pub statistic: f64,
    /// Degrees of freedom used for the p-value.
    pub dof: usize,
    /// `P(χ²_dof ≥ statistic)`.
    pub p_value: f64,
}

impl ChiSquareResult {
    /// True when the data are consistent with the null at level `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Chi-square goodness-of-fit of observed counts against expected counts.
///
/// `ddof` is the number of *additional* constraints beyond the total-count
/// constraint (e.g. estimated parameters); degrees of freedom are
/// `len − 1 − ddof`.
///
/// # Panics
/// Panics if lengths differ, if fewer than two categories remain, if any
/// expected count is non-positive, or if dof would be zero or negative.
pub fn chi_square_gof(observed: &[u64], expected: &[f64], ddof: usize) -> ChiSquareResult {
    assert_eq!(
        observed.len(),
        expected.len(),
        "observed/expected length mismatch"
    );
    assert!(observed.len() >= 2, "need at least two categories");
    assert!(
        observed.len() > 1 + ddof,
        "not enough categories for ddof={ddof}"
    );
    let mut stat = 0.0;
    for (&o, &e) in observed.iter().zip(expected.iter()) {
        assert!(e > 0.0, "expected counts must be positive, got {e}");
        let d = o as f64 - e;
        stat += d * d / e;
    }
    let dof = observed.len() - 1 - ddof;
    let p_value = reg_upper_gamma(dof as f64 / 2.0, stat / 2.0);
    ChiSquareResult {
        statistic: stat,
        dof,
        p_value,
    }
}

/// Chi-square test against a uniform null over `observed.len()` categories.
pub fn chi_square_uniform(observed: &[u64]) -> ChiSquareResult {
    let total: u64 = observed.iter().sum();
    let e = total as f64 / observed.len() as f64;
    let expected = vec![e; observed.len()];
    chi_square_gof(observed, &expected, 0)
}

/// Result of a two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy)]
pub struct KsResult {
    /// Supremum distance between the two empirical CDFs.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution, Stephens' correction).
    pub p_value: f64,
}

impl KsResult {
    /// True when the samples are consistent with one distribution at level
    /// `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Two-sample KS test. Sorts copies of the inputs; ties are handled by
/// advancing both pointers together (correct for discrete data such as date
/// counts, where the test is conservative).
///
/// # Panics
/// Panics if either sample is empty.
pub fn ks_two_sample(xs: &[f64], ys: &[f64]) -> KsResult {
    assert!(
        !xs.is_empty() && !ys.is_empty(),
        "samples must be non-empty"
    );
    let mut a = xs.to_vec();
    let mut b = ys.to_vec();
    a.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS sample"));
    b.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS sample"));
    let (n1, n2) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() && j < b.len() {
        let v = a[i].min(b[j]);
        while i < a.len() && a[i] <= v {
            i += 1;
        }
        while j < b.len() && b[j] <= v {
            j += 1;
        }
        let f1 = i as f64 / n1;
        let f2 = j as f64 / n2;
        d = d.max((f1 - f2).abs());
    }
    let ne = n1 * n2 / (n1 + n2);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_sf(lambda),
    }
}

/// Kolmogorov survival function `Q(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chi_square_accepts_fair_die() {
        // 600 rolls of a fair die, near-perfect counts.
        let observed = [98u64, 102, 100, 97, 103, 100];
        let r = chi_square_uniform(&observed);
        assert_eq!(r.dof, 5);
        assert!(r.p_value > 0.9, "p={}", r.p_value);
        assert!(r.accepts(0.05));
    }

    #[test]
    fn chi_square_rejects_loaded_die() {
        let observed = [300u64, 60, 60, 60, 60, 60];
        let r = chi_square_uniform(&observed);
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
        assert!(!r.accepts(0.05));
    }

    #[test]
    fn chi_square_known_statistic() {
        // Hand-computed: O = [10, 20], E = [15, 15] → χ² = 25/15*2 = 10/3.
        let r = chi_square_gof(&[10, 20], &[15.0, 15.0], 0);
        assert!((r.statistic - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.dof, 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn chi_square_length_mismatch_panics() {
        let _ = chi_square_gof(&[1, 2], &[1.0], 0);
    }

    #[test]
    fn ks_same_distribution_accepts() {
        let mut rng = SmallRng::seed_from_u64(17);
        let xs: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        let ys: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        let r = ks_two_sample(&xs, &ys);
        assert!(r.accepts(0.01), "p={} d={}", r.p_value, r.statistic);
    }

    #[test]
    fn ks_shifted_distribution_rejects() {
        let mut rng = SmallRng::seed_from_u64(18);
        let xs: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        let ys: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>() + 0.2).collect();
        let r = ks_two_sample(&xs, &ys);
        assert!(!r.accepts(0.01), "p={}", r.p_value);
    }

    #[test]
    fn ks_identical_samples_statistic_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let r = ks_two_sample(&xs, &xs);
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn ks_discrete_ties_handled() {
        // Discrete data with heavy ties must not produce a spurious gap.
        let xs: Vec<f64> = (0..1000).map(|i| (i % 5) as f64).collect();
        let ys: Vec<f64> = (0..1000).map(|i| ((i + 3) % 5) as f64).collect();
        let r = ks_two_sample(&xs, &ys);
        assert!(r.statistic < 1e-9, "d={}", r.statistic);
    }
}
