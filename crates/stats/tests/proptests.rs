//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rendez_stats::special::{ln_choose, ln_gamma, reg_lower_gamma, reg_upper_gamma};
use rendez_stats::{Binomial, Hypergeometric, Poisson, RunningStats, Zipf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Welford mean/variance agree with the naive two-pass computation.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let s = RunningStats::from_iter(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// Merging any split of a sample equals processing it whole.
    #[test]
    fn welford_merge_any_split(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let whole = RunningStats::from_iter(xs.iter().copied());
        let mut left = RunningStats::from_iter(xs[..split].iter().copied());
        let right = RunningStats::from_iter(xs[split..].iter().copied());
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-8);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// ln Γ satisfies the recurrence Γ(x+1) = x Γ(x).
    #[test]
    fn ln_gamma_recurrence(x in 0.1f64..50.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// Pascal's rule in log space: C(n,k) = C(n-1,k-1) + C(n-1,k).
    #[test]
    fn ln_choose_pascal(n in 2u64..500, k_frac in 0.0f64..1.0) {
        let k = 1 + ((k_frac * (n - 2) as f64) as u64);
        let lhs = ln_choose(n, k).exp();
        let rhs = ln_choose(n - 1, k - 1).exp() + ln_choose(n - 1, k).exp();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0));
    }

    /// P(a,x) + Q(a,x) = 1 and both lie in [0,1].
    #[test]
    fn incomplete_gamma_partition(a in 0.1f64..200.0, x in 0.0f64..400.0) {
        let p = reg_lower_gamma(a, x);
        let q = reg_upper_gamma(a, x);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&q));
        prop_assert!((p + q - 1.0).abs() < 1e-9);
    }

    /// The Poisson survival function is one minus the pmf partial sums,
    /// and non-increasing.
    #[test]
    fn poisson_sf_consistent(lambda in 0.01f64..60.0, k in 0u64..100) {
        let p = Poisson::new(lambda);
        let below: f64 = (0..=k).map(|i| p.pmf(i)).sum();
        prop_assert!((p.sf(k) - (1.0 - below)).abs() < 1e-7);
        prop_assert!(p.sf(k + 1) <= p.sf(k) + 1e-12);
    }

    /// Binomial pmf sums to 1 over its support.
    #[test]
    fn binomial_pmf_normalized(n in 1u64..200, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p);
        let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
    }

    /// Hypergeometric pmf sums to 1 and its mean matches nK/N.
    #[test]
    fn hypergeometric_normalized(big_n in 1u64..120, marked_frac in 0.0f64..=1.0, draw_frac in 0.0f64..=1.0) {
        let k = (big_n as f64 * marked_frac) as u64;
        let n = (big_n as f64 * draw_frac) as u64;
        let h = Hypergeometric::new(big_n, k, n);
        let total: f64 = (h.support_min()..=h.support_max()).map(|x| h.pmf(x)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        let mean: f64 = (h.support_min()..=h.support_max())
            .map(|x| x as f64 * h.pmf(x))
            .sum();
        let expected = n as f64 * k as f64 / big_n as f64;
        prop_assert!((mean - expected).abs() < 1e-7 * (1.0 + expected));
    }

    /// Zipf weights are a probability vector and are non-increasing in rank.
    #[test]
    fn zipf_weights_valid(n in 1usize..300, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let w = z.weights();
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-12);
        }
    }
}
